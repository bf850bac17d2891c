// fwd_udp — the forwarding pipeline behind real loopback sockets.
//
// One generator thread sends pre-sealed, smallest-size (52 B) valid frames
// over 127.0.0.1 to the router's UdpTransport. The generator is the
// benchmark's own: a plain UDP socket that sends and receives in batches
// (sendmmsg/recvmmsg), so its per-datagram cost stays below the router's
// and shares no code with it. The router's RX thread (the calling thread)
// drains datagrams into pooled buffers and runs
// ForwardingPool::process_outgoing; send_external transmits every
// forwarded packet back to the generator's socket. The loop is closed: at
// most kWindow datagrams are in flight, far below the socket buffers, so
// none is lost. A round is kRound datagrams; rounds alternate between a
// 1-thread pool and an (nproc-1)-thread pool, the generator thread taking
// the remaining core.
//
// Check: every datagram comes back exactly once, in send order (loopback
// and the pool's burst-order action phase keep FIFO), byte-equal to what
// was sent. A missing datagram stalls the window and fails the run.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <condition_variable>
#include <cstring>
#include <memory>
#include <mutex>
#include <random>
#include <thread>

#include "core/as_state.h"
#include "core/packet_auth.h"
#include "crypto/rng.h"
#include "net/sim.h"
#include "net/transport.h"
#include "router/border_router.h"
#include "router/forwarding_pool.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace apna;
using router::BorderRouter;

constexpr std::size_t kHosts = 1024;
constexpr std::size_t kFlows = 256;       // source EphIDs
constexpr std::size_t kImages = 4096;     // distinct datagrams, > kWindow
constexpr std::size_t kWindow = 256;      // datagrams in flight
constexpr std::size_t kRound = 8192;      // datagrams per round
constexpr std::size_t kRouterBurst = 256; // most datagrams per pool call
constexpr std::size_t kRttEvery = 8;      // keep every 8th round-trip sample
constexpr std::size_t kIoBatch = 64;      // datagrams per sendmmsg/recvmmsg
constexpr std::size_t kMaxFrame = 2048;   // receive buffer, above the MTU
constexpr core::Aid kOurAid = 64512;
constexpr core::Aid kPeerAid = 64513;
constexpr core::ExpTime kNow = net::kEpochSeconds;
constexpr std::uint64_t kStallTimeoutNs = 2'000'000'000;

/// A plain nonblocking UDP socket on 127.0.0.1, outside the program: the
/// generator and the bare echo use it, so neither shares code with the
/// router's UdpTransport.
class RawSocket {
 public:
  RawSocket() {
    fd_ = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK, 0);
    if (fd_ < 0) return;
    // The same receive buffer as the router's UdpTransport: far above what
    // a window of small datagrams occupies.
    const int rcvbuf = 1 << 20;
    (void)::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof rcvbuf);
    sockaddr_in a{};
    a.sin_family = AF_INET;
    a.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof a;
    if (::bind(fd_, reinterpret_cast<sockaddr*>(&a), sizeof a) != 0 ||
        ::getsockname(fd_, reinterpret_cast<sockaddr*>(&a), &len) != 0) {
      ::close(fd_);
      fd_ = -1;
      return;
    }
    port_ = ntohs(a.sin_port);
  }
  ~RawSocket() {
    if (fd_ >= 0) ::close(fd_);
  }
  RawSocket(const RawSocket&) = delete;
  RawSocket& operator=(const RawSocket&) = delete;

  bool ok() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  std::uint16_t port() const { return port_; }
  /// Waits up to `ms` for a datagram to read.
  void wait_readable(int ms) const {
    pollfd p{fd_, POLLIN, 0};
    (void)::poll(&p, 1, ms);
  }

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

sockaddr_in loopback(std::uint16_t port) {
  sockaddr_in a{};
  a.sin_family = AF_INET;
  a.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  a.sin_port = htons(port);
  return a;
}

/// Receive-side batch for recvmmsg: kIoBatch buffers of one MTU each.
struct RxBatch {
  std::vector<std::uint8_t> store = std::vector<std::uint8_t>(kIoBatch * kMaxFrame);
  std::array<iovec, kIoBatch> iov{};
  std::array<mmsghdr, kIoBatch> msg{};

  /// Reads what is queued (up to kIoBatch datagrams) without blocking.
  int read(int fd) {
    for (std::size_t i = 0; i < kIoBatch; ++i) {
      iov[i] = {store.data() + i * kMaxFrame, kMaxFrame};
      msg[i] = {};
      msg[i].msg_hdr.msg_iov = &iov[i];
      msg[i].msg_hdr.msg_iovlen = 1;
    }
    return ::recvmmsg(fd, msg.data(), kIoBatch, MSG_DONTWAIT, nullptr);
  }
  ByteSpan datagram(int i) const {
    return ByteSpan(store.data() + static_cast<std::size_t>(i) * kMaxFrame, msg[i].msg_len);
  }
};

/// Sends `n` (at most kIoBatch) datagrams to `to` with one sendmmsg call;
/// returns how many left.
int send_batch(int fd, const sockaddr_in& to, const ByteSpan* dgrams, std::size_t n) {
  std::array<iovec, kIoBatch> iov{};
  std::array<mmsghdr, kIoBatch> msg{};
  for (std::size_t i = 0; i < n; ++i) {
    iov[i] = {const_cast<std::uint8_t*>(dgrams[i].data()), dgrams[i].size()};
    msg[i].msg_hdr.msg_name = const_cast<sockaddr_in*>(&to);
    msg[i].msg_hdr.msg_namelen = sizeof to;
    msg[i].msg_hdr.msg_iov = &iov[i];
    msg[i].msg_hdr.msg_iovlen = 1;
  }
  return ::sendmmsg(fd, msg.data(), static_cast<unsigned>(n), 0);
}

/// The load generator: its own RawSocket, its own thread, one round per
/// command. It batches sends and receives (sendmmsg/recvmmsg), so its
/// per-datagram cost stays below that of the router, which takes one
/// recvfrom and one sendto per datagram.
class Generator {
 public:
  struct RoundResult {
    double seconds = 0;
    std::uint64_t received = 0;
    std::uint64_t mismatches = 0;
    std::uint64_t lost = 0;
    double tx_ns = 0;     // time inside sendmmsg
    double stall_ns = 0;  // time blocked waiting for replies
    std::vector<double> rtt_us;
  };

  explicit Generator(const std::vector<wire::PacketBuf>& images)
      : images_(images), sent_at_(kWindow), thread_([this] { main(); }) {}

  ~Generator() {
    {
      std::lock_guard lock(mu_);
      quit_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  bool ok() const { return sock_.ok(); }
  std::uint16_t port() const { return sock_.port(); }

  /// Starts one round of kRound datagrams to 127.0.0.1:`to_port`.
  void start_round(std::uint16_t to_port) {
    {
      std::lock_guard lock(mu_);
      to_ = loopback(to_port);
      ++requested_;
      done_.store(false, std::memory_order_release);
    }
    cv_.notify_all();
  }
  bool done() const { return done_.load(std::memory_order_acquire); }
  RoundResult take() {
    std::lock_guard lock(mu_);
    return std::move(result_);
  }

 private:
  void main() {
    std::uint64_t served = 0;
    for (;;) {
      sockaddr_in to{};
      {
        std::unique_lock lock(mu_);
        cv_.wait(lock, [&] { return quit_ || requested_ > served; });
        if (quit_) return;
        to = to_;
      }
      ++served;
      RoundResult r = round(to);
      {
        std::lock_guard lock(mu_);
        result_ = std::move(r);
      }
      done_.store(true, std::memory_order_release);
    }
  }

  RoundResult round(const sockaddr_in& to) {
    RoundResult r;
    r.rtt_us.reserve(kRound / kRttEvery);  // no allocation once traffic flows
    std::array<ByteSpan, kIoBatch> out{};
    std::uint64_t sent = 0, recv = 0;
    const std::uint64_t t_start = now_ns();
    std::uint64_t last_progress = t_start;
    while (recv < kRound) {
      while (sent < kRound && sent - recv < kWindow) {
        const std::size_t n = std::min<std::uint64_t>(
            {kIoBatch, kRound - sent, kWindow - (sent - recv)});
        for (std::size_t i = 0; i < n; ++i)
          out[i] = images_[(base_ + sent + i) % kImages].view().bytes();
        const std::uint64_t t0 = now_ns();
        const int k = send_batch(sock_.fd(), to, out.data(), n);
        const std::uint64_t t1 = now_ns();
        r.tx_ns += static_cast<double>(t1 - t0);
        if (k <= 0) break;  // never on loopback under the window; shows as lost
        for (int i = 0; i < k; ++i) sent_at_[(sent + static_cast<std::uint64_t>(i)) % kWindow] = t0;
        sent += static_cast<std::uint64_t>(k);
      }
      const int got = rx_.read(sock_.fd());
      const std::uint64_t t1 = now_ns();
      for (int i = 0; i < got; ++i, ++recv) {
        const ByteSpan want = images_[(base_ + recv) % kImages].view().bytes();
        const ByteSpan have = rx_.datagram(i);
        if (have.size() != want.size() ||
            std::memcmp(have.data(), want.data(), want.size()) != 0)
          ++r.mismatches;
        if (recv % kRttEvery == 0)
          r.rtt_us.push_back(static_cast<double>(t1 - sent_at_[recv % kWindow]) * 1e-3);
      }
      if (got > 0) {
        last_progress = t1;
        continue;
      }
      if (t1 - last_progress > kStallTimeoutNs) {
        r.lost = kRound - recv;
        break;
      }
      sock_.wait_readable(1);
      r.stall_ns += static_cast<double>(now_ns() - t1);
    }
    r.seconds = static_cast<double>(now_ns() - t_start) * 1e-9;
    r.received = recv;
    base_ += kRound;
    return r;
  }

  RawSocket sock_;
  RxBatch rx_;
  const std::vector<wire::PacketBuf>& images_;
  std::vector<std::uint64_t> sent_at_;
  std::uint64_t base_ = 0;

  std::mutex mu_;
  std::condition_variable cv_;
  sockaddr_in to_{};
  std::uint64_t requested_ = 0;
  bool quit_ = false;
  std::atomic<bool> done_{false};
  RoundResult result_;
  std::thread thread_;  // last: starts after every member it uses
};

struct World {
  crypto::ChaChaRng rng;
  core::AsState as;
  std::vector<wire::PacketBuf> images;
  std::unique_ptr<net::UdpTransport> rsock;
  net::PeerId to_gen = 0;
  std::unique_ptr<BorderRouter> br;
  std::unique_ptr<router::ForwardingPool> pool1, pooln;
  // Router-side send accounting (send_external runs on the RX thread).
  Tracer* tracer = nullptr;
  std::uint32_t n_send = 0, send_parent = Tracer::kNoParent;
  std::uint64_t op = 0;
  double send_ns = 0;
  std::unique_ptr<Generator> gen;

  World(std::uint64_t seed, unsigned nproc, Report& r)
      : rng(seed * 0x9e3779b97f4a7c15ULL + 3),
        as(kOurAid, core::AsSecrets::generate(rng)) {
    std::mt19937_64 pick(seed);
    std::vector<core::HostAsKeys> keys;
    for (core::Hid hid = 1; hid <= kHosts; ++hid) {
      crypto::SharedSecret s{};
      rng.fill(MutByteSpan(s.data(), s.size()));
      core::HostRecord rec;
      rec.hid = hid;
      rec.keys = core::HostAsKeys::derive(s);
      as.host_db.upsert(rec);
      keys.push_back(rec.keys);
    }
    std::vector<std::pair<core::Hid, wire::EphIdBytes>> flows;
    for (std::size_t f = 0; f < kFlows; ++f) {
      const core::Hid hid = 1 + pick() % kHosts;
      flows.push_back({hid, as.codec.issue(hid, kNow + 900, rng).bytes});
    }
    images.reserve(kImages);
    for (std::size_t i = 0; i < kImages; ++i) {
      const auto& [hid, ephid] = flows[pick() % kFlows];
      wire::Packet p;
      p.src_aid = kOurAid;
      p.dst_aid = kPeerAid;
      p.src_ephid = ephid;
      rng.fill(MutByteSpan(p.dst_ephid.data(), p.dst_ephid.size()));
      p.proto = wire::NextProto::data;
      core::stamp_packet_mac(crypto::AesCmac(ByteSpan(keys[hid - 1].mac.data(), 16)), p);
      images.push_back(p.seal());
    }

    gen = std::make_unique<Generator>(images);
    auto rs = net::UdpTransport::open({});
    if (!gen->ok() || !rs.ok()) {
      gen.reset();
      r.fail(1, "fwd_udp: cannot open loopback UDP sockets");
      return;
    }
    rsock = std::move(*rs);
    auto tg = rsock->add_peer("127.0.0.1", gen->port());
    if (!tg.ok()) {
      gen.reset();
      r.fail(1, "fwd_udp: cannot add the generator as a peer");
      return;
    }
    to_gen = *tg;

    BorderRouter::Callbacks cb;
    cb.send_external = [this](wire::PacketBuf p) {
      const std::uint64_t t0 = now_ns();
      Result<void> ok = rsock->send(to_gen, std::move(p));
      const std::uint64_t t1 = now_ns();
      send_ns += static_cast<double>(t1 - t0);
      if (tracer != nullptr) tracer->record(n_send, op, send_parent, t0, t1);
      return ok;
    };
    cb.now = [] { return kNow; };
    br = std::make_unique<BorderRouter>(as, cb);
    router::ForwardingPool::Config one;
    one.threads = 1;
    pool1 = std::make_unique<router::ForwardingPool>(*br, one);
    router::ForwardingPool::Config rest;
    rest.threads = nproc > 1 ? nproc - 1 : 1;
    pooln = std::make_unique<router::ForwardingPool>(*br, rest);
  }

  bool ok() const { return gen != nullptr; }

  ~World() {
    gen.reset();  // joins the generator before its socket goes
  }
};

struct Pass {
  std::uint64_t packets = 0;
  std::vector<double> rtt_us;
  std::vector<double> round_rate;  // datagrams / round time, one per round
};

struct Phase {
  Pass one, all;
  double process_ns_1w = 0;
  std::uint64_t process_pkts_1w = 0;
  double poll_ns = 0;
  std::uint64_t polls = 0, delivered = 0;
  double gen_tx_ns = 0, gen_stall_ns = 0, gen_s = 0;
  std::uint64_t allocs = 0, copy_bytes = 0, router_pkts = 0;
};

/// Runs whole rounds, alternating the 1-thread and (nproc-1)-thread pools,
/// until `seconds` have elapsed. `between` runs after each round, while no
/// datagram is in flight.
Phase run_phase(World& w, Report& r, double seconds, Tracer* tr,
                const std::function<void()>& between = {}) {
  Phase ph;
  const std::uint32_t n_iter = tr ? tr->intern("udp.router_iter") : 0;
  const std::uint32_t n_poll = tr ? tr->intern("net.poll") : 0;
  const std::uint32_t n_proc = tr ? tr->intern("router.process") : 0;
  w.tracer = tr;
  w.n_send = tr ? tr->intern("net.send") : 0;

  std::vector<wire::PacketBuf> owned;
  std::vector<wire::PacketView> views;
  owned.reserve(kRouterBurst + 64);
  views.reserve(kRouterBurst + 64);
  w.rsock->set_rx([&](net::PeerId, wire::PacketBuf p) {
    views.push_back(p.view());
    owned.push_back(std::move(p));
  });

  const std::uint64_t t_start = now_ns();
  for (std::size_t round = 0;; ++round) {
    const bool single = round % 2 == 0;
    router::ForwardingPool& pool = single ? *w.pool1 : *w.pooln;
    Pass& pass = single ? ph.one : ph.all;
    w.gen->start_round(w.rsock->local_port());
    std::uint64_t forwarded = 0;
    while (!w.gen->done()) {
      const std::uint32_t iter = tr ? tr->begin(n_iter, w.op) : 0;
      std::uint64_t t0 = now_ns();
      std::size_t got = w.rsock->poll(1);
      std::uint64_t t1 = now_ns();
      ph.poll_ns += static_cast<double>(t1 - t0);
      ++ph.polls;
      if (tr) tr->record(n_poll, w.op, iter, t0, t1);
      while (got > 0 && owned.size() < kRouterBurst) {
        t0 = now_ns();
        got = w.rsock->poll(0);
        t1 = now_ns();
        ph.poll_ns += static_cast<double>(t1 - t0);
        ++ph.polls;
        if (tr) tr->record(n_poll, w.op, iter, t0, t1);
      }
      if (!owned.empty()) {
        ph.delivered += owned.size();
        const std::uint64_t a0 = heap_allocs();
        const std::uint64_t c0 = wire::copy_audit().copy_bytes;
        const std::uint32_t proc = tr ? tr->begin(n_proc, w.op, iter) : 0;
        w.send_parent = proc;
        t0 = now_ns();
        pool.process_outgoing(views, kNow);
        t1 = now_ns();
        if (tr) tr->end(proc);
        ph.allocs += heap_allocs() - a0;
        ph.copy_bytes += wire::copy_audit().copy_bytes - c0;
        ph.router_pkts += owned.size();
        if (single) {
          ph.process_ns_1w += static_cast<double>(t1 - t0);
          ph.process_pkts_1w += owned.size();
        }
        forwarded += owned.size();
        views.clear();
        owned.clear();
      }
      if (tr) tr->end(iter);
      ++w.op;
    }
    Generator::RoundResult g = w.gen->take();
    r.attempted += kRound;
    if (g.lost != 0)
      r.fail(g.lost, "fwd_udp: " + std::to_string(g.lost) +
                         " datagrams never came back (stalled window)");
    if (g.mismatches != 0)
      r.fail(g.mismatches, "fwd_udp: " + std::to_string(g.mismatches) +
                               " datagrams came back out of order or altered");
    if (forwarded != g.received)
      r.fail(1, "fwd_udp: router forwarded " + std::to_string(forwarded) +
                    ", generator received " + std::to_string(g.received));
    pass.round_rate.push_back(static_cast<double>(g.received) / g.seconds);
    pass.packets += g.received;
    if (single) pass.rtt_us.insert(pass.rtt_us.end(), g.rtt_us.begin(), g.rtt_us.end());
    ph.gen_tx_ns += g.tx_ns;
    ph.gen_stall_ns += g.stall_ns;
    ph.gen_s += g.seconds;
    if (g.lost != 0) break;
    if (between) between();
    if (round % 2 == 1 && static_cast<double>(now_ns() - t_start) * 1e-9 >= seconds)
      break;
  }
  w.rsock->set_rx({});
  w.tracer = nullptr;
  return ph;
}

/// The generator's own ceiling: the same closed loop against a bare echo
/// (a RawSocket on the calling thread that returns each batch with one
/// sendmmsg; no router, no UdpTransport). Median datagrams/s of `rounds`.
double bare_sink_rate(World& w, Report& r, int rounds) {
  RawSocket echo;
  if (!echo.ok()) {
    r.fail(1, "fwd_udp: cannot open the bare echo socket");
    return 0;
  }
  const sockaddr_in to = loopback(w.gen->port());
  RxBatch rx;
  std::array<ByteSpan, kIoBatch> back{};
  std::vector<double> rates;
  for (int k = 0; k < rounds; ++k) {
    w.gen->start_round(echo.port());
    while (!w.gen->done()) {
      const int got = rx.read(echo.fd());
      if (got <= 0) {
        echo.wait_readable(1);
        continue;
      }
      for (int i = 0; i < got; ++i) back[static_cast<std::size_t>(i)] = rx.datagram(i);
      (void)send_batch(echo.fd(), to, back.data(), static_cast<std::size_t>(got));
    }
    Generator::RoundResult g = w.gen->take();
    r.attempted += kRound;
    if (g.lost != 0 || g.mismatches != 0) {
      r.fail(g.lost + g.mismatches, "fwd_udp: bare echo lost or altered datagrams");
      break;
    }
    rates.push_back(static_cast<double>(g.received) / g.seconds);
  }
  return quantile(rates, 0.5);
}

}  // namespace

Report run_fwd_udp(const Options& o) {
  Report r;
  SetupClock<World> setups([&] { return std::make_unique<World>(o.seed, o.nproc, r); });
  std::unique_ptr<World> w = setups.build();
  if (!w->ok()) return r;
  run_phase(*w, r, 0.0, nullptr);  // warm-up: pools, peer tables, buffers

  const double measured_s = o.trace ? o.seconds / 2 : o.seconds;
  const net::TransportStats ts0 = w->rsock->stats();
  const double send0 = w->send_ns;
  const Phase plain = run_phase(*w, r, measured_s, nullptr, setups.spread_over(measured_s));
  const net::TransportStats ts1 = w->rsock->stats();
  const double send1 = w->send_ns;
  setups.finish();

  auto e2e = [](const Phase& ph, std::map<std::string, Metric>& m) {
    m["pool_rate"] = {quantile(ph.all.round_rate, 0.5), "op/s"};
    m["rate"] = {quantile(ph.one.round_rate, 0.5), "op/s"};
    m["lat_us_p50"] = {quantile(ph.one.rtt_us, 0.5), "us"};
    m["lat_us_p99"] = {block_p99(ph.one.rtt_us), "us"};
  };
  e2e(plain, r.e2e);
  r.e2e["setup_s"] = {setups.median(), "s"};
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "fwd_udp (loopback 127.0.0.1, not a real link): %zu-datagram "
                "rounds of 52 B frames, window %zu | %u router threads %.0f "
                "pkt/s, 1 router thread %.0f pkt/s | 1-thread round trip p50 %.1f us, "
                "p99 %.1f us (blocks of 1000) over %zu samples | set-up %.3f s (median of %d)",
                kRound, kWindow, o.nproc > 1 ? o.nproc - 1 : 1,
                r.e2e["pool_rate"].value, r.e2e["rate"].value,
                r.e2e["lat_us_p50"].value,
                r.e2e["lat_us_p99"].value, plain.one.rtt_us.size(),
                r.e2e["setup_s"].value, setups.count());
  r.lines.push_back(buf);

  if (o.trace) {
    Tracer tr;
    const Phase traced = run_phase(*w, r, o.seconds / 2, &tr);
    std::map<std::string, Metric> te;
    e2e(traced, te);
    trace_summary(r, te);
    const double pkts = static_cast<double>(plain.router_pkts);
    r.layer["router.process_ns_per_pkt"] = {
        plain.process_ns_1w / static_cast<double>(plain.process_pkts_1w), "ns/pkt"};
    r.layer["router.forwarded"] = {pkts, "count"};
    r.layer["router.dropped"] = {0.0, "count"};
    r.layer["wire.copy_bytes_per_pkt"] = {static_cast<double>(plain.copy_bytes) / pkts, "B/pkt"};
    r.layer["util.allocs_per_pkt"] = {static_cast<double>(plain.allocs) / pkts, "alloc/pkt"};
    r.layer["net.poll_ns_per_pkt"] = {plain.poll_ns / static_cast<double>(plain.delivered), "ns/pkt"};
    r.layer["net.send_ns_per_pkt"] = {(send1 - send0) / pkts, "ns/pkt"};
    r.layer["net.rx_per_poll"] = {
        static_cast<double>(plain.delivered) / static_cast<double>(plain.polls), "count"};
    r.layer["net.tx_errors"] = {static_cast<double>(ts1.tx_errors - ts0.tx_errors), "count"};
    r.layer["net.rx_rejected"] = {static_cast<double>(ts1.rx_rejected - ts0.rx_rejected), "count"};
    const double gen_pkts = static_cast<double>(plain.one.packets + plain.all.packets);
    r.layer["gen.tx_ns_per_pkt"] = {plain.gen_tx_ns / gen_pkts, "ns/pkt"};
    r.layer["gen.stall_share"] = {plain.gen_stall_ns / (plain.gen_s * 1e9), "ratio"};
    const double ceiling = bare_sink_rate(*w, r, 16);
    r.layer["gen.bare_sink_pps"] = {ceiling, "pkt/s"};
    r.lines.push_back("generator ceiling against a bare echo (no router): " +
                      std::to_string(static_cast<long long>(ceiling)) + " pkt/s");
    layer_report(tr, r, {"udp.router_iter"});
    const std::string path = o.out_dir + "/fwd_udp-seed" + std::to_string(o.seed) + ".spans.tsv";
    if (tr.write(path)) r.lines.push_back("spans written to " + path);
  }
  return r;
}

}  // namespace perfbench
