// control — the broker's control plane under a closed-loop request mix.
//
// Set-up: a PersistCoordinator starts on a real directory (SystemVfs),
// issuing and offender hosts bootstrap through RegistryService (each one
// journaled), the DNS zone is provisioned in bulk and handed to the
// coordinator, and a snapshot closes set-up. Every later mutation is
// journaled.
//
// One round: a ServicePool::process_issuance burst (cycling a pool of
// pre-built Fig 3 requests), a process_shutoffs burst of fresh, valid
// Fig 5 requests against offender hosts outside the issuing set, a
// ResolverPool::process_lookups burst (Zipf over published names plus a
// share of names never published), then a serial pass of single Fig 3
// requests through ManagementService::handle_packet. After round
// kRecoverRound the journal is committed and AsState::recover reads the
// snapshot plus journal back (a fixed amount of state in every run).
//
// Checks, computed apart from the program: each reply opens under the
// host's kHA, its EphID opens to the requesting HID with the expected
// expiry, and (on a seeded sample, outside the timed calls) its
// certificate verifies under the AS signing key; each shutoff leaves its
// EphID revoked; each lookup returns the published EphID or NXDOMAIN;
// recovery reproduces the benchmark's own tallies with nothing discarded.
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <random>

#include "core/as_directory.h"
#include "core/as_persist.h"
#include "core/as_state.h"
#include "core/messages.h"
#include "core/packet_auth.h"
#include "crypto/drbg.h"
#include "crypto/ed25519.h"
#include "crypto/x25519.h"
#include "dns/resolver.h"
#include "net/sim.h"
#include "persist/journal.h"
#include "persist/snapshot.h"
#include "persist/vfs.h"
#include "services/accountability_agent.h"
#include "services/dns_zone.h"
#include "services/management_service.h"
#include "services/persist_coordinator.h"
#include "services/registry_service.h"
#include "services/service_identity.h"
#include "services/service_runtime.h"
#include "services/subscriber_registry.h"
#include "wire/msg_codec.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace apna;

constexpr std::size_t kIssuers = 64;
constexpr std::size_t kRequestsPerIssuer = 4;   // request pool: 256
constexpr std::size_t kOffenders = 32;
constexpr std::size_t kVictims = 8;
constexpr std::size_t kNames = 20000;
constexpr std::size_t kUnpublished = 4096;
constexpr double kZipfS = 1.1;                // as bench_e7 and scenario
constexpr double kNxShare = 0.05;
constexpr std::size_t kIssueBurst = 128;
constexpr std::size_t kShutoffBurst = 32;
constexpr std::size_t kLookupBurst = 2048;
constexpr std::size_t kSerial = 8;              // handle_packet calls per round
constexpr std::size_t kSigSampleEvery = 16;     // certificate signature checks
constexpr std::size_t kRecoverRound = 16;
constexpr int kRecoverRepeats = 3;
constexpr std::uint32_t kNoEscalation = 1u << 30;
constexpr core::Aid kOurAid = 64512;
constexpr core::Aid kPeerAid = 64513;

/// persist::Sink that forwards to the coordinator and, when tracing, records
/// each append as a span under the burst currently in flight.
class TimingSink final : public persist::Sink {
 public:
  explicit TimingSink(persist::Sink& inner) : inner_(inner) {}
  bool append(std::uint8_t type, ByteSpan payload) override {
    Tracer* tr = tracer.load(std::memory_order_acquire);
    if (tr == nullptr) return inner_.append(type, payload);
    const std::uint64_t t0 = now_ns();
    const bool ok = inner_.append(type, payload);
    tr->record(name, op.load(std::memory_order_relaxed),
               parent.load(std::memory_order_relaxed), t0, now_ns());
    return ok;
  }
  std::atomic<Tracer*> tracer{nullptr};
  std::atomic<std::uint32_t> parent{Tracer::kNoParent};
  std::atomic<std::uint64_t> op{0};
  std::uint32_t name = 0;

 private:
  persist::Sink& inner_;
};

struct Host {
  core::Hid hid = 0;
  core::EphId ctrl;
  core::HostAsKeys keys;
};

struct Request {
  std::size_t issuer = 0;
  core::EphIdPublicKeys pub;
  Bytes sealed;
  wire::PacketBuf packet;  // the same request as a Fig 3 control packet
};

struct Victim {
  core::EphIdKeyPair kp;
  core::EphIdCertificate cert;
};

struct World {
  crypto::ChaChaRng rng;
  std::mt19937_64 pick;
  net::EventLoop loop;
  core::AsState as;
  core::AsState peer;
  core::AsDirectory directory;
  services::SubscriberRegistry subs;
  services::RegistryService rs{as, subs, loop, rng};
  services::ServiceIdentity aa_ident;
  services::ServiceIdentity ms_ident;
  services::ManagementService ms;
  services::AccountabilityAgent aa;
  services::DnsZone zone;
  dns::Resolver resolver;
  persist::SystemVfs vfs;
  std::string dir;
  services::PersistCoordinator coord;
  TimingSink sink{coord};
  std::unique_ptr<services::ServicePool> pool;
  std::unique_ptr<dns::ResolverPool> rpool;

  std::vector<Host> issuers, offenders;
  std::vector<Request> requests;
  std::vector<Victim> victims;
  std::vector<std::string> names;         // published, Zipf rank order
  std::vector<core::EphId> name_ephid;
  std::vector<std::string> unpublished;
  std::vector<double> bootstrap_us, publish_us;
  std::uint64_t infra_hosts = 0;
  bool ok = true;

  static dns::Resolver::Config resolver_config() {
    dns::Resolver::Config c;
    c.cache.capacity = 1u << 15;  // > kNames: the working set fits
    return c;
  }
  static services::PersistCoordinator::Config persist_config(std::uint64_t seed,
                                                             const std::string& sha) {
    services::PersistCoordinator::Config c;
    c.seed = seed;
    c.git_sha = sha;
    return c;
  }

  World(std::uint64_t seed, unsigned nproc, std::string dir_)
      : rng(seed * 0x9e3779b97f4a7c15ULL + 7),
        pick(seed),
        as(kOurAid, core::AsSecrets::generate(rng), kNoEscalation),
        peer(kPeerAid, core::AsSecrets::generate(rng)),
        aa_ident(services::make_service_identity(
            as, rs.allocate_hid(), loop.now_seconds() + 86400, 0, nullptr, rng)),
        ms_ident(services::make_service_identity(
            as, rs.allocate_hid(), loop.now_seconds() + 86400, 0,
            &aa_ident.cert.ephid, rng)),
        ms(as, loop, rng, ms_ident),
        aa(as, directory, loop, aa_ident),
        resolver(zone, loop, resolver_config()),
        dir(std::move(dir_)),
        coord(vfs, dir, as, persist_config(seed, "perfbench")) {
    infra_hosts = as.host_db.size();
    for (core::AsState* s : {&as, &peer}) {
      core::AsPublicInfo info;
      info.aid = s->aid;
      info.sign_pub = s->secrets.sign.pub;
      info.dh_pub = s->secrets.dh.pub;
      directory.register_as(info);
    }
    if (!coord.start()) {
      ok = false;
      return;
    }
    rs.set_persist_sink(&sink);
    ms.set_persist_sink(&sink);
    aa.set_persist_sink(&sink);
    resolver.set_persist_sink(&sink);

    const core::ExpTime now = loop.now_seconds();
    auto bootstrap = [&](std::uint32_t id) {
      Host h;
      subs.add_subscriber(id, to_bytes("credential-" + std::to_string(id)));
      auto lt = crypto::X25519KeyPair::generate(rng);
      core::BootstrapRequest req;
      req.subscriber_id = id;
      req.credential = to_bytes("credential-" + std::to_string(id));
      req.host_pub = lt.pub;
      const std::uint64_t t0 = now_ns();
      auto resp = rs.bootstrap(req);
      bootstrap_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
      if (!resp) {
        ok = false;
        return h;
      }
      h.hid = resp->hid;
      h.ctrl = resp->ctrl_ephid;
      h.keys = core::HostAsKeys::derive(crypto::x25519_shared(lt.priv, as.secrets.dh.pub));
      return h;
    };
    for (std::size_t i = 0; i < kIssuers; ++i) issuers.push_back(bootstrap(1000 + i));
    for (std::size_t i = 0; i < kOffenders; ++i) offenders.push_back(bootstrap(5000 + i));

    for (std::size_t i = 0; i < kIssuers * kRequestsPerIssuer; ++i) {
      Request q;
      q.issuer = i % kIssuers;
      const Host& h = issuers[q.issuer];
      const auto kp = core::EphIdKeyPair::generate(rng);
      core::EphIdRequest req;
      req.ephid_pub = kp.pub;
      req.lifetime = core::EphIdLifetime::short_term;
      req.pop_sig = kp.sign(req.pop_tbs());
      wire::MsgWriter plain(160);
      req.encode(plain);
      q.pub = kp.pub;
      q.sealed = core::seal_control(h.keys, 1 + i, true, plain.span());
      wire::Packet p;
      p.src_aid = kOurAid;
      p.src_ephid = h.ctrl.bytes;
      p.dst_aid = kOurAid;
      p.dst_ephid = ms.service_ephid().bytes;
      p.proto = wire::NextProto::control;
      p.payload = q.sealed;
      core::stamp_packet_mac(crypto::AesCmac(ByteSpan(h.keys.mac.data(), 16)), p);
      q.packet = p.seal();
      requests.push_back(std::move(q));
    }

    for (std::size_t i = 0; i < kVictims; ++i) {
      Victim v;
      v.kp = core::EphIdKeyPair::generate(rng);
      v.cert.ephid = peer.codec.issue(9 + i, now + 86400, rng);
      v.cert.exp_time = now + 86400;
      v.cert.pub = v.kp.pub;
      v.cert.aid = peer.aid;
      v.cert.aa_ephid = v.cert.ephid;
      v.cert.sign_with(peer.secrets.sign);
      victims.push_back(std::move(v));
    }

    // Published names: each a service endpoint of a random issuing host.
    // The zone is provisioned in bulk, as from a zone file: the records go
    // to the coordinator through seed() and so into the snapshot that
    // closes set-up, not one journal record (and one fsync per group
    // commit) each. Every later zone mutation is journaled.
    std::vector<core::DnsRecord> provisioned;
    provisioned.reserve(kNames);
    std::vector<std::size_t> order(kNames);
    for (std::size_t i = 0; i < kNames; ++i) order[i] = i;
    std::shuffle(order.begin(), order.end(), pick);
    for (std::size_t i = 0; i < kNames; ++i) {
      core::DnsRecord rec;
      rec.name = "n" + std::to_string(order[i]) + ".svc.apna.example";
      const Host& h = issuers[pick() % kIssuers];
      rec.cert.ephid = as.codec.issue(h.hid, now + 86400, rng);
      rec.cert.exp_time = now + 86400;
      rec.cert.aid = as.aid;
      const std::uint64_t t0 = now_ns();
      auto admitted = resolver.admit_publish(rec.name, rec.cert.ephid, now);
      publish_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
      if (!admitted) {
        ok = false;
        return;
      }
      zone.put(rec);
      names.push_back(rec.name);
      name_ephid.push_back(rec.cert.ephid);
      provisioned.push_back(std::move(rec));
    }
    coord.seed({}, {}, std::move(provisioned));
    zone.set_persist_sink(&sink);
    for (std::size_t i = 0; i < kUnpublished; ++i)
      unpublished.push_back("x" + std::to_string(pick()) + ".nx.apna.example");

    if (!coord.write_snapshot()) ok = false;

    services::ServicePool::Config pc;
    pc.threads = nproc;
    pool = std::make_unique<services::ServicePool>(ms, &aa, pc);
    dns::ResolverPool::Config rc;
    rc.threads = nproc;
    rpool = std::make_unique<dns::ResolverPool>(resolver, rc);
  }

  core::ShutoffRequest shutoff(std::size_t n, core::EphId* offender_ephid) {
    const Host& o = offenders[n % kOffenders];
    const Victim& v = victims[n % kVictims];
    const core::ExpTime now = loop.now_seconds();
    wire::Packet p;
    p.src_aid = as.aid;
    p.src_ephid = as.codec.issue(o.hid, now + 900, rng).bytes;
    p.dst_aid = peer.aid;
    p.dst_ephid = v.cert.ephid.bytes;
    p.proto = wire::NextProto::data;
    p.payload = to_bytes("unwanted #" + std::to_string(n));
    core::stamp_packet_mac(crypto::AesCmac(ByteSpan(o.keys.mac.data(), 16)), p);
    offender_ephid->bytes = p.src_ephid;
    core::ShutoffRequest req;
    req.offending_packet = p.serialize();
    req.sig = v.kp.sign(req.offending_packet);
    req.dst_cert = v.cert;
    return req;
  }
};

/// Checks one sealed EphIdResponse against the request it answers.
bool check_reply(World& w, const Request& q, ByteSpan sealed, core::ExpTime now,
                 bool verify_sig) {
  const Host& h = w.issuers[q.issuer];
  auto plain = core::open_control(h.keys, /*from_host=*/false, sealed);
  if (!plain) return false;
  auto resp = core::decode_msg<core::EphIdResponse>(*plain);
  if (!resp) return false;
  const core::EphIdCertificate& c = resp->cert;
  const core::ExpTime exp = now + services::ManagementService::LifetimePolicy().short_s;
  auto opened = w.as.codec.open(c.ephid);
  if (!opened || opened->hid != h.hid || opened->exp_time != exp) return false;
  if (c.exp_time != exp || c.aid != w.as.aid || !(c.pub == q.pub)) return false;
  if (verify_sig && !c.verify(w.as.secrets.sign.pub, now)) return false;
  return true;
}

struct Phase {
  std::vector<double> issue_rate;   // EphIDs / time in process_issuance, per round
  std::vector<double> serial_rate;  // requests / time in handle_packet, per round
  std::uint64_t issued = 0;
  double serial_s = 0;
  std::vector<double> serial_us;
  double shutoff_s = 0;
  std::uint64_t shutoffs = 0;
  std::vector<double> shutoff_burst_us;
  double lookup_s = 0;
  std::uint64_t lookups = 0;
  std::vector<double> lookup_burst_us;
  std::uint64_t issue_allocs = 0;
};

struct RecoveryResult {
  bool done = false;
  std::vector<double> recover_s;
  double snapshot_read_s = 0, replay_s = 0;
  std::uint64_t records = 0, journal_bytes = 0, snapshot_bytes = 0;
};

struct Loop {
  Loop(World& w_, Report& r_) : w(w_), r(r_) {}
  World& w;
  Report& r;
  std::uint64_t round = 0;
  std::uint64_t issued_tally = 0;   // every EphID the MS issued
  std::uint64_t revoked_tally = 0;  // every EphID a shutoff revoked
  std::uint64_t shutoff_seq = 0;
  RecoveryResult rec;
  crypto::HmacDrbg probe_rng{0x7e57, 0};
};

void recover_check(Loop& L) {
  World& w = L.w;
  Report& r = L.r;
  if (!w.coord.commit()) r.fail(1, "control: journal commit failed");
  ++r.attempted;
  const services::PersistCoordinator::Stats ps = w.coord.stats();
  for (int k = 0; k < kRecoverRepeats; ++k) {
    const std::uint64_t t0 = now_ns();
    auto got = core::AsState::recover(w.vfs, w.dir, kNoEscalation);
    L.rec.recover_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    if (k > 0) continue;
    if (!got) {
      r.fail(1, "control: AsState::recover failed");
      return;
    }
    std::uint64_t revoked = 0;
    got->as->revoked.for_each_ephid([&](const core::EphId&, core::ExpTime) { ++revoked; });
    const std::uint64_t hosts_want = w.infra_hosts + kIssuers + kOffenders;
    if (got->as->host_db.size() != hosts_want || w.as.host_db.size() != hosts_want)
      r.fail(1, "control: recovered host count differs from the bootstraps");
    if (revoked != L.revoked_tally)
      r.fail(1, "control: recovered " + std::to_string(revoked) +
                    " revocations, expected " + std::to_string(L.revoked_tally));
    if (got->issued.size() != L.issued_tally)
      r.fail(1, "control: recovered " + std::to_string(got->issued.size()) +
                    " issued EphIDs, expected " + std::to_string(L.issued_tally));
    if (got->dns_records.size() != kNames)
      r.fail(1, "control: recovered DNS zone differs from the publications");
    if (got->journal_bytes_discarded != 0 || got->records_malformed != 0 ||
        ps.journal.dropped != 0 || ps.journal.degraded || ps.snapshot_failures != 0)
      r.fail(1, "control: recovery discarded or dropped journal data");
    L.rec.records = got->journal_records_replayed;
  }
  const std::string snap = core::snapshot_path(w.dir, ps.generation);
  const std::string jour = core::journal_path(w.dir, ps.generation);
  std::error_code ec;
  L.rec.snapshot_bytes = std::filesystem::file_size(snap, ec);
  L.rec.journal_bytes = std::filesystem::file_size(jour, ec);
  std::uint64_t t0 = now_ns();
  auto snapshot = persist::read_snapshot_file(w.vfs, snap);
  std::uint64_t t1 = now_ns();
  L.rec.snapshot_read_s = static_cast<double>(t1 - t0) * 1e-9;
  if (!snapshot) r.fail(1, "control: snapshot unreadable");
  t0 = now_ns();
  const persist::ReplayResult rr = persist::replay_journal_file(
      w.vfs, jour, [](std::uint8_t, ByteSpan) {});
  t1 = now_ns();
  L.rec.replay_s = static_cast<double>(t1 - t0) * 1e-9;
  if (rr.torn()) r.fail(1, "control: journal has a torn tail");
  L.rec.done = true;
}

/// Runs whole rounds until `seconds` have elapsed and at least
/// `min_rounds` have run. `between` runs after each round, outside the
/// timed calls.
Phase run_phase(Loop& L, double seconds, Tracer* tr, std::size_t min_rounds,
                const std::function<void()>& between = {}) {
  World& w = L.w;
  Report& r = L.r;
  Phase ph;
  const core::ExpTime now = w.loop.now_seconds();
  const std::uint32_t n_issue = tr ? tr->intern("services.issue_burst") : 0;
  const std::uint32_t n_shut = tr ? tr->intern("services.shutoff_burst") : 0;
  const std::uint32_t n_look = tr ? tr->intern("dns.lookup_burst") : 0;
  const std::uint32_t n_req = tr ? tr->intern("ctl.fig3_request") : 0;
  const std::uint32_t n_begin = tr ? tr->intern("services.ms_begin") : 0;
  const std::uint32_t n_verify = tr ? tr->intern("crypto.ed25519_verify") : 0;
  const std::uint32_t n_finish = tr ? tr->intern("services.ms_finish") : 0;
  const std::uint32_t n_pkt = tr ? tr->intern("wire.packet_finish") : 0;
  const std::uint32_t n_mac = tr ? tr->intern("core.stamp_mac") : 0;
  const std::uint32_t n_chunk = tr ? tr->intern("ctl.chunk_probe") : 0;
  const std::uint32_t n_batch = tr ? tr->intern("crypto.pop_verify_batch") : 0;
  const std::uint32_t n_drbg = tr ? tr->intern("crypto.drbg_init") : 0;
  const std::uint32_t n_aa = tr ? tr->intern("services.aa_process") : 0;
  if (tr) w.sink.name = tr->intern("persist.append");
  w.sink.tracer.store(tr, std::memory_order_release);

  std::vector<services::ServicePool::IssueJob> jobs(kIssueBurst);
  std::vector<const Request*> job_req(kIssueBurst);
  std::vector<Result<Bytes>> results(kIssueBurst, Result<Bytes>(Errc::internal));
  std::vector<core::ShutoffRequest> shutoffs(kShutoffBurst);
  std::vector<core::EphId> offender_ephids(kShutoffBurst);
  std::vector<Result<void>> shut_results(kShutoffBurst, Result<void>(Errc::internal));
  std::vector<std::string> lookups(kLookupBurst);
  std::vector<std::int64_t> lookup_idx(kLookupBurst);
  std::vector<dns::Resolver::Answer> answers(kLookupBurst);
  const Zipf zipf(kNames, kZipfS);
  std::uniform_real_distribution<double> u01(0.0, 1.0);

  auto timed = [&](std::uint32_t name, auto&& fn) {
    const std::uint64_t t0 = now_ns();
    std::uint32_t span = Tracer::kNoParent;
    if (tr) {
      span = tr->begin(name, L.round);
      w.sink.parent.store(span, std::memory_order_relaxed);
      w.sink.op.store(L.round, std::memory_order_relaxed);
    }
    fn();
    if (tr) {
      tr->end(span);
      w.sink.parent.store(Tracer::kNoParent, std::memory_order_relaxed);
    }
    return static_cast<double>(now_ns() - t0);
  };

  const std::uint64_t t_start = now_ns();
  for (std::size_t n = 0;; ++n, ++L.round) {
    // ---- inputs for this round (untimed) ----
    for (std::size_t i = 0; i < kIssueBurst; ++i) {
      const Request& q = w.requests[(L.round * kIssueBurst + i) % w.requests.size()];
      jobs[i] = {w.issuers[q.issuer].ctrl, ByteSpan(q.sealed)};
      job_req[i] = &q;
    }
    for (std::size_t i = 0; i < kShutoffBurst; ++i)
      shutoffs[i] = w.shutoff(L.shutoff_seq++, &offender_ephids[i]);
    for (std::size_t i = 0; i < kLookupBurst; ++i) {
      if (u01(w.pick) < kNxShare) {
        lookups[i] = w.unpublished[w.pick() % kUnpublished];
        lookup_idx[i] = -1;
      } else {
        const std::size_t k = zipf(w.pick);
        lookups[i] = w.names[k];
        lookup_idx[i] = static_cast<std::int64_t>(k);
      }
    }

    // ---- issuance burst ----
    const std::uint64_t a0 = heap_allocs();
    const double t_issue = timed(n_issue, [&] {
      w.pool->process_issuance(jobs, now, results);
    });
    ph.issue_allocs += heap_allocs() - a0;
    ph.issue_rate.push_back(static_cast<double>(kIssueBurst) / (t_issue * 1e-9));
    r.attempted += kIssueBurst;
    for (std::size_t i = 0; i < kIssueBurst; ++i) {
      if (!results[i]) {
        r.fail(1, std::string("control: issuance failed: ") +
                    errc_name(results[i].error().code));
        continue;
      }
      ++L.issued_tally;
      ++ph.issued;
      const bool sig = w.pick() % kSigSampleEvery == 0;
      if (!check_reply(w, *job_req[i], ByteSpan(*results[i]), now, sig))
        r.fail(1, "control: issuance reply failed its check");
    }

    // ---- shutoff burst (traced runs take the last 4 serially) ----
    const std::size_t serial_aa = tr ? 4 : 0;
    const std::size_t pooled = kShutoffBurst - serial_aa;
    const double t_shut = timed(n_shut, [&] {
      w.pool->process_shutoffs({shutoffs.data(), pooled}, now,
                               {shut_results.data(), pooled});
    });
    ph.shutoff_s += t_shut * 1e-9;
    ph.shutoffs += pooled;
    ph.shutoff_burst_us.push_back(t_shut * 1e-3);
    for (std::size_t i = pooled; i < kShutoffBurst; ++i) {
      const std::uint64_t k0 = now_ns();
      shut_results[i] = w.aa.process(shutoffs[i], now);
      tr->record(n_aa, L.round, Tracer::kNoParent, k0, now_ns());
    }
    r.attempted += kShutoffBurst;
    for (std::size_t i = 0; i < kShutoffBurst; ++i) {
      if (!shut_results[i] || !w.as.revoked.is_revoked(offender_ephids[i])) {
        r.fail(1, "control: shutoff did not revoke its EphID");
        continue;
      }
      ++L.revoked_tally;
    }

    // ---- lookup burst ----
    const double t_look = timed(n_look, [&] {
      w.rpool->process_lookups(lookups, now, answers);
    });
    ph.lookup_s += t_look * 1e-9;
    ph.lookups += kLookupBurst;
    ph.lookup_burst_us.push_back(t_look * 1e-3);
    r.attempted += kLookupBurst;
    for (std::size_t i = 0; i < kLookupBurst; ++i) {
      const dns::Resolver::Answer& a = answers[i];
      const bool good =
          lookup_idx[i] < 0
              ? a.status == dns::Resolver::Status::nxdomain
              : a.status == dns::Resolver::Status::ok &&
                    a.record.cert.ephid == w.name_ephid[static_cast<std::size_t>(lookup_idx[i])];
      if (!good) r.fail(1, "control: lookup answer differs from the publication");
    }

    // ---- serial Fig 3 pass ----
    const double serial0 = ph.serial_s;
    for (std::size_t s = 0; s < kSerial; ++s) {
      const Request& q = w.requests[(L.round * kSerial + s * 31) % w.requests.size()];
      ++r.attempted;
      Bytes reply;
      const std::uint64_t t0 = now_ns();
      if (tr == nullptr) {
        auto out = w.ms.handle_packet(q.packet.view());
        const std::uint64_t t1 = now_ns();
        ph.serial_s += static_cast<double>(t1 - t0) * 1e-9;
        ph.serial_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
        if (out) reply.assign(out->view().payload().begin(), out->view().payload().end());
      } else {
        // The same request through handle_packet's public steps.
        const std::uint32_t root = tr->begin(n_req, L.round);
        w.sink.parent.store(root, std::memory_order_relaxed);
        const wire::PacketView req = q.packet.view();
        core::EphId ctrl;
        ctrl.bytes = req.src_ephid();
        wire::PacketWriter pw(w.as.aid, w.ms.service_ephid().bytes, req.src_aid(),
                              req.src_ephid(), wire::NextProto::control);
        services::ManagementService::PreparedIssue prep;
        std::uint64_t k0 = now_ns();
        const bool begun = w.ms.begin_issue(ctrl, req.payload(), now, prep).ok();
        std::uint64_t k1 = now_ns();
        tr->record(n_begin, L.round, root, k0, k1);
        bool pop_ok = false;
        if (begun) {
          k0 = now_ns();
          pop_ok = crypto::ed25519_verify(prep.request.ephid_pub.sig, prep.pop_tbs,
                                          prep.request.pop_sig);
          k1 = now_ns();
          tr->record(n_verify, L.round, root, k0, k1);
          const std::uint64_t nonce = w.ms.reserve_reply_nonces(1);
          const std::uint32_t fin = tr->begin(n_finish, L.round, root);
          w.sink.parent.store(fin, std::memory_order_relaxed);
          const bool finished =
              w.ms.finish_issue(prep, pop_ok, now, w.rng, nonce, pw).ok();
          tr->end(fin);
          w.sink.parent.store(root, std::memory_order_relaxed);
          if (finished) {
            k0 = now_ns();
            wire::PacketBuf out = pw.finish();
            k1 = now_ns();
            tr->record(n_pkt, L.round, root, k0, k1);
            k0 = now_ns();
            core::stamp_packet_mac(*w.ms.identity().cmac, out);
            k1 = now_ns();
            tr->record(n_mac, L.round, root, k0, k1);
            reply.assign(out.view().payload().begin(), out.view().payload().end());
          }
        }
        tr->end(root);
        w.sink.parent.store(Tracer::kNoParent, std::memory_order_relaxed);
        const std::uint64_t t1 = now_ns();
        ph.serial_s += static_cast<double>(t1 - t0) * 1e-9;
        ph.serial_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
      }
      if (reply.empty()) {
        r.fail(1, "control: serial Fig 3 request produced no reply");
        continue;
      }
      ++L.issued_tally;
      if (!check_reply(w, q, ByteSpan(reply), now, w.pick() % kSigSampleEvery == 0))
        r.fail(1, "control: serial reply failed its check");
    }

    ph.serial_rate.push_back(static_cast<double>(kSerial) / (ph.serial_s - serial0));

    // ---- traced chunk probe: one ServicePool chunk, step by step ----
    if (tr != nullptr) {
      constexpr std::size_t m = services::ServicePool::Config().chunk_jobs;
      const std::uint32_t root = tr->begin(n_chunk, L.round);
      w.sink.parent.store(root, std::memory_order_relaxed);
      std::vector<services::ManagementService::PreparedIssue> preps(m);
      std::vector<crypto::Ed25519BatchItem> items;
      bool all_begun = true;
      for (std::size_t j = 0; j < m; ++j) {
        const std::uint64_t k0 = now_ns();
        all_begun &= w.ms.begin_issue(jobs[j].ctrl, jobs[j].sealed_request, now, preps[j]).ok();
        tr->record(n_begin, L.round, root, k0, now_ns());
      }
      for (auto& p : preps)
        items.push_back({&p.request.ephid_pub.sig, ByteSpan(p.pop_tbs.data(), p.pop_tbs.size()),
                         &p.request.pop_sig});
      bool verdicts[m] = {};
      std::uint64_t k0 = now_ns();
      const bool batch_ok = all_begun && crypto::ed25519_verify_batch({items.data(), items.size()}, verdicts, L.probe_rng);
      tr->record(n_batch, L.round, root, k0, now_ns());
      const std::uint64_t nonce0 = w.ms.reserve_reply_nonces(m);
      std::vector<Bytes> out(m);
      for (std::size_t j = 0; j < m && batch_ok; ++j) {
        k0 = now_ns();
        crypto::HmacDrbg drbg(0x5eedc0de, nonce0 + j);
        tr->record(n_drbg, L.round, root, k0, now_ns());
        wire::MsgWriter mw(320);
        const std::uint32_t fin = tr->begin(n_finish, L.round, root);
        w.sink.parent.store(fin, std::memory_order_relaxed);
        const bool done = w.ms.finish_issue(preps[j], verdicts[j], now, drbg, nonce0 + j, mw).ok();
        tr->end(fin);
        w.sink.parent.store(root, std::memory_order_relaxed);
        if (done) {
          ++L.issued_tally;
          out[j] = mw.take();
        }
      }
      tr->end(root);
      w.sink.parent.store(Tracer::kNoParent, std::memory_order_relaxed);
      r.attempted += m;
      for (std::size_t j = 0; j < m; ++j)
        if (out[j].empty() || !check_reply(w, *job_req[j], ByteSpan(out[j]), now, false))
          r.fail(1, "control: chunk probe request failed its check");
    }

    if (L.round + 1 == kRecoverRound) recover_check(L);
    if (between) between();
    if (n + 1 >= min_rounds &&
        static_cast<double>(now_ns() - t_start) * 1e-9 >= seconds) {
      ++L.round;
      break;
    }
  }
  w.sink.tracer.store(nullptr, std::memory_order_release);
  return ph;
}

}  // namespace

Report run_control(const Options& o) {
  Report r;
  const std::string base = o.out_dir + "/control-" + std::to_string(::getpid());
  int worlds = 0;  // world k journals to base-k
  SetupClock<World> setups([&] {
    const std::string dir = base + "-" + std::to_string(worlds++);
    std::filesystem::remove_all(dir);
    auto built = std::make_unique<World>(o.seed, o.nproc, dir);
    if (!built->ok) r.fail(1, "control: set-up failed (bootstrap, publish or persistence)");
    return built;
  });
  auto cleanup = [&] {
    for (int k = 0; k < worlds; ++k) std::filesystem::remove_all(base + "-" + std::to_string(k));
  };
  std::unique_ptr<World> w = setups.build();
  if (!w->ok) {
    w.reset();
    cleanup();
    return r;
  }
  Loop L(*w, r);
  // The first kRecoverRound rounds always run (they end in the recovery
  // check), so every run recovers the same amount of state.
  const double measured_s = o.trace ? o.seconds / 2 : o.seconds;
  const Phase plain =
      run_phase(L, measured_s, nullptr, kRecoverRound, setups.spread_over(measured_s));
  setups.finish();

  auto e2e = [](const Phase& ph, std::map<std::string, Metric>& m) {
    m["pool_rate"] = {quantile(ph.issue_rate, 0.5), "op/s"};
    m["rate"] = {quantile(ph.serial_rate, 0.5), "op/s"};
    m["lat_us_p50"] = {quantile(ph.serial_us, 0.5), "us"};
    m["lat_us_p99"] = {block_p99(ph.serial_us), "us"};
  };
  e2e(plain, r.e2e);
  r.e2e["setup_s"] = {setups.median(), "s"};
  const double shutoff_rate = static_cast<double>(plain.shutoffs) / plain.shutoff_s;
  const double lookup_rate = static_cast<double>(plain.lookups) / plain.lookup_s;
  const double recover_s = quantile(L.rec.recover_s, 0.5);
  char buf[640];
  std::snprintf(buf, sizeof buf,
                "control: %llu rounds | issuance %.0f EphID/s (pool of %u) | "
                "serial Fig 3 %.0f req/s, p50 %.1f us, p99 %.1f us (blocks of 1000) over %zu "
                "requests | shutoffs %.0f req/s | lookups %.0f /s | recovery "
                "%.4f s (median of %d) | set-up %.3f s (median of %d)",
                static_cast<unsigned long long>(L.round), r.e2e["pool_rate"].value,
                o.nproc, r.e2e["rate"].value, r.e2e["lat_us_p50"].value,
                r.e2e["lat_us_p99"].value, plain.serial_us.size(), shutoff_rate,
                lookup_rate, recover_s, kRecoverRepeats, r.e2e["setup_s"].value, setups.count());
  r.lines.push_back(buf);
  r.lines.push_back("paper (§V-A3): 13.7 us per EphID, 72.8k EphIDs/s on 4 "
                    "processes, against a peak demand of 3,888 sessions/s");

  if (o.trace) {
    Tracer tr;
    const Phase traced = run_phase(L, o.seconds / 2, &tr, 1);
    std::map<std::string, Metric> te;
    e2e(traced, te);
    trace_summary(r, te);
    auto us = [&](const char* name) {
      std::vector<double> v = tr.durations(name);
      for (double& x : v) x *= 1e-3;
      return v;
    };
    const auto issue = us("services.issue_burst");
    r.layer["services.issue_burst_us_p50"] = {quantile(issue, 0.5), "us"};
    r.layer["services.issue_burst_us_p99"] = {quantile(issue, tail_quantile(issue.size())), "us"};
    r.layer["services.ms_begin_us"] = {quantile(us("services.ms_begin"), 0.5), "us"};
    r.layer["services.ms_finish_us"] = {quantile(us("services.ms_finish"), 0.5), "us"};
    r.layer["crypto.ed25519_verify_us"] = {quantile(us("crypto.ed25519_verify"), 0.5), "us"};
    r.layer["crypto.pop_verify_batch_us_per_sig"] = {
        quantile(us("crypto.pop_verify_batch"), 0.5) /
            static_cast<double>(services::ServicePool::Config().chunk_jobs),
        "us"};
    r.layer["crypto.drbg_init_us"] = {quantile(us("crypto.drbg_init"), 0.5), "us"};
    r.layer["util.allocs_per_issue"] = {
        static_cast<double>(plain.issue_allocs) / static_cast<double>(plain.issued), "alloc/req"};
    r.layer["services.shutoff_burst_us_p50"] = {quantile(plain.shutoff_burst_us, 0.5), "us"};
    r.layer["services.shutoff_rate"] = {shutoff_rate, "req/s"};
    r.layer["services.aa_process_us"] = {quantile(us("services.aa_process"), 0.5), "us"};
    r.layer["services.rs_bootstrap_us"] = {quantile(w->bootstrap_us, 0.5), "us"};
    const auto append = us("persist.append");
    r.layer["persist.append_us_p50"] = {quantile(append, 0.5), "us"};
    r.layer["persist.append_us_p99"] = {quantile(append, tail_quantile(append.size())), "us"};
    r.layer["persist.records"] = {static_cast<double>(L.rec.records), "count"};
    r.layer["persist.journal_bytes"] = {static_cast<double>(L.rec.journal_bytes), "B"};
    r.layer["persist.snapshot_bytes"] = {static_cast<double>(L.rec.snapshot_bytes), "B"};
    r.layer["persist.snapshot_read_s"] = {L.rec.snapshot_read_s, "s"};
    r.layer["persist.replay_s"] = {L.rec.replay_s, "s"};
    r.layer["persist.recover_s"] = {recover_s, "s"};
    r.layer["dns.lookup_burst_us_p50"] = {quantile(plain.lookup_burst_us, 0.5), "us"};
    r.layer["dns.lookup_rate"] = {lookup_rate, "lookup/s"};
    const dns::Resolver::Stats rs = w->resolver.stats();
    r.layer["dns.cache_hit_ratio"] = {
        static_cast<double>(rs.cache_hits) / static_cast<double>(rs.lookups), "ratio"};
    r.layer["dns.negative_entries"] = {
        static_cast<double>(w->resolver.cache().negative_size()), "count"};
    r.layer["dns.publish_us"] = {quantile(w->publish_us, 0.5), "us"};
    layer_report(tr, r, {"ctl.fig3_request", "ctl.chunk_probe"});
    const std::string path = o.out_dir + "/control-seed" + std::to_string(o.seed) + ".spans.tsv";
    if (tr.write(path)) r.lines.push_back("spans written to " + path);
  }
  w.reset();
  cleanup();
  return r;
}

}  // namespace perfbench
