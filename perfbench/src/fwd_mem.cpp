// fwd_mem — the Fig 4 border-router pipeline with no socket in the way.
//
// One round is 16 egress bursts and 4 ingress bursts of 512 packets,
// sampled once per seed and replayed every round. Rounds alternate between
// a 1-thread and an nproc-thread ForwardingPool (default configuration), so
// both passes see the same inputs and the same machine drift. Between
// bursts a trickle of revocations (4 per round) and host re-keys (2 per
// round) bumps VerdictEpoch. Revoked "doomed" flows are fresh every round:
// each appears once before its revocation (labelled valid) and once after
// (labelled revoked).
//
// Checks, computed from the generator's labels: every forwarded or
// delivered image must come out in burst order and byte-equal to the
// input, to the right host; per round, the pool's drop counters by reason
// must equal the label counts. The traced 1-thread pass calls the
// BorderRouter's classify/apply directly and checks each verdict.
#include <cstring>
#include <memory>
#include <random>

#include "core/as_state.h"
#include "core/flow_cache.h"
#include "core/packet_auth.h"
#include "crypto/rng.h"
#include "net/sim.h"
#include "router/border_router.h"
#include "router/forwarding_pool.h"
#include "wire/packet_buf.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace apna;
using router::BorderRouter;

constexpr std::size_t kHosts = 1024;
constexpr std::size_t kSpareHosts = 64;    // re-key targets, no flows
constexpr std::size_t kFlows = 12288;      // 3x one worker's 4096-entry cache
constexpr double kZipfS = 1.1;           // as bench_e2, bench_e7 and scenario
constexpr std::size_t kIngressFlows = 4096;
constexpr std::size_t kBurst = 512;
constexpr std::size_t kEgressBursts = 16;  // per round
constexpr std::size_t kIngressEvery = 4;   // one ingress burst per 4 egress
constexpr std::size_t kRevokeEvery = 4;    // doomed flow revoked after burst 4k+1
constexpr std::size_t kInvalidPerClass = 64;
constexpr double kInvalidShare = 0.004;    // per class, per position
constexpr core::Aid kOurAid = 64512;
constexpr core::Aid kPeerAid = 64513;
constexpr core::Aid kTransitAid = 64999;
constexpr core::ExpTime kNow = net::kEpochSeconds;

/// Frame sizes (bytes on the wire): the smallest valid frame (48 B header +
/// 4 B extension word, empty payload) and the paper's Fig 8 sizes, the set
/// bench_e2_forwarding uses.
constexpr std::size_t kSizes[] = {52, 128, 256, 512, 1024, 1518};

/// Frame size for the flow of popularity rank `rank`: ranks cycle through
/// kSizes, smallest first, so under Zipf popularity the packet mix leans
/// toward small frames and does not depend on the seed.
std::size_t size_for_rank(std::size_t rank) { return kSizes[rank % std::size(kSizes)]; }

enum class Out : std::uint8_t {
  forward,   // egress pass → send_external
  deliver,   // ingress local → deliver_internal
  transit,   // ingress not ours → send_external
  bad_mac,
  bad_ephid,
  expired,
  revoked,
};

Errc expected_errc(Out o) {
  switch (o) {
    case Out::bad_mac: return Errc::bad_mac;
    case Out::bad_ephid: return Errc::decrypt_failed;
    case Out::expired: return Errc::expired;
    case Out::revoked: return Errc::revoked;
    default: return Errc::ok;
  }
}

struct Counts {
  std::uint64_t forward = 0, deliver = 0, transit = 0, bad_mac = 0,
                bad_ephid = 0, expired = 0, revoked = 0;
  void add(Out o) {
    switch (o) {
      case Out::forward: ++forward; break;
      case Out::deliver: ++deliver; break;
      case Out::transit: ++transit; break;
      case Out::bad_mac: ++bad_mac; break;
      case Out::bad_ephid: ++bad_ephid; break;
      case Out::expired: ++expired; break;
      case Out::revoked: ++revoked; break;
    }
  }
  Counts& operator+=(const Counts& o) {
    forward += o.forward; deliver += o.deliver; transit += o.transit;
    bad_mac += o.bad_mac; bad_ephid += o.bad_ephid; expired += o.expired;
    revoked += o.revoked;
    return *this;
  }
};

struct Burst {
  bool ingress = false;
  std::vector<wire::PacketView> views;
  std::vector<Out> out;
  std::vector<core::Hid> hid;        // deliver: expected destination host
  std::vector<std::uint32_t> emit;   // positions expected at the callbacks
  std::uint32_t doomed_pos = 0;      // egress: the slot the round refills
  Counts counts;

  void finalize() {
    emit.clear();
    counts = Counts{};
    for (std::uint32_t i = 0; i < views.size(); ++i) {
      counts.add(out[i]);
      if (out[i] == Out::forward || out[i] == Out::deliver ||
          out[i] == Out::transit)
        emit.push_back(i);
    }
  }
};

/// Receives the router's output and compares it with the current burst.
struct Checker {
  const Burst* cur = nullptr;
  std::size_t cursor = 0;
  std::uint64_t mismatches = 0;

  void check(const wire::PacketBuf& p, bool local, core::Hid hid) {
    if (cursor >= cur->emit.size()) {
      ++mismatches;
      return;
    }
    const std::uint32_t pos = cur->emit[cursor++];
    const Out want = cur->out[pos];
    const wire::PacketView& in = cur->views[pos];
    const bool kind_ok = local ? (want == Out::deliver && cur->hid[pos] == hid)
                               : want != Out::deliver;
    if (!kind_ok || p.wire_size() != in.wire_size() ||
        std::memcmp(p.view().bytes().data(), in.bytes().data(),
                    in.wire_size()) != 0)
      ++mismatches;
  }
  void start(const Burst& b) {
    cur = &b;
    cursor = 0;
  }
  /// Packets that should have come out but did not.
  void finish() { mismatches += cur->emit.size() - std::min(cursor, cur->emit.size()); }
};

struct World {
  crypto::ChaChaRng rng;
  std::mt19937_64 pick;
  core::AsState as;
  std::vector<core::HostAsKeys> keys;  // index hid-1
  std::vector<wire::PacketBuf> bufs;   // every pre-sealed image
  std::vector<Burst> egress;           // kEgressBursts
  std::vector<Burst> ingress;          // kEgressBursts / kIngressEvery
  std::vector<wire::PacketBuf> doomed_bufs;
  struct Doomed {
    core::EphId ephid;
    core::Hid hid = 0;
  };
  std::vector<Doomed> doomed;
  Checker checker;
  std::unique_ptr<BorderRouter> br;
  std::unique_ptr<router::ForwardingPool> pool1, pooln;
  std::size_t next_spare = 0;

  World(std::uint64_t seed, unsigned nproc)
      : rng(seed * 0x9e3779b97f4a7c15ULL + 1),
        pick(seed),
        as(kOurAid, core::AsSecrets::generate(rng)) {
    for (core::Hid hid = 1; hid <= kHosts + kSpareHosts; ++hid) {
      crypto::SharedSecret s{};
      rng.fill(MutByteSpan(s.data(), s.size()));
      core::HostRecord rec;
      rec.hid = hid;
      rec.keys = core::HostAsKeys::derive(s);
      as.host_db.upsert(rec);
      keys.push_back(rec.keys);
    }

    std::size_t next_size = 0;  // invalid classes and ingress cycle too
    auto size_next = [&] { return size_for_rank(next_size++); };
    const std::size_t total = kFlows + kIngressFlows + 4 * kInvalidPerClass +
                              2 * kInvalidPerClass + kIngressFlows / 16;
    bufs.reserve(total);
    auto egress_pkt = [&](core::Hid hid, core::ExpTime exp, std::size_t frame) {
      return seal_egress(hid, as.codec.issue(hid, exp, rng), frame);
    };

    // Valid egress flows; Zipf rank r maps to flow r (EphIDs are random,
    // so rank order carries no steering bias).
    const std::size_t flow0 = bufs.size();
    for (std::size_t f = 0; f < kFlows; ++f)
      bufs.push_back(egress_pkt(1 + pick() % kHosts, kNow + 900, size_for_rank(f)));
    // Invalid egress classes.
    const std::size_t bad_mac0 = bufs.size();
    for (std::size_t i = 0; i < kInvalidPerClass; ++i) {
      auto p = packet(1 + pick() % kHosts, kNow + 900, size_next());
      p.mac[0] ^= 1;
      bufs.push_back(p.seal());
    }
    const std::size_t forged0 = bufs.size();
    for (std::size_t i = 0; i < kInvalidPerClass; ++i) {
      auto p = packet(1 + pick() % kHosts, kNow + 900, size_next());
      rng.fill(MutByteSpan(p.src_ephid.data(), p.src_ephid.size()));
      bufs.push_back(p.seal());
    }
    const std::size_t expired0 = bufs.size();
    for (std::size_t i = 0; i < kInvalidPerClass; ++i)
      bufs.push_back(egress_pkt(1 + pick() % kHosts, kNow - 10, size_next()));
    const std::size_t revoked0 = bufs.size();
    for (std::size_t i = 0; i < kInvalidPerClass; ++i) {
      const core::Hid hid = 1 + pick() % kHosts;
      const core::EphId e = as.codec.issue(hid, kNow + 900, rng);
      as.revoked.revoke_ephid(e, kNow + 900, hid);
      bufs.push_back(seal_egress(hid, e, size_next()));
    }
    // Ingress: local destinations, transit, forged and expired EphIDs.
    const std::size_t in0 = bufs.size();
    std::vector<core::Hid> in_hid;
    for (std::size_t f = 0; f < kIngressFlows; ++f) {
      const core::Hid hid = 1 + pick() % kHosts;
      in_hid.push_back(hid);
      bufs.push_back(seal_ingress(kOurAid, as.codec.issue(hid, kNow + 900, rng).bytes,
                                  size_next()));
    }
    const std::size_t transit0 = bufs.size();
    for (std::size_t f = 0; f < kIngressFlows / 16; ++f) {
      wire::EphIdBytes e{};
      rng.fill(MutByteSpan(e.data(), e.size()));
      bufs.push_back(seal_ingress(kTransitAid, e, size_next()));
    }
    const std::size_t in_forged0 = bufs.size();
    for (std::size_t i = 0; i < kInvalidPerClass; ++i) {
      wire::EphIdBytes e{};
      rng.fill(MutByteSpan(e.data(), e.size()));
      bufs.push_back(seal_ingress(kOurAid, e, size_next()));
    }
    const std::size_t in_expired0 = bufs.size();
    for (std::size_t i = 0; i < kInvalidPerClass; ++i)
      bufs.push_back(seal_ingress(
          kOurAid, as.codec.issue(1 + pick() % kHosts, kNow - 10, rng).bytes,
          size_next()));

    // Burst schedules.
    const Zipf zipf(kFlows, kZipfS);
    const Zipf in_zipf(kIngressFlows, kZipfS);
    std::uniform_real_distribution<double> u01(0.0, 1.0);
    auto any = [&](std::size_t base) { return base + pick() % kInvalidPerClass; };
    egress.resize(kEgressBursts);
    for (Burst& b : egress) {
      for (std::size_t i = 0; i < kBurst; ++i) {
        const double u = u01(pick);
        std::size_t idx;
        Out o;
        if (u < kInvalidShare) {
          idx = any(bad_mac0), o = Out::bad_mac;
        } else if (u < 2 * kInvalidShare) {
          idx = any(forged0), o = Out::bad_ephid;
        } else if (u < 3 * kInvalidShare) {
          idx = any(expired0), o = Out::expired;
        } else if (u < 4 * kInvalidShare) {
          idx = any(revoked0), o = Out::revoked;
        } else {
          idx = flow0 + zipf(pick), o = Out::forward;
        }
        b.views.push_back(bufs[idx].view());
        b.out.push_back(o);
        b.hid.push_back(0);
      }
      b.doomed_pos = static_cast<std::uint32_t>(pick() % kBurst);
      b.out[b.doomed_pos] = Out::forward;  // set per round
    }
    ingress.resize(kEgressBursts / kIngressEvery);
    for (Burst& b : ingress) {
      b.ingress = true;
      for (std::size_t i = 0; i < kBurst; ++i) {
        const double u = u01(pick);
        std::size_t idx;
        Out o;
        core::Hid hid = 0;
        if (u < kInvalidShare) {
          idx = any(in_forged0), o = Out::bad_ephid;
        } else if (u < 2 * kInvalidShare) {
          idx = any(in_expired0), o = Out::expired;
        } else if (u < 0.05 + 2 * kInvalidShare) {
          idx = transit0 + pick() % (kIngressFlows / 16), o = Out::transit;
        } else {
          const std::size_t f = in_zipf(pick);
          idx = in0 + f, o = Out::deliver, hid = in_hid[f];
        }
        b.views.push_back(bufs[idx].view());
        b.out.push_back(o);
        b.hid.push_back(hid);
      }
      b.finalize();
    }

    BorderRouter::Callbacks cb;
    cb.send_external = [this](wire::PacketBuf p) {
      checker.check(p, false, 0);
      return Result<void>::success();
    };
    cb.deliver_internal = [this](core::Hid hid, wire::PacketBuf p) {
      checker.check(p, true, hid);
      return Result<void>::success();
    };
    cb.now = [] { return kNow; };
    br = std::make_unique<BorderRouter>(as, cb);
    router::ForwardingPool::Config one;
    one.threads = 1;
    pool1 = std::make_unique<router::ForwardingPool>(*br, one);
    router::ForwardingPool::Config all;
    all.threads = nproc;
    pooln = std::make_unique<router::ForwardingPool>(*br, all);
    doomed_bufs.reserve(kEgressBursts / kRevokeEvery);
  }

  /// Fresh doomed flows for one round: doomed flow k is sent in egress
  /// bursts 4k and 4k+1 (valid), revoked after burst 4k+1, and sent again
  /// in bursts 4k+2 and 4k+3 (revoked).
  void prepare_round() {
    doomed_bufs.clear();
    doomed.clear();
    for (std::size_t k = 0; k < kEgressBursts / kRevokeEvery; ++k) {
      const core::Hid hid = 1 + pick() % kHosts;
      const core::EphId e = as.codec.issue(hid, kNow + 900, rng);
      doomed_bufs.push_back(seal_egress(hid, e, kSizes[0]));
      doomed.push_back({e, hid});
      for (std::size_t j = 0; j < kRevokeEvery; ++j) {
        Burst& b = egress[k * kRevokeEvery + j];
        b.views[b.doomed_pos] = doomed_bufs.back().view();
        b.out[b.doomed_pos] = j < 2 ? Out::forward : Out::revoked;
        b.finalize();
      }
    }
  }

  /// Re-provisions a spare host (no flows) with fresh keys: an epoch bump
  /// that changes no verdict.
  void rekey() {
    core::HostRecord rec;
    rec.hid = static_cast<core::Hid>(kHosts + 1 + next_spare++ % kSpareHosts);
    crypto::SharedSecret s{};
    rng.fill(MutByteSpan(s.data(), s.size()));
    rec.keys = core::HostAsKeys::derive(s);
    as.host_db.upsert(rec);
  }

 private:
  wire::Packet packet(core::Hid hid, core::ExpTime exp, std::size_t frame) {
    wire::Packet p;
    p.src_aid = kOurAid;
    p.dst_aid = kPeerAid;
    p.src_ephid = as.codec.issue(hid, exp, rng).bytes;
    rng.fill(MutByteSpan(p.dst_ephid.data(), p.dst_ephid.size()));
    p.proto = wire::NextProto::data;
    p.payload = rng.bytes(frame - wire::kApnaHeaderSize - 4);
    stamp(p, hid);
    return p;
  }
  void stamp(wire::Packet& p, core::Hid hid) {
    core::stamp_packet_mac(
        crypto::AesCmac(ByteSpan(keys[hid - 1].mac.data(), 16)), p);
  }
  wire::PacketBuf seal_egress(core::Hid hid, const core::EphId& e,
                              std::size_t frame) {
    wire::Packet p = packet(hid, kNow + 900, frame);
    p.src_ephid = e.bytes;
    stamp(p, hid);
    return p.seal();
  }
  wire::PacketBuf seal_ingress(core::Aid dst_aid, const wire::EphIdBytes& dst,
                               std::size_t frame) {
    wire::Packet p;
    p.src_aid = kPeerAid;
    rng.fill(MutByteSpan(p.src_ephid.data(), p.src_ephid.size()));
    p.dst_aid = dst_aid;
    p.dst_ephid = dst;
    p.proto = wire::NextProto::data;
    p.payload = rng.bytes(frame - wire::kApnaHeaderSize - 4);
    rng.fill(MutByteSpan(p.mac.data(), p.mac.size()));
    return p.seal();
  }
};

struct Pass {
  double busy_s = 0;        // time inside process_* (or classify+apply)
  std::uint64_t packets = 0;
  std::vector<double> burst_us;
  std::vector<double> round_rate;  // packets / busy time, one per round
};

struct Phase {
  Pass one, all;
  std::uint64_t allocs = 0, alloc_pkts = 0, copy_bytes = 0;
  std::vector<double> revoke_us;
  double classify_ns = 0, apply_ns = 0;
  std::uint64_t traced_1t_pkts = 0;
};

void compare(Report& r, const Counts& want, const BorderRouter::Stats& got,
             const char* pass) {
  auto diff = [](std::uint64_t a, std::uint64_t b) { return a > b ? a - b : b - a; };
  const std::uint64_t bad =
      diff(want.forward, got.forwarded_out) + diff(want.deliver, got.delivered_in) +
      diff(want.transit, got.transited) + diff(want.bad_mac, got.drop_bad_mac) +
      diff(want.bad_ephid, got.drop_bad_ephid) + diff(want.expired, got.drop_expired) +
      diff(want.revoked, got.drop_revoked) + got.drop_unknown_host +
      got.drop_no_route + got.drop_too_big + got.drop_replayed;
  if (bad != 0)
    r.fail(bad, std::string("fwd_mem ") + pass +
                    " pass: router counters differ from the labels by " +
                    std::to_string(bad));
}

BorderRouter::Stats delta(BorderRouter::Stats a, const BorderRouter::Stats& b) {
  a -= b;
  return a;
}

/// Runs whole rounds, alternating the 1-thread and nproc passes, until
/// `seconds` have elapsed (at least one round of each). `between` runs
/// after each round, outside the timed calls.
Phase run_phase(World& w, Report& r, double seconds, Tracer* tr,
                std::uint64_t& op, const std::function<void()>& between = {}) {
  Phase ph;
  const std::uint32_t n_root1 = tr ? tr->intern("fwd.burst_1t") : 0;
  const std::uint32_t n_classify = tr ? tr->intern("router.classify") : 0;
  const std::uint32_t n_apply = tr ? tr->intern("router.apply") : 0;
  const std::uint32_t n_processn = tr ? tr->intern("router.process_nproc") : 0;
  const std::uint32_t n_revoke = tr ? tr->intern("core.revoke") : 0;
  const std::uint32_t n_rekey = tr ? tr->intern("core.host_upsert") : 0;
  core::FlowCache cache(router::ForwardingPool::Config().flow_cache_entries);
  std::vector<BorderRouter::Verdict> verdicts(kBurst);

  const std::uint64_t t_start = now_ns();
  for (std::size_t round = 0;; ++round) {
    const bool single = round % 2 == 0;
    router::ForwardingPool& pool = single ? *w.pool1 : *w.pooln;
    Pass& pass = single ? ph.one : ph.all;
    w.prepare_round();
    Counts want;
    const double busy0 = pass.busy_s;
    const std::uint64_t pkts0 = pass.packets;
    const BorderRouter::Stats before = pool.stats();
    BorderRouter::Stats direct;  // traced 1-thread pass counters

    auto run_burst = [&](const Burst& b) {
      want += b.counts;
      w.checker.start(b);
      const std::uint64_t a0 = heap_allocs();
      const std::uint64_t c0 = wire::copy_audit().copy_bytes;
      const std::uint64_t t0 = now_ns();
      if (tr != nullptr && single) {
        // Traced 1-thread pass: the pool's two phases, called directly.
        const std::uint32_t root = tr->begin(n_root1, op);
        const std::uint64_t k0 = now_ns();
        if (b.ingress)
          w.br->classify_ingress_burst(b.views, kNow, verdicts, direct,
                                       w.pool1->batched_for(kBurst), &cache);
        else
          w.br->classify_outgoing_burst(b.views, kNow, verdicts, direct,
                                        w.pool1->batched_for(kBurst), &cache);
        const std::uint64_t k1 = now_ns();
        if (b.ingress)
          w.br->apply_ingress_verdicts(b.views, verdicts, direct);
        else
          w.br->apply_outgoing_verdicts(b.views, verdicts, direct);
        const std::uint64_t k2 = now_ns();
        tr->end(root);
        tr->record(n_classify, op, root, k0, k1);
        tr->record(n_apply, op, root, k1, k2);
        ph.classify_ns += static_cast<double>(k1 - k0);
        ph.apply_ns += static_cast<double>(k2 - k1);
        ph.traced_1t_pkts += b.views.size();
      } else if (tr != nullptr) {
        Scoped s(*tr, n_processn, op);
        if (b.ingress) pool.process_ingress(b.views, kNow);
        else pool.process_outgoing(b.views, kNow);
      } else {
        if (b.ingress) pool.process_ingress(b.views, kNow);
        else pool.process_outgoing(b.views, kNow);
      }
      const std::uint64_t t1 = now_ns();
      ph.allocs += heap_allocs() - a0;
      ph.copy_bytes += wire::copy_audit().copy_bytes - c0;
      ph.alloc_pkts += b.views.size();
      w.checker.finish();
      pass.busy_s += static_cast<double>(t1 - t0) * 1e-9;
      pass.packets += b.views.size();
      pass.burst_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
      r.attempted += b.views.size();
      if (tr != nullptr && single) {
        for (std::size_t i = 0; i < b.views.size(); ++i) {
          const Out o = b.out[i];
          const BorderRouter::Verdict& v = verdicts[i];
          bool ok = v.err == expected_errc(o);
          if (ok && b.ingress && o == Out::deliver) ok = v.local && v.hid == b.hid[i];
          if (ok && o == Out::transit) ok = !v.local;
          if (!ok) r.fail(1, "fwd_mem verdict differs from its label");
        }
      }
      ++op;
    };

    for (std::size_t i = 0; i < kEgressBursts; ++i) {
      run_burst(w.egress[i]);
      if (i % kRevokeEvery == 1) {
        const World::Doomed& d = w.doomed[i / kRevokeEvery];
        const std::uint64_t t0 = now_ns();
        w.as.revoked.revoke_ephid(d.ephid, kNow + 900, d.hid);
        const std::uint64_t t1 = now_ns();
        ph.revoke_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
        if (tr != nullptr) tr->record(n_revoke, op, Tracer::kNoParent, t0, t1);
      }
      if (i % 8 == 5) {
        const std::uint64_t t0 = now_ns();
        w.rekey();
        if (tr != nullptr) tr->record(n_rekey, op, Tracer::kNoParent, t0, now_ns());
      }
      if (i % kIngressEvery == kIngressEvery - 1)
        run_burst(w.ingress[i / kIngressEvery]);
    }
    if (w.checker.mismatches != 0) {
      r.fail(w.checker.mismatches,
             "fwd_mem: " + std::to_string(w.checker.mismatches) +
                 " packets missing, extra, misrouted or not byte-equal");
      w.checker.mismatches = 0;
    }
    compare(r, want, tr != nullptr && single ? direct : delta(pool.stats(), before),
            single ? "1-thread" : "nproc");
    pass.round_rate.push_back(static_cast<double>(pass.packets - pkts0) /
                              (pass.busy_s - busy0));
    if (between) between();
    if (round % 2 == 1 &&
        static_cast<double>(now_ns() - t_start) * 1e-9 >= seconds)
      break;
  }
  return ph;
}

}  // namespace

Report run_fwd_mem(const Options& o) {
  Report r;
  SetupClock<World> setups([&] { return std::make_unique<World>(o.seed, o.nproc); });
  std::unique_ptr<World> w = setups.build();
  std::uint64_t op = 0;
  // Warm-up: one round of each pass fills caches and buffer pools.
  run_phase(*w, r, 0.0, nullptr, op);

  const double measured_s = o.trace ? o.seconds / 2 : o.seconds;
  const core::FlowCache::Stats fc0 = w->pooln->flow_cache_stats();
  const Phase plain = run_phase(*w, r, measured_s, nullptr, op, setups.spread_over(measured_s));
  const core::FlowCache::Stats fc1 = w->pooln->flow_cache_stats();
  setups.finish();

  auto e2e = [&](const Phase& ph, std::map<std::string, Metric>& m) {
    m["pool_rate"] = {quantile(ph.all.round_rate, 0.5), "op/s"};
    m["rate"] = {quantile(ph.one.round_rate, 0.5), "op/s"};
    m["lat_us_p50"] = {quantile(ph.one.burst_us, 0.5), "us"};
    m["lat_us_p99"] = {block_p99(ph.one.burst_us), "us"};
  };
  e2e(plain, r.e2e);
  r.e2e["setup_s"] = {setups.median(), "s"};

  char buf[512];
  std::snprintf(buf, sizeof buf,
                "fwd_mem: %zu flows (Zipf s=%.1f), bursts of %zu, %llu+%llu "
                "packets measured | nproc pass %.0f pkt/s, 1-thread pass %.0f "
                "pkt/s (medians over rounds) | 1-thread burst latency p50 %.1f us, p99 %.1f us (blocks of 1000) over %zu "
                "bursts | set-up %.3f s (median of %d)",
                kFlows, kZipfS, kBurst,
                static_cast<unsigned long long>(plain.all.packets),
                static_cast<unsigned long long>(plain.one.packets),
                r.e2e["pool_rate"].value, r.e2e["rate"].value,
                r.e2e["lat_us_p50"].value,
                r.e2e["lat_us_p99"].value, plain.one.burst_us.size(),
                r.e2e["setup_s"].value, setups.count());
  r.lines.push_back(buf);

  if (o.trace) {
    Tracer tr;
    const BorderRouter::Stats s0 = w->pooln->stats();
    const Phase traced = run_phase(*w, r, o.seconds / 2, &tr, op);
    std::map<std::string, Metric> te;
    e2e(traced, te);
    trace_summary(r, te);
    const std::vector<double> burst = tr.durations("router.process_nproc");
    std::vector<double> us;
    for (double d : burst) us.push_back(d * 1e-3);
    r.layer["router.burst_us_p50"] = {quantile(us, 0.5), "us"};
    r.layer["router.burst_us_p99"] = {quantile(us, tail_quantile(us.size())), "us"};
    const double pkts = static_cast<double>(traced.traced_1t_pkts);
    r.layer["router.classify_ns_per_pkt"] = {traced.classify_ns / pkts, "ns/pkt"};
    r.layer["router.apply_ns_per_pkt"] = {traced.apply_ns / pkts, "ns/pkt"};
    const BorderRouter::Stats s1 = delta(w->pooln->stats(), s0);
    r.layer["router.forwarded"] = {static_cast<double>(s1.forwarded_out + s1.delivered_in + s1.transited), "count"};
    r.layer["router.dropped"] = {static_cast<double>(s1.total_drops()), "count"};
    const std::uint64_t hits = fc1.hits - fc0.hits, misses = fc1.misses - fc0.misses;
    r.layer["core.flow_cache_hit_ratio"] = {
        static_cast<double>(hits) / static_cast<double>(hits + misses), "ratio"};
    r.layer["core.flow_cache_stale_ratio"] = {
        static_cast<double>(fc1.stale_gen - fc0.stale_gen) / static_cast<double>(misses), "ratio"};
    r.layer["core.cross_worker_duplicates"] = {
        static_cast<double>(fc1.cross_worker_duplicates), "count"};
    r.layer["core.revoke_us"] = {quantile(traced.revoke_us, 0.5), "us"};
    r.layer["wire.copy_bytes_per_pkt"] = {
        static_cast<double>(plain.copy_bytes) / static_cast<double>(plain.alloc_pkts), "B/pkt"};
    r.layer["util.allocs_per_pkt"] = {
        static_cast<double>(plain.allocs) / static_cast<double>(plain.alloc_pkts), "alloc/pkt"};
    layer_report(tr, r, {"fwd.burst_1t"});
    const std::string path = o.out_dir + "/fwd_mem-seed" + std::to_string(o.seed) + ".spans.tsv";
    if (tr.write(path)) r.lines.push_back("spans written to " + path);
  }
  return r;
}

}  // namespace perfbench
