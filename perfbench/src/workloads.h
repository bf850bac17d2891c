// The three perfbench workloads (see perfbench/README.md for their inputs).
#pragma once

#include "common.h"

namespace perfbench {

/// Fig 4 border-router pipeline in memory: ForwardingPool bursts at 1 and
/// nproc threads, Zipf flows, labelled invalid packets, revocation and
/// re-key trickle between bursts.
Report run_fwd_mem(const Options& o);

/// The same pipeline behind loopback UdpTransport sockets, driven by one
/// closed-loop generator thread with a bounded in-flight window.
Report run_fwd_udp(const Options& o);

/// The brokered control plane: pooled issuance, shutoffs and DNS lookups
/// over a journaled AS, a serial Fig 3 pass, and snapshot + journal
/// recovery.
Report run_control(const Options& o);

}  // namespace perfbench
