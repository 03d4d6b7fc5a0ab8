#pragma once

// The host's speed right now. The benchmark's hosts are shared VMs whose
// speed drifts by tens of percent within minutes, in CPU time as much as
// in wall time. A fixed piece of work, written here and independent of
// the program under test, is timed next to every replication; its
// duration over the nominal one is the host's slowdown at that moment.

#include <cmath>

namespace perfbench {

/// host_reference_s() at the typical speed of a shared 4-vCPU 2.1 GHz
/// x86-64 VM: end-to-end times are given as if the host ran at this speed.
inline constexpr double kHostReferenceNominalS = 0.010;

/// Seconds taken now by a fixed miniature event loop: a std::priority_queue
/// of 512 pending timestamps over a 4 MiB table of 64-byte records; 80,000
/// times it pops the earliest event, updates that event's record and pushes
/// a later event for a random record. Like the simulator, it is sensitive
/// to both core speed and cache contention. The table is mapped and
/// unmapped here, so it leaves no memory behind, but it does raise the
/// process's peak RSS (see reset_peak_rss in proc.h).
double host_reference_s();

/// Factor that takes a time measured next to a host reference of `ref_s`
/// to the host's nominal speed: (nominal / ref_s)^elasticity, where the
/// elasticity is how strongly the measured work follows the reference
/// when the host slows (1: in proportion). Divide rates by it.
inline double to_nominal(double ref_s, double elasticity) {
  return std::pow(kHostReferenceNominalS / ref_s, elasticity);
}

}  // namespace perfbench
