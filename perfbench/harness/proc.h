#pragma once

// Readers for the /proc counters the benchmark takes from outside the
// program: peak and current resident memory, and per-thread CPU time.

#include <sys/types.h>

#include <map>

namespace perfbench {

/// Peak resident set (VmHWM) of `pid` (0 = this process), in MiB.
double peak_rss_mib(pid_t pid = 0);
/// Current resident set (VmRSS) of `pid` (0 = this process), in bytes.
double rss_bytes(pid_t pid = 0);
/// Lowers this process's peak resident set (VmHWM) to its current one,
/// so that memory used and released before is not counted (Linux 4.0+).
void reset_peak_rss();
/// CPU seconds consumed so far by each thread of `pid` (0 = this
/// process), keyed by thread id: nanosecond schedstat where the kernel
/// has it, clock-tick utime + stime otherwise.
std::map<int, double> thread_cpu_s(pid_t pid = 0);
/// Sum of thread_cpu_s(pid).
double process_cpu_s(pid_t pid);

}  // namespace perfbench
