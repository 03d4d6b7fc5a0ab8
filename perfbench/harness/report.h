#pragma once

// What one harness invocation measured, printed as a single JSON line on
// stdout for perfbench/run.py to summarise. The harness reports raw
// repetitions; run.py takes medians and quartiles.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;     ///< self-test size: same code path, seconds-scale inputs
  bool corrupt = false;  ///< self-test: damage one output; the checks must catch it
  std::string dnsd_path;   ///< the adattl_dnsd executable
  std::string assets_dir;  ///< perfbench/workloads
  /// Pinned result digest of replication 0 for this seed ("" = not pinned).
  std::string expect_digest;
};

struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// End-to-end repetitions: metric -> one value per repetition.
  std::map<std::string, std::vector<double>> e2e;
  /// Per-layer values (traced run only).
  std::map<std::string, double> layer;
  struct Check {
    std::string name;
    bool ok = true;
    std::string detail;
  };
  std::vector<Check> checks;
  /// Free-form context for the human-readable report.
  std::map<std::string, std::string> info;

  void check(const std::string& name, bool ok, const std::string& detail = "") {
    checks.push_back({name, ok, detail});
  }
  bool all_ok() const {
    for (const Check& c : checks) {
      if (!c.ok) return false;
    }
    return true;
  }
};

/// Splitmix64 finaliser: decorrelated per-repetition seeds from one seed.
inline std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + salt + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Exact quantile of `v` (sorted copy, linear interpolation); 0 if empty.
double quantile(std::vector<double> v, double q);

/// Replayed results land here so the compiler cannot drop a replay.
inline volatile std::uint64_t replay_sink = 0;

int run_site_workload(const Options& opt, Report& r);
int run_dnsd_workload(const Options& opt, Report& r);

}  // namespace perfbench
