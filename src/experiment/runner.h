#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "experiment/parallel_executor.h"
#include "experiment/param_registry.h"
#include "experiment/site.h"
#include "sim/stats.h"
#include "sim/text.h"

namespace adattl::experiment {

/// Result of several independent replications of the same configuration
/// (different seeds).
struct ReplicatedResult {
  std::vector<RunResult> runs;

  /// Mean + 95% CI of a scalar extracted from each run.
  sim::MeanCi ci(const std::function<double(const RunResult&)>& f) const;

  sim::MeanCi prob_below(double u) const;
  sim::MeanCi aggregate_utilization() const;
  sim::MeanCi address_request_rate() const;

  /// Pointwise-averaged cumulative curve over the CDF bin boundaries:
  /// first = max-utilization boundary, second = mean P(maxUtil < boundary).
  /// `points` must be >= 1; an empty `runs` yields an all-zero curve.
  std::vector<std::pair<double, double>> mean_cdf_curve(int points = 50) const;
};

/// Progress report delivered as each sweep point completes (all of its
/// replications finished). Deliveries are serialized — at most one
/// callback runs at a time, in point-completion order.
struct SweepPointDone {
  std::size_t index = 0;      ///< point index in add() order
  std::size_t completed = 0;  ///< points completed so far, this one included
  std::size_t total = 0;      ///< points in the sweep
  std::string label;
  double cpu_seconds = 0.0;      ///< summed wall-clock of the point's replications
  double elapsed_seconds = 0.0;  ///< wall-clock since Sweep::run() started
};

/// What a Sweep::run() produced: one ReplicatedResult per point, in add()
/// order — positionally identical to calling run_replications once per
/// point in a serial loop — plus per-point and whole-sweep timing.
struct SweepResult {
  std::vector<ReplicatedResult> points;
  /// Summed replication wall-clock per point (the serial-equivalent cost).
  std::vector<double> point_cpu_seconds;
  double wall_seconds = 0.0;
  int jobs = 1;
};

/// A batch of independent simulation points (config × replications) that
/// runs as one unit across a ParallelExecutor. Every replication of every
/// point is an independent task, so a sweep of 8 points × 3 replications
/// keeps 24-way parallelism available instead of 3-way.
///
/// Determinism guarantee: replication i of a point runs with seed
/// `config.seed + i` — exactly the serial derivation — and results land in
/// pre-assigned slots, so SweepResult is bit-identical whatever the worker
/// count or scheduling order. Of a point with trace_enabled, only
/// replication 0 traces (its RunResult::trace); tracing changes no result.
class Sweep {
 public:
  using ProgressFn = std::function<void(const SweepPointDone&)>;

  /// Queues `replications` runs of `config` (seeds config.seed + i).
  /// Returns the point's index into SweepResult::points. Throws
  /// std::invalid_argument for replications < 1.
  std::size_t add(SimulationConfig config, int replications, std::string label = "");

  /// add() with the policy overridden (the run_policy convenience); the
  /// label defaults to the policy name.
  std::size_t add_policy(SimulationConfig base, const std::string& policy,
                         int replications, std::string label = "");

  std::size_t size() const { return points_.size(); }

  /// Workers each replication's pool gets when the sweep runs on `jobs`
  /// threads: the threads left to each of the replications that run at
  /// once, max(1, jobs / min(jobs, replications)), so a sweep keeps to
  /// about `jobs` busy threads in all, and `jobs` = 1 starts none. A
  /// sharded replication runs its shards on them, a serial one its
  /// service-time helper (Site).
  int site_workers(int jobs) const;

  /// Fans all queued replications across `executor`. The progress callback
  /// (optional) fires once per completed point, serialized.
  SweepResult run(ParallelExecutor& executor, ProgressFn on_point_done = nullptr) const;

  /// run() on a fresh executor sized by ADATTL_JOBS (1 = legacy serial).
  SweepResult run(ProgressFn on_point_done = nullptr) const;

 private:
  struct Point {
    SimulationConfig config;
    int replications = 0;
    std::string label;
  };
  std::vector<Point> points_;
};

/// Runs `replications` independent runs of `config` with seeds derived
/// from config.seed (seed, seed+1, ...). Honors ADATTL_JOBS: replications
/// run in parallel, with output bit-identical to the serial path.
ReplicatedResult run_replications(SimulationConfig config, int replications);

/// Convenience used all over the benches: run one policy (by name) with a
/// tweak applied to the base config.
ReplicatedResult run_policy(SimulationConfig base, const std::string& policy, int replications);

/// Whether a run of `config` computes the outputs that depend on site-wide
/// queueing: the max-utilization statistics, the response times and the
/// per-domain latency. A run over more than one slice does not (RunResult),
/// so to_json writes null for them and run_scenario prints n/a.
bool reports_queueing(const SimulationConfig& config);

/// Serializes a scenario's headline results as a JSON object (policy,
/// site shape, P(maxUtil < x) with CIs, utilization, address-rate, DNS
/// control, response times, per-server utilizations), plus a "config"
/// object with the fully resolved knob values from the parameter registry
/// and a "provenance" object recording which layer set each non-default
/// knob. For dashboards and scripted sweeps; the schema is flat and
/// stable. Without an explicit provenance map, non-default knobs are
/// attributed to the code layer (ParamRegistry::infer_provenance).
std::string to_json(const SimulationConfig& config, const ReplicatedResult& result);
std::string to_json(const SimulationConfig& config, const ReplicatedResult& result,
                    const ProvenanceMap& provenance);

/// JSON string escaping as used by to_json (sim/text.h).
using text::json_escape;

/// Number of replications the figure benches use. Default 3; override via
/// environment variable ADATTL_REPLICATIONS (clamped to [1, 30]).
int default_replications();

/// Measured-period length for figure benches, seconds. Default: the
/// paper's 5 simulated hours; override via ADATTL_DURATION_SEC.
double default_duration_sec();

}  // namespace adattl::experiment
