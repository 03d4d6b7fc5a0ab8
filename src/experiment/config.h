#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>

#include <vector>

#include "fault/fault_schedule.h"
#include "web/cluster.h"
#include "workload/client_pool.h"
#include "workload/think_time_model.h"
#include "workload/trace.h"

namespace adattl::experiment {

/// Which hidden-load estimator the DNS runs when not in oracle mode.
enum class EstimatorKind {
  kEwma,           ///< exponentially-weighted moving average (default)
  kSlidingWindow,  ///< plain moving average over the last N windows
  kHoltWinters,    ///< double-exponential level + trend, one-step forecast
  kAr,             ///< AR(p) least-squares one-step prediction
};

/// Full description of one simulation run — the paper's Table 1 plus the
/// knobs its sensitivity studies turn. Defaults reproduce the paper's
/// default scenario (7 servers, 20% heterogeneity, 20 domains, 500
/// clients, 2/3 average utilization, 5-hour run).
struct SimulationConfig {
  // ---- Web site ----
  web::ClusterSpec cluster = web::table2_cluster(20);

  // ---- Workload ----
  int num_domains = 20;
  int total_clients = 500;
  double mean_think_sec = 15.0;
  double zipf_theta = 1.0;
  /// Uniform client-per-domain distribution: the paper's "Ideal" scenario.
  bool uniform_clients = false;
  /// §5.2 estimation-error study: grow the busiest domain's rate by this
  /// percentage (others shrink to keep the total) while the DNS keeps the
  /// unperturbed weights.
  double rate_perturbation_percent = 0.0;
  workload::SessionProfile session;
  /// Scripted flash crowds: at each shift's time, the domain's request
  /// rate is multiplied by its factor (composing). The DNS is *not* told —
  /// only the online estimator can notice.
  std::vector<workload::RateShift> rate_shifts;
  /// Trace-driven workload: each point SETS a domain's rate multiplier
  /// outright (absolute, non-composing — see workload/trace.h). Loaded
  /// from --workload-trace=FILE CSVs and/or inline --trace-point specs;
  /// like rate_shifts the DNS is not told, and in sharded runs each event
  /// fires only in its domain's owning shard.
  std::vector<workload::TraceEvent> trace_events;

  // ---- DNS scheduling algorithm ----
  /// Name per core::parse_policy_name, e.g. "DRR2-TTL/S_K".
  std::string policy = "RR";
  double reference_ttl_sec = 240.0;
  /// γ; 0 means "use the paper default 1/K".
  double class_threshold = 0.0;
  /// Address-rate fairness calibration (§4.1); off only in ablations.
  bool calibrate_ttl = true;

  // ---- Feedback / monitoring ----
  double alarm_threshold = 0.9;
  bool alarm_enabled = true;
  /// Also alarm a server whose queue exceeds this many pages (0 = the
  /// paper's utilization-only feedback). Detects silent outages.
  std::size_t alarm_queue_threshold = 0;
  double monitor_interval_sec = 8.0;

  // ---- Failure injection ----
  /// Scenario-driven fault plan: crashes, degradations, pauses and
  /// authoritative-DNS outages (--faults=FILE or inline flags). An empty
  /// schedule is bit-identical to no fault layer at all.
  fault::FaultSchedule faults;
  /// Client pause before retrying a failed page or resolution.
  double client_retry_delay_sec = 1.0;
  /// NS upstream retry backoff during DNS outages (capped exponential).
  double ns_retry_initial_backoff_sec = 1.0;
  double ns_retry_max_backoff_sec = 64.0;

  // ---- Server-side redirection (extension; the authors' follow-up
  // "second-level dispatching" mechanism) ----
  bool redirect_enabled = false;
  /// Redirect when the target's estimated queue wait exceeds this.
  double redirect_max_wait_sec = 2.0;
  /// Extra latency per redirected request (the additional hop).
  double redirect_delay_sec = 0.1;

  // ---- Geography (extension; 0 regions = the paper's latency-free model) ----
  /// Number of regions; domains/servers are assigned round-robin.
  int geo_regions = 0;
  /// Intra-/inter-region round-trip times (seconds).
  double geo_intra_rtt_sec = 0.02;
  double geo_inter_rtt_sec = 0.15;

  // ---- Elastic pool / autoscaling (extension) ----
  /// Watermark autoscaler on the monitor tick: sustained mean in-pool
  /// utilization above/below the watermarks adds/parks one server per
  /// action (see core::Autoscaler). Scripted scale-up/scale-down/resize
  /// fault directives work independently of this switch.
  bool autoscale_enabled = false;
  double autoscale_high_watermark = 0.75;
  double autoscale_low_watermark = 0.30;
  /// Consecutive out-of-band monitor ticks required before an action.
  int autoscale_hysteresis_ticks = 3;
  /// Scale-down floor: the pool never shrinks below this many servers.
  int autoscale_min_servers = 1;

  // ---- Hidden-load estimation ----
  /// true: DNS knows the (unperturbed) weights exactly — the paper's
  /// controlled setting. false: weights come from the online EWMA
  /// estimator fed by server reports.
  bool oracle_weights = true;
  EstimatorKind estimator_kind = EstimatorKind::kEwma;
  double estimator_smoothing = 0.3;
  /// Window count for the sliding-window estimator.
  int estimator_window_count = 8;
  /// Trend smoothing (Holt-Winters beta); 0 degrades to plain EWMA.
  double estimator_trend = 0.2;
  /// Autoregressive order p for the AR estimator.
  int estimator_ar_order = 3;
  /// Collect server counters every this many monitor ticks (4 × 8 s = 32 s).
  int estimator_collect_every_ticks = 4;
  /// Start the measured estimator from uniform weights instead of the true
  /// ones (cold start; used by the flash-crowd example).
  bool estimator_cold_start = false;

  // ---- Name servers / client caches ----
  /// Non-cooperative NS minimum accepted TTL (§5.2); 0 = fully cooperative.
  double ns_min_ttl_sec = 0.0;
  /// Name servers per domain (paper §2: domains have "a (set of) local
  /// name server(s)"). Each domain's clients are spread evenly over its
  /// NSs; more NSs = more independent caches = more DNS control.
  int ns_per_domain = 1;
  /// Per-client address caches on top of the NS caches (paper §1 notes
  /// clients cache too). Off by default: the paper's model resolves once
  /// per session through the NS; the ablation bench studies the effect.
  bool client_cache_enabled = false;

  // ---- Live DNS daemon (tools/adattl_dnsd; inert for simulations) ----
  /// UDP port the sharded daemon binds (0 = ephemeral, reported at start).
  int dnsd_port = 5353;
  /// Worker shards, each with its own SO_REUSEPORT socket, I/O thread and
  /// scheduler state (1 = bit-compatible with the serial scheduler).
  int dnsd_shards = 1;
  /// recvmmsg/sendmmsg batch size (datagrams per syscall; 1 = a batch of one).
  int dnsd_batch = 32;
  /// Derive the hidden-load domain key from EDNS0 Client-Subnet when the
  /// resolver forwards one (source-address hash fallback otherwise).
  bool dnsd_ecs = true;

  // ---- Observability (off by default: zero steady-state cost) ----
  /// The RunResult carries an end-of-run MetricsSnapshot, which report
  /// serialization includes.
  bool metrics_enabled = false;
  /// Record typed trace events (decisions, per-tick utilization, alarm
  /// flips, NS refreshes, pause/resume, estimator updates) into one bounded
  /// ring per slice; the run returns them as RunResult::trace. A
  /// programmatic switch with no knob: run_scenario sets it on its sweep
  /// for --trace/--decisions/--chrome-trace, and a sweep traces only the
  /// first replication of a point.
  bool trace_enabled = false;
  /// Capacity of each slice's ring in records (32 bytes each); oldest
  /// records are overwritten, and the tracer's CSV views refuse a run that
  /// overflowed any ring.
  std::size_t trace_capacity = 65536;

  // ---- Run control ----
  /// Warm-up before the measured period. Only the max-utilization tracker
  /// (the utilization statistics of RunResult) starts after it; every other
  /// output covers warm-up plus duration (DESIGN.md §11).
  double warmup_sec = 600.0;
  double duration_sec = 18000.0;  ///< measured period after warm-up (5 h)
  std::uint64_t seed = 42;

  // ---- Scale-out (million-client runs) ----
  /// Multiplies the client population AND the site capacity together, so
  /// per-client load (and therefore utilization) is invariant: --scale=2000
  /// turns the paper's 500-client default into a 1M-client site without
  /// re-deriving Table 2. Applied once at Site construction via scaled().
  double scale = 1.0;
  /// Partition the domains (and their clients, name servers and estimator
  /// state) across a pool of per-shard simulators that synchronize at
  /// every monitor tick — the parallel-in-one-run mode (DESIGN.md §16).
  /// Domains go to shards largest offered load first, so the shards carry
  /// near-equal load. Results are bit-identical across repeated runs at a
  /// fixed seed and shard count, whatever ADATTL_JOBS is.
  bool shard_domains = false;
  /// Shard pool size for shard_domains, in [1, 512]; clamped to
  /// num_domains (a shard needs at least one domain). A fixed number, not
  /// the host's worker count: the shard count picks the RNG split, so it
  /// is part of the run's identity.
  int shard_count = 4;

  double effective_class_threshold() const {
    return class_threshold > 0.0 ? class_threshold : 1.0 / num_domains;
  }

  /// Slices a run of this config is split over: min(shard_count,
  /// num_domains) with shard_domains set, else 1.
  int slice_count() const { return shard_domains ? std::min(shard_count, num_domains) : 1; }

  /// total_clients × scale, rounded half away from zero: the population a
  /// Site runs. The registry's cross-knob checks keep it in [1, INT_MAX].
  double scaled_clients() const;

  /// The configuration a Site actually runs: `scale` folded into
  /// total_clients and cluster capacity (then reset to 1). Identity when
  /// scale == 1; otherwise validates first, so a scale whose population
  /// falls outside [1, INT_MAX] throws std::invalid_argument.
  SimulationConfig scaled() const;

  void validate() const;
};

}  // namespace adattl::experiment
