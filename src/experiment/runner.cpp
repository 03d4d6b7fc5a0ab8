#include "experiment/runner.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "experiment/env_config.h"
#include "experiment/report.h"
#include "experiment/sharded_site.h"

namespace adattl::experiment {

sim::MeanCi ReplicatedResult::ci(const std::function<double(const RunResult&)>& f) const {
  std::vector<double> xs;
  xs.reserve(runs.size());
  for (const auto& r : runs) xs.push_back(f(r));
  return sim::mean_ci(xs);
}

sim::MeanCi ReplicatedResult::prob_below(double u) const {
  return ci([u](const RunResult& r) { return r.max_util_cdf.prob_below(u); });
}

sim::MeanCi ReplicatedResult::aggregate_utilization() const {
  return ci([](const RunResult& r) { return r.aggregate_utilization; });
}

sim::MeanCi ReplicatedResult::address_request_rate() const {
  return ci([](const RunResult& r) { return r.address_request_rate; });
}

std::vector<std::pair<double, double>> ReplicatedResult::mean_cdf_curve(int points) const {
  if (points < 1) throw std::invalid_argument("mean_cdf_curve: points must be >= 1");
  std::vector<std::pair<double, double>> curve;
  curve.reserve(static_cast<std::size_t>(points) + 1);
  for (int i = 0; i <= points; ++i) {
    const double u = static_cast<double>(i) / points;
    double sum = 0.0;
    for (const auto& r : runs) sum += r.max_util_cdf.prob_below(u);
    curve.emplace_back(u, runs.empty() ? 0.0 : sum / static_cast<double>(runs.size()));
  }
  return curve;
}

std::size_t Sweep::add(SimulationConfig config, int replications, std::string label) {
  if (replications < 1) throw std::invalid_argument("Sweep::add: need >= 1 replications");
  points_.push_back(Point{std::move(config), replications, std::move(label)});
  return points_.size() - 1;
}

std::size_t Sweep::add_policy(SimulationConfig base, const std::string& policy,
                              int replications, std::string label) {
  base.policy = policy;
  return add(std::move(base), replications, label.empty() ? policy : std::move(label));
}

int Sweep::site_workers(int jobs) const {
  jobs = std::max(jobs, 1);
  std::size_t replications = 0;
  for (const Point& p : points_) replications += static_cast<std::size_t>(p.replications);
  const auto at_once = std::clamp<std::size_t>(replications, 1, static_cast<std::size_t>(jobs));
  return std::max(1, jobs / static_cast<int>(at_once));
}

SweepResult Sweep::run(ParallelExecutor& executor, ProgressFn on_point_done) const {
  using Clock = std::chrono::steady_clock;
  const auto since = [](Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };

  SweepResult out;
  out.jobs = executor.jobs();
  out.points.resize(points_.size());
  out.point_cpu_seconds.assign(points_.size(), 0.0);

  // Pre-size every point's run vector so each task owns exactly one slot:
  // result placement is positional, never completion-ordered.
  struct PointState {
    std::size_t remaining = 0;
    double cpu_seconds = 0.0;
  };
  std::vector<PointState> state(points_.size());
  for (std::size_t p = 0; p < points_.size(); ++p) {
    const std::size_t reps = static_cast<std::size_t>(points_[p].replications);
    out.points[p].runs.resize(reps);
    state[p].remaining = reps;
  }

  std::mutex mutex;  // guards state, completed count, and progress delivery
  std::size_t completed = 0;
  const int workers = site_workers(executor.jobs());
  const auto start = Clock::now();

  std::vector<std::function<void()>> tasks;
  for (std::size_t p = 0; p < points_.size(); ++p) {
    for (int i = 0; i < points_[p].replications; ++i) {
      tasks.push_back([this, &out, &state, &mutex, &completed, &on_point_done, &since,
                       start, workers, p, i] {
        SimulationConfig config = points_[p].config;
        config.seed = points_[p].config.seed + static_cast<std::uint64_t>(i);
        // A traced point traces its first replication only: every slice of
        // a traced run holds a ring of trace_capacity records.
        config.trace_enabled = config.trace_enabled && i == 0;
        const auto run_start = Clock::now();
        RunResult result;
        // A replication parallelizes internally over its own pool (the
        // sweep executor is not reentrant from inside a task), sized to the
        // share of the sweep's threads it leaves: a sharded run's shards, or
        // a serial run's service-time helper.
        if (config.shard_domains) {
          ShardedSite site(config, workers);
          result = site.run();
        } else {
          Site site(config, workers);
          result = site.run();
        }
        const double run_seconds = since(run_start);
        out.points[p].runs[static_cast<std::size_t>(i)] = std::move(result);

        std::lock_guard<std::mutex> lock(mutex);
        state[p].cpu_seconds += run_seconds;
        if (--state[p].remaining == 0) {
          out.point_cpu_seconds[p] = state[p].cpu_seconds;
          ++completed;
          if (on_point_done) {
            SweepPointDone done;
            done.index = p;
            done.completed = completed;
            done.total = points_.size();
            done.label = points_[p].label;
            done.cpu_seconds = state[p].cpu_seconds;
            done.elapsed_seconds = since(start);
            on_point_done(done);
          }
        }
      });
    }
  }

  executor.run(tasks);
  out.wall_seconds = since(start);
  return out;
}

SweepResult Sweep::run(ProgressFn on_point_done) const {
  ParallelExecutor executor;  // sized by ADATTL_JOBS / hardware_concurrency
  return run(executor, std::move(on_point_done));
}

ReplicatedResult run_replications(SimulationConfig config, int replications) {
  if (replications < 1) throw std::invalid_argument("run_replications: need >= 1");
  Sweep sweep;
  sweep.add(std::move(config), replications);
  SweepResult result = sweep.run();
  return std::move(result.points.front());
}

ReplicatedResult run_policy(SimulationConfig base, const std::string& policy, int replications) {
  base.policy = policy;
  return run_replications(std::move(base), replications);
}

namespace {

void append_kv(std::string& out, const char* key, double value, bool comma = true) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "\"%s\":%.6g", key, value);
  out += buf;
  if (comma) out += ",";
}

/// append_kv for a value the run computed, null for one it did not.
void append_kv_or_null(std::string& out, const char* key, double value, bool computed) {
  if (computed) {
    append_kv(out, key, value);
  } else {
    out += std::string("\"") + key + "\":null,";
  }
}

}  // namespace

std::string to_json(const SimulationConfig& config, const ReplicatedResult& result) {
  CliOptions resolved;
  resolved.config = config;
  if (!result.runs.empty()) resolved.replications = static_cast<int>(result.runs.size());
  return to_json(config, result, ParamRegistry::instance().infer_provenance(resolved));
}

bool reports_queueing(const SimulationConfig& config) { return config.slice_count() == 1; }

std::string to_json(const SimulationConfig& config, const ReplicatedResult& result,
                    const ProvenanceMap& provenance) {
  const bool queueing = reports_queueing(config);
  std::string out = "{";
  out += "\"policy\":\"" + text::json_escape(config.policy) + "\",";
  append_kv(out, "servers", config.cluster.size());
  append_kv(out, "heterogeneity_percent", config.cluster.heterogeneity_percent());
  append_kv(out, "domains", config.num_domains);
  // Headline fields describe the population actually simulated, so the
  // scale multiplier is applied (the resolved-config block below keeps the
  // pre-scale clients + scale knob for exact reproduction).
  append_kv(out, "clients", config.scaled().total_clients);
  append_kv(out, "replications", static_cast<double>(result.runs.size()));
  append_kv(out, "duration_sec", config.duration_sec);

  const sim::MeanCi p90 = result.prob_below(0.90);
  const sim::MeanCi p98 = result.prob_below(0.98);
  append_kv_or_null(out, "p_max_util_below_090", p90.mean, queueing);
  append_kv_or_null(out, "p_max_util_below_090_ci", p90.halfwidth, queueing);
  append_kv_or_null(out, "p_max_util_below_098", p98.mean, queueing);
  append_kv_or_null(out, "p_max_util_below_098_ci", p98.halfwidth, queueing);
  append_kv_or_null(out, "mean_max_utilization",
                    result.ci([](const RunResult& r) { return r.mean_max_utilization; }).mean,
                    queueing);
  append_kv(out, "aggregate_utilization", result.aggregate_utilization().mean);
  append_kv(out, "address_request_rate", result.address_request_rate().mean);
  append_kv(out, "dns_controlled_fraction",
            result.ci([](const RunResult& r) { return r.dns_controlled_fraction; }).mean);
  append_kv(out, "mean_ttl_sec", result.ci([](const RunResult& r) { return r.mean_ttl; }).mean);
  append_kv_or_null(out, "mean_response_sec",
                    result.ci([](const RunResult& r) { return r.mean_page_response_sec; }).mean,
                    queueing);
  append_kv_or_null(out, "response_p99_sec",
                    result.ci([](const RunResult& r) { return r.response_p99_sec; }).mean,
                    queueing);
  append_kv(out, "mean_network_rtt_sec",
            result.ci([](const RunResult& r) { return r.mean_network_rtt_sec; }).mean);
  append_kv(out, "mean_assignment_rtt_sec",
            result.ci([](const RunResult& r) { return r.mean_assignment_rtt_sec; }).mean);
  append_kv(out, "pool_changes",
            result.ci([](const RunResult& r) { return static_cast<double>(r.pool_changes); })
                .mean);
  append_kv(out, "autoscale_ups",
            result.ci([](const RunResult& r) { return static_cast<double>(r.autoscale_ups); })
                .mean);
  append_kv(out, "autoscale_downs",
            result.ci([](const RunResult& r) { return static_cast<double>(r.autoscale_downs); })
                .mean);
  append_kv(out, "final_pool_size",
            result.ci([](const RunResult& r) { return static_cast<double>(r.final_pool_size); })
                .mean);
  append_kv(out, "failed_requests",
            result.ci([](const RunResult& r) { return static_cast<double>(r.failed_requests); })
                .mean);
  append_kv(out, "lost_pages",
            result.ci([](const RunResult& r) { return static_cast<double>(r.lost_pages); }).mean);
  append_kv(out, "lost_hits",
            result.ci([](const RunResult& r) { return static_cast<double>(r.lost_hits); }).mean);
  append_kv(out, "dns_outage_sec",
            result.ci([](const RunResult& r) { return r.dns_outage_sec; }).mean);
  append_kv(out, "unavailability_fraction",
            result.ci([](const RunResult& r) { return r.unavailability_fraction; }).mean);

  out += "\"mean_server_utilization\":[";
  if (!result.runs.empty()) {
    const RunResult& first = result.runs.front();
    for (std::size_t s = 0; s < first.mean_server_util.size(); ++s) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.6g%s", first.mean_server_util[s],
                    s + 1 < first.mean_server_util.size() ? "," : "");
      out += buf;
    }
  }
  out += "]";
  // Latency-as-a-result arrays (first replication, like the array above):
  // empty without a geo model / absent without domains, so latency-free
  // runs keep their historical schema plus two cheap keys.
  if (!result.runs.empty()) {
    const RunResult& first = result.runs.front();
    out += ",\"rtt_weighted_assignment_share\":[";
    for (std::size_t s = 0; s < first.rtt_weighted_assignment_share.size(); ++s) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.6g%s", first.rtt_weighted_assignment_share[s],
                    s + 1 < first.rtt_weighted_assignment_share.size() ? "," : "");
      out += buf;
    }
    out += "]";
    out += ",\"domain_latency\":[";
    for (std::size_t d = 0; d < first.domain_latency.size(); ++d) {
      const RunResult::DomainLatency& dl = first.domain_latency[d];
      out += "{";
      append_kv_or_null(out, "p50_sec", dl.p50_sec, queueing);
      append_kv_or_null(out, "p95_sec", dl.p95_sec, queueing);
      append_kv_or_null(out, "p99_sec", dl.p99_sec, queueing);
      append_kv_or_null(out, "mean_sec", dl.mean_sec, queueing);
      char buf[48];
      std::snprintf(buf, sizeof(buf), "\"pages\":%llu}%s",
                    static_cast<unsigned long long>(dl.pages),
                    d + 1 < first.domain_latency.size() ? "," : "");
      out += buf;
    }
    out += "]";
  }
  // Fully resolved knob values and their provenance, straight from the
  // parameter registry — the machine-readable "exactly what ran" record.
  {
    CliOptions resolved;
    resolved.config = config;
    if (!result.runs.empty()) resolved.replications = static_cast<int>(result.runs.size());
    const ParamRegistry& registry = ParamRegistry::instance();
    out += ",\"config\":" + registry.config_json(resolved);
    out += ",\"provenance\":" + registry.provenance_json(provenance);
  }
  // Per-run observability snapshot (first replication), present only when
  // the run was built with metrics_enabled.
  if (!result.runs.empty() && result.runs.front().metrics) {
    out += ",\"metrics\":" + metrics_to_json(*result.runs.front().metrics);
  }
  out += "}";
  return out;
}

int default_replications() {
  return env_int("ADATTL_REPLICATIONS", 3, 1, 30);
}

double default_duration_sec() {
  return env_double("ADATTL_DURATION_SEC", 18000.0, 600.0, 1e7);
}

}  // namespace adattl::experiment
