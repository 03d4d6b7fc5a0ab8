// General-purpose scenario runner: simulate any site / workload / policy
// combination straight from the command line.
//
//   ./build/examples/run_scenario --policy=DRR2-TTL/S_K --heterogeneity=50
//       --min-ttl=60 --replications=3   (one command line)
//   ./build/examples/run_scenario --policy=PRR2-TTL/K --measured --cold-start --cdf
//   ./build/examples/run_scenario --relative=1,0.9,0.3 --total-capacity=300
//       --clients=300 --csv             (one command line)
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "experiment/cli.h"
#include "experiment/parallel_executor.h"
#include "experiment/param_registry.h"
#include "experiment/report.h"
#include "experiment/runner.h"
#include "obs/event_tracer.h"

using namespace adattl;

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  for (const std::string& a : args) {
    if (a == "--help" || a == "-h") {
      std::fputs(experiment::cli_usage().c_str(), stdout);
      return 0;
    }
  }

  experiment::ConfigResolution resolution;
  try {
    resolution = experiment::resolve_config(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n\n%s", e.what(), experiment::cli_usage().c_str());
    return 2;
  }
  const experiment::CliOptions& opt = resolution.options;

  if (opt.dump_params_md) {
    std::fputs(experiment::ParamRegistry::instance().params_markdown().c_str(), stdout);
    return 0;
  }
  if (opt.dump_config) {
    std::fputs(experiment::ParamRegistry::instance().dump_scenario(resolution).c_str(),
               stdout);
    return 0;
  }

  const int jobs = opt.jobs > 0 ? opt.jobs : experiment::default_jobs();
  // The trace files are exporters over replication 0, which traces inside
  // the sweep; tracing changes no result.
  experiment::SimulationConfig config = opt.config;
  config.trace_enabled = !opt.trace_path.empty() || !opt.decisions_path.empty() ||
                         !opt.chrome_trace_path.empty();

  // One sweep point (config × replications) through the parallel executor;
  // replications fan across workers with output identical to --jobs=1.
  experiment::ParallelExecutor executor(jobs);
  experiment::Sweep sweep;
  sweep.add(config, opt.replications, opt.config.policy);
  experiment::SweepResult swept = sweep.run(executor);
  std::fprintf(stderr, "%d replications in %.2f s wall (%.2f s of runs, %d jobs)\n",
               opt.replications, swept.wall_seconds, swept.point_cpu_seconds.front(),
               swept.jobs);
  const experiment::ReplicatedResult rep = std::move(swept.points.front());
  const experiment::RunResult& first = rep.runs.front();
  std::uint64_t helper_chunks = 0;
  std::uint64_t loop_chunks = 0;
  for (const experiment::RunResult& r : rep.runs) {
    helper_chunks += r.profile.helper_chunks;
    loop_chunks += r.profile.loop_chunks;
  }
  if (helper_chunks + loop_chunks > 0) {
    std::fprintf(stderr, "service-time logs: %llu chunks drawn ahead, %llu by the event loop\n",
                 static_cast<unsigned long long>(helper_chunks),
                 static_cast<unsigned long long>(loop_chunks));
  }

  if (first.trace) {
    // Every file is built before any is written: a view that throws
    // writes nothing.
    try {
      const obs::EventTracer& tracer = *first.trace;
      std::vector<std::pair<std::string, std::string>> files;  // (path, content)
      if (!opt.trace_path.empty()) {
        files.emplace_back(opt.trace_path, tracer.to_utilization_csv());
      }
      if (!opt.decisions_path.empty()) {
        files.emplace_back(opt.decisions_path, tracer.to_decisions_csv());
      }
      if (!opt.chrome_trace_path.empty()) {
        files.emplace_back(opt.chrome_trace_path, tracer.to_chrome_json());
      }
      for (const auto& [path, content] : files) {
        obs::EventTracer::write_file(path, content);
        std::fprintf(stderr, "wrote %s\n", path.c_str());
      }
      std::fprintf(stderr, "trace of replication 0: %llu records (%llu dropped)\n",
                   static_cast<unsigned long long>(tracer.total_recorded()),
                   static_cast<unsigned long long>(tracer.dropped()));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 2;
    }
  }

  if (opt.json) {
    std::printf("%s\n",
                experiment::to_json(opt.config, rep, resolution.provenance).c_str());
    return 0;
  }

  // A multi-slice run does not compute the max-utilization statistics.
  const bool queueing = experiment::reports_queueing(opt.config);
  experiment::TableReport summary({"metric", "value", "+/-95%CI"});
  using R = experiment::TableReport;
  auto add = [&](const char* name, sim::MeanCi ci, int prec = 3, bool computed = true) {
    if (computed) {
      summary.add_row({name, R::fmt(ci.mean, prec), R::fmt(ci.halfwidth, prec)});
    } else {
      summary.add_row({name, "n/a", "n/a"});
    }
  };
  add("P(maxUtil<0.90)", rep.prob_below(0.90), 3, queueing);
  add("P(maxUtil<0.98)", rep.prob_below(0.98), 3, queueing);
  add("mean max utilization", rep.ci([](const auto& r) { return r.mean_max_utilization; }), 3,
      queueing);
  add("aggregate utilization", rep.aggregate_utilization());
  add("address requests/s", rep.address_request_rate(), 4);
  add("DNS-controlled fraction",
      rep.ci([](const auto& r) { return r.dns_controlled_fraction; }), 4);
  add("mean TTL handed out (s)", rep.ci([](const auto& r) { return r.mean_ttl; }), 1);
  add("within-run CI (frac of mean)",
      rep.ci([](const auto& r) { return r.max_util_ci_relative; }), 4, queueing);

  if (opt.csv) {
    summary.print_csv();
  } else {
    std::printf("policy %s on %d servers (%.0f%% heterogeneity), %d domains, %d clients\n",
                opt.config.policy.c_str(), opt.config.cluster.size(),
                opt.config.cluster.heterogeneity_percent(), opt.config.num_domains,
                opt.config.scaled().total_clients);
    summary.print("scenario result (" + std::to_string(opt.replications) + " replications)");
    std::printf("per-server mean utilization:");
    for (double u : first.mean_server_util) std::printf(" %.3f", u);
    std::printf("\n");
  }

  if (opt.show_cdf && !queueing) {
    if (!opt.csv) std::printf("max-utilization CDF: n/a (sharded run)\n");
  } else if (opt.show_cdf) {
    experiment::TableReport cdf({"maxUtil", "P(maxUtil<x)"});
    for (const auto& [u, p] : rep.mean_cdf_curve(50)) {
      cdf.add_row({R::fmt(u, 2), R::fmt(p, 4)});
    }
    if (opt.csv) {
      cdf.print_csv();
    } else {
      cdf.print("max-utilization CDF");
    }
  }
  return 0;
}
