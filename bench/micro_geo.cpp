// Geography ablation, three parts in one JSON document on stdout
// (tools/run_benches.py keeps it as BENCH_geo.json):
//
//   * rtt_lookup — the GeoModel::rtt hot path (flat row-major vector,
//     unchecked indexing) timed against a bounds-checked reference
//     implementation of the same lookup, ns per call;
//   * frontier   — the utilization-vs-latency trade-off: GEO (pure
//     proximity), RR2 (pure load) and the COST(alpha) composite swept
//     across alpha, each a full simulated run reporting peak utilization
//     and the RTT of the assignments the DNS actually handed out;
//   * autoscale  — an elastic run (watermark autoscaler + a flash crowd)
//     checked for conservation: drained servers finish their queues, so
//     nothing is lost and the pool must have actually moved.
//
// The "summary" section asserts the composite objective's reason to
// exist: some alpha strictly beats pure GEO on peak utilization while
// strictly beating pure RR2 on mean assignment RTT.
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "experiment/config.h"
#include "experiment/site.h"
#include "geo/geo_model.h"
#include "web/cluster.h"

namespace {

using adattl::experiment::RunResult;
using adattl::experiment::SimulationConfig;
using adattl::experiment::Site;
using adattl::geo::GeoModel;

// ------------------------------------------------------------ rtt lookup

/// The pre-refactor lookup: nested-vector semantics emulated with range
/// checks on every call. Kept here as the timing baseline.
double checked_rtt(const std::vector<std::vector<double>>& rtt, int domain, int server) {
  if (domain < 0 || static_cast<std::size_t>(domain) >= rtt.size()) {
    throw std::out_of_range("rtt: domain");
  }
  const std::vector<double>& row = rtt[static_cast<std::size_t>(domain)];
  if (server < 0 || static_cast<std::size_t>(server) >= row.size()) {
    throw std::out_of_range("rtt: server");
  }
  return row[static_cast<std::size_t>(server)];
}

struct LookupTiming {
  double flat_ns = 0.0;
  double checked_ns = 0.0;
  double checksum = 0.0;  // defeats dead-code elimination
};

LookupTiming time_rtt_lookups() {
  constexpr int kDomains = 512;
  constexpr int kServers = 32;
  constexpr int kSweeps = 400;
  const GeoModel model = GeoModel::regions(kDomains, kServers, 5, 0.02, 0.15);
  std::vector<std::vector<double>> nested(kDomains, std::vector<double>(kServers));
  for (int d = 0; d < kDomains; ++d) {
    for (int s = 0; s < kServers; ++s) {
      nested[static_cast<std::size_t>(d)][static_cast<std::size_t>(s)] = model.rtt(d, s);
    }
  }
  const double calls = static_cast<double>(kSweeps) * kDomains * kServers;

  LookupTiming t;
  auto start = std::chrono::steady_clock::now();
  for (int r = 0; r < kSweeps; ++r) {
    for (int d = 0; d < kDomains; ++d) {
      for (int s = 0; s < kServers; ++s) t.checksum += model.rtt(d, s);
    }
  }
  auto mid = std::chrono::steady_clock::now();
  for (int r = 0; r < kSweeps; ++r) {
    for (int d = 0; d < kDomains; ++d) {
      for (int s = 0; s < kServers; ++s) t.checksum += checked_rtt(nested, d, s);
    }
  }
  auto end = std::chrono::steady_clock::now();
  t.flat_ns = std::chrono::duration<double, std::nano>(mid - start).count() / calls;
  t.checked_ns = std::chrono::duration<double, std::nano>(end - mid).count() / calls;
  return t;
}

// -------------------------------------------------------------- frontier

struct FrontierPoint {
  std::string policy;
  double mean_max_utilization = 0.0;
  double mean_assignment_rtt_sec = 0.0;
  double mean_page_response_sec = 0.0;
};

FrontierPoint run_policy(const std::string& policy) {
  SimulationConfig c;
  c.cluster = adattl::web::table2_cluster(35);
  c.policy = policy;
  c.geo_regions = 3;
  c.warmup_sec = 200.0;
  c.duration_sec = 3600.0;
  c.seed = 97;
  const RunResult r = Site(c).run();
  FrontierPoint p;
  p.policy = policy;
  p.mean_max_utilization = r.mean_max_utilization;
  p.mean_assignment_rtt_sec = r.mean_assignment_rtt_sec;
  p.mean_page_response_sec = r.mean_page_response_sec;
  return p;
}

// ------------------------------------------------------------- autoscale

struct ElasticResult {
  std::uint64_t pool_changes = 0;
  std::uint64_t autoscale_ups = 0;
  std::uint64_t autoscale_downs = 0;
  std::uint64_t lost_pages = 0;
  std::uint64_t failed_requests = 0;
  int final_pool_size = 0;
};

ElasticResult run_autoscale() {
  SimulationConfig c;
  c.cluster = adattl::web::table2_cluster(35);
  c.policy = "DRR2-TTL/S_K";
  c.total_clients = 200;
  c.warmup_sec = 200.0;
  c.duration_sec = 9600.0;
  c.seed = 97;
  c.autoscale_enabled = true;
  c.autoscale_high_watermark = 0.60;
  c.autoscale_low_watermark = 0.30;
  c.autoscale_hysteresis_ticks = 3;
  c.autoscale_min_servers = 2;
  c.rate_shifts.push_back({5000.0, 0, 4.0});
  const RunResult r = Site(c).run();
  ElasticResult e;
  e.pool_changes = r.pool_changes;
  e.autoscale_ups = r.autoscale_ups;
  e.autoscale_downs = r.autoscale_downs;
  e.lost_pages = r.lost_pages;
  e.failed_requests = r.failed_requests;
  e.final_pool_size = r.final_pool_size;
  return e;
}

}  // namespace

int main() {
  const LookupTiming timing = time_rtt_lookups();

  const std::vector<std::string> policies = {
      "GEO-TTL/K",        "RR2",
      "COST(0)-TTL/K",    "COST(0.25)-TTL/K", "COST(0.5)-TTL/K",
      "COST(0.75)-TTL/K", "COST(1)-TTL/K",
  };
  std::vector<FrontierPoint> frontier;
  frontier.reserve(policies.size());
  for (const std::string& p : policies) frontier.push_back(run_policy(p));

  const FrontierPoint& geo = frontier[0];
  const FrontierPoint& rr2 = frontier[1];
  bool dominates = false;
  for (std::size_t i = 2; i < frontier.size(); ++i) {
    if (frontier[i].mean_max_utilization < geo.mean_max_utilization &&
        frontier[i].mean_assignment_rtt_sec < rr2.mean_assignment_rtt_sec) {
      dominates = true;
    }
  }

  const ElasticResult elastic = run_autoscale();
  const bool conserves = elastic.lost_pages == 0 && elastic.failed_requests == 0;
  const bool pool_moved = elastic.pool_changes > 0;

  std::printf("{\n");
  std::printf("  \"rtt_lookup\": {\"flat_ns_per_call\": %.3f, \"checked_ns_per_call\": %.3f,"
              " \"checksum\": %.6g},\n",
              timing.flat_ns, timing.checked_ns, timing.checksum);
  std::printf("  \"frontier\": [\n");
  for (std::size_t i = 0; i < frontier.size(); ++i) {
    const FrontierPoint& p = frontier[i];
    std::printf("    {\"policy\": \"%s\", \"mean_max_utilization\": %.6f,"
                " \"mean_assignment_rtt_sec\": %.6f, \"mean_page_response_sec\": %.6f}%s\n",
                p.policy.c_str(), p.mean_max_utilization, p.mean_assignment_rtt_sec,
                p.mean_page_response_sec, i + 1 < frontier.size() ? "," : "");
  }
  std::printf("  ],\n");
  std::printf("  \"autoscale\": {\"pool_changes\": %llu, \"autoscale_ups\": %llu,"
              " \"autoscale_downs\": %llu, \"lost_pages\": %llu, \"failed_requests\": %llu,"
              " \"final_pool_size\": %d},\n",
              static_cast<unsigned long long>(elastic.pool_changes),
              static_cast<unsigned long long>(elastic.autoscale_ups),
              static_cast<unsigned long long>(elastic.autoscale_downs),
              static_cast<unsigned long long>(elastic.lost_pages),
              static_cast<unsigned long long>(elastic.failed_requests),
              elastic.final_pool_size);
  std::printf("  \"summary\": {\"cost_dominates_geo_and_rr2\": %s,"
              " \"autoscale_conserves_work\": %s, \"autoscale_pool_moved\": %s}\n",
              dominates ? "true" : "false", conserves ? "true" : "false",
              pool_moved ? "true" : "false");
  std::printf("}\n");

  return (dominates && conserves && pool_moved) ? 0 : 1;
}
