#pragma once

// Conservation laws of one full Site or ShardedSite run — the single place
// the invariant logic lives. Both the randomized property suites and the
// fixed representative-policy cases (migrated from test_properties.cpp)
// call this checker, so a law added here is enforced everywhere at once.
//
// The laws are fault-aware: they hold verbatim for crash/pause/degrade
// schedules and authoritative-DNS outages, because every counter involved
// is conserved by construction (a page is served, lost, rejected, or
// still queued — never two of those).

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "experiment/site_slice.h"

namespace adattl::proptest {

/// Asserts every cross-layer conservation law on a finished run, given the
/// slices that produced `r` (the checker reads the live object graph:
/// scheduler tallies, per-server counters, per-NS cache counters). Each
/// slice is a closed sub-site for its domains, so the per-slice laws
/// compose additively; a serial Site is the one-slice case.
inline void check_slices_conservation(const experiment::SimulationConfig& cfg,
                                      const experiment::SliceSet& slices,
                                      const experiment::RunResult& r) {
  const double horizon = cfg.warmup_sec + cfg.duration_sec;

  std::uint64_t decisions = 0;
  std::uint64_t assigned = 0;
  std::uint64_t ns_auth = 0;
  std::uint64_t ns_hits = 0;
  std::uint64_t ns_stale = 0;
  std::uint64_t ns_failed = 0;
  std::uint64_t served_pages = 0;
  std::uint64_t served_hits = 0;
  std::uint64_t queued_pages = 0;
  std::uint64_t lifetime_hits = 0;
  std::uint64_t lost_pages = 0;
  std::uint64_t lost_hits = 0;
  std::uint64_t rejected_pages = 0;
  std::vector<int> owners(static_cast<std::size_t>(cfg.num_domains), 0);
  for (int i = 0; i < slices.size(); ++i) {
    const experiment::SiteSlice& slice = slices[i];
    for (int d : slice.domains) owners.at(static_cast<std::size_t>(d))++;
    decisions += slice.bundle.scheduler->decisions();
    for (std::uint64_t a : slice.bundle.scheduler->assignments()) assigned += a;
    for (const auto& ns : slice.name_servers) {
      ns_auth += ns->authoritative_queries();
      ns_hits += ns->cache_hits();
      ns_stale += ns->stale_serves();
      ns_failed += ns->failed_queries();
    }
    for (int s = 0; s < slice.cluster->size(); ++s) {
      const web::WebServer& sv = slice.cluster->server(s);
      served_pages += sv.pages_served();
      served_hits += sv.hits_served();
      queued_pages += sv.queue_length();
      lost_pages += sv.lost_pages();
      lost_hits += sv.lost_hits();
      rejected_pages += sv.rejected_pages();
      const auto& per_domain = sv.lifetime_domain_hits();
      lifetime_hits = std::accumulate(per_domain.begin(), per_domain.end(), lifetime_hits);
    }
  }
  // The slices own every domain exactly once.
  for (int count : owners) EXPECT_EQ(count, 1);

  // ---- Per-domain pages: each domain's latency histogram is read from its
  // owning slice, so the per-domain counts add up to the run's pages, short
  // only of the pages still in flight at the horizon (at most one per
  // client). A lookup on a slice that does not own the domain reads an
  // empty histogram and breaks the lower bound. ----
  EXPECT_EQ(r.domain_latency.size(), static_cast<std::size_t>(cfg.num_domains));
  std::uint64_t domain_pages = 0;
  for (const auto& dl : r.domain_latency) domain_pages += dl.pages;
  EXPECT_LE(domain_pages, r.total_pages);
  EXPECT_LE(r.total_pages, domain_pages + static_cast<std::uint64_t>(cfg.total_clients));

  // ---- DNS decision conservation: every authoritative query is exactly
  // one scheduler decision, and per-server assignments partition them ----
  EXPECT_EQ(r.authoritative_queries, decisions);
  EXPECT_EQ(assigned, decisions);
  EXPECT_EQ(ns_auth, r.authoritative_queries);
  EXPECT_EQ(ns_hits, r.ns_cache_hits);

  // ---- Page/hit conservation across the cluster replicas ----
  EXPECT_EQ(r.lost_pages, lost_pages);
  EXPECT_EQ(r.lost_hits, lost_hits);
  EXPECT_EQ(r.total_hits, served_hits);

  // Crash accounting: everything a server accepted was served, lost to a
  // crash, or is still queued at the horizon. Hits are tallied at
  // submission, so the lifetime counters decompose the same way; queued
  // pages carry >= 1 hit each, and exactly 0 hits remain unaccounted when
  // the queues drained.
  EXPECT_GE(lifetime_hits, served_hits + lost_hits + queued_pages);
  if (queued_pages == 0) {
    EXPECT_EQ(lifetime_hits, served_hits + lost_hits);
  }

  // Attempt conservation: each requested page is one attempt, each failure
  // (lost or rejected) spawns at most one retry attempt. Every attempt is
  // either dispatched to some server (accepted or rejected) or still in
  // limbo — in network flight or awaiting its retry — and each client has
  // at most one page in progress, bounding the limbo by the population.
  const std::uint64_t accepted = served_pages + lost_pages + queued_pages;
  const std::uint64_t attempts = r.total_pages + r.failed_requests;
  EXPECT_LE(accepted + rejected_pages, attempts);
  EXPECT_LE(attempts - accepted - rejected_pages,
            static_cast<std::uint64_t>(cfg.total_clients));

  // ---- Failure accounting identities ----
  EXPECT_EQ(r.failed_requests, lost_pages + rejected_pages);
  const double attempts_d = static_cast<double>(attempts);
  EXPECT_NEAR(r.unavailability_fraction,
              attempts > 0 ? static_cast<double>(r.failed_requests) / attempts_d : 0.0, 1e-12);

  // ---- Physical bounds (a sharded barrier clamps merged utilization at 1) ----
  for (double u : r.mean_server_util) {
    EXPECT_GE(u, 0.0);
    EXPECT_LE(u, 1.0 + 1e-9);
  }
  EXPECT_GE(r.prob_below_090, 0.0);
  EXPECT_LE(r.prob_below_098, 1.0);
  EXPECT_LE(r.prob_below_090, r.prob_below_098 + 1e-12);
  EXPECT_GE(r.dns_outage_sec, 0.0);
  EXPECT_LE(r.dns_outage_sec, horizon + 1e-9);
  if (r.authoritative_queries > 0) {
    EXPECT_GT(r.mean_ttl, 0.0);
  }
  EXPECT_GE(r.mean_page_response_sec, 0.0);

  // ---- The metrics snapshot reports the same counters ----
  if (r.metrics) {
    const auto value = [&r](const std::string& name) {
      const obs::MetricsSnapshot::Metric* m = r.metrics->find(name);
      EXPECT_NE(m, nullptr) << name;
      return m ? m->value : -1.0;
    };
    const auto sum_over_servers = [&](const char* suffix) {
      double sum = 0.0;
      for (int s = 0; s < cfg.cluster.size(); ++s) {
        sum += value("server." + std::to_string(s) + "." + suffix);
      }
      return sum;
    };
    const auto count_of = [&r](const std::string& name) {
      const obs::MetricsSnapshot::Metric* m = r.metrics->find(name);
      EXPECT_NE(m, nullptr) << name;
      return m ? m->count : ~std::uint64_t{0};
    };
    EXPECT_EQ(value("scheduler.decisions"), static_cast<double>(decisions));
    EXPECT_EQ(value("ns.cache_hits"), static_cast<double>(ns_hits));
    EXPECT_EQ(value("ns.authoritative_queries"), static_cast<double>(ns_auth));
    EXPECT_EQ(value("ns.stale_serves"), static_cast<double>(ns_stale));
    EXPECT_EQ(value("ns.failed_queries"), static_cast<double>(ns_failed));
    EXPECT_EQ(sum_over_servers("pages_completed"), static_cast<double>(served_pages));
    EXPECT_EQ(sum_over_servers("hits_completed"), static_cast<double>(served_hits));
    EXPECT_EQ(sum_over_servers("lost_pages"), static_cast<double>(lost_pages));
    EXPECT_EQ(sum_over_servers("lost_hits"), static_cast<double>(lost_hits));
    EXPECT_EQ(value("site.failed_requests"), static_cast<double>(lost_pages + rejected_pages));
    EXPECT_EQ(count_of("scheduler.ttl_sec"), decisions);
    EXPECT_EQ(count_of("ns.effective_ttl_sec"), ns_auth);
  }
}

}  // namespace adattl::proptest
