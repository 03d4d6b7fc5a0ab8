// Golden-value determinism regression for the event kernel.
//
// The kernel rewrite contract (ISSUE 2) is bit-identical dispatch: for a
// fixed seed and policy, RunResult must not change when the queue's
// internals change (binary swap-heap -> 4-ary hole-sift indexed heap,
// std::function -> InlineCallback, unbounded slot map -> recycled slot
// table). These constants were captured from the pre-rewrite kernel
// (commit fc21bd6) and pin one RR and one DRR2 run; any future kernel
// optimization must keep reproducing them exactly.
//
// The last two runs cover the paths the first two never reach: server-side
// redirection (the dispatcher's delayed hand-offs) and a server crash (the
// only caller of cancel()). They were captured from the kernel that still
// sifted every pop and successor separately (commit db9a852). Their peak
// and live event gauges are one below that capture's, which counted a
// pending monitor event: monitor ticks are not kernel events
// (events_dispatched counts them).
#include <gtest/gtest.h>

#include "experiment/site.h"
#include "obs/metrics.h"

namespace adattl::experiment {
namespace {

SimulationConfig golden_config(const char* policy) {
  SimulationConfig cfg;
  cfg.policy = policy;
  cfg.warmup_sec = 60.0;
  cfg.duration_sec = 600.0;
  cfg.seed = 20260806;
  return cfg;
}

TEST(KernelGolden, RoundRobinRunIsBitIdenticalToPreRewriteKernel) {
  Site site(golden_config("RR"));
  const RunResult r = site.run();
  EXPECT_EQ(r.events_dispatched, 40430u);
  EXPECT_EQ(r.total_pages, 20194u);
  EXPECT_EQ(r.total_hits, 201262u);
  EXPECT_EQ(r.authoritative_queries, 60u);
  EXPECT_EQ(r.ns_cache_hits, 1399u);
  EXPECT_EQ(r.alarm_signals, 41u);
  EXPECT_DOUBLE_EQ(r.mean_max_utilization, 0.96467028188235426);
  EXPECT_DOUBLE_EQ(r.prob_below_090, 0.16);
  EXPECT_DOUBLE_EQ(r.prob_below_098, 0.28000000000000003);
  EXPECT_DOUBLE_EQ(r.mean_page_response_sec, 1.537996095555235);
  EXPECT_DOUBLE_EQ(r.response_p95_sec, 8.6500000000000004);
  EXPECT_DOUBLE_EQ(r.mean_ttl, 240.0);
  EXPECT_DOUBLE_EQ(r.aggregate_utilization, 0.6113549537858185);
}

TEST(KernelGolden, Drr2RunIsBitIdenticalToPreRewriteKernel) {
  Site site(golden_config("DRR2-TTL/S_K"));
  const RunResult r = site.run();
  EXPECT_EQ(r.events_dispatched, 42450u);
  EXPECT_EQ(r.total_pages, 21189u);
  EXPECT_EQ(r.total_hits, 211356u);
  EXPECT_EQ(r.authoritative_queries, 61u);
  EXPECT_EQ(r.ns_cache_hits, 1441u);
  EXPECT_EQ(r.alarm_signals, 32u);
  EXPECT_DOUBLE_EQ(r.mean_max_utilization, 0.89479290988804616);
  EXPECT_DOUBLE_EQ(r.prob_below_090, 0.49333333333333335);
  EXPECT_DOUBLE_EQ(r.prob_below_098, 0.62666666666666671);
  EXPECT_DOUBLE_EQ(r.mean_page_response_sec, 0.73960554196617245);
  EXPECT_DOUBLE_EQ(r.response_p95_sec, 3.96);
  EXPECT_DOUBLE_EQ(r.mean_ttl, 273.75661673964083);
  EXPECT_DOUBLE_EQ(r.aggregate_utilization, 0.6435553950469981);
}

double gauge(const RunResult& r, const char* name) {
  const obs::MetricsSnapshot::Metric* m = r.metrics ? r.metrics->find(name) : nullptr;
  return m ? m->value : -1.0;
}

TEST(KernelGolden, RedirectingRoundRobinRunIsBitIdentical) {
  SimulationConfig cfg = golden_config("RR");
  cfg.redirect_enabled = true;
  cfg.redirect_max_wait_sec = 1.0;
  cfg.metrics_enabled = true;
  Site site(cfg);
  const RunResult r = site.run();
  EXPECT_EQ(r.events_dispatched, 45403u);
  EXPECT_EQ(r.total_pages, 21597u);
  EXPECT_EQ(r.total_hits, 215521u);
  EXPECT_EQ(r.redirected_pages, 2137u);
  EXPECT_EQ(r.authoritative_queries, 60u);
  EXPECT_EQ(r.ns_cache_hits, 1462u);
  EXPECT_EQ(r.alarm_signals, 59u);
  EXPECT_DOUBLE_EQ(r.mean_max_utilization, 0.99197723754700506);
  EXPECT_DOUBLE_EQ(r.prob_below_090, 0.0);
  EXPECT_DOUBLE_EQ(r.prob_below_098, 0.16);
  EXPECT_DOUBLE_EQ(r.mean_page_response_sec, 0.45330050039991449);
  EXPECT_DOUBLE_EQ(r.response_p95_sec, 1.1399999999999999);
  EXPECT_DOUBLE_EQ(r.mean_ttl, 240.0);
  EXPECT_DOUBLE_EQ(r.aggregate_utilization, 0.64883185698919754);
  EXPECT_DOUBLE_EQ(gauge(r, "kernel.peak_events"), 500.0);
  EXPECT_DOUBLE_EQ(gauge(r, "kernel.live_events_at_end"), 495.0);
}

TEST(KernelGolden, CrashingDrr2RunIsBitIdentical) {
  SimulationConfig cfg = golden_config("DRR2-TTL/S_K");
  cfg.faults.crashes.push_back({200.0, 150.0, 0});
  cfg.faults.crashes.push_back({450.0, 60.0, 2});
  cfg.metrics_enabled = true;
  Site site(cfg);
  const RunResult r = site.run();
  EXPECT_EQ(r.events_dispatched, 46326u);
  EXPECT_EQ(r.total_pages, 20632u);
  EXPECT_EQ(r.total_hits, 205742u);
  EXPECT_EQ(r.failed_requests, 4982u);
  EXPECT_EQ(r.lost_pages, 26u);
  EXPECT_EQ(r.lost_hits, 265u);
  EXPECT_EQ(r.authoritative_queries, 62u);
  EXPECT_EQ(r.ns_cache_hits, 6391u);
  EXPECT_EQ(r.alarm_signals, 68u);
  EXPECT_DOUBLE_EQ(r.mean_max_utilization, 0.96467738449052653);
  EXPECT_DOUBLE_EQ(r.prob_below_090, 0.13333333333333333);
  EXPECT_DOUBLE_EQ(r.prob_below_098, 0.34666666666666668);
  EXPECT_DOUBLE_EQ(r.mean_page_response_sec, 0.91213715572676302);
  EXPECT_DOUBLE_EQ(r.response_p95_sec, 4.9000000000000004);
  EXPECT_DOUBLE_EQ(r.mean_ttl, 271.10903886678216);
  EXPECT_DOUBLE_EQ(r.aggregate_utilization, 0.62420595977952165);
  EXPECT_DOUBLE_EQ(r.unavailability_fraction, 0.19450300616850161);
  EXPECT_DOUBLE_EQ(gauge(r, "kernel.cancels"), 2.0);
  EXPECT_DOUBLE_EQ(gauge(r, "kernel.peak_events"), 504.0);
  EXPECT_DOUBLE_EQ(gauge(r, "kernel.live_events_at_end"), 498.0);
}

}  // namespace
}  // namespace adattl::experiment
