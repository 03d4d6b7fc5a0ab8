// Failure-injection suite: silent server stalls, hard crashes, capacity
// degradations and authoritative-DNS outages, queue-threshold alarms, and
// their end-to-end interaction with the DNS feedback loop.
#include <gtest/gtest.h>

#include "experiment/cli.h"
#include "experiment/site.h"
#include "page_recorder.h"
#include "sim/random.h"

namespace adattl {
namespace {

TEST(WebServerPause, PausedServerQueuesWithoutServing) {
  sim::Simulator simulator;
  sim::RngStream rng(1);
  web::WebServer s(simulator, 0, 100.0, 1, rng.split());
  s.set_paused(true);
  web::PageRecorder client;
  for (int i = 0; i < 5; ++i) s.submit_page(client.page(0, 10));
  simulator.run_until(100.0);
  EXPECT_EQ(client.done.size(), 0u);
  EXPECT_EQ(s.queue_length(), 5u);
  EXPECT_DOUBLE_EQ(s.cumulative_busy_time(simulator.now()), 0.0);
}

TEST(WebServerPause, ResumeDrainsBacklog) {
  sim::Simulator simulator;
  sim::RngStream rng(2);
  web::WebServer s(simulator, 0, 100.0, 1, rng.split());
  s.set_paused(true);
  web::PageRecorder client;
  for (int i = 0; i < 5; ++i) s.submit_page(client.page(0, 10));
  simulator.run_until(50.0);
  s.set_paused(false);
  simulator.run();
  EXPECT_EQ(client.done.size(), 5u);
  EXPECT_EQ(s.queue_length(), 0u);
}

TEST(WebServerPause, InFlightPageFinishesDuringPause) {
  sim::Simulator simulator;
  sim::RngStream rng(3);
  web::WebServer s(simulator, 0, 100.0, 1, rng.split());
  web::PageRecorder client;
  s.submit_page(client.page(0, 10));  // starts service
  s.submit_page(client.page(0, 10));  // queued
  s.set_paused(true);
  simulator.run_until(100.0);
  EXPECT_EQ(client.done.size(), 1u);  // the in-flight page completed, the queued one did not
  EXPECT_EQ(s.queue_length(), 1u);
}

TEST(QueueAlarm, UtilizationOnlyFeedbackMissesStalledServer) {
  core::AlarmRegistry reg(2, 0.9);  // paper-faithful: no queue threshold
  reg.observe_full(8.0, {0.05, 0.5}, {500, 2});
  EXPECT_FALSE(reg.is_alarmed(0));  // huge backlog, but utilization is low
}

TEST(QueueAlarm, QueueThresholdCatchesStalledServer) {
  core::AlarmRegistry reg(2, 0.9, true, /*queue_threshold=*/50);
  reg.observe_full(8.0, {0.05, 0.5}, {500, 2});
  EXPECT_TRUE(reg.is_alarmed(0));
  EXPECT_FALSE(reg.is_alarmed(1));
  // Backlog drains below the threshold: normal signal.
  reg.observe_full(16.0, {0.8, 0.5}, {10, 2});
  EXPECT_FALSE(reg.is_alarmed(0));
  EXPECT_EQ(reg.normal_signals(), 1u);
}

TEST(QueueAlarm, QueueVectorSizeValidated) {
  core::AlarmRegistry reg(2, 0.9, true, 50);
  EXPECT_THROW(reg.observe_full(8.0, {0.5, 0.5}, {1}), std::invalid_argument);
  EXPECT_NO_THROW(reg.observe_full(8.0, {0.5, 0.5}, {}));  // queues optional
}

experiment::SimulationConfig outage_config() {
  experiment::SimulationConfig cfg;
  cfg.cluster = web::table2_cluster(20);
  cfg.policy = "DRR2-TTL/S_K";
  cfg.warmup_sec = 100.0;
  cfg.duration_sec = 2000.0;
  cfg.seed = 55;
  // Server 2 silently stalls for 10 minutes mid-run.
  cfg.faults.pauses.push_back({600.0, 600.0, 2});
  return cfg;
}

TEST(OutageIntegration, OutageDegradesResponseTimes) {
  experiment::SimulationConfig healthy = outage_config();
  healthy.faults.pauses.clear();
  const experiment::RunResult base = experiment::Site(healthy).run();
  const experiment::RunResult hit = experiment::Site(outage_config()).run();
  // The workload is closed-loop, so only the clients mapped to the stalled
  // server get trapped — few pages, but each waits up to 10 minutes. That
  // inflates the *mean* dramatically while p99 moves only modestly.
  EXPECT_GT(hit.mean_page_response_sec, 2.0 * base.mean_page_response_sec);
  EXPECT_GE(hit.response_p99_sec, base.response_p99_sec);
}

TEST(OutageIntegration, QueueAlarmLimitsTheDamage) {
  const experiment::RunResult blind = experiment::Site(outage_config()).run();
  experiment::SimulationConfig cfg = outage_config();
  cfg.alarm_queue_threshold = 30;
  const experiment::RunResult guarded = experiment::Site(cfg).run();
  // With backlog-based exclusion, new mappings steer around the stalled
  // server, so far fewer pages get trapped behind it.
  EXPECT_LT(guarded.response_p99_sec, blind.response_p99_sec);
  EXPECT_LT(guarded.mean_page_response_sec, blind.mean_page_response_sec);
}

TEST(OutageIntegration, ServerRecoversAfterOutage) {
  experiment::Site site(outage_config());
  const experiment::RunResult r = site.run();
  // After recovery the server drained its queue and kept serving.
  EXPECT_FALSE(site.cluster().server(2).paused());
  EXPECT_GT(site.cluster().server(2).pages_served(), 0u);
  EXPECT_GT(r.total_hits, 0u);
}

TEST(OutageConfig, Validation) {
  experiment::SimulationConfig cfg;
  cfg.faults.pauses.push_back({-1.0, 10.0, 0});
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.faults.pauses = {{10.0, 0.0, 0}};
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.faults.pauses = {{10.0, 5.0, 99}};
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.faults.pauses = {{10.0, 5.0, 3}};
  EXPECT_NO_THROW(cfg.validate());
}

// --- Crash / degrade / DNS-outage integration ------------------------------

experiment::SimulationConfig crash_config() {
  experiment::SimulationConfig cfg;
  cfg.cluster = web::table2_cluster(20);
  cfg.policy = "DRR2-TTL/S_K";
  cfg.warmup_sec = 100.0;
  cfg.duration_sec = 2000.0;
  cfg.seed = 77;
  // Server 2 crashes hard for 10 minutes mid-run.
  cfg.faults.crashes.push_back({600.0, 600.0, 2});
  return cfg;
}

TEST(CrashIntegration, CrashLosesWorkAndClientsFeelIt) {
  experiment::SimulationConfig healthy = crash_config();
  healthy.faults.crashes.clear();
  const experiment::RunResult base = experiment::Site(healthy).run();
  const experiment::RunResult hit = experiment::Site(crash_config()).run();
  // A crash is visible: submissions bounce until cached mappings expire,
  // so clients record failed requests the fault-free run cannot have.
  EXPECT_EQ(base.failed_requests, 0u);
  EXPECT_EQ(base.lost_pages, 0u);
  EXPECT_GT(hit.failed_requests, 0u);
  EXPECT_GE(hit.failed_requests, hit.lost_pages);
  EXPECT_GT(hit.unavailability_fraction, 0.0);
  EXPECT_LT(hit.unavailability_fraction, 1.0);
  EXPECT_DOUBLE_EQ(base.unavailability_fraction, 0.0);
}

TEST(CrashIntegration, ServerRecoversAndServesAgain) {
  experiment::Site site(crash_config());
  const experiment::RunResult r = site.run();
  EXPECT_FALSE(site.cluster().server(2).crashed());
  EXPECT_GT(site.cluster().server(2).pages_served(), 0u);
  EXPECT_GT(r.total_hits, 0u);
}

TEST(CrashIntegration, DnsExcludesCrashedServerAndReadmitsIt) {
  // Probe the scheduler's assignment counters from inside the run: during
  // the crash window no new mappings may target server 2 (set_down excludes
  // it regardless of alarm state); after recovery it must win mappings
  // again (it restarts empty, so the deterministic policy favors it).
  experiment::Site site(crash_config());
  std::uint64_t during_start = 0, during_end = 0;
  site.simulator().at(650.0, [&] { during_start = site.scheduler().assignments()[2]; });
  site.simulator().at(1199.0, [&] { during_end = site.scheduler().assignments()[2]; });
  site.run();
  EXPECT_EQ(during_start, during_end);  // not one mapping while down
  EXPECT_GT(site.scheduler().assignments()[2], during_end);  // re-admitted
}

TEST(DegradeIntegration, HalvedCapacityRaisesUtilizationOrResponse) {
  experiment::SimulationConfig cfg;
  cfg.cluster = web::table2_cluster(20);
  cfg.policy = "DRR2-TTL/S_K";
  cfg.warmup_sec = 100.0;
  cfg.duration_sec = 1500.0;
  cfg.seed = 99;
  experiment::SimulationConfig slow = cfg;
  slow.faults.degradations.push_back({300.0, 1200.0, 0, 0.4});
  const experiment::RunResult base = experiment::Site(cfg).run();
  const experiment::RunResult hit = experiment::Site(slow).run();
  // Server 0 is the biggest machine; running it at 40% for most of the
  // run must hurt responses — and the DNS was never told (degradations
  // are the blind spot only measurement-based feedback can see).
  EXPECT_GT(hit.mean_page_response_sec, base.mean_page_response_sec);
  EXPECT_EQ(hit.failed_requests, 0u);  // degraded, not failed
}

// --- Elastic pool events ---------------------------------------------------

experiment::SimulationConfig elastic_config() {
  experiment::SimulationConfig cfg;
  cfg.cluster = web::table2_cluster(20);
  cfg.policy = "DRR2-TTL/S_K";
  cfg.warmup_sec = 100.0;
  cfg.duration_sec = 2000.0;
  cfg.seed = 77;
  // Server 2 parked from t = 600 s, re-admitted at t = 1500 s.
  cfg.faults.scale_events.push_back({600.0, 2, false});
  cfg.faults.scale_events.push_back({1500.0, 2, true});
  return cfg;
}

TEST(ElasticIntegration, ScaleDownDrainsWithoutLosingAnything) {
  experiment::Site site(elastic_config());
  std::uint64_t parked_start = 0, parked_end = 0;
  site.simulator().at(650.0, [&] { parked_start = site.scheduler().assignments()[2]; });
  site.simulator().at(1499.0, [&] { parked_end = site.scheduler().assignments()[2]; });
  const experiment::RunResult r = site.run();
  // Not one new mapping while parked — but unlike a crash the server
  // stays up, drains its queue, and keeps serving cached mappings, so
  // clients never notice: conservation is exact.
  EXPECT_EQ(parked_start, parked_end);
  EXPECT_GT(site.scheduler().assignments()[2], parked_end);  // re-admitted
  EXPECT_EQ(r.failed_requests, 0u);
  EXPECT_EQ(r.lost_pages, 0u);
  EXPECT_EQ(r.lost_hits, 0u);
  EXPECT_EQ(r.pool_changes, 2u);
  EXPECT_EQ(r.autoscale_ups, 0u);  // scripted, not autoscaler-initiated
  EXPECT_EQ(r.final_pool_size, site.cluster().size());
  EXPECT_GT(site.cluster().server(2).pages_served(), 0u);
}

TEST(ElasticIntegration, ResizeShrinksCapacityForGood) {
  experiment::SimulationConfig cfg;
  cfg.cluster = web::table2_cluster(20);
  cfg.policy = "DRR2-TTL/S_K";
  cfg.warmup_sec = 100.0;
  cfg.duration_sec = 1500.0;
  cfg.seed = 99;
  experiment::SimulationConfig shrunk = cfg;
  // Unlike a degrade window, a resize has no end: server 0 stays at 40%.
  shrunk.faults.resizes.push_back({300.0, 0, 0.4});
  const experiment::RunResult base = experiment::Site(cfg).run();
  const experiment::RunResult hit = experiment::Site(shrunk).run();
  EXPECT_GT(hit.mean_page_response_sec, base.mean_page_response_sec);
  EXPECT_EQ(hit.failed_requests, 0u);  // slower, never lost
  EXPECT_EQ(hit.lost_pages, 0u);
}

TEST(ChaosIntegration, CrashPlusDnsOutageEndToEnd) {
  experiment::SimulationConfig cfg = crash_config();
  cfg.faults.dns_outages.push_back({700.0, 120.0});
  cfg.faults.degradations.push_back({800.0, 400.0, 1, 0.5});
  cfg.metrics_enabled = true;
  experiment::Site site(cfg);
  const experiment::RunResult r = site.run();
  // Outage accounting: the report carries the scheduled unreachable time.
  EXPECT_DOUBLE_EQ(r.dns_outage_sec, 120.0);
  // During the outage expired NSs stale-serve instead of querying.
  std::uint64_t stale = 0, failed_queries = 0;
  for (int d = 0; d < site.config().num_domains; ++d) {
    stale += site.name_server(d).stale_serves();
    failed_queries += site.name_server(d).failed_queries();
  }
  EXPECT_GT(failed_queries, 0u);
  EXPECT_GT(stale, 0u);
  // The metrics snapshot exposes the failure instruments by name.
  ASSERT_NE(r.metrics, nullptr);
  ASSERT_NE(r.metrics->find("site.failed_requests"), nullptr);
  ASSERT_NE(r.metrics->find("server.2.lost_hits"), nullptr);
  ASSERT_NE(r.metrics->find("ns.stale_serves"), nullptr);
  ASSERT_NE(r.metrics->find("dns.outage_sec"), nullptr);
  EXPECT_DOUBLE_EQ(r.metrics->find("dns.outage_sec")->value, 120.0);
  EXPECT_GT(r.metrics->find("site.failed_requests")->value, 0.0);
  EXPECT_GT(r.metrics->find("fault.events")->value, 0.0);
}

TEST(FaultFreeEquivalence, EmptyScheduleMatchesNoSchedule) {
  // An explicitly empty fault schedule must not perturb the run at all —
  // not an event, not an RNG draw. (The kernel golden tests pin absolute
  // values; this pins the relative contract.)
  experiment::SimulationConfig plain;
  plain.cluster = web::table2_cluster(20);
  plain.policy = "RR";
  plain.warmup_sec = 50.0;
  plain.duration_sec = 800.0;
  plain.seed = 5;
  experiment::SimulationConfig with_empty = plain;
  with_empty.faults.merge(fault::FaultSchedule{});
  const experiment::RunResult a = experiment::Site(plain).run();
  const experiment::RunResult b = experiment::Site(with_empty).run();
  EXPECT_EQ(a.total_pages, b.total_pages);
  EXPECT_EQ(a.total_hits, b.total_hits);
  EXPECT_EQ(a.events_dispatched, b.events_dispatched);
  EXPECT_DOUBLE_EQ(a.mean_page_response_sec, b.mean_page_response_sec);
  EXPECT_DOUBLE_EQ(a.aggregate_utilization, b.aggregate_utilization);
  EXPECT_EQ(a.failed_requests, 0u);
  EXPECT_EQ(b.failed_requests, 0u);
}

TEST(FaultCli, ParsesFaultFlags) {
  const experiment::CliOptions opt = experiment::parse_cli(
      {"--crash=900:600:2", "--degrade=1200:900:1:0.5", "--dns-outage=1000:120",
       "--retry-delay=2.5"});
  ASSERT_EQ(opt.config.faults.crashes.size(), 1u);
  EXPECT_EQ(opt.config.faults.crashes[0].server, 2);
  ASSERT_EQ(opt.config.faults.degradations.size(), 1u);
  EXPECT_DOUBLE_EQ(opt.config.faults.degradations[0].factor, 0.5);
  ASSERT_EQ(opt.config.faults.dns_outages.size(), 1u);
  EXPECT_DOUBLE_EQ(opt.config.client_retry_delay_sec, 2.5);
  EXPECT_THROW(experiment::parse_cli({"--crash=900:600"}), std::invalid_argument);
  EXPECT_THROW(experiment::parse_cli({"--faults=/nonexistent.faults"}),
               std::runtime_error);
}

TEST(FaultCli, FaultsValidateAgainstClusterSize) {
  experiment::SimulationConfig cfg;
  cfg.faults.crashes.push_back({10.0, 5.0, 99});
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.faults.crashes = {{10.0, 5.0, 3}};
  EXPECT_NO_THROW(cfg.validate());
  cfg.client_retry_delay_sec = 0.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(OutageCli, ParsesOutageAndQueueAlarm) {
  // Repeated --pause windows are kept in flag order.
  const experiment::CliOptions opt = experiment::parse_cli(
      {"--pause=100:50:1", "--pause=600:300:2", "--queue-alarm=40"});
  ASSERT_EQ(opt.config.faults.pauses.size(), 2u);
  EXPECT_EQ(opt.config.faults.pauses[0].server, 1);
  EXPECT_DOUBLE_EQ(opt.config.faults.pauses[1].start_sec, 600.0);
  EXPECT_DOUBLE_EQ(opt.config.faults.pauses[1].duration_sec, 300.0);
  EXPECT_EQ(opt.config.faults.pauses[1].server, 2);
  EXPECT_EQ(opt.config.alarm_queue_threshold, 40u);
  EXPECT_THROW(experiment::parse_cli({"--pause=600:300"}), std::invalid_argument);
  EXPECT_THROW(experiment::parse_cli({"--pause=600:300:99"}), std::invalid_argument);
  // --outage was an older spelling of --pause; it is no longer a knob.
  try {
    experiment::parse_cli({"--outage=600:300:2"});
    FAIL() << "--outage must be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("unknown flag"), std::string::npos) << e.what();
  }
}

}  // namespace
}  // namespace adattl
