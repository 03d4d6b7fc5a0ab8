// Observability layer: the metrics snapshot, tracer ring buffer and
// exporters, and end-to-end wiring through a Site run —
// including the invariant that enabling observability never changes the
// simulation results.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "experiment/report.h"
#include "experiment/runner.h"
#include "experiment/site.h"
#include "obs/event_tracer.h"
#include "obs/metrics.h"
#include "sim/stats.h"

namespace adattl {
namespace {

// ---------------------------------------------------------------- metrics
//
// The end-of-run MetricsSnapshot and the histograms behind it replaced a
// registry of update-time handles; these tests keep that registry's suite
// name and pin what replaced each of its guarantees.

experiment::SimulationConfig obs_config();

TEST(MetricsRegistry, CounterGaugeHistogramBasics) {
  // The histograms bin as the registry's cells did: equal bins over
  // [0, upper) plus one overflow slot.
  sim::Histogram h(10.0, 10);
  h.add(0.5);    // bin 0
  h.add(0.0);    // bin 0
  h.add(9.99);   // bin 9
  h.add(10.0);   // overflow
  obs::MetricsSnapshot snap;
  snap.add_counter("c", 42);
  snap.add_gauge("g", 3.0);
  snap.add_histogram("h", h);

  ASSERT_EQ(snap.metrics.size(), 3u);
  EXPECT_EQ(snap.metrics[0].kind, obs::MetricKind::kCounter);
  EXPECT_DOUBLE_EQ(snap.metrics[0].value, 42.0);
  EXPECT_EQ(snap.metrics[1].kind, obs::MetricKind::kGauge);
  EXPECT_DOUBLE_EQ(snap.metrics[1].value, 3.0);
  const obs::MetricsSnapshot::Metric& hist = snap.metrics[2];
  EXPECT_EQ(hist.kind, obs::MetricKind::kHistogram);
  EXPECT_EQ(hist.count, 4u);
  EXPECT_DOUBLE_EQ(hist.value, 4.0);
  EXPECT_DOUBLE_EQ(hist.upper, 10.0);
  ASSERT_EQ(hist.bins.size(), 11u);
  EXPECT_EQ(hist.bins[0], 2u);
  EXPECT_EQ(hist.bins[9], 1u);
  EXPECT_EQ(hist.bins[10], 1u);  // overflow slot
  EXPECT_THROW(h.add(-1.0), std::invalid_argument);
}

TEST(MetricsRegistry, SameNameSharesOneCell) {
  // A slice's name servers share one effective-TTL histogram, and each
  // ns.* counter is the sum of the per-NS counters.
  experiment::SimulationConfig config = obs_config();
  config.ns_per_domain = 2;
  config.metrics_enabled = true;
  experiment::Site site(config);
  const experiment::RunResult r = site.run();
  ASSERT_NE(r.metrics, nullptr);

  std::uint64_t hits = 0;
  std::uint64_t queries = 0;
  for (int d = 0; d < config.num_domains; ++d) {
    for (int m = 0; m < config.ns_per_domain; ++m) {
      hits += site.name_server(d, m).cache_hits();
      queries += site.name_server(d, m).authoritative_queries();
    }
  }
  EXPECT_GT(queries, 0u);
  EXPECT_DOUBLE_EQ(r.metrics->find("ns.cache_hits")->value, static_cast<double>(hits));
  EXPECT_DOUBLE_EQ(r.metrics->find("ns.authoritative_queries")->value,
                   static_cast<double>(queries));
  // Every cached mapping of every NS landed in the one histogram.
  EXPECT_EQ(site.slices()[0].histograms->ns_ttl.count(), queries);
  EXPECT_EQ(r.metrics->find("ns.effective_ttl_sec")->count, queries);
}

TEST(MetricsRegistry, KindMismatchThrows) {
  // A name appears once, whatever its kind: the snapshot is a JSON object.
  obs::MetricsSnapshot snap;
  snap.add_counter("x", 1);
  EXPECT_THROW(snap.add_gauge("x", 1.0), std::invalid_argument);
  EXPECT_THROW(snap.add_histogram("x", sim::Histogram(1.0, 4)), std::invalid_argument);
  EXPECT_EQ(snap.metrics.size(), 1u);
  // Slices' histograms merge only when their shapes agree.
  sim::Histogram h(1.0, 4);
  EXPECT_THROW(h.merge(sim::Histogram(2.0, 4)), std::invalid_argument);
  EXPECT_THROW(h.merge(sim::Histogram(1.0, 8)), std::invalid_argument);
}

TEST(MetricsRegistry, UnboundHandlesAreSafeNoOps) {
  // With metrics off no slice allocates histograms, the components run
  // with null pointers, and the result carries no snapshot.
  experiment::SimulationConfig config = obs_config();
  config.duration_sec = 120.0;
  experiment::Site site(config);
  const experiment::RunResult r = site.run();
  EXPECT_EQ(site.slices()[0].histograms, nullptr);
  EXPECT_EQ(r.metrics, nullptr);
  EXPECT_GT(site.scheduler().decisions(), 0u);
}

TEST(MetricsRegistry, SnapshotDetachesAndFinds) {
  sim::Histogram h(2.0, 4);
  h.add(1.0);
  h.add(5.0);
  obs::MetricsSnapshot snap;
  snap.add_counter("done", 3);
  snap.add_histogram("lat", h);

  ASSERT_EQ(snap.metrics.size(), 2u);
  const obs::MetricsSnapshot::Metric* done = snap.find("done");
  ASSERT_NE(done, nullptr);
  EXPECT_EQ(done->kind, obs::MetricKind::kCounter);
  EXPECT_DOUBLE_EQ(done->value, 3.0);

  const obs::MetricsSnapshot::Metric* lat = snap.find("lat");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->count, 2u);
  EXPECT_DOUBLE_EQ(lat->sum, 6.0);
  ASSERT_EQ(lat->bins.size(), 5u);
  EXPECT_EQ(lat->bins[2], 1u);
  EXPECT_EQ(lat->bins[4], 1u);  // overflow

  EXPECT_EQ(snap.find("missing"), nullptr);

  // Detached: later samples don't retroactively change the snapshot.
  h.add(0.1);
  EXPECT_EQ(snap.find("lat")->count, 2u);
  EXPECT_EQ(snap.find("lat")->bins[0], 0u);
}

TEST(MetricsRegistry, SnapshotSerializesAsJson) {
  sim::Histogram h(1.0, 2);
  h.add(0.3);
  obs::MetricsSnapshot snap;
  snap.add_counter("a.count", 5);
  snap.add_gauge("b.depth", 1.5);
  snap.add_histogram("c.lat", h);
  const std::string json = experiment::metrics_to_json(snap);
  EXPECT_NE(json.find("\"a.count\":{\"kind\":\"counter\",\"value\":5}"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"b.depth\":{\"kind\":\"gauge\",\"value\":1.5}"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"c.lat\":{\"kind\":\"histogram\",\"count\":1"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"bins\":[1,0,0]"), std::string::npos) << json;
  // Names keep the order they were added in.
  EXPECT_LT(json.find("a.count"), json.find("b.depth"));
  EXPECT_LT(json.find("b.depth"), json.find("c.lat"));
}

// ----------------------------------------------------------------- tracer

TEST(EventTracer, RecordsInOrderAndWraps) {
  obs::EventTracer tracer(4);
  EXPECT_THROW(obs::EventTracer(0), std::invalid_argument);

  for (int i = 0; i < 6; ++i) {
    tracer.record(static_cast<double>(i), obs::TraceKind::kDecision, i, 0, 0.0);
  }
  EXPECT_EQ(tracer.capacity(), 4u);
  EXPECT_EQ(tracer.total_recorded(), 6u);
  EXPECT_EQ(tracer.dropped(), 2u);

  const auto records = tracer.records();
  ASSERT_EQ(records.size(), 4u);
  // Oldest two (0, 1) overwritten; the rest retained chronologically.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(records[static_cast<std::size_t>(i)].a, i + 2);
    EXPECT_DOUBLE_EQ(records[static_cast<std::size_t>(i)].time, static_cast<double>(i + 2));
  }
}

TEST(EventTracer, ChromeJsonExport) {
  obs::EventTracer tracer(8);
  tracer.record(1.0, obs::TraceKind::kDecision, 3, 2, 240.0);
  tracer.record(2.0, obs::TraceKind::kNsRefresh, 4, 1, 120.0);
  const std::string json = tracer.to_chrome_json();
  // Track metadata plus one instant event per record, ts in microseconds.
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u) << json;
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"dns decisions\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"decision\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":1000000.000"), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\":\"ns_refresh\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\"}"), std::string::npos);
}

TEST(EventTracer, KindNamesAreStable) {
  EXPECT_STREQ(obs::trace_kind_name(obs::TraceKind::kDecision), "decision");
  EXPECT_STREQ(obs::trace_kind_name(obs::TraceKind::kAlarm), "alarm");
  EXPECT_STREQ(obs::trace_kind_name(obs::TraceKind::kNormal), "normal");
  EXPECT_STREQ(obs::trace_kind_name(obs::TraceKind::kNsRefresh), "ns_refresh");
  EXPECT_STREQ(obs::trace_kind_name(obs::TraceKind::kServerPause), "server_pause");
  EXPECT_STREQ(obs::trace_kind_name(obs::TraceKind::kServerResume), "server_resume");
  EXPECT_STREQ(obs::trace_kind_name(obs::TraceKind::kEstimatorUpdate), "estimator_update");
  EXPECT_STREQ(obs::trace_kind_name(obs::TraceKind::kUtilization), "utilization");
}

// -------------------------------------------------------------- CSV views
//
// to_utilization_csv() and to_decisions_csv() write, byte for byte, the
// files of the utilization and decision recorders they replaced; their
// tests keep those recorders' suite names.

// Splits exporter CSV text into rows of fields (no exporter quotes).
std::vector<std::vector<std::string>> csv_rows(const std::string& csv) {
  std::vector<std::vector<std::string>> rows;
  std::size_t start = 0;
  while (start < csv.size()) {
    const std::size_t end = csv.find('\n', start);
    const std::string line = csv.substr(start, end - start);
    std::vector<std::string>& fields = rows.emplace_back();
    for (std::size_t from = 0;;) {
      const std::size_t comma = line.find(',', from);
      fields.push_back(line.substr(from, comma - from));
      if (comma == std::string::npos) break;
      from = comma + 1;
    }
    if (end == std::string::npos) break;
    start = end + 1;
  }
  return rows;
}

// One monitor tick: a kUtilization record per server, in id order.
void record_tick(obs::EventTracer& tracer, double time, const std::vector<double>& utils) {
  for (std::size_t s = 0; s < utils.size(); ++s) {
    tracer.record(time, obs::TraceKind::kUtilization, static_cast<std::int32_t>(s), 0, utils[s]);
  }
}

// What `view` throws on `tracer`, or "" if it returns.
std::string view_error(const obs::EventTracer& tracer,
                       std::string (obs::EventTracer::*view)() const) {
  try {
    (tracer.*view)();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

// A traced paper-site run: DRR2-TTL/S_K, no warm-up, so every decision
// of the run is an authoritative query of the result.
experiment::SimulationConfig traced_decisions_config() {
  experiment::SimulationConfig config;
  config.policy = "DRR2-TTL/S_K";
  config.warmup_sec = 0.0;
  config.duration_sec = 1800.0;
  config.seed = 66;
  config.trace_enabled = true;
  return config;
}

TEST(TraceRecorder, RecordsSamplesWithMax) {
  obs::EventTracer tracer(8);
  record_tick(tracer, 8.0, {0.2, 0.7});
  record_tick(tracer, 16.0, {0.9, 0.1});
  const std::vector<std::vector<std::string>> rows = csv_rows(tracer.to_utilization_csv());
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[1][0], "8.000");
  EXPECT_EQ(rows[1][3], "0.700000");
  EXPECT_EQ(rows[2][0], "16.000");
  EXPECT_EQ(rows[2][3], "0.900000");
}

TEST(TraceRecorder, CsvHasHeaderAndRows) {
  // Two monitor ticks of a two-server site, interleaved with kinds the
  // view skips.
  obs::EventTracer tracer(16);
  tracer.record(1.5, obs::TraceKind::kDecision, 3, 2, 240.0);
  record_tick(tracer, 8.0, {0.25, 0.5});
  tracer.record(8.0, obs::TraceKind::kEstimatorUpdate, 1, 0, 8.0);
  record_tick(tracer, 16.0, {0.875, 0.125});
  EXPECT_EQ(tracer.to_utilization_csv(),
            "time,s0,s1,max\n"
            "8.000,0.250000,0.500000,0.500000\n"
            "16.000,0.875000,0.125000,0.875000\n");
}

TEST(TraceRecorder, EmptyTraceStillHasHeader) {
  obs::EventTracer tracer(4);
  EXPECT_EQ(tracer.to_utilization_csv(), "time,max\n");
  tracer.record(1.5, obs::TraceKind::kDecision, 3, 2, 240.0);
  EXPECT_EQ(tracer.to_utilization_csv(), "time,max\n");
}

TEST(TraceRecorder, CapDropsExcessSamples) {
  obs::EventTracer tracer(2);
  record_tick(tracer, 8.0, {0.1});
  record_tick(tracer, 16.0, {0.2});
  // A full ring still holds the whole run.
  EXPECT_EQ(tracer.to_utilization_csv(),
            "time,s0,max\n8.000,0.100000,0.100000\n16.000,0.200000,0.200000\n");
  record_tick(tracer, 24.0, {0.3});
  ASSERT_EQ(tracer.dropped(), 1u);
  // A view is complete or not produced: the error names the capacity
  // that would have held the run.
  const std::string error = view_error(tracer, &obs::EventTracer::to_utilization_csv);
  EXPECT_NE(error.find("--trace-capacity=3"), std::string::npos) << error;
}

TEST(TraceRecorder, AttachedToSiteRecordsEveryTick) {
  experiment::SimulationConfig config;
  config.policy = "RR";
  config.warmup_sec = 0.0;
  config.duration_sec = 800.0;  // 100 ticks at 8 s
  config.seed = 77;
  config.trace_enabled = true;
  experiment::Site site(config);
  site.run();
  ASSERT_NE(site.event_tracer(), nullptr);
  const std::vector<std::vector<std::string>> rows =
      csv_rows(site.event_tracer()->to_utilization_csv());
  ASSERT_EQ(rows.size(), 101u);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    // time, one column per server of the 7-server cluster, max.
    ASSERT_EQ(rows[i].size(), 9u) << i;
    // Rows are on the 8-second grid.
    if (i > 0) {
      EXPECT_DOUBLE_EQ(std::stod(rows[i][0]), static_cast<double>(i) * 8.0) << i;
    }
  }
}

TEST(TraceRecorder, WriteCsvRoundTrips) {
  obs::EventTracer tracer(4);
  record_tick(tracer, 8.0, {0.5});
  const std::string csv = tracer.to_utilization_csv();
  const std::string path = ::testing::TempDir() + "/adattl_trace_test.csv";
  obs::EventTracer::write_file(path, csv);
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buf[256] = {};
  const std::size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_EQ(std::string(buf, n), csv);
}

TEST(TraceRecorder, WriteCsvBadPathThrows) {
  const std::string csv = obs::EventTracer(1).to_utilization_csv();
  EXPECT_THROW(obs::EventTracer::write_file("/nonexistent-dir-xyz/trace.csv", csv),
               std::runtime_error);
  // /dev/full opens but fails every write: the short write must surface.
  EXPECT_THROW(obs::EventTracer::write_file("/dev/full", csv), std::runtime_error);
}

TEST(DecisionLog, RecordsEntriesInOrder) {
  obs::EventTracer tracer(8);
  tracer.record(1.0, obs::TraceKind::kDecision, 3, 2, 240.0);
  tracer.record(1.5, obs::TraceKind::kNsRefresh, 3, 2, 240.0);  // not a decision
  tracer.record(2.0, obs::TraceKind::kDecision, 4, 1, 120.0);
  const std::vector<std::vector<std::string>> rows = csv_rows(tracer.to_decisions_csv());
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[1], (std::vector<std::string>{"1.000", "3", "2", "240.000"}));
  EXPECT_EQ(rows[2], (std::vector<std::string>{"2.000", "4", "1", "120.000"}));
}

TEST(DecisionLog, RingKeepsNewestEntries) {
  obs::EventTracer tracer(3);
  for (int i = 0; i < 5; ++i) {
    tracer.record(static_cast<double>(i), obs::TraceKind::kDecision, i, 0, 240.0);
  }
  ASSERT_EQ(tracer.dropped(), 2u);
  // The decisions view must hold every decision, so it refuses the ring
  // and names the capacity that would have held them all.
  const std::string error = view_error(tracer, &obs::EventTracer::to_decisions_csv);
  EXPECT_NE(error.find("--trace-capacity=5"), std::string::npos) << error;
  // The timeline export keeps the newest records instead.
  const std::string json = tracer.to_chrome_json();
  EXPECT_NE(json.find("\"ts\":4000000.000"), std::string::npos) << json;
  EXPECT_EQ(json.find("\"ts\":1000000.000"), std::string::npos) << json;
}

TEST(DecisionLog, CsvFormat) {
  obs::EventTracer tracer(4);
  EXPECT_EQ(tracer.to_decisions_csv(), "time,domain,server,ttl\n");
  tracer.record(8.0, obs::TraceKind::kDecision, 1, 2, 43.2);
  EXPECT_EQ(tracer.to_decisions_csv(), "time,domain,server,ttl\n8.000,1,2,43.200\n");
}

TEST(DecisionLog, PerServerCounts) {
  experiment::Site site(traced_decisions_config());
  site.run();
  ASSERT_NE(site.event_tracer(), nullptr);
  const std::vector<std::vector<std::string>> rows =
      csv_rows(site.event_tracer()->to_decisions_csv());
  std::vector<std::uint64_t> per_server(site.scheduler().assignments().size(), 0);
  for (std::size_t i = 1; i < rows.size(); ++i) per_server.at(std::stoul(rows[i][2]))++;
  // Per-server counts agree with the scheduler's own bookkeeping.
  EXPECT_EQ(per_server, site.scheduler().assignments());
}

TEST(DecisionLog, AttachedToSiteCapturesAllDecisions) {
  experiment::Site site(traced_decisions_config());
  const experiment::RunResult r = site.run();
  ASSERT_NE(site.event_tracer(), nullptr);
  const std::vector<std::vector<std::string>> rows =
      csv_rows(site.event_tracer()->to_decisions_csv());
  ASSERT_GT(rows.size(), 1u);
  EXPECT_EQ(rows.front(), (std::vector<std::string>{"time", "domain", "server", "ttl"}));
  EXPECT_EQ(rows.size() - 1, site.scheduler().decisions());
  EXPECT_EQ(rows.size() - 1, r.authoritative_queries);
  int d0 = 0, d19 = 0;
  for (std::size_t i = 1; i < rows.size(); ++i) {
    ASSERT_EQ(rows[i].size(), 4u) << i;
    // Times are stamped and monotone.
    if (i > 1) {
      EXPECT_LE(std::stod(rows[i - 1][0]), std::stod(rows[i][0])) << i;
    }
    d0 += rows[i][1] == "0";
    d19 += rows[i][1] == "19";
  }
  // Hot domains re-resolve more often under TTL/K: domain 0 must appear
  // strictly more often than the coldest domain.
  EXPECT_GT(d0, d19);
}

// ------------------------------------------------------------- end to end

experiment::SimulationConfig obs_config() {
  experiment::SimulationConfig config;
  config.cluster = web::table2_cluster(35);
  config.policy = "DRR2-TTL/S_K";
  config.total_clients = 120;
  config.num_domains = 8;
  config.oracle_weights = false;  // exercise the estimator-update records
  config.warmup_sec = 60.0;
  config.duration_sec = 600.0;
  config.seed = 424242;
  return config;
}

TEST(SiteObservability, MetricsMatchComponentCounters) {
  experiment::SimulationConfig config = obs_config();
  config.metrics_enabled = true;
  config.trace_enabled = true;
  config.trace_capacity = 1 << 16;

  experiment::Site site(config);
  const experiment::RunResult result = site.run();

  ASSERT_NE(result.metrics, nullptr);
  const obs::MetricsSnapshot& snap = *result.metrics;

  const auto* decisions = snap.find("scheduler.decisions");
  ASSERT_NE(decisions, nullptr);
  EXPECT_GT(decisions->value, 0.0);
  EXPECT_DOUBLE_EQ(decisions->value,
                   static_cast<double>(site.scheduler().decisions()));

  const auto* ns_hits = snap.find("ns.cache_hits");
  const auto* ns_queries = snap.find("ns.authoritative_queries");
  ASSERT_NE(ns_hits, nullptr);
  ASSERT_NE(ns_queries, nullptr);
  EXPECT_DOUBLE_EQ(ns_hits->value, static_cast<double>(result.ns_cache_hits));
  EXPECT_DOUBLE_EQ(ns_queries->value, static_cast<double>(result.authoritative_queries));

  // Per-server completion counters sum to the site-wide totals.
  double pages = 0.0;
  for (int s = 0; s < config.cluster.size(); ++s) {
    const auto* m = snap.find("server." + std::to_string(s) + ".pages_completed");
    ASSERT_NE(m, nullptr);
    pages += m->value;
  }
  EXPECT_GT(pages, 0.0);

  const auto* ttl_hist = snap.find("scheduler.ttl_sec");
  ASSERT_NE(ttl_hist, nullptr);
  EXPECT_EQ(ttl_hist->count, static_cast<std::uint64_t>(decisions->value));

  // Kernel health gauges filled at end of run.
  const auto* dispatched = snap.find("kernel.events_dispatched");
  ASSERT_NE(dispatched, nullptr);
  EXPECT_DOUBLE_EQ(dispatched->value, static_cast<double>(result.events_dispatched));
  const auto* peak = snap.find("kernel.peak_events");
  ASSERT_NE(peak, nullptr);
  EXPECT_GT(peak->value, 0.0);
}

TEST(SiteObservability, TracerCapturesDecisionTimeline) {
  experiment::SimulationConfig config = obs_config();
  config.trace_enabled = true;
  config.trace_capacity = 1 << 16;
  // Inject a pause window so pause/resume records appear too.
  config.faults.pauses.push_back({200.0, 100.0, 0});

  experiment::Site site(config);
  site.run();

  obs::EventTracer* tracer = site.event_tracer();
  ASSERT_NE(tracer, nullptr);
  EXPECT_GT(tracer->total_recorded(), 0u);

  bool saw_decision = false, saw_ns = false, saw_pause = false, saw_resume = false,
       saw_estimator = false, saw_utilization = false;
  double last_time = -1.0;
  for (const obs::TraceRecord& r : tracer->records()) {
    EXPECT_GE(r.time, last_time);  // chronological
    last_time = r.time;
    switch (r.kind) {
      case obs::TraceKind::kDecision:
        saw_decision = true;
        EXPECT_GE(r.a, 0);
        EXPECT_LT(r.a, config.num_domains);
        EXPECT_GE(r.b, 0);
        EXPECT_LT(r.b, config.cluster.size());
        EXPECT_GT(r.value, 0.0);  // TTL
        break;
      case obs::TraceKind::kNsRefresh: saw_ns = true; break;
      case obs::TraceKind::kServerPause: saw_pause = true; break;
      case obs::TraceKind::kServerResume: saw_resume = true; break;
      case obs::TraceKind::kEstimatorUpdate: saw_estimator = true; break;
      case obs::TraceKind::kUtilization:
        saw_utilization = true;
        EXPECT_GE(r.a, 0);
        EXPECT_LT(r.a, config.cluster.size());
        break;
      default: break;
    }
  }
  EXPECT_TRUE(saw_decision);
  EXPECT_TRUE(saw_ns);
  EXPECT_TRUE(saw_pause);
  EXPECT_TRUE(saw_resume);
  EXPECT_TRUE(saw_estimator);
  EXPECT_TRUE(saw_utilization);

  // The exported timeline parses as one JSON object (spot checks).
  const std::string json = tracer->to_chrome_json();
  EXPECT_NE(json.find("\"name\":\"server_pause\""), std::string::npos);
}

TEST(SiteObservability, EnablingObservabilityDoesNotChangeResults) {
  // Same seed, observability off vs fully on: every simulation-visible
  // output must be bit-identical (wall-clock profile fields excluded).
  experiment::SimulationConfig off = obs_config();
  experiment::SimulationConfig on = obs_config();
  on.metrics_enabled = true;
  on.trace_enabled = true;

  experiment::Site site_off(off);
  const experiment::RunResult a = site_off.run();
  experiment::Site site_on(on);
  const experiment::RunResult b = site_on.run();

  EXPECT_EQ(a.total_pages, b.total_pages);
  EXPECT_EQ(a.total_hits, b.total_hits);
  EXPECT_EQ(a.authoritative_queries, b.authoritative_queries);
  EXPECT_EQ(a.ns_cache_hits, b.ns_cache_hits);
  EXPECT_EQ(a.alarm_signals, b.alarm_signals);
  EXPECT_EQ(a.events_dispatched, b.events_dispatched);
  EXPECT_EQ(a.mean_max_utilization, b.mean_max_utilization);  // bitwise
  EXPECT_EQ(a.aggregate_utilization, b.aggregate_utilization);
  EXPECT_EQ(a.mean_ttl, b.mean_ttl);
  EXPECT_EQ(a.mean_page_response_sec, b.mean_page_response_sec);
  EXPECT_EQ(a.metrics, nullptr);
  ASSERT_NE(b.metrics, nullptr);
}

TEST(SiteObservability, RunProfileIsFilled) {
  experiment::SimulationConfig config = obs_config();
  config.duration_sec = 120.0;
  experiment::Site site(config);
  const experiment::RunResult r = site.run();
  EXPECT_GT(r.profile.setup_sec, 0.0);
  EXPECT_GT(r.profile.measurement_sec, 0.0);
  EXPECT_GE(r.profile.warmup_sec, 0.0);
  EXPECT_GE(r.profile.collect_sec, 0.0);
  EXPECT_GT(r.profile.total(), 0.0);
}

TEST(RunnerJson, IncludesMetricsWhenEnabled) {
  experiment::SimulationConfig config = obs_config();
  config.duration_sec = 120.0;
  config.metrics_enabled = true;
  const experiment::ReplicatedResult rep = experiment::run_replications(config, 1);
  const std::string json = experiment::to_json(config, rep);
  EXPECT_NE(json.find("\"metrics\":{"), std::string::npos) << json;
  EXPECT_NE(json.find("\"scheduler.decisions\""), std::string::npos) << json;

  // And absent when disabled. (The resolved-config block still carries the
  // `"metrics":false` knob; only the snapshot object must disappear.)
  experiment::SimulationConfig plain = obs_config();
  plain.duration_sec = 120.0;
  const experiment::ReplicatedResult rep2 = experiment::run_replications(plain, 1);
  EXPECT_EQ(experiment::to_json(plain, rep2).find("\"metrics\":{"), std::string::npos);
}

}  // namespace
}  // namespace adattl
