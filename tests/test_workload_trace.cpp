// The trace-driven workload source: CSV schema parsing/serialization,
// generator shapes, shard-sliced scheduling, and the end-to-end guarantee
// the replay path exists for — generate → replay → bit-identical RunResult
// at a fixed seed, whether the trace arrives programmatically, as inline
// --trace-point specs, or through a --workload-trace file.
#include "workload/trace.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "experiment/param_registry.h"
#include "experiment/runner.h"
#include "sim/simulator.h"

namespace adattl::workload {
namespace {

TEST(TraceCsv, ParsesRowsCommentsAndHeader) {
  const std::vector<TraceEvent> events = parse_trace_csv(
      "# generated trace\n"
      "t_sec,domain,rate_multiplier\n"
      "\n"
      "0,3,1.5\n"
      "  600 , 14 , 8  # flash crowd\n"
      "7200,14,1\n");
  ASSERT_EQ(events.size(), 3u);
  EXPECT_DOUBLE_EQ(events[0].at_sec, 0.0);
  EXPECT_EQ(events[0].domain, 3);
  EXPECT_DOUBLE_EQ(events[0].rate_multiplier, 1.5);
  EXPECT_DOUBLE_EQ(events[1].at_sec, 600.0);
  EXPECT_EQ(events[1].domain, 14);
  EXPECT_DOUBLE_EQ(events[1].rate_multiplier, 8.0);
  EXPECT_EQ(events[2].domain, 14);
}

TEST(TraceCsv, ErrorsCarryLineNumbers) {
  const auto expect_line = [](const std::string& text, const std::string& needle) {
    try {
      parse_trace_csv(text);
      FAIL() << "expected throw for: " << text;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << e.what();
    }
  };
  expect_line("0,1,2\nbogus\n", "line 2");
  expect_line("0,1\n", "line 1");
  expect_line("0,1,2,3\n", "too many fields");
  expect_line("0,1.5,2\n", "domain must be a non-negative integer");
  expect_line("0,-1,2\n", "domain must be a non-negative integer");
  expect_line("zero,1,2\n", "t_sec");
  expect_line("0,1,fast\n", "rate_multiplier");
  // A header row after data is not a header.
  expect_line("0,1,2\nt_sec,domain,rate_multiplier\n", "line 2");
}

TEST(TraceCsv, RoundTripsExactly) {
  const std::vector<TraceEvent> original = {
      {0.0, 0, 1.0},
      {600.125, 14, 8.000000000000002},  // not representable in short decimal
      {7200.0, 3, 0.3333333333333333},
  };
  const std::vector<TraceEvent> reparsed = parse_trace_csv(trace_to_csv(original));
  ASSERT_EQ(reparsed.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(reparsed[i].at_sec, original[i].at_sec) << i;
    EXPECT_EQ(reparsed[i].domain, original[i].domain) << i;
    EXPECT_EQ(reparsed[i].rate_multiplier, original[i].rate_multiplier) << i;
  }
}

TEST(TraceValidate, RejectsOutOfUniverseEvents) {
  EXPECT_NO_THROW(validate_trace({{0.0, 0, 1.0}, {10.0, 4, 2.0}}, 5));
  EXPECT_THROW(validate_trace({{-1.0, 0, 1.0}}, 5), std::invalid_argument);
  EXPECT_THROW(validate_trace({{0.0, 5, 1.0}}, 5), std::invalid_argument);
  EXPECT_THROW(validate_trace({{0.0, 0, 0.0}}, 5), std::invalid_argument);
  EXPECT_THROW(validate_trace({{0.0, 0, 1e9}}, 5), std::invalid_argument);
  try {
    validate_trace({{0.0, 0, 1.0}, {0.0, 9, 1.0}}, 5);
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("trace event 1"), std::string::npos) << e.what();
  }
}

TEST(TraceSchedule, FiresAbsoluteRateChanges) {
  sim::Simulator sim;
  ThinkTimeModel think({10.0, 10.0});
  schedule_trace(sim, think, {{5.0, 0, 4.0}, {10.0, 0, 2.0}, {10.0, 1, 0.5}});
  sim.run_until(6.0);
  EXPECT_DOUBLE_EQ(think.rate_multiplier(0), 4.0);
  EXPECT_DOUBLE_EQ(think.rate_multiplier(1), 1.0);
  sim.run_until(11.0);
  // Absolute semantics: 2.0, not 4.0 * 2.0.
  EXPECT_DOUBLE_EQ(think.rate_multiplier(0), 2.0);
  EXPECT_DOUBLE_EQ(think.rate_multiplier(1), 0.5);
}

TEST(TraceGenerators, FlashCrowdRampsHoldsAndDecays) {
  FlashCrowdSpec spec;
  spec.domain = 2;
  spec.start_sec = 100.0;
  spec.ramp_sec = 50.0;
  spec.hold_sec = 100.0;
  spec.decay_sec = 50.0;
  spec.peak_multiplier = 8.0;
  spec.step_sec = 10.0;
  const std::vector<TraceEvent> events = generate_flash_crowd(spec);
  ASSERT_GE(events.size(), 3u);
  EXPECT_DOUBLE_EQ(events.front().at_sec, 0.0);
  EXPECT_DOUBLE_EQ(events.front().rate_multiplier, 1.0);
  EXPECT_DOUBLE_EQ(events.back().at_sec, 300.0);
  EXPECT_DOUBLE_EQ(events.back().rate_multiplier, 1.0);
  double peak = 0.0;
  for (const TraceEvent& ev : events) {
    EXPECT_EQ(ev.domain, 2);
    EXPECT_GE(ev.rate_multiplier, 1.0);
    EXPECT_LE(ev.rate_multiplier, 8.0);
    peak = std::max(peak, ev.rate_multiplier);
    // Mid-hold the multiplier is pinned at the peak.
    if (ev.at_sec >= 150.0 && ev.at_sec < 250.0) {
      EXPECT_DOUBLE_EQ(ev.rate_multiplier, 8.0);
    }
  }
  EXPECT_DOUBLE_EQ(peak, 8.0);
  EXPECT_NO_THROW(validate_trace(events, 3));
  EXPECT_THROW(generate_flash_crowd(FlashCrowdSpec{.step_sec = 0.0}),
               std::invalid_argument);
}

TEST(TraceGenerators, DiurnalStaysPositiveAndCoversAllDomains) {
  DiurnalSpec spec;
  spec.duration_sec = 3600.0;
  spec.period_sec = 3600.0;
  spec.amplitude = 0.6;
  spec.phase_spread_sec = 1800.0;
  spec.step_sec = 300.0;
  const std::vector<TraceEvent> events = generate_diurnal(spec, 4);
  // 13 sample times (0..3600 inclusive) x 4 domains.
  EXPECT_EQ(events.size(), 52u);
  std::vector<bool> seen(4, false);
  for (const TraceEvent& ev : events) {
    seen[static_cast<std::size_t>(ev.domain)] = true;
    EXPECT_GT(ev.rate_multiplier, 0.0);
    EXPECT_GE(ev.rate_multiplier, 1.0 - spec.amplitude - 1e-12);
    EXPECT_LE(ev.rate_multiplier, 1.0 + spec.amplitude + 1e-12);
  }
  for (int d = 0; d < 4; ++d) EXPECT_TRUE(seen[static_cast<std::size_t>(d)]) << d;
  EXPECT_NO_THROW(validate_trace(events, 4));
  EXPECT_THROW(generate_diurnal(DiurnalSpec{.amplitude = 1.0}, 4), std::invalid_argument);
}

TEST(TraceGenerators, RegimeShiftsAreSeededDeterministic) {
  RegimeShiftSpec spec;
  spec.duration_sec = 86400.0;
  spec.mean_dwell_sec = 3600.0;
  spec.hot_multiplier = 6.0;
  spec.seed = 99;
  const std::vector<TraceEvent> a = generate_regime_shifts(spec, 8);
  const std::vector<TraceEvent> b = generate_regime_shifts(spec, 8);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].at_sec, b[i].at_sec);
    EXPECT_EQ(a[i].domain, b[i].domain);
    EXPECT_EQ(a[i].rate_multiplier, b[i].rate_multiplier);
  }
  spec.seed = 100;
  const std::vector<TraceEvent> c = generate_regime_shifts(spec, 8);
  EXPECT_NE(trace_to_csv(a), trace_to_csv(c));
  // Exactly one domain is hot at any time: events come in cool/heat pairs
  // after the initial heat, and every cool names the previously hot domain.
  ASSERT_FALSE(a.empty());
  EXPECT_DOUBLE_EQ(a[0].rate_multiplier, 6.0);
  int hot = a[0].domain;
  for (std::size_t i = 1; i + 1 < a.size(); i += 2) {
    EXPECT_DOUBLE_EQ(a[i].rate_multiplier, 1.0);
    EXPECT_EQ(a[i].domain, hot);
    EXPECT_DOUBLE_EQ(a[i + 1].rate_multiplier, 6.0);
    EXPECT_NE(a[i + 1].domain, hot);
    hot = a[i + 1].domain;
  }
  EXPECT_NO_THROW(validate_trace(a, 8));
}

}  // namespace
}  // namespace adattl::workload

namespace adattl::experiment {
namespace {

void expect_same_run(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.mean_max_utilization, b.mean_max_utilization);
  EXPECT_EQ(a.mean_server_util, b.mean_server_util);
  EXPECT_EQ(a.aggregate_utilization, b.aggregate_utilization);
  EXPECT_EQ(a.total_pages, b.total_pages);
  EXPECT_EQ(a.total_hits, b.total_hits);
  EXPECT_EQ(a.authoritative_queries, b.authoritative_queries);
  EXPECT_EQ(a.ns_cache_hits, b.ns_cache_hits);
  EXPECT_EQ(a.mean_ttl, b.mean_ttl);
  EXPECT_EQ(a.alarm_signals, b.alarm_signals);
  EXPECT_EQ(a.events_dispatched, b.events_dispatched);
  EXPECT_EQ(a.mean_page_response_sec, b.mean_page_response_sec);
  EXPECT_EQ(a.per_server_response_sec, b.per_server_response_sec);
}

TEST(TraceReplayDeterminism, GenerateReplayBitIdenticalAcrossEntryPoints) {
  // The tentpole guarantee: a generated trace replayed through any entry
  // point — programmatic trace_events, inline --trace-point specs, or a
  // --workload-trace CSV file — produces the bit-identical RunResult at a
  // fixed seed.
  workload::FlashCrowdSpec spec;
  spec.domain = 3;
  spec.start_sec = 200.0;
  spec.ramp_sec = 120.0;
  spec.hold_sec = 240.0;
  spec.decay_sec = 120.0;
  spec.peak_multiplier = 6.0;
  spec.step_sec = 60.0;
  const std::vector<workload::TraceEvent> trace = workload::generate_flash_crowd(spec);

  SimulationConfig base;
  base.policy = "DRR2-TTL/S_K";
  base.num_domains = 6;
  base.total_clients = 60;
  base.duration_sec = 900.0;
  base.warmup_sec = 60.0;
  base.seed = 20260808;
  base.oracle_weights = false;
  base.trace_events = trace;

  const ReplicatedResult programmatic = run_replications(base, 1);

  // Entry point 2: the CSV file through --workload-trace.
  const std::string path = ::testing::TempDir() + "/adattl_trace_replay.csv";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  const std::string csv = workload::trace_to_csv(trace);
  std::fwrite(csv.data(), 1, csv.size(), f);
  std::fclose(f);
  const CliOptions via_file =
      ParamRegistry::instance()
          .resolve_flags({"--policy=DRR2-TTL/S_K", "--domains=6", "--clients=60",
                          "--duration=900", "--warmup=60", "--seed=20260808",
                          "--measured", "--workload-trace=" + path})
          .options;
  std::remove(path.c_str());
  const ReplicatedResult from_file = run_replications(via_file.config, 1);

  // Entry point 3: inline --trace-point flags in trace order.
  std::vector<std::string> flags = {"--policy=DRR2-TTL/S_K", "--domains=6",
                                    "--clients=60",          "--duration=900",
                                    "--warmup=60",           "--seed=20260808",
                                    "--measured"};
  for (const workload::TraceEvent& ev : trace) {
    char spec_str[96];
    std::snprintf(spec_str, sizeof(spec_str), "--trace-point=%.17g:%d:%.17g", ev.at_sec,
                  ev.domain, ev.rate_multiplier);
    flags.emplace_back(spec_str);
  }
  const CliOptions via_points = ParamRegistry::instance().resolve_flags(flags).options;
  const ReplicatedResult from_points = run_replications(via_points.config, 1);

  ASSERT_EQ(programmatic.runs.size(), 1u);
  ASSERT_EQ(from_file.runs.size(), 1u);
  ASSERT_EQ(from_points.runs.size(), 1u);
  expect_same_run(programmatic.runs.front(), from_file.runs.front());
  expect_same_run(programmatic.runs.front(), from_points.runs.front());

  // And the trace actually changed the run (the spike is not a no-op).
  SimulationConfig quiet = base;
  quiet.trace_events.clear();
  const ReplicatedResult without = run_replications(quiet, 1);
  EXPECT_NE(programmatic.runs.front().events_dispatched,
            without.runs.front().events_dispatched);
}

TEST(TraceReplayDeterminism, ConfigRejectsTraceOutsideDomainUniverse) {
  EXPECT_THROW(ParamRegistry::instance().resolve_flags(
                   {"--domains=4", "--trace-point=100:9:2"}),
               std::invalid_argument);
  EXPECT_THROW(
      ParamRegistry::instance().resolve_flags({"--trace-point=-5:0:2"}),
      std::invalid_argument);
  EXPECT_THROW(
      ParamRegistry::instance().resolve_flags({"--trace-point=100:0:1e12"}),
      std::invalid_argument);
}

TEST(TraceReplayDeterminism, ShardedRunRepaysTraceIdentically) {
  // A sharded run with a trace is deterministic across repeats (each shard
  // schedules exactly its owned slice), and the trace reaches the workload:
  // results differ from the trace-free run.
  SimulationConfig cfg;
  cfg.policy = "RR";
  cfg.num_domains = 6;
  cfg.total_clients = 60;
  cfg.duration_sec = 600.0;
  cfg.warmup_sec = 60.0;
  cfg.seed = 7;
  cfg.shard_domains = true;
  cfg.shard_count = 3;
  cfg.trace_events = {{100.0, 0, 4.0}, {100.0, 4, 3.0}, {400.0, 0, 1.0}};

  const ReplicatedResult a = run_replications(cfg, 1);
  const ReplicatedResult b = run_replications(cfg, 1);
  expect_same_run(a.runs.front(), b.runs.front());

  SimulationConfig quiet = cfg;
  quiet.trace_events.clear();
  const ReplicatedResult without = run_replications(quiet, 1);
  EXPECT_NE(a.runs.front().total_pages, without.runs.front().total_pages);
}

}  // namespace
}  // namespace adattl::experiment
