// Locks down the to_json flat schema (exact key set and order, escaping)
// so dashboards and scripted sweeps parsing it never break silently, and
// pins the json_escape fix: control characters (newline, tab, ...) must
// come out as valid JSON escapes, not raw bytes.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "experiment/runner.h"

using namespace adattl;

namespace {

experiment::SimulationConfig tiny_config() {
  experiment::SimulationConfig cfg;
  cfg.total_clients = 60;
  cfg.num_domains = 6;
  cfg.warmup_sec = 30.0;
  cfg.duration_sec = 120.0;
  cfg.policy = "DRR2-TTL/S_K";
  cfg.seed = 4242;
  return cfg;
}

// All `"key":` occurrences at the object's top level (depth 1), in order;
// keys inside the nested config/provenance/metrics objects are skipped.
std::vector<std::string> extract_keys(const std::string& json) {
  std::vector<std::string> keys;
  int depth = 0;
  std::size_t i = 0;
  while (i < json.size()) {
    const char c = json[i];
    if (c == '{' || c == '[') {
      ++depth;
      ++i;
    } else if (c == '}' || c == ']') {
      --depth;
      ++i;
    } else if (c == '"') {
      std::size_t end = i + 1;
      while (end < json.size() && json[end] != '"') {
        end += json[end] == '\\' ? 2 : 1;
      }
      if (end >= json.size()) break;
      if (depth == 1 && end + 1 < json.size() && json[end + 1] == ':') {
        keys.push_back(json.substr(i + 1, end - i - 1));
      }
      i = end + 1;
    } else {
      ++i;
    }
  }
  return keys;
}

TEST(RunnerJson, SchemaKeySetIsStable) {
  const experiment::SimulationConfig cfg = tiny_config();
  const experiment::ReplicatedResult rep = experiment::run_replications(cfg, 2);
  const std::string json = experiment::to_json(cfg, rep);

  const std::vector<std::string> expected = {
      "policy",
      "servers",
      "heterogeneity_percent",
      "domains",
      "clients",
      "replications",
      "duration_sec",
      "p_max_util_below_090",
      "p_max_util_below_090_ci",
      "p_max_util_below_098",
      "p_max_util_below_098_ci",
      "mean_max_utilization",
      "aggregate_utilization",
      "address_request_rate",
      "dns_controlled_fraction",
      "mean_ttl_sec",
      "mean_response_sec",
      "response_p99_sec",
      "mean_network_rtt_sec",
      "mean_assignment_rtt_sec",
      "pool_changes",
      "autoscale_ups",
      "autoscale_downs",
      "final_pool_size",
      "failed_requests",
      "lost_pages",
      "lost_hits",
      "dns_outage_sec",
      "unavailability_fraction",
      "mean_server_utilization",
      "rtt_weighted_assignment_share",
      "domain_latency",
      "config",
      "provenance",
  };
  EXPECT_EQ(extract_keys(json), expected);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(RunnerJson, ServerUtilizationArrayMatchesClusterSize) {
  const experiment::SimulationConfig cfg = tiny_config();
  const experiment::ReplicatedResult rep = experiment::run_replications(cfg, 1);
  const std::string json = experiment::to_json(cfg, rep);
  const std::size_t open = json.find("\"mean_server_utilization\":[");
  ASSERT_NE(open, std::string::npos);
  const std::size_t start = json.find('[', open);
  const std::size_t close = json.find(']', start);
  ASSERT_NE(close, std::string::npos);
  const std::string body = json.substr(start + 1, close - start - 1);
  std::size_t commas = 0;
  for (char c : body) commas += c == ',';
  EXPECT_EQ(commas + 1, static_cast<std::size_t>(cfg.cluster.size()));
}

// Occurrences of `needle` in `text`.
std::size_t count_of(const std::string& text, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + needle.size())) {
    ++n;
  }
  return n;
}

TEST(RunnerJson, ShardedRunReportsOnlyWhatItComputes) {
  // Over two shards each server replica queues only its own shard's
  // pages, so what depends on site-wide queueing reads null. One shard is
  // the serial run and reports it all.
  experiment::SimulationConfig cfg = tiny_config();
  cfg.shard_domains = true;
  for (const int shards : {2, 1}) {
    SCOPED_TRACE(shards);
    cfg.shard_count = shards;
    EXPECT_EQ(experiment::reports_queueing(cfg), shards == 1);
    const std::string json = experiment::to_json(cfg, experiment::run_replications(cfg, 1));
    const std::size_t nulls = shards > 1 ? 1 : 0;
    for (const char* key : {"p_max_util_below_090", "p_max_util_below_090_ci",
                            "p_max_util_below_098", "p_max_util_below_098_ci",
                            "mean_max_utilization", "mean_response_sec", "response_p99_sec"}) {
      EXPECT_EQ(count_of(json, std::string("\"") + key + "\":null"), nulls) << key;
    }
    const auto domains = static_cast<std::size_t>(cfg.num_domains);
    for (const char* key : {"p50_sec", "p95_sec", "p99_sec", "mean_sec"}) {
      EXPECT_EQ(count_of(json, std::string("\"") + key + "\":null"), nulls * domains) << key;
    }
    EXPECT_EQ(count_of(json, ":null"), nulls * (7 + 4 * domains));
    EXPECT_EQ(count_of(json, "\"pages\":"), domains);
  }
}

TEST(RunnerJson, EmptyResultDoesNotCrashAndEmitsEmptyArray) {
  const experiment::ReplicatedResult empty;
  const std::string json = experiment::to_json(tiny_config(), empty);
  EXPECT_NE(json.find("\"replications\":0"), std::string::npos);
  EXPECT_NE(json.find("\"mean_server_utilization\":[]"), std::string::npos);
}

TEST(RunnerJson, EscapesQuotesAndBackslashes) {
  EXPECT_EQ(experiment::json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(experiment::json_escape("plain"), "plain");
}

TEST(RunnerJson, EscapesControlCharacters) {
  EXPECT_EQ(experiment::json_escape("a\nb"), "a\\nb");
  EXPECT_EQ(experiment::json_escape("a\tb"), "a\\tb");
  EXPECT_EQ(experiment::json_escape("a\rb"), "a\\rb");
  EXPECT_EQ(experiment::json_escape("a\bb"), "a\\bb");
  EXPECT_EQ(experiment::json_escape("a\fb"), "a\\fb");
  EXPECT_EQ(experiment::json_escape(std::string("a\x01z")), "a\\u0001z");
  EXPECT_EQ(experiment::json_escape(std::string("\x1f")), "\\u001f");
}

TEST(RunnerJson, PolicyNameWithControlCharsProducesValidJson) {
  experiment::SimulationConfig cfg = tiny_config();
  const experiment::ReplicatedResult empty;
  cfg.policy = "bad\nname\t\"quoted\"";
  const std::string json = experiment::to_json(cfg, empty);
  // No raw control bytes may survive into the serialized document.
  for (char c : json) EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
  EXPECT_NE(json.find("\"policy\":\"bad\\nname\\t\\\"quoted\\\"\""), std::string::npos);
}

}  // namespace
