#include "experiment/scenario_file.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "experiment/cli.h"

namespace adattl::experiment {
namespace {

TEST(ScenarioText, ParsesKeysValuesCommentsBlanks) {
  const std::vector<std::string> args = scenario_text_to_args(
      "# a comment\n"
      "policy = DRR2-TTL/S_K\n"
      "\n"
      "  heterogeneity = 50   # trailing comment\n"
      "min-ttl=60\n");
  EXPECT_EQ(args, (std::vector<std::string>{"--policy=DRR2-TTL/S_K", "--heterogeneity=50",
                                            "--min-ttl=60"}));
}

TEST(ScenarioText, BooleansPassThroughExplicitly) {
  // `key = false` must survive translation (it used to be silently
  // dropped, making default-on knobs impossible to disable from a file).
  const std::vector<std::string> args = scenario_text_to_args(
      "uniform = true\n"
      "measured = false\n"
      "client-cache = true\n");
  EXPECT_EQ(args, (std::vector<std::string>{"--uniform=true", "--measured=false",
                                            "--client-cache=true"}));
}

TEST(ScenarioText, FalseTurnsOffDefaultOnKnob) {
  const CliOptions opt = parse_cli(scenario_text_to_args("calibration = false\n"));
  EXPECT_FALSE(opt.config.calibrate_ttl);
}

TEST(ScenarioText, HashInsideValueIsNotAComment) {
  // Only '#' at the start of a line or preceded by whitespace begins a
  // comment; an embedded '#' (e.g. a fault-file path) is part of the value.
  const std::vector<std::string> args = scenario_text_to_args(
      "faults = chaos#1.faults\n"
      "policy = RR # real comment\n"
      "# full-line comment\n");
  EXPECT_EQ(args, (std::vector<std::string>{"--faults=chaos#1.faults", "--policy=RR"}));
}

TEST(ScenarioText, RepeatableKeys) {
  const std::vector<std::string> args = scenario_text_to_args(
      "shift = 600:3:5\n"
      "shift = 900:4:2\n");
  EXPECT_EQ(args.size(), 2u);
}

TEST(ScenarioText, ErrorsCarryLineNumbers) {
  try {
    scenario_text_to_args("policy = RR\nbogus line without equals\n");
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos) << e.what();
  }
  EXPECT_THROW(scenario_text_to_args("= value\n"), std::invalid_argument);
  EXPECT_THROW(scenario_text_to_args("key =\n"), std::invalid_argument);
  EXPECT_THROW(scenario_text_to_args("key = # only a comment\n"), std::invalid_argument);
}

TEST(ScenarioText, EmptyTextGivesNoArgs) {
  EXPECT_TRUE(scenario_text_to_args("").empty());
  EXPECT_TRUE(scenario_text_to_args("# nothing\n\n").empty());
}

TEST(ScenarioFile, LoadAndParseThroughCli) {
  const std::string path = ::testing::TempDir() + "/adattl_scenario_test.scenario";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("policy = PRR2-TTL/K\nheterogeneity = 65\nreplications = 4\n", f);
  std::fclose(f);

  const CliOptions opt = parse_cli({"--config=" + path});
  std::remove(path.c_str());
  EXPECT_EQ(opt.config.policy, "PRR2-TTL/K");
  EXPECT_NEAR(opt.config.cluster.heterogeneity_percent(), 65.0, 1e-9);
  EXPECT_EQ(opt.replications, 4);
}

TEST(ScenarioFile, CommandLineOverridesFile) {
  const std::string path = ::testing::TempDir() + "/adattl_scenario_override.scenario";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("policy = RR\nseed = 1\n", f);
  std::fclose(f);

  const CliOptions opt = parse_cli({"--config=" + path, "--policy=DAL"});
  std::remove(path.c_str());
  EXPECT_EQ(opt.config.policy, "DAL");
  EXPECT_EQ(opt.config.seed, 1u);
}

TEST(ScenarioFile, MissingFileThrows) {
  EXPECT_THROW(parse_cli({"--config=/nonexistent/nope.scenario"}), std::runtime_error);
  EXPECT_THROW(parse_cli({"--config="}), std::invalid_argument);
}

TEST(ScenarioFile, NestedConfigRejected) {
  const std::string path = ::testing::TempDir() + "/adattl_scenario_nested.scenario";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("config = other.scenario\n", f);
  std::fclose(f);
  EXPECT_THROW(parse_cli({"--config=" + path}), std::invalid_argument);
  std::remove(path.c_str());
}

TEST(ScenarioFile, ShippedScenariosParse) {
  // The scenarios/ directory must stay valid.
  const CliOptions opt = parse_cli(
      {std::string("--config=") + ADATTL_SOURCE_DIR + "/scenarios/paper_default.scenario"});
  EXPECT_EQ(opt.config.policy, "DRR2-TTL/S_K");
}

}  // namespace
}  // namespace adattl::experiment
