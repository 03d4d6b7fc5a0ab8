// The ADATTL_* environment defaults: values read by the number and integer
// grammars of sim/text.h (garbage falls back to the default instead of
// silently becoming 0), clamping in 64 bits, and the knobs built on top
// (ADATTL_REPLICATIONS, ADATTL_DURATION_SEC, ADATTL_JOBS).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>

#include "experiment/env_config.h"
#include "experiment/parallel_executor.h"
#include "experiment/runner.h"
#include "sim/text.h"

using namespace adattl;

namespace {

// setenv/unsetenv scoped helper so tests can't leak state into each other.
class EnvVar {
 public:
  explicit EnvVar(const char* name) : name_(name) { unsetenv(name_); }
  ~EnvVar() { unsetenv(name_); }
  void set(const char* value) { setenv(name_, value, 1); }

 private:
  const char* name_;
};

TEST(EnvConfig, NumberGrammarAcceptsPlainNumbers) {
  EXPECT_EQ(text::parse_number("12"), 12.0);
  EXPECT_EQ(text::parse_number("3.5"), 3.5);
  EXPECT_EQ(text::parse_number("1e3"), 1000.0);
  EXPECT_EQ(text::parse_number("-7"), -7.0);
  // Non-finite values pass the grammar; each reader judges them (the env
  // defaults fall back, see EnvDoubleFallsBackAndClamps).
  EXPECT_TRUE(std::isnan(text::parse_number("nan").value()));
  EXPECT_TRUE(std::isinf(text::parse_number("inf").value()));
}

TEST(EnvConfig, NumberGrammarRejectsGarbage) {
  EXPECT_FALSE(text::parse_number(""));
  EXPECT_FALSE(text::parse_number("abc"));
  EXPECT_FALSE(text::parse_number("12abc"));  // trailing junk
  EXPECT_FALSE(text::parse_number("12 "));
  EXPECT_FALSE(text::parse_number(" 12"));
  EXPECT_FALSE(text::parse_number("1e400"));   // strtod's ERANGE
  EXPECT_FALSE(text::parse_number("1e-400"));
}

TEST(EnvConfig, EnvDoubleFallsBackAndClamps) {
  EnvVar var("ADATTL_TEST_KNOB");
  EXPECT_EQ(experiment::env_double("ADATTL_TEST_KNOB", 5.0, 0.0, 10.0), 5.0);  // unset
  var.set("7.5");
  EXPECT_EQ(experiment::env_double("ADATTL_TEST_KNOB", 5.0, 0.0, 10.0), 7.5);
  var.set("99");
  EXPECT_EQ(experiment::env_double("ADATTL_TEST_KNOB", 5.0, 0.0, 10.0), 10.0);  // clamped
  var.set("-4");
  EXPECT_EQ(experiment::env_double("ADATTL_TEST_KNOB", 5.0, 0.0, 10.0), 0.0);
  var.set("garbage");
  EXPECT_EQ(experiment::env_double("ADATTL_TEST_KNOB", 5.0, 0.0, 10.0), 5.0);  // rejected
  for (const char* non_finite : {"inf", "-inf", "nan"}) {
    var.set(non_finite);
    EXPECT_EQ(experiment::env_double("ADATTL_TEST_KNOB", 5.0, 0.0, 10.0), 5.0) << non_finite;
  }
  var.set("");
  EXPECT_EQ(experiment::env_double("ADATTL_TEST_KNOB", 5.0, 0.0, 10.0), 5.0);
}

TEST(EnvConfig, EnvIntRejectsFractionsAndGarbage) {
  EnvVar var("ADATTL_TEST_KNOB");
  var.set("7");
  EXPECT_EQ(experiment::env_int("ADATTL_TEST_KNOB", 3, 1, 30), 7);
  var.set("3.5");
  EXPECT_EQ(experiment::env_int("ADATTL_TEST_KNOB", 3, 1, 30), 3);  // not an integer
  var.set("0junk");
  EXPECT_EQ(experiment::env_int("ADATTL_TEST_KNOB", 3, 1, 30), 3);  // NOT silently 0
  var.set("100");
  EXPECT_EQ(experiment::env_int("ADATTL_TEST_KNOB", 3, 1, 30), 30);  // clamped
  // Integers only: no fraction, exponent or hex spelling of one.
  for (const char* not_integer : {"4.0", "1e3", "0x10", " 4", "4 ", "nan", "inf"}) {
    var.set(not_integer);
    EXPECT_EQ(experiment::env_int("ADATTL_TEST_KNOB", 3, 1, 30), 3) << not_integer;
  }
  // Clamped in 64 bits, before the value narrows to int.
  var.set("4000000000");
  EXPECT_EQ(experiment::env_int("ADATTL_TEST_KNOB", 3, 1, 30), 30);
  var.set("-4000000000");
  EXPECT_EQ(experiment::env_int("ADATTL_TEST_KNOB", 3, 1, 30), 1);
  var.set("99999999999999999999");  // past 64 bits: malformed, not clamped
  EXPECT_EQ(experiment::env_int("ADATTL_TEST_KNOB", 3, 1, 30), 3);
}

TEST(EnvConfig, DefaultReplicationsKnob) {
  EnvVar var("ADATTL_REPLICATIONS");
  EXPECT_EQ(experiment::default_replications(), 3);  // unset: the paper's 3
  var.set("10");
  EXPECT_EQ(experiment::default_replications(), 10);
  var.set("1000");
  EXPECT_EQ(experiment::default_replications(), 30);  // clamped to [1, 30]
  var.set("junk");
  EXPECT_EQ(experiment::default_replications(), 3);
  var.set("99999999999");
  EXPECT_EQ(experiment::default_replications(), 30);
}

TEST(EnvConfig, DefaultDurationKnob) {
  EnvVar var("ADATTL_DURATION_SEC");
  EXPECT_EQ(experiment::default_duration_sec(), 18000.0);  // the paper's 5 h
  var.set("600");
  EXPECT_EQ(experiment::default_duration_sec(), 600.0);
  var.set("1");
  EXPECT_EQ(experiment::default_duration_sec(), 600.0);  // clamped up
  var.set("5 hours");
  EXPECT_EQ(experiment::default_duration_sec(), 18000.0);  // rejected
}

TEST(EnvConfig, DefaultJobsKnob) {
  EnvVar var("ADATTL_JOBS");
  const int unset = experiment::default_jobs();  // hardware_concurrency
  EXPECT_GE(unset, 1);
  var.set("3");
  EXPECT_EQ(experiment::default_jobs(), 3);
  var.set("0");
  EXPECT_EQ(experiment::default_jobs(), 1);  // clamped to >= 1
  var.set("4000000000");
  EXPECT_EQ(experiment::default_jobs(), 512);  // clamped to <= 512, not wrapped
  for (const char* malformed : {"junk", "4.0", "1e3", "0x10"}) {
    var.set(malformed);
    EXPECT_EQ(experiment::default_jobs(), unset) << malformed;  // rejected, falls back
  }
}

}  // namespace
