// Property-based suites (parameterized gtest): invariants that must hold
// for EVERY scheduling algorithm, heterogeneity level and domain count —
// scheduler validity, TTL positivity/calibration, and monotonicity of the
// class structure. Randomized-config invariants (conservation laws, TTL
// fairness, NS coherence, crash accounting) live in tests/proptest/.
#include <gtest/gtest.h>

#include "core/policy_factory.h"
#include "core/ttl_policy.h"
#include "sim/random.h"
#include "web/cluster.h"

namespace adattl {
namespace {

// ---------------------------------------------------------------------
// Property 1: every paper policy, at every heterogeneity level, always
// returns a valid decision with a positive TTL, and never selects an
// alarmed server while a non-alarmed one exists.
// ---------------------------------------------------------------------

// gtest prints a parameter without a PrintTo as its raw bytes, and
// gtest_discover_tests puts that text into every ctest name. So the case
// holds no pointer (a std::string holds an address ASLR moves) and no byte
// left unset: its 40 bytes, and so the test names, are the same in every
// build.
struct SchedulerCase {
  char policy[36];
  int het_level;
};

SchedulerCase scheduler_case(const std::string& policy, int het_level) {
  SchedulerCase c{};  // zero-fills the name's tail
  policy.copy(c.policy, sizeof(c.policy) - 1);
  c.het_level = het_level;
  return c;
}

class SchedulerInvariants : public ::testing::TestWithParam<SchedulerCase> {};

TEST_P(SchedulerInvariants, DecisionsAreAlwaysValid) {
  const auto& [policy, het] = GetParam();
  sim::Simulator simulator;
  sim::RngStream rng(5);
  const web::ClusterSpec spec = web::table2_cluster(het);
  core::AlarmRegistry alarms(spec.size(), 0.9);
  core::SchedulerFactoryConfig fc;
  fc.capacities = spec.absolute_capacities();
  fc.initial_weights = sim::ZipfDistribution(20, 1.0).probabilities();
  fc.class_threshold = 1.0 / 20;
  core::SchedulerBundle b = core::make_scheduler(policy, fc, alarms, simulator, rng);

  sim::RngStream domain_picker(17);
  for (int i = 0; i < 2000; ++i) {
    const int d = static_cast<int>(domain_picker.uniform_int(0, 19));
    const core::Decision dec = b.scheduler->schedule(d);
    ASSERT_GE(dec.server, 0);
    ASSERT_LT(dec.server, spec.size());
    ASSERT_GT(dec.ttl_sec, 0.0);
    ASSERT_LT(dec.ttl_sec, 24.0 * 3600.0);  // sane upper bound: < 1 day
  }
}

TEST_P(SchedulerInvariants, AlarmedServersAvoided) {
  const auto& [policy, het] = GetParam();
  sim::Simulator simulator;
  sim::RngStream rng(6);
  const web::ClusterSpec spec = web::table2_cluster(het);
  core::AlarmRegistry alarms(spec.size(), 0.9);
  core::SchedulerFactoryConfig fc;
  fc.capacities = spec.absolute_capacities();
  fc.initial_weights = sim::ZipfDistribution(20, 1.0).probabilities();
  fc.class_threshold = 1.0 / 20;
  core::SchedulerBundle b = core::make_scheduler(policy, fc, alarms, simulator, rng);

  // Alarm the last two servers.
  std::vector<double> utils(static_cast<std::size_t>(spec.size()), 0.5);
  utils[static_cast<std::size_t>(spec.size() - 1)] = 0.99;
  utils[static_cast<std::size_t>(spec.size() - 2)] = 0.99;
  alarms.observe(8.0, utils);

  for (int i = 0; i < 500; ++i) {
    const core::Decision dec = b.scheduler->schedule(i % 20);
    ASSERT_LT(dec.server, spec.size() - 2) << policy;
  }
}

std::vector<SchedulerCase> all_scheduler_cases() {
  std::vector<SchedulerCase> cases;
  std::vector<std::string> names = core::paper_policy_names();
  // Extension baselines obey the same invariants as the paper's set.
  for (const char* extra : {"WRR", "MRL", "RR3", "RRK", "RR4-TTL/K", "RRK-TTL/S_K",
                            "WRR-TTL/K", "MRL-TTL/2"}) {
    names.emplace_back(extra);
  }
  for (const std::string& p : names) {
    for (int het : {0, 20, 50, 65}) cases.push_back(scheduler_case(p, het));
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllPoliciesAllLevels, SchedulerInvariants,
                         ::testing::ValuesIn(all_scheduler_cases()),
                         [](const ::testing::TestParamInfo<SchedulerCase>& info) {
                           std::string n = std::string(info.param.policy) + "_het" +
                                           std::to_string(info.param.het_level);
                           for (char& c : n) {
                             if (c == '-' || c == '/') c = '_';
                           }
                           return n;
                         });

// ---------------------------------------------------------------------
// Property 1b: the full name grammar — every selection kind composed with
// every TTL flavour builds and produces valid decisions (GEO gets its
// required geo model).
// ---------------------------------------------------------------------

class GrammarSweep : public ::testing::TestWithParam<std::string> {};

TEST_P(GrammarSweep, EveryCombinationBuildsAndSchedules) {
  sim::Simulator simulator;
  sim::RngStream rng(77);
  const web::ClusterSpec spec = web::table2_cluster(35);
  core::AlarmRegistry alarms(spec.size(), 0.9);
  core::SchedulerFactoryConfig fc;
  fc.capacities = spec.absolute_capacities();
  fc.initial_weights = sim::ZipfDistribution(20, 1.0).probabilities();
  fc.class_threshold = 1.0 / 20;
  fc.geo = std::make_shared<const geo::GeoModel>(
      geo::GeoModel::regions(20, spec.size(), 3, 0.02, 0.15));
  core::SchedulerBundle b = core::make_scheduler(GetParam(), fc, alarms, simulator, rng);
  // The scheduler reports the canonical spelling (e.g. "RR-TTL/S_K" is the
  // paper's "DRR-TTL/S_K"); round-tripping the canonical name is identity.
  const std::string canonical = core::parse_policy_name(GetParam()).canonical_name();
  EXPECT_EQ(b.scheduler->name(), canonical);
  EXPECT_EQ(core::parse_policy_name(canonical).canonical_name(), canonical);
  for (int d = 0; d < 20; ++d) {
    const core::Decision dec = b.scheduler->schedule(d);
    ASSERT_GE(dec.server, 0);
    ASSERT_LT(dec.server, spec.size());
    ASSERT_GT(dec.ttl_sec, 0.0);
  }
}

std::vector<std::string> grammar_cases() {
  std::vector<std::string> names;
  const char* selections[] = {"RR", "RR2", "RR3", "RRK", "PRR", "PRR2", "WRR", "DAL",
                              "MRL", "GEO"};
  const char* ttls[] = {"", "-TTL/1", "-TTL/2", "-TTL/3", "-TTL/K",
                        "-TTL/S_1", "-TTL/S_2", "-TTL/S_K"};
  for (const char* sel : selections) {
    for (const char* ttl : ttls) names.push_back(std::string(sel) + ttl);
  }
  // The paper's deterministic spellings.
  for (const char* n : {"DRR-TTL/S_1", "DRR-TTL/S_2", "DRR-TTL/S_K", "DRR2-TTL/S_1",
                        "DRR2-TTL/S_2", "DRR2-TTL/S_K"}) {
    names.emplace_back(n);
  }
  return names;
}

INSTANTIATE_TEST_SUITE_P(FullGrammar, GrammarSweep, ::testing::ValuesIn(grammar_cases()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string n = info.param;
                           for (char& c : n) {
                             if (c == '-' || c == '/') c = '_';
                           }
                           return n;
                         });

// ---------------------------------------------------------------------
// Property 2: TTL calibration parity holds for every adaptive policy
// across domain counts and heterogeneity levels.
// ---------------------------------------------------------------------

struct TtlCase {
  int num_domains;
  int het_level;
  int classes;
  bool server_term;
};

class TtlCalibrationProperty : public ::testing::TestWithParam<TtlCase> {};

TEST_P(TtlCalibrationProperty, AddressRateEqualsConstantPolicy) {
  const auto& [k, het, classes, server_term] = GetParam();
  core::DomainModel model(sim::ZipfDistribution(k, 1.0).probabilities(), 1.0 / k);
  const web::ClusterSpec spec = web::table2_cluster(het);
  const std::vector<double> caps = spec.absolute_capacities();
  const std::vector<double> shares(caps.size(), 1.0 / static_cast<double>(caps.size()));
  core::AdaptiveTtlPolicy policy(model, caps, classes, server_term, shares, 240.0);
  EXPECT_NEAR(policy.expected_address_rate(), k / 240.0, 1e-9);

  // TTLs must be positive and bounded for every (domain, server) pair.
  for (int d = 0; d < k; ++d) {
    for (std::size_t s = 0; s < caps.size(); ++s) {
      const double t = policy.ttl(d, static_cast<int>(s));
      ASSERT_GT(t, 0.0);
      ASSERT_LT(t, 100000.0);
    }
  }
}

std::vector<TtlCase> all_ttl_cases() {
  std::vector<TtlCase> cases;
  for (int k : {10, 20, 50, 100}) {
    for (int het : {0, 35, 65}) {
      for (int classes : {1, 2, 3, core::kPerDomainClasses}) {
        for (bool st : {false, true}) cases.push_back({k, het, classes, st});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(DomainsByHetByClasses, TtlCalibrationProperty,
                         ::testing::ValuesIn(all_ttl_cases()),
                         [](const ::testing::TestParamInfo<TtlCase>& info) {
                           const auto& p = info.param;
                           return "K" + std::to_string(p.num_domains) + "_het" +
                                  std::to_string(p.het_level) + "_c" +
                                  (p.classes == core::kPerDomainClasses
                                       ? std::string("K")
                                       : std::to_string(p.classes)) +
                                  (p.server_term ? "_S" : "_noS");
                         });

// ---------------------------------------------------------------------
// Property 3 (conservation laws of a full simulation) moved to
// tests/proptest/proptest_conservation.cpp, which runs the shared
// checker in tests/proptest/invariants.h on both the representative
// policy subset and fully randomized configurations.
// ---------------------------------------------------------------------

// ---------------------------------------------------------------------
// Property 4: domain partitions are weight-monotone for any class count.
// ---------------------------------------------------------------------

class PartitionMonotonicity : public ::testing::TestWithParam<int> {};

TEST_P(PartitionMonotonicity, HeavierDomainsNeverColder) {
  const int classes = GetParam();
  core::DomainModel m(sim::ZipfDistribution(30, 1.0).probabilities(), 1.0 / 30);
  const std::vector<int> cls = m.partition(classes);
  for (int d = 1; d < 30; ++d) {
    EXPECT_LE(cls[static_cast<std::size_t>(d - 1)], cls[static_cast<std::size_t>(d)])
        << "classes=" << classes;
  }
}

INSTANTIATE_TEST_SUITE_P(ClassCounts, PartitionMonotonicity,
                         ::testing::Values(1, 2, 3, 4, 5, 8, 16, 30,
                                           core::kPerDomainClasses));

}  // namespace
}  // namespace adattl
