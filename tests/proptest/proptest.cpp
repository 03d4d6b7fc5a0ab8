#include "proptest.h"

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <stdexcept>

namespace adattl::proptest {
namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Strict unsigned env parse; throws on junk so a typo'd knob fails loudly
/// instead of silently running the default budget.
bool env_u64(const char* name, std::uint64_t* out) {
  const char* v = std::getenv(name);
  if (!v || !*v) return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long parsed = std::strtoull(v, &end, 10);
  if (errno != 0 || end == v || *end != '\0') {
    throw std::invalid_argument(std::string(name) + ": expected an unsigned integer, got '" +
                                v + "'");
  }
  *out = parsed;
  return true;
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int iterations(int local_default) {
  std::uint64_t pinned = 0;
  if (env_u64("ADATTL_PROPERTY_SEED", &pinned)) return 1;
  std::uint64_t iters = 0;
  if (env_u64("ADATTL_PROPERTY_ITERS", &iters)) {
    if (iters < 1) throw std::invalid_argument("ADATTL_PROPERTY_ITERS: must be >= 1");
    return static_cast<int>(iters);
  }
  return local_default;
}

std::uint64_t case_seed(const std::string& suite, int iteration) {
  std::uint64_t base = 0;
  env_u64("ADATTL_PROPERTY_BASE_SEED", &base);
  return splitmix64(fnv1a(suite) ^ splitmix64(base) ^
                    splitmix64(static_cast<std::uint64_t>(iteration) + 1));
}

std::string GeneratedConfig::command_line() const {
  std::string out = "run_scenario";
  for (const std::string& f : flags) out += " " + f;
  return out;
}

std::string GeneratedConfig::scenario_text() const {
  return experiment::ParamRegistry::instance().dump_scenario(resolution);
}

std::string ConfigGen::draw_policy_name() {
  static const char* kSelections[] = {"RR",  "RR2", "RR3", "RRK", "PRR",
                                      "PRR2", "WRR", "DAL", "MRL", "GEO"};
  static const char* kTtls[] = {"",       "-TTL/1",   "-TTL/2",   "-TTL/3",
                                "-TTL/K", "-TTL/S_1", "-TTL/S_2", "-TTL/S_K"};
  const auto sel = static_cast<std::size_t>(rng_.uniform_int(0, 9));
  const auto ttl = static_cast<std::size_t>(rng_.uniform_int(0, 7));
  return std::string(kSelections[sel]) + kTtls[ttl];
}

GeneratedConfig ConfigGen::draw(Profile profile) {
  std::vector<std::string> f;
  const auto flag = [&](const std::string& k, const std::string& v) {
    f.push_back("--" + k + "=" + v);
  };
  const auto fd = [&](const std::string& k, double v) { flag(k, fmt(v)); };
  const auto fi = [&](const std::string& k, std::int64_t v) { flag(k, std::to_string(v)); };

  // ---- cluster: a Table 2 preset or a random non-increasing profile ----
  int servers = 7;
  if (rng_.bernoulli(0.5)) {
    static const int kLevels[] = {0, 20, 35, 50, 65};
    fi("heterogeneity", kLevels[rng_.uniform_int(0, 4)]);
  } else {
    servers = static_cast<int>(rng_.uniform_int(3, 10));
    std::string rel = "1";
    double cur = 1.0;
    for (int s = 1; s < servers; ++s) {
      if (rng_.bernoulli(0.4)) cur = std::max(0.3, cur * rng_.uniform(0.6, 1.0));
      rel += ',';
      rel += fmt(cur);
    }
    flag("relative", rel);
  }

  // ---- workload: small populations so 100 cases stay in seconds; the
  // capacity scales with the population so utilization stays moderate ----
  const int clients = static_cast<int>(rng_.uniform_int(30, 150));
  fi("clients", clients);
  fd("total-capacity", clients * rng_.uniform(0.8, 1.8));
  const int domains = static_cast<int>(rng_.uniform_int(5, 40));
  fi("domains", domains);
  fd("think", rng_.uniform(3.0, 20.0));
  fd("zipf-theta", rng_.uniform(0.5, 1.4));
  if (rng_.bernoulli(0.15)) flag("uniform", "true");
  if (rng_.bernoulli(0.25)) fd("error", rng_.uniform(5.0, 30.0));

  // ---- algorithm ----
  const std::string policy = draw_policy_name();
  flag("policy", policy);
  if (policy.rfind("GEO", 0) == 0 || rng_.bernoulli(0.15)) {
    fi("geo-regions", rng_.uniform_int(2, 4));
    const double intra = rng_.uniform(0.005, 0.05);
    fd("geo-intra", intra);
    fd("geo-inter", intra + rng_.uniform(0.02, 0.2));
  }
  fd("ttl", rng_.uniform(30.0, 600.0));
  if (rng_.bernoulli(0.3)) fd("class-threshold", rng_.uniform(0.02, 0.2));
  if (rng_.bernoulli(0.1)) flag("calibration", "false");
  if (rng_.bernoulli(0.2)) {
    flag("alarm", "false");
  } else {
    fd("alarm-threshold", rng_.uniform(0.7, 0.95));
    if (rng_.bernoulli(0.3)) fi("queue-alarm", rng_.uniform_int(20, 60));
  }
  fd("monitor-interval", rng_.uniform(2.0, 16.0));

  // ---- estimation ----
  if (rng_.bernoulli(0.3)) {
    flag("measured", "true");
    flag("estimator", rng_.bernoulli(0.5) ? "ewma" : "window");
    if (rng_.bernoulli(0.5)) fd("estimator-smoothing", rng_.uniform(0.1, 0.9));
    if (rng_.bernoulli(0.3)) flag("cold-start", "true");
  }

  // ---- resolvers ----
  if (rng_.bernoulli(0.3)) fd("min-ttl", rng_.uniform(5.0, 60.0));
  fi("ns-per-domain", rng_.uniform_int(1, 3));
  if (rng_.bernoulli(0.25)) flag("client-cache", "true");

  // ---- redirection ----
  if (rng_.bernoulli(0.15)) {
    flag("redirect", "true");
    fd("redirect-wait", rng_.uniform(0.5, 3.0));
  }

  // ---- run control ----
  const double warmup = rng_.uniform(20.0, 60.0);
  const double duration = rng_.uniform(120.0, 400.0);
  fd("warmup", warmup);
  fd("duration", duration);
  flag("seed", std::to_string(rng_.next_u64()));

  // ---- dynamics: an occasional scripted flash crowd ----
  if (rng_.bernoulli(0.2)) {
    flag("shift", fmt(rng_.uniform(0.0, warmup + duration)) + ":" +
                      std::to_string(rng_.uniform_int(0, domains - 1)) + ":" +
                      fmt(rng_.uniform(1.5, 6.0)));
  }

  if (profile == Profile::kFaulted) {
    const double horizon = warmup + duration;
    const auto window_start = [&] { return rng_.uniform(0.0, horizon * 0.85); };
    // Crashes target distinct servers so at least one stays alive even if
    // every window overlaps (the DNS must always have somewhere to point).
    const int max_crashes = std::min<int>(3, servers - 1);
    const int crashes = static_cast<int>(rng_.uniform_int(1, max_crashes));
    std::vector<int> order(static_cast<std::size_t>(servers));
    for (int s = 0; s < servers; ++s) order[static_cast<std::size_t>(s)] = s;
    for (int s = servers - 1; s > 0; --s) {
      std::swap(order[static_cast<std::size_t>(s)],
                order[static_cast<std::size_t>(rng_.uniform_int(0, s))]);
    }
    for (int c = 0; c < crashes; ++c) {
      flag("crash", fmt(window_start()) + ":" + fmt(rng_.uniform(10.0, 80.0)) + ":" +
                        std::to_string(order[static_cast<std::size_t>(c)]));
    }
    const int degrades = static_cast<int>(rng_.uniform_int(0, 2));
    for (int d = 0; d < degrades; ++d) {
      flag("degrade", fmt(window_start()) + ":" + fmt(rng_.uniform(10.0, 120.0)) + ":" +
                          std::to_string(rng_.uniform_int(0, servers - 1)) + ":" +
                          fmt(rng_.uniform(0.2, 1.5)));
    }
    const int pauses = static_cast<int>(rng_.uniform_int(0, 2));
    for (int p = 0; p < pauses; ++p) {
      flag("pause", fmt(window_start()) + ":" + fmt(rng_.uniform(10.0, 60.0)) + ":" +
                        std::to_string(rng_.uniform_int(0, servers - 1)));
    }
    const int outages = static_cast<int>(rng_.uniform_int(0, 2));
    for (int o = 0; o < outages; ++o) {
      flag("dns-outage", fmt(window_start()) + ":" + fmt(rng_.uniform(10.0, 60.0)));
    }
    fd("retry-delay", rng_.uniform(0.2, 2.0));
    const double backoff = rng_.uniform(0.5, 2.0);
    fd("ns-retry-backoff", backoff);
    fd("ns-retry-max-backoff", backoff * rng_.uniform(2.0, 30.0));
  }

  GeneratedConfig gc;
  gc.flags = std::move(f);
  gc.resolution = experiment::ParamRegistry::instance().resolve_flags(gc.flags);
  return gc;
}

namespace {

void report_failure(const std::string& suite, const PropertyCase& pc) {
  std::cerr << "\n[proptest] property FAILED: suite=" << suite << " seed=" << pc.seed
            << "\n[proptest] replay this exact case with:\n"
            << "[proptest]   ADATTL_PROPERTY_SEED=" << pc.seed
            << " ctest --test-dir build -R " << suite << " --output-on-failure\n";
  if (pc.attached.has_value()) {
    std::cerr << "[proptest] generated config (one-command repro):\n"
              << "[proptest]   " << pc.attached->command_line() << "\n"
              << "[proptest] repro scenario (--dump-config form):\n"
              << pc.attached->scenario_text();
    const char* dir = std::getenv("ADATTL_PROPERTY_DUMP_DIR");
    if (dir && *dir) {
      std::error_code ec;
      std::filesystem::create_directories(dir, ec);
      const std::string path =
          std::string(dir) + "/" + suite + "-seed" + std::to_string(pc.seed) + ".scenario";
      std::ofstream out(path);
      if (out) {
        out << "# " << suite << " failure, seed " << pc.seed << "\n"
            << "# replay: ADATTL_PROPERTY_SEED=" << pc.seed << " ctest -R " << suite << "\n"
            << pc.attached->scenario_text();
        std::cerr << "[proptest] wrote repro scenario: " << path << "\n";
      } else {
        std::cerr << "[proptest] could not write repro scenario to " << path << "\n";
      }
    }
  }
  std::cerr.flush();
}

}  // namespace

void for_each_case(const std::string& suite, int local_default_iters,
                   const std::function<void(PropertyCase&)>& body) {
  std::uint64_t pinned = 0;
  const bool has_pin = env_u64("ADATTL_PROPERTY_SEED", &pinned);
  const int iters = iterations(local_default_iters);
  for (int i = 0; i < iters; ++i) {
    PropertyCase pc(has_pin ? pinned : case_seed(suite, i));
    SCOPED_TRACE(suite + " case seed " + std::to_string(pc.seed) +
                 " (replay: ADATTL_PROPERTY_SEED=" + std::to_string(pc.seed) + ")");
    body(pc);
    if (::testing::Test::HasFatalFailure() || ::testing::Test::HasNonfatalFailure()) {
      report_failure(suite, pc);
      return;  // first failing seed is the repro; don't spam 99 more
    }
  }
}

}  // namespace adattl::proptest
