#include "experiment/param_registry.h"

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "core/policy_factory.h"
#include "experiment/scenario_file.h"
#include "fault/fault_schedule.h"
#include "workload/domain_set.h"

namespace adattl::experiment {

// Defined in runner.cpp; declared here to avoid a runner.h <-> param_registry.h cycle.
std::string json_escape(const std::string& s);

namespace {

// ---- strict value parsers (shared by CLI, env and scenario layers) ----

[[noreturn]] void bad(const std::string& msg) { throw std::invalid_argument(msg); }

double parse_double_value(const std::string& v) {
  if (v.empty()) bad("expected a number, got ''");
  char* end = nullptr;
  const double out = std::strtod(v.c_str(), &end);
  if (end == v.c_str() || *end != '\0') bad("expected a number, got '" + v + "'");
  if (!std::isfinite(out)) bad("expected a finite number, got '" + v + "'");
  return out;
}

long long parse_int_value(const std::string& v) {
  if (v.empty()) bad("expected an integer, got ''");
  errno = 0;
  char* end = nullptr;
  const long long out = std::strtoll(v.c_str(), &end, 10);
  if (end == v.c_str() || *end != '\0') bad("expected an integer, got '" + v + "'");
  if (errno == ERANGE) bad("integer out of range: '" + v + "'");
  return out;
}

int parse_int32_value(const std::string& v) {
  const long long out = parse_int_value(v);
  if (out < INT_MIN || out > INT_MAX) bad("integer out of range: '" + v + "'");
  return static_cast<int>(out);
}

unsigned long long parse_uint_value(const std::string& v) {
  if (v.empty()) bad("expected a non-negative integer, got ''");
  if (v[0] == '-') bad("expected a non-negative integer, got '" + v + "'");
  errno = 0;
  char* end = nullptr;
  const unsigned long long out = std::strtoull(v.c_str(), &end, 10);
  if (end == v.c_str() || *end != '\0') {
    bad("expected a non-negative integer, got '" + v + "'");
  }
  if (errno == ERANGE) bad("integer out of range: '" + v + "'");
  return out;
}

bool parse_bool_value(const std::string& v) {
  if (v == "true" || v == "1") return true;
  if (v == "false" || v == "0") return false;
  bad("expected true/false, got '" + v + "'");
}

std::vector<double> parse_double_list_value(const std::string& v) {
  std::vector<double> out;
  std::size_t start = 0;
  while (start <= v.size()) {
    const std::size_t comma = v.find(',', start);
    const std::string item =
        v.substr(start, comma == std::string::npos ? std::string::npos : comma - start);
    if (item.empty()) bad("empty list element");
    out.push_back(parse_double_value(item));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

/// Splits a colon-packed spec into exactly `n` fields.
std::vector<std::string> split_colon(const std::string& v, std::size_t n, const char* shape) {
  std::vector<std::string> fields;
  std::size_t start = 0;
  while (start <= v.size()) {
    const std::size_t colon = v.find(':', start);
    fields.push_back(
        v.substr(start, colon == std::string::npos ? std::string::npos : colon - start));
    if (colon == std::string::npos) break;
    start = colon + 1;
  }
  if (fields.size() != n) bad(std::string("expected ") + shape + ", got '" + v + "'");
  return fields;
}

// ---- canonical serialization (dump-config, config JSON, docs) ----

/// Shortest decimal text that parses back to exactly `v`.
std::string fmt_double(double v) {
  char buf[64];
  for (int prec = 15; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

std::string fmt_int(long long v) { return std::to_string(v); }
std::string fmt_uint(unsigned long long v) { return std::to_string(v); }

std::string fmt_double_list(const std::vector<double>& xs) {
  std::string out;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i) out += ",";
    out += fmt_double(xs[i]);
  }
  return out;
}

const char* kind_name(ParamKind kind) {
  switch (kind) {
    case ParamKind::kBool: return "bool";
    case ParamKind::kInt: return "int";
    case ParamKind::kUint: return "uint";
    case ParamKind::kDouble: return "double";
    case ParamKind::kDoubleList: return "double-list";
    case ParamKind::kString: return "string";
    case ParamKind::kSpecList: return "spec-list";
  }
  return "?";
}

std::string derived_env_name(const std::string& name) {
  std::string env = "ADATTL_";
  for (char c : name) {
    env += (c == '-') ? '_' : static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  }
  return env;
}

std::size_t edit_distance(const std::string& a, const std::string& b) {
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diag = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t sub = diag + (a[i - 1] != b[j - 1]);
      diag = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1, sub});
    }
  }
  return row[b.size()];
}

/// Cross-knob constraints: relations between fields that no single spec
/// owns. Per-knob range checks live on the specs themselves.
void cross_validate(const SimulationConfig& c) {
  c.cluster.validate();
  c.session.validate();
  const double clients = c.scaled_clients();
  if (!(clients >= 1.0 && clients <= INT_MAX)) {
    bad("config: --scale: " + fmt_double(c.scale) + " x " + fmt_int(c.total_clients) +
        " clients rounds to a population outside [1, INT_MAX]");
  }
  if (c.rate_perturbation_percent > 0.0) {
    // The perturbation grows the busiest domain's rate and takes the
    // difference from the others, so it must leave them some, over the
    // population the run draws.
    const int n = static_cast<int>(clients);
    const double limit = workload::max_rate_perturbation_percent(
        c.uniform_clients
            ? workload::make_uniform_domains(c.num_domains, n, c.mean_think_sec)
            : workload::make_zipf_domains(c.num_domains, n, c.mean_think_sec, c.zipf_theta));
    if (c.rate_perturbation_percent >= limit) {
      char bound[48] = "0";
      if (limit > 0.0) std::snprintf(bound, sizeof bound, "below %.4g%%", limit);
      bad("config: --error: " + fmt_double(c.rate_perturbation_percent) +
          "% leaves the domains other than the busiest no load; it must be " + bound +
          " for this population");
    }
  }
  for (const workload::RateShift& shift : c.rate_shifts) {
    if (shift.at_sec < 0) bad("config: rate shift in the past");
    if (shift.domain < 0 || shift.domain >= c.num_domains) {
      bad("config: rate shift for unknown domain");
    }
    if (shift.rate_factor <= 0) bad("config: rate shift factor must be > 0");
  }
  try {
    workload::validate_trace(c.trace_events, c.num_domains);
  } catch (const std::invalid_argument& e) {
    bad(std::string("config: ") + e.what());
  }
  c.faults.validate(c.cluster.size());
  if (c.ns_retry_max_backoff_sec < c.ns_retry_initial_backoff_sec) {
    bad("config: NS max backoff must be >= initial");
  }
  if (c.redirect_enabled && c.redirect_max_wait_sec <= 0) {
    bad("config: redirect max wait must be > 0");
  }
  if (c.geo_regions > 0 && (c.geo_intra_rtt_sec < 0 || c.geo_inter_rtt_sec < c.geo_intra_rtt_sec)) {
    bad("config: need 0 <= intra <= inter RTT");
  }
  if (core::policy_requires_geo(c.policy) && c.geo_regions == 0) {
    bad("config: the GEO/COST/COSTCAP policies need geo_regions > 0");
  }
  if (c.autoscale_enabled) {
    if (!(c.autoscale_low_watermark >= 0.0 &&
          c.autoscale_low_watermark < c.autoscale_high_watermark &&
          c.autoscale_high_watermark <= 1.0)) {
      bad("config: need 0 <= autoscale-low < autoscale-high <= 1");
    }
    if (c.autoscale_min_servers > c.cluster.size()) {
      bad("config: autoscale-min exceeds the cluster size");
    }
  }
  if (c.trace_capacity < 1) bad("config: trace-capacity must be >= 1");
  // Sharded runs replicate the cluster per shard, and a redirecting
  // dispatcher needs global queue knowledge, so it stays on the unsharded
  // path.
  if (c.shard_domains && c.redirect_enabled) {
    bad("config: shard-domains is incompatible with redirection");
  }
}

}  // namespace

const char* param_layer_name(ParamLayer layer) {
  switch (layer) {
    case ParamLayer::kDefault: return "default";
    case ParamLayer::kCode: return "code";
    case ParamLayer::kScenario: return "scenario";
    case ParamLayer::kEnv: return "env";
    case ParamLayer::kCli: return "cli";
  }
  return "?";
}

void ParamRegistry::add(ParamSpec spec) {
  if (spec.env.empty() && spec.scope != ParamScope::kOutput && !spec.repeatable) {
    spec.env = derived_env_name(spec.name);
  }
  if (spec.env == "-") spec.env.clear();  // explicit "no env override" marker
  index_[spec.name] = specs_.size();
  specs_.push_back(std::move(spec));
}

ParamRegistry::ParamRegistry() {
  using C = CliOptions;
  using S = SimulationConfig;

  // Registration helpers: bind a knob of a given kind to a field. Checks
  // are attached per knob so every entry point (CLI, env, scenario file,
  // programmatic SimulationConfig::validate) rejects the same values with
  // the same message.
  auto check_cfg = [](bool (*ok)(const S&), const char* msg) {
    return [ok, msg](const C& o) {
      if (!ok(o.config)) bad(msg);
    };
  };

  auto dbl = [&](const char* name, const char* group, const char* hint, const char* doc,
                 double S::* m, std::function<void(const C&)> check = nullptr) {
    ParamSpec s;
    s.name = name;
    s.kind = ParamKind::kDouble;
    s.group = group;
    s.hint = hint;
    s.doc = doc;
    s.set = [m](C& o, const std::string& v) { o.config.*m = parse_double_value(v); };
    s.get = [m](const C& o) { return fmt_double(o.config.*m); };
    s.check = std::move(check);
    add(std::move(s));
  };
  auto integer = [&](const char* name, const char* group, const char* hint, const char* doc,
                     int S::* m, std::function<void(const C&)> check = nullptr) {
    ParamSpec s;
    s.name = name;
    s.kind = ParamKind::kInt;
    s.group = group;
    s.hint = hint;
    s.doc = doc;
    s.set = [m](C& o, const std::string& v) { o.config.*m = parse_int32_value(v); };
    s.get = [m](const C& o) { return fmt_int(o.config.*m); };
    s.check = std::move(check);
    add(std::move(s));
  };
  auto boolean = [&](const char* name, const char* group, const char* doc, bool S::* m) {
    ParamSpec s;
    s.name = name;
    s.kind = ParamKind::kBool;
    s.group = group;
    s.doc = doc;
    s.set = [m](C& o, const std::string& v) { o.config.*m = parse_bool_value(v); };
    s.get = [m](const C& o) { return o.config.*m ? "true" : "false"; };
    add(std::move(s));
  };

  // ---- workload ----
  integer("domains", "workload", "K", "number of client domains", &S::num_domains,
          check_cfg([](const S& c) { return c.num_domains >= 1; }, "config: need >= 1 domain"));
  integer("clients", "workload", "N", "total client population", &S::total_clients,
          check_cfg([](const S& c) { return c.total_clients >= 1; }, "config: need >= 1 client"));
  dbl("think", "workload", "SEC", "mean client think time between pages", &S::mean_think_sec,
      check_cfg([](const S& c) { return c.mean_think_sec > 0; },
                "config: think time must be > 0"));
  dbl("zipf-theta", "workload", "T", "Zipf skew of clients across domains", &S::zipf_theta,
      check_cfg([](const S& c) { return c.zipf_theta >= 0; },
                "config: zipf theta must be >= 0"));
  boolean("uniform", "workload", "uniform client-per-domain distribution (the paper's Ideal)",
          &S::uniform_clients);
  dbl("error", "workload", "PERCENT", "hidden-load perturbation the DNS is not told about",
      &S::rate_perturbation_percent,
      check_cfg([](const S& c) { return c.rate_perturbation_percent >= 0; },
                "config: perturbation >= 0"));
  dbl("scale", "workload", "X",
      "multiplies clients AND site capacity together (per-client load invariant)",
      &S::scale,
      check_cfg([](const S& c) { return c.scale > 0; }, "config: scale must be > 0"));

  // ---- site ----
  {
    ParamSpec s;
    s.name = "heterogeneity";
    s.kind = ParamKind::kInt;
    s.group = "site";
    s.hint = "0|20|35|50|65";
    s.doc = "Table 2 capacity preset; resolved into relative + total-capacity";
    s.in_dump = false;  // the resolved cluster is dumped via relative/total-capacity
    s.set = [](C& o, const std::string& v) {
      o.config.cluster = web::table2_cluster(parse_int32_value(v));
    };
    // The preset's percent is an integer, but 100·(1 − 0.8) is not exact.
    s.get = [](const C& o) {
      return fmt_int(std::lround(o.config.cluster.heterogeneity_percent()));
    };
    add(std::move(s));
  }
  {
    ParamSpec s;
    s.name = "relative";
    s.kind = ParamKind::kDoubleList;
    s.group = "site";
    s.hint = "1,0.8,...";
    s.doc = "relative server capacities a_i = C_i/C_1, non-increasing";
    s.set = [](C& o, const std::string& v) {
      o.config.cluster.relative = parse_double_list_value(v);
    };
    s.get = [](const C& o) { return fmt_double_list(o.config.cluster.relative); };
    add(std::move(s));
  }
  {
    ParamSpec s;
    s.name = "total-capacity";
    s.kind = ParamKind::kDouble;
    s.group = "site";
    s.hint = "HITS_PER_SEC";
    s.doc = "total site capacity the relative shares scale to";
    s.set = [](C& o, const std::string& v) {
      o.config.cluster.total_capacity_hits_per_sec = parse_double_value(v);
    };
    s.get = [](const C& o) { return fmt_double(o.config.cluster.total_capacity_hits_per_sec); };
    add(std::move(s));
  }

  // ---- algorithm ----
  {
    ParamSpec s;
    s.name = "policy";
    s.kind = ParamKind::kString;
    s.group = "algorithm";
    s.hint = "NAME";
    s.doc =
        "scheduling algorithm (RR, RR2, DAL, MRL, PRR[2]-TTL/..., DRR[2]-TTL/S_..., GEO, "
        "COST(ALPHA), COSTCAP(SEC))";
    s.set = [](C& o, const std::string& v) { o.config.policy = v; };
    s.get = [](const C& o) { return o.config.policy; };
    s.check = [](const C& o) {
      if (o.config.policy.empty()) bad("config: no policy");
      try {
        core::validate_policy_name(o.config.policy);
      } catch (const std::invalid_argument& e) {
        bad(std::string("config: --policy: ") + e.what());
      }
    };
    add(std::move(s));
  }
  dbl("ttl", "algorithm", "SEC", "constant/reference TTL", &S::reference_ttl_sec,
      check_cfg([](const S& c) { return c.reference_ttl_sec > 0; },
                "config: reference TTL must be > 0"));
  dbl("class-threshold", "algorithm", "GAMMA", "hot/normal domain class threshold (0 = 1/K)",
      &S::class_threshold,
      check_cfg([](const S& c) { return c.class_threshold >= 0 && c.class_threshold <= 1; },
                "config: --class-threshold must lie in [0, 1]"));
  boolean("calibration", "algorithm", "address-rate TTL fairness calibration (paper 4.1)",
          &S::calibrate_ttl);
  boolean("alarm", "algorithm", "utilization alarm feedback", &S::alarm_enabled);
  dbl("alarm-threshold", "algorithm", "U", "utilization level that raises an alarm",
      &S::alarm_threshold,
      check_cfg([](const S& c) { return c.alarm_threshold > 0 && c.alarm_threshold <= 1; },
                "config: alarm threshold must lie in (0, 1]"));
  {
    ParamSpec s;
    s.name = "queue-alarm";
    s.kind = ParamKind::kUint;
    s.group = "algorithm";
    s.hint = "PAGES";
    s.doc = "also alarm on queue backlog above this many pages (0 = off; detects outages)";
    s.set = [](C& o, const std::string& v) {
      o.config.alarm_queue_threshold = static_cast<std::size_t>(parse_uint_value(v));
    };
    s.get = [](const C& o) {
      return fmt_uint(static_cast<unsigned long long>(o.config.alarm_queue_threshold));
    };
    add(std::move(s));
  }
  dbl("monitor-interval", "algorithm", "SEC", "server state-collection period",
      &S::monitor_interval_sec,
      check_cfg([](const S& c) { return c.monitor_interval_sec > 0; },
                "config: monitor interval > 0"));

  // ---- estimation ----
  {
    ParamSpec s;
    s.name = "measured";
    s.kind = ParamKind::kBool;
    s.group = "estimation";
    s.doc = "estimate hidden loads online instead of oracle weights";
    s.set = [](C& o, const std::string& v) { o.config.oracle_weights = !parse_bool_value(v); };
    s.get = [](const C& o) { return o.config.oracle_weights ? "false" : "true"; };
    add(std::move(s));
  }
  {
    ParamSpec s;
    s.name = "estimator";
    s.kind = ParamKind::kString;
    s.group = "estimation";
    s.hint = "ewma|window|holt|ar";
    s.doc = "online estimator kind (smoothing, window, predictive level+trend, AR(p))";
    s.set = [](C& o, const std::string& v) {
      if (v == "ewma") {
        o.config.estimator_kind = EstimatorKind::kEwma;
      } else if (v == "window") {
        o.config.estimator_kind = EstimatorKind::kSlidingWindow;
      } else if (v == "holt") {
        o.config.estimator_kind = EstimatorKind::kHoltWinters;
      } else if (v == "ar") {
        o.config.estimator_kind = EstimatorKind::kAr;
      } else {
        bad("expected 'ewma', 'window', 'holt' or 'ar', got '" + v + "'");
      }
    };
    s.get = [](const C& o) {
      switch (o.config.estimator_kind) {
        case EstimatorKind::kEwma: return "ewma";
        case EstimatorKind::kSlidingWindow: return "window";
        case EstimatorKind::kHoltWinters: return "holt";
        case EstimatorKind::kAr: return "ar";
      }
      return "?";
    };
    add(std::move(s));
  }
  dbl("estimator-smoothing", "estimation", "ALPHA", "EWMA / Holt-Winters level smoothing factor",
      &S::estimator_smoothing,
      check_cfg([](const S& c) { return c.estimator_smoothing > 0 && c.estimator_smoothing <= 1; },
                "config: estimator smoothing must lie in (0, 1]"));
  integer("estimator-windows", "estimation", "N", "window count for the sliding-window estimator",
          &S::estimator_window_count,
          check_cfg([](const S& c) { return c.estimator_window_count >= 1; },
                    "config: estimator window count >= 1"));
  dbl("estimator-trend", "estimation", "BETA",
      "Holt-Winters trend smoothing factor (0 = no trend term)", &S::estimator_trend,
      check_cfg([](const S& c) { return c.estimator_trend >= 0 && c.estimator_trend <= 1; },
                "config: estimator trend must lie in [0, 1]"));
  integer("estimator-ar-order", "estimation", "P",
          "autoregressive order for the AR estimator", &S::estimator_ar_order,
          check_cfg(
              [](const S& c) { return c.estimator_ar_order >= 1 && c.estimator_ar_order <= 16; },
              "config: estimator AR order must lie in [1, 16]"));
  integer("estimator-collect-ticks", "estimation", "N",
          "collect server counters every N monitor ticks", &S::estimator_collect_every_ticks,
          check_cfg([](const S& c) { return c.estimator_collect_every_ticks >= 1; },
                    "config: estimator collection period >= 1 tick"));
  boolean("cold-start", "estimation", "start the estimator from uniform weights",
          &S::estimator_cold_start);

  // ---- resolvers ----
  dbl("min-ttl", "resolvers", "SEC", "non-cooperative NS minimum accepted TTL (0 = cooperative)",
      &S::ns_min_ttl_sec,
      check_cfg([](const S& c) { return c.ns_min_ttl_sec >= 0; }, "config: NS min TTL >= 0"));
  integer("ns-per-domain", "resolvers", "M", "name-server caches per domain", &S::ns_per_domain,
          check_cfg([](const S& c) { return c.ns_per_domain >= 1; },
                    "config: need >= 1 NS per domain"));
  boolean("client-cache", "resolvers", "per-client address caches on top of the NS caches",
          &S::client_cache_enabled);

  // ---- geography ----
  integer("geo-regions", "geography", "R", "regions (0 = the paper's latency-free model)",
          &S::geo_regions,
          check_cfg([](const S& c) { return c.geo_regions >= 0; }, "config: geo regions >= 0"));
  dbl("geo-intra", "geography", "SEC", "intra-region round-trip time", &S::geo_intra_rtt_sec);
  dbl("geo-inter", "geography", "SEC", "inter-region round-trip time", &S::geo_inter_rtt_sec);

  // ---- elasticity ----
  boolean("autoscale", "elasticity",
          "watermark autoscaler: sustained mean in-pool utilization beyond the "
          "watermarks adds/parks one server per action",
          &S::autoscale_enabled);
  dbl("autoscale-high", "elasticity", "U", "scale-up watermark (mean in-pool utilization)",
      &S::autoscale_high_watermark,
      check_cfg([](const S& c) {
        return c.autoscale_high_watermark > 0 && c.autoscale_high_watermark <= 1;
      }, "config: autoscale-high must lie in (0, 1]"));
  dbl("autoscale-low", "elasticity", "U", "scale-down watermark (mean in-pool utilization)",
      &S::autoscale_low_watermark,
      check_cfg([](const S& c) { return c.autoscale_low_watermark >= 0; },
                "config: autoscale-low must be >= 0"));
  integer("autoscale-ticks", "elasticity", "N",
          "consecutive out-of-band monitor ticks before an autoscale action",
          &S::autoscale_hysteresis_ticks,
          check_cfg([](const S& c) { return c.autoscale_hysteresis_ticks >= 1; },
                    "config: autoscale-ticks must be >= 1"));
  integer("autoscale-min", "elasticity", "N", "scale-down floor for the DNS pool size",
          &S::autoscale_min_servers,
          check_cfg([](const S& c) { return c.autoscale_min_servers >= 1; },
                    "config: autoscale-min must be >= 1"));

  // ---- redirection ----
  // `redirect` registers after its scalar companions on purpose: the
  // --redirect-wait setter implies redirect=true (documented CLI behavior),
  // so --dump-config must emit the bool after the scalars for a dump of a
  // redirect-free run to re-parse to redirect-free.
  {
    ParamSpec s;
    s.name = "redirect-wait";
    s.kind = ParamKind::kDouble;
    s.group = "redirection";
    s.hint = "SEC";
    s.doc = "redirect when estimated queue wait exceeds this (implies redirect=true)";
    s.set = [](C& o, const std::string& v) {
      o.config.redirect_enabled = true;
      o.config.redirect_max_wait_sec = parse_double_value(v);
    };
    s.get = [](const C& o) { return fmt_double(o.config.redirect_max_wait_sec); };
    add(std::move(s));
  }
  dbl("redirect-delay", "redirection", "SEC", "extra latency per redirected request",
      &S::redirect_delay_sec,
      check_cfg([](const S& c) { return c.redirect_delay_sec >= 0; },
                "config: redirect delay >= 0"));
  boolean("redirect", "redirection", "server-side second-level redirection",
          &S::redirect_enabled);

  // ---- dynamics ----
  {
    ParamSpec s;
    s.name = "shift";
    s.kind = ParamKind::kSpecList;
    s.group = "dynamics";
    s.hint = "T:DOMAIN:FACTOR";
    s.doc = "scripted flash crowd: multiply DOMAIN's rate by FACTOR at time T";
    s.repeatable = true;
    s.set = [](C& o, const std::string& v) {
      const auto f = split_colon(v, 3, "T:DOMAIN:FACTOR");
      workload::RateShift shift;
      shift.at_sec = parse_double_value(f[0]);
      shift.domain = parse_int32_value(f[1]);
      shift.rate_factor = parse_double_value(f[2]);
      o.config.rate_shifts.push_back(shift);
    };
    s.get_list = [](const C& o) {
      std::vector<std::string> out;
      for (const workload::RateShift& sh : o.config.rate_shifts) {
        out.push_back(fmt_double(sh.at_sec) + ":" + fmt_int(sh.domain) + ":" +
                      fmt_double(sh.rate_factor));
      }
      return out;
    };
    add(std::move(s));
  }
  {
    ParamSpec s;
    s.name = "trace-point";
    s.kind = ParamKind::kSpecList;
    s.group = "dynamics";
    s.hint = "T:DOMAIN:MULT";
    s.doc = "trace point: SET DOMAIN's rate multiplier to MULT at time T (absolute)";
    s.repeatable = true;
    s.set = [](C& o, const std::string& v) {
      const auto f = split_colon(v, 3, "T:DOMAIN:MULT");
      workload::TraceEvent ev;
      ev.at_sec = parse_double_value(f[0]);
      ev.domain = parse_int32_value(f[1]);
      ev.rate_multiplier = parse_double_value(f[2]);
      o.config.trace_events.push_back(ev);
    };
    s.get_list = [](const C& o) {
      std::vector<std::string> out;
      for (const workload::TraceEvent& ev : o.config.trace_events) {
        out.push_back(fmt_double(ev.at_sec) + ":" + fmt_int(ev.domain) + ":" +
                      fmt_double(ev.rate_multiplier));
      }
      return out;
    };
    add(std::move(s));
  }
  {
    ParamSpec s;
    s.name = "workload-trace";
    s.kind = ParamKind::kSpecList;
    s.group = "dynamics";
    s.hint = "FILE.csv";
    s.doc = "replay an arrival-rate trace (t_sec,domain,rate_multiplier CSV)";
    s.repeatable = true;
    s.in_dump = false;  // dumped expanded into trace-point lines above
    s.set = [](C& o, const std::string& v) {
      const std::vector<workload::TraceEvent> events = workload::load_trace_file(v);
      o.config.trace_events.insert(o.config.trace_events.end(), events.begin(),
                                   events.end());
    };
    s.get_list = [](const C&) { return std::vector<std::string>{}; };
    add(std::move(s));
  }

  // ---- faults ----
  {
    ParamSpec s;
    s.name = "faults";
    s.kind = ParamKind::kSpecList;
    s.group = "faults";
    s.hint = "FILE";
    s.doc = "merge a fault file (crash/degrade/pause/dns-outage lines)";
    s.repeatable = true;
    s.in_dump = false;  // dumped expanded into the window knobs below
    s.set = [](C& o, const std::string& v) { o.config.faults.merge(fault::load_fault_file(v)); };
    s.get_list = [](const C&) { return std::vector<std::string>{}; };
    add(std::move(s));
  }
  auto fault_windows = [&](const char* name, const char* hint, const char* doc, auto parse,
                           auto member, auto format) {
    ParamSpec s;
    s.name = name;
    s.kind = ParamKind::kSpecList;
    s.group = "faults";
    s.hint = hint;
    s.doc = doc;
    s.repeatable = true;
    s.set = [parse, member](C& o, const std::string& v) {
      (o.config.faults.*member).push_back(parse(v));
    };
    s.get_list = [member, format](const C& o) {
      std::vector<std::string> out;
      for (const auto& w : o.config.faults.*member) out.push_back(format(w));
      return out;
    };
    add(std::move(s));
  };
  fault_windows(
      "crash", "START:DURATION:SERVER",
      "hard crash: queue and in-flight work dropped, submissions rejected",
      &fault::FaultSchedule::parse_crash, &fault::FaultSchedule::crashes,
      [](const fault::CrashWindow& w) {
        return fmt_double(w.start_sec) + ":" + fmt_double(w.duration_sec) + ":" +
               fmt_int(w.server);
      });
  fault_windows(
      "degrade", "START:DURATION:SERVER:FACTOR",
      "scale the server's capacity by FACTOR for the window",
      &fault::FaultSchedule::parse_degrade, &fault::FaultSchedule::degradations,
      [](const fault::DegradeWindow& w) {
        return fmt_double(w.start_sec) + ":" + fmt_double(w.duration_sec) + ":" +
               fmt_int(w.server) + ":" + fmt_double(w.factor);
      });
  fault_windows(
      "pause", "START:DURATION:SERVER",
      "silent stall: accepts and queues but serves nothing",
      &fault::FaultSchedule::parse_pause, &fault::FaultSchedule::pauses,
      [](const fault::PauseWindow& w) {
        return fmt_double(w.start_sec) + ":" + fmt_double(w.duration_sec) + ":" +
               fmt_int(w.server);
      });
  fault_windows(
      "dns-outage", "START:DURATION",
      "authoritative DNS unreachable; NSs back off and serve stale",
      &fault::FaultSchedule::parse_dns_outage, &fault::FaultSchedule::dns_outages,
      [](const fault::DnsOutageWindow& w) {
        return fmt_double(w.start_sec) + ":" + fmt_double(w.duration_sec);
      });
  // Elastic pool directives. scale-up and scale-down share the schedule's
  // scale_events vector, so their specs filter by direction instead of
  // using the fault_windows helper (which would dump every event twice).
  auto scale_directive = [&](const char* name, bool up, const char* doc) {
    ParamSpec s;
    s.name = name;
    s.kind = ParamKind::kSpecList;
    s.group = "faults";
    s.hint = "START:SERVER";
    s.doc = doc;
    s.repeatable = true;
    s.set = [up](C& o, const std::string& v) {
      o.config.faults.scale_events.push_back(fault::FaultSchedule::parse_scale(v, up));
    };
    s.get_list = [up](const C& o) {
      std::vector<std::string> out;
      for (const fault::ScaleEvent& e : o.config.faults.scale_events) {
        if (e.up == up) out.push_back(fmt_double(e.start_sec) + ":" + fmt_int(e.server));
      }
      return out;
    };
    add(std::move(s));
  };
  scale_directive("scale-up", true,
                  "admit the server to the DNS pool (elastic membership, not a repair)");
  scale_directive("scale-down", false,
                  "remove the server from the DNS pool; it drains, losing nothing");
  fault_windows(
      "resize", "START:SERVER:FACTOR",
      "open-ended re-provision: capacity scaled to FACTOR x nominal until the next resize",
      &fault::FaultSchedule::parse_resize, &fault::FaultSchedule::resizes,
      [](const fault::ResizeEvent& e) {
        return fmt_double(e.start_sec) + ":" + fmt_int(e.server) + ":" + fmt_double(e.factor);
      });
  dbl("retry-delay", "faults", "SEC", "client pause before retrying a failed page/resolution",
      &S::client_retry_delay_sec,
      check_cfg([](const S& c) { return c.client_retry_delay_sec > 0; },
                "config: client retry delay must be > 0"));
  dbl("ns-retry-backoff", "faults", "SEC", "NS initial upstream retry backoff during outages",
      &S::ns_retry_initial_backoff_sec,
      check_cfg([](const S& c) { return c.ns_retry_initial_backoff_sec > 0; },
                "config: NS retry backoff must be > 0"));
  dbl("ns-retry-max-backoff", "faults", "SEC", "NS retry backoff cap",
      &S::ns_retry_max_backoff_sec);

  // ---- daemon (tools/adattl_dnsd; inert for simulations) ----
  integer("dnsd-port", "daemon", "PORT", "UDP port the live DNS daemon binds (0 = ephemeral)",
          &S::dnsd_port,
          check_cfg([](const S& c) { return c.dnsd_port >= 0 && c.dnsd_port <= 65535; },
                    "config: dnsd-port must be in [0, 65535]"));
  integer("dnsd-shards", "daemon", "N",
          "daemon worker shards (SO_REUSEPORT sockets with per-shard scheduler state)",
          &S::dnsd_shards,
          check_cfg([](const S& c) { return c.dnsd_shards >= 1 && c.dnsd_shards <= 256; },
                    "config: dnsd-shards must be in [1, 256]"));
  integer("dnsd-batch", "daemon", "N",
          "daemon recvmmsg/sendmmsg batch size (datagrams per syscall)",
          &S::dnsd_batch,
          check_cfg([](const S& c) { return c.dnsd_batch >= 1 && c.dnsd_batch <= 1024; },
                    "config: dnsd-batch must be in [1, 1024]"));
  boolean("dnsd-ecs", "daemon",
          "derive the daemon's domain key from EDNS0 Client-Subnet (hash fallback)",
          &S::dnsd_ecs);

  // ---- observability ----
  boolean("metrics", "observability", "end-of-run metrics snapshot (JSON gains \"metrics\")",
          &S::metrics_enabled);
  {
    ParamSpec s;
    s.name = "trace-capacity";
    s.kind = ParamKind::kUint;
    s.group = "observability";
    s.hint = "RECORDS";
    s.doc = "tracer ring capacity per slice; --trace/--decisions fail if a slice records more";
    s.set = [](C& o, const std::string& v) {
      o.config.trace_capacity = static_cast<std::size_t>(parse_uint_value(v));
    };
    s.get = [](const C& o) {
      return fmt_uint(static_cast<unsigned long long>(o.config.trace_capacity));
    };
    add(std::move(s));
  }

  // ---- run ----
  {
    ParamSpec s;
    s.name = "duration";
    s.kind = ParamKind::kDouble;
    s.group = "run";
    s.hint = "SEC";
    s.doc = "measured period after warm-up";
    s.env = "ADATTL_DURATION_SEC";  // the long-standing bench knob name
    s.set = [](C& o, const std::string& v) { o.config.duration_sec = parse_double_value(v); };
    s.get = [](const C& o) { return fmt_double(o.config.duration_sec); };
    s.check = [](const C& o) {
      if (o.config.duration_sec <= 0) bad("config: duration > 0");
    };
    add(std::move(s));
  }
  dbl("warmup", "run", "SEC",
      "warm-up period; only the utilization statistics exclude it (counts, rates, response "
      "times and --metrics cover it too)",
      &S::warmup_sec,
      check_cfg([](const S& c) { return c.warmup_sec >= 0; }, "config: warmup >= 0"));
  {
    ParamSpec s;
    s.name = "seed";
    s.kind = ParamKind::kUint;
    s.group = "run";
    s.hint = "N";
    s.doc = "master seed; replication i runs with seed + i";
    s.set = [](C& o, const std::string& v) {
      o.config.seed = static_cast<std::uint64_t>(parse_uint_value(v));
    };
    s.get = [](const C& o) {
      return fmt_uint(static_cast<unsigned long long>(o.config.seed));
    };
    add(std::move(s));
  }
  {
    ParamSpec s;
    s.name = "replications";
    s.kind = ParamKind::kInt;
    s.scope = ParamScope::kRun;
    s.group = "run";
    s.hint = "R";
    s.doc = "independent replications with derived seeds";
    s.set = [](C& o, const std::string& v) {
      o.replications = parse_int32_value(v);
      if (o.replications < 1) bad("need >= 1");
    };
    s.get = [](const C& o) { return fmt_int(o.replications); };
    s.check = [](const C& o) {
      if (o.replications < 1) bad("replications: need >= 1");
    };
    add(std::move(s));
  }
  {
    ParamSpec s;
    s.name = "jobs";
    s.kind = ParamKind::kInt;
    s.scope = ParamScope::kRun;
    s.group = "run";
    s.hint = "J";
    s.doc =
        "parallel workers (1 = serial; results identical either way); each replication "
        "runs on J / min(J, replications) of them (at least 1): a sharded one builds and "
        "runs its shards on up to one per shard, and a replication left a worker more than "
        "its shards (a serial run has one shard) draws its servers' service-time logs ahead "
        "on it";
    s.in_dump = false;      // execution parallelism, not part of the run's identity
    s.in_manifest = false;  // must not vary report JSON across --jobs
    s.set = [](C& o, const std::string& v) {
      o.jobs = parse_int32_value(v);
      if (o.jobs < 1) bad("need >= 1");
    };
    s.get = [](const C& o) { return fmt_int(o.jobs); };
    add(std::move(s));
  }
  boolean("shard-domains", "run",
          "partition domains across parallel per-shard simulators (DESIGN.md §16)",
          &S::shard_domains);
  integer("shard-count", "run", "N",
          "shard pool size for --shard-domains (fixed, independent of the host)",
          &S::shard_count,
          check_cfg([](const S& c) { return c.shard_count >= 1 && c.shard_count <= 512; },
                    "config: shard count in [1, 512]"));

  // ---- output (CLI/scenario only: no env, never dumped) ----
  auto out_bool = [&](const char* name, const char* doc, bool C::* m) {
    ParamSpec s;
    s.name = name;
    s.kind = ParamKind::kBool;
    s.scope = ParamScope::kOutput;
    s.group = "output";
    s.doc = doc;
    s.in_dump = false;
    s.set = [m](C& o, const std::string& v) { o.*m = parse_bool_value(v); };
    s.get = [m](const C& o) { return o.*m ? "true" : "false"; };
    add(std::move(s));
  };
  auto out_path = [&](const char* name, const char* hint, const char* doc, std::string C::* m) {
    ParamSpec s;
    s.name = name;
    s.kind = ParamKind::kString;
    s.scope = ParamScope::kOutput;
    s.group = "output";
    s.hint = hint;
    s.doc = doc;
    s.in_dump = false;
    s.set = [m](C& o, const std::string& v) { o.*m = v; };
    s.get = [m](const C& o) { return o.*m; };
    add(std::move(s));
  };
  out_bool("csv", "emit CSV instead of aligned tables", &C::csv);
  out_bool("json", "emit one JSON object with headline metrics, config and provenance",
           &C::json);
  out_bool("cdf", "print the full max-utilization CDF curve", &C::show_cdf);
  out_path("trace", "FILE.csv",
           "per-tick site-wide utilization time series of the first replication",
           &C::trace_path);
  out_path("decisions", "FILE.csv",
           "every authoritative DNS decision of the first replication, of every slice",
           &C::decisions_path);
  out_path("chrome-trace", "FILE.json",
           "Chrome trace_event timeline of the first replication, one pid per slice",
           &C::chrome_trace_path);
  out_bool("dump-config", "print the resolved run as a scenario file and exit",
           &C::dump_config);
  out_bool("dump-params-md", "print the generated knob reference (docs/CONFIG.md) and exit",
           &C::dump_params_md);
}

const ParamRegistry& ParamRegistry::instance() {
  static const ParamRegistry registry;
  return registry;
}

const ParamSpec* ParamRegistry::find(const std::string& name) const {
  const auto it = index_.find(name);
  return it == index_.end() ? nullptr : &specs_[it->second];
}

std::string ParamRegistry::suggest(const std::string& name) const {
  std::vector<std::string> corpus;
  for (const ParamSpec& s : specs_) {
    corpus.push_back(s.name);
    if (s.kind == ParamKind::kBool) corpus.push_back("no-" + s.name);
  }
  corpus.push_back("config");

  std::string best;
  std::size_t best_d = std::string::npos;
  for (const std::string& candidate : corpus) {
    const std::size_t d = edit_distance(name, candidate);
    if (d < best_d) {
      best_d = d;
      best = candidate;
    }
  }
  const std::size_t threshold = std::max<std::size_t>(2, name.size() / 3);
  return best_d <= threshold ? best : std::string();
}

void ParamRegistry::apply_arg(ConfigResolution& r, const std::string& arg,
                              ParamLayer layer) const {
  if (arg.rfind("--", 0) != 0) {
    bad("unknown flag: '" + arg + "' (see --help text)");
  }
  std::string flag = arg;
  std::string value;
  bool has_value = false;
  const std::size_t eq = arg.find('=');
  if (eq != std::string::npos) {
    flag = arg.substr(0, eq);
    value = arg.substr(eq + 1);
    has_value = true;
  }
  const std::string name = flag.substr(2);

  // --config is consumed by the resolve() pipeline; one reaching a layer
  // application can only have come from inside a scenario file.
  if (name == "config") bad("scenario files cannot nest --config");

  bool negated = false;
  const ParamSpec* spec = find(name);
  if (!spec && name.rfind("no-", 0) == 0) {
    const ParamSpec* base = find(name.substr(3));
    if (base && base->kind == ParamKind::kBool) {
      spec = base;
      negated = true;
    }
  }
  if (!spec) {
    const std::string near = suggest(name);
    bad("unknown flag: '" + arg + "'" +
        (near.empty() ? " (see --help text)" : ", did you mean '--" + near + "'?"));
  }

  std::string effective;
  if (spec->kind == ParamKind::kBool) {
    if (negated) {
      if (has_value) bad(flag + ": negated flag takes no value");
      effective = "false";
    } else if (!has_value) {
      effective = "true";
    } else {
      effective = value;
    }
  } else {
    if (!has_value || value.empty()) {
      bad(flag + ": requires a value (" + flag + "=...)");
    }
    effective = value;
  }

  try {
    spec->set(r.options, effective);
  } catch (const std::invalid_argument& e) {
    bad(flag + ": " + e.what());
  }
  r.provenance[spec->name] = ParamProvenance{layer, effective};
}

ConfigResolution ParamRegistry::resolve(const std::vector<std::string>& cli_args) const {
  ConfigResolution r;

  // Layer 1: scenario files, wherever --config appears on the line.
  std::vector<std::string> rest;
  for (const std::string& arg : cli_args) {
    if (arg == "--config" || arg.rfind("--config=", 0) == 0) {
      const std::string path = arg.size() > 9 ? arg.substr(9) : std::string();
      if (path.empty()) bad("--config: requires a file path");
      for (const std::string& fa : load_scenario_file(path)) {
        apply_arg(r, fa, ParamLayer::kScenario);
      }
    } else {
      rest.push_back(arg);
    }
  }

  // Layer 2: ADATTL_* environment overrides.
  for (const ParamSpec& spec : specs_) {
    if (spec.env.empty()) continue;
    const char* v = std::getenv(spec.env.c_str());
    if (!v || !*v) continue;
    try {
      spec.set(r.options, v);
    } catch (const std::invalid_argument& e) {
      bad(spec.env + ": " + e.what());
    }
    r.provenance[spec.name] = ParamProvenance{ParamLayer::kEnv, v};
  }

  // Layer 3: command-line flags, in order.
  for (const std::string& arg : rest) {
    apply_arg(r, arg, ParamLayer::kCli);
  }

  validate(r.options);
  return r;
}

ConfigResolution ParamRegistry::resolve_flags(const std::vector<std::string>& flags) const {
  ConfigResolution r;
  for (const std::string& arg : flags) {
    apply_arg(r, arg, ParamLayer::kCli);
  }
  validate(r.options);
  return r;
}

void ParamRegistry::validate(const CliOptions& opt) const {
  for (const ParamSpec& spec : specs_) {
    if (spec.check) spec.check(opt);
  }
  cross_validate(opt.config);
}

std::string ParamRegistry::dump_scenario(const ConfigResolution& r) const {
  const auto layer_of = [&](const std::string& name) {
    const auto it = r.provenance.find(name);
    if (it != r.provenance.end()) return it->second.layer;
    // Fault windows merged via `faults = FILE` were set by the faults
    // knob; attribute the expanded crash/degrade/... lines to its layer.
    const ParamSpec* spec = find(name);
    if (spec && spec->repeatable && spec->group == "faults") {
      const auto f = r.provenance.find("faults");
      if (f != r.provenance.end()) return f->second.layer;
    }
    // Same for trace points loaded via `workload-trace = FILE` and pause
    // windows given in the older `outage` spelling.
    const char* source = name == "trace-point" ? "workload-trace"
                         : name == "pause"     ? "outage"
                                               : nullptr;
    if (source) {
      const auto t = r.provenance.find(source);
      if (t != r.provenance.end()) return t->second.layer;
    }
    return ParamLayer::kDefault;
  };
  const auto emit = [&](std::string& out, const std::string& name, const std::string& value,
                        ParamLayer layer) {
    std::string line = name + " = " + value;
    if (line.size() < 34) line.append(34 - line.size(), ' ');
    out += line + " # " + param_layer_name(layer) + "\n";
  };

  std::string out =
      "# adattl resolved run configuration, generated by --dump-config.\n"
      "# Precedence was: defaults < scenario file < ADATTL_* env < command line;\n"
      "# the trailing comment on each line names the layer that set the knob.\n"
      "# Re-run with: run_scenario --config=<this file>   (in a clean environment)\n";
  std::string group;
  std::string body;  // current group's lines; header emitted only if non-empty
  const auto flush_group = [&] {
    if (!body.empty()) {
      out += "\n# ---- " + group + " ----\n" + body;
      body.clear();
    }
  };
  for (const ParamSpec& spec : specs_) {
    if (spec.scope == ParamScope::kOutput || !spec.in_dump) continue;
    if (spec.group != group) {
      flush_group();
      group = spec.group;
    }
    if (spec.repeatable) {
      for (const std::string& v : spec.get_list(r.options)) {
        emit(body, spec.name, v, layer_of(spec.name));
      }
    } else {
      emit(body, spec.name, spec.get(r.options), layer_of(spec.name));
    }
  }
  flush_group();
  return out;
}

std::string ParamRegistry::config_json(const CliOptions& opt) const {
  std::string out = "{";
  bool first = true;
  for (const ParamSpec& spec : specs_) {
    if (spec.scope == ParamScope::kOutput || !spec.in_dump) continue;
    if (!first) out += ",";
    first = false;
    out += "\"" + spec.name + "\":";
    switch (spec.kind) {
      case ParamKind::kBool:
      case ParamKind::kInt:
      case ParamKind::kUint:
      case ParamKind::kDouble:
        out += spec.get(opt);
        break;
      case ParamKind::kString:
        out += "\"" + json_escape(spec.get(opt)) + "\"";
        break;
      case ParamKind::kDoubleList:
        // The canonical comma-joined form is already a JSON number list body.
        out += "[" + spec.get(opt) + "]";
        break;
      case ParamKind::kSpecList: {
        out += "[";
        const std::vector<std::string> items = spec.get_list(opt);
        for (std::size_t i = 0; i < items.size(); ++i) {
          if (i) out += ",";
          out += "\"" + json_escape(items[i]) + "\"";
        }
        out += "]";
        break;
      }
    }
  }
  out += "}";
  return out;
}

std::string ParamRegistry::provenance_json(const ProvenanceMap& provenance) const {
  std::string out = "{";
  bool first = true;
  for (const ParamSpec& spec : specs_) {
    if (spec.scope == ParamScope::kOutput || !spec.in_manifest) continue;
    const auto it = provenance.find(spec.name);
    if (it == provenance.end() || it->second.layer == ParamLayer::kDefault) continue;
    if (!first) out += ",";
    first = false;
    out += "\"" + spec.name + "\":{\"layer\":\"";
    out += param_layer_name(it->second.layer);
    out += "\",\"value\":\"" + json_escape(it->second.value) + "\"}";
  }
  out += "}";
  return out;
}

ProvenanceMap ParamRegistry::infer_provenance(const CliOptions& opt) const {
  const CliOptions defaults;
  ProvenanceMap out;
  for (const ParamSpec& spec : specs_) {
    if (spec.scope == ParamScope::kOutput || !spec.in_dump) continue;
    if (spec.repeatable) {
      const std::vector<std::string> now = spec.get_list(opt);
      if (now != spec.get_list(defaults)) {
        std::string joined;
        for (std::size_t i = 0; i < now.size(); ++i) {
          if (i) joined += " ";
          joined += now[i];
        }
        out[spec.name] = ParamProvenance{ParamLayer::kCode, joined};
      }
    } else {
      const std::string now = spec.get(opt);
      if (now != spec.get(defaults)) {
        out[spec.name] = ParamProvenance{ParamLayer::kCode, now};
      }
    }
  }
  return out;
}

std::string ParamRegistry::usage() const {
  const CliOptions defaults;
  std::string out =
      "usage: run_scenario [--flag[=value] ...]\n"
      "\n"
      "Knob precedence: defaults < --config=FILE scenario file < ADATTL_* env <\n"
      "command-line flags. Boolean knobs accept --X, --X=true|false and --no-X.\n"
      "Scenario files hold one `key = value` per line (keys = flag names,\n"
      "booleans take true/false, '#' after whitespace starts a comment).\n"
      "\n"
      "  scenario:\n"
      "    --config=FILE             load a scenario file (repeatable)\n"
      "    --help                    this text\n";
  std::string group;
  for (const ParamSpec& spec : specs_) {
    if (spec.group != group) {
      group = spec.group;
      out += "  " + group + ":\n";
    }
    std::string left = "    --" + spec.name;
    if (spec.kind != ParamKind::kBool) left += "=" + spec.hint;
    if (left.size() < 30) left.append(30 - left.size(), ' ');
    out += left + " " + spec.doc;
    if (spec.repeatable) {
      out += " (repeatable)";
    } else if (spec.scope != ParamScope::kOutput) {
      out += " (default " + spec.get(defaults) + ")";
    }
    out += "\n";
  }
  return out;
}

std::string ParamRegistry::params_markdown() const {
  const CliOptions defaults;
  std::string out =
      "# Configuration reference\n"
      "\n"
      "<!-- Generated by `run_scenario --dump-params-md` from the parameter\n"
      "     registry (src/experiment/param_registry.cpp). Do not edit by hand;\n"
      "     CI fails when this file drifts from the registry. -->\n"
      "\n"
      "Every knob is declared exactly once, in `src/experiment/param_registry.cpp`.\n"
      "The same table drives the CLI flags, the `ADATTL_*` environment overrides,\n"
      "scenario-file keys, `--help`, `--dump-config`, this document, and the\n"
      "resolved-config + provenance blocks embedded in runner JSON.\n"
      "\n"
      "Resolution precedence (later wins): **defaults** < **scenario file**\n"
      "(`--config=FILE`, wherever it appears on the command line) < **environment**\n"
      "< **command line**. Boolean knobs accept `--X`, `--X=true|false` and\n"
      "`--no-X`; in scenario files every knob is a `key = value` line (booleans:\n"
      "`true`/`false`). A `#` at the start of a line or preceded by whitespace\n"
      "starts a comment, so values such as `chaos#1.faults` survive intact.\n";
  std::string group;
  for (const ParamSpec& spec : specs_) {
    if (spec.group != group) {
      group = spec.group;
      out += "\n## " + group + "\n\n";
      out += "| Knob | Type | Default | Env | Description |\n";
      out += "|---|---|---|---|---|\n";
    }
    std::string def;
    if (spec.repeatable) {
      def = "*(none)*";
    } else if (spec.scope == ParamScope::kOutput) {
      def = spec.kind == ParamKind::kBool ? "`false`" : "*(unset)*";
    } else {
      def = "`" + spec.get(defaults) + "`";
    }
    out += "| `" + spec.name + "` | " + kind_name(spec.kind) + " | " + def + " | " +
           (spec.env.empty() ? "—" : "`" + spec.env + "`") + " | " + spec.doc +
           (spec.repeatable ? " *(repeatable)*" : "") + " |\n";
  }
  return out;
}

ConfigResolution resolve_config(const std::vector<std::string>& args) {
  return ParamRegistry::instance().resolve(args);
}

}  // namespace adattl::experiment
