#include "core/policy_factory.h"

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "core/cost_policy.h"
#include "core/dal_policy.h"
#include "core/mrl_policy.h"
#include "core/proximity_policy.h"
#include "core/selection_policies.h"
#include "core/ttl_policy.h"
#include "sim/text.h"

namespace adattl::core {
namespace {

std::string format_cost_token(const char* base, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s(%g)", base, value);
  return buf;
}

/// Parses the "(value)" parameter of a COST/COSTCAP token; returns false
/// when the token is not of the `base` / `base(value)` form.
bool parse_cost_param(const std::string& tok, const std::string& base, double fallback,
                      double* out) {
  if (tok == base) {
    *out = fallback;
    return true;
  }
  if (tok.size() < base.size() + 3 || tok.rfind(base + "(", 0) != 0 || tok.back() != ')') {
    return false;
  }
  const std::optional<double> value =
      text::parse_number(tok.substr(base.size() + 1, tok.size() - base.size() - 2));
  if (!value || !std::isfinite(*value)) {
    throw std::invalid_argument("'" + tok + "': bad " + base + " parameter");
  }
  *out = *value;
  return true;
}

std::string selection_token(const PolicySpec& spec) {
  switch (spec.selection) {
    case SelectionKind::kRR:
    case SelectionKind::kPRR: {
      const std::string base = spec.selection == SelectionKind::kPRR ? "PRR" : "RR";
      if (spec.selection_tiers == kPerDomainClasses) return base + "K";
      return spec.selection_tiers == 1 ? base : base + std::to_string(spec.selection_tiers);
    }
    case SelectionKind::kWRR:
      return "WRR";
    case SelectionKind::kDAL:
      return "DAL";
    case SelectionKind::kMRL:
      return "MRL";
    case SelectionKind::kGEO:
      return "GEO";
    case SelectionKind::kCost:
      return format_cost_token("COST", spec.cost_alpha);
    case SelectionKind::kCostCap:
      return format_cost_token("COSTCAP", spec.cost_cap_sec);
  }
  throw std::logic_error("unknown selection kind");
}

/// Fills spec.selection (+tiers); returns true for the DRR/DRR2 aliases.
bool parse_selection(const std::string& tok, PolicySpec* spec) {
  // The round-robin family: RR, PRR or DRR, then a tier count. The paper
  // writes DRR/DRR2 for "RR/RR2 combined with deterministic (server-aware)
  // adaptive TTL" — the same selection rule with a different TTL.
  const char lead = tok.empty() ? '\0' : tok[0];
  const std::size_t rr = (lead == 'P' || lead == 'D') ? 1 : 0;
  if (tok.compare(rr, 2, "RR") == 0) {
    spec->selection = lead == 'P' ? SelectionKind::kPRR : SelectionKind::kRR;
    const std::string tiers = tok.substr(rr + 2);
    if (tiers.empty() || tiers == "2") {
      spec->selection_tiers = tiers.empty() ? 1 : 2;
      return lead == 'D';
    }
    // "RR<n>" for n >= 3 and "RRK" (one pointer per domain) extend the
    // paper's two tiers; they have no PRR or DRR spelling.
    if (rr == 0 && tiers == "K") {
      spec->selection_tiers = kPerDomainClasses;
      return false;
    }
    if (rr == 0 && tiers.find_first_not_of("0123456789") == std::string::npos) {
      const std::optional<std::int64_t> n = text::parse_integer(tiers, 0, INT_MAX);
      if (!n) throw std::invalid_argument("'" + tok + "': bad round-robin tier count");
      if (*n < 3) throw std::invalid_argument("'" + tok + "': multi-tier RR needs >= 3 tiers");
      spec->selection_tiers = static_cast<int>(*n);
      return false;
    }
  }
  if (tok == "WRR") {
    spec->selection = SelectionKind::kWRR;
    return false;
  }
  if (tok == "DAL") {
    spec->selection = SelectionKind::kDAL;
    return false;
  }
  if (tok == "MRL") {
    spec->selection = SelectionKind::kMRL;
    return false;
  }
  if (tok == "GEO") {
    spec->selection = SelectionKind::kGEO;
    return false;
  }
  // COSTCAP before COST: the longer token shares the shorter's prefix.
  if (tok.rfind("COSTCAP", 0) == 0) {
    double cap = 0.0;
    if (parse_cost_param(tok, "COSTCAP", spec->cost_cap_sec, &cap)) {
      if (!(cap > 0.0)) throw std::invalid_argument("'" + tok + "': COSTCAP cap must be > 0");
      spec->selection = SelectionKind::kCostCap;
      spec->cost_cap_sec = cap;
      return false;
    }
  }
  if (tok.rfind("COST", 0) == 0) {
    double alpha = 0.0;
    if (parse_cost_param(tok, "COST", spec->cost_alpha, &alpha)) {
      if (!(alpha >= 0.0 && alpha <= 1.0)) {
        throw std::invalid_argument("'" + tok + "': COST alpha must lie in [0, 1]");
      }
      spec->selection = SelectionKind::kCost;
      spec->cost_alpha = alpha;
      return false;
    }
  }
  throw std::invalid_argument("unknown selection policy: '" + tok + "'");
}

}  // namespace

std::string PolicySpec::canonical_name() const {
  // The deterministic family is spelled DRR/DRR2 in the paper.
  std::string sel = selection_token(*this);
  if (server_ttl_term && selection == SelectionKind::kRR &&
      (selection_tiers == 1 || selection_tiers == 2)) {
    sel = "D" + sel;
  }
  if (ttl_classes == 0) return sel;
  std::string ttl = server_ttl_term ? "TTL/S_" : "TTL/";
  ttl += (ttl_classes == kPerDomainClasses) ? "K" : std::to_string(ttl_classes);
  return sel + "-" + ttl;
}

PolicySpec parse_policy_name(const std::string& name) {
  PolicySpec spec;
  const auto dash = name.find("-TTL/");

  const std::string sel_tok = name.substr(0, dash);
  const bool deterministic_alias = parse_selection(sel_tok, &spec);

  if (dash == std::string::npos) {
    if (deterministic_alias) {
      throw std::invalid_argument("'" + name + "': DRR/DRR2 require a TTL/S_* suffix");
    }
    spec.ttl_classes = 0;  // constant TTL
    return spec;
  }

  std::string ttl_tok = name.substr(dash + 5);  // after "-TTL/"
  if (ttl_tok.rfind("S_", 0) == 0) {
    spec.server_ttl_term = true;
    ttl_tok = ttl_tok.substr(2);
  }
  if (deterministic_alias && !spec.server_ttl_term) {
    throw std::invalid_argument("'" + name + "': the deterministic family uses TTL/S_* policies");
  }
  if (ttl_tok == "K") {
    spec.ttl_classes = kPerDomainClasses;
  } else {
    const std::optional<std::int64_t> classes = text::parse_integer(ttl_tok, 1, INT_MAX);
    if (!classes) throw std::invalid_argument("'" + name + "': bad TTL class count");
    spec.ttl_classes = static_cast<int>(*classes);
  }
  return spec;
}

void validate_policy_name(const std::string& name) { (void)parse_policy_name(name); }

bool policy_requires_geo(const std::string& name) {
  PolicySpec spec;
  try {
    spec = parse_policy_name(name);
  } catch (const std::invalid_argument&) {
    return false;  // the policy knob's own check reports unparsable names
  }
  return spec.selection == SelectionKind::kGEO || spec.selection == SelectionKind::kCost ||
         spec.selection == SelectionKind::kCostCap;
}

std::vector<std::string> paper_policy_names() {
  return {
      "RR",           "RR2",           "DAL",
      "PRR-TTL/1",    "PRR-TTL/2",     "PRR-TTL/K",
      "PRR2-TTL/1",   "PRR2-TTL/2",    "PRR2-TTL/K",
      "DRR-TTL/S_1",  "DRR-TTL/S_2",   "DRR-TTL/S_K",
      "DRR2-TTL/S_1", "DRR2-TTL/S_2",  "DRR2-TTL/S_K",
  };
}

SchedulerBundle make_scheduler(const std::string& name, const SchedulerFactoryConfig& config,
                               const AlarmRegistry& alarms, sim::Simulator& sim,
                               sim::RngStream& rng) {
  const PolicySpec spec = parse_policy_name(name);
  if (config.capacities.empty()) throw std::invalid_argument("make_scheduler: no servers");
  if (config.initial_weights.empty()) throw std::invalid_argument("make_scheduler: no domains");

  SchedulerBundle bundle;
  bundle.domains =
      std::make_unique<DomainModel>(config.initial_weights, config.class_threshold);

  const double c1 = *std::max_element(config.capacities.begin(), config.capacities.end());
  std::vector<double> alpha(config.capacities.size());
  for (std::size_t i = 0; i < alpha.size(); ++i) alpha[i] = config.capacities[i] / c1;

  std::unique_ptr<SelectionPolicy> selection;
  switch (spec.selection) {
    case SelectionKind::kRR:
      // α ≡ 1 draws no variate, so the stream is a copy, not a split: a
      // split would shift every split drawn from `rng` after it.
      selection = std::make_unique<RoundRobinPolicy>(std::vector<double>(alpha.size(), 1.0),
                                                     *bundle.domains, spec.selection_tiers, rng);
      break;
    case SelectionKind::kPRR:
      selection = std::make_unique<RoundRobinPolicy>(alpha, *bundle.domains,
                                                     spec.selection_tiers, rng.split());
      break;
    case SelectionKind::kWRR:
      selection = std::make_unique<WeightedRoundRobinPolicy>(config.capacities);
      break;
    case SelectionKind::kDAL:
      selection = std::make_unique<DalPolicy>(sim, *bundle.domains, config.capacities);
      break;
    case SelectionKind::kMRL:
      selection = std::make_unique<MrlPolicy>(sim, *bundle.domains, config.capacities);
      break;
    case SelectionKind::kGEO:
      if (!config.geo) {
        throw std::invalid_argument("make_scheduler: 'GEO' needs a geo model in the config");
      }
      selection = std::make_unique<ProximityPolicy>(config.geo, config.capacities);
      break;
    case SelectionKind::kCost:
      if (!config.geo) {
        throw std::invalid_argument("make_scheduler: 'COST' needs a geo model in the config");
      }
      selection = std::make_unique<CompositeCostPolicy>(config.capacities, spec.cost_alpha);
      break;
    case SelectionKind::kCostCap:
      if (!config.geo) {
        throw std::invalid_argument("make_scheduler: 'COSTCAP' needs a geo model in the config");
      }
      selection = std::make_unique<LatencyCapPolicy>(config.capacities, spec.cost_cap_sec);
      break;
  }

  std::unique_ptr<TtlPolicy> ttl;
  if (spec.ttl_classes == 0) {
    ttl = std::make_unique<ConstantTtlPolicy>(config.reference_ttl);
  } else {
    auto adaptive = std::make_unique<AdaptiveTtlPolicy>(
        *bundle.domains, config.capacities, spec.ttl_classes, spec.server_ttl_term,
        selection->stationary_shares(), config.reference_ttl, config.calibrate_ttl);
    // Weight updates from the estimator flow model → policy automatically.
    bundle.domains->subscribe([p = adaptive.get()] { p->recalibrate(); });
    ttl = std::move(adaptive);
  }

  bundle.scheduler = std::make_unique<DnsScheduler>(spec.canonical_name(), std::move(selection),
                                                    std::move(ttl), alarms, config.geo);
  return bundle;
}

}  // namespace adattl::core
