#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/alarm_registry.h"
#include "core/domain_model.h"
#include "core/scheduler.h"
#include "geo/geo_model.h"
#include "sim/random.h"
#include "sim/simulator.h"

namespace adattl::core {

/// Which server-selection rule a composite algorithm uses. kRR and kPRR
/// are the tiered round robin (RoundRobinPolicy), deterministic or
/// capacity-probabilistic.
enum class SelectionKind { kRR, kPRR, kWRR, kDAL, kMRL, kGEO, kCost, kCostCap };

/// Parsed form of an algorithm name such as "DRR2-TTL/S_K".
struct PolicySpec {
  SelectionKind selection = SelectionKind::kRR;
  /// For kRR and kPRR: the number of round-robin tiers (1 for RR/PRR, 2 for
  /// RR2/PRR2, n >= 3 for RRn, kPerDomainClasses for RRK — one pointer per
  /// domain). Unused otherwise.
  int selection_tiers = 1;
  /// For kCost: weight of the load term in the composite objective.
  double cost_alpha = 0.5;
  /// For kCostCap: the latency budget (seconds) of the two-tier variant.
  double cost_cap_sec = 0.08;
  /// 0 = constant reference TTL (no adaptive policy); otherwise the class
  /// count (1, 2, ..., or kPerDomainClasses for "K").
  int ttl_classes = 0;
  /// True for the deterministic TTL/S_i family (TTL scales with the chosen
  /// server's capacity).
  bool server_ttl_term = false;

  std::string canonical_name() const;
};

/// Parses the paper's algorithm naming scheme. Accepted forms:
///   "RR", "RR2", "DAL", "MRL"                — constant 240 s TTL;
///   "RR3".."RR9", "RRK", "WRR"               — extension baselines;
///   "GEO"                                    — proximity-first selection
///                                              (requires config.geo);
///   "COST", "COST(0.7)"                      — composite load/latency cost,
///                                              alpha in [0, 1] (default 0.5);
///   "COSTCAP", "COSTCAP(0.08)"               — latency-capped two-tier cost,
///                                              cap in seconds (default 0.08);
///   "PRR-TTL/1|2|K", "PRR2-TTL/1|2|K"        — probabilistic family;
///   "DRR-TTL/S_1|S_2|S_K", "DRR2-TTL/S_..."  — deterministic family;
/// plus the free combinations used by ablations (any selection with any
/// TTL/i or TTL/S_i, e.g. "RR2-TTL/3"). Throws std::invalid_argument on
/// anything else.
PolicySpec parse_policy_name(const std::string& name);

/// Checks that `name` parses as an algorithm name; throws the same
/// std::invalid_argument as parse_policy_name. Used by the parameter
/// registry so every config entry point rejects bad names identically.
void validate_policy_name(const std::string& name);

/// True when `name`'s selection rule reads the GeoModel (GEO and the COST
/// family) and therefore needs geography configured. Used by config
/// cross-validation.
bool policy_requires_geo(const std::string& name);

/// The 15 algorithm names evaluated in the paper's figures
/// (RR, RR2, DAL, 6 probabilistic, 6 deterministic).
std::vector<std::string> paper_policy_names();

/// Everything needed to build a scheduler.
struct SchedulerFactoryConfig {
  std::vector<double> capacities;       ///< absolute C_i, index == ServerId
  std::vector<double> initial_weights;  ///< hidden load weights, index == DomainId
  double class_threshold = 0.05;        ///< γ (paper default 1/K)
  double reference_ttl = 240.0;         ///< constant-TTL baseline for calibration
  bool calibrate_ttl = true;            ///< address-rate fairness normalization
  /// Network geography; required by the "GEO" policy, ignored otherwise.
  std::shared_ptr<const geo::GeoModel> geo;
};

/// A scheduler plus the domain model it reads; the model is exposed so the
/// estimator can update weights (the TTL policy auto-recalibrates via the
/// model's change notification).
struct SchedulerBundle {
  std::unique_ptr<DomainModel> domains;
  std::unique_ptr<DnsScheduler> scheduler;
};

/// Builds the named algorithm. `sim` backs DAL's decay timers; `rng` seeds
/// the probabilistic policies (one child stream per scheduler).
SchedulerBundle make_scheduler(const std::string& name, const SchedulerFactoryConfig& config,
                               const AlarmRegistry& alarms, sim::Simulator& sim,
                               sim::RngStream& rng);

}  // namespace adattl::core
