#include "experiment/config.h"

#include <cmath>

#include "experiment/param_registry.h"

namespace adattl::experiment {

double SimulationConfig::scaled_clients() const {
  return std::round(scale * static_cast<double>(total_clients));
}

SimulationConfig SimulationConfig::scaled() const {
  if (scale == 1.0) return *this;
  validate();
  SimulationConfig c = *this;
  c.total_clients = static_cast<int>(scaled_clients());
  c.cluster.total_capacity_hits_per_sec *= scale;
  c.scale = 1.0;
  return c;
}

void SimulationConfig::validate() const {
  // All per-knob range checks and cross-knob constraints live in the
  // parameter registry, so programmatically built configs are rejected
  // with exactly the same messages as CLI/env/scenario input.
  CliOptions wrapped;
  wrapped.config = *this;
  ParamRegistry::instance().validate(wrapped);
}

}  // namespace adattl::experiment
