#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/stats.h"

namespace adattl::obs {

enum class MetricKind { kCounter, kGauge, kHistogram };

/// Returns "counter", "gauge" or "histogram".
const char* metric_kind_name(MetricKind kind);

/// The end-of-run metrics of one simulation, built once after the event
/// loop from the counters the components already keep (see
/// experiment::SliceSet::reduce). Detached from the run: safe to keep
/// after the Site that produced it dies.
struct MetricsSnapshot {
  struct Metric {
    std::string name;
    MetricKind kind = MetricKind::kCounter;
    /// Counter or gauge value (histograms: the sample count).
    double value = 0.0;
    // Histogram payload (empty bins for counters/gauges).
    double upper = 0.0;
    std::uint64_t count = 0;
    double sum = 0.0;
    std::vector<std::uint64_t> bins;  // last slot = overflow (x >= upper)
  };

  std::vector<Metric> metrics;  // in the order they were added

  /// Append one metric. A name already present throws
  /// std::invalid_argument: the snapshot serializes as a JSON object.
  void add_counter(const std::string& name, std::uint64_t value);
  void add_gauge(const std::string& name, double value);
  /// Copies the histogram's shape, count, sum and bins.
  void add_histogram(const std::string& name, const sim::Histogram& histogram);

  /// nullptr when `name` was never added.
  const Metric* find(const std::string& name) const;

 private:
  Metric& add(const std::string& name, MetricKind kind);
};

}  // namespace adattl::obs
