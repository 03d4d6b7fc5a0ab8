#include "obs/metrics.h"

#include <stdexcept>

namespace adattl::obs {

const char* metric_kind_name(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "?";
}

const MetricsSnapshot::Metric* MetricsSnapshot::find(const std::string& name) const {
  for (const Metric& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

MetricsSnapshot::Metric& MetricsSnapshot::add(const std::string& name, MetricKind kind) {
  if (find(name) != nullptr) {
    throw std::invalid_argument("MetricsSnapshot: '" + name + "' added twice");
  }
  Metric& m = metrics.emplace_back();
  m.name = name;
  m.kind = kind;
  return m;
}

void MetricsSnapshot::add_counter(const std::string& name, std::uint64_t value) {
  add(name, MetricKind::kCounter).value = static_cast<double>(value);
}

void MetricsSnapshot::add_gauge(const std::string& name, double value) {
  add(name, MetricKind::kGauge).value = value;
}

void MetricsSnapshot::add_histogram(const std::string& name, const sim::Histogram& histogram) {
  Metric& m = add(name, MetricKind::kHistogram);
  m.value = static_cast<double>(histogram.count());
  m.upper = histogram.upper();
  m.count = histogram.count();
  m.sum = histogram.sum();
  m.bins = histogram.counts();
}

}  // namespace adattl::obs
