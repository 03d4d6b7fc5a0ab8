// Estimator-quality ablation: EWMA vs sliding-window vs Holt-Winters vs
// AR(p) under (a) a scripted 8x flash crowd and (b) a diurnal trace, both
// produced by the workload trace generators and replayed as noise-free
// collection windows straight into the estimators. Emits one JSON document
// on stdout; tools/run_benches.py keeps it as BENCH_estimator.json.
//
// Two headline numbers per estimator:
//   * flash crowd — peak share error after the spike, and collection
//     windows until the installed share is back within 2% (absolute) of
//     the true post-spike share;
//   * diurnal     — mean/max absolute share error across a full cycle.
//
// The JSON "summary" asserts the claim the predictive estimators exist
// for: Holt-Winters and AR reconverge strictly faster than EWMA at the
// default smoothing.
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/load_estimator.h"
#include "workload/trace.h"

namespace {

using adattl::core::ArLoadEstimator;
using adattl::core::DomainModel;
using adattl::core::EwmaLoadEstimator;
using adattl::core::HoltWintersLoadEstimator;
using adattl::core::LoadEstimator;
using adattl::core::SlidingWindowLoadEstimator;
using adattl::workload::TraceEvent;

constexpr int kDomains = 8;
constexpr double kWindowSec = 32.0;  // monitor interval 8 s x collect every 4
constexpr double kSmoothing = 0.3;   // library defaults, matching config.h
constexpr double kTrend = 0.2;
constexpr int kArOrder = 3;
constexpr int kWindowCount = 8;
constexpr double kShareTolerance = 0.02;

// Heterogeneous base demand (hits/sec) the multipliers scale.
const std::vector<double> kBaseRates = {12.0, 9.0, 7.0, 5.5, 4.5, 3.5, 2.5, 1.5};

const char* const kKinds[] = {"ewma", "window", "holt", "ar"};

std::unique_ptr<LoadEstimator> make_estimator(const std::string& kind, DomainModel& model) {
  if (kind == "ewma") return std::make_unique<EwmaLoadEstimator>(model, kSmoothing);
  if (kind == "window") return std::make_unique<SlidingWindowLoadEstimator>(model, kWindowCount);
  if (kind == "holt")
    return std::make_unique<HoltWintersLoadEstimator>(model, kSmoothing, kTrend);
  return std::make_unique<ArLoadEstimator>(model, kArOrder);
}

// Per-window rate multipliers from a trace: window w covers
// [w*kWindowSec, (w+1)*kWindowSec) and sees every event at or before its
// start (events are emitted in time order by the generators).
std::vector<std::vector<double>> window_multipliers(const std::vector<TraceEvent>& events,
                                                    int windows) {
  std::vector<std::vector<double>> out;
  std::vector<double> current(kDomains, 1.0);
  std::size_t next = 0;
  for (int w = 0; w < windows; ++w) {
    const double t = w * kWindowSec;
    while (next < events.size() && events[next].at_sec <= t) {
      current[static_cast<std::size_t>(events[next].domain)] = events[next].rate_multiplier;
      ++next;
    }
    out.push_back(current);
  }
  return out;
}

std::vector<std::uint64_t> window_hits(const std::vector<double>& multipliers) {
  std::vector<std::uint64_t> hits(kDomains);
  for (int d = 0; d < kDomains; ++d) {
    hits[static_cast<std::size_t>(d)] = static_cast<std::uint64_t>(
        kBaseRates[static_cast<std::size_t>(d)] *
        multipliers[static_cast<std::size_t>(d)] * kWindowSec);
  }
  return hits;
}

double true_share(const std::vector<double>& multipliers, int domain) {
  double total = 0.0;
  for (int d = 0; d < kDomains; ++d) {
    total += kBaseRates[static_cast<std::size_t>(d)] *
             multipliers[static_cast<std::size_t>(d)];
  }
  return kBaseRates[static_cast<std::size_t>(domain)] *
         multipliers[static_cast<std::size_t>(domain)] / total;
}

struct FlashResult {
  double peak_share_error = 0.0;
  int windows_to_reconverge = 0;  // after the spike window; 0 = never
};

FlashResult run_flash(const std::string& kind) {
  // 30 stationary windows, then domain 0 turns 8x hot instantly and stays
  // hot for 60 windows (ramp/decay 0 = a step, the estimator worst case).
  adattl::workload::FlashCrowdSpec spec;
  spec.domain = 0;
  spec.start_sec = 30 * kWindowSec;
  spec.ramp_sec = 0.0;
  spec.hold_sec = 60 * kWindowSec;
  spec.decay_sec = 0.0;
  spec.peak_multiplier = 8.0;
  spec.step_sec = kWindowSec;
  const int total_windows = 90;
  const auto mults = window_multipliers(adattl::workload::generate_flash_crowd(spec),
                                        total_windows);

  DomainModel model(std::vector<double>(kDomains, 1.0), 1.0 / kDomains);
  const std::unique_ptr<LoadEstimator> est = make_estimator(kind, model);

  FlashResult r;
  const int spike_window = 30;
  for (int w = 0; w < total_windows; ++w) {
    est->observe(window_hits(mults[static_cast<std::size_t>(w)]), kWindowSec);
    if (w < spike_window) continue;
    const double err =
        std::abs(model.share(0) - true_share(mults[static_cast<std::size_t>(w)], 0));
    r.peak_share_error = std::max(r.peak_share_error, err);
    if (r.windows_to_reconverge == 0 && err <= kShareTolerance) {
      r.windows_to_reconverge = w - spike_window + 1;
    }
  }
  return r;
}

struct DiurnalResult {
  double mean_abs_share_error = 0.0;
  double max_abs_share_error = 0.0;
};

DiurnalResult run_diurnal(const std::string& kind) {
  // Two full cycles, 48 windows each, phases spread across the domains so
  // the share ranking itself rotates through the day.
  adattl::workload::DiurnalSpec spec;
  spec.duration_sec = 96 * kWindowSec;
  spec.period_sec = 48 * kWindowSec;
  spec.amplitude = 0.6;
  spec.phase_spread_sec = 24 * kWindowSec;
  spec.step_sec = kWindowSec;
  const int total_windows = 96;
  const auto mults = window_multipliers(
      adattl::workload::generate_diurnal(spec, kDomains), total_windows);

  DomainModel model(std::vector<double>(kDomains, 1.0), 1.0 / kDomains);
  const std::unique_ptr<LoadEstimator> est = make_estimator(kind, model);

  DiurnalResult r;
  int measured = 0;
  for (int w = 0; w < total_windows; ++w) {
    est->observe(window_hits(mults[static_cast<std::size_t>(w)]), kWindowSec);
    if (w < 8) continue;  // let every estimator seed/fill before scoring
    double err = 0.0;
    for (int d = 0; d < kDomains; ++d) {
      err += std::abs(model.share(d) - true_share(mults[static_cast<std::size_t>(w)], d));
    }
    err /= kDomains;
    r.mean_abs_share_error += err;
    r.max_abs_share_error = std::max(r.max_abs_share_error, err);
    ++measured;
  }
  if (measured > 0) r.mean_abs_share_error /= measured;
  return r;
}

}  // namespace

int main() {
  FlashResult flash[4];
  DiurnalResult diurnal[4];
  for (int i = 0; i < 4; ++i) {
    flash[i] = run_flash(kKinds[i]);
    diurnal[i] = run_diurnal(kKinds[i]);
  }
  const FlashResult& ewma = flash[0];
  const FlashResult& holt = flash[2];
  const FlashResult& ar = flash[3];
  const bool holt_faster = holt.windows_to_reconverge != 0 &&
                           (ewma.windows_to_reconverge == 0 ||
                            holt.windows_to_reconverge < ewma.windows_to_reconverge);
  const bool ar_faster = ar.windows_to_reconverge != 0 &&
                         (ewma.windows_to_reconverge == 0 ||
                          ar.windows_to_reconverge < ewma.windows_to_reconverge);

  std::printf("{\n");
  std::printf("  \"parameters\": {\"domains\": %d, \"window_sec\": %g, \"smoothing\": %g, "
              "\"trend\": %g, \"ar_order\": %d, \"window_count\": %d, "
              "\"share_tolerance\": %g},\n",
              kDomains, kWindowSec, kSmoothing, kTrend, kArOrder, kWindowCount,
              kShareTolerance);
  std::printf("  \"flash_crowd\": {\n");
  for (int i = 0; i < 4; ++i) {
    std::printf("    \"%s\": {\"peak_share_error\": %.6f, \"windows_to_reconverge\": %d}%s\n",
                kKinds[i], flash[i].peak_share_error, flash[i].windows_to_reconverge,
                i + 1 < 4 ? "," : "");
  }
  std::printf("  },\n");
  std::printf("  \"diurnal\": {\n");
  for (int i = 0; i < 4; ++i) {
    std::printf("    \"%s\": {\"mean_abs_share_error\": %.6f, \"max_abs_share_error\": %.6f}%s\n",
                kKinds[i], diurnal[i].mean_abs_share_error, diurnal[i].max_abs_share_error,
                i + 1 < 4 ? "," : "");
  }
  std::printf("  },\n");
  std::printf("  \"summary\": {\"holt_reconverges_faster_than_ewma\": %s, "
              "\"ar_reconverges_faster_than_ewma\": %s}\n",
              holt_faster ? "true" : "false", ar_faster ? "true" : "false");
  std::printf("}\n");
  return (holt_faster && ar_faster) ? 0 : 1;
}
