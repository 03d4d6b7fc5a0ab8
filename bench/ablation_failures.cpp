// Ablation (extension beyond the paper): silent server outages and the
// limits of utilization-only alarm feedback.
//
// A stalled server reports *low* utilization — its queue grows but its CPU
// is idle — so the paper's feedback mechanism keeps routing mappings to
// it. Extending the alarm with a queue-depth threshold restores exclusion.
// Reported: P(maxUtil < 0.98) over the *healthy* servers' perspective is
// misleading under outages, so this bench reports response-time
// percentiles, which capture the trapped requests.
#include "bench_common.h"

using namespace adattl;

int main() {
  const int reps = experiment::default_replications();
  bench::print_run_banner("Ablation: server outages",
                          "heterogeneity 35%, 10-minute silent stall of server 2");

  experiment::TableReport table({"configuration", "mean resp (s)", "p95 resp (s)",
                                 "p99 resp (s)", "P(maxU<0.98)"});

  struct Variant {
    const char* label;
    bool outage;
    std::size_t queue_threshold;
  };
  const Variant variants[] = {
      {"healthy site", false, 0},
      {"outage, utilization-only alarms (paper)", true, 0},
      {"outage, + queue-depth alarms (extension)", true, 30},
  };

  experiment::Sweep sweep;
  for (const Variant& v : variants) {
    experiment::SimulationConfig cfg = bench::paper_config(35);
    cfg.policy = "DRR2-TTL/S_K";
    cfg.alarm_queue_threshold = v.queue_threshold;
    if (v.outage) {
      // Stall server 2 for 10 minutes, one third into the measured period.
      cfg.faults.pauses.push_back({cfg.warmup_sec + cfg.duration_sec / 3.0, 600.0, 2});
    }
    sweep.add(cfg, reps, v.label);
  }
  const experiment::SweepResult swept = bench::run_sweep(sweep);

  std::size_t idx = 0;
  for (const Variant& v : variants) {
    const experiment::ReplicatedResult& rep = swept.points[idx++];
    table.add_row(
        {v.label,
         experiment::TableReport::fmt(
             rep.ci([](const auto& r) { return r.mean_page_response_sec; }).mean, 3),
         experiment::TableReport::fmt(
             rep.ci([](const auto& r) { return r.response_p95_sec; }).mean, 2),
         experiment::TableReport::fmt(
             rep.ci([](const auto& r) { return r.response_p99_sec; }).mean, 2),
         experiment::TableReport::fmt(rep.prob_below(0.98).mean)});
  }
  bench::emit(table, "DRR2-TTL/S_K under a silent 10-minute outage of server 2");
  return 0;
}
