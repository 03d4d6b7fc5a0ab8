#pragma once

#include <vector>

#include "sim/random.h"

namespace adattl::workload {

/// Static description of the client population: how many clients each
/// domain hosts and the mean think time of that domain's clients.
///
/// A domain's offered hit rate is proportional to clients / think_time, so
/// this pair fully determines the "hidden load weight" skew the DNS has to
/// cope with. Domains are ordered by decreasing popularity (index 0 is the
/// Zipf rank-1 domain).
struct DomainSet {
  std::vector<int> clients;
  std::vector<double> mean_think_sec;

  int num_domains() const { return static_cast<int>(clients.size()); }
  int total_clients() const;

  /// True per-domain load weights ∝ offered hit rate (clients / think).
  /// These are the weights an oracle DNS would use.
  std::vector<double> true_weights() const;

  void validate() const;
};

/// The paper's population: `total_clients` clients split over `k` domains
/// by a pure Zipf distribution (exponent `theta`), all with the same mean
/// think time. Splitting uses largest-remainder apportionment so the
/// result is deterministic and sums exactly.
DomainSet make_zipf_domains(int k, int total_clients, double mean_think_sec, double theta = 1.0);

/// Uniform client distribution — the workload of the paper's "Ideal" curve
/// (PRR under uniform domain request rates).
DomainSet make_uniform_domains(int k, int total_clients, double mean_think_sec);

/// Applies the estimation-error perturbation of §5.2: the busiest domain's
/// request rate grows by `error_percent` percent and every other domain's
/// rate shrinks proportionally, keeping the total offered rate unchanged
/// (this *increases* the skew — the paper's worst case). Rates are changed
/// by scaling think times, so client counts stay integral.
/// The DNS keeps using the *unperturbed* weights, which is exactly what
/// "estimation error" means in the paper's setup.
/// Throws std::invalid_argument when `error_percent` is negative or at
/// least max_rate_perturbation_percent(domains).
void apply_rate_perturbation(DomainSet& domains, double error_percent);

/// The error at or past which apply_rate_perturbation would leave the
/// domains other than the busiest no load: 100 (total / busiest - 1) over
/// the true rates, 0 for one domain.
double max_rate_perturbation_percent(const DomainSet& domains);

}  // namespace adattl::workload
