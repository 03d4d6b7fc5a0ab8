#include "workload/domain_set.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace adattl::workload {

int DomainSet::total_clients() const {
  return std::accumulate(clients.begin(), clients.end(), 0);
}

std::vector<double> DomainSet::true_weights() const {
  validate();
  std::vector<double> w(clients.size());
  for (std::size_t j = 0; j < clients.size(); ++j) {
    w[j] = static_cast<double>(clients[j]) / mean_think_sec[j];
  }
  return w;
}

void DomainSet::validate() const {
  if (clients.empty()) throw std::invalid_argument("DomainSet: no domains");
  if (clients.size() != mean_think_sec.size()) {
    throw std::invalid_argument("DomainSet: clients/think size mismatch");
  }
  bool any = false;
  for (std::size_t j = 0; j < clients.size(); ++j) {
    if (clients[j] < 0) throw std::invalid_argument("DomainSet: negative client count");
    if (mean_think_sec[j] <= 0) throw std::invalid_argument("DomainSet: think time must be > 0");
    any = any || clients[j] > 0;
  }
  if (!any) throw std::invalid_argument("DomainSet: no clients at all");
}

DomainSet make_zipf_domains(int k, int total_clients, double mean_think_sec, double theta) {
  if (total_clients <= 0) throw std::invalid_argument("make_zipf_domains: need clients");
  const sim::ZipfDistribution zipf(k, theta);
  DomainSet ds;
  ds.clients = sim::apportion_largest_remainder(total_clients, zipf.probabilities());
  ds.mean_think_sec.assign(static_cast<std::size_t>(k), mean_think_sec);
  ds.validate();
  return ds;
}

DomainSet make_uniform_domains(int k, int total_clients, double mean_think_sec) {
  if (total_clients <= 0) throw std::invalid_argument("make_uniform_domains: need clients");
  DomainSet ds;
  ds.clients = sim::apportion_largest_remainder(
      total_clients, std::vector<double>(static_cast<std::size_t>(k), 1.0));
  ds.mean_think_sec.assign(static_cast<std::size_t>(k), mean_think_sec);
  ds.validate();
  return ds;
}

void apply_rate_perturbation(DomainSet& domains, double error_percent) {
  domains.validate();
  if (error_percent == 0.0) return;
  if (error_percent < 0.0) throw std::invalid_argument("perturbation: error must be >= 0");
  if (domains.num_domains() < 2) {
    throw std::invalid_argument("perturbation: need >= 2 domains to rebalance");
  }

  if (error_percent >= max_rate_perturbation_percent(domains)) {
    throw std::invalid_argument("perturbation: error so large the other domains vanish");
  }

  const std::vector<double> rates = domains.true_weights();
  const double total = std::accumulate(rates.begin(), rates.end(), 0.0);
  const std::size_t busiest = static_cast<std::size_t>(
      std::max_element(rates.begin(), rates.end()) - rates.begin());

  const double grow = 1.0 + error_percent / 100.0;
  const double new_busiest = rates[busiest] * grow;
  const double rest_old = total - rates[busiest];
  const double rest_new = total - new_busiest;
  const double shrink = rest_new / rest_old;

  // rate = clients / think, so rate × f ⇒ think ÷ f.
  for (std::size_t j = 0; j < domains.mean_think_sec.size(); ++j) {
    domains.mean_think_sec[j] /= (j == busiest) ? grow : shrink;
  }
}

double max_rate_perturbation_percent(const DomainSet& domains) {
  const std::vector<double> rates = domains.true_weights();
  const double total = std::accumulate(rates.begin(), rates.end(), 0.0);
  const double busiest = *std::max_element(rates.begin(), rates.end());
  return 100.0 * (total / busiest - 1.0);
}

}  // namespace adattl::workload
