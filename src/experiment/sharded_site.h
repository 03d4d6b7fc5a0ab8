#pragma once

#include <vector>

#include "experiment/config.h"
#include "experiment/parallel_executor.h"
#include "experiment/site_slice.h"

namespace adattl::experiment {

/// Domain-sharded parallel-in-one-run mode (DESIGN.md §16).
///
/// Clients in different domains interact only through two channels: the
/// DNS estimator/alarm state (updated on the monitor clock) and the shared
/// servers. ShardedSite exploits that: the domains are partitioned over N
/// shards, and each shard is a SiteSlice over its domains — a private
/// simulator with its own scheduler replica, cluster replica, name servers
/// and pooled clients.
///
/// The partition balances offered load, not domain counts: domains are
/// visited heaviest first by their hidden load weight (clients / think
/// time, lower id first on ties) and each goes to the shard with the least
/// load so far (lowest index on ties). Round-robin placement would repeat
/// the paper's own problem on the shards — with 20 Zipf(1) domains on 4
/// shards, `d % 4` puts 40.2% of the load on shard 0, while largest-first
/// gives domain 0 (27.8%) a shard to itself.
///
/// SliceSet::run drives the shards as it drives a Site's one slice: they
/// advance independently between monitor ticks, and at every tick all
/// shards stop on a phase barrier and the calling thread — in fixed shard
/// order — merges server busy-time deltas and queue depths into site-wide
/// utilizations: every shard's alarm registry sees the SAME merged view,
/// and the run's one estimator sees the summed hit counts and its weights
/// are copied into every shard's DomainModel, so all scheduler replicas
/// evolve identical feedback state. The shards then reduce into one
/// RunResult, exactly as a Site's one slice does.
///
/// Determinism: every shard's stream is split from the seed before any
/// shard is built, shards share no mutable state while they are built or
/// between barriers, and every merge runs in fixed shard order on the
/// caller's thread, so a run is bit-identical across repeats at a fixed
/// seed and shard count — whatever the worker count (ADATTL_JOBS=1 and =8
/// produce the same bytes).
///
/// Modeling caveats vs the unsharded Site (documented, intentional):
/// each shard's cluster replica has the full per-server capacity, so
/// service times are exact but cross-shard queueing contention is
/// under-modeled — a server's merged utilization is the sum of its
/// replicas' busy fractions (clamped at 1), while queueing delay is
/// computed per shard against that shard's share of the load. The DNS
/// decision stream is split per shard (each shard's replica schedules its
/// own domains with its own RNG), so decisions differ from the unsharded
/// run's single stream. Sharded results are therefore an approximation of
/// the same model, not a bit-compatible replay of Site (RunResult names the
/// outputs a run over several shards approximates); one shard is Site's
/// run exactly.
class ShardedSite {
 public:
  /// One shard is one slice over the domains the partition gave it.
  using Shard = SiteSlice;

  /// `config.shard_domains` must be set; `scale` is applied first. The
  /// shard count is config.slice_count(); it never depends on the host or
  /// on ADATTL_JOBS. The shards are built on a pool of ADATTL_JOBS jobs,
  /// which the site keeps for run() and which starts at most
  /// min(ADATTL_JOBS, shards) - 1 worker threads; with 1, they are built in
  /// shard order on the calling thread and no thread starts.
  explicit ShardedSite(const SimulationConfig& config);
  /// As above, on a pool of `workers` jobs. Throws std::invalid_argument
  /// if `workers` < 1. The result does not depend on `workers`.
  ShardedSite(const SimulationConfig& config, int workers);

  ShardedSite(const ShardedSite&) = delete;
  ShardedSite& operator=(const ShardedSite&) = delete;

  /// Runs warm-up + measured period across `executor`; single use.
  RunResult run(ParallelExecutor& executor);
  /// run() on the pool that built the shards.
  RunResult run();

  int shard_count() const { return slices_.size(); }
  Shard& shard(int s) { return slices_[s]; }
  const SliceSet& slices() const { return slices_; }
  /// Index of the shard that owns global domain `d`.
  int owner(int d) const { return owner_.at(static_cast<std::size_t>(d)); }
  const SimulationConfig& config() const { return config_; }
  const workload::DomainSet& domain_set() const { return slices_.workload().domains; }

 private:
  SimulationConfig config_;
  SliceSet slices_;
  ParallelExecutor pool_;
  std::vector<int> owner_;  // global domain id → owning shard index
};

}  // namespace adattl::experiment
