#pragma once

#include <vector>

#include "core/decision_context.h"
#include "web/types.h"

namespace adattl::core {

/// Strategy that picks the Web server for one address request.
///
/// Implementations receive the full DecisionContext (eligibility mask,
/// feedback state, RTT model, pool size); they must return an eligible
/// server (the mask is never all-false — AlarmRegistry guarantees a
/// fallback). Policies read only the fields their objective needs: the
/// paper's round-robin family touches nothing beyond `domain` and
/// `eligible`, which is what the golden equivalence test pins down.
class SelectionPolicy {
 public:
  virtual ~SelectionPolicy() = default;

  virtual web::ServerId select(const DecisionContext& ctx) = 0;

  /// Convenience for callers (tests, microbenches) that have only a mask:
  /// wraps it in a minimal context. Derived classes re-export it with
  /// `using SelectionPolicy::select;`.
  web::ServerId select(web::DomainId domain, const std::vector<bool>& eligible) {
    DecisionContext ctx;
    ctx.domain = domain;
    ctx.eligible = &eligible;
    ctx.pool_size = static_cast<int>(eligible.size());
    return select(ctx);
  }

  /// Hook invoked once the scheduler has fixed the TTL for the mapping;
  /// lets stateful baselines (DAL) account for the assignment.
  virtual void on_assign(web::DomainId /*domain*/, web::ServerId /*server*/, double /*ttl*/) {}

  /// Long-run fraction of mappings each server receives when all servers
  /// stay eligible. Exact for the round-robin family; the TTL calibration
  /// uses it to average the per-server TTL term.
  virtual std::vector<double> stationary_shares() const = 0;
};

}  // namespace adattl::core
