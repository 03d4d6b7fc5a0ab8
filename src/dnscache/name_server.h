#pragma once

#include <algorithm>
#include <cstdint>

#include "core/scheduler.h"
#include "dnscache/resolver.h"
#include "fault/dns_outage.h"
#include "obs/event_tracer.h"
#include "sim/simulator.h"
#include "sim/stats.h"
#include "web/types.h"

namespace adattl::dnscache {

/// How a name server treats TTL values it considers too small.
///
/// Paper §5.2: "there does not exist a common TTL lower bound which is
/// accepted by all NSs ... we consider the worst case scenario, where all
/// NSs become non-cooperative if the proposed TTL is lower than a given
/// minimum threshold". A proposed TTL below `min_accepted_sec` is replaced
/// by `override_sec` (defaults to the threshold itself).
struct NsTtlBehavior {
  double min_accepted_sec = 0.0;
  double override_sec = 0.0;  // 0 ⇒ use min_accepted_sec

  /// Smallest TTL a cached record can carry: whatever the behavior fields
  /// say, a record is never cached for less than one second (a zero or
  /// negative TTL would make the cache a pure pass-through and, worse,
  /// an already-expired record).
  static constexpr double kFloorTtlSec = 1.0;

  /// The TTL actually cached for a proposed TTL. Invariants: the result
  /// is always > 0, and never below min_accepted_sec when that is set.
  /// An override below the minimum threshold is clamped *up* to it — the
  /// non-cooperative NS substitutes a value it would accept, so honoring
  /// a smaller override would contradict the threshold it enforces.
  double effective_ttl(double proposed) const {
    if (proposed >= min_accepted_sec && proposed > 0.0) return proposed;
    const double replacement = std::max(override_sec, min_accepted_sec);
    return replacement > 0.0 ? replacement : kFloorTtlSec;
  }
};

/// Retry behavior of a name server that cannot reach the authoritative
/// DNS: capped exponential backoff. The first failed query arms
/// `initial_backoff_sec`; every further failed *attempt* multiplies the
/// interval by `multiplier` up to `max_backoff_sec`. Queries landing
/// inside the backoff window are answered from the cache without even
/// attempting the upstream (that is what backoff means), so an outage
/// costs O(log duration) attempts instead of one per expiry.
struct NsRetryPolicy {
  double initial_backoff_sec = 1.0;
  double max_backoff_sec = 64.0;
  double multiplier = 2.0;

  /// Throws std::invalid_argument on non-positive fields or max < initial.
  void validate() const;
};

/// The local name server of one client domain.
///
/// Address requests within the cached mapping's TTL are answered locally;
/// the first request after expiry goes to the authoritative DNS scheduler.
/// This cache is exactly why the DNS controls so few requests — the core
/// problem the adaptive TTL algorithms are designed around.
///
/// When an outage calendar is attached (set_dns_outages), a query that
/// finds the authoritative DNS unreachable falls back to *stale-serving*:
/// the expired mapping is returned with an already-past expiry (so
/// downstream caches will not keep it), a retry is armed with capped
/// exponential backoff, and the failure is counted. A NS that has never
/// resolved anything returns Mapping{-1, now} — resolution failure the
/// client must handle.
class NameServer : public Resolver {
 public:
  NameServer(sim::Simulator& sim, web::DomainId domain, core::DnsScheduler& dns,
             NsTtlBehavior behavior = {});

  /// Resolves the site name for one client of this domain.
  web::ServerId resolve() override;

  /// Like resolve(), but also reports when the returned mapping expires,
  /// so client-side caches can inherit the remaining TTL.
  Mapping resolve_mapping();

  web::DomainId domain() const override { return domain_; }

  /// True if a mapping is currently cached and fresh.
  bool has_fresh_mapping() const;

  std::uint64_t cache_hits() const { return cache_hits_; }
  std::uint64_t authoritative_queries() const { return authoritative_queries_; }

  /// Attaches the authoritative-DNS availability calendar (owned by the
  /// fault injector; may be null to detach) and the retry behavior.
  void set_dns_outages(const fault::DnsOutageCalendar* calendar,
                       NsRetryPolicy retry = {});

  /// Expired answers served because the authoritative DNS was unreachable.
  std::uint64_t stale_serves() const { return stale_serves_; }
  /// Upstream query attempts that found the DNS unreachable.
  std::uint64_t failed_queries() const { return failed_queries_; }

  const NsTtlBehavior& behavior() const { return behavior_; }

  /// Wires the event tracer (records carry the domain id) and the
  /// histogram that receives the effective TTL of every mapping cached
  /// from the authoritative DNS; name servers may share one. Either may be
  /// null.
  void bind_observability(obs::EventTracer* tracer, sim::Histogram* effective_ttl);

 private:
  Mapping serve_unreachable();

  sim::Simulator& sim_;
  web::DomainId domain_;
  core::DnsScheduler& dns_;
  NsTtlBehavior behavior_;
  NsRetryPolicy retry_;
  const fault::DnsOutageCalendar* outages_ = nullptr;  // null = always reachable

  web::ServerId cached_server_ = -1;
  sim::SimTime expires_at_ = sim::kTimeNever;

  // Backoff state: no upstream attempt before next_attempt_at_;
  // current_backoff_sec_ == 0 means "not backing off" (last attempt OK).
  sim::SimTime next_attempt_at_ = 0.0;
  double current_backoff_sec_ = 0.0;

  std::uint64_t cache_hits_ = 0;
  std::uint64_t authoritative_queries_ = 0;
  std::uint64_t stale_serves_ = 0;
  std::uint64_t failed_queries_ = 0;

  sim::Histogram* effective_ttl_hist_ = nullptr;
  obs::EventTracer* tracer_ = nullptr;
};

}  // namespace adattl::dnscache
