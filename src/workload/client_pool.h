#pragma once

#include <cstdint>
#include <vector>

#include "dnscache/resolver.h"
#include "geo/geo_model.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "sim/stats.h"
#include "web/dispatcher.h"
#include "workload/think_time_model.h"

namespace adattl::workload {

/// How many hits a page request carries.
enum class HitsDistribution {
  kUniform,  ///< uniform integer in [min, max] — the paper's model
  kPareto,   ///< bounded Pareto on [min, max] — heavy-tailed extension
};

/// Parameters of one client session (paper §4.1 / Table 1).
struct SessionProfile {
  double mean_pages_per_session = 20.0;  ///< geometric (discrete exponential)
  int min_hits_per_page = 5;             ///< hits per page bounds
  int max_hits_per_page = 15;
  HitsDistribution hits_distribution = HitsDistribution::kUniform;
  /// Tail index for the Pareto option (smaller = heavier tail).
  double pareto_shape = 1.5;

  void validate() const;

  /// Draws one page's hit count.
  int sample_hits(sim::Rng& rng) const;

  /// Mean hits per page under the configured distribution.
  double mean_hits_per_page() const;
};

/// The entire client population of one simulation as a single pooled
/// object: one contiguous vector of 64-byte, line-aligned records (the
/// client's generator and the page in flight) instead of a heap allocation
/// per client, so a client's event touches exactly one cache line of it.
/// At a million clients that is one ~64 MB allocation. The lifetime
/// counters are kept pool-wide, and the network time per client, which
/// only geography charges, in a side array that exists only with a geo
/// model.
///
/// A client is always in exactly one state (thinking, a page in flight, or
/// waiting on a resolution), so it has at most one pending event, and its
/// record says which handler that event runs. The pool is its simulator's
/// owner (sim::EventQueue::Owner): a client's event is the client's index
/// in the heap, with no slot and no callback, and the kernel prefetches
/// the record from that index one event before the pool reads it. Every
/// page names the pool as its web::PageClient with the client's index as
/// its token, so a page in flight carries no closure either.
///
/// Lifecycle per client (paper §4.1): a session opens with a single
/// address resolution through the domain's name server, then issues a
/// geometric number of page requests — each a burst of hits — separated by
/// exponential think times; the next session re-resolves (possibly served
/// from the NS cache) and repeats forever. The client holds its mapping
/// for the whole session even if the TTL expires mid-session.
///
/// Event coalescing: the page lifecycle costs at most ONE in-flight kernel
/// event per client. Between a page's service completion and the next
/// page's arrival at the server nothing observable about the client can
/// change (the mapping is held for the session, the think time and the
/// next page's size are independent draws), so the reply flight, the think
/// period and the next request flight collapse into a single event at
/// t + rtt/2 + think + rtt/2. Without geography (rtt = 0) the event
/// sequence is bit-identical to the historical one-object-per-client code;
/// with geography it replaces three client events per page by one. The
/// one approximation: think times are sampled rtt/2 seconds (the reply
/// flight) earlier in simulated time, so a scripted rate shift firing
/// inside that sub-second window applies one page later than before.
///
/// Network accounting charges each flight leg when it is actually taken:
/// the request leg (rtt/2) at dispatch — including every retry attempt,
/// which really does fly to the (possibly dead) server — and the reply leg
/// (rtt/2) only when the server completes the page. A page that fails at
/// the server never charges the reply it never received.
class ClientPool final : private web::PageClient {
 public:
  /// `geo` (optional) adds network round-trip time to every page: the
  /// request travels rtt/2 before reaching the server and the reply
  /// travels rtt/2 back, so client-perceived response = rtt + server time.
  /// `retry_delay_sec` is the pause before retrying a failed page or
  /// resolution (failures only occur under fault injection).
  ClientPool(sim::Simulator& sim, web::PageDispatcher& dispatcher,
             const SessionProfile& profile, const ThinkTimeModel& think,
             const geo::GeoModel* geo = nullptr, double retry_delay_sec = 1.0);

  ClientPool(const ClientPool&) = delete;
  ClientPool& operator=(const ClientPool&) = delete;

  /// Reserving the whole population before add() keeps the records in
  /// place, so the record address the kernel prefetches from stays
  /// current.
  void reserve(std::size_t clients);

  /// Adds one client that resolves through `resolver` (a NameServer or a
  /// per-client cache on top of one) and draws from a copy of `rng`.
  /// Returns the client's index. `resolver` must outlive the pool.
  std::size_t add(dnscache::Resolver& resolver, const sim::Rng& rng);

  /// Schedules client `i`'s first session `initial_delay` seconds from now
  /// (staggered starts avoid a synchronized stampede at t = 0). Throws
  /// std::out_of_range, naming `i`, if the pool has no client `i`, and
  /// std::logic_error, naming `i`, if client `i` was already started: two
  /// sessions on one record would overwrite each other's page.
  void start(std::size_t i, double initial_delay);

  std::size_t size() const { return recs_.size(); }

  /// The whole population's lifetime counts.
  struct Totals {
    std::uint64_t sessions = 0;
    std::uint64_t pages = 0;
    /// Page attempts that came back failed (crashed server); each is
    /// retried after retry_delay_sec with a fresh resolution, so one page
    /// can fail several times during a long outage.
    std::uint64_t pages_failed = 0;
    /// Resolutions that produced no server at all (cold NS cache during a
    /// DNS outage); retried like failed pages.
    std::uint64_t resolution_failures = 0;
    /// Network flight seconds the pages actually spent in the air, summed
    /// per client and then over the clients in index order (0 without a
    /// geo model).
    double network_time_sec = 0.0;
  };
  Totals totals() const;

  /// Client-perceived page response time distribution of domain `d`:
  /// request flight + queue + service + reply flight, recorded per
  /// completed page (a failed attempt records nothing — only the attempt
  /// that finally succeeds is measured, from its own dispatch).
  const sim::Histogram& domain_response_histogram(int d) const {
    return domain_response_.at(static_cast<std::size_t>(d));
  }

 private:
  /// What a client is doing: exactly one state. The states after kAtServer
  /// are its one pending event, and name the handler that event runs.
  enum class State : std::uint8_t {
    kNotStarted,    ///< added; start() not yet called
    kAtServer,      ///< no pending event: its page is at a server (or its event runs)
    kBeginSession,  ///< resolve and open a session
    kArrive,        ///< its page reaches the server (a session's first page, or a retry)
    kArriveNext,    ///< the session's next page reaches the server, and counts as requested
    kRetryPage,     ///< re-resolve and resend the failed page
  };

  /// One client: exactly what its events read, in one cache line. The
  /// pool's contiguous vector of these is the population's per-client
  /// state (std::vector allocates the over-aligned type through aligned
  /// new).
  struct alignas(64) Rec {
    Rec(const sim::Rng& r, dnscache::Resolver* res) : rng(r), resolver(res) {}

    sim::Rng rng;
    dnscache::Resolver* resolver;
    /// Server-arrival instant of the page in flight; with the request leg
    /// prepended and the reply leg appended this yields the client-
    /// perceived response time recorded at completion.
    double page_start = 0.0;
    /// Held for the whole session, and never changed while a page is in
    /// flight, so the page's RTT is looked up again at completion.
    web::ServerId mapped_server = -1;
    int pages_left = 0;
    /// Hit count of the page in flight, kept so a failed page retries with
    /// the *same* size (a retry is the same page, not a new sample).
    int pending_hits = 0;
    State state = State::kNotStarted;
  };
  static_assert(sizeof(Rec) == 64, "a client record is exactly one cache line");
  static_assert(alignof(Rec) == 64, "a client record starts a cache line");

  /// The simulator's owner entry: fires client `i`'s pending event.
  static void fire(void* pool, std::uint32_t i);
  /// Registers the pool as its simulator's owner at the records' address.
  void own_simulator();
  /// Schedules client `i`'s one pending event, which runs `next`, `delay`
  /// seconds from now. Throws std::logic_error, naming `i`, if client `i`
  /// already has one.
  void wake(std::uint32_t i, State next, double delay);
  [[noreturn]] static void throw_not_idle(std::size_t i, const char* what);

  void begin_session(std::uint32_t i);
  void dispatch_request(std::uint32_t i);
  void arrive(std::uint32_t i);
  // web::PageClient: the token is the client's index.
  void page_done(std::uint32_t i) override;
  void page_failed(std::uint32_t i) override;
  void retry_page(std::uint32_t i);

  sim::Simulator& sim_;
  web::PageDispatcher& dispatcher_;
  SessionProfile profile_;
  const ThinkTimeModel& think_;
  const geo::GeoModel* geo_;
  double retry_delay_sec_;
  std::vector<Rec> recs_;
  /// Per-client network flight seconds, beside recs_; empty without a geo
  /// model, the only thing that charges them.
  std::vector<double> network_time_;
  /// The counts of totals(). Its network time stays 0: totals() sums
  /// network_time_ when asked.
  Totals totals_;
  /// One histogram per domain; purely observational (never read by any
  /// event handler), so recording cannot perturb the event sequence.
  std::vector<sim::Histogram> domain_response_;
};

}  // namespace adattl::workload
