// Crash accounting (ROADMAP invariant): lost + completed + queued ==
// submitted, with fault schedules drawn randomly. Two layers:
//
//  * a direct WebServer op-sequence test — random interleavings of
//    submissions, crash/pause toggles and capacity degradations, checking
//    the server's counters against an independent tally after every
//    transition and at the end;
//  * full Site runs under random crash/degrade/pause/outage plans, routed
//    through the shared conservation checker (invariants.h).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "../page_recorder.h"
#include "experiment/site.h"
#include "invariants.h"
#include "proptest.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "web/web_server.h"

namespace adattl {
namespace {

using proptest::ConfigGen;
using proptest::for_each_case;
using proptest::Profile;
using proptest::PropertyCase;

TEST(CrashAccountingProperty, DirectServerOpSequences) {
  for_each_case("proptest_crash_accounting", 100, [](PropertyCase& pc) {
    sim::RngStream& rng = pc.rng;
    sim::Simulator simulator;
    const int domains = static_cast<int>(rng.uniform_int(1, 10));
    web::WebServer server(simulator, 0, rng.uniform(5.0, 100.0), domains,
                          sim::RngStream(rng.next_u64()));

    // The independent tally the server's counters must agree with.
    struct Tally {
      std::uint64_t submitted = 0;
      std::uint64_t accepted = 0;
      std::uint64_t rejected = 0;
      std::uint64_t accepted_hits = 0;
    };
    Tally tally;
    // Every page names this client; it hears of each completion and loss.
    web::PageRecorder client;

    const int ops = static_cast<int>(rng.uniform_int(150, 500));
    std::vector<double> times(static_cast<std::size_t>(ops));
    for (double& t : times) t = rng.uniform(0.0, 400.0);
    std::sort(times.begin(), times.end());

    for (double t : times) {
      const double kind = rng.uniform(0.0, 1.0);
      if (kind < 0.7) {
        const int domain = static_cast<int>(rng.uniform_int(0, domains - 1));
        const int hits = static_cast<int>(rng.uniform_int(1, 20));
        simulator.at(t, [&tally, &client, &server, domain, hits] {
          const bool was_crashed = server.crashed();
          const std::uint64_t rejected0 = server.rejected_pages();
          const auto token = static_cast<std::uint32_t>(tally.submitted);
          server.submit_page(client.page(domain, hits, token));
          ++tally.submitted;
          if (was_crashed) {
            // Rejected at the door: counted, failed, and NOT recorded as
            // demand — a crashed box must not skew load estimation.
            ASSERT_EQ(server.rejected_pages(), rejected0 + 1);
            ++tally.rejected;
          } else {
            ASSERT_EQ(server.rejected_pages(), rejected0);
            ++tally.accepted;
            tally.accepted_hits += static_cast<std::uint64_t>(hits);
          }
        });
      } else if (kind < 0.8) {
        simulator.at(t, [&server] {
          if (!server.crashed()) {
            // Crashing drops exactly the work in the house: the queue plus
            // the in-flight page, nothing more, nothing less.
            const std::uint64_t in_house = server.queue_length();
            const std::uint64_t lost0 = server.lost_pages();
            server.set_crashed(true);
            ASSERT_EQ(server.lost_pages(), lost0 + in_house);
            ASSERT_EQ(server.queue_length(), 0u);
          } else {
            server.set_crashed(false);
          }
        });
      } else if (kind < 0.9) {
        simulator.at(t, [&server] { server.set_paused(!server.paused()); });
      } else {
        const double factor = rng.uniform(0.2, 2.0);
        simulator.at(t, [&server, factor] { server.set_capacity_factor(factor); });
      }
    }
    simulator.run();

    // The accounting laws. Note the queue can legitimately be non-empty at
    // the end (server left paused), so "queued" is a first-class term.
    EXPECT_EQ(tally.submitted, tally.accepted + tally.rejected);
    EXPECT_EQ(server.rejected_pages(), tally.rejected);
    EXPECT_EQ(server.pages_served(), client.done.size());
    EXPECT_EQ(server.pages_served() + server.lost_pages() + server.queue_length(),
              tally.accepted);
    EXPECT_EQ(client.failed.size(), server.lost_pages() + server.rejected_pages());
    // Each page is reported once at most: completed or failed, never both.
    std::vector<std::uint32_t> told = client.done;
    told.insert(told.end(), client.failed.begin(), client.failed.end());
    std::sort(told.begin(), told.end());
    EXPECT_EQ(std::adjacent_find(told.begin(), told.end()), told.end());

    // Hits are tallied at submission for accepted pages only; served, lost
    // and still-queued hits must decompose them exactly.
    const auto& per_domain = server.lifetime_domain_hits();
    const std::uint64_t lifetime_hits =
        std::accumulate(per_domain.begin(), per_domain.end(), std::uint64_t{0});
    EXPECT_EQ(lifetime_hits, tally.accepted_hits);
    const std::uint64_t accounted = server.hits_served() + server.lost_hits();
    EXPECT_LE(accounted, tally.accepted_hits);
    const std::uint64_t queued_hits = tally.accepted_hits - accounted;
    EXPECT_GE(queued_hits, server.queue_length());  // every page carries >= 1 hit
    if (server.queue_length() == 0) {
      EXPECT_EQ(queued_hits, 0u);
    }
  });
}

TEST(CrashAccountingProperty, FaultedSitesConserveEverything) {
  for_each_case("proptest_crash_accounting", 100, [](PropertyCase& pc) {
    ConfigGen gen(pc.rng);
    const proptest::GeneratedConfig& gc = pc.attach(gen.draw(Profile::kFaulted));
    experiment::Site site(gc.config());
    const experiment::RunResult r = site.run();
    ASSERT_GT(r.total_pages, 0u);  // fault plans must not silence the site
    proptest::check_slices_conservation(site.config(), site.slices(), r);
    // A faulted run must actually account its faults: if any crash window
    // fired inside the horizon, failures show up iff work was in the house
    // or arrived while down — which we can't know a priori — but the
    // unavailability fraction must stay a true fraction.
    EXPECT_GE(r.unavailability_fraction, 0.0);
    EXPECT_LE(r.unavailability_fraction, 1.0);
  });
}

}  // namespace
}  // namespace adattl
