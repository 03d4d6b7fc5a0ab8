// Zero-allocation contracts of the event kernel and the daemon's answer
// path: once the queue's vectors reach steady-state capacity, schedule/pop
// churn with kernel-sized callbacks must never touch the heap, and neither
// may a ShardCore answer once its buffers have grown. Verified by
// interposing the global allocation functions with a counter.
//
// This suite lives in its own test binary because the operator new/delete
// replacements are program-global.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/policy_factory.h"
#include "dnswire/daemon.h"
#include "dnswire/ecs.h"
#include "dnswire/message.h"
#include "obs/event_tracer.h"
#include "sim/event_queue.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "sim/stats.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

// Replace the global allocation entry points. The nothrow and sized forms
// funnel through these; the aligned forms do not (libstdc++ sends them to
// aligned_alloc directly), and the event queue's slot table is 64-byte
// aligned, so they are replaced and counted too. The test only needs the
// count to be an upper bound.
// None is inlined: GCC would pair an inlined malloc or free with the
// other side's operator and report a mismatch (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

[[gnu::noinline]] void* operator new[](std::size_t size) { return ::operator new(size); }

[[gnu::noinline]] void* operator new(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  if (void* p = std::aligned_alloc(a, (size + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}

[[gnu::noinline]] void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace adattl::sim {
namespace {

std::uint64_t allocations() { return g_allocations.load(std::memory_order_relaxed); }

TEST(KernelAlloc, OverAlignedVectorGrowthIsCounted) {
  // The counter must see the aligned allocations, or the zero-allocation
  // tests below would pass without looking at the slot table.
  struct alignas(64) Line {
    unsigned char bytes[64];
  };
  std::vector<Line> lines;
  const std::uint64_t before = allocations();
  lines.reserve(16);
  EXPECT_EQ(allocations() - before, 1u);
  lines.resize(17);  // grows past the reservation
  EXPECT_EQ(allocations() - before, 2u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(lines.data()) % 64, 0u);

  // The queue's reserve sizes the heap, the slot table and the free list.
  EventQueue q;
  const std::uint64_t before_reserve = allocations();
  q.reserve(100);
  EXPECT_EQ(allocations() - before_reserve, 3u);
}

TEST(KernelAlloc, SteadyStateChurnAllocatesNothing) {
  // The simulation's dominant pattern: a resident set of events where each
  // pop schedules one successor (think timer -> next page -> think timer).
  constexpr int kResident = 512;
  constexpr int kChurnEvents = 10000;

  EventQueue q;
  RngStream rng(7);
  double now = 0.0;
  std::uint64_t fired = 0;
  for (int i = 0; i < kResident; ++i) {
    q.schedule(rng.uniform(0.0, 30.0), [&fired] { ++fired; });
  }
  // Warmup: one full churn pass lets every internal vector reach its
  // steady-state capacity (heap, slot table, free list).
  for (int i = 0; i < kResident; ++i) {
    auto [t, cb] = q.pop();
    now = t;
    cb();
    q.schedule(now + rng.exponential(15.0), [&fired] { ++fired; });
  }

  const std::uint64_t before = allocations();
  for (int i = 0; i < kChurnEvents; ++i) {
    auto [t, cb] = q.pop();
    now = t;
    cb();
    q.schedule(now + rng.exponential(15.0), [&fired] { ++fired; });
  }
  const std::uint64_t during = allocations() - before;

  EXPECT_EQ(during, 0u) << "steady-state schedule/pop churn must not allocate";
  EXPECT_EQ(fired, static_cast<std::uint64_t>(kResident + kChurnEvents));
}

TEST(KernelAlloc, CancelChurnAllocatesNothing) {
  // TTL-expiry style traffic: schedule + cancel pairs recycling the same
  // slots through the free list.
  EventQueue q;
  RngStream rng(11);
  for (int i = 0; i < 256; ++i) q.schedule(rng.uniform(0.0, 1e3), [] {});
  std::vector<EventHandle> handles;
  handles.reserve(256);
  for (int i = 0; i < 256; ++i) handles.push_back(q.schedule(rng.uniform(0.0, 1e3), [] {}));
  for (EventHandle h : handles) ASSERT_TRUE(q.cancel(h));
  handles.clear();

  const std::uint64_t before = allocations();
  for (int round = 0; round < 40; ++round) {
    for (int i = 0; i < 250; ++i) handles.push_back(q.schedule(rng.uniform(0.0, 1e3), [] {}));
    for (EventHandle h : handles) ASSERT_TRUE(q.cancel(h));
    handles.clear();
  }
  EXPECT_EQ(allocations() - before, 0u) << "schedule/cancel churn must not allocate";
}

TEST(KernelAlloc, ReservedSimulatorRunAllocatesNothingPerEvent) {
  Simulator sim;
  sim.reserve(64);
  std::uint64_t chain = 0;
  // Self-rescheduling event chain through the Simulator front-end — the
  // after() fast path plus an inline [this-sized] capture.
  struct Chain {
    Simulator& sim;
    std::uint64_t& count;
    void step() {
      if (++count < 10000) {
        sim.after(1.0, assert_inline([this] { step(); }));
      }
    }
  } driver{sim, chain};

  sim.at(0.0, [&driver] { driver.step(); });
  sim.run_until(1.0);  // vectors warmed, chain running
  const std::uint64_t before = allocations();
  sim.run();
  EXPECT_EQ(allocations() - before, 0u) << "dispatch loop must not allocate per event";
  EXPECT_EQ(chain, 10000u);
}

TEST(KernelAlloc, MetricHandleUpdatesAllocateNothing) {
  // With metrics on, the only per-decision metric work is adding to the
  // slice's preallocated histograms; the counters are the scheduler's own.
  // Neither the bound nor the unbound (null) path may allocate.
  core::AlarmRegistry alarms(3, 0.9);
  Simulator sim;
  RngStream rng(11);
  core::SchedulerFactoryConfig fc;
  fc.capacities = {100.0, 60.0, 30.0};
  fc.initial_weights = {0.5, 0.3, 0.2};
  core::SchedulerBundle bound = core::make_scheduler("DRR2-TTL/S_K", fc, alarms, sim, rng);
  core::SchedulerBundle unbound = core::make_scheduler("DRR2-TTL/S_K", fc, alarms, sim, rng);
  Histogram ttl(3600.0, 144);
  Histogram eligible(4.0, 4);
  bound.scheduler->bind_observability(nullptr, nullptr, &ttl, &eligible);

  const std::uint64_t before = allocations();
  for (int i = 0; i < 10000; ++i) {
    bound.scheduler->schedule(i % 3);
    unbound.scheduler->schedule(i % 3);
  }
  EXPECT_EQ(allocations() - before, 0u) << "metric updates must not allocate";
  EXPECT_EQ(ttl.count(), 10000u);
  EXPECT_EQ(eligible.count(), 10000u);
  EXPECT_EQ(eligible.counts()[3], 10000u);  // all three servers eligible
}

TEST(KernelAlloc, TracerRecordAllocatesNothing) {
  // Ring-buffer writes (enabled path) and the null-check (disabled path)
  // are both allocation-free; only construction and export may allocate.
  obs::EventTracer tracer(1024);
  obs::EventTracer* disabled = nullptr;

  const std::uint64_t before = allocations();
  for (int i = 0; i < 10000; ++i) {
    tracer.record(static_cast<double>(i), obs::TraceKind::kDecision, i % 20, i % 7, 240.0);
    if (disabled) disabled->record(0.0, obs::TraceKind::kAlarm, 0);
  }
  EXPECT_EQ(allocations() - before, 0u) << "trace records must not allocate";
  EXPECT_EQ(tracer.total_recorded(), 10000u);
  EXPECT_EQ(tracer.dropped(), 10000u - 1024u);
}

TEST(KernelAlloc, ShardCoreAnswersAllocateNothing) {
  // The daemon's per-answer path: key derivation, decode, scheduling and
  // the encoders all work in buffers the core keeps, so after one warm-up
  // pass no answer of any outcome allocates. Both names are longer than
  // std::string's inline buffer, so a decoded name must reuse capacity.
  namespace dw = dnswire;
  dw::DaemonConfig cfg;
  cfg.site_name = "www.an-example-site.org";
  cfg.server_ipv4 = {0x0a000001, 0x0a000002, 0x0a000003};
  dw::ShardCore core(cfg, 0);

  dw::ClientSubnet subnet{};
  subnet.family = dw::kEcsFamilyIpv4;
  subnet.source_prefix = 24;
  subnet.address_len = 3;
  subnet.address = {10, 1, 2};
  const auto with_ecs = [&](std::vector<std::uint8_t> q) {
    dw::append_ecs_option(&q, subnet);
    return q;
  };
  struct Case {
    std::vector<std::uint8_t> query;
    std::uint8_t rcode;
  };
  const std::vector<Case> cases = {
      {with_ecs(dw::encode_query(1, cfg.site_name)), dw::kRcodeNoError},          // A, ECS
      {dw::encode_query(2, cfg.site_name), dw::kRcodeNoError},                    // A
      {dw::encode_query(3, cfg.site_name, dw::kTypeAaaa), dw::kRcodeNoError},     // AAAA
      {{0xab, 0xcd, 0xff, 0xff, 0xff}, dw::kRcodeFormErr},                        // garbage
      {dw::encode_query(5, cfg.site_name, /*MX*/ 15), dw::kRcodeNotImp},
      {with_ecs(dw::encode_query(6, "www.another-site.example")), dw::kRcodeNxDomain},
  };
  for (const Case& c : cases) {  // warm-up: the buffers grow here
    const std::vector<std::uint8_t>& reply = core.handle(c.query.data(), c.query.size(),
                                                         0x7f000001u, 40000);
    ASSERT_GE(reply.size(), 12u);
    ASSERT_EQ(reply[3] & 0x0f, c.rcode);
  }

  std::uint64_t wrong_rcode = 0;
  const std::uint64_t before = allocations();
  for (std::uint32_t round = 0; round < 200; ++round) {
    for (const Case& c : cases) {
      const std::vector<std::uint8_t>& reply = core.handle(
          c.query.data(), c.query.size(), 0x7f000001u + round, 40000);
      if (reply.size() < 12 || (reply[3] & 0x0f) != c.rcode) ++wrong_rcode;
    }
  }
  EXPECT_EQ(allocations() - before, 0u) << "an answer must not allocate";
  EXPECT_EQ(wrong_rcode, 0u);
  EXPECT_EQ(core.frontend().answered(), 3u * 201u);
  EXPECT_EQ(core.ecs_keys(), 2u * 201u);
}

}  // namespace
}  // namespace adattl::sim
