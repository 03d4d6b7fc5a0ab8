#include "host_ref.h"

#include <sys/mman.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <queue>
#include <stdexcept>
#include <utility>
#include <vector>

#include "report.h"

namespace perfbench {

double host_reference_s() {
  constexpr std::size_t kRecords = (4u << 20) / 64;
  struct Record {
    std::uint64_t word[8];
  };
  void* mem = ::mmap(nullptr, kRecords * sizeof(Record), PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED) throw std::runtime_error("host reference: mmap failed");
  auto* table = static_cast<Record*>(mem);
  for (std::size_t i = 0; i < kRecords; ++i) {
    for (std::uint64_t& w : table[i].word) w = i;
  }

  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  const auto uniform = [&next] { return static_cast<double>(next() >> 11) * 0x1.0p-53; };
  using Event = std::pair<double, std::uint64_t>;  // (time, record)
  std::priority_queue<Event, std::vector<Event>, std::greater<>> heap;
  for (int i = 0; i < 512; ++i) heap.emplace(uniform() * 100.0, next() % kRecords);

  const auto t0 = std::chrono::steady_clock::now();
  for (int k = 0; k < 80000; ++k) {
    const Event e = heap.top();
    heap.pop();
    Record& r = table[e.second];
    r.word[0] += r.word[3];
    r.word[5] ^= r.word[1];
    heap.emplace(e.first + uniform() * 200.0, next() % kRecords);
  }
  const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - t0;
  replay_sink = heap.top().second + table[heap.top().second].word[5];
  ::munmap(mem, kRecords * sizeof(Record));
  return elapsed.count();
}

}  // namespace perfbench
