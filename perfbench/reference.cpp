// A fixed reference computation owned by the benchmark (it does not use
// the program's code): hashing, a binary heap and small allocations over a
// working set of a few MB, the same kind of work as a discrete-event
// simulation. Its host time says how fast this host runs such code at the
// moment, and calibrates the timed phases measured next to it.
#include <memory>
#include <queue>
#include <unordered_map>
#include <vector>

#include "bench.hpp"

namespace perfbench {

double reference_seconds() {
  constexpr std::uint64_t kKeys = 1u << 17;
  constexpr int kSteps = 60000;
  Prng rng{20201201};
  std::unordered_map<std::uint64_t, std::uint64_t> table;
  std::priority_queue<std::uint64_t, std::vector<std::uint64_t>, std::greater<>> heap;
  std::vector<std::unique_ptr<std::uint64_t[]>> blocks(4096);
  std::uint64_t sink = 0;
  const std::int64_t t0 = host_ns();
  for (int i = 0; i < kSteps; ++i) {
    const std::uint64_t r = rng.next();
    table[r % kKeys] += r;
    if (i % 3 == 0) table.erase((r >> 20) % kKeys);
    heap.push(r);
    if (heap.size() > 20000) {
      sink += heap.top();
      heap.pop();
    }
    auto& block = blocks[(r >> 40) % blocks.size()];
    block = std::make_unique<std::uint64_t[]>(1 + (r >> 58));
    block[0] = r;
  }
  const std::int64_t t1 = host_ns();
  for (const auto& [k, v] : table) sink += k ^ v;
  volatile std::uint64_t keep = sink;
  (void)keep;
  return static_cast<double>(t1 - t0) / 1e9;
}

}  // namespace perfbench
