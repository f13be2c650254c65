// Host-speed reference: fixed pieces of work that owe nothing to the meshmp
// sources, timed next to every rep so the driver can tell a slower program
// from a slower host.
//
// The kernels imitate the simulator's mix on a small scale: a binary-heap
// event queue, short-lived heap blocks, and a hash table past L2. Each does
// the same work on every call, so their times track the host's speed at
// that moment. The footprint stays near 3 MB, and the reference runs only
// while no cluster is alive, so it does not move peak_rss_mb.

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

#include "harness.hpp"

namespace meshbench {
namespace {

volatile std::uint64_t calib_sink = 0;

/// xorshift64: the kernels' inputs, the same on every call.
class Xorshift {
 public:
  std::uint64_t next() {
    x_ ^= x_ << 13;
    x_ ^= x_ >> 7;
    x_ ^= x_ << 17;
    return x_;
  }

 private:
  std::uint64_t x_ = 88172645463325252ULL;
};

/// Event queue: pop the earliest of 4096 pending events, push a later one.
std::uint64_t event_queue() {
  Xorshift rng;
  using Ev = std::pair<std::uint64_t, std::uint32_t>;
  std::priority_queue<Ev, std::vector<Ev>, std::greater<>> q;
  for (std::uint32_t i = 0; i < 4096; ++i) q.emplace(rng.next() % 100000, i);
  std::uint64_t acc = 0;
  for (int i = 0; i < 300000; ++i) {
    const Ev e = q.top();
    q.pop();
    acc += e.second;
    q.emplace(e.first + 1 + rng.next() % 5000, e.second);
  }
  return acc;
}

/// Allocator churn: replace random slots of 4096 live blocks of 32-631 B.
std::uint64_t block_churn() {
  Xorshift rng;
  std::vector<std::unique_ptr<char[]>> live(4096);
  std::uint64_t acc = 0;
  for (int i = 0; i < 400000; ++i) {
    const std::size_t k = rng.next() % live.size();
    live[k] = std::make_unique<char[]>(32 + rng.next() % 600);
    live[k][0] = 1;
    acc += k;
  }
  return acc;
}

/// Hash table: 64 Ki inserts, then 256 Ki lookups, over ~3 MB.
std::uint64_t hash_table() {
  Xorshift rng;
  std::unordered_map<std::uint64_t, std::uint64_t> map;
  map.reserve(1 << 16);
  for (std::uint64_t i = 0; i < (1 << 16); ++i) map[rng.next() & 0xfffff] = i;
  std::uint64_t acc = 0;
  for (int i = 0; i < (1 << 18); ++i) {
    auto it = map.find(rng.next() & 0xfffff);
    if (it != map.end()) acc += it->second;
  }
  return acc;
}

double timed(std::uint64_t (*kernel)()) {
  const double t0 = host_now();
  calib_sink = kernel();
  return host_now() - t0;
}

}  // namespace

double reference_seconds() {
  const double product =
      timed(event_queue) * timed(block_churn) * timed(hash_table);
  return std::cbrt(product);
}

}  // namespace meshbench
