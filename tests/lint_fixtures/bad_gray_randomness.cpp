// meshmp-lint fixture: D2 in gray-fault shapes. Not compiled.
//
// A flaky-NIC injector that rolls its per-frame drop/dup/reorder dice from
// libc randomness, or times its degrade window off a host clock, destroys
// run-twice reproducibility: the whole gray-failure campaign contract
// (byte-identical digests across reruns) rests
// on every coin flip coming from the seeded sim::Rng stream.
#include <chrono>
#include <cstdlib>

struct FlakyDice {
  double drop_prob;
  bool should_drop() {
    return std::rand() < drop_prob * RAND_MAX;  // LINT-EXPECT[D2]
  }
};

long degrade_window_start_ns() {
  auto t = std::chrono::steady_clock::now();  // LINT-EXPECT[D2]
  return t.time_since_epoch().count();
}

unsigned reorder_seed() {
  std::random_device rd;  // LINT-EXPECT[D2]
  return rd();
}

// Legal shape: dice seeded from the fault schedule, advanced per frame.
// (Mirrors sim::Rng::bernoulli — splitmix-style, no libc involvement.)
struct SeededDice {
  unsigned long long state;
  explicit SeededDice(unsigned long long seed) : state(seed) {}
  double uniform01() {
    state += 0x9e3779b97f4a7c15ull;
    unsigned long long z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return static_cast<double>(z >> 11) * 0x1.0p-53;
  }
  bool bernoulli(double p) { return uniform01() < p; }
};
