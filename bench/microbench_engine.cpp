// Engine hot-path microbenchmark: raw events/sec through the lane queue,
// InlineFn dispatch, and the pooled event arena, with a process-wide heap
// counter proving the steady state performs ZERO per-event allocations.
//
// Four mixes stress different queue shapes:
//  * churn   — W self-rescheduling events with pseudo-random offsets: nearly
//              every delay is new, so pushes claim or evict one-event lanes
//              and evicted events pop from the fallback heap (the lane
//              queue's worst case).
//  * timers  — K fixed-period timers: a handful of recurring delays, every
//              push appends to its delay's lane.
//  * ring    — a token ring of coroutines waking each other through
//              Engine::post: every event is a zero-delay resumption.
//  * classes — the cluster workloads' measured delay shape: ~30% zero
//              delay, ~2% random, the rest one of a few fixed hardware
//              costs and the heartbeat; nearly every push appends to a
//              recurring delay's lane.
//
// Every mix runs twice on a fresh engine with the determinism digest on; the
// row records digest_match so a nondeterministic engine change fails the
// bench_diff gate (the checked-in baseline pins digest_match = 1 and
// steady_allocs = 0). Host events/sec is printed for humans and exported as
// the (informational) host.engine.* metric group by BenchReport.

#include <atomic>
#include <cstdio>
#include <cstdint>
#include <cstdlib>
#include <ctime>
#include <iterator>
#include <new>

#include "common.hpp"
#include "sim/rng.hpp"
#include "sim/task.hpp"

// ---------------------------------------------------------------------------
// Process-wide heap counter. Replacing the global operator new/delete in the
// bench binary counts every allocation on this process; the steady-state
// window of each mix must observe zero.
// ---------------------------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};

// Every replacement operator delete frees through this one out-of-line
// call: with std::free inlined into them, g++ 12 under ASan reports
// -Wmismatched-new-delete at each one.
[[gnu::noinline]] void heap_free(void* p) noexcept { std::free(p); }
}  // namespace

void* operator new(std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { heap_free(p); }
void operator delete[](void* p) noexcept { heap_free(p); }
void operator delete(void* p, std::size_t) noexcept { heap_free(p); }
void operator delete[](void* p, std::size_t) noexcept { heap_free(p); }

namespace {

using namespace meshmp;

constexpr std::uint64_t kWarmupEvents = 20'000;
constexpr std::uint64_t kMeasuredEvents = 300'000;

struct MixResult {
  std::uint64_t events = 0;       ///< events dispatched in the measured window
  std::int64_t sim_ns = 0;        ///< simulated time consumed (deterministic)
  std::uint64_t steady_allocs = 0;  ///< heap allocations in the window (want 0)
  std::uint64_t digest = 0;
  std::uint64_t depth_hwm = 0;
  double host_secs = 0;           ///< host time of the window (informational)
};

double host_secs_now() {
  return static_cast<double>(std::clock()) / CLOCKS_PER_SEC;
}

/// Runs warmup then the measured window on `eng`, assuming all work is
/// already scheduled. The warmup must populate the arena freelist and the
/// queue's internal vectors to their high-water mark.
template <typename Harness>
MixResult run_mix(Harness&& setup) {
  sim::Engine eng;
  eng.enable_digest(true);
  setup(eng);
  while (eng.executed() < kWarmupEvents) {
    if (!eng.step()) break;  // mix drained early: events counted below
  }
  const std::uint64_t warm_events = eng.executed();
  const sim::Time warm_now = eng.now();
  const std::uint64_t a0 = g_heap_allocs.load(std::memory_order_relaxed);
  const double t0 = host_secs_now();
  eng.run();
  const double t1 = host_secs_now();
  const std::uint64_t a1 = g_heap_allocs.load(std::memory_order_relaxed);
  MixResult r;
  r.events = eng.executed() - warm_events;
  r.sim_ns = eng.now() - warm_now;
  r.steady_allocs = a1 - a0;
  r.digest = eng.digest();
  r.depth_hwm = eng.queue_depth_hwm();
  r.host_secs = t1 - t0;
  return r;
}

// -- churn: W floating self-rescheduling events, pseudo-random offsets ------

/// Self-rescheduling event that draws each next delay from `draw`.
struct RedrawEvent {
  sim::Engine* eng;
  sim::Rng* rng;
  std::uint64_t* left;
  sim::Duration (*draw)(sim::Rng&);
  const char* label;
  void operator()() {
    if (*left == 0) return;
    --*left;
    eng->schedule(draw(*rng), RedrawEvent{*this}, label);
  }
};

sim::Duration churn_delay(sim::Rng& rng) {
  return static_cast<sim::Duration>(rng.below(9999) + 1);
}

MixResult mix_churn() {
  static sim::Rng rng(42);      // static: churn state outlives setup()
  static std::uint64_t left;
  rng = sim::Rng(42);
  left = kWarmupEvents + kMeasuredEvents;
  return run_mix([](sim::Engine& eng) {
    for (int i = 0; i < 64; ++i) {
      eng.schedule(churn_delay(rng),
                   RedrawEvent{&eng, &rng, &left, churn_delay, "churn"},
                   "churn");
    }
  });
}

// -- timers: K fixed-period repeating timers --------------------------------

struct TimerEvent {
  sim::Engine* eng;
  std::uint64_t* left;
  sim::Duration period;
  void operator()() {
    if (*left == 0) return;
    --*left;
    eng->schedule(period, TimerEvent{*this}, "timer");
  }
};

MixResult mix_timers() {
  static std::uint64_t left;
  left = kWarmupEvents + kMeasuredEvents;
  return run_mix([](sim::Engine& eng) {
    for (int i = 0; i < 256; ++i) {
      eng.schedule(100 + 37 * (i % 13), TimerEvent{&eng, &left, 100 + 37 * (i % 13)},
                   "timer");
    }
  });
}

// -- classes: the measured delay mix of the cluster workloads ---------------

/// Push shares measured on meshbench `churn` (seed 1): ~30% zero delay,
/// ~2% the 200 us heartbeat, ~2% random, and the rest spread evenly over
/// the six recurring per-frame costs (300 ns cable, 400 ns VIA work, 1 us
/// ISR entry, 12.6 us receive-interrupt delay, and two frame-size terms).
sim::Duration class_delay(sim::Rng& rng) {
  static constexpr sim::Duration kFixed[] = {285, 300, 400, 816, 1000, 12'600};
  const std::uint64_t r = rng.below(100);
  if (r < 30) return 0;
  if (r < 32) return 200'000;
  if (r < 34) return static_cast<sim::Duration>(rng.below(99'999) + 1);
  return kFixed[rng.below(std::size(kFixed))];
}

MixResult mix_classes() {
  static sim::Rng rng(7);  // static: mix state outlives setup()
  static std::uint64_t left;
  rng = sim::Rng(7);
  left = kWarmupEvents + kMeasuredEvents;
  return run_mix([](sim::Engine& eng) {
    // 1024 in flight: the cluster workloads run 64-5,120 deep.
    for (int i = 0; i < 1024; ++i) {
      eng.schedule(class_delay(rng),
                   RedrawEvent{&eng, &rng, &left, class_delay, "class"},
                   "class");
    }
  });
}

// -- ring: coroutines passing a token through Engine::post ------------------

/// Single-consumer one-shot wakeup slot: the coroutine parks its handle here
/// and a neighbour posts it to the engine. No containers, no allocations.
/// The awaiter holds a pointer back to the slot: the compiler may materialize
/// the awaiter into the coroutine frame, so an awaiter that stored the handle
/// in *itself* would leave the shared slot's waiter forever null.
struct TokenSlot {
  std::coroutine_handle<> waiter{};
  auto wait() noexcept {
    struct Awaiter {
      TokenSlot* slot;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) noexcept {
        slot->waiter = h;
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this};
  }
};

constexpr int kRingSize = 64;

sim::Task<> ring_actor(sim::Engine& eng, TokenSlot* slots, int me,
                       std::uint64_t rounds) {
  // The last actor lets the token die on its final round: actor 0 was woken
  // `rounds` times already (injection + rounds-1 passes), has returned, and
  // its detached frame is gone — posting its stale handle would resume a
  // destroyed coroutine.
  const bool ends_token = me == kRingSize - 1;
  for (std::uint64_t r = 0; r < rounds; ++r) {
    co_await slots[me].wait();
    if (ends_token && r + 1 == rounds) break;
    eng.post(slots[(me + 1) % kRingSize].waiter);
  }
}

MixResult mix_ring() {
  static TokenSlot slots[kRingSize];
  for (auto& s : slots) s.waiter = {};
  const std::uint64_t rounds = (kWarmupEvents + kMeasuredEvents) / kRingSize;
  return run_mix([rounds](sim::Engine& eng) {
    for (int i = 0; i < kRingSize; ++i) {
      ring_actor(eng, slots, i, rounds).detach();
    }
    eng.post(slots[0].waiter);  // inject the token
  });
}

void report_mix(benchutil::BenchReport& rep, const char* name, int mix_id,
                MixResult (*mix)()) {
  const MixResult first = mix();
  const MixResult second = mix();
  const double evps =
      second.host_secs > 0
          ? static_cast<double>(second.events) / second.host_secs
          : 0;
  const int digest_match = first.digest == second.digest ? 1 : 0;
  std::printf("%-8s %9llu events  %7.2f Mev/s  depth_hwm %6llu  "
              "steady_allocs %llu  digest_match %d\n",
              name, static_cast<unsigned long long>(second.events),
              evps / 1e6, static_cast<unsigned long long>(second.depth_hwm),
              static_cast<unsigned long long>(second.steady_allocs),
              digest_match);
  // Rows carry only deterministic values; host throughput goes to stdout and
  // the host.engine.* metric group.
  rep.add_row({{"mix", mix_id},
               {"events", static_cast<double>(second.events)},
               {"sim_ns", static_cast<double>(second.sim_ns)},
               {"queue_depth_hwm", static_cast<double>(second.depth_hwm)},
               {"steady_allocs", static_cast<double>(second.steady_allocs)},
               {"digest_match", digest_match}});
  if (second.steady_allocs != 0 || digest_match != 1) {
    std::fprintf(stderr,
                 "FAIL %s: steady_allocs=%llu (want 0) digest_match=%d\n",
                 name, static_cast<unsigned long long>(second.steady_allocs),
                 digest_match);
    std::exit(1);
  }
}

}  // namespace

int main() {
  std::setvbuf(stdout, nullptr, _IONBF, 0);  // progress survives a crash
  benchutil::BenchReport rep("microbench_engine");
  report_mix(rep, "churn", 0, mix_churn);
  report_mix(rep, "timers", 1, mix_timers);
  report_mix(rep, "ring", 2, mix_ring);
  report_mix(rep, "classes", 3, mix_classes);
  return 0;
}
