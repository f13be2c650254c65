// Unit and property tests for the event hot path behind sim::Engine: the
// pooled EventArena, the per-delay lane queue, and the fixed-capacity
// InlineFn callable. The load-bearing property throughout is that the lane
// queue's pop sequence is the strict (when, seq) order of the engine's former
// binary heap — lane claims, evictions and fallback pushes may restructure
// freely but must never reorder. (The suite names predate the lane queue and
// are kept so test IDs stay stable.)

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <limits>
#include <queue>
#include <vector>

#include "sim/engine.hpp"
#include "sim/event_queue.hpp"
#include "sim/inline_fn.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace {

using namespace meshmp::sim;

/// Reference model: the exact comparator the engine's former
/// std::priority_queue used, applied to the same arena nodes.
using RefHeap =
    std::priority_queue<EventNode*, std::vector<EventNode*>, FiresLater>;

EventNode* make(EventArena& arena, Time when, std::uint64_t seq) {
  EventNode* n = arena.get();
  n->when = when;
  n->seq = seq;
  n->label = "test";
  return n;
}

// --- EventArena ------------------------------------------------------------

TEST(EventArena, RecyclesNodesInsteadOfGrowing) {
  EventArena arena;
  EventNode* a = arena.get();
  const std::size_t cap = arena.capacity();
  a->fn.reset();
  arena.put(a);
  // The freelist hands the recycled node back before carving new storage.
  EXPECT_EQ(arena.get(), a);
  EXPECT_EQ(arena.capacity(), cap);
}

TEST(EventArena, GrowsInChunksAndNodesStayPut) {
  EventArena arena;
  std::vector<EventNode*> nodes;
  const std::size_t want = 3 * 256 + 1;  // forces a fourth chunk
  for (std::size_t i = 0; i < want; ++i) nodes.push_back(arena.get());
  EXPECT_GE(arena.capacity(), want);
  // All distinct, and addresses remain valid (write through every one).
  for (std::size_t i = 0; i < want; ++i) nodes[i]->seq = i;
  for (std::size_t i = 0; i < want; ++i) EXPECT_EQ(nodes[i]->seq, i);
  for (EventNode* n : nodes) arena.put(n);
}

// --- EventQueue ordering properties ----------------------------------------

TEST(LadderQueue, EmptyQueueBehaviour) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.peek(), nullptr);
  EXPECT_EQ(q.pop(), nullptr);
  // Still usable after draining "past" empty.
  EventArena arena;
  q.push(make(arena, 5, 0));
  EXPECT_EQ(q.pop()->when, 5);
  EXPECT_EQ(q.pop(), nullptr);
}

TEST(LadderQueue, MatchesReferenceHeapUnderRandomChurn) {
  // Interleaved pushes and pops against the reference heap. Delays follow
  // the simulator's measured shape: ~30% zero, ~65% a handful of fixed
  // hardware costs, ~5% random across near, mid and far ranges (in small
  // bursts of one delay, as a broadcast fans out). Lane appends, evictions
  // of one-event lanes and fallback pushes all engage mid-property.
  static constexpr Duration kFixed[] = {285, 300, 400, 816, 1000, 12'600,
                                        200'000};
  EventArena arena;
  EventQueue q;
  RefHeap ref;
  Rng rng(1234);
  std::uint64_t seq = 0;
  Time lo = 0;  // pop floor: pushes below this would be "in the past"
  for (int round = 0; round < 20'000; ++round) {
    const bool push = ref.empty() || rng.below(100) < 55;
    if (push) {
      Duration delay = 0;
      std::uint64_t burst = 1;
      const std::uint64_t cls = rng.below(100);
      if (cls < 30) {
        delay = 0;
      } else if (cls < 95) {
        delay = kFixed[rng.below(std::size(kFixed))];
      } else {
        burst = 1 + rng.below(3);
        switch (rng.below(4)) {
          case 0: delay = static_cast<Duration>(rng.below(64)); break;
          case 1: delay = static_cast<Duration>(rng.below(10'000)); break;
          case 2: delay = static_cast<Duration>(rng.below(5'000'000)); break;
          default:
            delay = static_cast<Duration>(rng.below(3'000'000'000ULL));
        }
      }
      for (std::uint64_t i = 0; i < burst; ++i) {
        EventNode* n = make(arena, lo + delay, seq++);
        q.push(n);
        ref.push(n);
      }
    } else {
      EventNode* got = q.pop();
      EventNode* want = ref.top();
      ref.pop();
      ASSERT_EQ(got, want) << "round " << round << ": queue popped ("
                           << got->when << "," << got->seq << ") but heap has ("
                           << want->when << "," << want->seq << ")";
      lo = got->when;
      arena.put(got);
    }
    ASSERT_EQ(q.size(), ref.size());
  }
  while (!ref.empty()) {
    EventNode* got = q.pop();
    ASSERT_EQ(got, ref.top());
    ref.pop();
    arena.put(got);
  }
  EXPECT_TRUE(q.empty());
  const EventQueue::Stats& st = q.stats();
  EXPECT_EQ(st.lane_pushes + st.fallback_pushes, seq) << "push uncounted";
  EXPECT_GT(st.lane_pushes, 0u) << "property never appended to a lane";
  EXPECT_GT(st.evictions, 0u) << "property never evicted a one-event lane";
  EXPECT_GT(st.fallback_pushes, 0u) << "property never pushed to fallback";
}

TEST(LadderQueue, AllEqualTimestampsPopInSeqOrder) {
  EventArena arena;
  EventQueue q;
  for (std::uint64_t s = 0; s < 1000; ++s) q.push(make(arena, 77, s));
  for (std::uint64_t s = 0; s < 1000; ++s) {
    EventNode* n = q.pop();
    ASSERT_NE(n, nullptr);
    EXPECT_EQ(n->when, 77);
    EXPECT_EQ(n->seq, s);
    arena.put(n);
  }
  EXPECT_EQ(q.pop(), nullptr);
}

TEST(LadderQueue, TimesNearTheTimeMaximumDoNotOverflow) {
  // Delay keys near the Time maximum hash and compare without wrapping:
  // events at and just below it still pop in order, including together
  // with t=0.
  constexpr Time kMax = std::numeric_limits<Time>::max();
  EventArena arena;
  EventQueue q;
  q.push(make(arena, kMax, 0));
  q.push(make(arena, 0, 1));
  q.push(make(arena, kMax - 1, 2));
  q.push(make(arena, kMax, 3));
  const Time want_when[] = {0, kMax - 1, kMax, kMax};
  const std::uint64_t want_seq[] = {1, 2, 0, 3};
  for (int i = 0; i < 4; ++i) {
    EventNode* n = q.pop();
    ASSERT_NE(n, nullptr);
    EXPECT_EQ(n->when, want_when[i]);
    EXPECT_EQ(n->seq, want_seq[i]);
    arena.put(n);
  }
  EXPECT_TRUE(q.empty());
}

TEST(LadderQueue, FixedPeriodTimerStaysInOneLane) {
  // White box: eight timers re-armed at one period after each pop all push
  // at the same delay past the pop time, so they share one lane, in order,
  // and never touch the fallback heap.
  constexpr Duration kPeriod = 200'000;
  EventArena arena;
  EventQueue q;
  std::uint64_t seq = 0;
  for (int i = 0; i < 8; ++i) q.push(make(arena, kPeriod, seq++));
  Time last = 0;
  for (int i = 0; i < 10'000; ++i) {
    ASSERT_EQ(q.layout().lanes, 1u);
    ASSERT_EQ(q.layout().fallback, 0u);
    EventNode* n = q.pop();
    ASSERT_GE(n->when, last);
    last = n->when;
    n->when += kPeriod;
    n->seq = seq++;
    q.push(n);
  }
  EXPECT_EQ(q.stats().lane_pushes, seq);
  EXPECT_EQ(q.stats().fallback_pushes, 0u);
  EXPECT_EQ(q.stats().evictions, 0u);
  while (EventNode* n = q.pop()) arena.put(n);
}

TEST(LadderQueue, OutOfOrderPushesStillPopInOrder) {
  // The engine always pushes at or after the last pop with rising seq, but
  // the queue stays exact if a caller does not: a push behind its own
  // lane's tail or before the last pop takes the fallback heap.
  EventArena arena;
  EventQueue q;
  q.push(make(arena, 100, 5));
  q.push(make(arena, 100, 3));  // same delay as seq 5, but sorts first
  q.push(make(arena, 300, 6));
  EXPECT_EQ(q.stats().fallback_pushes, 1u);
  EventNode* first = q.pop();
  EXPECT_EQ(first->seq, 3u);
  arena.put(first);
  q.push(make(arena, 100, 9));  // zero delay
  q.push(make(arena, 100, 8));  // zero delay, behind that lane's tail
  q.push(make(arena, 50, 7));   // before the last pop
  EXPECT_EQ(q.stats().fallback_pushes, 3u);
  const std::uint64_t want[] = {7, 5, 8, 9, 6};
  for (std::uint64_t w : want) {
    ASSERT_EQ(q.peek()->seq, w);
    EventNode* n = q.pop();
    EXPECT_EQ(n->seq, w);
    arena.put(n);
  }
  EXPECT_TRUE(q.empty());
}

TEST(LadderQueue, DepthHighWaterMarkTracksPeak) {
  EventArena arena;
  EventQueue q;
  std::vector<EventNode*> popped;
  for (std::uint64_t s = 0; s < 100; ++s) q.push(make(arena, 10 + s, s));
  EXPECT_EQ(q.depth_hwm(), 100u);
  for (int i = 0; i < 50; ++i) popped.push_back(q.pop());
  EXPECT_EQ(q.depth_hwm(), 100u) << "hwm must not decay on pops";
  for (EventNode* n : popped) arena.put(n);
}

// --- Engine parity: run / run_until / step dispatch identically ------------

void schedule_parity_load(Engine& eng, int fanout) {
  // Self-expanding event tree: every event schedules a few more until a
  // budget runs out, exercising lane appends, lane claims, and ties.
  struct Spawn {
    Engine* eng;
    int* budget;
    int fanout;
    void operator()() const {
      for (int i = 0; i < fanout && *budget > 0; ++i) {
        --*budget;
        eng->schedule(static_cast<Duration>(1 + 37 * i * i), Spawn{*this},
                      "spawn");
      }
    }
  };
  static int budget;
  budget = 3000;
  eng.schedule(0, Spawn{&eng, &budget, fanout}, "spawn");
}

std::uint64_t digest_with_run() {
  Engine eng;
  eng.enable_digest(true);
  schedule_parity_load(eng, 3);
  eng.run();
  return eng.digest();
}

TEST(EngineParity, StepLoopMatchesRun) {
  Engine eng;
  eng.enable_digest(true);
  schedule_parity_load(eng, 3);
  while (eng.step()) {
  }
  EXPECT_EQ(eng.digest(), digest_with_run());
}

TEST(EngineParity, RunUntilSlicesMatchRun) {
  Engine eng;
  eng.enable_digest(true);
  schedule_parity_load(eng, 3);
  Time t = 0;
  while (eng.run_until(t)) t += 1000;
  EXPECT_EQ(eng.digest(), digest_with_run());
  EXPECT_EQ(eng.now(), t);  // run_until pins now() even past the last event
}

// Named to ride the chaos-soak determinism gate (ctest -R 'RunTwice').
TEST(LadderRunTwice, DigestAndCountsStableAcrossRuns) {
  auto once = [] {
    Engine eng;
    eng.enable_digest(true);
    schedule_parity_load(eng, 4);
    eng.run();
    return std::tuple(eng.digest(), eng.executed(), eng.queue_depth_hwm());
  };
  const auto a = once();
  const auto b = once();
  EXPECT_EQ(a, b);
}

// --- InlineFn --------------------------------------------------------------

TEST(InlineFn, InvokesAndReports) {
  int hits = 0;
  InlineFn fn([&hits] { ++hits; });
  EXPECT_TRUE(static_cast<bool>(fn));
  fn();
  fn();
  EXPECT_EQ(hits, 2);
  fn.reset();
  EXPECT_FALSE(static_cast<bool>(fn));
  EXPECT_FALSE(static_cast<bool>(InlineFn{}));
}

TEST(InlineFn, MoveTransfersTheCallable) {
  int hits = 0;
  InlineFn a([&hits] { ++hits; });
  InlineFn b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  b();
  EXPECT_EQ(hits, 1);
  InlineFn c;
  c = std::move(b);
  EXPECT_FALSE(static_cast<bool>(b));  // NOLINT(bugprone-use-after-move)
  c();
  EXPECT_EQ(hits, 2);
}

TEST(InlineFn, DestroysCaptureExactlyOnce) {
  static int live;
  live = 0;
  struct Probe {
    bool armed = true;
    Probe() { ++live; }
    Probe(Probe&& o) noexcept {
      ++live;
      o.armed = false;
    }
    ~Probe() { --live; }
    void operator()() const {}
  };
  {
    InlineFn fn{Probe{}};
    EXPECT_GE(live, 1);
    InlineFn moved{std::move(fn)};
    moved();
  }
  EXPECT_EQ(live, 0) << "capture leaked or double-destroyed";
}

TEST(InlineFn, CapacityBoundaryCaptureFits) {
  // Exactly kInlineFnCapacity bytes must fit (the static_assert contract);
  // the payload round-trips through a queue relocation.
  struct Big {
    std::byte bytes[kInlineFnCapacity];
    void operator()() const {}
  };
  static_assert(sizeof(Big) == kInlineFnCapacity);
  InlineFn fn{Big{}};
  InlineFn moved{std::move(fn)};
  moved();
}

}  // namespace
