// Unit and property tests for the discrete-event engine, coroutine tasks and
// synchronization primitives.

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace {

using namespace meshmp::sim;
using namespace meshmp::sim::literals;

TEST(Time, Literals) {
  EXPECT_EQ(1_us, 1000_ns);
  EXPECT_EQ(1_ms, 1000_us);
  EXPECT_EQ(1_s, 1000_ms);
  EXPECT_EQ(18.5_us, 18500);
  EXPECT_DOUBLE_EQ(to_us(18500), 18.5);
}

TEST(Time, TransferTimeRoundsUp) {
  // 1 byte at 1 GB/s is exactly 1 ns.
  EXPECT_EQ(transfer_time(1, 1e9), 1);
  // 1500 bytes at 125 MB/s (GigE line rate) = 12 us.
  EXPECT_EQ(transfer_time(1500, 125e6), 12000);
  // Zero bytes cost nothing; fractional ns round up.
  EXPECT_EQ(transfer_time(0, 125e6), 0);
  EXPECT_EQ(transfer_time(1, 3e9), 1);
}

TEST(Time, RateComputation) {
  EXPECT_DOUBLE_EQ(rate_mb_per_s(100'000'000, 1_s), 100.0);
  EXPECT_DOUBLE_EQ(rate_mb_per_s(1, 0), 0.0);
}

TEST(Engine, EventsFireInTimeOrder) {
  Engine eng;
  std::vector<int> order;
  eng.schedule(30_ns, [&] { order.push_back(3); });
  eng.schedule(10_ns, [&] { order.push_back(1); });
  eng.schedule(20_ns, [&] { order.push_back(2); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(eng.now(), 30);
}

TEST(Engine, TiesBreakInSchedulingOrder) {
  Engine eng;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    eng.schedule(5_ns, [&order, i] { order.push_back(i); });
  }
  eng.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Engine, NestedScheduling) {
  Engine eng;
  Time inner_fired = -1;
  eng.schedule(10_ns, [&] {
    eng.schedule(5_ns, [&] { inner_fired = eng.now(); });
  });
  eng.run();
  EXPECT_EQ(inner_fired, 15);
}

TEST(Engine, RejectsPastScheduling) {
  Engine eng;
  eng.schedule(10_ns, [&] {
    EXPECT_THROW(eng.schedule_at(5_ns, [] {}), std::invalid_argument);
  });
  eng.run();
  EXPECT_THROW(eng.schedule(-1, [] {}), std::invalid_argument);
}

TEST(Engine, RunUntilStopsAtBoundary) {
  Engine eng;
  int fired = 0;
  eng.schedule(10_ns, [&] { ++fired; });
  eng.schedule(20_ns, [&] { ++fired; });
  eng.schedule(30_ns, [&] { ++fired; });
  EXPECT_TRUE(eng.run_until(20_ns));
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(eng.now(), 20);
  EXPECT_FALSE(eng.run_until(100_ns));
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(eng.now(), 100);
}

// run_until with a time already passed must not rewind the clock: the
// event at 100 ns has run, so 60 ns stays in the past.
TEST(Engine, RunUntilEarlierTimeKeepsTheClock) {
  Engine eng;
  int fired = 0;
  eng.schedule_at(100_ns, [&] { ++fired; });
  EXPECT_FALSE(eng.run_until(100_ns));
  ASSERT_EQ(fired, 1);
  EXPECT_FALSE(eng.run_until(50_ns));
  EXPECT_EQ(eng.now(), 100);
  EXPECT_THROW(eng.schedule_at(60_ns, [&] { ++fired; }),
               std::invalid_argument);
  eng.run();
  EXPECT_EQ(fired, 1);
}

// One tick short of the representable horizon: a later relative schedule
// must clamp to Time-max instead of wrapping (UBSan flags the overflow).
TEST(Engine, ScheduleNearTimeMaxSaturates) {
  constexpr Time kTimeMax = std::numeric_limits<Time>::max();
  Engine eng;
  Time first = 0;
  Time second = 0;
  eng.schedule_at(kTimeMax - 1, [&] {
    first = eng.now();
    eng.schedule(kTimeMax, [&] { second = eng.now(); });
  });
  eng.run();
  EXPECT_EQ(first, kTimeMax - 1);
  EXPECT_EQ(second, kTimeMax);
  EXPECT_EQ(eng.now(), kTimeMax);
}

TEST(Engine, DeterministicAcrossRuns) {
  auto run_once = [] {
    Engine eng;
    Rng rng(42);
    std::vector<Time> stamps;
    for (int i = 0; i < 100; ++i) {
      eng.schedule(static_cast<Duration>(rng.below(1000)),
                   [&stamps, &eng] { stamps.push_back(eng.now()); });
    }
    eng.run();
    return stamps;
  };
  EXPECT_EQ(run_once(), run_once());
}

// --- Tasks ---------------------------------------------------------------

Task<> write_then_delay(Engine& eng, std::vector<int>& log, int id) {
  log.push_back(id);
  co_await delay(eng, 10_ns);
  log.push_back(id + 100);
}

TEST(Task, EagerStartRunsToFirstSuspension) {
  Engine eng;
  std::vector<int> log;
  auto t = write_then_delay(eng, log, 1);
  EXPECT_EQ(log, (std::vector<int>{1}));  // ran before engine.run()
  EXPECT_FALSE(t.done());
  eng.run();
  EXPECT_TRUE(t.done());
  EXPECT_EQ(log, (std::vector<int>{1, 101}));
}

Task<int> add_later(Engine& eng, int a, int b) {
  co_await delay(eng, 5_ns);
  co_return a + b;
}

Task<int> compose(Engine& eng) {
  int x = co_await add_later(eng, 1, 2);
  int y = co_await add_later(eng, x, 10);
  co_return y;
}

TEST(Task, ValueCompositionAcrossAwaits) {
  Engine eng;
  int result = 0;
  auto outer = [](Engine& e, int& out) -> Task<> {
    out = co_await compose(e);
  }(eng, result);
  eng.run();
  EXPECT_TRUE(outer.done());
  EXPECT_EQ(result, 13);
  EXPECT_EQ(eng.now(), 10);
}

Task<> thrower(Engine& eng) {
  co_await delay(eng, 1_ns);
  throw std::runtime_error("boom");
}

TEST(Task, ExceptionPropagatesToAwaiter) {
  Engine eng;
  bool caught = false;
  auto outer = [](Engine& e, bool& flag) -> Task<> {
    try {
      co_await thrower(e);
    } catch (const std::runtime_error& ex) {
      flag = std::string(ex.what()) == "boom";
    }
  }(eng, caught);
  eng.run();
  EXPECT_TRUE(outer.done());
  EXPECT_TRUE(caught);
}

TEST(Task, DetachedTaskCompletes) {
  Engine eng;
  std::vector<int> log;
  write_then_delay(eng, log, 7).detach();
  eng.run();
  EXPECT_EQ(log, (std::vector<int>{7, 107}));
}

TEST(Task, DetachOfCompletedFailedTaskRethrows) {
  Engine eng;
  auto t = []() -> Task<> {
    throw std::runtime_error("early");
    co_return;  // unreachable; makes this a coroutine
  }();
  EXPECT_TRUE(t.done());
  EXPECT_THROW(t.detach(), std::runtime_error);
}

// --- Trigger / Signal ----------------------------------------------------

TEST(Trigger, WakesAllWaiters) {
  Engine eng;
  Trigger trig(eng);
  int woke = 0;
  auto waiter = [](Trigger& t, int& n) -> Task<> {
    co_await t.wait();
    ++n;
  };
  for (int i = 0; i < 3; ++i) waiter(trig, woke).detach();
  eng.schedule(50_ns, [&] { trig.fire(); });
  eng.run();
  EXPECT_EQ(woke, 3);
  EXPECT_TRUE(trig.fired());
}

TEST(Trigger, WaitAfterFirePassesThrough) {
  Engine eng;
  Trigger trig(eng);
  trig.fire();
  bool done = false;
  [](Trigger& t, bool& flag) -> Task<> {
    co_await t.wait();
    flag = true;
  }(trig, done)
      .detach();
  EXPECT_TRUE(done);  // never suspended
}

TEST(Signal, WaitUntilPredicateLoops) {
  Engine eng;
  Signal sig(eng);
  int value = 0;
  bool finished = false;
  [](Signal& s2, int& v, bool& flag) -> Task<> {
    co_await wait_until(s2, [&v] { return v >= 3; });
    flag = true;
  }(sig, value, finished)
      .detach();
  for (int i = 1; i <= 5; ++i) {
    eng.schedule(i * 10_ns, [&, i] {
      value = i;
      sig.notify_all();
    });
  }
  eng.run_until(25_ns);
  EXPECT_FALSE(finished);
  eng.run();
  EXPECT_TRUE(finished);
}

// --- Queue ---------------------------------------------------------------

TEST(Queue, PopBlocksUntilPush) {
  Engine eng;
  Queue<int> q(eng);
  std::vector<int> got;
  [](Queue<int>& qq, std::vector<int>& out) -> Task<> {
    out.push_back(co_await qq.pop());
    out.push_back(co_await qq.pop());
  }(q, got)
      .detach();
  eng.schedule(10_ns, [&] { q.push(1); });
  eng.schedule(20_ns, [&] { q.push(2); });
  eng.run();
  EXPECT_EQ(got, (std::vector<int>{1, 2}));
}

TEST(Queue, BufferedValuesPopImmediately) {
  Engine eng;
  Queue<int> q(eng);
  q.push(5);
  q.push(6);
  std::vector<int> got;
  [](Queue<int>& qq, std::vector<int>& out) -> Task<> {
    out.push_back(co_await qq.pop());
    out.push_back(co_await qq.pop());
  }(q, got)
      .detach();
  EXPECT_EQ(got, (std::vector<int>{5, 6}));  // no suspension needed
  EXPECT_TRUE(q.empty());
}

TEST(Queue, MultipleConsumersEachGetOneItem) {
  Engine eng;
  Queue<int> q(eng);
  std::vector<int> got;
  auto consumer = [](Queue<int>& qq, std::vector<int>& out) -> Task<> {
    out.push_back(co_await qq.pop());
  };
  for (int i = 0; i < 4; ++i) consumer(q, got).detach();
  eng.schedule(5_ns, [&] {
    for (int v = 0; v < 4; ++v) q.push(v);
  });
  eng.run();
  // FIFO handoff: consumer i gets value i.
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Queue, TryPop) {
  Engine eng;
  Queue<int> q(eng);
  EXPECT_FALSE(q.try_pop().has_value());
  q.push(9);
  auto v = q.try_pop();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 9);
}

// --- Resource ------------------------------------------------------------

TEST(Resource, SerializesUnitCapacity) {
  Engine eng;
  Resource cpu(eng, 1);
  std::vector<std::pair<int, Time>> spans;
  auto job = [](Engine& e, Resource& r, std::vector<std::pair<int, Time>>& out,
                int id) -> Task<> {
    co_await r.consume(100_ns);
    out.emplace_back(id, e.now());
  };
  for (int i = 0; i < 3; ++i) job(eng, cpu, spans, i).detach();
  eng.run();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0], (std::pair<int, Time>{0, 100}));
  EXPECT_EQ(spans[1], (std::pair<int, Time>{1, 200}));
  EXPECT_EQ(spans[2], (std::pair<int, Time>{2, 300}));
  EXPECT_EQ(cpu.busy_time(), 300);
}

TEST(Resource, PriorityJumpsQueue) {
  Engine eng;
  Resource cpu(eng, 1);
  std::vector<std::string> order;
  auto worker = [](Resource& r, std::vector<std::string>& out,
                   std::string name, int prio) -> Task<> {
    co_await r.consume(100_ns, prio);
    out.push_back(std::move(name));
  };
  // "first" grabs the CPU; "user" and "irq" queue up while it holds it.
  worker(cpu, order, "first", Resource::kUserPriority).detach();
  eng.schedule(10_ns, [&] {
    worker(cpu, order, "user", Resource::kUserPriority).detach();
    worker(cpu, order, "irq", Resource::kInterruptPriority).detach();
  });
  eng.run();
  EXPECT_EQ(order,
            (std::vector<std::string>{"first", "irq", "user"}));
}

TEST(Resource, CountedCapacityAdmitsConcurrency) {
  Engine eng;
  Resource r(eng, 3);
  int concurrent = 0;
  int peak = 0;
  auto job = [](Engine& e, Resource& res, int& cur, int& pk) -> Task<> {
    co_await res.acquire();
    ++cur;
    pk = std::max(pk, cur);
    co_await delay(e, 50_ns);
    --cur;
    res.release();
  };
  for (int i = 0; i < 9; ++i) job(eng, r, concurrent, peak).detach();
  eng.run();
  EXPECT_EQ(peak, 3);
  EXPECT_EQ(eng.now(), 150);  // 9 jobs / 3 wide * 50 ns
}

TEST(Resource, NoStealWhileWaiterPending) {
  Engine eng;
  Resource r(eng, 1);
  std::vector<int> order;
  // Task 0 holds; task 1 waits; at release time task 2 tries to acquire in
  // the same timestamp. FIFO must hand to task 1.
  auto holder = [](Engine& e, Resource& res) -> Task<> {
    co_await res.acquire();
    co_await delay(e, 100_ns);
    res.release();
  };
  auto taker = [](Resource& res, std::vector<int>& out, int id) -> Task<> {
    co_await res.acquire();
    out.push_back(id);
    res.release();
  };
  holder(eng, r).detach();
  eng.schedule(1_ns, [&] { taker(r, order, 1).detach(); });
  eng.schedule(100_ns, [&] { taker(r, order, 2).detach(); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

// --- Rng / Stats ---------------------------------------------------------

TEST(Rng, DeterministicForSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, ForkedStreamsDiffer) {
  Rng a(7);
  Rng b = a.fork();
  int same = 0;
  Rng a2(7);
  a2.next();  // advance past the fork draw
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(Rng, UniformBounds) {
  Rng r(3);
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.uniform(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    const double u = r.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, BernoulliRate) {
  Rng r(11);
  int hits = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) hits += r.bernoulli(0.25) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.25, 0.02);
}

TEST(Counters, AccumulateByKey) {
  meshmp::obs::Counters c;
  c.inc("drops");
  c.inc("drops", 2);
  c.inc("retx");
  EXPECT_EQ(c.get("drops"), 3);
  EXPECT_EQ(c.get("retx"), 1);
  EXPECT_EQ(c.get("missing"), 0);
}

}  // namespace
