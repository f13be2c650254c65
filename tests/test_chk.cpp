// Tests for the chk invariant-audit layer: the registry itself, the engine /
// resource / VIA / NIC / endpoint quiesce validators (each with a seeded
// violation), the hot-path inline checks, and the FNV event digest.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "chk/audit.hpp"
#include "chk/determinism.hpp"
#include "chk/digest.hpp"
#include "cluster/gige_mesh.hpp"
#include "mp/endpoint.hpp"
#include "sim/engine.hpp"
#include "sim/sync.hpp"
#include "via/agent.hpp"
#include "via/vi.hpp"

namespace {

using namespace meshmp;
using namespace meshmp::sim::literals;
using chk::Audit;
using chk::ScopedCapture;
using cluster::GigeMeshCluster;
using cluster::GigeMeshConfig;
using sim::Engine;
using sim::Resource;
using sim::Task;
using via::KernelAgent;
using via::RecvCompletion;
using via::Vi;

std::vector<std::byte> pattern(std::size_t n, std::uint8_t seed = 1) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>((seed + i * 131) & 0xff);
  }
  return v;
}

GigeMeshConfig small_ring_config() {
  GigeMeshConfig cfg;
  cfg.shape = topo::Coord{4};
  return cfg;
}

struct Conn {
  Vi* a = nullptr;
  Vi* b = nullptr;
};

Task<> do_connect(KernelAgent& from, net::NodeId to, std::uint32_t service,
                  Conn& out) {
  out.a = co_await from.connect(to, service);
}

Task<> do_accept(KernelAgent& at, std::uint32_t service, Conn& out) {
  out.b = co_await at.accept(service);
}

Conn connect_pair(GigeMeshCluster& c, topo::Rank ra, topo::Rank rb,
                  std::uint32_t service = 7) {
  Conn conn;
  c.agent(rb).listen(service);
  do_accept(c.agent(rb), service, conn).detach();
  do_connect(c.agent(ra), rb, service, conn).detach();
  c.engine().run();
  EXPECT_NE(conn.a, nullptr);
  EXPECT_NE(conn.b, nullptr);
  return conn;
}

Task<> send_msg(Vi& vi, std::vector<std::byte> data) {
  co_await vi.send(std::move(data));
}

Task<> recv_msg(Vi& vi, RecvCompletion& out, bool& done) {
  out = co_await vi.recv_completion();
  done = true;
}

// --- registry --------------------------------------------------------------

TEST(AuditRegistry, ValidatorRunsOnEveryQuiesceUntilReleased) {
  int runs = 0;
  {
    auto reg = Audit::instance().watch("test.counter", [&] { ++runs; });
    ScopedCapture cap;
    Audit::instance().quiesce();
    Audit::instance().quiesce();
    EXPECT_EQ(runs, 2);
  }
  // Registration destroyed: the validator must not run any more.
  ScopedCapture cap;
  Audit::instance().quiesce();
  EXPECT_EQ(runs, 2);
}

TEST(AuditRegistry, MovedFromRegistrationIsInert) {
  int runs = 0;
  auto reg = Audit::instance().watch("test.move", [&] { ++runs; });
  Audit::Registration stolen = std::move(reg);
  {
    ScopedCapture cap;
    Audit::instance().quiesce();
    EXPECT_EQ(runs, 1);  // exactly once: the moved-from handle is empty
  }
  // reg's destruction (moved-from) must not have unregistered `stolen`.
  Audit::Registration gone = std::move(stolen);
  (void)gone;
}

TEST(AuditRegistry, FailIsRecordedUnderCapture) {
  ScopedCapture cap;
  Audit::instance().fail("test.sub", "value 7 out of range");
  ASSERT_EQ(cap.violations().size(), 1u);
  EXPECT_EQ(cap.violations()[0].label, "test.sub");
  EXPECT_EQ(cap.violations()[0].message, "value 7 out of range");
  EXPECT_TRUE(cap.caught("test.sub"));
  EXPECT_TRUE(cap.caught("test."));  // prefix match
  EXPECT_FALSE(cap.caught("other."));
}

TEST(AuditRegistry, QuiesceReturnsViolationCount) {
  auto reg = Audit::instance().watch("test.double", [] {
    Audit::instance().fail("test.double", "first");
    Audit::instance().fail("test.double", "second");
  });
  ScopedCapture cap;
  EXPECT_EQ(Audit::instance().quiesce(), 2u);
}

// --- engine ----------------------------------------------------------------

TEST(AuditEngine, CleanAfterDrainedRun) {
  Engine eng;
  int fired = 0;
  eng.schedule(10_us, [&] { ++fired; });
  eng.run();
  ScopedCapture cap;
  EXPECT_EQ(Audit::instance().quiesce(), 0u);
  EXPECT_EQ(fired, 1);
}

TEST(AuditEngine, PendingEventsAtQuiesceAreAViolation) {
  Engine eng;
  eng.schedule(10_us, [] {});
  ScopedCapture cap;
  EXPECT_GE(Audit::instance().quiesce(), 1u);
  EXPECT_TRUE(cap.caught("sim.engine"));
}

TEST(AuditEngine, SchedulingInThePastThrows) {
  Engine eng;
  eng.schedule(10_us, [] {});
  eng.run();
  ASSERT_GT(eng.now(), 0);
  EXPECT_THROW(eng.schedule_at(eng.now() - 1, [] {}), std::invalid_argument);
  EXPECT_THROW(eng.schedule(-1, [] {}), std::invalid_argument);
}

// --- resource --------------------------------------------------------------

Task<> leak_hold(Resource& r) { co_await r.acquire(); }

TEST(AuditResource, LeakedHoldIsCaughtAtQuiesce) {
  Engine eng;
  Resource res(eng, 2, "leaktest");
  leak_hold(res).detach();  // acquires and returns without release
  eng.run();
  EXPECT_EQ(res.in_use(), 1);
  ScopedCapture cap;
  EXPECT_GE(Audit::instance().quiesce(), 1u);
  EXPECT_TRUE(cap.caught("sim.resource.leaktest"));
}

TEST(AuditResource, StarvedWaiterIsCaughtAtQuiesce) {
  Engine eng;
  Resource res(eng, 1, "starvetest");
  leak_hold(res).detach();  // takes the only slot, never gives it back
  leak_hold(res).detach();  // waits forever
  eng.run();
  ScopedCapture cap;
  EXPECT_GE(Audit::instance().quiesce(), 2u);  // leaked hold + starved waiter
  EXPECT_TRUE(cap.caught("sim.resource.starvetest"));
}

TEST(AuditResource, OverReleaseIsCaughtInline) {
  Engine eng;
  Resource res(eng, 1, "overrelease");
  ScopedCapture cap;
  res.release(1);  // nothing is held
  EXPECT_TRUE(cap.caught("sim.resource.overrelease"));
}

// --- VIA -------------------------------------------------------------------

TEST(AuditVia, CleanAfterCompletedExchange) {
  GigeMeshCluster c(small_ring_config());
  Conn conn = connect_pair(c, 0, 1);
  conn.b->post_recv(16 * 1024);
  RecvCompletion got;
  bool done = false;
  recv_msg(*conn.b, got, done).detach();
  send_msg(*conn.a, pattern(4000)).detach();
  c.engine().run();
  ASSERT_TRUE(done);
  ScopedCapture cap;
  EXPECT_EQ(Audit::instance().quiesce(), 0u)
      << (cap.violations().empty()
              ? std::string("no violations")
              : cap.violations()[0].label + ": " + cap.violations()[0].message);
}

TEST(AuditVia, MidFlightStopIsCaughtAtQuiesce) {
  GigeMeshCluster c(small_ring_config());
  Conn conn = connect_pair(c, 0, 1);
  const std::size_t n = 200'000;  // ~136 fragments, ~1.7 ms on the wire
  conn.b->post_recv(static_cast<std::int64_t>(n));
  RecvCompletion got;
  bool done = false;
  recv_msg(*conn.b, got, done).detach();
  send_msg(*conn.a, pattern(n)).detach();
  c.engine().run_until(c.engine().now() + 120_us);  // stop mid-transfer
  ASSERT_FALSE(done);
  ScopedCapture cap;
  EXPECT_GE(Audit::instance().quiesce(), 1u);
  // The half-reassembled message and/or the unacknowledged window trips the
  // VI validator; the still-pending event queue trips the engine's.
  EXPECT_TRUE(cap.caught("via.vi"));
  EXPECT_TRUE(cap.caught("sim.engine"));
}

// --- NIC -------------------------------------------------------------------

TEST(AuditNic, StrandedTxFramesAreCaughtAtQuiesce) {
  GigeMeshCluster c(small_ring_config());
  Conn conn = connect_pair(c, 0, 1);
  const std::size_t n = 200'000;
  conn.b->post_recv(static_cast<std::int64_t>(n));
  RecvCompletion got;
  bool done = false;
  recv_msg(*conn.b, got, done).detach();
  send_msg(*conn.a, pattern(n)).detach();
  // Stop shortly after the send posts its descriptors: the bulk of the
  // message is still sitting in node 0's transmit ring / adapter FIFO.
  c.engine().run_until(c.engine().now() + 60_us);
  ASSERT_FALSE(done);
  ScopedCapture cap;
  EXPECT_GE(Audit::instance().quiesce(), 1u);
  EXPECT_TRUE(cap.caught("hw.nic"));
}

// --- endpoint --------------------------------------------------------------

Task<> ep_send(mp::Endpoint& ep, int dst, int tag, std::vector<std::byte> d) {
  co_await ep.send(dst, tag, std::move(d));
}

Task<> ep_recv(mp::Endpoint& ep, int src, int tag, mp::Message& out,
               bool& done) {
  out = co_await ep.recv(src, tag);
  done = true;
}

TEST(AuditEndpoint, CleanAfterCompletedExchange) {
  GigeMeshCluster c(small_ring_config());
  mp::Endpoint e0(c.agent(0), mp::CoreParams{});
  mp::Endpoint e1(c.agent(1), mp::CoreParams{});
  mp::Message got;
  bool done = false;
  ep_recv(e1, 0, 5, got, done).detach();
  ep_send(e0, 1, 5, pattern(512)).detach();
  c.engine().run();
  ASSERT_TRUE(done);
  ScopedCapture cap;
  EXPECT_EQ(Audit::instance().quiesce(), 0u)
      << (cap.violations().empty()
              ? std::string("no violations")
              : cap.violations()[0].label + ": " + cap.violations()[0].message);
}

TEST(AuditEndpoint, UnmatchedRendezvousIsCaughtAtQuiesce) {
  GigeMeshCluster c(small_ring_config());
  mp::CoreParams params;
  mp::Endpoint e0(c.agent(0), params);
  mp::Endpoint e1(c.agent(1), params);
  // At/above the eager threshold the sender announces via RTS and then waits
  // for a match that never comes.
  const auto big = static_cast<std::size_t>(params.eager_threshold);
  ep_send(e0, 1, 5, pattern(big)).detach();
  c.engine().run();
  ScopedCapture cap;
  EXPECT_GE(Audit::instance().quiesce(), 1u);
  EXPECT_TRUE(cap.caught("mp.endpoint"));
}

// --- digest ----------------------------------------------------------------

TEST(Digest, Fnv1aFoldsIncrementally) {
  const std::uint64_t h1 = chk::fnv1a_u64(chk::kFnvOffset, 42);
  const std::uint64_t h2 = chk::fnv1a_u64(chk::kFnvOffset, 42);
  EXPECT_EQ(h1, h2);
  EXPECT_NE(h1, chk::fnv1a_u64(chk::kFnvOffset, 43));
  // The cstr fold includes a terminator: ("ab","c") != ("a","bc").
  const std::uint64_t ab_c =
      chk::fnv1a_cstr(chk::fnv1a_cstr(chk::kFnvOffset, "ab"), "c");
  const std::uint64_t a_bc =
      chk::fnv1a_cstr(chk::fnv1a_cstr(chk::kFnvOffset, "a"), "bc");
  EXPECT_NE(ab_c, a_bc);
}

TEST(Digest, EngineDigestIsReproducibleAndLabelSensitive) {
  auto run_engine = [](const char* label) {
    Engine eng;
    eng.enable_digest(true);
    for (int i = 0; i < 5; ++i) {
      eng.schedule(i * 1_us, [] {}, label);
    }
    eng.run();
    return eng.digest();
  };
  EXPECT_EQ(run_engine("tick"), run_engine("tick"));
  EXPECT_NE(run_engine("tick"), run_engine("tock"));
  Engine off;
  off.schedule(1_us, [] {});
  off.run();
  EXPECT_EQ(off.digest(), 0u);  // digest off: no cost, no value
}

}  // namespace
