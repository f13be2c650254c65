// Tests for the fault-injection campaign engine (flt::Schedule / Injector)
// and the failure model it exercises: carrier flaps with route-around, wire
// corruption bursts recovered by Reliable Delivery, NIC stalls, retransmit
// backoff with a bounded retry budget, and structured "peer unreachable"
// errors surfacing through mp::Endpoint, MPI return codes, and QMP status —
// all byte-identical under the run-twice determinism harness.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "chk/determinism.hpp"
#include "chk/digest.hpp"
#include "cluster/gige_mesh.hpp"
#include "cluster/report.hpp"
#include "coll/tree.hpp"
#include "flt/fault.hpp"
#include "mp/endpoint.hpp"
#include "mpi/mpi.hpp"
#include "qmp/qmp.hpp"
#include "sim/engine.hpp"
#include "via/agent.hpp"
#include "via/vi.hpp"

namespace {

using namespace meshmp;
using namespace meshmp::sim::literals;
using chk::Fingerprint;
using cluster::GigeMeshCluster;
using cluster::GigeMeshConfig;
using sim::Task;
using via::KernelAgent;
using via::Vi;

constexpr topo::Dir kPlusX{0, +1};

std::vector<std::byte> pattern(std::size_t n, std::uint8_t seed = 1) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>((seed + i * 131) & 0xff);
  }
  return v;
}

std::uint64_t hash_bytes(std::uint64_t h, const std::vector<std::byte>& v) {
  return chk::fnv1a_bytes(h, v.data(), v.size());
}

// --- schedule / injector basics --------------------------------------------

TEST(FltSchedule, BuilderExpandsCompoundEvents) {
  flt::Schedule s;
  s.link_flap(1_ms, 0, kPlusX, 5_ms)
      .loss_burst(2_ms, 1_ms, 1, kPlusX, 0.5)
      .corrupt_burst(3_ms, 1_ms, 2, kPlusX, 1.0)
      .nic_stall(4_ms, 1_ms, 3, kPlusX);
  ASSERT_EQ(s.events().size(), 8u);  // each helper arms a start and a stop
  EXPECT_EQ(s.events()[0].kind, flt::FaultEvent::Kind::kLinkDown);
  EXPECT_EQ(s.events()[1].kind, flt::FaultEvent::Kind::kLinkUp);
  EXPECT_EQ(s.events()[1].at, 6_ms);
  EXPECT_FALSE(s.empty());
}

TEST(FltInjector, RejectsEventsOnMissingLinks) {
  GigeMeshConfig cfg;
  cfg.shape = topo::Coord{4};
  GigeMeshCluster c(cfg);
  flt::Schedule bad;
  bad.link_down(0, 0, topo::Dir{2, +1});  // 1-D ring has no z links
  EXPECT_THROW(flt::Injector(c, bad), std::invalid_argument);
}

// --- corruption burst: FCS drop + Reliable Delivery recovery ----------------

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
  co_await vi.send(std::move(data), 0);
}

Task<> recv_msg(Vi& vi, std::vector<std::byte>& out, bool& done) {
  auto c = co_await vi.recv_completion();
  out = std::move(c.data);
  done = true;
}

TEST(FltCorrupt, BurstIsCrcDiscardedAndRetransmitted) {
  GigeMeshConfig cfg;
  cfg.shape = topo::Coord{4};
  cfg.via.retx_timeout = 2_ms;  // recover promptly after the burst
  GigeMeshCluster c(cfg);
  Conn conn = connect_pair(c, 0, 1);
  conn.b->post_recv(64 * 1024);

  // Corrupt every frame node 0 transmits towards +x for 1 ms, starting now.
  flt::Schedule s;
  s.corrupt_burst(c.engine().now(), 1_ms, 0, kPlusX, 1.0);
  flt::Injector inj(c, s);

  auto data = pattern(20'000, 9);
  std::vector<std::byte> got;
  bool done = false;
  recv_msg(*conn.b, got, done).detach();
  send_msg(*conn.a, data).detach();
  c.engine().run();

  EXPECT_TRUE(done);
  EXPECT_EQ(got, data);  // end-to-end payload integrity
  EXPECT_EQ(inj.counters().get("corrupt_bursts"), 1);
  auto report = cluster::make_report(c);
  EXPECT_GT(report.checksum_drops, 0);  // the FCS check caught the frames
  EXPECT_GT(report.retransmits, 0);     // and go-back-N resent them
}

// --- NIC stall: frames queue behind the stalled adapter and drain ----------

TEST(FltStall, StalledAdapterDelaysButDelivers) {
  GigeMeshConfig cfg;
  cfg.shape = topo::Coord{4};
  GigeMeshCluster c(cfg);
  Conn conn = connect_pair(c, 0, 1);
  conn.b->post_recv(64 * 1024);

  const sim::Time stall_end = c.engine().now() + 2_ms;
  flt::Schedule s;
  s.nic_stall(c.engine().now(), 2_ms, 0, kPlusX);
  flt::Injector inj(c, s);

  auto data = pattern(4'000, 5);
  std::vector<std::byte> got;
  bool done = false;
  recv_msg(*conn.b, got, done).detach();
  send_msg(*conn.a, data).detach();
  c.engine().run();

  EXPECT_TRUE(done);
  EXPECT_EQ(got, data);
  EXPECT_GE(c.engine().now(), stall_end);  // delivery waited out the stall
  EXPECT_EQ(inj.counters().get("stalls"), 1);
}

// --- route-around-failure ---------------------------------------------------

TEST(FltRouteAround, WrapTieReroutesAroundDeadLink) {
  // 4x4 torus, 0 -> (2,0): the x displacement of +2 ties with -2 across the
  // wraparound, so losing +x leaves a same-length minimal route via -x.
  GigeMeshConfig cfg;
  cfg.shape = topo::Coord{4, 4};
  GigeMeshCluster c(cfg);
  flt::Schedule s;
  s.link_down(0, 0, kPlusX);
  flt::Injector inj(c, s);

  mp::Endpoint src(c.agent(0), mp::CoreParams{});
  mp::Endpoint dst(c.agent(2), mp::CoreParams{});
  auto data = pattern(600, 2);
  bool ok = false;
  auto receiver = [](mp::Endpoint& ep, std::vector<std::byte> expect,
                     bool& flag) -> Task<> {
    mp::Message m = co_await ep.recv(0, 3);
    flag = m.data == expect;
  };
  auto sender = [](mp::Endpoint& ep, std::vector<std::byte> d) -> Task<> {
    (void)co_await ep.send(2, 3, std::move(d));
  };
  receiver(dst, data, ok).detach();
  sender(src, data).detach();
  c.engine().run();

  EXPECT_TRUE(ok);
  EXPECT_GE(c.agent(0).counters().get("rerouted_frames"), 1);
  EXPECT_EQ(c.agent(0).failed_dirs(), topo::dir_bit(kPlusX));
}

TEST(FltRouteAround, DetourAddsTwoHopsWhenNoMinimalSurvives) {
  // 4x4 torus, 0 -> (1,0): one minimal first hop (+x) and it is dead, so the
  // agent detours through the undisplaced y dimension: (0,0) -> (0,1) ->
  // (1,1) -> (1,0).
  GigeMeshConfig cfg;
  cfg.shape = topo::Coord{4, 4};
  GigeMeshCluster c(cfg);
  flt::Schedule s;
  s.link_down(0, 0, kPlusX);
  flt::Injector inj(c, s);

  mp::Endpoint src(c.agent(0), mp::CoreParams{});
  mp::Endpoint dst(c.agent(1), mp::CoreParams{});
  auto data = pattern(600, 4);
  bool ok = false;
  auto receiver = [](mp::Endpoint& ep, std::vector<std::byte> expect,
                     bool& flag) -> Task<> {
    mp::Message m = co_await ep.recv(0, 3);
    flag = m.data == expect;
  };
  auto sender = [](mp::Endpoint& ep, std::vector<std::byte> d) -> Task<> {
    (void)co_await ep.send(1, 3, std::move(d));
  };
  receiver(dst, data, ok).detach();
  sender(src, data).detach();
  c.engine().run();

  EXPECT_TRUE(ok);
  EXPECT_GE(c.agent(0).counters().get("rerouted_frames"), 1);
  // The detour passes through (0,1) = rank 4, which only forwards.
  EXPECT_GT(c.agent(4).counters().get("fwd_frames"), 0);
}

// --- retry exhaustion: bounded failure instead of a hung endpoint -----------

TEST(FltBackoff, EstablishedChannelFailsWithinRetryBudget) {
  // Non-wrapping 1-D chain: the only path 1 -> 2 is the +x cable. Once it
  // dies there is no detour, so the VI must exhaust its retries and fail the
  // channel instead of hanging the endpoint service coroutine forever.
  GigeMeshConfig cfg;
  cfg.shape = topo::Coord{4};
  cfg.wrap = false;
  cfg.via.retx_timeout = 1_ms;
  cfg.via.retx_timeout_max = 8_ms;
  cfg.via.max_retries = 5;
  GigeMeshCluster c(cfg);
  mp::Endpoint a(c.agent(1), mp::CoreParams{});
  mp::Endpoint b(c.agent(2), mp::CoreParams{});

  // Warm the channel with one successful round trip.
  bool warm = false;
  auto receiver = [](mp::Endpoint& ep, bool& flag) -> Task<> {
    (void)co_await ep.recv(1, 7);
    flag = true;
  };
  auto sender = [](mp::Endpoint& ep) -> Task<> {
    auto st = co_await ep.send(2, 7, pattern(64));
    EXPECT_EQ(st, mp::SendStatus::kOk);
  };
  receiver(b, warm).detach();
  sender(a).detach();
  c.engine().run();
  ASSERT_TRUE(warm);

  // Pull the cable for good, then keep sending until the failure surfaces.
  const sim::Time t_down = c.engine().now();
  flt::Schedule s;
  s.link_down(t_down, 1, kPlusX);
  flt::Injector inj(c, s);

  bool unreachable = false;
  auto flood = [](mp::Endpoint& ep, bool& flag) -> Task<> {
    for (int i = 0; i < 200 && !flag; ++i) {
      auto st = co_await ep.send(2, 8, pattern(64));
      if (st == mp::SendStatus::kUnreachable) flag = true;
    }
  };
  flood(a, unreachable).detach();
  c.engine().run();

  EXPECT_TRUE(unreachable);
  EXPECT_GT(a.counters().get("send_unreachable"), 0);
  EXPECT_GT(c.agent(1).counters().get("vi_failures"), 0);
  // max_retries backoffs at retx_timeout_max (plus jitter) bound the window.
  EXPECT_LT(c.engine().now() - t_down, 200_ms);
}

// --- structured unreachable errors through MPI and QMP ----------------------

TEST(FltUnreachable, MpiSendReturnsErrorCodeAcrossPartition) {
  GigeMeshConfig cfg;
  cfg.shape = topo::Coord{4};
  cfg.wrap = false;
  GigeMeshCluster c(cfg);
  flt::Schedule s;
  s.link_down(0, 1, kPlusX);  // partition {0,1} | {2,3} from the start
  flt::Injector inj(c, s);

  mp::Endpoint e1(c.agent(1), mp::CoreParams{});
  mpi::Comm comm(e1);
  int rc = -1;
  bool done = false;
  auto prog = [](mpi::Comm& cm, int& out, bool& flag) -> Task<> {
    out = co_await cm.send(pattern(128), 2, 0);
    flag = true;
  };
  prog(comm, rc, done).detach();
  c.engine().run();  // must terminate: no hang, no abort

  EXPECT_TRUE(done);
  EXPECT_EQ(rc, mpi::kErrUnreachable);
}

TEST(FltUnreachable, QmpWaitReportsUnreachableStatus) {
  GigeMeshConfig cfg;
  cfg.shape = topo::Coord{4};
  cfg.wrap = false;
  GigeMeshCluster c(cfg);
  flt::Schedule s;
  s.link_down(0, 1, kPlusX);
  flt::Injector inj(c, s);

  mp::Endpoint e1(c.agent(1), mp::CoreParams{});
  qmp::Machine m(e1);
  qmp::MsgMem mem(256);
  mem.buf = pattern(256, 6);
  qmp::Status st = qmp::Status::kSuccess;
  bool done = false;
  auto prog = [](qmp::Machine& qm, qmp::MsgMem& mm, qmp::Status& out,
                 bool& flag) -> Task<> {
    auto h = qm.declare_send_relative(mm, 0, +1);  // node 2, behind the cut
    out = co_await qm.start_and_wait(h);
    flag = true;
  };
  prog(m, mem, st, done).detach();
  c.engine().run();

  EXPECT_TRUE(done);
  EXPECT_EQ(st, qmp::Status::kErrUnreachable);
}

// --- chaos acceptance: full mesh, mid-collective flap, run-twice identical --

struct ChaosWorld {
  GigeMeshCluster cluster;
  std::vector<std::unique_ptr<mp::Endpoint>> eps;
  std::vector<std::unique_ptr<qmp::Machine>> machines;
  std::uint64_t hash = chk::kFnvOffset;
  int finished = 0;

  explicit ChaosWorld(topo::Coord shape)
      : cluster([&] {
          GigeMeshConfig cfg;
          cfg.shape = shape;
          cfg.via.retx_timeout = 1_ms;  // retransmit inside the flap window
          return cfg;
        }()) {
    cluster.engine().enable_digest(true);
    for (topo::Rank r = 0; r < cluster.size(); ++r) {
      eps.push_back(
          std::make_unique<mp::Endpoint>(cluster.agent(r), mp::CoreParams{}));
      machines.push_back(std::make_unique<qmp::Machine>(*eps.back()));
    }
  }
};

/// Per-rank chaos program: broadcast from rank 0, then a dslash-style halo
/// exchange with both x-neighbours, then a global sum — with a link flap
/// scheduled mid-broadcast by the caller.
Task<> chaos_node(ChaosWorld& w, mp::Endpoint& ep, qmp::Machine& m,
                  std::vector<std::byte>& bcast_expect) {
  const int rank = ep.rank();
  std::vector<std::byte> data;
  if (rank == 0) data = bcast_expect;
  co_await coll::broadcast(ep, 0, data, (1 << 23) | 10);
  EXPECT_EQ(data, bcast_expect) << "broadcast corrupted at rank " << rank;
  w.hash = hash_bytes(w.hash, data);

  const std::size_t halo = 1024;
  qmp::MsgMem fwd_out(halo), bwd_out(halo), fwd_in(halo), bwd_in(halo);
  fwd_out.buf = pattern(halo, static_cast<std::uint8_t>(2 * rank + 1));
  bwd_out.buf = pattern(halo, static_cast<std::uint8_t>(2 * rank + 2));
  auto rf = m.declare_receive_relative(fwd_in, 0, +1);
  auto rb = m.declare_receive_relative(bwd_in, 0, -1);
  auto sf = m.declare_send_relative(fwd_out, 0, +1);
  auto sb = m.declare_send_relative(bwd_out, 0, -1);
  m.start(rf);
  m.start(rb);
  m.start(sf);
  m.start(sb);
  EXPECT_EQ(co_await m.wait(rf), qmp::Status::kSuccess);
  EXPECT_EQ(co_await m.wait(rb), qmp::Status::kSuccess);
  EXPECT_EQ(co_await m.wait(sf), qmp::Status::kSuccess);
  EXPECT_EQ(co_await m.wait(sb), qmp::Status::kSuccess);
  // Halo payloads arrive intact despite the flap.
  w.hash = hash_bytes(w.hash, fwd_in.buf);
  w.hash = hash_bytes(w.hash, bwd_in.buf);

  const double norm = co_await m.sum_double(static_cast<double>(rank) + 0.25);
  EXPECT_GT(norm, 0.0);
  ++w.finished;
}

Fingerprint chaos_scenario(cluster::ClusterReport& report_out) {
  ChaosWorld w(topo::Coord{4, 8, 8});
  // Pull the cable between ranks 1 and 2 (+x) 100 us into the collective,
  // restore it 5 ms later; simultaneously corrupt everything rank 5 puts on
  // its +x cable so the halo exchange has to retransmit through the chaos.
  flt::Schedule s;
  s.link_flap(100_us, 1, kPlusX, 5_ms);
  s.corrupt_burst(100_us, 6_ms, 5, kPlusX, 1.0);
  flt::Injector inj(w.cluster, s);

  auto bcast_data = pattern(4096, 11);
  for (topo::Rank r = 0; r < w.cluster.size(); ++r) {
    chaos_node(w, *w.eps[static_cast<std::size_t>(r)],
               *w.machines[static_cast<std::size_t>(r)], bcast_data)
        .detach();
  }
  w.cluster.run();
  EXPECT_EQ(w.finished, static_cast<int>(w.cluster.size()))
      << "a rank hung under the flap";
  report_out = cluster::make_report(w.cluster);
  return {w.cluster.engine().executed(), w.cluster.engine().digest(),
          w.cluster.engine().now(), w.hash};
}

TEST(FltChaos, MeshCollectivesSurviveLinkFlapByteIdentical) {
  cluster::ClusterReport report;
  auto r = chk::run_twice_and_compare(
      [&report] { return chaos_scenario(report); });
  EXPECT_TRUE(r.identical) << r.divergence;
  EXPECT_NE(r.first.result_hash, 0u);
  // The campaign actually bit: corrupted frames were FCS-dropped,
  // go-back-N resent them, and at least one message was steered around the
  // dead cable — yet every payload arrived intact and nothing hung.
  EXPECT_GT(report.checksum_drops, 0);
  EXPECT_GT(report.retransmits, 0);
  EXPECT_GE(report.rerouted_frames, 1);
  EXPECT_EQ(report.vi_failures, 0);  // faults recovered within the budget
}

TEST(FltReport, StrMentionsFaultCounters) {
  cluster::ClusterReport r;
  r.retransmits = 3;
  r.rerouted_frames = 2;
  const std::string s = r.str();
  EXPECT_NE(s.find("retransmits"), std::string::npos);
  EXPECT_NE(s.find("rerouted"), std::string::npos);
  EXPECT_NE(s.find("VI failures"), std::string::npos);
}

}  // namespace
