// Tests for node-failure detection, degraded-mode operation, and rejoin
// recovery: whole-node crash/restart fault events with arm-time schedule
// validation, the heartbeat/membership control plane (ClusterLifecycle),
// degraded-mode route tables, structured unreachable errors for traffic to a
// dead rank, failure-aware scatter, and rejoin under a fresh incarnation
// epoch — all byte-identical under the run-twice determinism harness.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "chk/determinism.hpp"
#include "chk/digest.hpp"
#include "cluster/gige_mesh.hpp"
#include "cluster/lifecycle.hpp"
#include "cluster/membership.hpp"
#include "cluster/report.hpp"
#include "coll/scatter.hpp"
#include "flt/fault.hpp"
#include "mp/endpoint.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/engine.hpp"
#include "sim/sync.hpp"
#include "topo/spanning_tree.hpp"
#include "topo/torus.hpp"

namespace {

using namespace meshmp;
using namespace meshmp::sim::literals;
using chk::Fingerprint;
using cluster::ClusterLifecycle;
using cluster::GigeMeshCluster;
using cluster::GigeMeshConfig;
using cluster::Liveness;
using cluster::MembershipView;
using sim::Task;

constexpr topo::Dir kPlusX{0, +1};

// Honour MESHMP_TRACE so CI can capture the recovery
// timeline of the crash/rejoin campaign as a Perfetto artifact.
class TraceEnv : public ::testing::Environment {
 public:
  void SetUp() override { obs::trace_init_from_env(); }
  void TearDown() override { obs::trace_flush_env(); }
};
[[maybe_unused]] const auto* const kTraceEnv =
    ::testing::AddGlobalTestEnvironment(new TraceEnv);

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

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL;
  return h * 1099511628211ULL;
}

// --- schedule validation (arm time, before any event fires) -----------------

TEST(FltScheduleValidation, RejectsRankOutOfRange) {
  GigeMeshConfig cfg;
  cfg.shape = topo::Coord{4};
  GigeMeshCluster c(cfg);
  flt::Schedule s;
  s.node_crash(1_ms, 100);
  EXPECT_THROW(flt::Injector(c, s), std::invalid_argument);
}

TEST(FltScheduleValidation, RejectsRestartWithoutPriorCrash) {
  GigeMeshConfig cfg;
  cfg.shape = topo::Coord{4};
  GigeMeshCluster c(cfg);
  flt::Schedule s;
  s.node_restart(1_ms, 2);
  EXPECT_THROW(flt::Injector(c, s), std::invalid_argument);
}

TEST(FltScheduleValidation, RejectsDoubleCrash) {
  GigeMeshConfig cfg;
  cfg.shape = topo::Coord{4};
  GigeMeshCluster c(cfg);
  flt::Schedule s;
  s.node_crash(1_ms, 2).node_crash(2_ms, 2);
  EXPECT_THROW(flt::Injector(c, s), std::invalid_argument);
}

TEST(FltScheduleValidation, RejectsRestartNotAfterTheCrash) {
  GigeMeshConfig cfg;
  cfg.shape = topo::Coord{4};
  GigeMeshCluster c(cfg);
  flt::Schedule s;
  s.crash_restart(1_ms, 2, 0);  // restart coincides with the crash
  EXPECT_THROW(flt::Injector(c, s), std::invalid_argument);
}

TEST(FltScheduleValidation, RejectsNestedBurstWindows) {
  GigeMeshConfig cfg;
  cfg.shape = topo::Coord{4};
  GigeMeshCluster c(cfg);
  flt::Schedule s;
  s.loss_burst(1_ms, 5_ms, 0, kPlusX, 0.5)
      .loss_burst(2_ms, 1_ms, 0, kPlusX, 0.5);  // opens inside the first
  EXPECT_THROW(flt::Injector(c, s), std::invalid_argument);
}

TEST(FltScheduleValidation, RejectsInvertedBurstWindow) {
  GigeMeshConfig cfg;
  cfg.shape = topo::Coord{4};
  GigeMeshCluster c(cfg);
  flt::Schedule s;
  s.loss_burst(1_ms, -500_us, 0, kPlusX, 0.5);  // stop sorts before start
  EXPECT_THROW(flt::Injector(c, s), std::invalid_argument);
}

TEST(FltScheduleValidation, RejectsEventsInThePast) {
  GigeMeshConfig cfg;
  cfg.shape = topo::Coord{4};
  GigeMeshCluster c(cfg);
  auto tick = [](sim::Engine& e) -> Task<> { co_await sim::delay(e, 1_ms); };
  tick(c.engine()).detach();
  c.run();
  flt::Schedule s;
  s.node_crash(500_us, 2);
  EXPECT_THROW(flt::Injector(c, s), std::invalid_argument);
}

TEST(FltScheduleValidation, AcceptsWellFormedCampaign) {
  GigeMeshConfig cfg;
  cfg.shape = topo::Coord{4, 4};
  GigeMeshCluster c(cfg);
  flt::Schedule s;
  s.crash_restart(1_ms, 5, 4_ms)
      .nic_stall(100_us, 3_ms, 1, kPlusX)
      .loss_burst(500_us, 1_ms, 1, kPlusX, 0.5)
      .corrupt_burst(1_ms, 1_ms, 2, kPlusX, 1.0)
      .link_flap(2_ms, 3, kPlusX, 1_ms)
      .node_crash(6_ms, 5);  // crash again after the restart: legal
  EXPECT_NO_THROW({
    flt::Injector inj(c, s);
    (void)inj;
  });
}

// --- membership: news ordering, severity tie-break, wire codec --------------

TEST(FltMembership, ApplyOrdersByIncarnationVersionSeverity) {
  MembershipView v(4);
  EXPECT_TRUE(v.apply({2, {Liveness::kSuspect, 0, 1}}));
  // Same (incarnation, version), lower severity: not news.
  EXPECT_FALSE(v.apply({2, {Liveness::kAlive, 0, 1}}));
  // Same (incarnation, version), higher severity: the conflict tie-break.
  EXPECT_TRUE(v.apply({2, {Liveness::kDead, 0, 1}}));
  // A fresh incarnation overrides any stale story about the previous life.
  EXPECT_TRUE(v.apply({2, {Liveness::kRejoining, 1, 1}}));
  EXPECT_FALSE(v.apply({2, {Liveness::kDead, 0, 9}}));
  EXPECT_EQ(v.at(2).state, Liveness::kRejoining);
  EXPECT_EQ(v.at(2).incarnation, 1u);
  EXPECT_EQ(v.count(Liveness::kAlive), 3);
  const auto dead = v.dead_set();
  for (bool d : dead) EXPECT_FALSE(d);
}

TEST(FltMembership, WireCodecRoundTrips) {
  std::vector<cluster::MemberRecord> recs{
      {0, {Liveness::kAlive, 0, 0}},
      {3, {Liveness::kDead, 7, 42}},
      {250, {Liveness::kRejoining, 0xFFFFFFFFu, 0x0102030405060708ull}},
  };
  const auto bytes = MembershipView::encode(recs);
  EXPECT_EQ(bytes.size(), recs.size() * MembershipView::kRecordBytes);
  const auto back = MembershipView::decode(bytes.data(), bytes.size());
  ASSERT_EQ(back.size(), recs.size());
  for (std::size_t i = 0; i < recs.size(); ++i) {
    EXPECT_EQ(back[i].rank, recs[i].rank);
    EXPECT_EQ(back[i].st.state, recs[i].st.state);
    EXPECT_EQ(back[i].st.incarnation, recs[i].st.incarnation);
    EXPECT_EQ(back[i].st.version, recs[i].st.version);
  }
}

// --- degraded-mode route tables and survivor spanning trees -----------------

topo::Dir dir_for_index(const topo::Torus& t, topo::Rank at, int idx) {
  for (topo::Dir d : t.directions(t.coord(at))) {
    if (d.index() == idx) return d;
  }
  ADD_FAILURE() << "no direction with index " << idx << " at rank " << at;
  return topo::Dir{};
}

TEST(FltDegradedRouting, TablesWalkAroundTheDeadRank) {
  topo::Torus t(topo::Coord{4, 4});
  std::vector<bool> dead(16, false);
  dead[5] = true;
  for (topo::Rank dst = 1; dst < t.size(); ++dst) {
    if (dst == 5) continue;
    topo::Rank cur = 0;
    for (int hops = 0; cur != dst; ++hops) {
      ASSERT_LT(hops, 16) << "walk to " << dst << " does not terminate";
      const auto table = t.route_table_avoiding(cur, dead);
      const int idx = table[static_cast<std::size_t>(dst)];
      ASSERT_GE(idx, 0) << "no route " << cur << " -> " << dst;
      cur = *t.neighbor(cur, dir_for_index(t, cur, idx));
      EXPECT_NE(cur, 5) << "route to " << dst << " hops the dead coordinate";
    }
  }
  const auto table = t.route_table_avoiding(0, dead);
  EXPECT_EQ(table[0], -1);  // self
  EXPECT_EQ(table[5], -1);  // the dead rank itself is unreachable
}

TEST(FltDegradedRouting, DisconnectedDestinationsMarkedUnreachable) {
  // Non-wrapping chain 0-1-2-3 with node 1 dead: the far side is gone.
  topo::Torus t(topo::Coord{4}, false);
  std::vector<bool> dead(4, false);
  dead[1] = true;
  const auto table = t.route_table_avoiding(0, dead);
  EXPECT_EQ(table[1], -1);
  EXPECT_EQ(table[2], -1);
  EXPECT_EQ(table[3], -1);
}

TEST(FltSurvivorTree, SpansExactlyTheSurvivors) {
  topo::Torus t(topo::Coord{4, 4});
  std::vector<bool> dead(16, false);
  dead[5] = true;
  int reached = 1;  // the root
  std::vector<topo::Rank> stack{0};
  while (!stack.empty()) {
    const topo::Rank cur = stack.back();
    stack.pop_back();
    for (topo::Rank kid : topo::survivor_children(t, 0, cur, dead)) {
      EXPECT_FALSE(dead[static_cast<std::size_t>(kid)]);
      const auto p = topo::survivor_parent(t, 0, kid, dead);
      ASSERT_TRUE(p.has_value());
      EXPECT_EQ(*p, cur);
      ++reached;
      stack.push_back(kid);
    }
  }
  EXPECT_EQ(reached, 15);  // every survivor, nobody twice
  EXPECT_FALSE(topo::survivor_parent(t, 0, 5, dead).has_value());
  EXPECT_TRUE(topo::survivor_children(t, 0, 5, dead).empty());
}

// --- overlapping fault windows on one node, run-twice identical -------------

struct PairTraffic {
  int delivered = 0;
  int ok_sends = 0;
  std::uint64_t hash = chk::kFnvOffset;
};

Task<> pair_sender(mp::Endpoint& ep, int dst, int tag, int n,
                   PairTraffic& out) {
  for (int i = 0; i < n; ++i) {
    auto st =
        co_await ep.send(dst, tag, pattern(512, static_cast<std::uint8_t>(i)));
    if (st == mp::SendStatus::kOk) ++out.ok_sends;
  }
}

Task<> pair_receiver(mp::Endpoint& ep, int src, int tag, int n,
                     PairTraffic& out) {
  for (int i = 0; i < n; ++i) {
    mp::Message m = co_await ep.recv(src, tag);
    if (!m.ok) co_return;
    ++out.delivered;
    out.hash = hash_bytes(out.hash, m.data);
  }
}

Fingerprint overlap_scenario(cluster::ClusterReport& report_out) {
  GigeMeshConfig cfg;
  cfg.shape = topo::Coord{4, 4};
  cfg.via.retx_timeout = 1_ms;  // retransmit inside the fault windows
  GigeMeshCluster c(cfg);
  c.engine().enable_digest(true);

  // Three fault classes overlapping on node 1's +x port: the adapter stalls
  // for 3 ms, everything it transmits during [100 us, 4.1 ms) is lossy, and
  // the cable itself flaps for 1 ms in the middle — so the stalled backlog
  // drains into a lossy wire after carrier returns.
  flt::Schedule s;
  s.nic_stall(100_us, 3_ms, 1, kPlusX);
  s.loss_burst(100_us, 4_ms, 1, kPlusX, 0.4);
  s.link_flap(1_ms, 1, kPlusX, 1_ms);
  flt::Injector inj(c, s);

  mp::Endpoint e1(c.agent(1), mp::CoreParams{});
  mp::Endpoint e2(c.agent(2), mp::CoreParams{});
  PairTraffic fwd, bwd;
  constexpr int kN = 40;
  pair_receiver(e2, 1, 3, kN, fwd).detach();
  pair_receiver(e1, 2, 4, kN, bwd).detach();
  pair_sender(e1, 2, 3, kN, fwd).detach();
  pair_sender(e2, 1, 4, kN, bwd).detach();
  c.run();

  EXPECT_EQ(fwd.delivered, kN);
  EXPECT_EQ(bwd.delivered, kN);
  EXPECT_EQ(fwd.ok_sends, kN);
  EXPECT_EQ(bwd.ok_sends, kN);
  EXPECT_EQ(inj.counters().get("stalls"), 1);
  report_out = cluster::make_report(c);
  std::uint64_t h = mix(fwd.hash, bwd.hash);
  return {c.engine().executed(), c.engine().digest(), c.engine().now(), h};
}

TEST(FltOverlap, StallLossAndFlapOnOnePortByteIdentical) {
  cluster::ClusterReport report;
  auto r = chk::run_twice_and_compare(
      [&report] { return overlap_scenario(report); });
  EXPECT_TRUE(r.identical) << r.divergence;
  EXPECT_NE(r.first.result_hash, 0u);
  EXPECT_GT(report.retransmits, 0);  // the windows actually bit
  EXPECT_EQ(report.vi_failures, 0);  // and recovery stayed in budget
}

// --- crash / detect / degrade / rejoin acceptance campaign on 4x8x8 ---------

// Coordinates in the default 4x8x8 torus (rank = x + 4y + 32z):
constexpr topo::Rank kVictim = 110;    // (2,3,3): crashes and rejoins
constexpr topo::Rank kSender = 106;    // (2,2,3): minimal route crosses victim
constexpr topo::Rank kReceiver = 114;  // (2,4,3)
constexpr topo::Rank kNeighbor = 109;  // (1,3,3): -x neighbour of the victim

struct CampaignOutcome {
  PairTraffic traffic;
  bool warmed = false;
  bool probe_done = false;
  mp::SendStatus probe_status = mp::SendStatus::kOk;
};

Task<> paced_sender(mp::Endpoint& ep, int dst, int tag, int n,
                    PairTraffic& out) {
  for (int i = 0; i < n; ++i) {
    auto st =
        co_await ep.send(dst, tag, pattern(512, static_cast<std::uint8_t>(i)));
    if (st == mp::SendStatus::kOk) ++out.ok_sends;
    co_await sim::delay(ep.engine(), 100_us);
  }
}

Task<> warm_recv(mp::Endpoint& ep, CampaignOutcome& out) {
  mp::Message m = co_await ep.recv(kNeighbor, 7);
  out.warmed = m.ok;
}

Task<> warm_send(mp::Endpoint& ep) {
  auto st = co_await ep.send(kVictim, 7, pattern(64, 9));
  EXPECT_EQ(st, mp::SendStatus::kOk);
}

Task<> probe_dead(mp::Endpoint& ep, CampaignOutcome& out) {
  out.probe_status = co_await ep.send(kVictim, 7, pattern(64, 10));
  out.probe_done = true;
}

Fingerprint campaign_scenario(cluster::ClusterReport& report_out) {
  GigeMeshConfig cfg;  // default 4x8x8 torus, 256 nodes
  cfg.via.retx_timeout = 1_ms;
  GigeMeshCluster c(cfg);
  c.engine().enable_digest(true);
  ClusterLifecycle life(c);
  life.start();

  // Crash the victim 2 ms in, cold-start it 10 ms later.
  flt::Schedule s;
  s.crash_restart(2_ms, kVictim, 10_ms);
  flt::Injector inj(c, s);

  mp::Endpoint snd(c.agent(kSender), mp::CoreParams{});
  mp::Endpoint rcv(c.agent(kReceiver), mp::CoreParams{});
  mp::Endpoint nbr(c.agent(kNeighbor), mp::CoreParams{});
  mp::Endpoint vic(c.agent(kVictim), mp::CoreParams{});

  CampaignOutcome out;
  constexpr int kMsgs = 100;  // paced 100 us apart: spans the whole outage
  paced_sender(snd, kReceiver, 5, kMsgs, out.traffic).detach();
  pair_receiver(rcv, kSender, 5, kMsgs, out.traffic).detach();
  // Warm the neighbour->victim channel so the post-detection probe exercises
  // the fast-fail path of an established channel, not a fresh dial.
  warm_recv(vic, out).detach();
  warm_send(nbr).detach();

  // Detection: crash at 2 ms + dead_after 2 ms + detector tick + flood. By
  // 8 ms every survivor must have converged on kDead.
  c.engine().run_until(8_ms);
  EXPECT_TRUE(out.warmed);
  EXPECT_TRUE(life.survivors_agree(kVictim, Liveness::kDead))
      << "survivors did not converge on the death";

  // A send to the dead rank error-completes promptly instead of hanging.
  probe_dead(nbr, out).detach();
  c.engine().run_until(9_ms);
  EXPECT_TRUE(out.probe_done) << "send to dead rank hung";
  EXPECT_EQ(out.probe_status, mp::SendStatus::kUnreachable);

  // Restart at 12 ms; by 20 ms the flood must have healed every view, and
  // the sender/receiver pair (whose minimal route crossed the victim) must
  // have delivered everything via degraded-mode routes in the meantime.
  c.engine().run_until(20_ms);
  EXPECT_TRUE(life.all_alive()) << "rejoin did not converge";
  EXPECT_EQ(out.traffic.delivered, kMsgs);
  EXPECT_EQ(out.traffic.ok_sends, kMsgs);

  life.stop();
  c.run();
  report_out = cluster::make_report(c);

  std::uint64_t h = out.traffic.hash;
  h = mix(h, static_cast<std::uint64_t>(out.traffic.delivered));
  h = mix(h, static_cast<std::uint64_t>(out.probe_status));
  h = mix(h, life.all_alive() ? 1 : 0);
  return {c.engine().executed(), c.engine().digest(), c.engine().now(), h};
}

TEST(FltNodeCrash, DetectDegradeRejoinConvergesByteIdentical) {
  cluster::ClusterReport report;
  auto r = chk::run_twice_and_compare(
      [&report] { return campaign_scenario(report); });
  EXPECT_TRUE(r.identical) << r.divergence;
  EXPECT_NE(r.first.result_hash, 0u);
  EXPECT_EQ(report.node_crashes, 1);
  EXPECT_EQ(report.node_restarts, 1);
  // Degraded-mode tables actually carried traffic around the dead coordinate.
  EXPECT_GT(report.table_routed_frames, 0);
  // Recovery latencies landed in the observability histograms (and therefore
  // in ClusterReport.metrics).
  auto& reg = obs::Registry::instance();
  EXPECT_GT(reg.histogram("cluster.detection_latency_ns").count(), 0u);
  EXPECT_GT(reg.histogram("cluster.rejoin_latency_ns").count(), 0u);
}

// --- chaos property: node crash in the middle of a scatter ------------------

struct ScatterCell {
  bool done = false;
  coll::ScatterResult res;
};

Task<> scatter_node(mp::Endpoint& ep, topo::Rank root,
                    const std::vector<std::vector<std::byte>>* chunks, int tag,
                    coll::ScatterAlg alg,
                    std::function<bool(topo::Rank)> is_dead,
                    ScatterCell& out) {
  out.res = co_await coll::scatter_failaware(ep, root, chunks, tag, alg,
                                             std::move(is_dead));
  out.done = true;
}

Fingerprint scatter_crash_scenario(coll::ScatterAlg alg, int& failed_out) {
  GigeMeshConfig cfg;
  cfg.shape = topo::Coord{4, 4};
  cfg.via.retx_timeout = 1_ms;
  GigeMeshCluster c(cfg);
  c.engine().enable_digest(true);
  ClusterLifecycle life(c);
  life.start();

  constexpr topo::Rank kRoot = 0;
  constexpr topo::Rank kDoomed = 1;  // (1,0): forwards for several routes
  const topo::Rank n = c.size();

  std::vector<std::unique_ptr<mp::Endpoint>> eps;
  for (topo::Rank r = 0; r < n; ++r) {
    eps.push_back(
        std::make_unique<mp::Endpoint>(c.agent(r), mp::CoreParams{}));
  }
  // Wire the failure detector to the endpoints: a confirmed death cancels
  // the rank's posted receives, waking blocked scatter participants.
  for (topo::Rank r = 0; r < n; ++r) {
    life.subscribe(r, [&eps, r](topo::Rank, Liveness to) {
      if (to == Liveness::kDead) {
        eps[static_cast<std::size_t>(r)]->cancel_posted_recvs();
      }
    });
  }

  std::vector<std::vector<std::byte>> chunks;
  for (topo::Rank r = 0; r < n; ++r) {
    chunks.push_back(pattern(8192, static_cast<std::uint8_t>(r + 1)));
  }

  std::vector<ScatterCell> cells(static_cast<std::size_t>(n));
  for (topo::Rank r = 0; r < n; ++r) {
    auto is_dead = [&life, r](topo::Rank q) {
      return life.view(r).at(q).state == Liveness::kDead;
    };
    scatter_node(*eps[static_cast<std::size_t>(r)], kRoot,
                 r == kRoot ? &chunks : nullptr, (1 << 23) | 21, alg,
                 std::move(is_dead), cells[static_cast<std::size_t>(r)])
        .detach();
  }

  // Kill the forwarder mid-operation, well before anything is delivered to
  // the far ranks and long before the failure detector can have fired.
  flt::Schedule s;
  s.node_crash(250_us, kDoomed);
  flt::Injector inj(c, s);

  c.engine().run_until(10_ms);
  EXPECT_TRUE(life.survivors_agree(kDoomed, Liveness::kDead));

  std::uint64_t h = chk::kFnvOffset;
  int failed = 0;
  for (topo::Rank r = 0; r < n; ++r) {
    if (r == kDoomed) continue;
    auto& cell = cells[static_cast<std::size_t>(r)];
    EXPECT_TRUE(cell.done) << "rank " << r << " hung in the scatter";
    if (!cell.done) continue;
    if (cell.res.ok) {
      EXPECT_EQ(cell.res.data, chunks[static_cast<std::size_t>(r)])
          << "corrupt chunk at rank " << r;
    } else {
      EXPECT_TRUE(cell.res.data.empty());
      ++failed;
    }
    h = mix(h, cell.res.ok ? 1 : 2);
    h = hash_bytes(h, cell.res.data);
  }
  failed_out = failed;

  life.stop();
  c.run();
  return {c.engine().executed(), c.engine().digest(), c.engine().now(), h};
}

TEST(FltScatterCrash, SdfSurvivorsCompleteOrErrorCleanly) {
  int failed = 0;
  auto r = chk::run_twice_and_compare([&failed] {
    return scatter_crash_scenario(coll::ScatterAlg::kSdf, failed);
  });
  EXPECT_TRUE(r.identical) << r.divergence;
  EXPECT_GT(failed, 0) << "crash fired too late to doom any chunk";
}

TEST(FltScatterCrash, OptSurvivorsCompleteOrErrorCleanly) {
  int failed = 0;
  auto r = chk::run_twice_and_compare([&failed] {
    return scatter_crash_scenario(coll::ScatterAlg::kOpt, failed);
  });
  EXPECT_TRUE(r.identical) << r.divergence;
  EXPECT_GT(failed, 0) << "crash fired too late to doom any chunk";
}

}  // namespace
