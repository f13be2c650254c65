// Tests for partition tolerance: torus partition/heal fault events with
// named arm-time validation errors, deterministic bisection link sets, the
// strict-majority quorum rule and split-brain-safe membership (minority
// fail-fast, primary keeps serving), quorum-gated collectives, the healing
// reconciliation wave (epoch-bumping VI flush, death retraction, flooded
// view merge), and simultaneous victim+informant crashes — all
// byte-identical under the run-twice determinism harness.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "chk/audit.hpp"
#include "chk/determinism.hpp"
#include "chk/digest.hpp"
#include "cluster/gige_mesh.hpp"
#include "cluster/lifecycle.hpp"
#include "cluster/membership.hpp"
#include "cluster/report.hpp"
#include "coll/reduce_op.hpp"
#include "coll/tree.hpp"
#include "flt/fault.hpp"
#include "mp/endpoint.hpp"
#include "mpi/datatypes.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/engine.hpp"
#include "sim/sync.hpp"
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
using cluster::QuorumSide;
using sim::Task;

constexpr topo::Dir kPlusX{0, +1};

// Honour MESHMP_TRACE so CI can capture the partition
// and heal timeline of the campaign as a Perfetto artifact.
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

// --- schedule validation: rejects name the offending event ------------------

std::string rejection(const std::function<void()>& arm) {
  try {
    arm();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  ADD_FAILURE() << "schedule was accepted";
  return {};
}

TEST(FltPartitionValidation, RejectsPlaneDimOutOfRange) {
  GigeMeshConfig cfg;
  cfg.shape = topo::Coord{4, 4};
  GigeMeshCluster c(cfg);
  flt::Schedule s;
  s.partition_plane(1_ms, 5, 2);
  const std::string msg = rejection([&] { flt::Injector inj(c, s); });
  EXPECT_NE(msg.find("event #0"), std::string::npos) << msg;
  EXPECT_NE(msg.find("partition"), std::string::npos) << msg;
  EXPECT_NE(msg.find("plane dim=5"), std::string::npos) << msg;
  EXPECT_NE(msg.find("plane dimension out of range"), std::string::npos)
      << msg;
}

TEST(FltPartitionValidation, RejectsPlaneCutLeavingOneSideEmpty) {
  GigeMeshConfig cfg;
  cfg.shape = topo::Coord{4, 4};
  GigeMeshCluster c(cfg);
  flt::Schedule s;
  s.partition_plane(1_ms, 0, 0);
  const std::string msg = rejection([&] { flt::Injector inj(c, s); });
  EXPECT_NE(msg.find("plane cut must leave both sides non-empty"),
            std::string::npos)
      << msg;
}

TEST(FltPartitionValidation, RejectsHealWithoutOpenPartition) {
  GigeMeshConfig cfg;
  cfg.shape = topo::Coord{4, 4};
  GigeMeshCluster c(cfg);
  flt::Schedule s;
  s.heal(1_ms);
  const std::string msg = rejection([&] { flt::Injector inj(c, s); });
  EXPECT_NE(msg.find("event #0"), std::string::npos) << msg;
  EXPECT_NE(msg.find("heal"), std::string::npos) << msg;
  EXPECT_NE(msg.find("all open partitions"), std::string::npos) << msg;
  EXPECT_NE(msg.find("heal without an open partition"), std::string::npos)
      << msg;
}

TEST(FltPartitionValidation, RejectsHealNotAfterThePartition) {
  GigeMeshConfig cfg;
  cfg.shape = topo::Coord{4, 4};
  GigeMeshCluster c(cfg);
  flt::Schedule s;
  s.partition_plane(2_ms, 0, 2).heal(2_ms);
  const std::string msg = rejection([&] { flt::Injector inj(c, s); });
  EXPECT_NE(msg.find("heal not after the partition"), std::string::npos)
      << msg;
}

TEST(FltPartitionValidation, RejectsEmptyExplicitLinkSet) {
  GigeMeshConfig cfg;
  cfg.shape = topo::Coord{4, 4};
  GigeMeshCluster c(cfg);
  flt::Schedule s;
  s.partition_links(1_ms, {});
  const std::string msg = rejection([&] { flt::Injector inj(c, s); });
  EXPECT_NE(msg.find("explicit link set is empty"), std::string::npos) << msg;
}

TEST(FltPartitionValidation, RejectsLinkEndpointRankOutOfRange) {
  GigeMeshConfig cfg;
  cfg.shape = topo::Coord{4, 4};
  GigeMeshCluster c(cfg);
  flt::Schedule s;
  s.partition_links(1_ms, {{99, kPlusX}});
  const std::string msg = rejection([&] { flt::Injector inj(c, s); });
  EXPECT_NE(msg.find("link endpoint rank out of range"), std::string::npos)
      << msg;
}

TEST(FltPartitionValidation, AcceptsPartitionWindowAndExplicitLinks) {
  GigeMeshConfig cfg;
  cfg.shape = topo::Coord{4, 4};
  GigeMeshCluster c(cfg);
  flt::Schedule s;
  s.partition_window(1_ms, 0, 2, 5_ms)
      .partition_links(10_ms, {{0, kPlusX}})
      .heal(11_ms);
  EXPECT_NO_THROW({
    flt::Injector inj(c, s);
    (void)inj;
  });
}

// --- bisection link sets ----------------------------------------------------

TEST(TopoBisection, PlaneCutsBoundaryAndWraparoundOnce) {
  topo::Torus t(topo::Coord{4, 4});
  const auto links = t.bisection_links(0, 2);
  // Splitting x in {0,1} from x in {2,3}: each of the 4 rows contributes the
  // x=1->2 boundary cable and the x=3->0 wraparound cable.
  EXPECT_EQ(links.size(), 8u);
  for (const auto& [rank, dir] : links) {
    EXPECT_LT(t.coord(rank)[0], 2) << "link not listed from its low side";
    const auto peer = t.neighbor(rank, dir);
    ASSERT_TRUE(peer.has_value());
    EXPECT_GE(t.coord(*peer)[0], 2) << "cut cable does not cross the plane";
  }
  // Cutting every cable in `links` must disconnect the sides: no route from
  // a low-side rank to a high-side rank survives with the high side dead.
  std::vector<bool> high(static_cast<std::size_t>(t.size()), false);
  for (topo::Rank r = 0; r < t.size(); ++r) high[r] = t.coord(r)[0] >= 2;
  const auto table = t.route_table_avoiding(0, high);
  for (topo::Rank r = 0; r < t.size(); ++r) {
    if (t.coord(r)[0] >= 2) {
      EXPECT_EQ(table[r], -1);
    }
  }
}

TEST(TopoBisection, RejectsDegenerateCuts) {
  topo::Torus t(topo::Coord{4, 4});
  EXPECT_THROW((void)t.bisection_links(0, 0), std::invalid_argument);
  EXPECT_THROW((void)t.bisection_links(0, 4), std::invalid_argument);
  EXPECT_THROW((void)t.bisection_links(2, 1), std::invalid_argument);
}

// --- quorum rule ------------------------------------------------------------

TEST(ClusterQuorum, StrictMajorityAndLowestRankTieBreak) {
  MembershipView v(4);
  EXPECT_EQ(cluster::quorum_side(v), QuorumSide::kPrimary);  // all alive

  // One death: 3 of 4 is a strict majority.
  EXPECT_TRUE(v.apply({3, {Liveness::kDead, 0, 1}}));
  EXPECT_EQ(cluster::quorum_side(v), QuorumSide::kPrimary);

  // Exact half/half tie: the side holding rank 0 wins.
  EXPECT_TRUE(v.apply({2, {Liveness::kDead, 0, 1}}));
  EXPECT_EQ(cluster::quorum_side(v), QuorumSide::kPrimary);

  // The complementary view (ranks 0,1 dead) is the minority side.
  MembershipView w(4);
  EXPECT_TRUE(w.apply({0, {Liveness::kDead, 0, 1}}));
  EXPECT_TRUE(w.apply({1, {Liveness::kDead, 0, 1}}));
  EXPECT_EQ(cluster::quorum_side(w), QuorumSide::kMinority);

  // Fewer than half alive: minority outright.
  EXPECT_TRUE(w.apply({2, {Liveness::kDead, 0, 1}}));
  EXPECT_EQ(cluster::quorum_side(w), QuorumSide::kMinority);

  // Suspects still count as live (only a confirmed death removes a vote).
  MembershipView u(4);
  EXPECT_TRUE(u.apply({1, {Liveness::kSuspect, 0, 1}}));
  EXPECT_TRUE(u.apply({2, {Liveness::kDead, 0, 1}}));
  EXPECT_TRUE(u.apply({3, {Liveness::kDead, 0, 1}}));
  EXPECT_EQ(cluster::quorum_side(u), QuorumSide::kPrimary);
}

TEST(ClusterQuorum, RetractResetsToDefaultAndLosesToAnyAuthoredRecord) {
  MembershipView v(4);
  EXPECT_TRUE(v.apply({2, {Liveness::kDead, 3, 17}}));
  v.retract(2);
  EXPECT_EQ(v.at(2).state, Liveness::kAlive);
  EXPECT_EQ(v.at(2).incarnation, 0u);
  EXPECT_EQ(v.at(2).version, 0u);
  // Even a stale authored record re-applies over the retracted default.
  EXPECT_TRUE(v.apply({2, {Liveness::kDead, 0, 1}}));
}

// --- simultaneous victim + informant crashes --------------------------------
//
// The victim's row neighbours (its would-be informants in +x/-x) die at the
// same instant. Detection must not depend on any particular informant: the
// surviving neighbours declare all three within the dead_after bound plus
// detector-tick and flood slack.

Fingerprint informant_crash_scenario() {
  GigeMeshConfig cfg;
  cfg.shape = topo::Coord{4, 4};
  GigeMeshCluster c(cfg);
  c.engine().enable_digest(true);
  ClusterLifecycle life(c);
  life.start();

  // Victim 5 = (1,1); informants 4 = (0,1) and 6 = (2,1) crash with it.
  flt::Schedule s;
  s.node_crash(1_ms, 4).node_crash(1_ms, 5).node_crash(1_ms, 6);
  flt::Injector inj(c, s);

  c.engine().run_until(4_ms);
  std::uint64_t h = chk::kFnvOffset;
  for (topo::Rank dead : {4, 5, 6}) {
    EXPECT_TRUE(life.survivors_agree(dead, Liveness::kDead))
        << "survivors did not converge on rank " << dead;
    h = mix(h, static_cast<std::uint64_t>(
                   life.survivors_agree(dead, Liveness::kDead)));
  }
  // Three deaths out of 16 never threaten quorum.
  for (topo::Rank r : {0, 1, 7, 15}) {
    EXPECT_EQ(life.side(r), QuorumSide::kPrimary);
  }

  life.stop();
  c.run();
  return {c.engine().executed(), c.engine().digest(), c.engine().now(), h};
}

TEST(FltInformantCrash, SurvivorsConvergeWithinBoundByteIdentical) {
  auto r = chk::run_twice_and_compare(informant_crash_scenario);
  EXPECT_TRUE(r.identical) << r.divergence;
  auto& hist =
      obs::Registry::instance().histogram("cluster.detection_latency_ns");
  // 13 survivors x 3 subjects per run.
  EXPECT_GE(hist.count(), 39u);
  // Every detection within dead_after (2 ms) plus two detector ticks and
  // flood slack: losing the row informants must not stretch the bound.
  EXPECT_LE(hist.max(), 2_ms + 3 * 200_us);
}

// --- partition / heal acceptance campaign on 4x8x8 --------------------------
//
// partition_plane(dim 0, cut 2) splits the default 4x8x8 torus into two
// 2x8x8 halves of 128 nodes each — the exact tie the lowest-surviving-rank
// rule must break: the x<2 half holds rank 0 and stays primary, the x>=2
// half goes minority. Rank layout: rank = x + 4y + 32z.

constexpr topo::Rank kPrimaryA = 0;    // (0,0,0): paced-pair sender
constexpr topo::Rank kPrimaryB = 225;  // (1,0,7): paced-pair receiver
constexpr topo::Rank kBoundary = 1;    // (1,0,0): cross-cut channel owner
constexpr topo::Rank kMinA = 2;        // (2,0,0): minority probe node
constexpr topo::Rank kMinB = 3;        // (3,0,0): minority established peer
constexpr topo::Rank kMinFar = 34;     // (2,0,1): minority fresh-dial target

constexpr int kPacedMsgs = 120;
constexpr int kTagPaced = 5;
constexpr int kTagCross = 7;
constexpr int kTagIntra = 8;
constexpr int kTagFresh = 9;

struct PairTraffic {
  int delivered = 0;
  int ok_sends = 0;
  std::uint64_t hash = chk::kFnvOffset;
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

Task<> pair_receiver(mp::Endpoint& ep, int src, int tag, int n,
                     PairTraffic& out) {
  for (int i = 0; i < n; ++i) {
    mp::Message m = co_await ep.recv(src, tag);
    if (!m.ok) co_return;
    ++out.delivered;
    out.hash = hash_bytes(out.hash, m.data);
  }
}

struct SendCell {
  bool done = false;
  mp::SendStatus status = mp::SendStatus::kOk;
};

Task<> one_send(mp::Endpoint& ep, int dst, int tag, std::uint8_t seed,
                SendCell& out) {
  out.status = co_await ep.send(dst, tag, pattern(64, seed));
  out.done = true;
}

Task<> one_recv(mp::Endpoint& ep, int src, int tag, SendCell& out) {
  mp::Message m = co_await ep.recv(src, tag);
  out.status = m.ok ? mp::SendStatus::kOk : mp::SendStatus::kUnreachable;
  out.done = true;
}

struct CollCell {
  bool done = false;
  mp::SendStatus status = mp::SendStatus::kOk;
  std::vector<std::byte> data;
};

// `op` and `dead` by value: they are copied into the coroutine frame, so
// callers may pass temporaries that die before the first suspension resumes.
Task<> quorum_allreduce_node(mp::Endpoint& ep, coll::ReduceOp op, int tag,
                             std::vector<bool> dead, CollCell& out) {
  out.data = mpi::to_bytes(static_cast<double>(ep.rank()));
  out.status = co_await coll::allreduce_quorum(ep, out.data, op, tag, dead);
  out.done = true;
}

Task<> quorum_barrier_node(mp::Endpoint& ep, int tag, std::vector<bool> dead,
                           CollCell& out) {
  out.status = co_await coll::barrier_quorum(ep, tag, std::move(dead));
  out.done = true;
}

struct CampaignCounters {
  std::int64_t minority_transitions = 0;
  std::int64_t primary_restorations = 0;
  std::int64_t partition_rejoins = 0;
  std::int64_t reconcile_waves = 0;
  std::int64_t carrier_heal_events = 0;
  std::int64_t view_pushes = 0;
};

bool is_minority_rank(const topo::Torus& t, topo::Rank r) {
  return t.coord(r)[0] >= 2;
}

Fingerprint partition_campaign(cluster::ClusterReport& report_out,
                               CampaignCounters& ctr_out) {
  GigeMeshConfig cfg;  // default 4x8x8 torus, 256 nodes
  cfg.via.retx_timeout = 1_ms;
  GigeMeshCluster c(cfg);
  c.engine().enable_digest(true);
  ClusterLifecycle life(c);
  life.start();
  const topo::Torus& t = c.torus();

  // Partition 2 ms in, heal 10 ms later.
  flt::Schedule s;
  s.partition_plane(2_ms, 0, 2).heal(12_ms);
  flt::Injector inj(c, s);

  std::vector<std::unique_ptr<mp::Endpoint>> eps;
  for (topo::Rank r = 0; r < c.size(); ++r) {
    eps.push_back(
        std::make_unique<mp::Endpoint>(c.agent(r), mp::CoreParams{}));
  }
  auto ep = [&eps](topo::Rank r) -> mp::Endpoint& {
    return *eps[static_cast<std::size_t>(r)];
  };

  // Intra-primary pair paced across the whole campaign: its minimal route
  // (x within {0,1}, z wraparound) never crosses the cut, so every message
  // must deliver regardless of the partition.
  PairTraffic paced;
  paced_sender(ep(kPrimaryA), kPrimaryB, kTagPaced, kPacedMsgs, paced)
      .detach();
  pair_receiver(ep(kPrimaryB), kPrimaryA, kTagPaced, kPacedMsgs, paced)
      .detach();

  // Warm a cross-cut channel (boundary -> minority) and an intra-minority
  // channel before the partition, so the campaign exercises fail-fast on an
  // established channel and survival of an intra-side channel respectively.
  SendCell warm_cross_tx, warm_cross_rx, warm_intra_tx, warm_intra_rx;
  one_recv(ep(kMinA), kBoundary, kTagCross, warm_cross_rx).detach();
  one_send(ep(kBoundary), kMinA, kTagCross, 1, warm_cross_tx).detach();
  one_recv(ep(kMinB), kMinA, kTagIntra, warm_intra_rx).detach();
  one_send(ep(kMinA), kMinB, kTagIntra, 2, warm_intra_tx).detach();

  // Detection: partition at 2 ms + dead_after 2 ms + detector tick + flood.
  c.engine().run_until(8_ms);
  EXPECT_TRUE(warm_cross_tx.done && warm_cross_rx.done);
  EXPECT_EQ(warm_cross_tx.status, mp::SendStatus::kOk);
  EXPECT_TRUE(warm_intra_tx.done && warm_intra_rx.done);
  EXPECT_EQ(warm_intra_tx.status, mp::SendStatus::kOk);

  // Split-brain safety: every view has converged on its own side's story —
  // 128 dead — and the tie broke to exactly one primary side.
  for (topo::Rank r = 0; r < c.size(); ++r) {
    EXPECT_EQ(life.view(r).count(Liveness::kDead), 128)
        << "rank " << r << " view not converged";
    EXPECT_EQ(life.side(r), is_minority_rank(t, r) ? QuorumSide::kMinority
                                                   : QuorumSide::kPrimary)
        << "rank " << r << " on the wrong side";
  }

  // Fail-fast probes during the partition.
  SendCell cross_probe, minority_fresh, intra_send, intra_recv;
  CollCell minority_coll;
  // a) Established cross-cut channel error-completes kUnreachable.
  one_send(ep(kBoundary), kMinA, kTagCross, 3, cross_probe).detach();
  // b) A fresh dial from the minority side is refused without touching the
  //    wire: kMinorityPartition.
  one_send(ep(kMinA), kMinFar, kTagFresh, 4, minority_fresh).detach();
  // c) An established intra-minority channel keeps working.
  one_recv(ep(kMinB), kMinA, kTagIntra, intra_recv).detach();
  one_send(ep(kMinA), kMinB, kTagIntra, 5, intra_send).detach();
  // d) A minority-side collective refuses immediately.
  quorum_barrier_node(ep(kMinA), (1 << 23) | 40, life.view(kMinA).dead_set(),
                      minority_coll)
      .detach();
  // e) The primary side re-trees and keeps serving: an allreduce over the
  //    128 survivors completes with the primary-side sum.
  std::vector<CollCell> prim(static_cast<std::size_t>(c.size()));
  double expected_sum = 0;
  for (topo::Rank r = 0; r < c.size(); ++r) {
    if (is_minority_rank(t, r)) continue;
    expected_sum += static_cast<double>(r);
    quorum_allreduce_node(ep(r), coll::sum_op<double>(), (1 << 23) | 44,
                          life.view(r).dead_set(),
                          prim[static_cast<std::size_t>(r)])
        .detach();
  }

  c.engine().run_until(11_ms);
  EXPECT_TRUE(cross_probe.done) << "cross-cut probe hung";
  EXPECT_EQ(cross_probe.status, mp::SendStatus::kUnreachable);
  EXPECT_TRUE(minority_fresh.done) << "minority fresh dial hung";
  EXPECT_EQ(minority_fresh.status, mp::SendStatus::kMinorityPartition);
  EXPECT_TRUE(intra_send.done && intra_recv.done);
  EXPECT_EQ(intra_send.status, mp::SendStatus::kOk);
  EXPECT_TRUE(minority_coll.done);
  EXPECT_EQ(minority_coll.status, mp::SendStatus::kMinorityPartition);
  for (topo::Rank r = 0; r < c.size(); ++r) {
    if (is_minority_rank(t, r)) continue;
    auto& cell = prim[static_cast<std::size_t>(r)];
    EXPECT_TRUE(cell.done) << "primary allreduce hung at rank " << r;
    EXPECT_EQ(cell.status, mp::SendStatus::kOk);
    if (cell.done && cell.status == mp::SendStatus::kOk) {
      EXPECT_EQ(mpi::scalar_from_bytes<double>(cell.data), expected_sum)
          << "wrong primary-side sum at rank " << r;
    }
  }

  // Heal fires at 12 ms: reconcile wave, epoch-bumping flushes, retraction,
  // rejoin floods. By 25 ms every view must be all-alive again.
  c.engine().run_until(25_ms);
  EXPECT_TRUE(life.all_alive()) << "heal reconciliation did not converge";
  EXPECT_EQ(paced.delivered, kPacedMsgs);
  EXPECT_EQ(paced.ok_sends, kPacedMsgs);
  for (topo::Rank r = 0; r < c.size(); ++r) {
    EXPECT_EQ(life.side(r), QuorumSide::kPrimary);
  }

  // Post-heal: blocked channels surface their failure once more, then the
  // app resets them and traffic flows again.
  SendCell retry_cross_stale, retry_cross, retry_cross_rx;
  SendCell retry_intra_stale, retry_intra, retry_intra_rx;
  SendCell retry_fresh, retry_fresh_rx;
  one_send(ep(kBoundary), kMinA, kTagCross, 6, retry_cross_stale).detach();
  one_send(ep(kMinA), kMinB, kTagIntra, 7, retry_intra_stale).detach();
  c.engine().run_until(26_ms);
  EXPECT_TRUE(retry_cross_stale.done);
  EXPECT_EQ(retry_cross_stale.status, mp::SendStatus::kUnreachable);
  EXPECT_TRUE(retry_intra_stale.done);  // minority flush failed this one too
  EXPECT_EQ(retry_intra_stale.status, mp::SendStatus::kUnreachable);

  ep(kBoundary).reset_peer(kMinA);
  ep(kMinA).reset_peer(kMinB);
  one_recv(ep(kMinA), kBoundary, kTagCross, retry_cross_rx).detach();
  one_send(ep(kBoundary), kMinA, kTagCross, 8, retry_cross).detach();
  one_recv(ep(kMinB), kMinA, kTagIntra, retry_intra_rx).detach();
  one_send(ep(kMinA), kMinB, kTagIntra, 9, retry_intra).detach();
  // The minority-refused fresh dial simply retries after the heal.
  one_recv(ep(kMinFar), kMinA, kTagFresh, retry_fresh_rx).detach();
  one_send(ep(kMinA), kMinFar, kTagFresh, 10, retry_fresh).detach();
  c.engine().run_until(28_ms);
  for (const SendCell* cell :
       {&retry_cross, &retry_cross_rx, &retry_intra, &retry_intra_rx,
        &retry_fresh, &retry_fresh_rx}) {
    EXPECT_TRUE(cell->done) << "post-heal retry hung";
    EXPECT_EQ(cell->status, mp::SendStatus::kOk);
  }

  // Machine-wide collective across all 256 ranks proves full recovery.
  std::vector<CollCell> world(static_cast<std::size_t>(c.size()));
  for (topo::Rank r = 0; r < c.size(); ++r) {
    quorum_barrier_node(ep(r), (1 << 23) | 48, life.view(r).dead_set(),
                        world[static_cast<std::size_t>(r)])
        .detach();
  }
  c.engine().run_until(32_ms);
  for (topo::Rank r = 0; r < c.size(); ++r) {
    auto& cell = world[static_cast<std::size_t>(r)];
    EXPECT_TRUE(cell.done) << "post-heal barrier hung at rank " << r;
    EXPECT_EQ(cell.status, mp::SendStatus::kOk);
  }

  EXPECT_EQ(inj.counters().get("partitions"), 1);
  EXPECT_EQ(inj.counters().get("heals"), 1);
  const auto& pc = life.partition_counters();
  ctr_out.minority_transitions = pc.get("minority_transitions");
  ctr_out.primary_restorations = pc.get("primary_restorations");
  ctr_out.partition_rejoins = pc.get("partition_rejoins");
  ctr_out.reconcile_waves = pc.get("reconcile_waves");
  ctr_out.carrier_heal_events = pc.get("carrier_heal_events");
  ctr_out.view_pushes = pc.get("view_pushes");

  life.stop();
  c.run();
  report_out = cluster::make_report(c);

  // No payload buffer may be stranded by the flush/retract/rejoin sequence.
  {
    chk::ScopedCapture capture;
    (void)chk::Audit::instance().quiesce();
    EXPECT_FALSE(capture.caught("buf.pool"))
        << "buffer leaked across the partition/heal cycle";
  }

  std::uint64_t h = paced.hash;
  h = mix(h, static_cast<std::uint64_t>(paced.delivered));
  h = mix(h, static_cast<std::uint64_t>(cross_probe.status));
  h = mix(h, static_cast<std::uint64_t>(minority_fresh.status));
  h = mix(h, static_cast<std::uint64_t>(minority_coll.status));
  h = mix(h, static_cast<std::uint64_t>(expected_sum));
  h = mix(h, static_cast<std::uint64_t>(ctr_out.minority_transitions));
  h = mix(h, static_cast<std::uint64_t>(ctr_out.partition_rejoins));
  h = mix(h, life.all_alive() ? 1 : 0);
  return {c.engine().executed(), c.engine().digest(), c.engine().now(), h};
}

TEST(FltPartition, SplitBrainHealReconcileByteIdentical) {
  cluster::ClusterReport report;
  CampaignCounters ctr;
  auto r = chk::run_twice_and_compare(
      [&report, &ctr] { return partition_campaign(report, ctr); });
  EXPECT_TRUE(r.identical) << r.divergence;
  EXPECT_NE(r.first.result_hash, 0u);

  // Each of the 128 minority nodes flipped exactly once each way and ran
  // exactly one reconcile rejoin; the wave reached every node.
  EXPECT_EQ(ctr.minority_transitions, 128);
  EXPECT_EQ(ctr.primary_restorations, 128);
  EXPECT_EQ(ctr.partition_rejoins, 128);
  EXPECT_EQ(ctr.reconcile_waves, 256);
  // Every cut cable reports heal evidence at both ends (128 cables: 64
  // boundary + 64 wraparound).
  EXPECT_EQ(ctr.carrier_heal_events, 256);
  EXPECT_GT(ctr.view_pushes, 0);

  // Partition work surfaced in the cluster report scalars.
  EXPECT_EQ(report.partition_flushes, 128);
  EXPECT_GT(report.minority_refusals, 0);
  EXPECT_EQ(report.node_crashes, 0);  // nobody actually died

  // Duration and heal-convergence distributions landed in the registry.
  auto& reg = obs::Registry::instance();
  EXPECT_GE(reg.histogram("cluster.partition.duration_ns").count(), 128u);
  EXPECT_GE(reg.histogram("cluster.partition.heal_convergence_ns").count(),
            256u);
}

}  // namespace
