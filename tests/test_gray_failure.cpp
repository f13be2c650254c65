// Tests for gray-failure tolerance: degraded / asymmetric / flaky link
// faults with named arm-time validation, the phi-accrual failure detector
// (suspicion rises and recovers without a death verdict), per-link quality
// scoring with hysteresis masks, quality-aware route avoidance among minimal
// paths, duplicate-frame hardening under go-back-N, and the 4x8x8
// plane-degrade acceptance campaign — byte-identical under run-twice.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "chk/determinism.hpp"
#include "chk/digest.hpp"
#include "cluster/gige_mesh.hpp"
#include "cluster/lifecycle.hpp"
#include "cluster/report.hpp"
#include "flt/fault.hpp"
#include "mp/endpoint.hpp"
#include "net/quality.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/engine.hpp"
#include "topo/torus.hpp"
#include "via/agent.hpp"

namespace {

using namespace meshmp;
using namespace meshmp::sim::literals;
using chk::Fingerprint;
using cluster::ClusterLifecycle;
using cluster::GigeMeshCluster;
using cluster::GigeMeshConfig;
using cluster::Liveness;
using sim::Task;

constexpr topo::Dir kPlusX{0, +1};
constexpr topo::Dir kMinusX{0, -1};

// Honour MESHMP_TRACE so CI can capture the degraded-plane campaign's
// suspicion, mask and re-route timeline as a Perfetto artifact.
class TraceEnv : public ::testing::Environment {
 public:
  void SetUp() override { obs::trace_init_from_env(); }
  void TearDown() override { obs::trace_flush_env(); }
};
[[maybe_unused]] const auto* const kTraceEnv =
    ::testing::AddGlobalTestEnvironment(new TraceEnv);

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL;
  return h * 1099511628211ULL;
}

std::string rejection(const std::function<void()>& arm) {
  try {
    arm();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  ADD_FAILURE() << "schedule was accepted";
  return {};
}

// --- arm-time validation ----------------------------------------------------

TEST(FltGrayValidation, RejectsDegradeBandwidthFractionOutOfRange) {
  GigeMeshConfig cfg;
  cfg.shape = topo::Coord{4, 4};
  GigeMeshCluster c(cfg);
  flt::Schedule s;
  s.link_degrade(1_ms, 1_ms, 0, kPlusX, 100_us, 1.5);
  const std::string msg = rejection([&] { flt::Injector inj(c, s); });
  EXPECT_NE(msg.find("bandwidth fraction must be in (0, 1]"),
            std::string::npos)
      << msg;
}

TEST(FltGrayValidation, RejectsDegradeWindowWithNoEffect) {
  GigeMeshConfig cfg;
  cfg.shape = topo::Coord{4, 4};
  GigeMeshCluster c(cfg);
  flt::Schedule s;
  s.link_degrade(1_ms, 1_ms, 0, kPlusX, 0, 1.0);
  const std::string msg = rejection([&] { flt::Injector inj(c, s); });
  EXPECT_NE(msg.find("degrade window with no effect"), std::string::npos)
      << msg;
}

TEST(FltGrayValidation, RejectsFlakyProbabilityOutOfRange) {
  GigeMeshConfig cfg;
  cfg.shape = topo::Coord{4, 4};
  GigeMeshCluster c(cfg);
  flt::Schedule s;
  s.nic_flaky(1_ms, 1_ms, 0, kPlusX, 0.5, 1.5, 0);
  const std::string msg = rejection([&] { flt::Injector inj(c, s); });
  EXPECT_NE(msg.find("flaky probabilities must be in [0, 1]"),
            std::string::npos)
      << msg;
}

TEST(FltGrayValidation, RejectsUnclosedAsymWindowNesting) {
  GigeMeshConfig cfg;
  cfg.shape = topo::Coord{4, 4};
  GigeMeshCluster c(cfg);
  flt::Schedule s;
  // Two asym windows on the same port where the second opens before the
  // first closes: windows on a port must never nest.
  s.link_asymmetric(1_ms, 2_ms, 0, kPlusX);
  s.link_asymmetric(2_ms, 2_ms, 0, kPlusX);
  const std::string msg = rejection([&] { flt::Injector inj(c, s); });
  EXPECT_FALSE(msg.empty());
}

// --- LinkQuality scoring unit behaviour -------------------------------------

TEST(FltGrayQuality, LossEwmaCrossesBlackAndRecovers) {
  net::QualityParams p;
  net::LinkQuality lq(p, 6);
  // Six straight overdue probes push the loss EWMA past the black
  // threshold; the EWMA itself is the debounce.
  for (int i = 0; i < 5; ++i) {
    lq.on_probe_timeout(0);
    lq.update_masks();
    EXPECT_EQ(lq.black_mask(), 0u) << "blacked too early at sample " << i;
  }
  lq.on_probe_timeout(0);
  lq.update_masks();
  EXPECT_EQ(lq.black_mask(), 1u);
  EXPECT_GT(lq.loss_ewma(0), p.black_loss);
  // Acks decay the loss EWMA; hysteresis holds the mask until the loss
  // falls below black_clear (0.82 -> 0.62 -> 0.46).
  lq.on_probe_ack(0, 50_us);
  lq.update_masks();
  EXPECT_EQ(lq.black_mask(), 1u);
  lq.on_probe_ack(0, 50_us);
  lq.update_masks();
  EXPECT_EQ(lq.black_mask(), 0u);
  EXPECT_LT(lq.loss_ewma(0), p.black_clear);
}

TEST(FltGrayQuality, DegradeMaskNeedsConsecutiveStreak) {
  net::QualityParams p;
  net::LinkQuality lq(p, 6);
  // Stretch the RTT EWMA until the score sinks below the degrade threshold.
  for (int i = 0; i < 8; ++i) lq.on_probe_ack(0, 2'000'000);
  ASSERT_LT(lq.score(0), p.degrade_below);
  // Two sub-threshold evaluations are not enough (streak = 3)...
  lq.update_masks();
  lq.update_masks();
  EXPECT_EQ(lq.degraded_mask(), 0u);
  // ...one healthy evaluation resets the streak...
  for (int i = 0; i < 12; ++i) lq.on_probe_ack(0, 50_us);
  ASSERT_GT(lq.score(0), p.degrade_below);
  lq.update_masks();
  for (int i = 0; i < 8; ++i) lq.on_probe_ack(0, 2'000'000);
  lq.update_masks();
  lq.update_masks();
  EXPECT_EQ(lq.degraded_mask(), 0u);
  // ...and the third consecutive one flips the mask.
  lq.update_masks();
  EXPECT_EQ(lq.degraded_mask(), 1u);
  // Hysteresis: recovery must exceed clear_above, not just degrade_below.
  for (int i = 0; i < 12; ++i) lq.on_probe_ack(0, 50_us);
  ASSERT_GT(lq.score(0), p.clear_above);
  lq.update_masks();
  EXPECT_EQ(lq.degraded_mask(), 0u);
}

// --- quality-aware routing among minimal paths ------------------------------

TEST(FltGrayRoute, AvoidsDegradedEgressWithoutLengtheningRoutes) {
  const topo::Torus t(topo::Coord{4, 4});
  const std::vector<bool> dead(static_cast<std::size_t>(t.size()), false);
  std::vector<topo::DirMask> degraded(static_cast<std::size_t>(t.size()), 0);
  const topo::Rank src = t.rank(topo::Coord{0, 0});
  degraded[static_cast<std::size_t>(src)] = topo::dir_bit(kPlusX);

  const auto plain = t.route_table_avoiding(src, dead);
  const auto aware = t.route_table_avoiding(src, dead, degraded);
  // Diagonal destination has two minimal first hops; the quality-aware
  // table must pick the one that is not degraded.
  const topo::Rank diag = t.rank(topo::Coord{1, 1});
  EXPECT_NE(aware[static_cast<std::size_t>(diag)],
            static_cast<std::int8_t>(kPlusX.index()));
  // Straight-across destination has only the degraded minimal hop: the
  // route must stay minimal (avoidance never lengthens a path).
  const topo::Rank straight = t.rank(topo::Coord{1, 0});
  EXPECT_EQ(aware[static_cast<std::size_t>(straight)],
            static_cast<std::int8_t>(kPlusX.index()));
  // With no degraded links the overload reproduces the plain table exactly.
  const std::vector<topo::DirMask> zeros(static_cast<std::size_t>(t.size()),
                                         0);
  EXPECT_EQ(t.route_table_avoiding(src, dead, zeros), plain);
}

// --- phi boundary + asymmetric sever ---------------------------------------

// One-directional cable break: the far end suspects (phi crosses the
// suspicion threshold at exactly the first monitor tick past it) but the
// victim's port blacklists itself from probe timeouts in time for its
// detoured acks to refute the suspicion — no death verdict, ever.
TEST(FltGrayPhi, AsymSeverSuspectsButNeverKills) {
  GigeMeshConfig cfg;
  cfg.shape = topo::Coord{4, 4};
  GigeMeshCluster c(cfg);
  ClusterLifecycle life(c);
  life.start();
  const topo::Torus& t = c.torus();
  const topo::Rank a = t.rank(topo::Coord{1, 1});
  const topo::Rank b = *t.neighbor(a, kPlusX);

  // Track every state b ever holds for a: death must never appear.
  bool b_suspected_a = false;
  bool anyone_killed = false;
  for (topo::Rank r = 0; r < c.size(); ++r) {
    life.subscribe(r, [&, r](topo::Rank subject, Liveness to) {
      if (to == Liveness::kDead) anyone_killed = true;
      if (r == b && subject == a && to == Liveness::kSuspect) {
        b_suspected_a = true;
      }
    });
  }

  flt::Schedule s;
  s.link_asymmetric(1_ms, 3_ms, a, kPlusX);
  flt::Injector inj(c, s);

  // Before the suspicion threshold (~691 us of silence at phi 1.5) the phi
  // level is already rising but b still believes a is alive.
  c.engine().run_until(1_ms + 500_us);
  const double phi_early = life.phi(b, kMinusX);
  EXPECT_GT(phi_early, 0.5);
  EXPECT_LT(phi_early, life.params().phi_suspect);
  EXPECT_EQ(life.view(b).at(a).state, Liveness::kAlive);
  EXPECT_FALSE(b_suspected_a);

  // First monitor tick past the threshold: suspicion, not death.
  c.engine().run_until(1_ms + 900_us);
  EXPECT_TRUE(b_suspected_a);

  // a's own port self-diagnoses: pinned probes out the severed pairs stay
  // unacked, the loss EWMA crosses the black threshold, and the mask flips.
  c.engine().run_until(3_ms + 500_us);
  EXPECT_NE(life.link_quality(a).black_mask() & topo::dir_bit(kPlusX), 0u);
  EXPECT_GT(life.phi_counters().get("suspects"), 0);
  EXPECT_GT(life.phi_counters().get("refutations"), 0);

  // Sever heals at 4 ms; probes flow again, scores recover, views converge.
  c.engine().run_until(8_ms);
  EXPECT_FALSE(anyone_killed) << "asymmetric sever produced a death verdict";
  EXPECT_EQ(life.phi_counters().get("dead_declared"), 0);
  EXPECT_TRUE(life.all_alive());
  EXPECT_EQ(life.link_quality(a).black_mask(), 0u);
  EXPECT_LT(life.phi(b, kMinusX), life.params().phi_suspect);

  life.stop();
  c.run();
  // Satellite: one-directional carrier loss surfaces distinctly — the
  // severed transmit pairs ate frames while both carriers stayed up.
  cluster::ClusterReport rep = cluster::make_report(c);
  EXPECT_GT(rep.asym_carrier_drops, 0);
  EXPECT_EQ(rep.carrier_drops, 0);
  EXPECT_EQ(rep.node_crashes, 0);
}

// --- flaky NIC: duplicate/reorder hardening under go-back-N -----------------

TEST(FltGrayDedup, FlakyDupReorderDeliveredExactlyOnce) {
  GigeMeshConfig cfg;
  cfg.shape = topo::Coord{4};
  // The stock 50 ms go-back-N timeout never fires inside a 12 ms run, so a
  // dropped frame would wedge the stream for the whole window. A 1 ms retx
  // keeps recovery inside the flaky window and exercises the dedup path
  // with genuine retransmit overlap, not just PHY-duplicated frames.
  cfg.via.retx_timeout = 1_ms;
  GigeMeshCluster c(cfg);
  ClusterLifecycle life(c);
  life.start();

  flt::Schedule s;
  s.nic_flaky(100_us, 6_ms, 0, kPlusX, /*drop=*/0.1, /*dup=*/0.3,
              /*reorder=*/0.3);
  flt::Injector inj(c, s);

  mp::Endpoint tx(c.agent(0), mp::CoreParams{});
  mp::Endpoint rx(c.agent(1), mp::CoreParams{});

  constexpr int kMsgs = 24;
  int delivered = 0;
  bool payload_ok = true;
  auto receiver = [&]() -> Task<> {
    for (int i = 0; i < kMsgs; ++i) {
      mp::Message m = co_await rx.recv(0, 7);
      if (!m.ok) continue;
      ++delivered;
      // Payload byte i of message i — dup/reorder must not corrupt or
      // re-deliver: exactly-once, in-order per the VI sequence space.
      if (m.data.size() != 96 ||
          m.data[0] != static_cast<std::byte>(i & 0xff)) {
        payload_ok = false;
      }
    }
  };
  auto sender = [&]() -> Task<> {
    for (int i = 0; i < kMsgs; ++i) {
      // Paced so the stream spans the flaky window instead of completing
      // before it opens.
      co_await sim::delay(c.engine(), 200_us);
      std::vector<std::byte> payload(96, static_cast<std::byte>(i & 0xff));
      (void)co_await tx.send(1, 7, std::move(payload));
    }
  };
  receiver().detach();
  sender().detach();
  c.engine().run_until(12_ms);

  EXPECT_EQ(delivered, kMsgs);
  EXPECT_TRUE(payload_ok);
  EXPECT_EQ(life.phi_counters().get("dead_declared"), 0);

  life.stop();
  c.run();
  cluster::ClusterReport rep = cluster::make_report(c);
  // The wire really did duplicate/reorder: the receive path discarded the
  // echoes instead of delivering them twice.
  EXPECT_GT(rep.dup_frame_discards + rep.duplicate_discards, 0);
  EXPECT_GT(life.phi_counters().get("dup_probes_ignored") +
                rep.dup_frame_discards,
            0);
}

// --- 4x8x8 plane-degrade acceptance campaign --------------------------------

struct GrayCounters {
  std::int64_t dead_declared = 0;
  std::int64_t suspects = 0;
  std::int64_t mask_updates = 0;
  std::int64_t linkstate_applied = 0;
  std::int64_t quality_route_refreshes = 0;
  std::int64_t degraded_avoided = 0;
  std::int64_t degrade_windows = 0;
};

// Degrades every +x cable out of the x=1 plane (64 links) for 6 ms: +500 us
// of propagation at half line rate. The phi detector must suspect at most —
// never kill — while quality scores sink, the degraded masks flood, route
// tables steer crossing traffic onto clean minimal hops, and everything
// recovers once the windows close.
Fingerprint gray_campaign(GrayCounters& ctr_out) {
  GigeMeshConfig cfg;  // default 4x8x8 torus, 256 nodes
  cfg.via.retx_timeout = 2_ms;  // data path must outlast the added latency
  GigeMeshCluster c(cfg);
  c.engine().enable_digest(true);
  ClusterLifecycle life(c);
  life.start();
  const topo::Torus& t = c.torus();

  flt::Schedule s;
  for (topo::Rank r = 0; r < c.size(); ++r) {
    if (t.coord(r)[0] == 1) {
      s.link_degrade(2_ms, 6_ms, r, kPlusX, 500_us, 0.5);
    }
  }
  flt::Injector inj(c, s);

  // Cross-plane pairs with a diagonal offset: every minimal route crosses
  // the degraded plane exactly once, but the first hops at the plane have
  // clean minimal alternatives (+y/+z) the quality-aware tables must use.
  struct Pair {
    std::unique_ptr<mp::Endpoint> tx, rx;
    topo::Rank dst = 0;
    int delivered = 0;
    bool ok = true;
  };
  std::vector<Pair> pairs;
  constexpr int kMsgs = 12;
  for (int y : {0, 2, 4, 6}) {
    Pair p;
    const topo::Rank src = t.rank(topo::Coord{1, y, 0});
    p.dst = t.rank(topo::Coord{2, (y + 2) % 8, 2});
    p.tx = std::make_unique<mp::Endpoint>(c.agent(src), mp::CoreParams{});
    p.rx = std::make_unique<mp::Endpoint>(c.agent(p.dst), mp::CoreParams{});
    pairs.push_back(std::move(p));
  }
  auto pump = [&](Pair& p, int tag) -> Task<> {
    for (int i = 0; i < kMsgs; ++i) {
      std::vector<std::byte> payload(128, static_cast<std::byte>(i));
      const mp::SendStatus st = co_await p.tx->send(
          static_cast<int>(p.dst), tag, std::move(payload));
      if (st != mp::SendStatus::kOk) p.ok = false;
    }
  };
  auto drain = [&](Pair& p, topo::Rank src, int tag) -> Task<> {
    for (int i = 0; i < kMsgs; ++i) {
      mp::Message m = co_await p.rx->recv(static_cast<int>(src), tag);
      if (m.ok) ++p.delivered;
    }
  };
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const topo::Rank src = t.rank(topo::Coord{1, static_cast<int>(i) * 2, 0});
    drain(pairs[i], src, 9 + static_cast<int>(i)).detach();
  }

  // Warm-up: scores settle at 1.0 before the windows open.
  c.engine().run_until(2_ms);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    pump(pairs[i], 9 + static_cast<int>(i)).detach();
  }

  // Mid-window: masks have flipped on the plane, tables went quality-aware.
  c.engine().run_until(6_ms);
  const topo::Rank probe_rank = t.rank(topo::Coord{1, 0, 0});
  EXPECT_NE(life.link_quality(probe_rank).degraded_mask() &
                topo::dir_bit(kPlusX),
            0u)
      << "degraded +x port never flagged";
  EXPECT_LT(life.link_quality(probe_rank).score(kPlusX.index()), 0.5);
  // The flood carried the plane's masks to remote observers.
  const topo::Rank far_rank = t.rank(topo::Coord{3, 4, 4});
  EXPECT_NE(life.degraded_belief(far_rank, probe_rank), 0u);

  // Windows close at 8 ms; scores and masks must fully recover.
  c.engine().run_until(14_ms);
  EXPECT_EQ(life.link_quality(probe_rank).degraded_mask(), 0u)
      << "degraded mask failed to clear after heal";
  EXPECT_GT(life.link_quality(probe_rank).score(kPlusX.index()), 0.6);
  EXPECT_TRUE(life.all_alive()) << "gray degradation killed somebody";
  for (Pair& p : pairs) {
    EXPECT_TRUE(p.ok) << "cross-plane send failed";
    EXPECT_EQ(p.delivered, kMsgs) << "cross-plane traffic lost";
  }

  ctr_out.dead_declared = life.phi_counters().get("dead_declared");
  ctr_out.suspects = life.phi_counters().get("suspects");
  ctr_out.mask_updates = life.score_counters().get("mask_updates");
  ctr_out.linkstate_applied = life.score_counters().get("linkstate_applied");
  ctr_out.quality_route_refreshes =
      life.score_counters().get("quality_route_refreshes");
  ctr_out.degrade_windows = inj.counters().get("degrades");
  std::int64_t avoided = 0;
  for (topo::Rank r = 0; r < c.size(); ++r) {
    avoided += c.agent(r).counters().get("degraded_avoided");
  }
  ctr_out.degraded_avoided = avoided;

  life.stop();
  c.run();

  std::uint64_t h = 0;
  h = mix(h, static_cast<std::uint64_t>(ctr_out.dead_declared));
  h = mix(h, static_cast<std::uint64_t>(ctr_out.suspects));
  h = mix(h, static_cast<std::uint64_t>(ctr_out.mask_updates));
  h = mix(h, static_cast<std::uint64_t>(ctr_out.linkstate_applied));
  h = mix(h, static_cast<std::uint64_t>(ctr_out.degraded_avoided));
  for (Pair& p : pairs) h = mix(h, static_cast<std::uint64_t>(p.delivered));
  return {c.engine().executed(), c.engine().digest(), c.engine().now(), h};
}

TEST(FltGrayCampaign, DegradedPlaneNoFalseDeathsRunTwiceByteIdentical) {
  GrayCounters ctr;
  auto r = chk::run_twice_and_compare(
      [&ctr] { return gray_campaign(ctr); });
  EXPECT_TRUE(r.identical) << r.divergence;
  EXPECT_NE(r.first.result_hash, 0u);

  // Zero false death verdicts — degradation may only raise suspicion.
  EXPECT_EQ(ctr.dead_declared, 0);
  // The scoring layer saw the plane: every degraded cable flagged (64 set
  // + 64 clear at minimum), the masks flooded, and the quality-aware
  // tables steered crossing frames off the sick ports.
  EXPECT_EQ(ctr.degrade_windows, 64);
  EXPECT_GE(ctr.mask_updates, 128);
  EXPECT_GT(ctr.linkstate_applied, 0);
  EXPECT_GT(ctr.quality_route_refreshes, 0);
  EXPECT_GT(ctr.degraded_avoided, 0);
}

}  // namespace
