// Tests for the zero-copy data path: buf::Pool / Buffer / Slice semantics
// (refcounted aliasing, copy-on-write corruption, one allocation per
// get/stage), the charge_copy accounting seam, the "buf.pool" quiesce audit,
// and an end-to-end payload-integrity property test that pushes random
// payloads through routed forwarding, a corruption burst (FCS drop +
// retransmit) and a mid-run link flap.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "buf/copy.hpp"
#include "buf/pool.hpp"
#include "chk/audit.hpp"
#include "chk/determinism.hpp"
#include "chk/digest.hpp"
#include "cluster/gige_mesh.hpp"
#include "cluster/report.hpp"
#include "flt/fault.hpp"
#include "hw/cpu.hpp"
#include "mp/endpoint.hpp"
#include "net/frame.hpp"
#include "sim/engine.hpp"

namespace {

using namespace meshmp;
using namespace meshmp::sim::literals;
using cluster::GigeMeshCluster;
using cluster::GigeMeshConfig;
using sim::Engine;
using sim::Task;

constexpr topo::Dir kPlusX{0, +1};

std::vector<std::byte> pattern(std::size_t n, std::uint8_t seed = 1) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>((seed + i * 131) & 0xff);
  }
  return v;
}

// --- pool / slice semantics --------------------------------------------------

TEST(BufPool, AdoptIsZeroCopyAndReturnsOnRelease) {
  auto& pool = buf::Pool::instance();
  const auto base = pool.outstanding();
  auto v = pattern(100, 3);
  const std::byte* storage = v.data();
  {
    buf::Slice s = pool.adopt(std::move(v));
    EXPECT_EQ(s.size(), 100u);
    EXPECT_EQ(s.data(), storage);  // adopted, not copied
    EXPECT_EQ(pool.outstanding(), base + 1);
    EXPECT_EQ(s.to_vector(), pattern(100, 3));
  }
  EXPECT_EQ(pool.outstanding(), base);
}

TEST(BufPool, StageCopiesSoCallerMutationIsInvisible) {
  auto v = pattern(64, 7);
  buf::Slice s = buf::Pool::instance().stage(v);
  v[0] = std::byte{0xff};
  EXPECT_EQ(s[0], pattern(64, 7)[0]);
}

TEST(BufPool, EmptyInputsYieldNullSlices) {
  auto& pool = buf::Pool::instance();
  const auto base = pool.outstanding();
  buf::Slice a = pool.adopt({});
  buf::Slice b = pool.stage({});
  EXPECT_TRUE(a.empty());
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(a.data(), nullptr);
  EXPECT_EQ(pool.outstanding(), base);  // no storage pinned for nothing
}

TEST(BufSlice, SubsliceAliasesAndPinsStorage) {
  auto& pool = buf::Pool::instance();
  const auto base = pool.outstanding();
  buf::Slice frag;
  {
    buf::Slice whole = pool.adopt(pattern(1000, 5));
    frag = whole.subslice(200, 300);
    EXPECT_EQ(frag.data(), whole.data() + 200);  // same storage block
    EXPECT_EQ(pool.outstanding(), base + 1);     // one block, two views
  }
  // The fragment keeps the block alive after the parent died.
  EXPECT_EQ(pool.outstanding(), base + 1);
  const auto expect = pattern(1000, 5);
  ASSERT_EQ(frag.size(), 300u);
  EXPECT_EQ(frag[0], expect[200]);
  frag = {};
  EXPECT_EQ(pool.outstanding(), base);
}

TEST(BufSlice, CorruptedDetachesAndBreaksChecksum) {
  const auto ref = pattern(256, 2);
  buf::Slice orig = buf::Pool::instance().adopt(ref);
  buf::Slice alias = orig;
  buf::Slice bad = orig.corrupted(10, std::byte{0x10});
  // Copy-on-write: the original (e.g. a retransmit-queue entry) and every
  // alias of its storage keep the sent bytes.
  EXPECT_NE(bad.data(), orig.data());
  EXPECT_EQ(orig.to_vector(), ref);
  EXPECT_EQ(alias.to_vector(), ref);
  // The detached copy differs in exactly the flipped byte.
  std::vector<std::byte> expect = ref;
  expect[10] ^= std::byte{0x10};
  EXPECT_EQ(bad.to_vector(), expect);
}

TEST(BufBuffer, ReleaseStealsStorageOutOfPoolAccounting) {
  auto& pool = buf::Pool::instance();
  const auto base = pool.outstanding();
  buf::Buffer b = pool.get(128);
  EXPECT_EQ(b.size(), 128u);
  EXPECT_EQ(b.span()[0], std::byte{0});  // zero-filled scratch
  EXPECT_EQ(pool.outstanding(), base + 1);
  std::vector<std::byte> taken = std::move(b).release();
  EXPECT_EQ(taken.size(), 128u);
  EXPECT_FALSE(b.live());
  EXPECT_EQ(pool.outstanding(), base);  // caller owns it now
}

TEST(BufPool, GetAndStageAlwaysAllocate) {
  // No storage is recycled: dropping a buffer and asking again for the same
  // size is a second allocation, never a hit.
  auto& pool = buf::Pool::instance();
  const auto before = pool.stats();
  { buf::Buffer first = pool.get(4096); }
  { buf::Buffer again = pool.get(4000); }
  const auto gets = pool.stats();
  EXPECT_EQ(gets.pool_misses, before.pool_misses + 2);
  EXPECT_EQ(gets.pool_hits, before.pool_hits);

  const auto bytes = pattern(4096, 4);
  { buf::Slice first = pool.stage(bytes); }
  { buf::Slice again = pool.stage(bytes); }
  const auto stages = pool.stats();
  EXPECT_EQ(stages.pool_misses, gets.pool_misses + 2);
  EXPECT_EQ(stages.pool_hits, before.pool_hits);
}

// --- frame integration -------------------------------------------------------

TEST(BufFrame, ForwardedFrameReverifiesInConstantState) {
  net::Frame f;
  f.payload = buf::Pool::instance().adopt(pattern(1500, 8));
  net::Frame hop = f;  // forwarding copies the frame, aliases the payload
  EXPECT_EQ(hop.payload.data(), f.payload.data());
  EXPECT_FALSE(hop.fcs_error);
  hop.corrupt_payload_byte(3, std::byte{0x01});
  EXPECT_TRUE(hop.fcs_error);
  EXPECT_EQ(hop.payload[3], pattern(1500, 8)[3] ^ std::byte{0x01});
  // The original frame is untouched: clean FCS, sent bytes.
  EXPECT_FALSE(f.fcs_error);
  EXPECT_EQ(f.payload.to_vector(), pattern(1500, 8));
}

// --- charge_copy accounting --------------------------------------------------

TEST(BufCopyStats, ChargeCopyBillsCpuAndCountsBytes) {
  Engine eng;
  hw::Cpu cpu(eng, hw::HostParams{});
  buf::reset_copy_stats();
  auto prog = [](hw::Cpu& c) -> Task<> {
    co_await buf::charge_copy(c, 1000, /*hot=*/true);
  };
  prog(cpu).detach();
  eng.run();
  EXPECT_EQ(buf::copy_stats().copies, 1u);
  EXPECT_EQ(buf::copy_stats().bytes, 1000u);
  EXPECT_EQ(cpu.busy_time(), hw::HostParams{}.copy_time(1000, true));
}

TEST(BufCopyStats, RendezvousMovesEachPayloadByteExactlyOnce) {
  GigeMeshConfig cfg;
  cfg.shape = topo::Coord{4};
  GigeMeshCluster c(cfg);
  mp::Endpoint a(c.agent(0), mp::CoreParams{});
  mp::Endpoint b(c.agent(1), mp::CoreParams{});

  auto receiver = [](mp::Endpoint& ep, std::vector<std::byte>& out) -> Task<> {
    mp::Message m = co_await ep.recv(0, 1);
    out = std::move(m.data);
  };
  auto sender = [](mp::Endpoint& ep, std::vector<std::byte> d) -> Task<> {
    (void)co_await ep.send(1, 1, std::move(d));
  };

  // Warm the channel (dial + eager bounce setup), then measure.
  std::vector<std::byte> got;
  receiver(b, got).detach();
  sender(a, pattern(64)).detach();
  c.engine().run();
  ASSERT_EQ(got.size(), 64u);

  // The rendezvous path charges exactly one modeled copy of the payload
  // (the receive-side ISR gather into the registered region); the old
  // host-side duplicate at FIN time is gone and nothing else double-bills.
  // The RTS/RTR control descriptors add a small constant charge, so compare
  // two sizes: the charged-bytes delta must equal the payload delta exactly.
  std::uint64_t charged[2] = {0, 0};
  const std::size_t sizes[2] = {100'000, 60'000};  // both over eager cutoff
  for (int i = 0; i < 2; ++i) {
    buf::reset_copy_stats();
    auto data = pattern(sizes[i], 13);
    receiver(b, got).detach();
    sender(a, data).detach();
    c.engine().run();
    EXPECT_EQ(got, data);
    charged[i] = buf::copy_stats().bytes;
    EXPECT_GE(charged[i], sizes[i]);
    EXPECT_LT(charged[i], sizes[i] + 128);  // constant control overhead only
  }
  EXPECT_EQ(charged[0] - charged[1], sizes[0] - sizes[1]);
}

// --- quiesce audit -----------------------------------------------------------

TEST(BufAudit, LeakedSliceIsReportedAtQuiesce) {
  auto& pool = buf::Pool::instance();
  ASSERT_EQ(pool.outstanding(), 0u) << "earlier test leaked pool storage";
  chk::ScopedCapture cap;
  {
    buf::Slice held = pool.adopt(pattern(64));
    chk::Audit::instance().quiesce();
    EXPECT_TRUE(cap.caught("buf.pool"));
  }
  chk::Audit::instance().clear_violations();
  EXPECT_EQ(chk::Audit::instance().quiesce(), 0u);
  EXPECT_FALSE(cap.caught("buf.pool"));
}

// --- end-to-end payload integrity under chaos (property test) ---------------

struct Outcome {
  std::vector<std::vector<std::byte>> got;
  cluster::ClusterReport report;
  int delivered = 0;
};

/// Random-size, random-content payloads from rank 0 to rank (1,1) on a 4x4
/// torus: every frame is forwarded through an intermediate rank, a burst
/// corrupts the first-hop cable (FCS drop + go-back-N), and mid-run the
/// same cable flaps so traffic reroutes. Every payload must arrive intact.
chk::Fingerprint integrity_scenario(Outcome& out) {
  GigeMeshConfig cfg;
  cfg.shape = topo::Coord{4, 4};
  cfg.via.retx_timeout = 1_ms;
  GigeMeshCluster c(cfg);
  c.engine().enable_digest(true);

  const topo::Rank dst_rank = c.torus().rank(topo::Coord{1, 1});
  mp::Endpoint src(c.agent(0), mp::CoreParams{});
  mp::Endpoint dst(c.agent(dst_rank), mp::CoreParams{});

  flt::Schedule s;
  s.corrupt_burst(200_us, 1_ms, 0, kPlusX, 1.0);
  s.link_flap(4_ms, 0, kPlusX, 3_ms);
  flt::Injector inj(c, s);

  // Deterministic "random" sizes and contents spanning eager and rendezvous.
  sim::Rng rng(20260805);
  std::vector<std::vector<std::byte>> sent;
  for (int i = 0; i < 24; ++i) {
    const auto n = 1 + static_cast<std::size_t>(rng.below(30'000));
    sent.push_back(pattern(n, static_cast<std::uint8_t>(rng.below(256))));
  }

  out = Outcome{};
  auto receiver = [](mp::Endpoint& ep, Outcome& o, int count) -> Task<> {
    for (int i = 0; i < count; ++i) {
      mp::Message m = co_await ep.recv(0, 5);
      o.got.push_back(std::move(m.data));
      ++o.delivered;
    }
  };
  auto sender = [](mp::Endpoint& ep, int to,
                   const std::vector<std::vector<std::byte>>& msgs)
      -> Task<> {
    for (const auto& m : msgs) {
      EXPECT_EQ(co_await ep.send(to, 5, m), mp::SendStatus::kOk);
    }
  };
  receiver(dst, out, static_cast<int>(sent.size())).detach();
  sender(src, static_cast<int>(dst_rank), sent).detach();
  c.engine().run();

  EXPECT_EQ(out.delivered, static_cast<int>(sent.size()));
  EXPECT_EQ(out.got.size(), sent.size());
  for (std::size_t i = 0; i < out.got.size() && i < sent.size(); ++i) {
    EXPECT_EQ(out.got[i], sent[i]) << "payload " << i << " corrupted";
  }
  out.report = cluster::make_report(c);

  // Acceptance: nothing on the data path leaked pooled storage. The cluster
  // is still alive (rings, reassembly state all registered), so this audits
  // the steady state, not just destruction.
  chk::ScopedCapture cap;
  EXPECT_EQ(chk::Audit::instance().quiesce(), 0u);
  EXPECT_FALSE(cap.caught("buf.pool"));

  std::uint64_t h = chk::kFnvOffset;
  for (const auto& m : out.got) h = chk::fnv1a_bytes(h, m.data(), m.size());
  return {c.engine().executed(), c.engine().digest(), c.engine().now(), h};
}

TEST(BufIntegrity, RandomPayloadsSurviveForwardingCorruptionAndFlap) {
  Outcome out;
  auto r =
      chk::run_twice_and_compare([&out] { return integrity_scenario(out); });
  EXPECT_TRUE(r.identical) << r.divergence;
  // The chaos actually happened: frames were FCS-dropped and resent, and
  // the flap forced reroutes — yet every byte arrived intact.
  EXPECT_GT(out.report.checksum_drops, 0);
  EXPECT_GT(out.report.retransmits, 0);
  EXPECT_EQ(out.report.vi_failures, 0);
}

}  // namespace
