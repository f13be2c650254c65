// Observability layer tests: counters (sorted flat map), log-bucketed
// histograms (percentile math), the metrics registry (group aggregation,
// retirement, interned histograms), the tracer's Perfetto trace_event export
// schema, ring-buffer semantics and span coverage, and the contract that
// tracing does not perturb the model (identical determinism fingerprints
// tracing on vs off).

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "chk/determinism.hpp"
#include "chk/digest.hpp"
#include "cluster/gige_mesh.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
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

// --- Counters --------------------------------------------------------------

TEST(ObsCounters, IncGetAndDefaultZero) {
  obs::Counters c;
  EXPECT_EQ(c.get("missing"), 0);
  c.inc("drops");
  c.inc("drops", 4);
  c.inc("retransmits", 2);
  EXPECT_EQ(c.get("drops"), 5);
  EXPECT_EQ(c.get("retransmits"), 2);
  EXPECT_EQ(c.get("dro"), 0);  // prefix is not a match
}

TEST(ObsCounters, ItemsAreSortedRegardlessOfInsertionOrder) {
  obs::Counters c;
  c.inc("zeta");
  c.inc("alpha");
  c.inc("mid");
  c.inc("alpha", 9);
  const auto& items = c.items();
  ASSERT_EQ(items.size(), 3u);
  EXPECT_EQ(items[0].first, "alpha");
  EXPECT_EQ(items[0].second, 10);
  EXPECT_EQ(items[1].first, "mid");
  EXPECT_EQ(items[2].first, "zeta");
}

// --- Histogram -------------------------------------------------------------

TEST(ObsHistogram, EmptyHistogramIsAllZero) {
  obs::Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.quantile(0.5), 0.0);
}

TEST(ObsHistogram, BasicMoments) {
  obs::Histogram h;
  h.add(0);
  h.add(1);
  h.add(1000);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 1001);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 1000);
  EXPECT_NEAR(h.mean(), 1001.0 / 3.0, 1e-9);
}

TEST(ObsHistogram, SingleValueQuantilesAreExact) {
  obs::Histogram h;
  h.add(777);
  // One sample: every quantile is that sample, clamped to [min, max].
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 777.0);
  EXPECT_DOUBLE_EQ(h.p50(), 777.0);
  EXPECT_DOUBLE_EQ(h.p99(), 777.0);
}

TEST(ObsHistogram, QuantilesAreMonotoneAndClamped) {
  obs::Histogram h;
  for (std::int64_t v = 1; v <= 1000; ++v) h.add(v);
  const double p50 = h.p50();
  const double p95 = h.p95();
  const double p99 = h.p99();
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_GE(p50, 1.0);
  EXPECT_LE(p99, 1000.0);
  // Log-bucketed: the p50 of uniform 1..1000 must land in the right
  // power-of-two bucket ([512, 1024) holds ranks 512..1000, so the median
  // rank 500 lives in [256, 512)).
  EXPECT_GE(p50, 256.0);
  EXPECT_LT(p50, 512.0);
}

TEST(ObsHistogram, WeightedAddAndMerge) {
  obs::Histogram a;
  a.add(8, 10);
  EXPECT_EQ(a.count(), 10u);
  EXPECT_EQ(a.sum(), 80);

  obs::Histogram b;
  b.add(1024, 2);
  a.merge(b);
  EXPECT_EQ(a.count(), 12u);
  EXPECT_EQ(a.sum(), 80 + 2048);
  EXPECT_EQ(a.min(), 8);
  EXPECT_EQ(a.max(), 1024);

  a.reset();
  EXPECT_EQ(a.count(), 0u);
  EXPECT_EQ(a.max(), 0);
}

TEST(ObsHistogram, ZerosLandInBucketZero) {
  obs::Histogram h;
  h.add(0, 5);
  h.add(1);
  EXPECT_EQ(h.buckets()[0], 5u);
  EXPECT_EQ(h.buckets()[1], 1u);
  // Quantiles stay within the observed range even with a zero pile.
  EXPECT_GE(h.quantile(0.99), 0.0);
  EXPECT_LE(h.quantile(0.99), 1.0);
}

// --- Registry --------------------------------------------------------------

TEST(ObsRegistry, SameGroupSourcesAreSummed) {
  auto& reg = obs::Registry::instance();
  obs::Counters a;
  obs::Counters b;
  a.inc("frames", 3);
  b.inc("frames", 4);
  b.inc("drops", 1);
  auto ra = reg.attach("testnic.sum", &a);
  auto rb = reg.attach("testnic.sum", &b);
  const obs::Snapshot snap = reg.snapshot_live();
  EXPECT_EQ(snap.counter("testnic.sum.frames"), 7);
  EXPECT_EQ(snap.counter("testnic.sum.drops"), 1);
  EXPECT_EQ(snap.counter("testnic.sum.absent"), 0);
}

TEST(ObsRegistry, DetachedSourcesRetireIntoFullSnapshotOnly) {
  auto& reg = obs::Registry::instance();
  reg.reset();  // drop retirements from earlier tests
  {
    obs::Counters c;
    c.inc("events", 11);
    auto r = reg.attach("testnic.retire", &c);
    EXPECT_EQ(reg.snapshot_live().counter("testnic.retire.events"), 11);
  }  // destroyed: folds into retired totals
  EXPECT_EQ(reg.snapshot_live().counter("testnic.retire.events"), 0);
  EXPECT_EQ(reg.snapshot().counter("testnic.retire.events"), 11);
  reg.reset();
  EXPECT_EQ(reg.snapshot().counter("testnic.retire.events"), 0);
}

TEST(ObsRegistry, SnapshotCountersAreSortedByName) {
  auto& reg = obs::Registry::instance();
  obs::Counters c;
  c.inc("zz", 1);
  c.inc("aa", 1);
  auto r = reg.attach("testnic.sorted", &c);
  const obs::Snapshot snap = reg.snapshot_live();
  for (std::size_t i = 1; i < snap.counters.size(); ++i) {
    EXPECT_LT(snap.counters[i - 1].first, snap.counters[i].first);
  }
}

TEST(ObsRegistry, HistogramsAreInternedByName) {
  auto& reg = obs::Registry::instance();
  obs::Histogram& h1 = reg.histogram("testnic.interned_ns");
  obs::Histogram& h2 = reg.histogram("testnic.interned_ns");
  EXPECT_EQ(&h1, &h2);
  h1.reset();
  h1.add(100);
  h2.add(300);
  const obs::Snapshot snap = reg.snapshot();
  const obs::HistogramSummary* s = snap.hist("testnic.interned_ns");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->count, 2u);
  EXPECT_EQ(s->sum, 400);
}

TEST(ObsRegistry, SnapshotJsonHasCountersAndHistograms) {
  auto& reg = obs::Registry::instance();
  obs::Counters c;
  c.inc("ticks", 42);
  auto r = reg.attach("testnic.json", &c);
  reg.histogram("testnic.json_hist").add(5);
  const std::string json = reg.snapshot().to_json();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"testnic.json.ticks\": 42"), std::string::npos);
  EXPECT_NE(json.find("\"testnic.json_hist\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

// --- Tracer ----------------------------------------------------------------

class ObsTrace : public ::testing::Test {
 protected:
  void SetUp() override { obs::Tracer::instance().enable(1 << 12); }
  void TearDown() override { obs::Tracer::instance().disable(); }
};

TEST_F(ObsTrace, CompleteInstantAndAsyncEventsAreRecorded) {
  auto& tr = obs::Tracer::instance();
  const std::int32_t trk = tr.track(0, "unit");
  tr.complete(1000, 500, obs::Cat::kNic, 0, trk, "dma", "bytes", 64.0);
  tr.instant(1200, obs::Cat::kVia, 1, "retransmit");
  tr.async_begin(100, obs::Cat::kMp, 0, "rndv", 0xabcdef);
  tr.async_end(1900, obs::Cat::kMp, 0, "rndv", 0xabcdef);
  const auto evs = tr.events();
  ASSERT_EQ(evs.size(), 4u);
  EXPECT_EQ(evs[0].phase, obs::TraceEvent::Phase::kComplete);
  EXPECT_EQ(evs[0].dur, 500);
  EXPECT_EQ(evs[1].node, 1);
  EXPECT_EQ(evs[2].id, 0xabcdefu);
  EXPECT_EQ(tr.dropped(), 0u);
}

TEST_F(ObsTrace, CategoryMaskFiltersAndSimIsOffByDefault) {
  auto& tr = obs::Tracer::instance();
  EXPECT_FALSE(tr.wants(obs::Cat::kSim));  // high-volume, off by default
  EXPECT_TRUE(tr.wants(obs::Cat::kNic));
  tr.instant(0, obs::Cat::kSim, 0, "dispatch");
  EXPECT_TRUE(tr.events().empty());
  tr.set_categories(obs::cat_bit(obs::Cat::kSim));
  EXPECT_TRUE(tr.wants(obs::Cat::kSim));
  EXPECT_FALSE(tr.wants(obs::Cat::kNic));
  tr.instant(0, obs::Cat::kSim, 0, "dispatch");
  EXPECT_EQ(tr.events().size(), 1u);
  tr.set_categories(obs::kDefaultCatMask);
}

TEST_F(ObsTrace, RingOverwritesOldestAndCountsDrops) {
  auto& tr = obs::Tracer::instance();
  tr.enable(4);
  for (int i = 0; i < 10; ++i) {
    tr.instant(i * 100, obs::Cat::kNic, 0, "tick");
  }
  const auto evs = tr.events();
  ASSERT_EQ(evs.size(), 4u);
  EXPECT_EQ(tr.dropped(), 6u);
  // Oldest-first unwrap: the survivors are the last four ticks in order.
  EXPECT_EQ(evs.front().ts, 600);
  EXPECT_EQ(evs.back().ts, 900);
}

TEST_F(ObsTrace, TrackInterningSurvivesReEnable) {
  auto& tr = obs::Tracer::instance();
  const std::int32_t t1 = tr.track(3, "persistent");
  tr.enable(64);  // clears events, must not recycle track ids
  const std::int32_t t2 = tr.track(3, "persistent");
  EXPECT_EQ(t1, t2);
  EXPECT_NE(tr.track(4, "persistent"), t1);  // same name, other node
}

// Golden schema test: a tiny hand-built two-node trace must export the
// Chrome trace_event structures Perfetto actually loads.
TEST_F(ObsTrace, PerfettoJsonSchemaForTwoNodeTrace) {
  auto& tr = obs::Tracer::instance();
  const std::int32_t trk0 = tr.track(0, "nic0.dma");
  const std::int32_t trk1 = tr.track(1, "vi1");
  tr.complete(1500, 2500, obs::Cat::kNic, 0, trk0, "dma", "wire_bytes", 1538);
  tr.complete(4000, 1000, obs::Cat::kVia, 1, trk1, "vi.recv_wait");
  tr.instant(5000, obs::Cat::kVia, 1, "retransmit", "window", 3);
  tr.async_begin(2000, obs::Cat::kMp, 0, "eager_send", 0x2a);
  tr.async_end(6000, obs::Cat::kMp, 0, "eager_send", 0x2a);
  const std::string json = tr.to_json();

  // Top-level object with a traceEvents array.
  EXPECT_EQ(json.rfind("{\"traceEvents\": [", 0), 0u);
  EXPECT_NE(json.find("], \"displayTimeUnit\": \"ns\"}"), std::string::npos);

  // Process metadata for both nodes, thread metadata for both tracks.
  EXPECT_NE(json.find("{\"name\": \"process_name\", \"ph\": \"M\", "
                      "\"pid\": 0, \"args\": {\"name\": \"node0\"}}"),
            std::string::npos);
  EXPECT_NE(json.find("{\"name\": \"process_name\", \"ph\": \"M\", "
                      "\"pid\": 1, \"args\": {\"name\": \"node1\"}}"),
            std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"args\": {\"name\": \"nic0.dma\"}"), std::string::npos);
  EXPECT_NE(json.find("\"args\": {\"name\": \"vi1\"}"), std::string::npos);

  // Complete span: µs timestamps with ns precision kept as fractions.
  EXPECT_NE(json.find("{\"name\": \"dma\", \"cat\": \"nic\", \"ph\": \"X\", "
                      "\"ts\": 1.500, \"pid\": 0, \"tid\": " +
                      std::to_string(trk0) +
                      ", \"dur\": 2.500, \"args\": {\"wire_bytes\": 1538}}"),
            std::string::npos);

  // Instant event with thread scope and args.
  EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
  EXPECT_NE(json.find("\"s\": \"t\""), std::string::npos);
  EXPECT_NE(json.find("\"args\": {\"window\": 3}"), std::string::npos);

  // Async pair: hex id, category scope, args object present.
  EXPECT_NE(json.find("\"ph\": \"b\", \"ts\": 2.000, \"pid\": 0, \"tid\": 0, "
                      "\"id\": \"2a\", \"scope\": \"mp\", \"args\": {}"),
            std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"e\""), std::string::npos);

  // Events are sorted by timestamp: the async begin (ts 2.0) precedes the
  // recv_wait span (ts 4.0).
  EXPECT_LT(json.find("\"ph\": \"b\""), json.find("vi.recv_wait"));
}

TEST_F(ObsTrace, SpanCoverageUnionsOverlapsAndClips) {
  std::vector<obs::TraceEvent> evs;
  auto span = [](sim::Time ts, sim::Duration dur, std::int32_t node) {
    obs::TraceEvent ev;
    ev.ts = ts;
    ev.dur = dur;
    ev.node = node;
    ev.phase = obs::TraceEvent::Phase::kComplete;
    return ev;
  };
  evs.push_back(span(0, 400, 0));
  evs.push_back(span(200, 400, 0));    // overlaps the first
  evs.push_back(span(900, 200, 0));    // clipped at t1 = 1000
  evs.push_back(span(100, 800, 1));    // other node, ignored
  EXPECT_DOUBLE_EQ(obs::span_coverage(evs, 0, 0, 1000), 0.7);
  EXPECT_DOUBLE_EQ(obs::span_coverage(evs, 1, 0, 1000), 0.8);
  EXPECT_DOUBLE_EQ(obs::span_coverage(evs, 2, 0, 1000), 0.0);
  EXPECT_DOUBLE_EQ(obs::span_coverage(evs, 0, 500, 500), 0.0);  // empty window
}

// --- tracing must not perturb the model ------------------------------------

std::vector<std::byte> pattern(std::size_t n) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>((i * 131) & 0xff);
  }
  return v;
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

Task<> pong_side(Vi& vi, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    auto c = co_await vi.recv_completion();
    co_await vi.send(std::move(c.data));
  }
}

Task<> ping_side(Vi& vi, int rounds, std::int64_t size, std::uint64_t& hash,
                 sim::Time& t0, sim::Time& t1, sim::Engine& eng) {
  t0 = eng.now();
  for (int i = 0; i < rounds; ++i) {
    co_await vi.send(pattern(static_cast<std::size_t>(size)));
    auto c = co_await vi.recv_completion();
    hash = chk::fnv1a_bytes(hash ? hash : chk::kFnvOffset, c.data.data(),
                            c.data.size());
  }
  t1 = eng.now();
}

struct PingPongRun {
  Fingerprint fp;
  sim::Time t0 = 0;
  sim::Time t1 = 0;
};

PingPongRun via_pingpong_run(int rounds, std::int64_t size) {
  GigeMeshConfig cfg;
  cfg.shape = topo::Coord{4};
  GigeMeshCluster c(cfg);
  c.engine().enable_digest(true);
  Conn conn;
  c.agent(1).listen(7);
  do_accept(c.agent(1), 7, conn).detach();
  do_connect(c.agent(0), 1, 7, conn).detach();
  c.engine().run();
  for (int i = 0; i < rounds + 2; ++i) {
    conn.a->post_recv(size + 64);
    conn.b->post_recv(size + 64);
  }
  PingPongRun run;
  std::uint64_t hash = 0;
  pong_side(*conn.b, rounds).detach();
  ping_side(*conn.a, rounds, size, hash, run.t0, run.t1, c.engine()).detach();
  c.engine().run();
  run.fp = {c.engine().executed(), c.engine().digest(), c.engine().now(), hash};
  return run;
}

TEST(ObsDeterminism, TracingOnAndOffProduceIdenticalFingerprints) {
  obs::Tracer::instance().disable();
  const PingPongRun off = via_pingpong_run(6, 4096);
  obs::Tracer::instance().enable();
  const PingPongRun on = via_pingpong_run(6, 4096);
  obs::Tracer::instance().disable();
  EXPECT_FALSE(obs::Tracer::instance().events().empty());
  EXPECT_EQ(off.fp, on.fp) << "tracing perturbed the model:\n  off: "
                           << chk::describe(off.fp)
                           << "\n  on:  " << chk::describe(on.fp);
  EXPECT_EQ(off.t0, on.t0);
  EXPECT_EQ(off.t1, on.t1);
  EXPECT_GT(off.fp.executed, 0u);
  EXPECT_NE(off.fp.result_hash, 0u);
}

// Acceptance criterion for "the trace explains the run": on the measured
// node of a VIA ping-pong, the union of spans (sends, NIC pipeline, blocked
// recv waits) covers at least 95% of the measured interval.
TEST(ObsDeterminism, PingPongSpansCoverMeasuredInterval) {
  obs::Tracer::instance().enable();
  const PingPongRun run = via_pingpong_run(10, 16384);
  const auto evs = obs::Tracer::instance().events();
  obs::Tracer::instance().disable();
  ASSERT_GT(run.t1, run.t0);
  const double cov = obs::span_coverage(evs, 0, run.t0, run.t1);
  EXPECT_GE(cov, 0.95) << "trace spans cover only " << cov * 100
                       << "% of the measured interval on node 0";
}

}  // namespace
