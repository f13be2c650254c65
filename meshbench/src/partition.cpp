// partition: a half/half plane-cut partition and heal under ClusterLifecycle
// on a 4x4x6 torus (48/48; with --size campaign the paper's 4x8x8, 128/128 —
// either way the exact tie the lowest-surviving-rank rule breaks), shaped
// like the acceptance campaign
// FltPartition.SplitBrainHealReconcileByteIdentical: paced traffic inside
// the primary side, fail-fast probes from both sides, a quorum allreduce on
// the primary side, and a barrier across the whole machine after the heal.
// The death flood makes every node walk through one dead set per minority
// node, so the membership flood and route-table recompute dominate; the
// data path is nearly idle.
//
// Seeded inputs: where the cut falls (which two x-planes stay primary), the
// paced pair, the boundary / minority probe nodes, and every payload.

#include <array>
#include <deque>
#include <memory>

#include "coll/reduce_op.hpp"
#include "coll/tree.hpp"
#include "flt/fault.hpp"
#include "harness.hpp"
#include "mp/endpoint.hpp"
#include "mpi/datatypes.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace meshbench {
namespace {

using namespace meshmp::sim::literals;
using cluster::Liveness;
using cluster::QuorumSide;
using sim::Task;

constexpr int kTagPaced = 5;
constexpr int kTagCross = 7;
constexpr int kTagIntra = 8;
constexpr int kTagFresh = 9;
constexpr int kTagWarm = 10;
constexpr int kCollAllreduce = (1 << 23) | 44;
constexpr int kCollMinority = (1 << 23) | 40;
constexpr int kCollWorld = (1 << 23) | 48;
constexpr std::size_t kPacedBytes = 512;
constexpr std::size_t kProbeBytes = 64;

struct Cell {
  bool done = false;
  mp::SendStatus status = mp::SendStatus::kOk;
  std::vector<std::byte> data;
};

Task<> one_send(mp::Endpoint& ep, int dst, int tag, std::vector<std::byte> d,
                Cell& out) {
  out.status = co_await ep.send(dst, tag, std::move(d));
  out.done = true;
}

Task<> one_recv(mp::Endpoint& ep, int src, int tag, Cell& out) {
  mp::Message m = co_await ep.recv(src, tag);
  out.status = m.ok ? mp::SendStatus::kOk : mp::SendStatus::kUnreachable;
  out.data = std::move(m.data);
  out.done = true;
}

// `dead` by value: copied into the frame before the caller's temporary dies.
Task<> allreduce_node(mp::Endpoint& ep, double v, std::vector<bool> dead,
                      Cell& out) {
  out.data = mpi::to_bytes(v);
  out.status = co_await coll::allreduce_quorum(ep, out.data,
                                               coll::sum_op<double>(),
                                               kCollAllreduce, dead);
  out.done = true;
}

Task<> barrier_node(mp::Endpoint& ep, int tag, std::vector<bool> dead,
                    Cell& out) {
  out.status = co_await coll::barrier_quorum(ep, tag, std::move(dead));
  out.done = true;
}

class Partition final : public Workload {
 public:
  explicit Partition(const Options& opt) : opt_(opt) {
    const bool small = opt.size == Size::kSmall;
    shape_ = small                            ? topo::Coord{4, 4, 4}
             : opt.size == Size::kCampaign ? topo::Coord{4, 8, 8}
                                              : topo::Coord{4, 4, 6};
    paced_msgs_ = small ? 40 : 120;
    Rng rng(opt.seed ^ 0x50415254ULL);
    // Primary side: x in {p0, p0+1} (mod 4), always holding rank 0 so the
    // tie breaks its way; the seed picks which of the two layouts.
    p0_ = rng.below(2) == 0 ? 0 : 3;
    const int ny = shape_[1];
    const int nz = shape_[2];
    auto at = [&](int x, int y, int z) {
      return static_cast<topo::Rank>(((x % 4) + 4) % 4 + 4 * y + 4 * ny * z);
    };
    const int p1 = (p0_ + 1) % 4;
    // Paced pair: same x on the primary side, so every minimal route stays
    // inside that x-plane and never crosses the cut.
    const int px = rng.below(2) == 0 ? p0_ : p1;
    const int ay = static_cast<int>(rng.below(static_cast<std::uint64_t>(ny)));
    const int az = static_cast<int>(rng.below(static_cast<std::uint64_t>(nz)));
    paced_a_ = at(px, ay, az);
    const int bz_off =
        1 + static_cast<int>(rng.below(static_cast<std::uint64_t>(nz - 1)));
    paced_b_ = at(px, (ay + ny / 2) % ny, (az + bz_off) % nz);
    // Boundary node on the primary side, its minority neighbour across the
    // cut, that node's minority neighbour, and a far minority node.
    const int by = static_cast<int>(rng.below(static_cast<std::uint64_t>(ny)));
    const int bz = static_cast<int>(rng.below(static_cast<std::uint64_t>(nz)));
    boundary_ = at(p1, by, bz);
    min_a_ = at(p1 + 1, by, bz);
    min_b_ = at(p1 + 2, by, bz);
    min_far_ = at(p1 + 1, by, (bz + 1) % nz);
    salt_ = rng.next();
    for (const std::uint64_t v :
         {static_cast<std::uint64_t>(p0_), static_cast<std::uint64_t>(paced_a_),
          static_cast<std::uint64_t>(paced_b_),
          static_cast<std::uint64_t>(boundary_), salt_}) {
      digest_.add(v);
    }
  }

  void setup(Recorder& rec) override {
    {
      Scoped s(rec, "cluster.build");
      cluster::GigeMeshConfig cfg;
      pin_sequential(cfg);
      cfg.shape = shape_;
      cfg.via.retx_timeout = 1_ms;
      c_ = std::make_unique<cluster::GigeMeshCluster>(cfg);
      if (rec.on()) c_->engine().enable_digest(true);
    }
    const topo::Torus& t = c_->torus();
    const topo::Rank n = c_->size();
    {
      Scoped s(rec, "mp.build");
      for (topo::Rank r = 0; r < n; ++r) {
        eps_.push_back(
            std::make_unique<mp::Endpoint>(c_->agent(r), mp::CoreParams{}));
      }
    }
    {
      Scoped s(rec, "cluster.lifecycle.start");
      life_ = std::make_unique<cluster::ClusterLifecycle>(*c_);
      if (rec.on()) {
        for (topo::Rank r = 0; r < n; ++r) {
          life_->subscribe(r, [this](topo::Rank, Liveness) { ++transitions_; });
        }
      }
      life_->start();
    }
    {
      Scoped s(rec, "flt.arm");
      // The two cut planes: between x=p0+1 and x=p0+2, and between x=p0+3
      // and x=p0 (each cable named once, from its lower-x end).
      const topo::Dir plus_x{0, +1};
      std::vector<std::pair<topo::Rank, topo::Dir>> cut;
      for (topo::Rank r = 0; r < n; ++r) {
        const int x = t.coord(r)[0];
        if (x == (p0_ + 1) % 4 || x == (p0_ + 3) % 4) {
          cut.emplace_back(r, plus_x);
        }
      }
      flt::Schedule s2;
      s2.partition_links(2_ms, std::move(cut)).heal(12_ms);
      inj_ = std::make_unique<flt::Injector>(*c_, std::move(s2));
    }
    Scoped s(rec, "mp.warmup");
    // Dial the paced pair, the cross-cut channel and the intra-minority
    // channel before the partition.
    exchange(paced_a_, paced_b_, kTagWarm, 1, warm_[1], warm_[0]);
    exchange(boundary_, min_a_, kTagCross, 2, warm_[3], warm_[2]);
    exchange(min_a_, min_b_, kTagIntra, 3, warm_[5], warm_[4]);
    c_->engine().run_until(500_us);
  }

  void run(Recorder& rec, Ops& ops) override {
    const topo::Rank n = c_->size();
    sim::Engine& eng = c_->engine();
    for (const Cell& w : warm_) {
      ops.check(w.done && w.status == mp::SendStatus::kOk, "warm-up message");
    }
    paced_sender().detach();
    paced_receiver(ops).detach();

    // Detection: cut at 2 ms + phi dead threshold + detector tick + flood.
    rec.run_until(eng, 8_ms);
    rec.observe_failures(*life_, *c_);
    for (topo::Rank r = 0; r < n; ++r) {
      const bool ok = life_->view(r).count(Liveness::kDead) == n / 2 &&
                      life_->side(r) == (minority(r) ? QuorumSide::kMinority
                                                     : QuorumSide::kPrimary);
      ops.check(ok, "partition view did not converge on its side");
    }

    Cell& cross = cell();
    Cell& fresh = cell();
    Cell& intra_tx = cell();
    Cell& intra_rx = cell();
    Cell& min_coll = cell();
    one_send(ep(boundary_), min_a_, kTagCross, payload(4), cross).detach();
    one_send(ep(min_a_), min_far_, kTagFresh, payload(5), fresh).detach();
    exchange(min_a_, min_b_, kTagIntra, 6, intra_tx, intra_rx);
    barrier_node(ep(min_a_), kCollMinority, life_->view(min_a_).dead_set(),
                 min_coll)
        .detach();
    std::vector<Cell*> prim(static_cast<std::size_t>(n), nullptr);
    double expected_sum = 0;
    for (topo::Rank r = 0; r < n; ++r) {
      if (minority(r)) continue;
      const double v = value(r);
      expected_sum += v;
      prim[static_cast<std::size_t>(r)] = &cell();
      allreduce_node(ep(r), v, life_->view(r).dead_set(),
                     *prim[static_cast<std::size_t>(r)])
          .detach();
      ++coll_ops_;
    }
    ++coll_ops_;
    rec.run_until(eng, 11_ms);
    rec.observe_failures(*life_, *c_);
    const mp::SendStatus cross_want = opt_.oracle_fault
                                          ? mp::SendStatus::kOk
                                          : mp::SendStatus::kUnreachable;
    ops.check(cross.done && cross.status == cross_want,
              "cross-cut probe on an established channel");
    ops.check(fresh.done && fresh.status == mp::SendStatus::kMinorityPartition,
              "fresh dial from the minority side");
    ops.check(intra_tx.done && intra_tx.status == mp::SendStatus::kOk &&
                  intra_rx.done && intra_rx.data == payload(6),
              "intra-minority established channel");
    ops.check(min_coll.done &&
                  min_coll.status == mp::SendStatus::kMinorityPartition,
              "minority-side collective");
    for (topo::Rank r = 0; r < n; ++r) {
      if (minority(r)) continue;
      const Cell& c = *prim[static_cast<std::size_t>(r)];
      ops.check(c.done && c.status == mp::SendStatus::kOk &&
                    mpi::scalar_from_bytes<double>(c.data) == expected_sum,
                "primary-side quorum allreduce");
    }

    // Heal at 12 ms; by 25 ms every view is all-alive again.
    rec.run_until(eng, 25_ms);
    ops.check(life_->all_alive(), "heal reconciliation did not converge");
    for (topo::Rank r = 0; r < n; ++r) {
      ops.check(life_->side(r) == QuorumSide::kPrimary, "side after heal");
    }

    // Channels that lived through the partition surface their failure once
    // more; the application resets them and traffic flows again.
    Cell& stale_cross = cell();
    Cell& stale_intra = cell();
    one_send(ep(boundary_), min_a_, kTagCross, payload(7), stale_cross)
        .detach();
    one_send(ep(min_a_), min_b_, kTagIntra, payload(8), stale_intra).detach();
    rec.run_until(eng, 26_ms);
    ops.check(stale_cross.done &&
                  stale_cross.status == mp::SendStatus::kUnreachable,
              "stale cross-cut channel after heal");
    ops.check(stale_intra.done &&
                  stale_intra.status == mp::SendStatus::kUnreachable,
              "flushed intra-minority channel after heal");
    ep(boundary_).reset_peer(min_a_);
    ep(min_a_).reset_peer(min_b_);
    std::array<Cell*, 6> retry{};
    for (Cell*& c : retry) c = &cell();
    exchange(boundary_, min_a_, kTagCross, 9, *retry[1], *retry[0]);
    exchange(min_a_, min_b_, kTagIntra, 10, *retry[3], *retry[2]);
    exchange(min_a_, min_far_, kTagFresh, 11, *retry[5], *retry[4]);
    rec.run_until(eng, 28_ms);
    const std::uint64_t want_rx[3] = {9, 10, 11};
    for (std::size_t i = 0; i < 3; ++i) {
      const Cell& tx = *retry[2 * i + 1];
      const Cell& rx = *retry[2 * i];
      ops.check(tx.done && tx.status == mp::SendStatus::kOk && rx.done &&
                    rx.data == payload(want_rx[i]),
                "post-heal retry");
    }

    // Machine-wide collective across every rank proves full recovery.
    std::vector<Cell*> world(static_cast<std::size_t>(n), nullptr);
    for (topo::Rank r = 0; r < n; ++r) {
      world[static_cast<std::size_t>(r)] = &cell();
      barrier_node(ep(r), kCollWorld, life_->view(r).dead_set(),
                   *world[static_cast<std::size_t>(r)])
          .detach();
      ++coll_ops_;
    }
    rec.run_until(eng, 32_ms);
    for (const Cell* c : world) {
      ops.check(c->done && c->status == mp::SendStatus::kOk,
                "post-heal machine-wide barrier");
    }
    for (int i = paced_delivered_; i < paced_msgs_; ++i) {
      ops.check(false, "paced message never delivered");
    }
  }

  void drain() override { stop_and_drain(*life_, c_->engine()); }
  void teardown(Recorder& rec, Ops& ops) override {
    drain();
    audit(rec, ops);
  }

  cluster::GigeMeshCluster& cluster() override { return *c_; }
  [[nodiscard]] std::int64_t coll_ops() const override { return coll_ops_; }
  [[nodiscard]] std::int64_t transitions() const override {
    return transitions_;
  }
  [[nodiscard]] std::int64_t faults_fired() const override {
    std::int64_t n = 0;
    for (const auto& [k, v] : inj_->counters().items()) n += v;
    return n;
  }
  [[nodiscard]] std::uint64_t inputs_digest() const override {
    return digest_.value();
  }

 private:
  mp::Endpoint& ep(topo::Rank r) { return *eps_[static_cast<std::size_t>(r)]; }
  /// Outcome slots live as long as the workload: a coroutine that never
  /// completed may still be woken by the teardown drain.
  Cell& cell() { return cells_.emplace_back(); }
  bool minority(topo::Rank r) const {
    const int x = c_->torus().coord(r)[0];
    return x != p0_ && x != (p0_ + 1) % 4;
  }
  std::vector<std::byte> payload(std::uint64_t k,
                                 std::size_t n = kProbeBytes) const {
    return pattern(n, salt_ + k);
  }
  /// One message `from` -> `to`, its send and receive outcomes in tx / rx.
  void exchange(topo::Rank from, topo::Rank to, int tag, std::uint64_t k,
                Cell& tx, Cell& rx) {
    one_recv(ep(to), from, tag, rx).detach();
    one_send(ep(from), to, tag, payload(k), tx).detach();
  }
  std::vector<std::byte> paced(int i) const {
    return payload(100 + static_cast<std::uint64_t>(i), kPacedBytes);
  }
  double value(topo::Rank r) const {
    return static_cast<double>((static_cast<std::uint64_t>(r) + salt_) % 1000);
  }

  Task<> paced_sender() {
    for (int i = 0; i < paced_msgs_; ++i) {
      (void)co_await ep(paced_a_).send(paced_b_, kTagPaced, paced(i));
      co_await sim::delay(c_->engine(), 100_us);
    }
  }

  Task<> paced_receiver(Ops& ops) {
    for (int i = 0; i < paced_msgs_; ++i) {
      mp::Message m = co_await ep(paced_b_).recv(paced_a_, kTagPaced);
      if (!m.ok) co_return;
      ++paced_delivered_;
      ops.check(m.data == paced(i), "paced message bytes");
    }
  }

  Options opt_;
  InputDigest digest_;
  topo::Coord shape_;
  int paced_msgs_ = 0;
  int p0_ = 0;
  topo::Rank paced_a_ = 0, paced_b_ = 0;
  topo::Rank boundary_ = 0, min_a_ = 0, min_b_ = 0, min_far_ = 0;
  std::uint64_t salt_ = 0;
  std::unique_ptr<cluster::GigeMeshCluster> c_;
  std::vector<std::unique_ptr<mp::Endpoint>> eps_;
  std::unique_ptr<cluster::ClusterLifecycle> life_;
  std::unique_ptr<flt::Injector> inj_;
  std::array<Cell, 6> warm_;
  std::deque<Cell> cells_;
  int paced_delivered_ = 0;
  std::int64_t coll_ops_ = 0;
  std::int64_t transitions_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_partition(const Options& opt) {
  return std::make_unique<Partition>(opt);
}

}  // namespace meshbench
