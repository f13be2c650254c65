// churn: ClusterLifecycle on a 4x4x8 torus (the paper's 4x8x8 with --size
// campaign) with two seeded nodes crashing and cold-starting every cycle,
// and two seeded cables degrading and recovering every cycle, while paced mp
// pairs stream across the machine. It exercises the same cluster and topo layers as partition but
// differently: the failure inputs recur, so memoized route tables are
// reused, and in the long quiet stretches heartbeat and phi-detector traffic
// dominate. A change that speeds up partition by altering memoization or
// recompute must show no loss here.
//
// Seeded inputs: the two victims, the two degrading cables, the paced pairs,
// and every payload.

#include <deque>
#include <map>
#include <memory>

#include "flt/fault.hpp"
#include "harness.hpp"
#include "mp/endpoint.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace meshbench {
namespace {

using namespace meshmp::sim::literals;
using cluster::Liveness;
using sim::Task;

constexpr int kTagPaced = 5;
constexpr int kTagProbe = 7;
constexpr int kTagWarm = 10;
constexpr std::size_t kPacedBytes = 512;
constexpr sim::Time kWarmup = 1500_us;  ///< set-up runs the engine to here
constexpr sim::Time kFirstCycle = 2_ms;
constexpr sim::Duration kPeriod = 16_ms;
constexpr sim::Duration kRestart = 6_ms;  ///< crash -> cold start
/// Quiet stretch after the last cycle: paced traffic stops at the last
/// restart, and go-back-N backoff gets this long to deliver what a crash
/// delayed.
constexpr sim::Duration kTail = 8_ms;
constexpr sim::Duration kPace = 100_us;

struct Pair {
  topo::Rank a = 0;
  topo::Rank b = 0;
  int delivered = 0;
};

struct Cell {
  bool done = false;
  mp::SendStatus status = mp::SendStatus::kOk;
};

class Churn final : public Workload {
 public:
  explicit Churn(const Options& opt) : opt_(opt) {
    const bool small = opt.size == Size::kSmall;
    shape_ = small                            ? topo::Coord{4, 4, 4}
             : opt.size == Size::kCampaign ? topo::Coord{4, 8, 8}
                                              : topo::Coord{4, 4, 8};
    cycles_ = small ? 2 : 3;
    const int npairs = small ? 2 : 4;
    end_ = kFirstCycle + cycles_ * kPeriod + kTail;
    const sim::Time last_restart =
        kFirstCycle + (cycles_ - 1) * kPeriod + 1500_us + kRestart;
    msgs_ = static_cast<int>((last_restart - kWarmup) / kPace);
    const topo::Torus t(shape_);
    Rng rng(opt.seed ^ 0x434855524eULL);
    auto pick = [&] {
      return static_cast<topo::Rank>(
          rng.below(static_cast<std::uint64_t>(t.size())));
    };
    victim_[0] = pick();
    do {
      victim_[1] = pick();
    } while (t.distance(victim_[0], victim_[1]) < 3);
    auto is_victim = [&](topo::Rank r) {
      return r == victim_[0] || r == victim_[1];
    };
    // The probe node is the first victim's -x neighbour (never the other
    // victim: they are at least three hops apart).
    prober_ = *t.neighbor(victim_[0], topo::Dir{0, -1});
    // Degrading cables: neither end a victim or adjacent to one.
    auto near_victim = [&](topo::Rank r) {
      return t.distance(r, victim_[0]) <= 1 || t.distance(r, victim_[1]) <= 1;
    };
    const auto dirs = t.directions(t.coord(0));
    for (auto& cable : cables_) {
      for (;;) {
        const topo::Rank r = pick();
        const topo::Dir d = dirs[rng.below(dirs.size())];
        const topo::Rank peer = *t.neighbor(r, d);
        if (near_victim(r) || near_victim(peer)) continue;
        cable = {r, d};
        break;
      }
    }
    for (int i = 0; i < npairs; ++i) {
      Pair p;
      do {
        p.a = pick();
        p.b = pick();
      } while (is_victim(p.a) || is_victim(p.b) || t.distance(p.a, p.b) < 3);
      pairs_.push_back(p);
    }
    salt_ = rng.next();
    digest_.add(static_cast<std::uint64_t>(victim_[0]));
    digest_.add(static_cast<std::uint64_t>(victim_[1]));
    for (const auto& [r, d] : cables_) {
      digest_.add(static_cast<std::uint64_t>(r) * 16 +
                  static_cast<std::uint64_t>(d.index()));
    }
    for (const Pair& p : pairs_) {
      digest_.add(static_cast<std::uint64_t>(p.a) << 16 |
                  static_cast<std::uint64_t>(p.b));
    }
    digest_.add(salt_);
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
    {
      Scoped s(rec, "mp.build");
      for (const Pair& p : pairs_) {
        ep(p.a);
        ep(p.b);
      }
      ep(prober_);
      ep(victim_[0]);
    }
    {
      Scoped s(rec, "cluster.lifecycle.start");
      life_ = std::make_unique<cluster::ClusterLifecycle>(*c_);
      if (rec.on()) {
        for (topo::Rank r = 0; r < c_->size(); ++r) {
          life_->subscribe(r, [this](topo::Rank, Liveness) { ++transitions_; });
        }
      }
      life_->start();
    }
    {
      Scoped s(rec, "flt.arm");
      flt::Schedule sch;
      for (int c = 0; c < cycles_; ++c) {
        const sim::Time base = kFirstCycle + c * kPeriod;
        sch.crash_restart(base + 1_ms, victim_[0], kRestart)
            .crash_restart(base + 1500_us, victim_[1], kRestart)
            .link_degrade(base + 500_us, 5_ms, cables_[0].first,
                          cables_[0].second, 300_us, 0.5)
            .link_degrade(base + 8_ms, 5_ms, cables_[1].first,
                          cables_[1].second, 300_us, 0.5);
      }
      inj_ = std::make_unique<flt::Injector>(*c_, std::move(sch));
    }
    Scoped s(rec, "mp.warmup");
    warm_recv(ep(victim_[0]), prober_, kTagProbe).detach();
    warm_send(ep(prober_), victim_[0], kTagProbe).detach();
    for (const Pair& p : pairs_) {
      warm_recv(ep(p.b), p.a, kTagWarm).detach();
      warm_send(ep(p.a), p.b, kTagWarm).detach();
    }
    c_->engine().run_until(kWarmup);
  }

  void run(Recorder& rec, Ops& ops) override {
    sim::Engine& eng = c_->engine();
    ops.check(warmed_ == 2 * static_cast<int>(pairs_.size() + 1),
              "warm-up message");
    for (Pair& p : pairs_) {
      paced_sender(p).detach();
      paced_receiver(p, ops).detach();
    }
    for (int c = 0; c < cycles_; ++c) {
      const sim::Time base = kFirstCycle + c * kPeriod;
      // Mid-window: the first cable is degraded and both victims are down.
      rec.run_until(eng, base + 5_ms);
      rec.observe_failures(*life_, *c_);
      // Detection: crash + phi dead threshold + detector tick + flood.
      rec.run_until(eng, base + 6500_us);
      rec.observe_failures(*life_, *c_);
      for (const topo::Rank v : victim_) {
        ops.check(life_->survivors_agree(v, Liveness::kDead),
                  "survivors did not converge on a death");
      }
      Cell& probe = cells_.emplace_back();
      probe_send(probe).detach();
      // Restart at +7 / +7.5 ms; the rejoin flood heals every view.
      rec.run_until(eng, base + 15500_us);
      const mp::SendStatus want = opt_.oracle_fault && c == 0
                                      ? mp::SendStatus::kOk
                                      : mp::SendStatus::kUnreachable;
      ops.check(probe.done && probe.status == want,
                "send to a dead rank did not error-complete");
      ops.check(life_->all_alive(), "rejoin did not converge");
    }
    rec.run_until(eng, end_);
    for (const Pair& p : pairs_) {
      for (int i = p.delivered; i < msgs_; ++i) {
        ops.check(false, "paced message never delivered");
      }
    }
  }

  void drain() override { stop_and_drain(*life_, c_->engine()); }
  void teardown(Recorder& rec, Ops& ops) override {
    drain();
    audit(rec, ops);
  }

  cluster::GigeMeshCluster& cluster() override { return *c_; }
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
  mp::Endpoint& ep(topo::Rank r) {
    auto it = eps_.find(r);
    if (it == eps_.end()) {
      it = eps_.emplace(r, std::make_unique<mp::Endpoint>(c_->agent(r),
                                                          mp::CoreParams{}))
               .first;
    }
    return *it->second;
  }
  std::vector<std::byte> payload(std::uint64_t k) const {
    return pattern(kPacedBytes, salt_ + k);
  }

  Task<> warm_send(mp::Endpoint& e, topo::Rank dst, int tag) {
    const mp::SendStatus st = co_await e.send(dst, tag, payload(0));
    if (st == mp::SendStatus::kOk) ++warmed_;
  }
  Task<> warm_recv(mp::Endpoint& e, topo::Rank src, int tag) {
    const mp::Message m = co_await e.recv(src, tag);
    if (m.ok && m.data == payload(0)) ++warmed_;
  }
  Task<> probe_send(Cell& out) {
    out.status = co_await ep(prober_).send(victim_[0], kTagProbe, payload(1));
    out.done = true;
  }

  Task<> paced_sender(Pair& p) {
    for (int i = 0; i < msgs_; ++i) {
      (void)co_await ep(p.a).send(p.b, kTagPaced,
                                  payload(100 + static_cast<std::uint64_t>(i)));
      co_await sim::delay(c_->engine(), kPace);
    }
  }
  Task<> paced_receiver(Pair& p, Ops& ops) {
    for (int i = 0; i < msgs_; ++i) {
      mp::Message m = co_await ep(p.b).recv(p.a, kTagPaced);
      if (!m.ok) co_return;
      ++p.delivered;
      ops.check(m.data == payload(100 + static_cast<std::uint64_t>(i)),
                "paced message bytes");
    }
  }

  Options opt_;
  InputDigest digest_;
  topo::Coord shape_;
  int cycles_ = 0;
  sim::Time end_ = 0;
  int msgs_ = 0;
  std::array<topo::Rank, 2> victim_{};
  topo::Rank prober_ = 0;
  std::array<std::pair<topo::Rank, topo::Dir>, 2> cables_{};
  std::vector<Pair> pairs_;
  std::uint64_t salt_ = 0;
  std::unique_ptr<cluster::GigeMeshCluster> c_;
  std::map<topo::Rank, std::unique_ptr<mp::Endpoint>> eps_;
  std::unique_ptr<cluster::ClusterLifecycle> life_;
  std::unique_ptr<flt::Injector> inj_;
  std::deque<Cell> cells_;
  int warmed_ = 0;
  std::int64_t transitions_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_churn(const Options& opt) {
  return std::make_unique<Churn>(opt);
}

}  // namespace meshbench
