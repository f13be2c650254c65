// halo: the lattice-QCD step QMP serves, on the paper's 4x8x8 torus. Every
// iteration each of the 256 ranks starts and waits on six relative halo
// send/receive handles, calls sum_double, and every fourth iteration joins a
// broadcast from rank 0 — all through qmp::Machine. Per-message cost
// dominates: mp matching, tokens and rendezvous, coll trees, via kernel
// forwarding and engine coroutine dispatch. No lifecycle, no faults.
//
// Seeded inputs: which of six fixed face sizes (three below and three above
// the 16 KiB eager/rendezvous split) each direction carries, the face
// payloads, the values summed, the broadcast payload and its phase.

#include <algorithm>
#include <array>
#include <cstring>
#include <memory>

#include "harness.hpp"
#include "mp/endpoint.hpp"
#include "qmp/qmp.hpp"
#include "sim/task.hpp"

namespace meshbench {
namespace {

using sim::Task;

constexpr int kDirs = 6;
constexpr int kWarmTag = 1;
constexpr std::size_t kBcastBytes = 256;
constexpr int kBcastEvery = 4;

topo::Dir dir_of(int i) {
  return topo::Dir{static_cast<std::int8_t>(i / 2),
                   static_cast<std::int8_t>(i % 2 == 0 ? +1 : -1)};
}
int opposite(int i) { return i ^ 1; }

class Halo final : public Workload {
 public:
  explicit Halo(const Options& opt) : opt_(opt) {
    const bool small = opt.size == Size::kSmall;
    shape_ = small ? topo::Coord{4, 4, 4} : topo::Coord{4, 8, 8};
    iters_ = small ? 4 : 8;
    Rng rng(opt.seed ^ 0x48414c4fULL);
    std::vector<std::size_t> faces = {6144, 10240, 14336, 18432, 24576, 32768};
    rng.shuffle(faces);
    std::copy(faces.begin(), faces.end(), face_.begin());
    salt_ = rng.next();
    bcast_phase_ = static_cast<int>(rng.below(kBcastEvery));
    for (const std::size_t f : faces) digest_.add(f);
    digest_.add(salt_);
    digest_.add(static_cast<std::uint64_t>(bcast_phase_));
  }

  void setup(Recorder& rec) override {
    {
      Scoped s(rec, "cluster.build");
      cluster::GigeMeshConfig cfg;
      pin_sequential(cfg);
      cfg.shape = shape_;
      c_ = std::make_unique<cluster::GigeMeshCluster>(cfg);
      if (rec.on()) c_->engine().enable_digest(true);
    }
    const topo::Rank n = c_->size();
    {
      Scoped s(rec, "mp.build");
      ranks_.resize(static_cast<std::size_t>(n));
      for (topo::Rank r = 0; r < n; ++r) {
        Rank& k = ranks_[static_cast<std::size_t>(r)];
        k.ep = std::make_unique<mp::Endpoint>(c_->agent(r), mp::CoreParams{});
        k.m = std::make_unique<qmp::Machine>(*k.ep);
        for (int i = 0; i < kDirs; ++i) {
          const topo::Dir d = dir_of(i);
          // The receive from direction d carries what that neighbour sent
          // the opposite way.
          k.send_mem.push_back(std::make_unique<qmp::MsgMem>(face(i)));
          k.recv_mem.push_back(
              std::make_unique<qmp::MsgMem>(face(opposite(i))));
          k.send.push_back(
              k.m->declare_send_relative(*k.send_mem.back(), d.dim, d.sign));
          k.recv.push_back(
              k.m->declare_receive_relative(*k.recv_mem.back(), d.dim, d.sign));
          auto& buf = k.send_mem.back()->buf;
          const auto salt = salt_ + static_cast<std::uint64_t>(r * kDirs + i);
          for (std::size_t b = 0; b < buf.size(); ++b) {
            buf[b] = pattern_byte(salt, b);
          }
        }
      }
    }
    // Dial every channel the measured phase uses: the six neighbour
    // channels and the sum/broadcast trees.
    Scoped s(rec, "mp.warmup");
    for (topo::Rank r = 0; r < n; ++r) warm(r).detach();
    c_->run();
  }

  void run(Recorder& rec, Ops& ops) override {
    const topo::Rank n = c_->size();
    for (int it = 0; it < iters_; ++it) {
      for (Rank& k : ranks_) {
        for (auto& mem : k.send_mem) {
          const std::uint64_t st = static_cast<std::uint64_t>(it);
          std::memcpy(mem->buf.data(), &st, sizeof st);
        }
      }
      expected_sum_ = 0;
      for (topo::Rank r = 0; r < n; ++r) expected_sum_ += value(r, it);
      expected_bcast_ =
          pattern(kBcastBytes, salt_ ^ static_cast<std::uint64_t>(it));
      for (topo::Rank r = 0; r < n; ++r) iteration(r, it, rec, ops).detach();
      const double t0 = host_now();
      rec.run(c_->engine());
      rec.sample("qmp.iter_host_ms", (host_now() - t0) * 1e3);
    }
    // An iteration that never finished left its waits unresolved.
    ops.check(done_ == static_cast<std::int64_t>(n) * iters_,
              "halo iterations did not all complete");
  }

  void teardown(Recorder& rec, Ops& ops) override { audit(rec, ops); }

  cluster::GigeMeshCluster& cluster() override { return *c_; }
  [[nodiscard]] std::int64_t coll_ops() const override { return coll_ops_; }
  [[nodiscard]] std::uint64_t inputs_digest() const override {
    return digest_.value();
  }

 private:
  struct Rank {
    std::unique_ptr<mp::Endpoint> ep;
    std::unique_ptr<qmp::Machine> m;
    std::vector<std::unique_ptr<qmp::MsgMem>> send_mem;
    std::vector<std::unique_ptr<qmp::MsgMem>> recv_mem;
    std::vector<qmp::MsgHandle> send;
    std::vector<qmp::MsgHandle> recv;
  };

  std::size_t face(int i) const { return face_[static_cast<std::size_t>(i)]; }

  double value(topo::Rank r, int it) const {
    return static_cast<double>((static_cast<std::uint64_t>(r) * 7 +
                                static_cast<std::uint64_t>(it) * 3 + salt_) %
                               1024);
  }

  Task<> warm(topo::Rank r) {
    Rank& k = ranks_[static_cast<std::size_t>(r)];
    for (int i = 0; i < kDirs; ++i) {
      const topo::Dir d = dir_of(i);
      (void)co_await k.ep->send(k.m->neighbor_rank(d.dim, d.sign), kWarmTag,
                                std::vector<std::byte>(8));
    }
    for (int i = 0; i < kDirs; ++i) {
      const topo::Dir d = dir_of(i);
      (void)co_await k.ep->recv(k.m->neighbor_rank(d.dim, d.sign), kWarmTag);
    }
    (void)co_await k.m->sum_double(1.0);
    std::vector<std::byte> b(8);
    co_await k.m->broadcast(b, 0);
  }

  Task<> iteration(topo::Rank r, int it, Recorder& rec, Ops& ops) {
    Rank& k = ranks_[static_cast<std::size_t>(r)];
    sim::Engine& eng = c_->engine();
    const sim::Time t0 = eng.now();
    for (auto& h : k.recv) k.m->start(h);
    for (auto& h : k.send) k.m->start(h);
    for (int i = 0; i < kDirs; ++i) {
      const auto slot = static_cast<std::size_t>(i);
      const qmp::Status st = co_await k.m->wait(k.recv[slot]);
      // Expected bytes: the neighbour's face toward us, stamped with `it`.
      const topo::Dir d = dir_of(i);
      const Rank& nb =
          ranks_[static_cast<std::size_t>(k.m->neighbor_rank(d.dim, d.sign))];
      const auto& want =
          nb.send_mem[static_cast<std::size_t>(opposite(i))]->buf;
      const auto& got = k.recv_mem[slot]->buf;
      const bool ok = st == qmp::Status::kSuccess &&
                      got.size() == want.size() &&
                      std::memcmp(got.data(), want.data(), got.size()) == 0;
      ops.check(ok, "halo receive: wrong status or bytes");
    }
    for (auto& h : k.send) {
      const qmp::Status st = co_await k.m->wait(h);
      ops.check(st == qmp::Status::kSuccess, "halo send: wrong status");
    }
    rec.sample("qmp.halo_sim_us", sim::to_us(eng.now() - t0));

    const sim::Time t1 = eng.now();
    const double sum = co_await k.m->sum_double(value(r, it));
    ++coll_ops_;
    rec.sample("coll.sum_sim_us", sim::to_us(eng.now() - t1));
    double want = expected_sum_;
    if (opt_.oracle_fault && r == 0 && it == 0) want += 1;
    ops.check(sum == want, "sum_double: wrong global sum");

    if (it % kBcastEvery == bcast_phase_) {
      std::vector<std::byte> b =
          r == 0 ? expected_bcast_ : std::vector<std::byte>(kBcastBytes);
      co_await k.m->broadcast(b, 0);
      ++coll_ops_;
      ops.check(b == expected_bcast_, "broadcast: wrong bytes");
    }
    ++done_;
  }

  Options opt_;
  InputDigest digest_;
  topo::Coord shape_;
  int iters_ = 0;
  std::array<std::size_t, kDirs> face_{};
  std::uint64_t salt_ = 0;
  int bcast_phase_ = 0;
  std::unique_ptr<cluster::GigeMeshCluster> c_;
  std::vector<Rank> ranks_;
  double expected_sum_ = 0;
  std::vector<std::byte> expected_bcast_;
  std::int64_t coll_ops_ = 0;
  std::int64_t done_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_halo(const Options& opt) {
  return std::make_unique<Halo>(opt);
}

}  // namespace meshbench
