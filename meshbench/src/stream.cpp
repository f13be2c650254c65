// stream: the paper's Fig. 3 traffic. The centre node of a 3x3x3 torus
// streams both ways on all six links at once through raw M-VIA
// (via::Vi::send / recv_completion), at message sizes from 1 KiB to 1 MiB.
// Bytes dominate: NIC framing and interrupt coalescing, CRC, buf pool and
// slices, VIA fragmentation with go-back-N acks. mp, coll, cluster and topo
// stay idle.
//
// The sweep runs size by size, like the figure: all twelve directed streams
// send their messages of one size concurrently, the engine drains, then the
// next size starts.
//
// Seeded inputs: the payload bytes of every size. The message sequence is
// the figure's and does not depend on the seed, so neither does the work.

#include <cstring>
#include <memory>

#include "harness.hpp"
#include "sim/task.hpp"
#include "via/agent.hpp"

namespace meshbench {
namespace {

using sim::Task;

/// Each message carries its (stream, index) stamp in the first 8 bytes;
/// the rest is the seeded template of its size class.
std::uint64_t stamp(int stream, int index) {
  return (static_cast<std::uint64_t>(stream) << 32) |
         static_cast<std::uint32_t>(index);
}

class Stream final : public Workload {
 public:
  explicit Stream(const Options& opt) : opt_(opt) {
    Rng rng(opt.seed ^ 0x5354524541ULL);
    const bool small = opt.size == Size::kSmall;
    const std::int64_t max_size = small ? 65536 : 1048576;
    for (std::int64_t s = 1024; s <= max_size; s *= 2) {
      sizes_.push_back(s);
      counts_.push_back(small ? 3 : (s >= 262144 ? 6 : (s >= 32768 ? 16 : 40)));
      const std::uint64_t salt = rng.next();
      digest_.add(salt);
      templates_.push_back(pattern(static_cast<std::size_t>(s), salt));
    }
  }

  void setup(Recorder& rec) override {
    {
      Scoped s(rec, "cluster.build");
      cluster::GigeMeshConfig cfg;
      pin_sequential(cfg);
      cfg.shape = topo::Coord{3, 3, 3};
      c_ = std::make_unique<cluster::GigeMeshCluster>(cfg);
      if (rec.on()) c_->engine().enable_digest(true);
    }
    const topo::Torus& t = c_->torus();
    const topo::Rank centre = t.rank(topo::Coord{1, 1, 1});
    const auto dirs = t.directions(t.coord(centre));
    const int nlinks = static_cast<int>(dirs.size());
    // Stream 2i: centre -> neighbour i; stream 2i+1: neighbour i -> centre.
    streams_.resize(static_cast<std::size_t>(2 * nlinks));
    auto dial = [](via::KernelAgent& ag, net::NodeId peer, std::uint32_t svc,
                   via::Vi*& out) -> Task<> {
      out = co_await ag.connect(peer, svc);
    };
    auto answer = [](via::KernelAgent& ag, std::uint32_t svc,
                     via::Vi*& out) -> Task<> {
      out = co_await ag.accept(svc);
    };
    {
      Scoped s(rec, "via.connect");
      for (int i = 0; i < nlinks; ++i) {
        const topo::Rank nb =
            *t.neighbor(centre, dirs[static_cast<std::size_t>(i)]);
        for (int way = 0; way < 2; ++way) {
          Link& l = streams_[static_cast<std::size_t>(2 * i + way)];
          const topo::Rank src = way == 0 ? centre : nb;
          const topo::Rank dst = way == 0 ? nb : centre;
          const auto svc = static_cast<std::uint32_t>(100 + 2 * i + way);
          c_->agent(dst).listen(svc);
          answer(c_->agent(dst), svc, l.rx).detach();
          dial(c_->agent(src), dst, svc, l.tx).detach();
        }
      }
      c_->run();
    }
    int total = 0;
    for (const int n : counts_) total += n;
    for (Link& l : streams_) {
      for (int i = 0; i < total; ++i) l.rx->post_recv(sizes_.back() + 64);
    }
  }

  void run(Recorder& rec, Ops& ops) override {
    for (std::size_t cls = 0; cls < sizes_.size(); ++cls) {
      for (std::size_t k = 0; k < streams_.size(); ++k) {
        send_all(static_cast<int>(k), cls).detach();
        drain_all(static_cast<int>(k), cls, ops).detach();
      }
      rec.run(c_->engine());
      for (Link& l : streams_) {
        for (int i = l.received; i < counts_[cls]; ++i) {
          ops.check(false, "stream message never completed");
        }
        l.received = 0;
      }
    }
  }

  void teardown(Recorder& rec, Ops& ops) override { audit(rec, ops); }

  cluster::GigeMeshCluster& cluster() override { return *c_; }
  [[nodiscard]] std::uint64_t inputs_digest() const override {
    return digest_.value();
  }

 private:
  struct Link {
    via::Vi* tx = nullptr;
    via::Vi* rx = nullptr;
    int received = 0;  ///< messages of the current size class
  };

  Task<> send_all(int k, std::size_t cls) {
    Link& l = streams_[static_cast<std::size_t>(k)];
    for (int i = 0; i < counts_[cls]; ++i) {
      std::vector<std::byte> data(templates_[cls]);
      const std::uint64_t st = stamp(k, i);
      std::memcpy(data.data(), &st, sizeof st);
      co_await l.tx->send(std::move(data));
    }
  }

  Task<> drain_all(int k, std::size_t cls, Ops& ops) {
    Link& l = streams_[static_cast<std::size_t>(k)];
    const std::vector<std::byte>& tmpl = templates_[cls];
    for (int i = 0; i < counts_[cls]; ++i) {
      via::RecvCompletion rc = co_await l.rx->recv_completion();
      ++l.received;
      std::uint64_t want = stamp(k, i);
      if (opt_.oracle_fault && k == 0 && cls == 0 && i == 0) want ^= 1;
      std::uint64_t got = ~want;
      if (rc.data.size() >= sizeof got) {
        std::memcpy(&got, rc.data.data(), sizeof got);
      }
      const bool ok = rc.status == via::ViError::kNone &&
                      rc.data.size() == tmpl.size() && got == want &&
                      std::memcmp(rc.data.data() + 8, tmpl.data() + 8,
                                  tmpl.size() - 8) == 0;
      ops.check(ok, "stream message: wrong status, size, order or bytes");
    }
  }

  Options opt_;
  InputDigest digest_;
  std::vector<std::int64_t> sizes_;
  std::vector<int> counts_;  ///< messages per stream, by size class
  std::vector<std::vector<std::byte>> templates_;
  std::unique_ptr<cluster::GigeMeshCluster> c_;
  std::vector<Link> streams_;
};

}  // namespace

std::unique_ptr<Workload> make_stream(const Options& opt) {
  return std::make_unique<Stream>(opt);
}

}  // namespace meshbench
