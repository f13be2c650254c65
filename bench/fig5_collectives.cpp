// Figure 5 reproduction: broadcast and global-sum timing on the 4x8x8
// (256-node) torus for growing message sizes.
//
// Paper headlines: small-message broadcast ~200 us over 10 communication
// steps (xdim/2 + ydim/2 + zdim/2 = 2+4+4, ~20 us per step, in line with the
// 18.5 us point-to-point latency); global sum roughly twice the broadcast
// (reduce to a node + broadcast back); both growing linearly with size.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "common.hpp"
#include "coll/reduce_op.hpp"
#include "coll/tree.hpp"

namespace {

using namespace benchutil;

struct CollWorld {
  cluster::GigeMeshCluster cluster;
  std::vector<std::unique_ptr<mp::Endpoint>> eps;
  sim::Time t_start = 0;
  // Per-rank finish times (max taken after the run).
  std::vector<sim::Time> finish;

  explicit CollWorld(topo::Coord shape)
      : cluster([&] {
          cluster::GigeMeshConfig cfg;
          cfg.shape = shape;
          return cfg;
        }()),
        finish(static_cast<std::size_t>(cluster.size()), 0) {
    for (topo::Rank r = 0; r < cluster.size(); ++r) {
      eps.push_back(std::make_unique<mp::Endpoint>(cluster.agent(r),
                                                   mp::CoreParams{}));
    }
  }
};

enum class Op { kBcast, kGlobalSum };

double run_collective(Op op, std::int64_t bytes) {
  CollWorld w(topo::Coord{4, 8, 8});
  // Warm up (dials every channel), then have all ranks enter the measured
  // operation at the same instant — the simulator's zero-skew barrier, which
  // isolates the operation's true latency the way the paper plots it.
  constexpr sim::Time kGo = 500_ms;
  auto node = [](CollWorld& world, mp::Endpoint& ep, Op op_,
                 std::int64_t sz) -> Task<> {
    std::vector<std::byte> warm(8, std::byte{0x22});
    co_await coll::broadcast(ep, 0, warm, (1 << 23) | 100);
    co_await sim::delay(ep.engine(), kGo - ep.engine().now());
    if (ep.rank() == 0) world.t_start = ep.engine().now();
    std::vector<std::byte> data(static_cast<std::size_t>(sz),
                                std::byte{0x11});
    if (op_ == Op::kBcast) {
      co_await coll::broadcast(ep, 0, data, (1 << 23) | 200);
    } else {
      co_await coll::allreduce(ep, data, coll::sum_op<double>(),
                               (1 << 23) | 300);
    }
    world.finish[static_cast<std::size_t>(ep.rank())] = ep.engine().now();
  };
  for (topo::Rank r = 0; r < w.cluster.size(); ++r) {
    node(w, *w.eps[static_cast<std::size_t>(r)], op, bytes).detach();
  }
  w.cluster.run();
  const sim::Time t_end = *std::max_element(w.finish.begin(), w.finish.end());
  return sim::to_us(t_end - w.t_start);
}

}  // namespace

int main() {
  benchutil::BenchReport report("fig5_collectives");
  std::printf("# Figure 5: broadcast and global sum on the 4x8x8 torus\n");
  std::printf("%10s %14s %14s %8s\n", "bytes", "broadcast_us",
              "globalsum_us", "ratio");
  for (std::int64_t s : {8LL, 64LL, 256LL, 1024LL, 4096LL, 16384LL, 65536LL}) {
    const double b = run_collective(Op::kBcast, s);
    const double g = run_collective(Op::kGlobalSum, s);
    std::printf("%10lld %14.1f %14.1f %8.2f\n", static_cast<long long>(s), b,
                g, g / b);
    report.add_row({{"bytes", static_cast<double>(s)},
                    {"broadcast_us", b},
                    {"globalsum_us", g}});
  }
  std::printf("# paper: small-size broadcast ~200 us (10 steps), global sum"
              " ~2x broadcast\n");
  return 0;
}
