// Figure 6 reproduction: one-to-all personalized communication (scatter)
// with the SDF and OPT algorithms on the 8x8 (64-node) and 4x8x8 (256-node)
// configurations of the mesh cluster.
//
// Paper headlines: OPT dispatches all messages ~4x faster than SDF on either
// configuration across the tested sizes, and OPT scales well from 8x8 to
// 4x8x8 except at the largest sizes (six simultaneous sends from the root
// become hard).

#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "common.hpp"
#include "coll/scatter.hpp"
#include "coll/tree.hpp"

namespace {

using namespace benchutil;

struct ScatterWorld {
  cluster::GigeMeshCluster cluster;
  std::vector<std::unique_ptr<mp::Endpoint>> eps;
  sim::Time t_start = 0;
  // Per-rank finish slots (max after the run).
  std::vector<sim::Time> finish;

  explicit ScatterWorld(topo::Coord shape)
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

double run_scatter(topo::Coord shape, coll::ScatterAlg alg,
                   std::int64_t bytes) {
  ScatterWorld w(shape);
  const int n = static_cast<int>(w.cluster.size());
  auto node = [](ScatterWorld& world, mp::Endpoint& ep, coll::ScatterAlg a,
                 std::int64_t sz, int nranks) -> Task<> {
    co_await coll::barrier(ep, (1 << 23) | 100);
    if (ep.rank() == 0) world.t_start = ep.engine().now();
    std::vector<std::byte> mine;
    if (ep.rank() == 0) {
      std::vector<std::vector<std::byte>> chunks(
          static_cast<std::size_t>(nranks),
          payload(static_cast<std::size_t>(sz)));
      mine = co_await coll::scatter(ep, 0, &chunks, (1 << 23) | 400, a);
    } else {
      mine = co_await coll::scatter(ep, 0, nullptr, (1 << 23) | 400, a);
    }
    world.finish[static_cast<std::size_t>(ep.rank())] = ep.engine().now();
  };
  for (topo::Rank r = 0; r < w.cluster.size(); ++r) {
    node(w, *w.eps[static_cast<std::size_t>(r)], alg, bytes, n).detach();
  }
  w.cluster.run();
  const sim::Time t_end = *std::max_element(w.finish.begin(), w.finish.end());
  return sim::to_us(t_end - w.t_start);
}

}  // namespace

int main() {
  std::printf("# Figure 6: personalized one-to-all (scatter), total us until"
              " every message is delivered\n");
  std::printf("%10s %14s %14s %10s %14s %14s %10s\n", "bytes", "8x8_sdf",
              "8x8_opt", "speedup", "4x8x8_sdf", "4x8x8_opt", "speedup");
  for (std::int64_t s : {16LL, 64LL, 256LL, 1024LL, 4096LL}) {
    const double sdf64 = run_scatter(topo::Coord{8, 8},
                                     coll::ScatterAlg::kSdf, s);
    const double opt64 = run_scatter(topo::Coord{8, 8},
                                     coll::ScatterAlg::kOpt, s);
    const double sdf256 = run_scatter(topo::Coord{4, 8, 8},
                                      coll::ScatterAlg::kSdf, s);
    const double opt256 = run_scatter(topo::Coord{4, 8, 8},
                                      coll::ScatterAlg::kOpt, s);
    std::printf("%10lld %14.1f %14.1f %10.2f %14.1f %14.1f %10.2f\n",
                static_cast<long long>(s), sdf64, opt64, sdf64 / opt64,
                sdf256, opt256, sdf256 / opt256);
  }
  std::printf("# paper: OPT ~4x faster than SDF on both configurations\n");
  return 0;
}
