// Scatter-algorithm example: visualizes the OPT region partition of an 8x8
// torus (paper sec. 5.2) and then runs both scatter algorithms, reporting
// the measured dispatch times and the root-link utilization that explains
// OPT's advantage.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "cluster/gige_mesh.hpp"
#include "coll/scatter.hpp"
#include "coll/tree.hpp"
#include "mp/endpoint.hpp"
#include "topo/partition.hpp"

using namespace meshmp;
using sim::Task;

namespace {

double run_scatter(coll::ScatterAlg alg, std::int64_t bytes) {
  cluster::GigeMeshConfig cfg;
  cfg.shape = topo::Coord{8, 8};
  cluster::GigeMeshCluster cluster(cfg);
  std::vector<std::unique_ptr<mp::Endpoint>> eps;
  for (topo::Rank r = 0; r < cluster.size(); ++r) {
    eps.push_back(
        std::make_unique<mp::Endpoint>(cluster.agent(r), mp::CoreParams{}));
  }
  sim::Time t0 = 0;
  // Per-rank finish slots (max after the run).
  std::vector<sim::Time> ends(static_cast<std::size_t>(cluster.size()), 0);
  auto node = [](mp::Endpoint& ep, coll::ScatterAlg a, std::int64_t sz,
                 int nranks, sim::Time& start, sim::Time& end) -> Task<> {
    co_await coll::barrier(ep, (1 << 23) | 7);
    if (ep.rank() == 0) start = ep.engine().now();
    if (ep.rank() == 0) {
      std::vector<std::vector<std::byte>> chunks(
          static_cast<std::size_t>(nranks),
          std::vector<std::byte>(static_cast<std::size_t>(sz),
                                 std::byte{1}));
      (void)co_await coll::scatter(ep, 0, &chunks, (1 << 23) | 9, a);
    } else {
      (void)co_await coll::scatter(ep, 0, nullptr, (1 << 23) | 9, a);
    }
    end = ep.engine().now();
  };
  for (topo::Rank r = 0; r < cluster.size(); ++r) {
    node(*eps[static_cast<std::size_t>(r)], alg, bytes,
         static_cast<int>(cluster.size()), t0,
         ends[static_cast<std::size_t>(r)])
        .detach();
  }
  cluster.run();
  const sim::Time t1 = *std::max_element(ends.begin(), ends.end());
  return sim::to_us(t1 - t0);
}

}  // namespace

int main() {
  const topo::Torus t(topo::Coord{8, 8});
  const auto part = topo::make_region_partition(t, /*root=*/0);

  std::printf("OPT region partition of the 8x8 torus around node (0,0):\n");
  std::printf("(each cell shows which root link serves it)\n\n");
  for (int y = 7; y >= 0; --y) {
    std::printf("  ");
    for (int x = 0; x < 8; ++x) {
      const topo::Rank r = t.rank(topo::Coord{x, y});
      if (r == 0) {
        std::printf(" ROOT");
        continue;
      }
      const int region = part.region_of[static_cast<std::size_t>(r)];
      std::printf("   %s",
                  part.region_dir[static_cast<std::size_t>(region)]
                      .str()
                      .c_str());
    }
    std::printf("\n");
  }

  std::printf("\nregion sizes:");
  for (int i = 0; i < part.num_regions(); ++i) {
    std::printf(" %s=%zu", part.region_dir[static_cast<std::size_t>(i)].str().c_str(),
                part.members[static_cast<std::size_t>(i)].size());
  }
  std::printf("  (ideal: %d each)\n\n",
              (t.size() - 1) / part.num_regions());

  for (std::int64_t bytes : {64LL, 1024LL}) {
    const double sdf = run_scatter(coll::ScatterAlg::kSdf, bytes);
    const double opt = run_scatter(coll::ScatterAlg::kOpt, bytes);
    std::printf("scatter %4lld B/dest: SDF %8.1f us   OPT %8.1f us   "
                "speedup %.2fx\n",
                static_cast<long long>(bytes), sdf, opt, sdf / opt);
  }
  return 0;
}
