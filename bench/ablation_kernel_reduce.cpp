// Ablation: user-level global combining (paper sec. 5.2) vs the
// interrupt-level global reduction prototype (paper sec. 7 future work).
//
// The user-level global sum pays, at every tree level, a receive-interrupt,
// a copy into user space, a process wakeup, and a user-level send post. The
// interrupt-level version combines partial sums inside the receive ISR and
// forwards at kernel level, so interior nodes never touch user space.
// Expected shape: the kernel version wins by roughly the per-hop user
// overhead times the tree depth — the paper's stated motivation.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "common.hpp"
#include "qmp/qmp.hpp"

namespace {

using namespace benchutil;

struct SumWorld {
  cluster::GigeMeshCluster cluster;
  std::vector<std::unique_ptr<mp::Endpoint>> eps;
  std::vector<std::unique_ptr<qmp::Machine>> machines;
  sim::Time start = 0;
  // Per-rank finish slots (max after the run).
  std::vector<sim::Time> finish;

  explicit SumWorld(topo::Coord shape)
      : cluster([&] {
          cluster::GigeMeshConfig cfg;
          cfg.shape = shape;
          return cfg;
        }()),
        finish(static_cast<std::size_t>(cluster.size()), 0) {
    for (topo::Rank r = 0; r < cluster.size(); ++r) {
      eps.push_back(std::make_unique<mp::Endpoint>(cluster.agent(r),
                                                   mp::CoreParams{}));
      machines.push_back(std::make_unique<qmp::Machine>(*eps.back()));
    }
  }
};

double time_global_sum(topo::Coord shape, bool kernel_level) {
  SumWorld w(shape);
  auto prog = [](SumWorld& world, qmp::Machine& m,
                 bool klevel) -> sim::Task<> {
    co_await m.barrier();
    if (m.node_number() == 0) world.start = m.endpoint().engine().now();
    double s = 0;
    if (klevel) {
      s = co_await m.sum_double_kernel(1.0);
    } else {
      s = co_await m.sum_double(1.0);
    }
    (void)s;
    world.finish[static_cast<std::size_t>(m.node_number())] =
        m.endpoint().engine().now();
  };
  for (topo::Rank r = 0; r < w.cluster.size(); ++r) {
    prog(w, *w.machines[static_cast<std::size_t>(r)], kernel_level).detach();
  }
  w.cluster.run();
  const sim::Time end = *std::max_element(w.finish.begin(), w.finish.end());
  return sim::to_us(end - w.start);
}

}  // namespace

int main() {
  std::printf("# Ablation: user-level vs interrupt-level global sum\n");
  std::printf("%12s %14s %16s %10s\n", "mesh", "user_us", "kernel_us",
              "speedup");
  for (topo::Coord shape :
       {topo::Coord{4, 4}, topo::Coord{2, 4, 4}, topo::Coord{4, 4, 4},
        topo::Coord{4, 8, 8}}) {
    std::string name;
    for (int d = 0; d < shape.ndims(); ++d) {
      if (d) name += "x";
      name += std::to_string(shape[d]);
    }
    const double user = time_global_sum(shape, false);
    const double kern = time_global_sum(shape, true);
    std::printf("%12s %14.1f %16.1f %10.2f\n", name.c_str(), user, kern,
                user / kern);
  }
  std::printf("# paper sec. 7: interrupt-level combining 'eliminates the"
              " overhead of copying\n# data to user space for the"
              " intermediate steps'\n");
  return 0;
}
