// Heat-diffusion example: a classic 2-D Jacobi stencil distributed over a
// 4x4 GigE torus with QMP-style halo exchange — the "other scientific
// calculations" the paper says the clusters also serve.
//
// Each rank owns a 32x32 tile of a 128x128 periodic grid. Per iteration it
// exchanges one-cell-wide halos with its four neighbours through the QMP
// relative-message API and applies the 5-point stencil. Total heat is
// conserved (checked with a QMP global sum).

#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "cluster/gige_mesh.hpp"
#include "mp/endpoint.hpp"
#include "qmp/qmp.hpp"

using namespace meshmp;
using sim::Task;

namespace {

constexpr int kTile = 32;
constexpr int kIters = 10;
constexpr double kAlpha = 0.2;

struct Tile {
  // (kTile+2)^2 with a one-cell ghost ring.
  std::vector<double> cells = std::vector<double>((kTile + 2) * (kTile + 2));
  double& at(int x, int y) { return cells[(y + 1) * (kTile + 2) + (x + 1)]; }
};

std::vector<std::byte> pack_column(Tile& t, int x) {
  std::vector<std::byte> out(kTile * sizeof(double));
  for (int y = 0; y < kTile; ++y) {
    std::memcpy(out.data() + y * sizeof(double), &t.at(x, y),
                sizeof(double));
  }
  return out;
}

std::vector<std::byte> pack_row(Tile& t, int y) {
  std::vector<std::byte> out(kTile * sizeof(double));
  for (int x = 0; x < kTile; ++x) {
    std::memcpy(out.data() + x * sizeof(double), &t.at(x, y),
                sizeof(double));
  }
  return out;
}

Task<> node_main(qmp::Machine& m, double& final_heat, int& done) {
  // `done` is this rank's own slot (summed by main after the run).
  Tile t;
  // Initial condition: a hot spot on rank 0 only.
  if (m.node_number() == 0) t.at(kTile / 2, kTile / 2) = 1000.0;

  for (int iter = 0; iter < kIters; ++iter) {
    // Exchange the four halos. Sends carry boundary columns/rows; receives
    // land in the ghost ring.
    qmp::MsgMem sx_hi(kTile * sizeof(double));
    qmp::MsgMem sx_lo(kTile * sizeof(double));
    qmp::MsgMem sy_hi(kTile * sizeof(double));
    qmp::MsgMem sy_lo(kTile * sizeof(double));
    sx_hi.buf = pack_column(t, kTile - 1);
    sx_lo.buf = pack_column(t, 0);
    sy_hi.buf = pack_row(t, kTile - 1);
    sy_lo.buf = pack_row(t, 0);
    qmp::MsgMem rx_hi(kTile * sizeof(double));
    qmp::MsgMem rx_lo(kTile * sizeof(double));
    qmp::MsgMem ry_hi(kTile * sizeof(double));
    qmp::MsgMem ry_lo(kTile * sizeof(double));

    auto s0 = m.declare_send_relative(sx_hi, 0, +1);
    auto s1 = m.declare_send_relative(sx_lo, 0, -1);
    auto s2 = m.declare_send_relative(sy_hi, 1, +1);
    auto s3 = m.declare_send_relative(sy_lo, 1, -1);
    auto r0 = m.declare_receive_relative(rx_lo, 0, -1);
    auto r1 = m.declare_receive_relative(rx_hi, 0, +1);
    auto r2 = m.declare_receive_relative(ry_lo, 1, -1);
    auto r3 = m.declare_receive_relative(ry_hi, 1, +1);
    for (auto* h : {&s0, &s1, &s2, &s3, &r0, &r1, &r2, &r3}) m.start(*h);
    for (auto* h : {&r0, &r1, &r2, &r3, &s0, &s1, &s2, &s3}) {
      co_await m.wait(*h);
    }

    // Unpack ghosts.
    for (int y = 0; y < kTile; ++y) {
      std::memcpy(&t.at(-1, y), rx_lo.buf.data() + y * sizeof(double),
                  sizeof(double));
      std::memcpy(&t.at(kTile, y), rx_hi.buf.data() + y * sizeof(double),
                  sizeof(double));
    }
    for (int x = 0; x < kTile; ++x) {
      std::memcpy(&t.at(x, -1), ry_lo.buf.data() + x * sizeof(double),
                  sizeof(double));
      std::memcpy(&t.at(x, kTile), ry_hi.buf.data() + x * sizeof(double),
                  sizeof(double));
    }

    // 5-point Jacobi update.
    Tile next = t;
    for (int y = 0; y < kTile; ++y) {
      for (int x = 0; x < kTile; ++x) {
        next.at(x, y) =
            t.at(x, y) + kAlpha * (t.at(x - 1, y) + t.at(x + 1, y) +
                                   t.at(x, y - 1) + t.at(x, y + 1) -
                                   4.0 * t.at(x, y));
      }
    }
    t = std::move(next);
    // Real codes charge this compute to the node; do the same.
    co_await m.endpoint().agent().node().cpu().compute_flops(kTile * kTile *
                                                             7.0);
  }

  double local = 0;
  for (int y = 0; y < kTile; ++y) {
    for (int x = 0; x < kTile; ++x) local += t.at(x, y);
  }
  const double total = co_await m.sum_double(local);
  if (m.node_number() == 0) final_heat = total;
  done = 1;
}

}  // namespace

int main() {
  cluster::GigeMeshConfig cfg;
  cfg.shape = topo::Coord{4, 4};
  cluster::GigeMeshCluster cluster(cfg);

  std::vector<std::unique_ptr<mp::Endpoint>> eps;
  std::vector<std::unique_ptr<qmp::Machine>> machines;
  for (topo::Rank r = 0; r < cluster.size(); ++r) {
    eps.push_back(
        std::make_unique<mp::Endpoint>(cluster.agent(r), mp::CoreParams{}));
    machines.push_back(std::make_unique<qmp::Machine>(*eps.back()));
  }

  double final_heat = 0;
  std::vector<int> done_slots(static_cast<std::size_t>(cluster.size()), 0);
  for (topo::Rank r = 0; r < cluster.size(); ++r) {
    node_main(*machines[static_cast<std::size_t>(r)], final_heat,
              done_slots[static_cast<std::size_t>(r)])
        .detach();
  }
  cluster.run();

  int done = 0;
  for (int f : done_slots) done += f;
  std::printf("ranks finished: %d/16\n", done);
  std::printf("total heat after %d iterations: %.6f (injected 1000)\n",
              kIters, final_heat);
  std::printf("simulated time: %.1f us\n", sim::to_us(cluster.engine().now()));
  const bool conserved = final_heat > 999.999 && final_heat < 1000.001;
  std::printf("heat conserved: %s\n", conserved ? "yes" : "NO");
  return done == 16 && conserved ? 0 : 1;
}
