// Tests for the MPI 1.1 subset, the QMP API, and the mesh collective
// algorithms they share.

#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <vector>

#include "cluster/gige_mesh.hpp"
#include "coll/scatter.hpp"
#include "coll/tree.hpp"
#include "mp/endpoint.hpp"
#include "mpi/mpi.hpp"
#include "qmp/qmp.hpp"
#include "topo/spanning_tree.hpp"

namespace {

using namespace meshmp;
using namespace meshmp::sim::literals;
using cluster::GigeMeshCluster;
using cluster::GigeMeshConfig;
using sim::Task;

std::vector<std::byte> pattern(std::size_t n, std::uint8_t seed = 1) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>((seed * 31 + i * 3) & 0xff);
  }
  return v;
}

struct World {
  GigeMeshCluster cluster;
  std::vector<std::unique_ptr<mp::Endpoint>> eps;
  std::vector<std::unique_ptr<mpi::Comm>> comms;
  std::vector<std::unique_ptr<qmp::Machine>> machines;
  int finished = 0;

  explicit World(topo::Coord shape)
      : cluster([&] {
          GigeMeshConfig cfg;
          cfg.shape = shape;
          return cfg;
        }()) {
    for (topo::Rank r = 0; r < cluster.size(); ++r) {
      eps.push_back(std::make_unique<mp::Endpoint>(cluster.agent(r),
                                                   mp::CoreParams{}));
      comms.push_back(std::make_unique<mpi::Comm>(*eps.back()));
      machines.push_back(std::make_unique<qmp::Machine>(*eps.back()));
    }
  }

  mpi::Comm& comm(int r) { return *comms.at(static_cast<std::size_t>(r)); }
  qmp::Machine& qmp_at(int r) {
    return *machines.at(static_cast<std::size_t>(r));
  }

  template <typename F>
  void run_spmd_comm(F prog) {
    auto wrapper = [](F p, mpi::Comm& c, int& count) -> Task<> {
      co_await p(c);
      ++count;
    };
    for (auto& c : comms) wrapper(prog, *c, finished).detach();
    cluster.run();
    ASSERT_EQ(finished, static_cast<int>(comms.size()))
        << "an MPI rank deadlocked";
  }

  template <typename F>
  void run_spmd_qmp(F prog) {
    auto wrapper = [](F p, qmp::Machine& m, int& count) -> Task<> {
      co_await p(m);
      ++count;
    };
    for (auto& m : machines) wrapper(prog, *m, finished).detach();
    cluster.run();
    ASSERT_EQ(finished, static_cast<int>(machines.size()))
        << "a QMP node deadlocked";
  }
};

// --- MPI point-to-point ------------------------------------------------------

TEST(MpiP2p, TypedRingPass) {
  World w(topo::Coord{4});
  auto prog = [](mpi::Comm& c) -> Task<> {
    const int next = (c.rank() + 1) % c.size();
    const int prev = (c.rank() + c.size() - 1) % c.size();
    std::vector<int> tok{c.rank()};
    if (c.rank() == 0) {
      co_await c.send_vec(tok, next, 0);
      auto got = co_await c.recv_vec<int>(prev, 0);
      EXPECT_EQ(got.size(), 4u);  // everyone appended
    } else {
      auto got = co_await c.recv_vec<int>(prev, 0);
      got.push_back(c.rank());
      co_await c.send_vec(got, next, 0);
    }
  };
  w.run_spmd_comm(prog);
}

TEST(MpiP2p, SendrecvExchangesWithoutDeadlock) {
  World w(topo::Coord{4});
  auto prog = [](mpi::Comm& c) -> Task<> {
    const int partner = c.rank() ^ 1;  // 0<->1, 2<->3
    std::vector<std::byte> in;
    auto st = co_await c.sendrecv(
        pattern(64, static_cast<std::uint8_t>(c.rank())), partner, 1, in,
        partner, 1);
    EXPECT_EQ(st.source, partner);
    EXPECT_EQ(in, pattern(64, static_cast<std::uint8_t>(partner)));
  };
  w.run_spmd_comm(prog);
}

TEST(MpiP2p, NonblockingWaitall) {
  World w(topo::Coord{4});
  auto prog = [](mpi::Comm& c) -> Task<> {
    if (c.rank() == 0) {
      std::vector<mpi::Request> reqs;
      for (int r = 1; r < c.size(); ++r) {
        reqs.push_back(c.isend(pattern(100, static_cast<std::uint8_t>(r)),
                               r, 4));
        reqs.push_back(c.irecv(r, 5));
      }
      co_await c.waitall(reqs);
      for (std::size_t i = 1; i < reqs.size(); i += 2) {
        auto data = reqs[i].take_data();
        EXPECT_EQ(data.size(), 50u);
      }
    } else {
      std::vector<std::byte> in;
      auto st = co_await c.recv(in, 0, 4);
      EXPECT_EQ(st.count, 100);
      co_await c.send(pattern(50), 0, 5);
    }
  };
  w.run_spmd_comm(prog);
}

TEST(MpiP2p, AnySourceStatusReportsTruth) {
  World w(topo::Coord{4});
  auto prog = [](mpi::Comm& c) -> Task<> {
    if (c.rank() == 0) {
      for (int i = 1; i < c.size(); ++i) {
        std::vector<std::byte> in;
        auto st = co_await c.recv(in, mpi::kAnySource, mpi::kAnyTag);
        EXPECT_EQ(st.tag, st.source * 10);  // senders use tag = rank*10
        EXPECT_EQ(st.count, st.source * 7);
      }
    } else {
      co_await c.send(pattern(static_cast<std::size_t>(c.rank() * 7)), 0,
                      c.rank() * 10);
    }
  };
  w.run_spmd_comm(prog);
}

TEST(MpiP2p, TagOutOfRangeThrows) {
  World w(topo::Coord{4});
  auto prog = [](mpi::Comm& c) -> Task<> {
    if (c.rank() == 0) {
      EXPECT_THROW(co_await c.send(pattern(8), 1, mpi::kTagUb + 1),
                   std::invalid_argument);
      co_await c.send(pattern(8), 1, mpi::kTagUb);
    } else if (c.rank() == 1) {
      std::vector<std::byte> in;
      (void)co_await c.recv(in, 0, mpi::kTagUb);
    }
  };
  w.run_spmd_comm(prog);
}

// --- collectives -------------------------------------------------------------

class CollShapes : public ::testing::TestWithParam<topo::Coord> {};

TEST_P(CollShapes, BroadcastDeliversEverywhere) {
  World w(GetParam());
  const int root = w.cluster.size() / 3;
  auto payload = pattern(1000, 7);
  auto prog = [root, payload](mpi::Comm& c) -> Task<> {
    std::vector<std::byte> data = c.rank() == root ? payload
                                                   : std::vector<std::byte>{};
    co_await c.bcast(data, root);
    EXPECT_EQ(data, payload) << "rank " << c.rank();
  };
  w.run_spmd_comm(prog);
}

TEST_P(CollShapes, ReduceSumsToRoot) {
  World w(GetParam());
  const int root = 0;
  const int n = w.cluster.size();
  auto prog = [root, n](mpi::Comm& c) -> Task<> {
    auto data = mpi::to_bytes(std::vector<double>{double(c.rank()), 1.0});
    co_await c.reduce(data, coll::sum_op<double>(), root);
    if (c.rank() == root) {
      auto v = mpi::from_bytes<double>(data);
      EXPECT_DOUBLE_EQ(v[0], n * (n - 1) / 2.0);
      EXPECT_DOUBLE_EQ(v[1], n);
    }
  };
  w.run_spmd_comm(prog);
}

TEST_P(CollShapes, AllreduceGivesEveryoneTheSum) {
  World w(GetParam());
  const int n = w.cluster.size();
  auto prog = [n](mpi::Comm& c) -> Task<> {
    const double sum = co_await c.allreduce_sum(double(c.rank()) + 0.5);
    EXPECT_DOUBLE_EQ(sum, n * (n - 1) / 2.0 + 0.5 * n) << "rank " << c.rank();
  };
  w.run_spmd_comm(prog);
}

TEST_P(CollShapes, BarrierActuallySynchronizes) {
  World w(GetParam());
  auto& eng = w.cluster.engine();
  std::vector<sim::Time> before(static_cast<std::size_t>(w.cluster.size()));
  std::vector<sim::Time> after(static_cast<std::size_t>(w.cluster.size()));
  auto prog = [&eng, &before, &after](mpi::Comm& c) -> Task<> {
    // Stagger arrival: rank r works r*50us before the barrier.
    co_await sim::delay(eng, c.rank() * 50_us);
    before[static_cast<std::size_t>(c.rank())] = eng.now();
    co_await c.barrier();
    after[static_cast<std::size_t>(c.rank())] = eng.now();
  };
  w.run_spmd_comm(prog);
  const sim::Time latest_arrival =
      *std::max_element(before.begin(), before.end());
  for (sim::Time t : after) EXPECT_GE(t, latest_arrival);
}

INSTANTIATE_TEST_SUITE_P(Shapes, CollShapes,
                         ::testing::Values(topo::Coord{8}, topo::Coord{4, 4},
                                           topo::Coord{3, 3, 3},
                                           topo::Coord{2, 4, 4}),
                         [](const auto& info) {
                           std::string name;
                           for (int d = 0; d < info.param.ndims(); ++d) {
                             if (d) name += "x";
                             name += std::to_string(info.param[d]);
                           }
                           return name;
                         });

class ScatterCase
    : public ::testing::TestWithParam<std::pair<topo::Coord, coll::ScatterAlg>> {
};

TEST_P(ScatterCase, ScatterDeliversPersonalizedChunks) {
  const auto& [shape, alg] = GetParam();
  World w(shape);
  const int root = 0;
  const int n = w.cluster.size();
  auto make_chunks = [n] {
    std::vector<std::vector<std::byte>> chunks;
    for (int d = 0; d < n; ++d) {
      chunks.push_back(pattern(64 + static_cast<std::size_t>(d) * 8,
                               static_cast<std::uint8_t>(d)));
    }
    return chunks;
  };
  auto prog = [root, make_chunks, alg](mpi::Comm& c) -> Task<> {
    std::vector<std::vector<std::byte>> chunks;
    std::vector<std::byte> mine;
    if (c.rank() == root) {
      chunks = make_chunks();
      mine = co_await c.scatter(&chunks, root, alg);
    } else {
      mine = co_await c.scatter(nullptr, root, alg);
    }
    EXPECT_EQ(mine, pattern(64 + static_cast<std::size_t>(c.rank()) * 8,
                            static_cast<std::uint8_t>(c.rank())))
        << "rank " << c.rank();
  };
  w.run_spmd_comm(prog);
}

TEST_P(ScatterCase, GatherCollectsAll) {
  const auto& [shape, alg] = GetParam();
  World w(shape);
  const int root = w.cluster.size() - 1;
  auto prog = [root, alg](mpi::Comm& c) -> Task<> {
    auto all = co_await c.gather(
        pattern(32, static_cast<std::uint8_t>(c.rank())), root, alg);
    if (c.rank() == root) {
      EXPECT_EQ(all.size(), static_cast<std::size_t>(c.size()));
      for (int r = 0; r < c.size() &&
                      all.size() == static_cast<std::size_t>(c.size());
           ++r) {
        EXPECT_EQ(all[static_cast<std::size_t>(r)],
                  pattern(32, static_cast<std::uint8_t>(r)))
            << "chunk " << r;
      }
    } else {
      EXPECT_TRUE(all.empty());
    }
  };
  w.run_spmd_comm(prog);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ScatterCase,
    ::testing::Values(std::pair{topo::Coord{8}, coll::ScatterAlg::kSdf},
                      std::pair{topo::Coord{8}, coll::ScatterAlg::kOpt},
                      std::pair{topo::Coord{4, 4}, coll::ScatterAlg::kSdf},
                      std::pair{topo::Coord{4, 4}, coll::ScatterAlg::kOpt},
                      std::pair{topo::Coord{3, 3, 3},
                                coll::ScatterAlg::kOpt}),
    [](const auto& info) {
      std::string name;
      for (int d = 0; d < info.param.first.ndims(); ++d) {
        if (d) name += "x";
        name += std::to_string(info.param.first[d]);
      }
      return name +
             (info.param.second == coll::ScatterAlg::kSdf ? "_sdf" : "_opt");
    });

TEST(MpiAlltoall, EveryPairExchanges) {
  World w(topo::Coord{3, 3});
  auto prog = [](mpi::Comm& c) -> Task<> {
    std::vector<std::vector<std::byte>> chunks;
    for (int d = 0; d < c.size(); ++d) {
      chunks.push_back(
          pattern(16, static_cast<std::uint8_t>(c.rank() * 16 + d)));
    }
    auto got = co_await c.alltoall(std::move(chunks));
    EXPECT_EQ(got.size(), static_cast<std::size_t>(c.size()));
    for (int s = 0; s < c.size() &&
                    got.size() == static_cast<std::size_t>(c.size());
         ++s) {
      EXPECT_EQ(got[static_cast<std::size_t>(s)],
                pattern(16, static_cast<std::uint8_t>(s * 16 + c.rank())))
          << "from " << s;
    }
  };
  w.run_spmd_comm(prog);
}

TEST(MpiColl, BackToBackCollectivesDoNotMix) {
  World w(topo::Coord{4, 4});
  auto prog = [](mpi::Comm& c) -> Task<> {
    for (int iter = 0; iter < 5; ++iter) {
      auto payload = pattern(100, static_cast<std::uint8_t>(iter));
      std::vector<std::byte> data = c.rank() == 0 ? payload
                                                  : std::vector<std::byte>{};
      co_await c.bcast(data, 0);
      EXPECT_EQ(data, payload) << "iter " << iter;
      const double s = co_await c.allreduce_sum(1.0);
      EXPECT_DOUBLE_EQ(s, c.size());
    }
  };
  w.run_spmd_comm(prog);
}

// --- broadcast tree properties ------------------------------------------------

TEST(BcastTree, ParentChildRelationConsistent) {
  const topo::Torus t(topo::Coord{4, 8, 8});
  for (topo::Rank root : {0, 100, 255}) {
    int edges = 0;
    for (topo::Rank me = 0; me < t.size(); ++me) {
      for (topo::Rank kid : topo::bcast_children(t, root, me)) {
        auto p = topo::bcast_parent(t, root, kid);
        ASSERT_TRUE(p);
        EXPECT_EQ(*p, me) << "root " << root << " me " << me << " kid "
                          << kid;
        ++edges;
      }
    }
    // A spanning tree has exactly size-1 edges.
    EXPECT_EQ(edges, t.size() - 1);
  }
}

TEST(BcastTree, DepthMatchesPaperStepCount) {
  // Paper: broadcast on 4x8x8 takes ~10 steps (= 2 + 4 + 4 = sum of ext/2).
  const topo::Torus t(topo::Coord{4, 8, 8});
  int depth = 0;
  for (topo::Rank me = 0; me < t.size(); ++me) {
    int d = 0;
    topo::Rank cur = me;
    while (auto p = topo::bcast_parent(t, 0, cur)) {
      cur = *p;
      ++d;
    }
    depth = std::max(depth, d);
  }
  EXPECT_EQ(depth, 10);
}

// --- QMP ---------------------------------------------------------------------

TEST(Qmp, TopologyQueries) {
  World w(topo::Coord{4, 8, 8});
  auto& m = w.qmp_at(37);
  EXPECT_EQ(m.node_number(), 37);
  EXPECT_EQ(m.num_nodes(), 256);
  EXPECT_EQ(m.num_dimensions(), 3);
  EXPECT_EQ(m.logical_dimensions(), (std::vector<int>{4, 8, 8}));
  const auto c = m.logical_coordinates();
  const topo::Torus t(topo::Coord{4, 8, 8});
  const auto expect = t.coord(37);
  for (int d = 0; d < 3; ++d) EXPECT_EQ(c[static_cast<std::size_t>(d)], expect[d]);
  EXPECT_EQ(m.neighbor_rank(0, +1), t.rank(*t.neighbor(expect, {0, +1})));
}

TEST(Qmp, RelativeHaloExchange) {
  // Every node sends its rank pattern +x and receives from -x; after the
  // exchange each node holds its -x neighbour's pattern. Handles are then
  // reused for a second round (QMP semantics).
  World w(topo::Coord{4, 4});
  auto prog = [](qmp::Machine& m) -> Task<> {
    const topo::Torus& t = m.endpoint().agent().torus();
    for (int round = 0; round < 2; ++round) {
      qmp::MsgMem sendmem(64);
      qmp::MsgMem recvmem(64);
      sendmem.buf = pattern(64, static_cast<std::uint8_t>(
                                    m.node_number() * 2 + round));
      auto sh = m.declare_send_relative(sendmem, 0, +1);
      auto rh = m.declare_receive_relative(recvmem, 0, -1);
      m.start(sh);
      m.start(rh);
      co_await m.wait(rh);
      co_await m.wait(sh);
      const auto nb = t.neighbor(static_cast<topo::Rank>(m.node_number()),
                                 topo::Dir{0, -1});
      EXPECT_EQ(recvmem.buf,
                pattern(64, static_cast<std::uint8_t>(*nb * 2 + round)));
    }
  };
  w.run_spmd_qmp(prog);
}

TEST(Qmp, GlobalSumAndMax) {
  World w(topo::Coord{2, 4});
  auto prog = [](qmp::Machine& m) -> Task<> {
    const double sum = co_await m.sum_double(1.0 + m.node_number());
    EXPECT_DOUBLE_EQ(sum, 8 + 28);  // n + sum(0..7)
    const double mx = co_await m.max_double(double(m.node_number() % 5));
    EXPECT_DOUBLE_EQ(mx, 4.0);
    std::vector<double> arr{double(m.node_number()), 2.0};
    co_await m.sum_double_array(arr);
    EXPECT_DOUBLE_EQ(arr[0], 28.0);
    EXPECT_DOUBLE_EQ(arr[1], 16.0);
  };
  w.run_spmd_qmp(prog);
}

TEST(Qmp, BroadcastAndBarrier) {
  World w(topo::Coord{2, 4});
  auto prog = [](qmp::Machine& m) -> Task<> {
    std::vector<std::byte> data =
        m.node_number() == 0 ? pattern(256, 3) : std::vector<std::byte>{};
    co_await m.broadcast(data);
    EXPECT_EQ(data, pattern(256, 3));
    co_await m.barrier();
  };
  w.run_spmd_qmp(prog);
}

}  // namespace
