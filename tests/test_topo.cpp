// Unit and property tests for mesh/torus geometry, SDF routing and the OPT
// region partition.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <numeric>
#include <optional>
#include <queue>
#include <set>
#include <tuple>
#include <vector>

#include "sim/rng.hpp"
#include "topo/coords.hpp"
#include "topo/partition.hpp"
#include "topo/switched.hpp"
#include "topo/torus.hpp"

namespace {

using namespace meshmp::topo;

TEST(Coord, BasicsAndEquality) {
  Coord c{1, 2, 3};
  EXPECT_EQ(c.ndims(), 3);
  EXPECT_EQ(c[0], 1);
  EXPECT_EQ(c[2], 3);
  c[1] = 7;
  EXPECT_EQ(c[1], 7);
  EXPECT_EQ(c.str(), "(1,7,3)");
  EXPECT_EQ((Coord{1, 2}), (Coord{1, 2}));
  EXPECT_NE((Coord{1, 2}), (Coord{2, 1}));
  EXPECT_NE((Coord{1, 2}), (Coord{1, 2, 0}));
}

TEST(Dir, IndexRoundTrip) {
  for (int i = 0; i < 8; ++i) {
    const Dir d = Dir::from_index(i);
    EXPECT_EQ(d.index(), i);
    EXPECT_EQ(d.opposite().opposite(), d);
    EXPECT_NE(d.opposite().index(), i);
  }
  EXPECT_EQ((Dir{0, +1}).str(), "+x");
  EXPECT_EQ((Dir{2, -1}).str(), "-z");
}

TEST(Torus, RankCoordRoundTrip) {
  const Torus t(Coord{4, 8, 8});
  EXPECT_EQ(t.size(), 256);
  EXPECT_EQ(t.ndims(), 3);
  EXPECT_EQ(t.ports(), 6);
  for (Rank r = 0; r < t.size(); ++r) {
    EXPECT_EQ(t.rank(t.coord(r)), r);
  }
  EXPECT_EQ(t.rank(Coord{0, 0, 0}), 0);
  EXPECT_EQ(t.rank(Coord{1, 0, 0}), 1);
  EXPECT_EQ(t.rank(Coord{0, 1, 0}), 4);  // dim 0 fastest
}

TEST(Torus, RejectsBadShapes) {
  EXPECT_THROW(Torus(Coord{}), std::invalid_argument);
  EXPECT_THROW(Torus(Coord{4, 0}), std::invalid_argument);
}

TEST(Torus, NeighborsWrapAround) {
  const Torus t(Coord{4, 8});
  auto n = t.neighbor(Coord{3, 0}, Dir{0, +1});
  ASSERT_TRUE(n);
  EXPECT_EQ(*n, (Coord{0, 0}));
  n = t.neighbor(Coord{0, 0}, Dir{1, -1});
  ASSERT_TRUE(n);
  EXPECT_EQ(*n, (Coord{0, 7}));
}

TEST(Torus, MeshEdgesDoNotWrap) {
  const Torus m(Coord{4, 4}, /*wrap=*/false);
  EXPECT_FALSE(m.neighbor(Coord{3, 1}, Dir{0, +1}));
  EXPECT_FALSE(m.neighbor(Coord{0, 1}, Dir{0, -1}));
  EXPECT_TRUE(m.neighbor(Coord{2, 1}, Dir{0, +1}));
  // Corner has only 2 directions, interior has 4.
  EXPECT_EQ(m.directions(Coord{0, 0}).size(), 2u);
  EXPECT_EQ(m.directions(Coord{1, 1}).size(), 4u);
}

TEST(Torus, ExtentOneDimensionHasNoLinks) {
  const Torus t(Coord{1, 4});
  EXPECT_FALSE(t.neighbor(Coord{0, 2}, Dir{0, +1}));
  EXPECT_EQ(t.ports(), 2);
}

TEST(Torus, TorusDelta) {
  const Torus t(Coord{8});
  EXPECT_EQ(t.delta(Coord{0}, Coord{3}, 0), 3);
  EXPECT_EQ(t.delta(Coord{0}, Coord{5}, 0), -3);  // shorter the other way
  EXPECT_EQ(t.delta(Coord{0}, Coord{4}, 0), 4);   // half-way tie -> positive
  EXPECT_EQ(t.delta(Coord{6}, Coord{1}, 0), 3);
  const Torus m(Coord{8}, /*wrap=*/false);
  EXPECT_EQ(m.delta(Coord{0}, Coord{5}, 0), 5);  // no wrap: plain difference
}

TEST(Torus, DistanceExamplesFromPaperGeometry) {
  const Torus t(Coord{4, 8, 8});
  // Farthest node from origin in a 4x8x8 torus: 2+4+4 = 10 hops.
  EXPECT_EQ(t.distance(Coord{0, 0, 0}, Coord{2, 4, 4}), 10);
  EXPECT_EQ(t.distance(Coord{0, 0, 0}, Coord{0, 0, 0}), 0);
  EXPECT_EQ(t.distance(Coord{0, 0, 0}, Coord{3, 7, 7}), 3);
}

TEST(Torus, SdfPicksSmallestRemainingDimension) {
  const Torus t(Coord{8, 8});
  // 1 step in x, 3 in y: SDF goes x first.
  auto d = t.sdf_next(Coord{0, 0}, Coord{1, 3});
  ASSERT_TRUE(d);
  EXPECT_EQ(*d, (Dir{0, +1}));
  // 5 steps in x (so 3 the other way), 1 in y: y first.
  d = t.sdf_next(Coord{0, 0}, Coord{5, 1});
  ASSERT_TRUE(d);
  EXPECT_EQ(*d, (Dir{1, +1}));
  EXPECT_FALSE(t.sdf_next(Coord{3, 3}, Coord{3, 3}));
}

// Property: over a sweep of shapes, every SDF route has minimal length and
// really arrives.
class TorusSweep : public ::testing::TestWithParam<Coord> {};

TEST_P(TorusSweep, RoutesAreMinimalAndArrive) {
  const Torus t(GetParam());
  for (Rank from = 0; from < t.size(); from += 7) {
    for (Rank to = 0; to < t.size(); to += 5) {
      const auto hops = t.route(t.coord(from), t.coord(to));
      EXPECT_EQ(static_cast<int>(hops.size()), t.distance(from, to));
      Coord cur = t.coord(from);
      for (Dir h : hops) {
        auto n = t.neighbor(cur, h);
        ASSERT_TRUE(n);
        cur = *n;
      }
      EXPECT_EQ(cur, t.coord(to));
    }
  }
}

TEST_P(TorusSweep, MinimalFirstHopsAreExactlyTheMinimalOnes) {
  const Torus t(GetParam());
  const Coord origin = t.coord(0);
  for (Rank to = 1; to < t.size(); to += 3) {
    const Coord dest = t.coord(to);
    const int dist = t.distance(origin, dest);
    std::set<int> claimed;
    for (Dir d : t.minimal_first_hops(origin, dest)) {
      claimed.insert(d.index());
    }
    for (Dir d : t.directions(origin)) {
      auto n = t.neighbor(origin, d);
      ASSERT_TRUE(n);
      const bool minimal = 1 + t.distance(t.rank(*n), to) == dist;
      EXPECT_EQ(claimed.count(d.index()) > 0, minimal)
          << "dir " << d.str() << " to " << dest.str();
    }
  }
}

TEST_P(TorusSweep, DeltaIsMinimalSignedDisplacement) {
  const Torus t(GetParam());
  for (Rank from = 0; from < t.size(); from += 11) {
    for (Rank to = 0; to < t.size(); to += 3) {
      const Coord a = t.coord(from);
      const Coord b = t.coord(to);
      for (int d = 0; d < t.ndims(); ++d) {
        const int dd = t.delta(a, b, d);
        const int extent = t.shape()[d];
        EXPECT_LE(std::abs(dd), extent / 2 + (extent % 2));
        // Walking dd steps along d really lands on b's coordinate.
        const int landed = ((a[d] + dd) % extent + extent) % extent;
        EXPECT_EQ(landed, b[d]);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, TorusSweep,
                         ::testing::Values(Coord{8}, Coord{5}, Coord{8, 8},
                                           Coord{4, 6}, Coord{4, 8, 8},
                                           Coord{3, 3, 3}, Coord{2, 4, 4, 2}),
                         [](const auto& info) {
                           std::string name;
                           for (int d = 0; d < info.param.ndims(); ++d) {
                             if (d) name += "x";
                             name += std::to_string(info.param[d]);
                           }
                           return name;
                         });

TEST(Torus, RouteViaForcesFirstHop) {
  const Torus t(Coord{8, 8});
  const Coord from{0, 0};
  const Coord to{4, 0};  // half-way: both +x and -x minimal
  for (Dir first : t.minimal_first_hops(from, to)) {
    const auto hops = t.route_via(from, to, first);
    EXPECT_EQ(hops.size(), 4u);
    EXPECT_EQ(hops.front(), first);
    Coord cur = from;
    for (Dir h : hops) cur = *t.neighbor(cur, h);
    EXPECT_EQ(cur, to);
  }
}

// --- Route tables vs the coordinate-arithmetic reference -----------------

// The route-table BFS as it was before Torus grew its neighbour table: every
// expansion derives directions and neighbours from coordinates. Kept as the
// oracle the table-driven BFS must reproduce byte for byte.
std::optional<Rank> ref_neighbor(const Torus& t, Rank r, Dir d) {
  const auto n = t.neighbor(t.coord(r), d);
  if (!n) return std::nullopt;
  return t.rank(*n);
}

std::vector<std::int8_t> ref_route_table(const Torus& t, Rank src,
                                         const std::vector<bool>& dead) {
  std::vector<std::int8_t> first(static_cast<std::size_t>(t.size()), -1);
  std::vector<bool> seen(static_cast<std::size_t>(t.size()), false);
  seen[static_cast<std::size_t>(src)] = true;
  std::vector<Rank> queue;
  for (Dir d : t.directions(t.coord(src))) {
    auto n = ref_neighbor(t, src, d);
    if (!n || seen[static_cast<std::size_t>(*n)] ||
        dead[static_cast<std::size_t>(*n)]) {
      continue;
    }
    seen[static_cast<std::size_t>(*n)] = true;
    first[static_cast<std::size_t>(*n)] = static_cast<std::int8_t>(d.index());
    queue.push_back(*n);
  }
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const Rank cur = queue[head];
    for (Dir d : t.directions(t.coord(cur))) {
      auto n = ref_neighbor(t, cur, d);
      if (!n || seen[static_cast<std::size_t>(*n)] ||
          dead[static_cast<std::size_t>(*n)]) {
        continue;
      }
      seen[static_cast<std::size_t>(*n)] = true;
      first[static_cast<std::size_t>(*n)] =
          first[static_cast<std::size_t>(cur)];
      queue.push_back(*n);
    }
  }
  return first;
}

std::vector<std::int8_t> ref_route_table(
    const Torus& t, Rank src, const std::vector<bool>& dead,
    const std::vector<DirMask>& degraded) {
  if (std::all_of(degraded.begin(), degraded.end(),
                  [](DirMask m) { return m == 0; })) {
    return ref_route_table(t, src, dead);
  }
  constexpr int kInf = 1 << 20;
  const auto n = static_cast<std::size_t>(t.size());
  std::vector<int> hops(n, kInf);
  std::vector<int> degs(n, kInf);
  std::vector<std::int8_t> first(n, -1);
  using Item = std::tuple<int, int, std::uint32_t, Rank>;  // hops, deg, seq
  std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
  std::uint32_t seq = 0;
  hops[static_cast<std::size_t>(src)] = 0;
  degs[static_cast<std::size_t>(src)] = 0;
  pq.emplace(0, 0, seq++, src);
  while (!pq.empty()) {
    const auto [h, g, s, cur] = pq.top();
    pq.pop();
    if (h != hops[static_cast<std::size_t>(cur)] ||
        g != degs[static_cast<std::size_t>(cur)]) {
      continue;
    }
    for (Dir d : t.directions(t.coord(cur))) {
      auto nb = ref_neighbor(t, cur, d);
      if (!nb || dead[static_cast<std::size_t>(*nb)]) continue;
      const int nh = h + 1;
      const int ng =
          g + ((degraded[static_cast<std::size_t>(cur)] & dir_bit(d)) ? 1 : 0);
      auto& bh = hops[static_cast<std::size_t>(*nb)];
      auto& bg = degs[static_cast<std::size_t>(*nb)];
      if (nh > bh || (nh == bh && ng >= bg)) continue;
      bh = nh;
      bg = ng;
      first[static_cast<std::size_t>(*nb)] =
          cur == src ? static_cast<std::int8_t>(d.index())
                     : first[static_cast<std::size_t>(cur)];
      pq.emplace(nh, ng, seq++, *nb);
    }
  }
  first[static_cast<std::size_t>(src)] = -1;
  return first;
}

// Wrapped and unwrapped, 1-D to 4-D, with extent-1 and extent-2 dimensions
// (no links, and both directions reaching the same neighbour).
class RouteTableSweep
    : public ::testing::TestWithParam<std::tuple<Coord, bool>> {
 protected:
  [[nodiscard]] Torus torus() const {
    return Torus(std::get<0>(GetParam()), std::get<1>(GetParam()));
  }
};

TEST_P(RouteTableSweep, NeighborRankFormMatchesCoordinateForm) {
  const Torus t = torus();
  for (Rank r = 0; r < t.size(); ++r) {
    for (int i = 0; i < 2 * t.ndims(); ++i) {
      const Dir d = Dir::from_index(i);
      EXPECT_EQ(t.neighbor(r, d), ref_neighbor(t, r, d))
          << "rank " << r << " dir " << d.str();
    }
    for (int i = 2 * t.ndims(); i < 2 * kMaxDims; ++i) {
      EXPECT_FALSE(t.neighbor(r, Dir::from_index(i))) << "dim out of range";
    }
  }
}

// Property: on random dead sets, degraded-link maps and sources, both
// route_table_avoiding forms equal the reference tables exactly — same
// first hops, same unreachable ranks, same tie-breaks.
TEST_P(RouteTableSweep, BfsMatchesCoordinateReferenceOnRandomFailures) {
  const Torus t = torus();
  const auto n = static_cast<std::size_t>(t.size());
  meshmp::sim::Rng rng(n * 2 + std::get<1>(GetParam()));
  for (int trial = 0; trial < 430; ++trial) {
    // From no failures up to half the machine dead, so both sparse detours
    // and disconnected remnants occur; likewise from no degraded links (the
    // plain-table path) up to a third of them.
    const double p_dead = trial % 4 == 0 ? 0.0 : 0.5 * rng.uniform01();
    const double p_deg = trial % 3 == 0 ? 0.0 : rng.uniform01() / 3;
    std::vector<bool> dead(n, false);
    std::vector<DirMask> degraded(n, 0);
    for (std::size_t r = 0; r < n; ++r) {
      dead[r] = rng.bernoulli(p_dead);
      for (int i = 0; i < 2 * t.ndims(); ++i) {
        if (rng.bernoulli(p_deg)) degraded[r] |= DirMask{1} << i;
      }
    }
    const auto src = static_cast<Rank>(rng.below(n));
    ASSERT_EQ(t.route_table_avoiding(src, dead), ref_route_table(t, src, dead))
        << "trial " << trial << " src " << src;
    ASSERT_EQ(t.route_table_avoiding(src, dead, degraded),
              ref_route_table(t, src, dead, degraded))
        << "trial " << trial << " src " << src;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, RouteTableSweep,
    ::testing::Combine(::testing::Values(Coord{4, 4, 6}, Coord{4, 8, 8},
                                         Coord{2, 4, 4}, Coord{1, 4, 3},
                                         Coord{8}, Coord{6, 6},
                                         Coord{2, 3, 4, 2}),
                       ::testing::Bool()),
    [](const auto& info) {
      const Coord& shape = std::get<0>(info.param);
      std::string name;
      for (int d = 0; d < shape.ndims(); ++d) {
        if (d) name += "x";
        name += std::to_string(shape[d]);
      }
      return name + (std::get<1>(info.param) ? "_torus" : "_mesh");
    });

// --- Region partition -----------------------------------------------------

class PartitionSweep
    : public ::testing::TestWithParam<std::pair<Coord, Rank>> {};

TEST_P(PartitionSweep, CoversAllNodesDisjointly) {
  const auto& [shape, root] = GetParam();
  const Torus t(shape);
  const auto part = make_region_partition(t, root);
  EXPECT_EQ(part.num_regions(), t.ports());
  std::set<Rank> seen;
  for (const auto& region : part.members) {
    for (Rank r : region) {
      EXPECT_TRUE(seen.insert(r).second) << "rank in two regions";
    }
  }
  EXPECT_EQ(static_cast<Rank>(seen.size()), t.size() - 1);
  EXPECT_EQ(part.region_of[static_cast<std::size_t>(root)], -1);
}

TEST_P(PartitionSweep, RegionsReachableMinimallyViaTheirLink) {
  const auto& [shape, root] = GetParam();
  const Torus t(shape);
  const auto part = make_region_partition(t, root);
  const Coord root_c = t.coord(root);
  for (int i = 0; i < part.num_regions(); ++i) {
    const Dir link = part.region_dir[static_cast<std::size_t>(i)];
    for (Rank r : part.members[static_cast<std::size_t>(i)]) {
      auto first = t.neighbor(root_c, link);
      ASSERT_TRUE(first);
      EXPECT_EQ(1 + t.distance(t.rank(*first), r), t.distance(root, r))
          << "node " << t.coord(r).str() << " not minimal via " << link.str();
    }
  }
}

TEST_P(PartitionSweep, RegionsAreBalanced) {
  const auto& [shape, root] = GetParam();
  const Torus t(shape);
  const auto part = make_region_partition(t, root);
  std::size_t lo = static_cast<std::size_t>(t.size());
  std::size_t hi = 0;
  for (const auto& region : part.members) {
    lo = std::min(lo, region.size());
    hi = std::max(hi, region.size());
  }
  // Perfect balance is (p-1)/k; geometry can force some skew (e.g. the 4-deep
  // dimension of 4x8x8 owns fewer minimal routes), but the greedy pass must
  // stay within 2x of ideal.
  const double ideal =
      static_cast<double>(t.size() - 1) / part.members.size();
  EXPECT_GE(static_cast<double>(lo), ideal * 0.4);
  EXPECT_LE(static_cast<double>(hi), ideal * 2.0);
}

TEST_P(PartitionSweep, MembersAreFurthestDistanceFirst) {
  const auto& [shape, root] = GetParam();
  const Torus t(shape);
  const auto part = make_region_partition(t, root);
  for (const auto& region : part.members) {
    for (std::size_t i = 1; i < region.size(); ++i) {
      EXPECT_GE(t.distance(root, region[i - 1]), t.distance(root, region[i]));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, PartitionSweep,
    ::testing::Values(std::pair{Coord{8, 8}, Rank{0}},
                      std::pair{Coord{8, 8}, Rank{27}},
                      std::pair{Coord{4, 8, 8}, Rank{0}},
                      std::pair{Coord{4, 8, 8}, Rank{133}},
                      std::pair{Coord{6, 8, 8}, Rank{0}},
                      std::pair{Coord{5, 5}, Rank{12}}),
    [](const auto& info) {
      std::string name;
      for (int d = 0; d < info.param.first.ndims(); ++d) {
        if (d) name += "x";
        name += std::to_string(info.param.first[d]);
      }
      return name + "_root" + std::to_string(info.param.second);
    });

TEST(Switched, Distances) {
  const SwitchedTopology s{128};
  EXPECT_EQ(s.size(), 128);
  EXPECT_EQ(s.distance(3, 3), 0);
  EXPECT_EQ(s.distance(3, 99), 1);
}

}  // namespace
