#pragma once

// Mesh/torus geometry: rank<->coordinate maps, neighbours, torus-aware
// distances, and the Shortest-Direction-First (SDF) next-hop rule used by the
// modified M-VIA's kernel packet switching (paper section 4, 5.1).

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "topo/coords.hpp"

namespace meshmp::topo {

/// Node index; row-major over coordinates, dimension 0 fastest.
using Rank = std::int32_t;

/// Bitmask over Dir::index() values, naming a node's failed (or otherwise
/// unusable) local links for failure-aware routing.
using DirMask = std::uint32_t;

inline DirMask dir_bit(Dir d) noexcept {
  return DirMask{1} << static_cast<unsigned>(d.index());
}

class Torus {
 public:
  /// `shape` gives the extent per dimension; `wrap` enables the wraparound
  /// links (the paper's clusters always have them; plain meshes do not).
  explicit Torus(Coord shape, bool wrap = true);

  [[nodiscard]] int ndims() const noexcept { return shape_.ndims(); }
  [[nodiscard]] const Coord& shape() const noexcept { return shape_; }
  [[nodiscard]] bool wraps() const noexcept { return wrap_; }
  [[nodiscard]] Rank size() const noexcept { return size_; }
  /// Number of links per node (ports): 2 per dimension, except dimensions of
  /// extent 1 (no links) and extent 2 without duplicate links.
  [[nodiscard]] int ports() const noexcept;

  [[nodiscard]] Rank rank(const Coord& c) const;
  [[nodiscard]] Coord coord(Rank r) const;

  /// Neighbour one step along `dir`, or nullopt at a non-wrapping edge or
  /// along a dimension of extent 1.
  [[nodiscard]] std::optional<Coord> neighbor(const Coord& c, Dir dir) const;
  /// Rank form of the above: one lookup in the neighbour table. Also
  /// nullopt for a direction along a dimension the torus does not have, so
  /// schedule validation can ask about any (rank, dir) pair.
  [[nodiscard]] std::optional<Rank> neighbor(Rank r, Dir dir) const {
    assert(r >= 0 && r < size_);
    if (dir.dim < 0 || dir.dim >= ndims()) return std::nullopt;
    const Rank n = nbr_[row(r) + static_cast<std::size_t>(dir.index())];
    if (n < 0) return std::nullopt;
    return n;
  }

  /// Signed minimal displacement from `from` to `to` along `dim`; with
  /// wraparound this lies in [-extent/2, +extent/2].
  [[nodiscard]] int delta(const Coord& from, const Coord& to, int dim) const;

  /// Minimal hop count between two nodes.
  [[nodiscard]] int distance(const Coord& from, const Coord& to) const;
  [[nodiscard]] int distance(Rank from, Rank to) const;

  /// Shortest-Direction-First next hop: among dimensions still needing
  /// movement, picks the one with the fewest remaining steps (ties go to the
  /// lowest dimension). Returns nullopt when from == to.
  [[nodiscard]] std::optional<Dir> sdf_next(const Coord& from,
                                            const Coord& to) const;

  /// All first-hop directions that start a minimal route from->to.
  [[nodiscard]] std::vector<Dir> minimal_first_hops(const Coord& from,
                                                    const Coord& to) const;

  /// Failure-aware SDF: the SDF rule restricted to minimal first hops whose
  /// direction is not in `avoid`. A torus has several minimal paths, so one
  /// failed link usually leaves a same-length alternative; the wraparound
  /// half-way tie adds an alternative within the same dimension too.
  /// Returns nullopt when from == to or when no minimal direction survives.
  [[nodiscard]] std::optional<Dir> sdf_next_avoiding(const Coord& from,
                                                     const Coord& to,
                                                     DirMask avoid) const;

  /// Detour first hop when no minimal direction survives: a usable direction
  /// that starts a +2-hop route (a step along an undisplaced dimension, or as
  /// a last resort the long way around a displaced one). Deterministic —
  /// lowest dimension, positive sign first. nullopt when every port is down.
  [[nodiscard]] std::optional<Dir> detour_next(const Coord& from,
                                               const Coord& to,
                                               DirMask avoid) const;

  /// Full SDF route (sequence of directions) from->to.
  [[nodiscard]] std::vector<Dir> route(const Coord& from,
                                       const Coord& to) const;

  /// Dimension-order route whose first hop is forced to `first`; the rest is
  /// the SDF route from the first intermediate node. Used by the OPT scatter
  /// to keep each message inside its region. `first` must be a minimal first
  /// hop.
  [[nodiscard]] std::vector<Dir> route_via(const Coord& from, const Coord& to,
                                           Dir first) const;

  /// All valid directions at a node (its ports).
  [[nodiscard]] std::vector<Dir> directions(const Coord& c) const;

  /// Full route recomputation for degraded mode: BFS over the subgraph of
  /// live nodes (`dead[r]` marks rank r unusable as hop or destination),
  /// returning the first-hop direction index (Dir::index()) from `src`
  /// toward every rank, or -1 for src itself, dead ranks, and destinations
  /// the failures disconnect. Deterministic: ranks are expanded in BFS
  /// order and directions in lowest-dimension, positive-sign-first order,
  /// so every survivor computes the same table for the same dead set.
  /// Expansion walks the neighbour table, so the only allocations are the
  /// returned table and the queue, each sized once to the torus.
  [[nodiscard]] std::vector<std::int8_t> route_table_avoiding(
      Rank src, const std::vector<bool>& dead) const;

  /// Quality-aware variant: `degraded[r]` is a DirMask naming rank r's
  /// degraded egress links. Among the shortest live routes (hop count
  /// exactly as in the 2-argument overload) it picks, per destination, a
  /// first hop on a path crossing the fewest degraded links — proactive
  /// avoidance of sick links that never lengthens a route. Deterministic:
  /// lexicographic (hops, degraded-crossings, discovery order) relaxation
  /// with strict-improvement updates; with an all-zero (or empty) mask it
  /// returns exactly the 2-argument table.
  [[nodiscard]] std::vector<std::int8_t> route_table_avoiding(
      Rank src, const std::vector<bool>& dead,
      const std::vector<DirMask>& degraded) const;

  /// All cables crossing the bisection of dimension `dim` at coordinate
  /// `cut`: the low side is every node with coord[dim] < cut, and a cable is
  /// listed once as (low-side rank, direction toward the high side). On a
  /// wrapped torus this includes the wraparound plane (the -dim links out of
  /// coord 0), so cutting the returned set genuinely disconnects the two
  /// sides. Requires 0 < cut < extent(dim); deterministic rank order.
  [[nodiscard]] std::vector<std::pair<Rank, Dir>> bisection_links(
      int dim, int cut) const;

 private:
  /// Offset of rank r's row in nbr_.
  [[nodiscard]] std::size_t row(Rank r) const noexcept {
    return static_cast<std::size_t>(r) * static_cast<std::size_t>(2 * ndims());
  }

  Coord shape_;
  bool wrap_;
  Rank size_;
  /// Neighbour table, built once by the constructor: rank r's row holds,
  /// per Dir::index(), the rank one step that way, or -1 where
  /// neighbor(Coord, Dir) has none.
  std::vector<Rank> nbr_;
};

}  // namespace meshmp::topo
