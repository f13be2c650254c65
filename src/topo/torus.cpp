#include "topo/torus.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

namespace meshmp::topo {

Torus::Torus(Coord shape, bool wrap) : shape_(shape), wrap_(wrap) {
  if (shape.ndims() < 1 || shape.ndims() > kMaxDims) {
    throw std::invalid_argument("Torus: 1..4 dimensions supported");
  }
  std::int64_t n = 1;
  for (int d = 0; d < shape.ndims(); ++d) {
    if (shape[d] < 1) throw std::invalid_argument("Torus: extent must be >= 1");
    n *= shape[d];
  }
  size_ = static_cast<Rank>(n);
  nbr_.assign(row(size_), -1);
  for (Rank r = 0; r < size_; ++r) {
    const Coord c = coord(r);
    for (int i = 0; i < 2 * ndims(); ++i) {
      if (const auto nc = neighbor(c, Dir::from_index(i))) {
        nbr_[row(r) + static_cast<std::size_t>(i)] = rank(*nc);
      }
    }
  }
}

int Torus::ports() const noexcept {
  int p = 0;
  for (int d = 0; d < ndims(); ++d) {
    if (shape_[d] > 1) p += 2;
  }
  return p;
}

Rank Torus::rank(const Coord& c) const {
  assert(c.ndims() == ndims());
  Rank r = 0;
  for (int d = ndims() - 1; d >= 0; --d) {
    assert(c[d] >= 0 && c[d] < shape_[d]);
    r = r * shape_[d] + c[d];
  }
  return r;
}

Coord Torus::coord(Rank r) const {
  assert(r >= 0 && r < size_);
  Coord c = Coord::zeros(ndims());
  for (int d = 0; d < ndims(); ++d) {
    c[d] = static_cast<int>(r % shape_[d]);
    r /= shape_[d];
  }
  return c;
}

std::optional<Coord> Torus::neighbor(const Coord& c, Dir dir) const {
  assert(dir.dim >= 0 && dir.dim < ndims());
  const int extent = shape_[dir.dim];
  if (extent <= 1) return std::nullopt;
  Coord n = c;
  int x = c[dir.dim] + dir.sign;
  if (x < 0 || x >= extent) {
    if (!wrap_) return std::nullopt;
    x = (x + extent) % extent;
  }
  n[dir.dim] = x;
  return n;
}

int Torus::delta(const Coord& from, const Coord& to, int dim) const {
  const int extent = shape_[dim];
  int d = to[dim] - from[dim];
  if (wrap_ && extent > 1) {
    // Reduce into the minimal signed displacement; on an exact half-way tie
    // (both ways around the ring are minimal) prefer the positive direction.
    d %= extent;
    if (d > extent / 2) d -= extent;
    if (d < -(extent / 2)) d += extent;
    if (2 * std::abs(d) == extent && d < 0) d = -d;
  }
  return d;
}

int Torus::distance(const Coord& from, const Coord& to) const {
  int dist = 0;
  for (int d = 0; d < ndims(); ++d) dist += std::abs(delta(from, to, d));
  return dist;
}

int Torus::distance(Rank from, Rank to) const {
  return distance(coord(from), coord(to));
}

std::optional<Dir> Torus::sdf_next(const Coord& from, const Coord& to) const {
  return sdf_next_avoiding(from, to, 0);
}

std::optional<Dir> Torus::sdf_next_avoiding(const Coord& from, const Coord& to,
                                            DirMask avoid) const {
  int best_dim = -1;
  int best_steps = 0;
  Dir best{};
  for (int d = 0; d < ndims(); ++d) {
    const int dd = delta(from, to, d);
    const int steps = std::abs(dd);
    if (steps == 0) continue;
    // Preferred sign first; with a wraparound half-way tie the other way
    // around the ring is an equal-length fallback in the same dimension.
    Dir cand{static_cast<std::int8_t>(d),
             static_cast<std::int8_t>(dd > 0 ? +1 : -1)};
    if (avoid & dir_bit(cand)) {
      if (!(wrap_ && 2 * steps == shape_[d])) continue;
      cand = cand.opposite();
      if (avoid & dir_bit(cand)) continue;
    }
    if (best_dim < 0 || steps < best_steps) {
      best_dim = d;
      best_steps = steps;
      best = cand;
    }
  }
  if (best_dim < 0) return std::nullopt;
  return best;
}

std::optional<Dir> Torus::detour_next(const Coord& from, const Coord& to,
                                      DirMask avoid) const {
  // First choice: step along a dimension that needs no movement — the
  // detour rejoins a minimal route after exactly two extra hops.
  for (int d = 0; d < ndims(); ++d) {
    if (delta(from, to, d) != 0) continue;
    for (int sign : {+1, -1}) {
      const Dir dir{static_cast<std::int8_t>(d),
                    static_cast<std::int8_t>(sign)};
      if (avoid & dir_bit(dir)) continue;
      if (neighbor(from, dir)) return dir;
    }
  }
  // Last resort: the long way around a displaced dimension.
  for (int d = 0; d < ndims(); ++d) {
    const int dd = delta(from, to, d);
    if (dd == 0) continue;
    const Dir dir{static_cast<std::int8_t>(d),
                  static_cast<std::int8_t>(dd > 0 ? -1 : +1)};
    if (avoid & dir_bit(dir)) continue;
    if (neighbor(from, dir)) return dir;
  }
  return std::nullopt;
}

std::vector<Dir> Torus::minimal_first_hops(const Coord& from,
                                           const Coord& to) const {
  std::vector<Dir> dirs;
  for (int d = 0; d < ndims(); ++d) {
    const int extent = shape_[d];
    const int dd = delta(from, to, d);
    if (dd == 0) continue;
    dirs.push_back(Dir{static_cast<std::int8_t>(d),
                       static_cast<std::int8_t>(dd > 0 ? +1 : -1)});
    // With wraparound, a displacement of exactly extent/2 is minimal both
    // ways around the ring.
    if (wrap_ && 2 * std::abs(dd) == extent) {
      dirs.push_back(Dir{static_cast<std::int8_t>(d),
                         static_cast<std::int8_t>(dd > 0 ? -1 : +1)});
    }
  }
  return dirs;
}

std::vector<Dir> Torus::route(const Coord& from, const Coord& to) const {
  std::vector<Dir> hops;
  Coord cur = from;
  while (cur != to) {
    auto dir = sdf_next(cur, to);
    assert(dir);
    hops.push_back(*dir);
    auto n = neighbor(cur, *dir);
    assert(n);
    cur = *n;
  }
  return hops;
}

std::vector<Dir> Torus::route_via(const Coord& from, const Coord& to,
                                  Dir first) const {
  assert(from != to);
  std::vector<Dir> hops{first};
  auto n = neighbor(from, first);
  assert(n && "route_via: first hop leaves the mesh");
  auto rest = route(*n, to);
  hops.insert(hops.end(), rest.begin(), rest.end());
  return hops;
}

std::vector<std::int8_t> Torus::route_table_avoiding(
    Rank src, const std::vector<bool>& dead) const {
  assert(static_cast<Rank>(dead.size()) == size_);
  const int ndirs = 2 * ndims();
  std::vector<std::int8_t> first(static_cast<std::size_t>(size_), -1);
  std::vector<Rank> queue;
  queue.reserve(static_cast<std::size_t>(size_));
  queue.push_back(src);
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const Rank cur = queue[head];
    const Rank* nbrs = &nbr_[row(cur)];
    for (int i = 0; i < ndirs; ++i) {
      const Rank nb = nbrs[i];
      // Seen means src itself or a rank that already has a first hop.
      if (nb < 0 || nb == src || first[static_cast<std::size_t>(nb)] >= 0 ||
          dead[static_cast<std::size_t>(nb)]) {
        continue;
      }
      // The first hop toward a node is the first hop toward whichever live
      // node discovered it.
      first[static_cast<std::size_t>(nb)] =
          cur == src ? static_cast<std::int8_t>(i)
                     : first[static_cast<std::size_t>(cur)];
      queue.push_back(nb);
    }
  }
  return first;
}

std::vector<std::int8_t> Torus::route_table_avoiding(
    Rank src, const std::vector<bool>& dead,
    const std::vector<DirMask>& degraded) const {
  const bool any_degraded =
      std::any_of(degraded.begin(), degraded.end(),
                  [](DirMask m) { return m != 0; });
  if (!any_degraded) return route_table_avoiding(src, dead);
  assert(static_cast<Rank>(dead.size()) == size_);
  assert(static_cast<Rank>(degraded.size()) == size_);

  // Lexicographic shortest path on (hops, degraded links crossed): every
  // destination keeps its minimal hop count, and among equal-hop paths the
  // one using the fewest degraded egresses wins; ties go to the earliest
  // discovery, which reduces to plain BFS FIFO order when no costs differ,
  // so the table is deterministic. Every link is one hop, so the search
  // settles one BFS layer at a time: a layer's ranks expand in (crossings,
  // discovery) order, and each only ever improves ranks of the next layer.
  constexpr int kInf = 1 << 20;
  const int ndirs = 2 * ndims();
  // Per rank, the best (hops, crossings) found so far. Dead ranks start at
  // (0, 0) like src, which no path improves on, so they are never entered.
  std::vector<std::pair<int, int>> best(static_cast<std::size_t>(size_),
                                        {kInf, kInf});
  for (std::size_t r = 0; r < best.size(); ++r) {
    if (dead[r]) best[r] = {0, 0};
  }
  std::vector<std::int8_t> first(static_cast<std::size_t>(size_), -1);
  // Every discovery or improvement in order, layer after layer; an entry
  // whose crossings no longer match its rank's best was superseded. Ranks
  // expand once and relax each of their links once, which bounds its size.
  struct Entry {
    int deg;
    Rank rank;
  };
  std::vector<Entry> found;
  found.reserve(row(size_) + 1);
  found.push_back({0, src});
  best[static_cast<std::size_t>(src)] = {0, 0};
  std::size_t begin = 0;  // the current layer is found[begin, end)
  int lo = 0;             // and its entries' crossings lie in [lo, hi]
  int hi = 0;
  for (int h = 1; begin < found.size(); ++h) {
    const std::size_t end = found.size();
    int next_lo = kInf;
    int next_hi = -1;
    for (int g = lo; g <= hi; ++g) {
      for (std::size_t k = begin; k < end; ++k) {
        const Entry e = found[k];  // copied: found grows below
        const auto cur = static_cast<std::size_t>(e.rank);
        if (e.deg != g || best[cur].second != g) continue;
        const Rank* nbrs = &nbr_[row(e.rank)];
        for (int i = 0; i < ndirs; ++i) {
          const Rank nb = nbrs[i];
          if (nb < 0) continue;
          const std::pair<int, int> cand{
              h, g + static_cast<int>((degraded[cur] >> i) & 1u)};
          auto& b = best[static_cast<std::size_t>(nb)];
          if (cand >= b) continue;  // strict improvement only
          b = cand;
          first[static_cast<std::size_t>(nb)] =
              e.rank == src ? static_cast<std::int8_t>(i) : first[cur];
          found.push_back({cand.second, nb});
          next_lo = std::min(next_lo, cand.second);
          next_hi = std::max(next_hi, cand.second);
        }
      }
    }
    begin = end;
    lo = next_lo;
    hi = next_hi;
  }
  return first;
}

std::vector<std::pair<Rank, Dir>> Torus::bisection_links(int dim,
                                                         int cut) const {
  if (dim < 0 || dim >= ndims()) {
    throw std::invalid_argument("Torus::bisection_links: dimension not in [0, ndims)");
  }
  if (cut <= 0 || cut >= shape_[dim]) {
    throw std::invalid_argument("Torus::bisection_links: cut must leave both sides non-empty");
  }
  std::vector<std::pair<Rank, Dir>> links;
  for (Rank r = 0; r < size_; ++r) {
    const Coord c = coord(r);
    if (c[dim] >= cut) continue;  // low side only; each cable has one low end
    for (const int sign : {+1, -1}) {
      const Dir d{static_cast<std::int8_t>(dim), static_cast<std::int8_t>(sign)};
      const auto n = neighbor(c, d);
      if (!n) continue;
      if ((*n)[dim] >= cut) links.emplace_back(r, d);
    }
  }
  return links;
}

std::vector<Dir> Torus::directions(const Coord& c) const {
  std::vector<Dir> dirs;
  for (int d = 0; d < ndims(); ++d) {
    for (int sign : {+1, -1}) {
      Dir dir{static_cast<std::int8_t>(d), static_cast<std::int8_t>(sign)};
      if (neighbor(c, dir)) dirs.push_back(dir);
    }
  }
  return dirs;
}

}  // namespace meshmp::topo
