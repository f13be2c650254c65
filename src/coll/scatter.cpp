#include "coll/scatter.hpp"

#include <cassert>
#include <cstring>
#include <deque>
#include <stdexcept>
#include <utility>

#include "obs/trace.hpp"

namespace meshmp::coll {

using sim::Task;

namespace {

constexpr std::size_t kMaxHops = 22;

/// Routing header prepended to every store-and-forward payload.
struct RouteHead {
  std::int32_t dest = 0;
  std::int32_t src = 0;  ///< original sender (the scatter's root)
  std::uint8_t nhops = 0;
  std::uint8_t hop_idx = 0;
  std::uint8_t dirs[kMaxHops] = {};
};

std::vector<std::byte> wrap(const RouteHead& head,
                            std::span<const std::byte> payload) {
  std::vector<std::byte> out(sizeof(RouteHead) + payload.size());
  // meshmp-lint: host-copy(routing-header marshalling; wire time is modeled
  // when the wrapped message enters the endpoint send path)
  std::memcpy(out.data(), &head, sizeof(RouteHead));
  if (!payload.empty()) {
    std::memcpy(out.data() + sizeof(RouteHead), payload.data(),
                payload.size());
  }
  return out;
}

RouteHead head_of(const std::vector<std::byte>& msg) {
  if (msg.size() < sizeof(RouteHead)) {
    throw std::runtime_error("scatter: truncated routing header");
  }
  RouteHead h;
  // meshmp-lint: host-copy(header peek; fixed 16-byte decode)
  std::memcpy(&h, msg.data(), sizeof(RouteHead));
  return h;
}

std::vector<std::byte> strip(std::vector<std::byte> msg) {
  msg.erase(msg.begin(), msg.begin() + sizeof(RouteHead));
  return msg;
}

RouteHead make_head(topo::Rank src, topo::Rank dest,
                    const std::vector<topo::Dir>& route) {
  if (route.size() > kMaxHops) {
    throw std::invalid_argument("scatter: route longer than kMaxHops");
  }
  RouteHead h;
  h.dest = dest;
  h.src = src;
  h.nhops = static_cast<std::uint8_t>(route.size());
  for (std::size_t i = 0; i < route.size(); ++i) {
    h.dirs[i] = static_cast<std::uint8_t>(route[i].index());
  }
  return h;
}

/// Adds `route`'s interior nodes (everything between endpoints) to counts.
void count_interior(const topo::Torus& t, topo::Rank from,
                    const std::vector<topo::Dir>& route,
                    std::vector<int>& counts) {
  topo::Coord cur = t.coord(from);
  for (std::size_t i = 0; i + 1 < route.size(); ++i) {
    auto n = t.neighbor(cur, route[i]);
    assert(n);
    cur = *n;
    ++counts[static_cast<std::size_t>(t.rank(cur))];
  }
}

/// The ranks strictly upstream of `me` on `route` (the root plus every
/// interior hop before `me`): if any of them dies before forwarding, the
/// message can never reach `me`.
std::vector<topo::Rank> upstream_of(const topo::Torus& t, topo::Rank root,
                                    const std::vector<topo::Dir>& route,
                                    topo::Rank me) {
  std::vector<topo::Rank> up{root};
  topo::Coord cur = t.coord(root);
  for (std::size_t i = 0; i + 1 < route.size(); ++i) {
    auto n = t.neighbor(cur, route[i]);
    assert(n);
    cur = *n;
    const topo::Rank r = t.rank(cur);
    if (r == me) break;
    up.push_back(r);
  }
  return up;
}

/// Advances the routing header by one hop; returns the next-hop rank.
topo::Rank advance(const topo::Torus& t, topo::Rank me,
                   std::vector<std::byte>& msg) {
  RouteHead h = head_of(msg);
  if (h.hop_idx >= h.nhops) {
    throw std::runtime_error("scatter: route exhausted before destination");
  }
  const topo::Dir dir = topo::Dir::from_index(h.dirs[h.hop_idx]);
  ++h.hop_idx;
  // meshmp-lint: host-copy(in-place header rewrite while forwarding)
  std::memcpy(msg.data(), &h, sizeof(RouteHead));
  auto next = t.neighbor(me, dir);
  assert(next);
  return *next;
}

/// The previous hop of a received message (for single-port hop acks).
topo::Rank prev_hop(const topo::Torus& t, topo::Rank me,
                    const RouteHead& h) {
  assert(h.hop_idx >= 1);
  const topo::Dir came = topo::Dir::from_index(h.dirs[h.hop_idx - 1]);
  auto prev = t.neighbor(me, came.opposite());
  assert(prev);
  return *prev;
}

/// One store-and-forward participant.
///
/// The paper's two algorithms differ in port discipline (sec. 5.2):
///  * SDF runs in *single-port* mode — a node selects and transmits one
///    message per time step. We model the time step with a per-hop
///    acknowledgement: the worker may not start the next transmission until
///    the previous hop is acknowledged. A dedicated receiver coroutine acks
///    incoming messages immediately, so ack delivery never depends on the
///    (possibly busy) worker and the system cannot deadlock.
///  * OPT runs in *multi-port* mode — all links transmit concurrently, so
///    emissions and forwards are simply spawned in plan order.
struct Participant {
  Participant(mp::Endpoint& e, const topo::Torus& torus, int data_tag,
              bool sp)
      : ep(e), t(torus), tag(data_tag), ack_tag(data_tag + 1),
        single_port(sp) {}

  mp::Endpoint& ep;
  const topo::Torus& t;
  int tag;       ///< data messages
  int ack_tag;   ///< single-port hop acks (tag + 1)
  bool single_port;

  /// Messages this node must emit itself (root chunks / gather contribution),
  /// already wrapped, paired with their first-hop rank.
  std::vector<std::pair<topo::Rank, std::vector<std::byte>>> emissions;
  /// Messages passing through (set by the plan).
  int forward_count = 0;
  /// Number of messages addressed to this node.
  int deliveries = 0;

  /// Failure awareness (scatter only). The receiver tracks each expected
  /// message with the ranks upstream of this node on its route; a cancelled
  /// receive (msg.ok == false) makes it give up on every expectation whose
  /// upstream path crossed a now-dead node. Gather and alltoall set neither
  /// and receive exactly forward_count + deliveries messages.
  std::function<bool(topo::Rank)> is_dead;
  struct Expected {
    topo::Rank dest = 0;
    std::vector<topo::Rank> upstream;  ///< root + interior hops before me
    bool resolved = false;
  };
  std::vector<Expected> expected;

  std::vector<std::vector<std::byte>> delivered;  // stripped payload + head
  std::vector<RouteHead> delivered_heads;

  Task<> run() {
    sim::Queue<std::vector<std::byte>> work(ep.engine());
    sim::TaskGroup group(ep.engine());
    group.add(receiver(work));
    group.add(worker(work));
    co_await group.join();
  }

 private:
  Task<> send_ack(topo::Rank to) {
    co_await ep.send(static_cast<int>(to), ack_tag, buf::Slice{});
  }

  Task<> receiver(sim::Queue<std::vector<std::byte>>& work) {
    sim::TaskGroup acks(ep.engine());
    // A scatter ends once each expectation is received or given up; gather
    // and alltoall, which have none, once every message has arrived.
    int unresolved = expected.empty() ? forward_count + deliveries
                                      : static_cast<int>(expected.size());
    while (unresolved > 0) {
      mp::Message msg = co_await ep.recv(mp::Endpoint::kAny, tag);
      if (!msg.ok) {
        // Cancellation wake after a confirmed death: give up on every
        // message whose upstream path crossed a dead node. Anything else is
        // still in flight on live hops and is re-awaited.
        for (Expected& e : expected) {
          if (e.resolved) continue;
          bool doomed = false;
          for (topo::Rank u : e.upstream) doomed = doomed || is_dead(u);
          if (!doomed) continue;
          e.resolved = true;
          --unresolved;
          if (e.dest != ep.rank()) {
            work.push({});  // poison keeps the worker's forward count honest
          }
        }
        continue;
      }
      const RouteHead h = head_of(msg.data);
      if (single_port) {
        acks.add(send_ack(prev_hop(t, ep.rank(), h)));
      }
      if (expected.empty()) --unresolved;
      for (Expected& e : expected) {
        if (!e.resolved && e.dest == h.dest) {
          e.resolved = true;
          --unresolved;
          break;
        }
      }
      if (h.dest == ep.rank()) {
        delivered_heads.push_back(h);
        delivered.push_back(strip(std::move(msg.data)));
      } else {
        work.push(std::move(msg.data));
      }
    }
    co_await acks.join();
  }

  // Single-port pacing: a transmission may start only when at most one
  // earlier one is still unacknowledged — message k+1 overlaps the ack of
  // message k, so the port advances one message per hop period, which is the
  // paper's one-message-per-time-step discipline.
  std::deque<topo::Rank> outstanding;

  Task<> await_oldest_ack() {
    const topo::Rank oldest = outstanding.front();
    outstanding.pop_front();
    for (;;) {
      // A corpse never acks; a cancellation wake (ok == false) means the
      // membership view changed, so re-check before waiting again.
      if (is_dead && is_dead(oldest)) co_return;
      mp::Message m = co_await ep.recv(static_cast<int>(oldest), ack_tag);
      if (m.ok || !is_dead) co_return;
    }
  }

  Task<> transmit(topo::Rank next, std::vector<std::byte> msg) {
    if (is_dead && is_dead(next)) co_return;  // don't feed a known corpse
    if (single_port) {
      while (outstanding.size() >= 2) {
        co_await await_oldest_ack();
      }
      outstanding.push_back(next);
    }
    co_await ep.send(static_cast<int>(next), tag, std::move(msg));
  }

  Task<> drain_outstanding() {
    while (!outstanding.empty()) {
      co_await await_oldest_ack();
    }
  }

  Task<> worker(sim::Queue<std::vector<std::byte>>& work) {
    std::int32_t trk = -1;
    MESHMP_TRACE_TRACK(trk, ep.rank(), "coll");
    sim::TaskGroup group(ep.engine());
    // Own emissions first (FCFS / region order fixed by the plan)...
    if (!emissions.empty()) {
      MESHMP_TRACE_SCOPE_ARG(ep.engine(), obs::Cat::kColl, ep.rank(), trk,
                             "emit_phase", "msgs", emissions.size());
      for (auto& [next, msg] : emissions) {
        if (single_port) {
          co_await transmit(next, std::move(msg));
        } else {
          group.add(transmit(next, std::move(msg)));
        }
      }
    }
    // ...then everything passing through.
    if (forward_count > 0) {
      MESHMP_TRACE_SCOPE_ARG(ep.engine(), obs::Cat::kColl, ep.rank(), trk,
                             "forward_phase", "msgs", forward_count);
      for (int i = 0; i < forward_count; ++i) {
        std::vector<std::byte> msg = co_await work.pop();
        if (msg.empty()) continue;  // poison: a doomed forward, nothing to do
        const topo::Rank next = advance(t, ep.rank(), msg);
        if (single_port) {
          co_await transmit(next, std::move(msg));
        } else {
          group.add(transmit(next, std::move(msg)));
        }
      }
    }
    if (single_port) co_await drain_outstanding();
    co_await group.join();
  }
};

}  // namespace

ScatterPlan make_scatter_plan(const topo::Torus& t, topo::Rank root,
                              ScatterAlg alg) {
  ScatterPlan plan;
  plan.root = root;
  plan.routes.resize(static_cast<std::size_t>(t.size()));
  plan.forward_count.assign(static_cast<std::size_t>(t.size()), 0);

  if (alg == ScatterAlg::kSdf) {
    // First-Come-First-Served in destination order; SDF routes throughout.
    for (topo::Rank d = 0; d < t.size(); ++d) {
      if (d == root) continue;
      plan.routes[static_cast<std::size_t>(d)] =
          t.route(t.coord(root), t.coord(d));
      plan.emit_order.push_back(d);
    }
  } else {
    // OPT: region partition + Furthest-Distance-First, emitted round-robin
    // across the root's links so all ports stream in parallel.
    const auto part = topo::make_region_partition(t, root);
    std::size_t round = 0;
    for (bool any = true; any; ++round) {
      any = false;
      for (int region = 0; region < part.num_regions(); ++region) {
        const auto& members =
            part.members[static_cast<std::size_t>(region)];
        if (round >= members.size()) continue;
        any = true;
        const topo::Rank d = members[round];
        plan.routes[static_cast<std::size_t>(d)] = t.route_via(
            t.coord(root), t.coord(d),
            part.region_dir[static_cast<std::size_t>(region)]);
        plan.emit_order.push_back(d);
      }
    }
  }

  for (topo::Rank d = 0; d < t.size(); ++d) {
    if (d == root) continue;
    count_interior(t, root, plan.routes[static_cast<std::size_t>(d)],
                   plan.forward_count);
  }
  return plan;
}

Task<std::vector<std::byte>> scatter(
    mp::Endpoint& ep, topo::Rank root,
    const std::vector<std::vector<std::byte>>* chunks, int tag,
    ScatterAlg alg) {
  ScatterResult res = co_await scatter_failaware(
      ep, root, chunks, tag, alg, [](topo::Rank) { return false; });
  co_return std::move(res.data);
}

Task<ScatterResult> scatter_failaware(
    mp::Endpoint& ep, topo::Rank root,
    const std::vector<std::vector<std::byte>>* chunks, int tag, ScatterAlg alg,
    std::function<bool(topo::Rank)> is_dead) {
  const topo::Torus& t = ep.agent().torus();
  const topo::Rank me = ep.rank();
  std::int32_t trk = -1;
  MESHMP_TRACE_TRACK(trk, me, "coll");
  MESHMP_TRACE_SCOPE_ARG(ep.engine(), obs::Cat::kColl, me, trk, "scatter",
                         "root", root);
  const ScatterPlan plan = make_scatter_plan(t, root, alg);

  Participant part(ep, t, tag, alg == ScatterAlg::kSdf);
  part.is_dead = std::move(is_dead);

  // Every message passing through me, tracked with its upstream ranks.
  for (topo::Rank d = 0; d < t.size(); ++d) {
    if (d == root || d == me) continue;
    const auto& route = plan.routes[static_cast<std::size_t>(d)];
    topo::Coord cur = t.coord(root);
    for (std::size_t i = 0; i + 1 < route.size(); ++i) {
      auto n = t.neighbor(cur, route[i]);
      assert(n);
      cur = *n;
      if (t.rank(cur) == me) {
        part.expected.push_back(
            {d, upstream_of(t, root, route, me), false});
        break;
      }
    }
  }
  part.forward_count = static_cast<int>(part.expected.size());

  ScatterResult res;
  if (me == root) {
    if (chunks == nullptr ||
        chunks->size() != static_cast<std::size_t>(t.size())) {
      throw std::invalid_argument("scatter: root needs size() chunks");
    }
    res.data = (*chunks)[static_cast<std::size_t>(root)];
    for (topo::Rank d : plan.emit_order) {
      const auto& route = plan.routes[static_cast<std::size_t>(d)];
      RouteHead h = make_head(root, d, route);
      h.hop_idx = 1;  // the root itself performs hop 0
      auto next = t.neighbor(root, route.front());
      assert(next);
      part.emissions.emplace_back(
          *next, wrap(h, (*chunks)[static_cast<std::size_t>(d)]));
    }
  } else {
    if (chunks != nullptr) {
      throw std::invalid_argument("scatter: only the root passes chunks");
    }
    part.deliveries = 1;
    part.expected.push_back(
        {me, upstream_of(t, root, plan.routes[static_cast<std::size_t>(me)],
                         me),
         false});
  }

  co_await part.run();
  if (me != root) {
    // A payload that arrived before (or despite) the doom verdict wins.
    if (!part.delivered.empty()) {
      res.data = std::move(part.delivered.front());
    } else {
      res.ok = false;
    }
  }
  co_return res;
}

Task<std::vector<std::vector<std::byte>>> gather(mp::Endpoint& ep,
                                                 topo::Rank root,
                                                 std::vector<std::byte> mine,
                                                 int tag, ScatterAlg alg) {
  const topo::Torus& t = ep.agent().torus();
  const topo::Rank me = ep.rank();
  std::int32_t trk = -1;
  MESHMP_TRACE_TRACK(trk, me, "coll");
  MESHMP_TRACE_SCOPE_ARG(ep.engine(), obs::Cat::kColl, me, trk, "gather",
                         "root", root);
  // Reverse of the scatter plan: each contribution walks the scatter route
  // backwards (so the OPT variant keeps its region/streamline structure).
  const ScatterPlan plan = make_scatter_plan(t, root, alg);

  auto reverse_route = [&](topo::Rank src) {
    const auto& fwd = plan.routes[static_cast<std::size_t>(src)];
    std::vector<topo::Dir> rev(fwd.rbegin(), fwd.rend());
    for (auto& d : rev) d = d.opposite();
    return rev;
  };

  std::vector<int> counts(static_cast<std::size_t>(t.size()), 0);
  for (topo::Rank s = 0; s < t.size(); ++s) {
    if (s == root) continue;
    count_interior(t, s, reverse_route(s), counts);
  }

  Participant part(ep, t, tag, alg == ScatterAlg::kSdf);
  part.forward_count = counts[static_cast<std::size_t>(me)];

  std::vector<std::vector<std::byte>> all;
  if (me == root) {
    all.resize(static_cast<std::size_t>(t.size()));
    all[static_cast<std::size_t>(root)] = std::move(mine);
    part.deliveries = t.size() - 1;
  } else {
    const auto route = reverse_route(me);
    RouteHead h = make_head(me, root, route);
    h.hop_idx = 1;
    auto next = t.neighbor(me, route.front());
    assert(next);
    part.emissions.emplace_back(*next, wrap(h, mine));
  }

  co_await part.run();
  if (me == root) {
    for (std::size_t i = 0; i < part.delivered.size(); ++i) {
      all[static_cast<std::size_t>(part.delivered_heads[i].src)] =
          std::move(part.delivered[i]);
    }
  }
  co_return all;
}

Task<std::vector<std::vector<std::byte>>> alltoall(
    mp::Endpoint& ep, std::vector<std::vector<std::byte>> chunks, int tag,
    ScatterAlg alg) {
  const topo::Torus& t = ep.agent().torus();
  const topo::Rank me = ep.rank();
  if (chunks.size() != static_cast<std::size_t>(t.size())) {
    throw std::invalid_argument("alltoall: need size() chunks");
  }
  std::int32_t trk = -1;
  MESHMP_TRACE_TRACK(trk, me, "coll");
  MESHMP_TRACE_SCOPE_ARG(ep.engine(), obs::Cat::kColl, me, trk, "alltoall",
                         "ranks", t.size());

  // All size() simultaneous scatters share the wires; multi-port transport
  // regardless of the route-planning algorithm (the paper parallelizes the
  // per-root scatters).
  Participant part(ep, t, tag, /*single_port=*/false);
  std::vector<std::vector<std::vector<topo::Dir>>> routes(
      static_cast<std::size_t>(t.size()));
  {
    std::vector<int> counts(static_cast<std::size_t>(t.size()), 0);
    for (topo::Rank root = 0; root < t.size(); ++root) {
      const ScatterPlan plan = make_scatter_plan(t, root, alg);
      routes[static_cast<std::size_t>(root)] = plan.routes;
      for (topo::Rank d = 0; d < t.size(); ++d) {
        if (d == root) continue;
        count_interior(t, root, plan.routes[static_cast<std::size_t>(d)],
                       counts);
      }
    }
    part.forward_count = counts[static_cast<std::size_t>(me)];
  }
  part.deliveries = t.size() - 1;

  std::vector<std::vector<std::byte>> got(
      static_cast<std::size_t>(t.size()));
  got[static_cast<std::size_t>(me)] =
      std::move(chunks[static_cast<std::size_t>(me)]);

  for (topo::Rank d = 0; d < t.size(); ++d) {
    if (d == me) continue;
    const auto& route = routes[static_cast<std::size_t>(me)]
                              [static_cast<std::size_t>(d)];
    RouteHead h = make_head(me, d, route);
    h.hop_idx = 1;
    auto next = t.neighbor(me, route.front());
    assert(next);
    part.emissions.emplace_back(
        *next, wrap(h, chunks[static_cast<std::size_t>(d)]));
  }

  co_await part.run();
  for (std::size_t i = 0; i < part.delivered.size(); ++i) {
    got[static_cast<std::size_t>(part.delivered_heads[i].src)] =
        std::move(part.delivered[i]);
  }
  co_return got;
}

}  // namespace meshmp::coll
