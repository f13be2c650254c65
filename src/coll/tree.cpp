#include "coll/tree.hpp"

#include <cassert>

#include "buf/pool.hpp"
#include "obs/trace.hpp"
#include "topo/spanning_tree.hpp"

namespace meshmp::coll {

using sim::Task;

Task<> broadcast(mp::Endpoint& ep, topo::Rank root,
                 std::vector<std::byte>& data, int tag) {
  const topo::Torus& t = ep.agent().torus();
  const topo::Rank me = ep.rank();
  std::int32_t trk = -1;
  MESHMP_TRACE_TRACK(trk, me, "coll");
  MESHMP_TRACE_SCOPE_ARG(ep.engine(), obs::Cat::kColl, me, trk, "broadcast",
                         "bytes", data.size());
  if (auto parent = topo::bcast_parent(t, root, me)) {
    mp::Message msg = co_await ep.recv(static_cast<int>(*parent), tag);
    data = std::move(msg.data);
  }
  // Forward to all children concurrently (the node's multi-port capability:
  // different children sit behind different adapters). Stage the payload
  // into the pool once; every child send aliases the same slice.
  const auto kids = topo::bcast_children(t, root, me);
  if (kids.empty()) co_return;
  const buf::Slice shared = buf::Pool::instance().stage(data);
  sim::TaskGroup group(ep.engine());
  for (topo::Rank kid : kids) {
    group.add(ep.send(static_cast<int>(kid), tag, shared));
  }
  co_await group.join();
}

Task<> reduce(mp::Endpoint& ep, topo::Rank root, std::vector<std::byte>& data,
              const ReduceOp& op, int tag) {
  const topo::Torus& t = ep.agent().torus();
  const topo::Rank me = ep.rank();
  std::int32_t trk = -1;
  MESHMP_TRACE_TRACK(trk, me, "coll");
  MESHMP_TRACE_SCOPE_ARG(ep.engine(), obs::Cat::kColl, me, trk, "reduce",
                         "bytes", data.size());
  auto& cpu = ep.agent().node().cpu();
  // Receive partials from every child (any arrival order), combine, pass on.
  const auto kids = topo::bcast_children(t, root, me);
  for (std::size_t i = 0; i < kids.size(); ++i) {
    (void)i;
    mp::Message msg = co_await ep.recv(mp::Endpoint::kAny, tag);
    op.combine(data, msg.data);
    if (op.flops_per_byte > 0) {
      co_await cpu.compute_flops(op.flops_per_byte *
                                 static_cast<double>(data.size()));
    }
  }
  if (auto parent = topo::bcast_parent(t, root, me)) {
    co_await ep.send(static_cast<int>(*parent), tag,
                     buf::Pool::instance().stage(data));
  }
}

Task<> allreduce(mp::Endpoint& ep, std::vector<std::byte>& data,
                 const ReduceOp& op, int tag) {
  constexpr topo::Rank kRoot = 0;
  co_await reduce(ep, kRoot, data, op, tag);
  co_await broadcast(ep, kRoot, data, tag + 1);
}

Task<> barrier(mp::Endpoint& ep, int tag) {
  std::vector<std::byte> nothing;
  co_await allreduce(ep, nothing, null_op(), tag);
}

// -- quorum-gated (partition-safe) collectives ------------------------------

namespace {

// Worst-of combination: a minority refusal outranks an unreachable peer
// (it explains *why* and is retryable after the heal), which outranks kOk.
mp::SendStatus worst(mp::SendStatus a, mp::SendStatus b) {
  if (a == mp::SendStatus::kMinorityPartition ||
      b == mp::SendStatus::kMinorityPartition) {
    return mp::SendStatus::kMinorityPartition;
  }
  if (a == mp::SendStatus::kUnreachable || b == mp::SendStatus::kUnreachable) {
    return mp::SendStatus::kUnreachable;
  }
  return mp::SendStatus::kOk;
}

}  // namespace

Task<mp::SendStatus> broadcast_quorum(mp::Endpoint& ep, topo::Rank root,
                                      std::vector<std::byte>& data, int tag,
                                      const std::vector<bool>& dead) {
  if (ep.agent().minority()) co_return mp::SendStatus::kMinorityPartition;
  const topo::Torus& t = ep.agent().torus();
  const topo::Rank me = ep.rank();
  std::int32_t trk = -1;
  MESHMP_TRACE_TRACK(trk, me, "coll");
  MESHMP_TRACE_SCOPE_ARG(ep.engine(), obs::Cat::kColl, me, trk,
                         "broadcast_quorum", "bytes", data.size());
  if (auto parent = topo::survivor_parent(t, root, me, dead)) {
    mp::Message msg = co_await ep.recv(static_cast<int>(*parent), tag);
    if (!msg.ok) co_return mp::SendStatus::kUnreachable;
    data = std::move(msg.data);
  }
  const auto kids = topo::survivor_children(t, root, me, dead);
  mp::SendStatus st = mp::SendStatus::kOk;
  if (!kids.empty()) {
    // Sequential forwarding so each child's status is observed; a failed
    // child marks the whole operation instead of being dropped on the floor.
    const buf::Slice shared = buf::Pool::instance().stage(data);
    for (topo::Rank kid : kids) {
      const mp::SendStatus s =
          co_await ep.send(static_cast<int>(kid), tag, shared);
      st = worst(st, s);
    }
  }
  co_return st;
}

Task<mp::SendStatus> reduce_quorum(mp::Endpoint& ep, topo::Rank root,
                                   std::vector<std::byte>& data,
                                   const ReduceOp& op, int tag,
                                   const std::vector<bool>& dead) {
  if (ep.agent().minority()) co_return mp::SendStatus::kMinorityPartition;
  const topo::Torus& t = ep.agent().torus();
  const topo::Rank me = ep.rank();
  std::int32_t trk = -1;
  MESHMP_TRACE_TRACK(trk, me, "coll");
  MESHMP_TRACE_SCOPE_ARG(ep.engine(), obs::Cat::kColl, me, trk,
                         "reduce_quorum", "bytes", data.size());
  auto& cpu = ep.agent().node().cpu();
  mp::SendStatus st = mp::SendStatus::kOk;
  const auto kids = topo::survivor_children(t, root, me, dead);
  for (std::size_t i = 0; i < kids.size(); ++i) {
    (void)i;
    mp::Message msg = co_await ep.recv(mp::Endpoint::kAny, tag);
    if (!msg.ok) {
      st = worst(st, mp::SendStatus::kUnreachable);
      continue;
    }
    op.combine(data, msg.data);
    if (op.flops_per_byte > 0) {
      co_await cpu.compute_flops(op.flops_per_byte *
                                 static_cast<double>(data.size()));
    }
  }
  if (auto parent = topo::survivor_parent(t, root, me, dead)) {
    const mp::SendStatus s =
        co_await ep.send(static_cast<int>(*parent), tag,
                         buf::Pool::instance().stage(data));
    st = worst(st, s);
  }
  co_return st;
}

Task<mp::SendStatus> allreduce_quorum(mp::Endpoint& ep,
                                      std::vector<std::byte>& data,
                                      const ReduceOp& op, int tag,
                                      const std::vector<bool>& dead) {
  topo::Rank root = 0;
  while (root < ep.agent().torus().size() &&
         dead[static_cast<std::size_t>(root)]) {
    ++root;
  }
  assert(root < ep.agent().torus().size() && "no survivors");
  const mp::SendStatus st1 =
      co_await reduce_quorum(ep, root, data, op, tag, dead);
  if (st1 == mp::SendStatus::kMinorityPartition) co_return st1;
  const mp::SendStatus st2 =
      co_await broadcast_quorum(ep, root, data, tag + 1, dead);
  co_return worst(st1, st2);
}

Task<mp::SendStatus> barrier_quorum(mp::Endpoint& ep, int tag,
                                    const std::vector<bool>& dead) {
  std::vector<std::byte> nothing;
  co_return co_await allreduce_quorum(ep, nothing, null_op(), tag, dead);
}

}  // namespace meshmp::coll
