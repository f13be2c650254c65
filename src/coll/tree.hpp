#pragma once

// Mesh collective algorithms of paper sec. 5.2: dimension-ordered broadcast
// (along the x axis, then across the xy plane, then through all yz planes),
// its reverse as reduction, global combining (reduce + broadcast), and
// barrier (global combine with a null reduction).
//
// All functions are SPMD: every rank calls the same function; the result is
// what that rank ends up with. Tags must come from a per-operation tag space
// (the MPI/QMP layers allocate them).

#include <vector>

#include "coll/reduce_op.hpp"
#include "mp/endpoint.hpp"
#include "topo/torus.hpp"

namespace meshmp::coll {

/// Dimension-ordered broadcast; on return every rank's `data` holds the
/// root's buffer.
sim::Task<> broadcast(mp::Endpoint& ep, topo::Rank root,
                      std::vector<std::byte>& data, int tag);

/// Reverse-broadcast reduction; on return the root's `data` holds the
/// elementwise combination of everyone's input (other ranks keep partials).
sim::Task<> reduce(mp::Endpoint& ep, topo::Rank root,
                   std::vector<std::byte>& data, const ReduceOp& op, int tag);

/// Global combining (paper: reduce to a node, then broadcast the result);
/// every rank ends with the combined value. Uses tag and tag+1.
sim::Task<> allreduce(mp::Endpoint& ep, std::vector<std::byte>& data,
                      const ReduceOp& op, int tag);

/// Barrier: global combining with a null reduction. Uses tag and tag+1.
sim::Task<> barrier(mp::Endpoint& ep, int tag);

// -- quorum-gated (partition-safe) collectives ------------------------------
//
// Collectives for machines with dead nodes or a partition. After the failure
// detector confirms node deaths, the survivors rebuild their collective
// trees over the live subgraph: dead ranks are excluded as tree nodes (they
// neither contribute nor forward) and the tree is a BFS spanning tree of the
// survivors (topo::survivor_parent / survivor_children).
//
// A rank whose kernel agent is flagged minority fails fast with
// kMinorityPartition before touching the wire — a minority-side collective
// can never represent the machine, so it must not silently compute over the
// fragment. Primary-side ranks broadcast and reduce over that survivor tree
// for their converged dead set and propagate wire failures (a peer dying
// mid-collective) as kUnreachable instead of ignoring them. Only live
// primary-side ranks participate; all must pass the same `dead` set (each
// rank's MembershipView::dead_set() once views converge); `root` must be
// alive.

/// Quorum-gated broadcast over the survivor tree. kOk on every participant
/// iff the payload reached the whole primary side.
sim::Task<mp::SendStatus> broadcast_quorum(mp::Endpoint& ep, topo::Rank root,
                                           std::vector<std::byte>& data,
                                           int tag,
                                           const std::vector<bool>& dead);

/// Quorum-gated reduction over the survivor tree.
sim::Task<mp::SendStatus> reduce_quorum(mp::Endpoint& ep, topo::Rank root,
                                        std::vector<std::byte>& data,
                                        const ReduceOp& op, int tag,
                                        const std::vector<bool>& dead);

/// Quorum-gated global combining, rooted at the lowest live rank. Uses tag
/// and tag+1.
sim::Task<mp::SendStatus> allreduce_quorum(mp::Endpoint& ep,
                                           std::vector<std::byte>& data,
                                           const ReduceOp& op, int tag,
                                           const std::vector<bool>& dead);

/// Quorum-gated barrier (null reduction). Uses tag and tag+1.
sim::Task<mp::SendStatus> barrier_quorum(mp::Endpoint& ep, int tag,
                                         const std::vector<bool>& dead);

}  // namespace meshmp::coll
