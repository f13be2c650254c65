#pragma once

// One-to-all personalized communication (scatter), its reverse (gather), and
// all-to-all personalized communication — paper sec. 5.2.
//
// Messages move store-and-forward over neighbour channels; every message
// carries its full route, computed identically on all ranks:
//
//  * SDF (Shortest-Direction-First): root emits First-Come-First-Served in
//    destination-rank order; each hop follows the SDF rule. Simple, not
//    optimal: traffic concentrates on the directions with few remaining
//    steps.
//  * OPT: the mesh is partitioned into one region per root link such that
//    every region member is reached minimally through its link
//    (topo::make_region_partition); the root emits round-robin across
//    regions (multi-port), Furthest-Distance-First within each region, and
//    messages never leave their region's first hop. The root drains in
//    ceil((p-1)/k) emit steps — the paper's optimality argument.

#include <cstdint>
#include <functional>
#include <vector>

#include "mp/endpoint.hpp"
#include "topo/partition.hpp"
#include "topo/torus.hpp"

namespace meshmp::coll {

enum class ScatterAlg { kSdf, kOpt };

/// Deterministic routing/emission plan, identical on every rank.
struct ScatterPlan {
  topo::Rank root = 0;
  /// Full route (sequence of directions) from root to each destination.
  std::vector<std::vector<topo::Dir>> routes;
  /// Order in which the root emits destination messages.
  std::vector<topo::Rank> emit_order;
  /// Per rank: number of messages that pass *through* it (excludes its own).
  std::vector<int> forward_count;
};

ScatterPlan make_scatter_plan(const topo::Torus& t, topo::Rank root,
                              ScatterAlg alg);

/// SPMD scatter. At the root, `chunks` must point to size() buffers (chunk
/// [root] is returned locally); elsewhere it must be null. Returns this
/// rank's chunk. This is scatter_failaware() with no rank ever dead.
sim::Task<std::vector<std::byte>> scatter(
    mp::Endpoint& ep, topo::Rank root,
    const std::vector<std::vector<std::byte>>* chunks, int tag,
    ScatterAlg alg);

/// Outcome of a failure-aware scatter on one rank.
struct ScatterResult {
  /// False when this rank's chunk was undeliverable: the root or some node
  /// upstream on the chunk's route died mid-operation. `data` is empty.
  bool ok = true;
  std::vector<std::byte> data;
};

/// Failure-aware SPMD scatter for clusters that may lose nodes mid-flight.
/// `is_dead(r)` is this rank's current belief about r (its
/// MembershipView::dead_set()); it may start all-false and flip during the
/// operation. The caller must arrange for posted receives to be cancelled
/// when a death is confirmed (ClusterLifecycle::subscribe ->
/// mp::Endpoint::cancel_posted_recvs), which wakes blocked participants:
/// each re-evaluates its expected messages and gives up on any whose
/// upstream path crossed a dead node. Every surviving rank terminates with
/// either its correct chunk (ok == true) or a clean unreachable outcome
/// (ok == false) — never a hang.
sim::Task<ScatterResult> scatter_failaware(
    mp::Endpoint& ep, topo::Rank root,
    const std::vector<std::vector<std::byte>>* chunks, int tag, ScatterAlg alg,
    std::function<bool(topo::Rank)> is_dead);

/// SPMD gather (reverse scatter): every rank contributes `mine`; the root
/// returns all size() chunks (others return empty).
sim::Task<std::vector<std::vector<std::byte>>> gather(
    mp::Endpoint& ep, topo::Rank root, std::vector<std::byte> mine, int tag,
    ScatterAlg alg);

/// SPMD all-to-all personalized communication: a parallel execution of every
/// one-to-all scatter (paper sec. 5.2, last paragraph). `chunks[d]` is this
/// rank's message for rank d; returns the received chunks indexed by source.
sim::Task<std::vector<std::vector<std::byte>>> alltoall(
    mp::Endpoint& ep, std::vector<std::vector<std::byte>> chunks, int tag,
    ScatterAlg alg);

}  // namespace meshmp::coll
