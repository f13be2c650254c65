#pragma once

// Post-run diagnostics: aggregates hardware and protocol counters across a
// cluster into a printable summary (CPU utilization, interrupt counts, frame
// totals, retransmissions, forwarding activity). Only tests call
// make_report(): the fault campaigns assert on its fields to explain *why* a
// run behaved the way it did.

#include <string>

#include "cluster/gige_mesh.hpp"
#include "obs/metrics.hpp"

namespace meshmp::cluster {

struct ClusterReport {
  double sim_seconds = 0;
  double avg_cpu_utilization = 0;
  double max_cpu_utilization = 0;
  std::int64_t interrupts = 0;
  std::int64_t napi_polls = 0;
  std::int64_t tx_frames = 0;
  std::int64_t rx_frames = 0;
  std::int64_t checksum_drops = 0;  ///< wire-corrupted frames dropped
  std::int64_t ring_drops = 0;
  std::int64_t forwarded_frames = 0;
  std::int64_t retransmits = 0;
  std::int64_t duplicate_discards = 0;  ///< out-of-order/dup frames dropped
  std::int64_t rerouted_frames = 0;     ///< frames sent off the default hop
  std::int64_t carrier_drops = 0;       ///< frames lost to a dead cable
  std::int64_t unreachable_drops = 0;   ///< frames with no usable egress
  std::int64_t ttl_expired = 0;         ///< frames that ran out of hops
  std::int64_t vi_failures = 0;         ///< VIs whose retry budget ran out
  std::int64_t node_crashes = 0;        ///< whole-node power failures
  std::int64_t node_restarts = 0;       ///< cold starts after a crash
  std::int64_t stale_epoch_drops = 0;   ///< frames from a previous incarnation
  std::int64_t table_routed_frames = 0;  ///< frames sent via a degraded table
  std::int64_t partition_flushes = 0;    ///< epoch-bumping VI flushes on heal
  std::int64_t minority_refusals = 0;    ///< dials/sends refused on minority
  std::int64_t asym_carrier_drops = 0;   ///< frames eaten by a one-way cable
  std::int64_t dup_frame_discards = 0;   ///< exact-duplicate frames dropped
  std::int64_t degraded_avoided = 0;     ///< frames steered off a sick link

  /// Full metrics-registry view at snapshot time: every live counter group
  /// plus latency/size histogram summaries (p50/p95/p99). The scalar fields
  /// above stay as convenient named aggregates; this carries everything else.
  obs::Snapshot metrics;

  /// Multi-line human-readable rendering.
  [[nodiscard]] std::string str() const;
};

/// Snapshot of the cluster's counters at the current simulated time.
ClusterReport make_report(GigeMeshCluster& cluster);

}  // namespace meshmp::cluster
