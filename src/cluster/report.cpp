#include "cluster/report.hpp"

#include <algorithm>
#include <cstdio>

namespace meshmp::cluster {

ClusterReport make_report(GigeMeshCluster& cluster) {
  ClusterReport r;
  r.sim_seconds = sim::to_sec(cluster.engine().now());
  for (topo::Rank rank = 0; rank < cluster.size(); ++rank) {
    auto& node = cluster.node_hw(rank);
    const double u = node.cpu().utilization();
    r.avg_cpu_utilization += u;
    r.max_cpu_utilization = std::max(r.max_cpu_utilization, u);
    for (auto& nic : node.nics()) {
      const auto& c = nic->counters();
      r.interrupts += c.get("interrupts");
      r.napi_polls += c.get("napi_polls");
      r.tx_frames += c.get("tx_frames");
      r.rx_frames += c.get("rx_frames");
      r.checksum_drops += c.get("rx_checksum_drop");
      r.ring_drops += c.get("rx_ring_full") + c.get("tx_ring_full");
      r.carrier_drops +=
          c.get("carrier_dropped") + c.get("carrier_rx_dropped");
      r.asym_carrier_drops += c.get("asym_dropped");
    }
    auto& agent = cluster.agent(rank);
    const auto& ac = agent.counters();
    r.forwarded_frames += ac.get("fwd_frames");
    r.rerouted_frames += ac.get("rerouted_frames");
    r.unreachable_drops += ac.get("unreachable_drops");
    r.ttl_expired += ac.get("ttl_expired");
    r.vi_failures += ac.get("vi_failures");
    r.node_crashes += ac.get("node_crashes");
    r.node_restarts += ac.get("node_restarts");
    r.stale_epoch_drops += ac.get("rx_stale_epoch");
    r.table_routed_frames += ac.get("table_routed_frames");
    r.partition_flushes += ac.get("partition_flushes");
    r.minority_refusals += ac.get("conn_minority_refused");
    r.degraded_avoided += ac.get("degraded_avoided");
    for (std::uint32_t v = 0;
         v < static_cast<std::uint32_t>(agent.vi_count()); ++v) {
      const auto& vc = agent.vi(v).counters();
      r.retransmits += vc.get("retransmits");
      r.duplicate_discards += vc.get("rx_out_of_order");
      r.dup_frame_discards += vc.get("rx_dup_frames");
    }
  }
  r.avg_cpu_utilization /= static_cast<double>(cluster.size());
  r.metrics = obs::Registry::instance().snapshot_live();
  return r;
}

std::string ClusterReport::str() const {
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "simulated time      : %.6f s\n"
      "cpu utilization     : avg %.1f%%, max %.1f%%\n"
      "frames              : %lld tx, %lld rx, %lld forwarded\n"
      "interrupts          : %lld (%lld NAPI polls)\n"
      "drops               : %lld checksum, %lld ring, %lld carrier\n"
      "reliability         : %lld retransmits, %lld dup-discards\n"
      "fault handling      : %lld rerouted, %lld unreachable, %lld TTL, "
      "%lld VI failures\n"
      "node lifecycle      : %lld crashes, %lld restarts, %lld stale-epoch, "
      "%lld table-routed\n"
      "partition tolerance : %lld flushes, %lld minority-refusals\n"
      "gray failures       : %lld asym-drops, %lld dup-discards, "
      "%lld degraded-avoided\n",
      sim_seconds, avg_cpu_utilization * 100, max_cpu_utilization * 100,
      static_cast<long long>(tx_frames), static_cast<long long>(rx_frames),
      static_cast<long long>(forwarded_frames),
      static_cast<long long>(interrupts),
      static_cast<long long>(napi_polls),
      static_cast<long long>(checksum_drops),
      static_cast<long long>(ring_drops),
      static_cast<long long>(carrier_drops),
      static_cast<long long>(retransmits),
      static_cast<long long>(duplicate_discards),
      static_cast<long long>(rerouted_frames),
      static_cast<long long>(unreachable_drops),
      static_cast<long long>(ttl_expired),
      static_cast<long long>(vi_failures),
      static_cast<long long>(node_crashes),
      static_cast<long long>(node_restarts),
      static_cast<long long>(stale_epoch_drops),
      static_cast<long long>(table_routed_frames),
      static_cast<long long>(partition_flushes),
      static_cast<long long>(minority_refusals),
      static_cast<long long>(asym_carrier_drops),
      static_cast<long long>(dup_frame_discards),
      static_cast<long long>(degraded_avoided));
  return buf;
}

}  // namespace meshmp::cluster
