#pragma once

// Deterministic fault-injection campaign engine.
//
// A Schedule is a sim-time-scripted list of fault events — link carrier flaps,
// loss/corruption bursts, NIC stalls — built with fluent helpers. An Injector
// binds a schedule to a GigE mesh cluster and arms every event on the
// simulation clock before the workload starts. Because events fire at fixed
// simulated times (no wall-clock, no extra randomness), a faulted run is just
// as reproducible as a clean one and composes with the run-twice determinism
// checker: rebuild the scenario, replay the same schedule, compare digests.

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "chk/flat_map.hpp"
#include "cluster/gige_mesh.hpp"
#include "obs/metrics.hpp"
#include "sim/time.hpp"
#include "topo/torus.hpp"

namespace meshmp::flt {

/// One scripted fault event. Link events act on the full-duplex cable at
/// (node, dir) — the injector applies them to both cable ends, like pulling a
/// physical cable. Burst events scale one NIC's transmit-side wire
/// parameters for a window, restoring the pre-burst value at the end.
struct FaultEvent {
  enum class Kind : std::uint8_t {
    kLinkDown,
    kLinkUp,
    kLossStart,
    kLossStop,
    kCorruptStart,
    kCorruptStop,
    kStallStart,
    kStallStop,
    kNodeCrash,    ///< whole-node power failure; dir unused
    kNodeRestart,  ///< cold start of a previously crashed node; dir unused
    kPartition,    ///< cut every link of a PartitionSpec; node/dir unused
    kHeal,         ///< restore every link cut by prior partitions
    // Gray failures: the link stays "up" as far as carrier sense goes but
    // misbehaves — degraded, one-directional, or flaky.
    kDegradeStart,  ///< added latency / bandwidth fraction, both directions
    kDegradeStop,
    kAsymStart,  ///< (node, dir) tx pairs severed; carrier stays up
    kAsymStop,
    kFlakyStart,  ///< probabilistic per-frame drop/duplicate/reorder
    kFlakyStop,
  };
  Kind kind = Kind::kLinkDown;
  sim::Time at = 0;
  topo::Rank node = 0;
  topo::Dir dir{};
  double prob = 0;    ///< loss/corrupt/flaky-drop probability during a burst
  std::int32_t spec = -1;  ///< kPartition: index into Schedule::partitions()
  // Gray-failure parameters (kDegradeStart / kFlakyStart only).
  double dup_prob = 0;      ///< kFlakyStart: per-frame duplicate probability
  double reorder_prob = 0;  ///< kFlakyStart: per-frame reorder probability
  sim::Duration add_latency = 0;  ///< kDegradeStart: extra propagation (>= 0)
  double bw_fraction = 1.0;       ///< kDegradeStart: line-rate multiplier
};

/// The deterministic link set a kPartition event cuts: either a full
/// bisection plane of the torus (every cable crossing coordinate `cut` along
/// `dim`, wraparound plane included, so the machine genuinely splits in
/// two), or an arbitrary explicit cable list.
struct PartitionSpec {
  enum class Kind : std::uint8_t { kPlane, kLinks };
  Kind kind = Kind::kPlane;
  int dim = 0;  ///< kPlane: dimension to bisect
  int cut = 0;  ///< kPlane: low side is coord[dim] < cut
  std::vector<std::pair<topo::Rank, topo::Dir>> links;  ///< kLinks
};

/// Fault schedule builder. All times are absolute simulated times.
class Schedule {
 public:
  Schedule& link_down(sim::Time at, topo::Rank node, topo::Dir dir) {
    return add({FaultEvent::Kind::kLinkDown, at, node, dir, 0});
  }
  Schedule& link_up(sim::Time at, topo::Rank node, topo::Dir dir) {
    return add({FaultEvent::Kind::kLinkUp, at, node, dir, 0});
  }
  /// Carrier drop at `at`, restore after `down_for` (a link flap).
  Schedule& link_flap(sim::Time at, topo::Rank node, topo::Dir dir,
                      sim::Duration down_for) {
    link_down(at, node, dir);
    return link_up(at + down_for, node, dir);
  }
  /// Random frame loss at probability `prob` on (node, dir) transmit during
  /// [at, at+dur).
  Schedule& loss_burst(sim::Time at, sim::Duration dur, topo::Rank node,
                       topo::Dir dir, double prob) {
    add({FaultEvent::Kind::kLossStart, at, node, dir, prob});
    return add({FaultEvent::Kind::kLossStop, at + dur, node, dir, 0});
  }
  /// Payload corruption (dropped by the receiving adapter's FCS check)
  /// during [at, at+dur).
  Schedule& corrupt_burst(sim::Time at, sim::Duration dur, topo::Rank node,
                          topo::Dir dir, double prob) {
    add({FaultEvent::Kind::kCorruptStart, at, node, dir, prob});
    return add({FaultEvent::Kind::kCorruptStop, at + dur, node, dir, 0});
  }
  /// Adapter stall (hung DMA/firmware): frames queue behind the stalled NIC
  /// during [at, at+dur) and drain when it clears.
  Schedule& nic_stall(sim::Time at, sim::Duration dur, topo::Rank node,
                      topo::Dir dir) {
    add({FaultEvent::Kind::kStallStart, at, node, dir, 0});
    return add({FaultEvent::Kind::kStallStop, at + dur, node, dir, 0});
  }
  /// Whole-node power failure at `at`: every adapter powers off (in-flight
  /// DMA and rings discarded, carrier drops at both cable ends) and the
  /// kernel agent fails all its connections.
  Schedule& node_crash(sim::Time at, topo::Rank node) {
    return add({FaultEvent::Kind::kNodeCrash, at, node, {}, 0});
  }
  /// Cold start of a previously crashed node at `at`: the agent's incarnation
  /// epoch bumps, adapters power on, carrier returns at both cable ends.
  Schedule& node_restart(sim::Time at, topo::Rank node) {
    return add({FaultEvent::Kind::kNodeRestart, at, node, {}, 0});
  }
  /// Crash at `at`, cold-start after `down_for`.
  Schedule& crash_restart(sim::Time at, topo::Rank node,
                          sim::Duration down_for) {
    node_crash(at, node);
    return node_restart(at + down_for, node);
  }
  /// Cuts the full bisection plane of dimension `dim` at coordinate `cut`
  /// (wraparound plane included) at `at`, splitting the torus in two.
  Schedule& partition_plane(sim::Time at, int dim, int cut) {
    return add_partition(at, PartitionSpec{PartitionSpec::Kind::kPlane, dim,
                                           cut, {}});
  }
  /// Cuts an explicit cable set at `at` (each cable named once from either
  /// end).
  Schedule& partition_links(sim::Time at,
                            std::vector<std::pair<topo::Rank, topo::Dir>> ls) {
    return add_partition(
        at, PartitionSpec{PartitionSpec::Kind::kLinks, 0, 0, std::move(ls)});
  }
  /// Restores every cable cut by the partitions still open at `at`. Must
  /// come strictly after the partitions it heals.
  Schedule& heal(sim::Time at) {
    return add({FaultEvent::Kind::kHeal, at, 0, {}, 0, -1});
  }
  /// Plane partition at `at`, healed after `down_for`.
  Schedule& partition_window(sim::Time at, int dim, int cut,
                             sim::Duration down_for) {
    partition_plane(at, dim, cut);
    return heal(at + down_for);
  }
  /// Gray link degradation (failing cable / renegotiated PHY): both
  /// directions of the (node, dir) cable gain `add_latency` propagation and
  /// run at `bw_fraction` of line rate during [at, at+dur). Carrier never
  /// drops — only the phi detector and link-quality scores can see this.
  Schedule& link_degrade(sim::Time at, sim::Duration dur, topo::Rank node,
                         topo::Dir dir, sim::Duration add_latency,
                         double bw_fraction) {
    FaultEvent ev{FaultEvent::Kind::kDegradeStart, at, node, dir, 0};
    ev.add_latency = add_latency;
    ev.bw_fraction = bw_fraction;
    add(ev);
    return add({FaultEvent::Kind::kDegradeStop, at + dur, node, dir, 0});
  }
  /// One-directional cable break during [at, at+dur): (node, dir)'s transmit
  /// pairs die but its receive pairs — and the carrier at both ends — stay
  /// up, so neither driver gets a link-status interrupt.
  Schedule& link_asymmetric(sim::Time at, sim::Duration dur, topo::Rank node,
                            topo::Dir dir) {
    add({FaultEvent::Kind::kAsymStart, at, node, dir, 0});
    return add({FaultEvent::Kind::kAsymStop, at + dur, node, dir, 0});
  }
  /// Flaky NIC burst: per-frame drop / duplicate / reorder probabilities on
  /// (node, dir) transmit during [at, at+dur). All randomness comes from the
  /// NIC's deterministic per-port PRNG.
  Schedule& nic_flaky(sim::Time at, sim::Duration dur, topo::Rank node,
                      topo::Dir dir, double drop, double dup, double reorder) {
    FaultEvent ev{FaultEvent::Kind::kFlakyStart, at, node, dir, drop};
    ev.dup_prob = dup;
    ev.reorder_prob = reorder;
    add(ev);
    return add({FaultEvent::Kind::kFlakyStop, at + dur, node, dir, 0});
  }

  [[nodiscard]] const std::vector<FaultEvent>& events() const noexcept {
    return events_;
  }
  [[nodiscard]] const std::vector<PartitionSpec>& partitions() const noexcept {
    return partitions_;
  }
  [[nodiscard]] bool empty() const noexcept { return events_.empty(); }

 private:
  Schedule& add(FaultEvent ev) {
    events_.push_back(ev);
    return *this;
  }
  Schedule& add_partition(sim::Time at, PartitionSpec spec) {
    const auto id = static_cast<std::int32_t>(partitions_.size());
    partitions_.push_back(std::move(spec));
    return add({FaultEvent::Kind::kPartition, at, 0, {}, 0, id});
  }
  std::vector<FaultEvent> events_;
  std::vector<PartitionSpec> partitions_;
};

/// Arms a Schedule on a cluster's simulation clock. Construct after the
/// cluster and before run(); the injector must outlive the run.
class Injector {
 public:
  Injector(cluster::GigeMeshCluster& cluster, Schedule schedule);
  Injector(const Injector&) = delete;
  Injector& operator=(const Injector&) = delete;

  [[nodiscard]] const obs::Counters& counters() const noexcept {
    return counters_;
  }

 private:
  /// Arm-time schedule validation: ranks and links must exist, events must
  /// not be in the past, burst/stall windows on a port must open before they
  /// close and never nest, node crash/restart sequences must alternate (a
  /// restart needs a prior crash, a crashed node can't crash again), and
  /// every heal must close at least one partition opened strictly earlier.
  /// Throws std::invalid_argument naming the offending event (index,
  /// sim-time, kind, target).
  void validate() const;
  void apply(const FaultEvent& ev);
  /// Sets carrier on both ends of the (node, dir) cable.
  void set_cable_carrier(topo::Rank node, topo::Dir dir, bool up);

  static std::uint64_t port_key(topo::Rank node, topo::Dir dir) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(node))
            << 8) |
           static_cast<std::uint64_t>(static_cast<unsigned>(dir.index()));
  }

  cluster::GigeMeshCluster& cluster_;
  Schedule schedule_;
  // Pre-burst wire parameters, restored when the window closes. Flat maps:
  // fault state must never introduce hash-order nondeterminism.
  chk::FlatMap<std::uint64_t, double> saved_drop_;
  chk::FlatMap<std::uint64_t, double> saved_corrupt_;
  // Pre-degrade (bytes_per_sec, propagation) per port and pre-flaky
  // (drop, dup, reorder) probabilities per port.
  chk::FlatMap<std::uint64_t, std::pair<double, sim::Duration>> saved_wire_;
  chk::FlatMap<std::uint64_t, std::array<double, 3>> saved_flaky_;
  // Per-PartitionSpec cable lists, expanded once against the cluster torus
  // at arm time so kPartition/kHeal apply a fixed, validated set.
  std::vector<std::vector<std::pair<topo::Rank, topo::Dir>>> partition_links_;
  // Cables currently cut by partitions, restored (and cleared) by kHeal.
  std::vector<std::pair<topo::Rank, topo::Dir>> cut_links_;
  obs::Counters counters_;
  // Gray-failure window counters, exported as flt.gray.* (zero — and thus
  // absent from snapshots — unless a schedule actually arms gray faults).
  obs::Counters gray_counters_;
  obs::Registry::Registration gray_reg_;
};

}  // namespace meshmp::flt
