#pragma once

// Node-failure lifecycle: heartbeat failure detection, membership flooding,
// degraded-mode routing, and rejoin — the control plane for whole-node
// crashes on the switchless mesh.
//
// Every node runs two detector coroutines: a heartbeat loop that probes each
// mesh neighbour with an unreliable kHeartbeat control frame per period, and
// a monitor loop that converts silence into suspicion with a phi-accrual
// failure detector: phi(t) = log10-scaled improbability of `t` ns of silence
// given the observed inter-arrival window for that link. Suspicion crosses
// into kSuspect at `phi_suspect` and hardens into kDead at `phi_dead`, so a
// slow-but-alive neighbour (degraded cable, flaky PHY stretching arrival
// intervals) raises suspicion without ever producing a false death verdict.
// Transitions are flooded as MemberRecords over the surviving mesh
// (apply-is-news gating terminates the flood), so every survivor's
// MembershipView converges without any central observer — there is no
// switch, and no master, to ask.
//
// Gray-failure control plane: heartbeat probes are pinned to the adapter of
// the direction they monitor (send_control_dir) and carry a per-direction
// sequence number plus their send timestamp; the receiver echoes both in a
// routed kHeartbeatAck. Ack RTTs and overdue probes feed a per-port
// net::LinkQuality (EWMA loss + latency score with hysteresis). Ports whose
// score sinks go into the agent's degraded mask (equal-cost avoidance) or —
// when loss approaches 1.0 despite carrier-up, the one-directional cable
// break — the black mask (detour like a failed link, but no link_change and
// no death: the acks that detour back are proof of life). Mask changes are
// flooded as versioned LinkRecords (kLinkState) so every node's route table
// can dodge remote degraded links among minimal paths
// (Torus::route_table_avoiding with the full degraded-mask map).
//
// On a confirmed death each survivor recomputes a full BFS route table
// around the dead coordinate (Torus::route_table_avoiding, a walk over the
// torus's precomputed neighbour table — a few microseconds, so it reruns on
// every refresh and nothing is memoized) and installs it in its kernel
// agent, and fast-fails every VI to the dead rank so pending traffic
// error-completes instead of burning the retransmit budget. On restart the
// node's agent epoch has already been bumped; the rejoin coroutine floods
// kRejoining under the new incarnation, re-runs VI connection establishment
// with its live neighbours (fresh-epoch ConnReq/Ack, sequence numbers
// restarting from zero), then floods kAlive — at which point survivors heal
// their route tables.
//
// Detection and rejoin latencies (crash/restart sim-time to each survivor's
// view transition) are recorded into obs histograms and therefore appear in
// ClusterReport.metrics.
//
// Partition tolerance (split-brain safety): after every applied record each
// node re-evaluates the strict-majority quorum rule (membership.hpp) over
// its own view. A node whose view places it on the minority side of a split
// sets its kernel agent's minority flag — new dials and sends to
// unconnected peers fail fast with kMinorityPartition — while the primary
// side re-trees collectives over survivors and keeps serving. Healing is
// driven by carrier restoration: a node that sees a link come up toward a
// rank it believes dead either pushes its view across the boundary
// (primary) or starts a flooded kReconcile wave (minority). Reconciling
// minority nodes flush every VI under a bumped incarnation epoch, retract
// their partition-era death verdicts, clear avoidance route tables, and
// re-run the PR-5 rejoin handshake — after which the ordinary
// (incarnation, version, severity) flood merge converges both sides' views,
// including any real deaths that happened behind the partition.

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "cluster/gige_mesh.hpp"
#include "cluster/membership.hpp"
#include "net/quality.hpp"
#include "obs/metrics.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"
#include "via/vi.hpp"

namespace meshmp::cluster {

struct LifecycleParams {
  sim::Duration heartbeat_period = 200'000;  ///< 200 us between probes
  /// Phi-accrual thresholds. With a clean 200 us arrival cadence the window
  /// mean clamps to the period, so phi = 0.4343 * silence / period:
  /// phi_suspect fires at ~690 us of silence and phi_dead at ~1.98 ms —
  /// deliberately calibrated to the fixed 700 us / 2 ms thresholds this
  /// detector replaced. A lossy link stretches the observed window mean,
  /// which stretches both thresholds proportionally: slow-but-alive raises
  /// suspicion, never a death verdict.
  double phi_suspect = 1.5;
  double phi_dead = 4.3;
  /// Per-port link-quality scoring knobs (EWMA, hysteresis thresholds).
  net::QualityParams quality{};
};

class ClusterLifecycle {
 public:
  /// Service number the rejoin handshake dials; every node listens on it.
  static constexpr std::uint32_t kService = 0xFEEDC0DEu;

  ClusterLifecycle(GigeMeshCluster& cluster, LifecycleParams params = {});

  /// Spawns the per-node detector loops and rejoin accept loops, installs
  /// the control-frame handlers, and registers the cluster crash hooks.
  /// Call once, before the first fault fires.
  void start();
  /// Detector loops exit at their next tick, letting the engine quiesce.
  void stop();

  [[nodiscard]] const LifecycleParams& params() const noexcept {
    return params_;
  }
  /// Rank `r`'s current belief about the cluster.
  [[nodiscard]] const MembershipView& view(topo::Rank r) const {
    return views_.at(static_cast<std::size_t>(r));
  }

  /// Observer invoked on every membership transition rank `observer` applies
  /// (its own detections and flooded news alike). Used by upper layers to
  /// cancel receives or rebuild collective state on death/rejoin.
  using Observer = std::function<void(topo::Rank subject, Liveness to)>;
  void subscribe(topo::Rank observer, Observer fn);

  /// True when every powered node other than `subject` believes `subject`
  /// is in state `s` — the flood-convergence acceptance check.
  [[nodiscard]] bool survivors_agree(topo::Rank subject, Liveness s) const;
  /// True when every powered node believes every rank is alive.
  [[nodiscard]] bool all_alive() const;

  /// Which side of a split `r`'s view currently places it on.
  [[nodiscard]] QuorumSide side(topo::Rank r) const {
    return side_.at(idx_(r));
  }
  /// Partition/heal bookkeeping counters (also attached to the obs registry
  /// under "cluster.partition").
  [[nodiscard]] const obs::Counters& partition_counters() const noexcept {
    return counters_;
  }

  // -- gray-failure introspection ------------------------------------------
  /// Current phi suspicion level rank `r` holds for its neighbour in
  /// direction `d` (0 for an edge with no neighbour).
  [[nodiscard]] double phi(topo::Rank r, topo::Dir d) const;
  /// Rank `r`'s local per-port link-quality tracker.
  [[nodiscard]] const net::LinkQuality& link_quality(topo::Rank r) const {
    return quality_.at(idx_(r));
  }
  /// `observer`'s current belief of `subject`'s degraded|black egress mask
  /// (converged via the kLinkState flood).
  [[nodiscard]] topo::DirMask degraded_belief(topo::Rank observer,
                                              topo::Rank subject) const {
    return remote_degraded_.at(idx_(observer)).at(idx_(subject));
  }
  /// "cluster.phi.*" — suspicion/refutation bookkeeping.
  [[nodiscard]] const obs::Counters& phi_counters() const noexcept {
    return phi_counters_;
  }
  /// "net.link.score.*" — quality-mask and link-state-flood bookkeeping.
  [[nodiscard]] const obs::Counters& score_counters() const noexcept {
    return score_counters_;
  }

 private:
  /// Inter-arrival samples retained per monitored direction.
  static constexpr std::size_t kPhiWindow = 16;
  static constexpr int kMaxPorts = 2 * topo::kMaxDims;

  /// Per-direction probe and arrival bookkeeping (the phi detector's input).
  struct DirHealth {
    std::uint64_t probe_seq = 0;      ///< probes pinned out this direction
    std::uint64_t probe_ack_seq = 0;  ///< highest probe seq echoed back
    /// probe_seq snapshots from the previous and the one-before monitor
    /// ticks: only probes at least two full ticks old may be sampled as
    /// overdue. A healthy ack takes microseconds, but a membership flood
    /// storm (partition onset) can queue one behind a full tick of control
    /// frames — congestion must not read as a sick cable.
    std::uint64_t seq_at_last_tick = 0;
    std::uint64_t seq_two_ticks_ago = 0;
    std::uint64_t timeout_checked = 0;  ///< last seq sampled as overdue
    std::uint32_t last_probe_msg = 0;   ///< dedup for wire-duplicated probes
    sim::Time last_arrival = -1;
    std::array<sim::Duration, kPhiWindow> window{};  ///< inter-arrival ring
    std::size_t nwin = 0;
    std::size_t wpos = 0;
  };

  struct NodeCtl {
    std::vector<sim::Time> last_heard;  ///< by rank; only neighbours used
    std::uint64_t gen = 0;  ///< bumped on crash/restart to retire old loops
    /// Highest kReconcile wave generation seen; the flood-termination gate.
    std::uint64_t reconcile_gen = 0;
    std::array<DirHealth, kMaxPorts> dirs{};
    /// Monotone origination counter for this node's LinkRecords. Survives
    /// restart so post-rejoin floods outrank partition-era echoes.
    std::uint64_t link_version = 0;
    /// Set when a LinkRecord applied; serviced (route refresh) at the next
    /// monitor tick so flood storms coalesce into one recompute.
    bool routes_dirty = false;
    /// When the last membership record applied as news. A flood storm
    /// (suspect wave, death wave, heal reconciliation) saturates the wire
    /// with control frames; probe-timeout sampling pauses while news is
    /// still landing so storm queueing never reads as cable loss.
    sim::Time last_member_news = -1;
    /// Ranks whose freshly-applied LinkRecords still need re-flooding.
    /// Flushed as one batched frame per neighbour at the next monitor tick:
    /// synchronous per-record fan-out would amplify a mask-flip storm into
    /// the very congestion that flipped the masks.
    std::vector<std::uint8_t> ls_pending;
    bool ls_any = false;
  };

  static std::size_t idx_(topo::Rank r) {
    return static_cast<std::size_t>(r);
  }

  void on_crash(topo::Rank r);
  void on_restart(topo::Rank r);

  sim::Task<> heartbeat_loop(topo::Rank r, std::uint64_t gen);
  sim::Task<> monitor_loop(topo::Rank r, std::uint64_t gen);
  sim::Task<> accept_loop(topo::Rank r);
  sim::Task<> drain_completions(via::Vi& vi);
  sim::Task<> rejoin(topo::Rank r, std::uint64_t gen);

  void on_heartbeat(topo::Rank observer, topo::Rank src,
                    const via::ViaHeader& h);
  void on_heartbeat_ack(topo::Rank observer, topo::Rank src,
                        const via::ViaHeader& h);
  void on_membership_frame(topo::Rank observer, const std::byte* data,
                           std::size_t bytes);
  void on_linkstate_frame(topo::Rank observer, const std::byte* data,
                          std::size_t bytes);
  /// Applies a link-quality record iff its version is news for (observer,
  /// subject), marks routes dirty, and re-floods — the kLinkState analogue
  /// of process_record.
  void process_link_record(topo::Rank observer, const LinkRecord& rec);
  /// phi for `silent` ns of silence given dir `dir_index`'s arrival window.
  [[nodiscard]] double phi_level(const NodeCtl& ctl, int dir_index,
                                 sim::Duration silent) const;
  /// The direction from `from` toward direct neighbour `to`, if any.
  [[nodiscard]] std::optional<topo::Dir> dir_toward(topo::Rank from,
                                                    topo::Rank to) const;
  /// Authors a transition about `subject` as seen by `observer` and runs it
  /// through the same apply/react/flood path as received news.
  void declare(topo::Rank observer, topo::Rank subject, Liveness to);
  void process_record(topo::Rank observer, const MemberRecord& rec);
  /// Reinstall (or clear) observer's degraded-mode route table from its
  /// current dead set.
  void refresh_routes(topo::Rank observer);

  // -- partition tolerance ---------------------------------------------------
  /// Re-evaluates quorum_side for `r`'s view, toggling the agent minority
  /// flag and recording partition-duration samples on transitions.
  void update_quorum(topo::Rank r);
  /// Carrier came back up on one of `r`'s links: heal evidence when the
  /// neighbour that way is currently believed dead.
  void on_carrier_up(topo::Rank r, topo::Dir d);
  /// A kReconcile wave frame (or its local origination) reached `r`.
  void on_reconcile(topo::Rank r, std::uint64_t gen);
  /// The minority-side heal sequence: VI flush under a bumped epoch, retract
  /// partition-era deaths, clear avoidance routes, PR-5 rejoin handshake.
  void partition_rejoin(topo::Rank r);
  /// Sends `from`'s full non-default view to `to` as kMembership batches —
  /// the primary side's half of the post-heal merge.
  void push_view(topo::Rank from, topo::Rank to);

  GigeMeshCluster& cluster_;
  LifecycleParams params_;
  bool started_ = false;
  bool stopped_ = false;
  std::vector<MembershipView> views_;
  std::vector<NodeCtl> ctl_;
  std::vector<std::vector<Observer>> observers_;
  std::vector<sim::Time> crash_time_;    ///< -1 until the fault fires
  std::vector<sim::Time> restart_time_;  ///< -1 until the restart fires
  obs::Histogram& detect_hist_;  ///< crash -> per-survivor kDead, ns
  obs::Histogram& rejoin_hist_;  ///< restart -> per-survivor kAlive, ns

  std::vector<QuorumSide> side_;         ///< per node, from its own view
  std::vector<sim::Time> minority_since_;  ///< -1 while primary
  /// Heal-convergence tracking: set at the first carrier-up heal evidence of
  /// a cycle, cleared when every pending node's view is dead-free again.
  sim::Time heal_start_ = -1;
  std::vector<bool> heal_pending_;
  int heal_remaining_ = 0;
  /// "cluster.partition.*" transition tallies.
  obs::Counters counters_;
  obs::Registry::Registration counters_reg_;
  obs::Histogram& partition_duration_hist_;  ///< minority entry -> primary, ns
  obs::Histogram& heal_conv_hist_;  ///< heal evidence -> dead-free view, ns

  // -- gray-failure state ---------------------------------------------------
  /// Per-node port-quality trackers.
  std::vector<net::LinkQuality> quality_;
  /// link_seen_[observer][subject]: highest LinkRecord version applied — the
  /// kLinkState flood-termination gate, per (observer, subject).
  std::vector<std::vector<std::uint64_t>> link_seen_;
  /// remote_degraded_[observer][subject]: observer's belief of subject's
  /// degraded|black egress mask; the `degraded` input to route recompute.
  std::vector<std::vector<topo::DirMask>> remote_degraded_;
  /// "cluster.phi.*" / "net.link.score.*" detector and scoring tallies.
  obs::Counters phi_counters_;
  obs::Registry::Registration phi_reg_;
  obs::Counters score_counters_;
  obs::Registry::Registration score_reg_;
  obs::Histogram& phi_suspect_hist_;  ///< phi * 1000 at suspect declarations
};

}  // namespace meshmp::cluster
