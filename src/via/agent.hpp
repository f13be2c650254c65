#pragma once

// The per-node M-VIA kernel agent.
//
// This is the "modified M-VIA" of the paper: it owns the node's VIs and
// registered memory, fragments and reassembles messages, implements the
// reliability modes, and — the key modification — performs *kernel-level
// packet switching* so that non-nearest-neighbour communication works on a
// mesh: frames addressed to another node are re-posted to the SDF-chosen
// egress adapter at interrupt level, without ever touching user space
// (paper sec. 4 and 5.1).

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "chk/flat_map.hpp"
#include "hw/nic.hpp"
#include "hw/node.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "topo/spanning_tree.hpp"
#include "topo/torus.hpp"
#include "via/header.hpp"
#include "via/memory.hpp"
#include "via/params.hpp"
#include "via/vi.hpp"

namespace meshmp::via {

class KernelAgent final : public hw::NicDriver {
 public:
  /// `mesh_rank` is this node's rank within `torus`; node ids on frames equal
  /// torus ranks.
  KernelAgent(hw::NodeHw& node, const topo::Torus& torus,
              topo::Rank mesh_rank, ViaParams params, sim::Rng rng);
  ~KernelAgent() override;

  /// Registers the adapter serving mesh direction `dir` and becomes its
  /// driver.
  void attach_nic(topo::Dir dir, hw::Nic& nic);

  [[nodiscard]] net::NodeId node_id() const noexcept { return me_; }
  [[nodiscard]] hw::NodeHw& node() noexcept { return node_; }
  [[nodiscard]] MemoryRegistry& memory() noexcept { return memory_; }
  [[nodiscard]] const ViaParams& params() const noexcept { return params_; }
  [[nodiscard]] const topo::Torus& torus() const noexcept { return torus_; }

  // -- connection management (the only place the "OS" is involved) --------
  Vi& create_vi();
  [[nodiscard]] Vi& vi(std::uint32_t id) { return *vis_.at(id); }
  [[nodiscard]] std::size_t vi_count() const noexcept { return vis_.size(); }
  /// Declares willingness to accept connections for `service`.
  void listen(std::uint32_t service);
  /// Dials (remote, service); resolves to the connected local VI.
  sim::Task<Vi*> connect(net::NodeId remote, std::uint32_t service);
  /// Waits for the next accepted connection on `service`.
  sim::Task<Vi*> accept(std::uint32_t service);

  // -- interrupt-level collectives (paper sec. 7 prototype) ---------------
  /// Global sum over all mesh nodes with intermediate combining performed in
  /// the receive ISR: interior nodes never copy to user space or wake a
  /// process, which removes most of the per-hop latency of the user-level
  /// global combine. `sequence` must be identical on all nodes per call and
  /// unique across concurrent calls.
  sim::Task<double> kernel_global_sum(double value, topo::Rank root,
                                      std::uint32_t sequence);

  // -- NicDriver ----------------------------------------------------------
  sim::Task<> handle_rx(net::Frame frame, hw::IsrContext& ctx) override;
  /// Carrier change on an attached adapter: marks the direction (un)usable so
  /// the forwarding path routes around it from the next frame on, then
  /// notifies the link observer. A route table installed by the lifecycle
  /// (set_route_table) is not rebuilt here: a table hop whose link is down
  /// falls through to the mask-aware SDF/detour path, so the mask update
  /// alone keeps forwarding correct until the next table arrives.
  void link_change(hw::Nic& nic, bool up) override;

  /// Bitmask of this node's currently-dead local directions.
  [[nodiscard]] topo::DirMask failed_dirs() const noexcept {
    return failed_dirs_;
  }

  // -- gray-failure quality masks ----------------------------------------
  /// Installs the link-quality verdicts from the failure detector's scoring
  /// pass. `degraded` links are avoided among equal-length minimal paths;
  /// `black` links (carrier up but dropping essentially everything, e.g. a
  /// one-directional cable break) are treated like failed links for egress —
  /// detours allowed — without ever counting as a carrier loss.
  void set_quality_masks(topo::DirMask degraded, topo::DirMask black);

  // -- node-failure lifecycle --------------------------------------------
  /// Whole-node crash: every VI fails with kUnreachable (waking local
  /// blockers so nothing hangs and upper layers quiesce their state), the
  /// retransmit windows and kernel-collective state are discarded. The NICs
  /// are powered off separately by the cluster fabric.
  void power_fail();
  /// Cold boot after power_fail(): bumps the node's incarnation epoch so
  /// frames retransmitted by (or to) the previous incarnation are
  /// identifiable as stale, and forgets accepted-dial dedup state — a fresh
  /// host has no connection memory.
  void power_restore();
  [[nodiscard]] bool powered() const noexcept { return powered_; }
  /// This node's incarnation number (bumped by every power_restore()).
  [[nodiscard]] std::uint32_t epoch() const noexcept { return epoch_; }

  /// Fast-fails every VI connected to `peer` with kUnreachable: the failure
  /// detector confirmed the peer dead, so traffic to it error-completes now
  /// instead of burning through the full retransmit budget.
  void peer_declared_dead(net::NodeId peer);

  // -- partition tolerance ------------------------------------------------
  /// Quorum verdict from the membership layer. While set, new dials fail
  /// fast with kMinorityPartition (and upper layers refuse collectives/new
  /// channels) — a minority side must not keep serving on a half-machine
  /// view.
  void set_minority(bool m);
  [[nodiscard]] bool minority() const noexcept { return minority_; }

  /// Records a minority-side refusal made by an upper layer (mp::Endpoint
  /// rejecting a fresh send, coll refusing a collective) in this agent's
  /// counters, so cluster reports aggregate one machine-wide total.
  void note_minority_refusal() { counters_.inc("conn_minority_refused"); }

  /// Healing reconciliation flush: bumps the incarnation epoch *without* a
  /// power cycle and fails every existing VI. Frames retransmitted from (or
  /// addressed to) the pre-heal incarnation become identifiably stale, and
  /// every channel that operated on the partitioned view error-completes so
  /// applications re-establish on the merged view.
  void partition_flush();

  /// Membership news says `peer` is now at incarnation `epoch`: fast-fail
  /// the VIs still bound to an older incarnation of it — their sequence
  /// space and retransmit state are meaningless to the new one.
  void peer_reincarnated(net::NodeId peer, std::uint32_t epoch);

  /// Observer invoked on every carrier change of an attached adapter
  /// (after the failed-direction mask updates). The membership layer uses
  /// carrier restoration on a cut cable as the heal trigger.
  using LinkObserver = std::function<void(topo::Dir, bool)>;
  void set_link_observer(LinkObserver fn) { link_observer_ = std::move(fn); }

  /// Installs a per-destination first-hop table (dir index per rank, -1 =
  /// unreachable) that overrides per-frame SDF while set. Used for
  /// degraded-mode routing around confirmed-dead nodes; cleared when the
  /// mesh heals. The table is consulted before the SDF/detour path; a table
  /// hop whose local link is itself down falls back to the mask-aware path.
  void set_route_table(std::vector<std::int8_t> table);
  void clear_route_table();

  /// Handler for lifecycle control frames (kHeartbeat/kMembership) addressed
  /// to this node. Runs at ISR level; implementations must not block.
  using ControlHandler =
      std::function<void(const ViaHeader&, net::NodeId, const buf::Slice&)>;
  void set_control_handler(ControlHandler fn) {
    control_handler_ = std::move(fn);
  }
  /// Fire-and-forget control frame (heartbeat / membership flood record).
  /// Unreliable by design: the detector tolerates lost probes. `msg_id`
  /// lets probes carry a sequence number their acks echo back.
  void send_control(net::NodeId dst, MsgKind kind, buf::Slice payload,
                    std::uint64_t immediate = 0, std::uint32_t msg_id = 0);

  /// Like send_control, but pinned to the adapter serving `dir` instead of
  /// routed: a heartbeat probe must keep exercising the direct cable it
  /// monitors even when quality scoring would route data traffic around it.
  /// Silently dropped when no adapter serves `dir`.
  void send_control_dir(topo::Dir dir, MsgKind kind, buf::Slice payload,
                        std::uint64_t immediate = 0, std::uint32_t msg_id = 0);

  /// Observer invoked (from kernel context) every time the go-back-N layer
  /// retransmits a window toward `remote`. The quality layer attributes
  /// retransmits to the local egress when `remote` is a direct neighbour.
  using RetransmitObserver = std::function<void(net::NodeId)>;
  void set_retransmit_observer(RetransmitObserver fn) {
    retransmit_observer_ = std::move(fn);
  }

  [[nodiscard]] const obs::Counters& counters() const noexcept {
    return counters_;
  }

 private:
  friend class Vi;

  /// Fragments and transmits one message (kData or kRmaWrite) on `vi`.
  /// Fragments alias `data` — no per-fragment host copy.
  sim::Task<> transmit_message(Vi& vi, MsgKind kind, buf::Slice data,
                               std::uint64_t immediate, const MemToken* token,
                               std::uint64_t rma_offset);

  /// Picks the egress adapter for frames to `dst`: failure-aware SDF first
  /// hop, falling back to a +2-hop detour when no minimal direction is up.
  /// Returns nullptr (and counts `unreachable_drops`) when every usable port
  /// is down.
  hw::Nic* egress_for(net::NodeId dst);

  /// Moves `vi` into the error state: queues a structured error completion,
  /// invokes the error handler, and unblocks a dial still waiting on the
  /// connection handshake. Idempotent.
  void fail_vi(Vi& vi, ViError err);

  /// Backoff before the next retransmission probe of `vi`:
  /// min(retx_timeout * backoff^retries, retx_timeout_max) plus jitter.
  sim::Duration backoff_delay(const Vi& vi);

  /// Re-sends kConnReq with backoff until the handshake completes or the
  /// retry budget runs out (then fails the VI with kUnreachable).
  sim::Task<> connect_watchdog(std::uint32_t vi_id, net::NodeId remote,
                               std::uint32_t service);

  /// ISR-safe single-frame transmit: drops (and counts) when the ring is
  /// full. Used for forwarding, acks and retransmissions.
  void kernel_post(net::Frame f);

  /// User-context transmit that waits for descriptor-ring space.
  sim::Task<> post_with_backpressure(hw::Nic& nic, net::Frame f);

  net::Frame make_frame(net::NodeId dst, const ViaHeader& h,
                        buf::Slice payload) const;

  // receive-path pieces (run in ISR context)
  sim::Task<> rx_data(Vi& vi, const ViaHeader& h, net::Frame& f,
                      hw::IsrContext& ctx);
  sim::Task<> rx_rma(Vi& vi, const ViaHeader& h, net::Frame& f,
                     hw::IsrContext& ctx);
  void rx_ack(Vi& vi, const ViaHeader& h);
  void rx_connect(const ViaHeader& h, const net::Frame& f);
  /// Reliable-delivery in-order check; returns false if the frame must be
  /// discarded.
  bool reliable_accept(Vi& vi, const ViaHeader& h);
  struct KernelColl {
    double acc = 0;
    int waiting_children = 0;
    bool user_in = false;
    bool up_sent = false;
    bool down = false;
    double result = 0;
    std::unique_ptr<sim::Trigger> done;
  };
  KernelColl& kcoll(topo::Rank root, std::uint32_t seq);
  void kcoll_advance(topo::Rank root, std::uint32_t seq);
  void kcoll_finish(topo::Rank root, std::uint32_t seq, double result);

  void send_ack(Vi& vi);
  void arm_ack_timer(Vi& vi);
  void arm_retx_timer(Vi& vi);
  sim::Task<> ack_timer_loop(std::uint32_t vi_id);
  sim::Task<> retx_timer_loop(std::uint32_t vi_id);

  hw::NodeHw& node_;
  const topo::Torus& torus_;
  net::NodeId me_;
  topo::Coord my_coord_;
  ViaParams params_;
  MemoryRegistry memory_;
  sim::Rng rng_;

  chk::FlatMap<int, hw::Nic*> nic_by_dir_;
  // Reverse lookup in attach order, searched linearly (<= 6 ports). Not a
  // map keyed by pointer: address order is not stable across runs, and no
  // container here may ever offer nondeterministic iteration.
  std::vector<std::pair<const hw::Nic*, int>> dir_of_nic_;
  topo::DirMask failed_dirs_ = 0;
  topo::DirMask degraded_dirs_ = 0;  ///< sick but usable: avoid if free
  topo::DirMask black_dirs_ = 0;     ///< carrier up, drops ~everything
  bool powered_ = true;
  bool minority_ = false;  ///< on a minority partition; dials fail fast
  std::uint32_t epoch_ = 0;
  std::vector<std::int8_t> route_table_;  ///< first-hop dir per rank, -1 dead
  ControlHandler control_handler_;
  LinkObserver link_observer_;
  RetransmitObserver retransmit_observer_;
  std::vector<std::unique_ptr<Vi>> vis_;
  chk::FlatMap<std::uint32_t, std::unique_ptr<sim::Queue<Vi*>>>
      accept_queues_;  // keyed by service; iterated at power_fail
  // Dials re-send kConnReq, so a duplicate must re-ack the already-accepted
  // VI instead of accepting a second one — unless the duplicate comes from a
  // newer incarnation of the dialer, which gets a fresh accept. Keyed
  // (dialer node, dialer VI).
  struct AcceptedDial {
    std::uint32_t vi = 0;
    std::uint32_t epoch = 0;
  };
  chk::FlatMap<std::uint64_t, AcceptedDial> accepted_vis_;
  chk::FlatMap<std::uint64_t, KernelColl> kcolls_;  // (root, seq)

  obs::Counters counters_;
  chk::Audit::Registration audit_reg_;
  obs::Registry::Registration metrics_reg_;
  obs::Histogram& ack_rtt_hist_;  ///< ns from oldest-unacked send to its ack
  std::int32_t trk_rx_ = -1;      ///< "agent.rx" trace track (ISR-serialized)
};

}  // namespace meshmp::via
