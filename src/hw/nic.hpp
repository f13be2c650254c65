#pragma once

// Gigabit Ethernet adapter model (Intel Pro/1000MT-like).
//
// Transmit: bounded descriptor ring -> DMA stage (shared PCI-X bus) -> small
// on-adapter FIFO -> wire serialization at line rate -> peer rx entry after
// propagation. The two stages overlap, so steady-state throughput is the
// slower of DMA and wire, not their sum.
//
// Receive: bus DMA into a host ring buffer -> interrupt coalescing (the
// driver's "receive interrupt delay") -> ISR runs on the host CPU at
// interrupt priority and hands each frame to the attached protocol driver.
// Hardware FCS verification (the Pro/1000MT's, paper sec. 4) discards
// frames the wire corrupted before the host ever sees them.

#include <deque>
#include <functional>
#include <string>

#include "chk/audit.hpp"
#include "hw/cpu.hpp"
#include "hw/params.hpp"
#include "net/frame.hpp"
#include "net/link.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace meshmp::hw {

class Nic;

/// Time-accounting context handed to a driver's rx handler. The ISR already
/// holds the CPU at interrupt priority; `spend*` advances time while holding
/// it (never re-acquire the CPU from inside a handler).
class IsrContext {
 public:
  IsrContext(sim::Engine& eng, const HostParams& host)
      : eng_(eng), host_(host) {}

  sim::Task<> spend(sim::Duration d) { co_await sim::delay(eng_, d); }
  sim::Task<> spend_copy(std::int64_t bytes, bool hot) {
    co_await sim::delay(eng_, host_.copy_time(bytes, hot));
  }
  [[nodiscard]] sim::Engine& engine() noexcept { return eng_; }
  [[nodiscard]] const HostParams& host() const noexcept { return host_; }

 private:
  sim::Engine& eng_;
  const HostParams& host_;
};

/// Protocol stack entry point invoked from the receive ISR.
class NicDriver {
 public:
  virtual ~NicDriver() = default;
  /// Processes one received frame while the ISR holds the CPU. Implementations
  /// charge their own time through `ctx` and may post frames to (other) NICs.
  virtual sim::Task<> handle_rx(net::Frame frame, IsrContext& ctx) = 0;
  /// Carrier change notification (the e1000's link status interrupt): the
  /// adapter `nic` saw its link go up or down. Default: ignore.
  virtual void link_change(Nic& nic, bool up) { (void)nic, (void)up; }
};

class Nic {
 public:
  /// `bus` is the node's shared PCI resource (may be shared by several
  /// adapters); `wire` describes the attached cable. `node` is the owning
  /// node's id, used to group trace spans per node.
  Nic(Cpu& cpu, sim::Resource& bus, NicParams params, net::LinkParams wire,
      sim::Rng rng, std::string name, net::NodeId node = 0);
  Nic(const Nic&) = delete;
  Nic& operator=(const Nic&) = delete;

  /// Connects the far end of the cable (usually the peer NIC's rx_entry()).
  void set_peer(std::function<void(net::Frame)> peer) {
    peer_ = std::move(peer);
  }

  /// Receive-side entry, to be handed to the peer as its tx sink.
  std::function<void(net::Frame)> rx_entry() {
    return [this](net::Frame f) { receive(std::move(f)); };
  }

  void set_driver(NicDriver* driver) { driver_ = driver; }

  /// Queues a frame for transmission. Returns false when the tx descriptor
  /// ring is full; callers wait on tx_space() and retry.
  bool post_tx(net::Frame frame);

  /// Kernel-context transmit that never drops: when the descriptor ring is
  /// full the frame waits in an unbounded software queue (the Linux qdisc)
  /// and drains as descriptors free up. Used for acks, retransmissions and
  /// forwarded frames, which an ISR cannot block to send.
  void kernel_enqueue(net::Frame frame);

  /// Fired whenever a tx descriptor frees up.
  [[nodiscard]] sim::Signal& tx_space() noexcept { return tx_space_; }

  /// Carrier (link) state of the attached cable. Dropping the carrier models
  /// a dead/unplugged cable: transmitted frames vanish at the PHY, received
  /// frames are ignored, and the driver gets a link-status notification.
  /// Fault schedules toggle this on both ends of a cable.
  void set_carrier(bool up);
  [[nodiscard]] bool carrier() const noexcept { return carrier_; }

  /// Adapter stall (hung DMA engine / firmware pause): while stalled the
  /// adapter stops moving frames from its FIFO onto the wire; everything
  /// queues behind it and drains when the stall clears.
  void set_stalled(bool stalled);
  [[nodiscard]] bool stalled() const noexcept { return stalled_; }

  /// One-directional (gray) cable break: this adapter's transmit pairs are
  /// severed but the receive pairs still train, so the carrier stays up and
  /// the driver gets NO link-status interrupt — frames silently vanish at
  /// the PHY (counted as "asym_dropped"). The far end keeps transmitting
  /// into a healthy receive path. Fault schedules toggle this on one cable
  /// end only; it composes independently with carrier and power state.
  void set_tx_severed(bool severed) { tx_severed_ = severed; }

  /// Whole-node power failure: carrier drops, every queued descriptor and
  /// FIFO/qdisc frame is discarded (in-flight DMA data vanishes with the
  /// adapter's SRAM), and new tx/rx is blackholed until power_on(). The pump
  /// coroutines stay parked on their (now empty) queues — an unpowered
  /// adapter simply never hands them work.
  void power_off();
  /// Cold boot after power_off(): rings are empty by construction; carrier
  /// is restored separately by the fabric once the peer port is live.
  void power_on();
  [[nodiscard]] bool powered() const noexcept { return powered_; }

  [[nodiscard]] int tx_free() const noexcept {
    return params_.tx_descriptors - tx_queued_;
  }
  [[nodiscard]] const obs::Counters& counters() const noexcept {
    return counters_;
  }
  [[nodiscard]] const NicParams& params() const noexcept { return params_; }
  [[nodiscard]] net::LinkParams& wire_params() noexcept { return wire_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] net::NodeId node() const noexcept { return node_; }

 private:
  void receive(net::Frame f);
  void arm_interrupt();
  sim::Task<> dma_pump();
  sim::Task<> wire_pump();
  sim::Task<> isr();
  sim::Task<> napi_poll();
  sim::Task<> drain_rx(IsrContext& ctx);
  sim::Task<> qdisc_pump();
  /// Quiesce invariants: rings within bounds and fully drained — no frame
  /// stranded in a descriptor ring, the adapter FIFO, or the qdisc.
  void audit_quiesce() const;

  Cpu& cpu_;
  sim::Resource& bus_;
  NicParams params_;
  net::LinkParams wire_;
  sim::Rng rng_;
  std::string name_;
  net::NodeId node_;

  std::function<void(net::Frame)> peer_;
  NicDriver* driver_ = nullptr;

  sim::Queue<net::Frame> tx_ring_;
  int tx_queued_ = 0;
  sim::Signal tx_space_;
  // Adapter FIFO between DMA and wire stages: a few frames deep, enough to
  // overlap the stages without modelling the 64 KB FIFO byte-exactly.
  sim::Queue<net::Frame> tx_fifo_;
  sim::Resource tx_fifo_slots_;

  sim::Queue<net::Frame> rx_ring_;
  int rx_queued_ = 0;
  bool irq_armed_ = false;
  bool napi_polling_ = false;

  std::deque<net::Frame> qdisc_;
  bool qdisc_running_ = false;

  bool carrier_ = true;
  bool stalled_ = false;
  bool tx_severed_ = false;
  bool powered_ = true;
  sim::Signal stall_cleared_;

  obs::Counters counters_;
  chk::Audit::Registration audit_reg_;
  obs::Registry::Registration metrics_reg_;
  obs::Histogram& rx_batch_hist_;  ///< frames drained per ISR/NAPI pass
  obs::Histogram& tx_wire_hist_;   ///< modelled wire bytes per tx frame
  // Lazily interned trace tracks (one per pipeline stage; the stages are
  // sequential coroutines, so spans on a track never overlap).
  std::int32_t trk_dma_ = -1;
  std::int32_t trk_wire_ = -1;
  std::int32_t trk_irq_ = -1;

  // The pump coroutines are owned (not detached) so teardown frees their
  // frames; they must be the last members, destroyed before anything they
  // reference.
  sim::Task<> dma_task_;
  sim::Task<> wire_task_;
};

}  // namespace meshmp::hw
