#pragma once

// Calibrated hardware model parameters.
//
// Every number here is a named, documented model input; nothing downstream
// hard-codes a latency or bandwidth. Defaults are calibrated so that the
// paper's headline measurements come out of the simulation:
//   * M-VIA half round trip ~18.5 us for small messages (paper fig. 2/4),
//   * ~6 us combined send+receive host overhead (paper sec. 4.1),
//   * ~110 MB/s single-link simultaneous M-VIA send bandwidth,
//   * TCP latency >= 30% above M-VIA, clearly lower simultaneous bandwidth,
//   * 3-D aggregate peaking ~550 MB/s, settling ~400 MB/s (fig. 3),
//   * ~12.5 us per-hop kernel forwarding latency (sec. 5.1).
// The ablation benches sweep the interesting ones.

#include <cstdint>

#include "net/link.hpp"
#include "sim/time.hpp"

namespace meshmp::hw {

using sim::Duration;
using namespace sim::literals;

/// Host (CPU + memory + OS) cost model for one cluster node.
/// Reference machine: single 2.67 GHz Pentium 4 Xeon, RedHat 9, kernel 2.4.
struct HostParams {
  // -- memory copies ---------------------------------------------------
  /// memcpy bandwidth while the working set is cache-resident.
  double copy_bytes_per_sec_hot = 3.0e9;
  /// memcpy bandwidth once the destination falls out of L2 (512 KB on the
  /// reference Xeon): this is what bends the 3-D aggregate curve down at
  /// large message sizes (fig. 3).
  double copy_bytes_per_sec_cold = 1.2e9;
  /// Working-set size above which copies run at the cold rate.
  std::int64_t cache_bytes = 512 * 1024;
  /// Fixed cost per copy call.
  Duration copy_setup = 100_ns;

  // -- interrupts and scheduling ----------------------------------------
  /// Interrupt entry/exit + handler dispatch.
  Duration isr_entry = 1000_ns;
  /// Waking a blocked user process (schedule + context switch).
  Duration wakeup = 1000_ns;
  /// One system call (TCP path only; M-VIA bypasses the kernel on the
  /// critical path).
  Duration syscall = 1200_ns;

  // -- M-VIA path --------------------------------------------------------
  /// User-level descriptor build + doorbell for one send post.
  Duration via_post = 1000_ns;
  /// Kernel driver work per transmitted fragment (segmentation, DMA setup).
  Duration via_tx_per_frame = 400_ns;
  /// ISR work per received fragment (VI lookup, descriptor completion),
  /// excluding the payload copy which is charged by byte.
  Duration via_rx_per_frame = 400_ns;
  /// User-level completion-queue processing per finished descriptor.
  Duration via_completion = 600_ns;
  /// Kernel packet-switch cost per forwarded fragment (route lookup +
  /// re-posting to the egress adapter; no user-space copy).
  Duration via_forward_per_frame = 800_ns;

  // -- TCP path ---------------------------------------------------------
  /// Kernel transmit-side protocol work per segment (skb handling, IP/TCP
  /// header build, route, congestion bookkeeping).
  Duration tcp_tx_per_frame = 3500_ns;
  /// Kernel receive-side protocol work per segment, *including* the poorer
  /// interrupt amortization of the stock e1000 path (pre-NAPI kernel 2.4
  /// receive processing).
  Duration tcp_rx_per_frame = 9000_ns;
  /// Kernel IP forwarding per segment (mesh multi-hop via routing tables).
  Duration tcp_forward_per_frame = 2500_ns;
  /// Software checksum (no offload on the TCP receive path in this era).
  double tcp_csum_bytes_per_sec = 1.5e9;
  /// Cost to build + send an ACK (receiver) and to absorb one (sender).
  Duration tcp_ack_tx = 1000_ns;
  Duration tcp_ack_rx = 2000_ns;

  /// Sustained floating-point rate for the LQCD compute model (SSE single
  /// precision dslash on the 2.67 GHz Xeon).
  double flops_per_sec = 1.4e9;

  [[nodiscard]] Duration copy_time(std::int64_t bytes, bool hot) const {
    const double rate = hot ? copy_bytes_per_sec_hot : copy_bytes_per_sec_cold;
    return copy_setup + sim::transfer_time(bytes, rate);
  }
};

/// Network adapter model.
struct NicParams {
  /// Descriptor ring sizes; the paper loads the driver with 2048/2048.
  int tx_descriptors = 2048;
  int rx_descriptors = 2048;
  /// DMA engine rate between host memory and adapter FIFO.
  double dma_bytes_per_sec = 800e6;
  /// Fixed per-frame DMA/engine overhead.
  Duration dma_per_frame = 250_ns;
  /// Receive interrupt coalescing delay (Intel "receive interrupt delay").
  /// The dominant term in the 18.5 us small-message latency; ablation bench
  /// `ablation_coalescing` sweeps it.
  Duration rx_interrupt_delay = 12600_ns;

  /// NAPI-style interrupt mitigation (paper sec. 7 future work: "a possible
  /// new M-VIA feature, similar to the NAPI appeared in Linux kernel 2.6").
  /// After an interrupt fires, the driver stays in polling mode: further
  /// frames are drained by scheduled polls without interrupt entry cost;
  /// when a poll finds the ring empty, interrupts are re-enabled.
  bool napi = false;
  /// Poll cadence while in polling mode.
  Duration napi_poll_interval = 15000_ns;
};

/// Shared I/O bus (PCI-X 133 MHz / 64 bit, ~1066 MB/s) through which every
/// adapter DMA flows. Three dual-port adapters share it, which caps the
/// combined tx+rx byte rate of a node.
struct BusParams {
  double bytes_per_sec = 1066e6;
};

/// Per-node networking hardware cost in dollars (paper sec. 3/6).
struct CostParams {
  double node_base_usd = 1100.0;          // host without networking
  double gige_adapter_usd = 140.0;        // one dual-port Intel Pro/1000MT
  int gige_adapters_per_node = 3;         // -> $420/node, as in the paper
  double myrinet_port_usd = 1000.0;       // LANai9 NIC + switch port share
  [[nodiscard]] double gige_node_usd() const {
    return node_base_usd + gige_adapter_usd * gige_adapters_per_node;
  }
  [[nodiscard]] double myrinet_node_usd() const {
    return node_base_usd + myrinet_port_usd;
  }
};

/// GigE preset: Intel Pro/1000MT on PCI-X, copper cables.
inline net::LinkParams gige_link_params() {
  return net::LinkParams{.bytes_per_sec = 125e6,
                         .propagation = 300_ns,
                         .per_frame_overhead_bytes = 38,
                         .min_frame_bytes = 64,
                         .drop_prob = 0.0,
                         .corrupt_prob = 0.0};
}

/// Myrinet 2000 preset: 2 Gbit/s links, cut-through-ish low overhead.
inline net::LinkParams myrinet_link_params() {
  return net::LinkParams{.bytes_per_sec = 250e6,
                         .propagation = 200_ns,
                         .per_frame_overhead_bytes = 8,
                         .min_frame_bytes = 8,
                         .drop_prob = 0.0,
                         .corrupt_prob = 0.0};
}

/// Host model for the Myrinet cluster nodes (2.0 GHz Xeon, GM user-level
/// firmware: no kernel, no interrupts on the critical path).
struct MyrinetParams {
  Duration host_post = 600_ns;      ///< GM send post
  Duration host_completion = 500_ns;  ///< polled completion
  Duration nic_per_frame = 700_ns;  ///< LANai firmware per-packet time
  Duration switch_latency = 500_ns;
  std::int64_t mtu_payload = 4096;  ///< GM allows large frames
  double flops_per_sec = 1.05e9;    ///< 2.0 GHz vs 2.67 GHz reference node
};

}  // namespace meshmp::hw
