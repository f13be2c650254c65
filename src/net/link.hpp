#pragma once

// Cable parameters and the Myrinet switch port.
//
// LinkParams describes one cable: line rate, latency, media framing and the
// per-frame fault probabilities that hw::Nic's wire stage applies on the
// GigE mesh. A SimplexPipe is one direction of a Myrinet switch port (node
// to switch, or switch output to node): it serializes frames at line rate
// (store-and-forward) and delivers each one after the propagation delay.

#include <algorithm>
#include <functional>

#include "net/frame.hpp"
#include "sim/engine.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace meshmp::net {

struct LinkParams {
  /// Line rate in bytes/second. GigE: 125e6. Myrinet 2000: 250e6.
  double bytes_per_sec = 125e6;
  /// Cable + PHY latency.
  sim::Duration propagation = 300;  // ns
  /// Per-frame media overhead added to Frame::wire_bytes on the wire.
  /// Ethernet: preamble(8) + MAC header(14) + FCS(4) + IFG(12) = 38.
  std::int64_t per_frame_overhead_bytes = 38;
  /// Minimum frame size on the wire (Ethernet: 64 bytes before overhead).
  std::int64_t min_frame_bytes = 64;
  /// Fault injection probabilities per frame.
  double drop_prob = 0.0;
  double corrupt_prob = 0.0;
  /// Gray-failure (flaky PHY) probabilities per frame: duplicate delivers the
  /// frame twice, reorder holds one copy back by `reorder_delay` so it lands
  /// behind younger traffic. Both draw from the adapter's deterministic RNG
  /// and burn zero draws while the probability is 0.
  double dup_prob = 0.0;
  double reorder_prob = 0.0;
  /// Extra propagation applied to a reordered frame (>= 0: a reorder only
  /// ever delays a frame).
  sim::Duration reorder_delay = 20'000;  // ns

  /// Time the wire needs for one frame of this modelled size (excluding
  /// propagation): short frames are padded to the minimum size, and every
  /// frame pays the media overhead.
  [[nodiscard]] sim::Duration wire_time(std::int64_t wire_bytes) const {
    return sim::transfer_time(
        std::max(wire_bytes, min_frame_bytes) + per_frame_overhead_bytes,
        bytes_per_sec);
  }
};

class SimplexPipe {
 public:
  SimplexPipe(sim::Engine& eng, LinkParams params);
  SimplexPipe(const SimplexPipe&) = delete;
  SimplexPipe& operator=(const SimplexPipe&) = delete;

  /// Registers the receiver (the switch ingress or the node's port). Must
  /// be set before the first frame arrives.
  void set_sink(std::function<void(Frame)> sink) { sink_ = std::move(sink); }

  /// Queues a frame for transmission; frames serialize in FIFO order.
  void send(Frame f);

 private:
  sim::Task<> pump();

  sim::Engine& eng_;
  LinkParams params_;
  sim::Queue<Frame> q_;
  std::function<void(Frame)> sink_;
};

}  // namespace meshmp::net
