#pragma once

// Point-to-point wires.
//
// A SimplexPipe serializes frames at line rate (store-and-forward), applies
// propagation delay, and can inject drops and payload corruption for fault
// testing. A Link is a full-duplex pair of pipes — one copper GigE cable
// between two adapter ports.

#include <functional>
#include <string>

#include "net/frame.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

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
  /// behind younger traffic. Both draw from the pipe's deterministic RNG and
  /// burn zero draws while the probability is 0.
  double dup_prob = 0.0;
  double reorder_prob = 0.0;
  /// Extra propagation applied to a reordered frame (>= 0: a reorder only
  /// ever delays a frame).
  sim::Duration reorder_delay = 20'000;  // ns
};

class SimplexPipe {
 public:
  SimplexPipe(sim::Engine& eng, LinkParams params, sim::Rng rng,
              std::string name);
  SimplexPipe(const SimplexPipe&) = delete;
  SimplexPipe& operator=(const SimplexPipe&) = delete;

  /// Registers the receiver (the peer NIC's rx entry). Must be set before
  /// the first frame arrives.
  void set_sink(std::function<void(Frame)> sink) { sink_ = std::move(sink); }

  /// Queues a frame for transmission; frames serialize in FIFO order.
  void send(Frame f);

  /// Carrier (link-up) state. With the carrier down the pipe behaves like an
  /// unplugged cable: frames still serialize (the transmitting PHY does not
  /// know) but nothing reaches the far end. Fault schedules toggle this.
  void set_carrier(bool up) { carrier_ = up; }
  [[nodiscard]] bool carrier() const noexcept { return carrier_; }

  /// Time the wire needs for one frame of this size (excl. propagation).
  [[nodiscard]] sim::Duration wire_time(std::int64_t wire_bytes) const;

  [[nodiscard]] const sim::Counters& counters() const { return counters_; }
  [[nodiscard]] std::int64_t bytes_sent() const { return bytes_sent_; }
  [[nodiscard]] const LinkParams& params() const { return params_; }

 private:
  sim::Task<> pump();

  sim::Engine& eng_;
  LinkParams params_;
  sim::Rng rng_;
  std::string name_;
  sim::Queue<Frame> q_;
  std::function<void(Frame)> sink_;
  sim::Counters counters_;
  std::int64_t bytes_sent_ = 0;
  bool carrier_ = true;
};

/// Full-duplex cable: direction 0 is a->b, direction 1 is b->a.
class Link {
 public:
  Link(sim::Engine& eng, LinkParams params, sim::Rng rng, std::string name)
      : a2b_(eng, params, rng.fork(), name + ".a2b"),
        b2a_(eng, params, rng.fork(), name + ".b2a") {}

  SimplexPipe& a_to_b() { return a2b_; }
  SimplexPipe& b_to_a() { return b2a_; }

  /// A cable cut takes both directions down at once.
  void set_carrier(bool up) {
    a2b_.set_carrier(up);
    b2a_.set_carrier(up);
  }
  [[nodiscard]] bool carrier() const noexcept {
    return a2b_.carrier() && b2a_.carrier();
  }

 private:
  SimplexPipe a2b_;
  SimplexPipe b2a_;
};

}  // namespace meshmp::net
