#include "net/link.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace meshmp::net {

SimplexPipe::SimplexPipe(sim::Engine& eng, LinkParams params, sim::Rng rng,
                         std::string name)
    : eng_(eng),
      params_(params),
      rng_(rng),
      name_(std::move(name)),
      q_(eng) {
  pump().detach();
}

sim::Duration SimplexPipe::wire_time(std::int64_t wire_bytes) const {
  const std::int64_t on_wire =
      std::max(wire_bytes, params_.min_frame_bytes) +
      params_.per_frame_overhead_bytes;
  return sim::transfer_time(on_wire, params_.bytes_per_sec);
}

void SimplexPipe::send(Frame f) { q_.push(std::move(f)); }

sim::Task<> SimplexPipe::pump() {
  for (;;) {
    Frame f = co_await q_.pop();
    co_await sim::delay(eng_, wire_time(f.wire_bytes));
    bytes_sent_ += f.wire_bytes;
    counters_.inc("frames");
    if (!carrier_) {
      counters_.inc("carrier_dropped");
      continue;
    }
    if (params_.drop_prob > 0 && rng_.bernoulli(params_.drop_prob)) {
      counters_.inc("dropped");
      continue;
    }
    if (params_.corrupt_prob > 0 && !f.payload.empty() &&
        rng_.bernoulli(params_.corrupt_prob)) {
      // Flip one bit somewhere in the payload; the transmit-time checksum no
      // longer matches and the receiving NIC will discard the frame.
      f.corrupt_payload_byte(rng_.below(f.payload.size()), std::byte{0x10});
      counters_.inc("corrupted");
    }
    assert(sink_ && "SimplexPipe: no sink attached");
    sim::Duration extra = 0;
    if (params_.reorder_prob > 0 && rng_.bernoulli(params_.reorder_prob)) {
      // Held back in the PHY elastic buffer: arrives behind younger frames.
      extra = params_.reorder_delay;
      counters_.inc("reordered");
    }
    if (params_.dup_prob > 0 && rng_.bernoulli(params_.dup_prob)) {
      // Flaky retransmitting PHY: the far end sees the frame twice.
      Frame dup = f;
      counters_.inc("duplicated");
      eng_.schedule(
          params_.propagation + extra,
          [this, dup = std::move(dup)]() mutable { sink_(std::move(dup)); },
          "wire");
    }
    eng_.schedule(
        params_.propagation + extra,
        [this, f = std::move(f)]() mutable { sink_(std::move(f)); }, "wire");
  }
}

}  // namespace meshmp::net
