#include "hw/nic.hpp"

#include <cassert>
#include <utility>

namespace meshmp::hw {

Nic::Nic(Cpu& cpu, sim::Resource& bus, NicParams params, net::LinkParams wire,
         sim::Rng rng, std::string name, net::NodeId node)
    : cpu_(cpu),
      bus_(bus),
      params_(params),
      wire_(wire),
      rng_(rng),
      name_(std::move(name)),
      node_(node),
      tx_ring_(cpu.engine()),
      tx_space_(cpu.engine()),
      tx_fifo_(cpu.engine()),
      tx_fifo_slots_(cpu.engine(), 4, name_ + ".txfifo"),
      rx_ring_(cpu.engine()),
      stall_cleared_(cpu.engine()),
      audit_reg_(chk::Audit::instance().watch("hw.nic." + name_,
                                              [this] { audit_quiesce(); })),
      metrics_reg_(obs::Registry::instance().attach("hw.nic", &counters_)),
      rx_batch_hist_(
          obs::Registry::instance().histogram("hw.nic.rx_batch_frames")),
      tx_wire_hist_(
          obs::Registry::instance().histogram("hw.nic.tx_wire_bytes")) {
  dma_task_ = dma_pump();
  wire_task_ = wire_pump();
}

void Nic::audit_quiesce() const {
  auto fail = [this](const std::string& msg) {
    chk::Audit::instance().fail("hw.nic." + name_, msg);
  };
  if (tx_queued_ < 0 || tx_queued_ > params_.tx_descriptors) {
    fail("tx descriptor count " + std::to_string(tx_queued_) +
         " outside [0, " + std::to_string(params_.tx_descriptors) + "]");
  } else if (tx_queued_ != 0) {
    fail(std::to_string(tx_queued_) +
         " tx descriptor(s) still queued at quiesce");
  }
  if (tx_fifo_.size() != 0) {
    fail(std::to_string(tx_fifo_.size()) +
         " frame(s) stranded in the adapter FIFO at quiesce");
  }
  if (!qdisc_.empty()) {
    fail(std::to_string(qdisc_.size()) +
         " frame(s) stranded in the qdisc at quiesce");
  }
  if (rx_queued_ < 0 || rx_queued_ > params_.rx_descriptors) {
    fail("rx descriptor count " + std::to_string(rx_queued_) +
         " outside [0, " + std::to_string(params_.rx_descriptors) + "]");
  } else if (rx_queued_ != 0) {
    fail(std::to_string(rx_queued_) +
         " rx frame(s) undelivered to the driver at quiesce");
  }
}

void Nic::set_carrier(bool up) {
  if (up && !powered_) return;  // no PHY, no link: power clamps the carrier
  if (carrier_ == up) return;
  carrier_ = up;
  counters_.inc(up ? "carrier_up_events" : "carrier_down_events");
  if (driver_ != nullptr) driver_->link_change(*this, up);
}

void Nic::set_stalled(bool stalled) {
  if (stalled_ == stalled) return;
  stalled_ = stalled;
  if (stalled) {
    counters_.inc("stalls");
  } else {
    stall_cleared_.notify_all();
  }
}

void Nic::power_off() {
  if (!powered_) return;
  powered_ = false;
  set_carrier(false);
  // Discard everything queued on the adapter. A frame the DMA pump already
  // popped still owns its descriptor and decrements tx_queued_ itself when
  // its bus hold completes, so only count frames drained from the ring here.
  int drained = 0;
  while (tx_ring_.try_pop()) ++drained;
  tx_queued_ -= drained;
  while (tx_fifo_.try_pop()) tx_fifo_slots_.release();
  qdisc_.clear();
  while (rx_ring_.try_pop()) --rx_queued_;
  // Wake a qdisc pump parked on tx_space so it can observe the empty queue.
  tx_space_.notify_all();
  counters_.inc("power_off_events");
}

void Nic::power_on() {
  if (powered_) return;
  powered_ = true;
  counters_.inc("power_on_events");
}

bool Nic::post_tx(net::Frame frame) {
  if (!powered_) {
    // A dead host has no caller left to block: accept and discard so stale
    // coroutines unwinding through the crash never strand on tx_space().
    counters_.inc("powered_off_tx_dropped");
    return true;
  }
  if (tx_queued_ >= params_.tx_descriptors) {
    counters_.inc("tx_ring_full");
    return false;
  }
  ++tx_queued_;
  tx_ring_.push(std::move(frame));
  return true;
}

void Nic::kernel_enqueue(net::Frame frame) {
  if (!powered_) {
    counters_.inc("powered_off_tx_dropped");
    return;
  }
  if (!qdisc_running_ && tx_queued_ < params_.tx_descriptors) {
    const bool ok = post_tx(std::move(frame));
    assert(ok);
    (void)ok;
    return;
  }
  counters_.inc("qdisc_queued");
  qdisc_.push_back(std::move(frame));
  if (!qdisc_running_) {
    qdisc_running_ = true;
    qdisc_pump().detach();
  }
}

sim::Task<> Nic::qdisc_pump() {
  while (!qdisc_.empty()) {
    while (tx_queued_ >= params_.tx_descriptors) {
      co_await tx_space_.next();
    }
    // power_off() may have discarded the queue while we waited for space.
    if (qdisc_.empty()) break;
    const bool ok = post_tx(std::move(qdisc_.front()));
    assert(ok);
    (void)ok;
    qdisc_.pop_front();
  }
  qdisc_running_ = false;
}

sim::Task<> Nic::dma_pump() {
  for (;;) {
    net::Frame f = co_await tx_ring_.pop();
    MESHMP_TRACE_TRACK(trk_dma_, node_, name_ + ".dma");
    MESHMP_TRACE_SCOPE_ARG(cpu_.engine(), obs::Cat::kNic, node_, trk_dma_,
                           "dma", "wire_bytes", f.wire_bytes);
    co_await tx_fifo_slots_.acquire();
    // Descriptor DMA across the shared PCI-X bus; bus holds are serialized,
    // so concurrent adapters share its bandwidth.
    co_await bus_.consume(
        params_.dma_per_frame +
            sim::transfer_time(f.wire_bytes, params_.dma_bytes_per_sec),
        sim::Resource::kKernelPriority);
    // Descriptor is done as soon as the data reaches the adapter FIFO.
    --tx_queued_;
    if (tx_queued_ < 0) [[unlikely]] {
      chk::Audit::instance().fail("hw.nic." + name_,
                                  "tx descriptor count went negative");
    }
    tx_space_.notify_all();
    counters_.inc("tx_frames");
    tx_fifo_.push(std::move(f));
  }
}

sim::Task<> Nic::wire_pump() {
  for (;;) {
    net::Frame f = co_await tx_fifo_.pop();
    tx_wire_hist_.add(f.wire_bytes);
    MESHMP_TRACE_TRACK(trk_wire_, node_, name_ + ".wire");
    MESHMP_TRACE_SCOPE_ARG(cpu_.engine(), obs::Cat::kNic, node_, trk_wire_,
                           "serialize", "wire_bytes", f.wire_bytes);
    while (stalled_) co_await stall_cleared_.next();
    co_await sim::delay(cpu_.engine(), wire_.wire_time(f.wire_bytes));
    tx_fifo_slots_.release();
    if (tx_severed_) {
      // Gray cable: only the transmit pairs are broken, so the PHY never
      // loses link and the driver is never told — the frame just vanishes.
      counters_.inc("asym_dropped");
      MESHMP_TRACE_INSTANT(cpu_.engine(), obs::Cat::kNic, node_, "asym_drop");
      continue;
    }
    if (!carrier_) {
      // Dead cable: the PHY clocks the frame out into nothing.
      counters_.inc("carrier_dropped");
      MESHMP_TRACE_INSTANT(cpu_.engine(), obs::Cat::kNic, node_,
                           "carrier_drop");
      continue;
    }
    if (wire_.drop_prob > 0 && rng_.bernoulli(wire_.drop_prob)) {
      counters_.inc("wire_dropped");
      MESHMP_TRACE_INSTANT(cpu_.engine(), obs::Cat::kNic, node_, "wire_drop");
      continue;
    }
    if (wire_.corrupt_prob > 0 && !f.payload.empty() &&
        rng_.bernoulli(wire_.corrupt_prob)) {
      f.corrupt_payload_byte(rng_.below(f.payload.size()), std::byte{0x08});
      counters_.inc("wire_corrupted");
    }
    sim::Duration extra = 0;
    if (wire_.reorder_prob > 0 && rng_.bernoulli(wire_.reorder_prob)) {
      // Flaky PHY holds the frame in its elastic buffer: it lands behind
      // younger traffic.
      extra = wire_.reorder_delay;
      counters_.inc("wire_reordered");
      MESHMP_TRACE_INSTANT(cpu_.engine(), obs::Cat::kNic, node_,
                           "wire_reorder");
    }
    assert(peer_ && "Nic: no peer attached");
    if (wire_.dup_prob > 0 && rng_.bernoulli(wire_.dup_prob)) {
      // Flaky PHY retransmit: the peer sees the same frame twice and the
      // receive path must dedup it.
      net::Frame dup = f;
      counters_.inc("wire_duplicated");
      MESHMP_TRACE_INSTANT(cpu_.engine(), obs::Cat::kNic, node_, "wire_dup");
      cpu_.engine().schedule(
          wire_.propagation + extra,
          [this, dup = std::move(dup)]() mutable { peer_(std::move(dup)); },
          "wire");
    }
    cpu_.engine().schedule(
        wire_.propagation + extra,
        [this, f = std::move(f)]() mutable { peer_(std::move(f)); }, "wire");
  }
}

void Nic::receive(net::Frame f) {
  if (!powered_) {
    counters_.inc("powered_off_rx_dropped");
    return;
  }
  if (!carrier_) {
    // No link: whatever was still propagating never trains into the PHY.
    counters_.inc("carrier_rx_dropped");
    return;
  }
  if (f.fcs_error) {
    counters_.inc("rx_checksum_drop");
    MESHMP_TRACE_INSTANT(cpu_.engine(), obs::Cat::kNic, node_,
                         "rx_checksum_drop");
    return;
  }
  if (rx_queued_ >= params_.rx_descriptors) {
    counters_.inc("rx_ring_full");
    MESHMP_TRACE_INSTANT(cpu_.engine(), obs::Cat::kNic, node_,
                         "rx_ring_full");
    return;
  }
  ++rx_queued_;
  counters_.inc("rx_frames");
  rx_ring_.push(std::move(f));
  arm_interrupt();
}

void Nic::arm_interrupt() {
  if (irq_armed_ || napi_polling_) return;
  irq_armed_ = true;
  cpu_.engine().schedule(params_.rx_interrupt_delay, [this] {
    isr().detach();
  });
}

sim::Task<> Nic::drain_rx(IsrContext& ctx) {
  // Drain everything in the ring, including frames that arrive while the
  // handler is running (batching under load).
  std::int64_t batch = 0;
  while (auto f = rx_ring_.try_pop()) {
    --rx_queued_;
    ++batch;
    if (driver_ != nullptr) {
      co_await driver_->handle_rx(std::move(*f), ctx);
    }
  }
  rx_batch_hist_.add(batch);
}

sim::Task<> Nic::isr() {
  co_await cpu_.acquire(Cpu::kIrq);
  counters_.inc("interrupts");
  irq_armed_ = false;
  MESHMP_TRACE_TRACK(trk_irq_, node_, name_ + ".irq");
  MESHMP_TRACE_SCOPE(cpu_.engine(), obs::Cat::kNic, node_, trk_irq_, "isr");
  co_await sim::delay(cpu_.engine(), cpu_.host().isr_entry);
  IsrContext ctx(cpu_.engine(), cpu_.host());
  co_await drain_rx(ctx);
  if (params_.napi) {
    // Stay in polling mode: interrupts off, scheduled polls take over
    // (paper sec. 7 / Linux 2.6 NAPI).
    napi_polling_ = true;
    napi_poll().detach();
  }
  cpu_.release();
}

sim::Task<> Nic::napi_poll() {
  for (;;) {
    co_await sim::delay(cpu_.engine(), params_.napi_poll_interval);
    if (rx_queued_ == 0) {
      // Idle poll: re-enable interrupts and leave polling mode.
      napi_polling_ = false;
      co_return;
    }
    co_await cpu_.acquire(Cpu::kIrq);
    counters_.inc("napi_polls");
    {
      MESHMP_TRACE_TRACK(trk_irq_, node_, name_ + ".irq");
      MESHMP_TRACE_SCOPE(cpu_.engine(), obs::Cat::kNic, node_, trk_irq_,
                         "napi_poll");
      IsrContext ctx(cpu_.engine(), cpu_.host());
      co_await drain_rx(ctx);
    }
    cpu_.release();
  }
}

}  // namespace meshmp::hw
