#pragma once

// Discrete-event simulation engine: a single-threaded, deterministic event
// loop. Events fire in (time, sequence) order, where sequence is the order
// of scheduling. All coroutine resumptions are funnelled through the queue,
// so two runs of the same program produce identical event orders and
// identical results.
//
// Hot-path shape: pooled EventNodes (sim/event_queue.hpp) holding a
// fixed-capacity sim::InlineFn, ordered by per-delay FIFO lanes with a
// fallback heap. Steady-state scheduling performs zero heap allocations.
//
// The engine is sequential on purpose: DESIGN.md §13 records why a
// conservative parallel engine over the 300 ns cable lookahead lost to
// this loop, and where host parallelism belongs instead.

#include <coroutine>
#include <cstdint>

#include "chk/audit.hpp"
#include "sim/event_queue.hpp"
#include "sim/inline_fn.hpp"
#include "sim/time.hpp"

namespace meshmp::sim {

/// Process-wide host-side engine telemetry, accumulated as engines are
/// destroyed. Deliberately outside the deterministic state: bench reports
/// publish these under the host.* metric group, which tools/bench_diff.py
/// treats as informational only.
struct EngineHostStats {
  std::uint64_t events_dispatched = 0;
  std::uint64_t queue_depth_hwm = 0;  ///< max over all engines' high-water marks
  std::uint64_t queue_lane_pushes = 0;      ///< pushes onto a FIFO lane
  std::uint64_t queue_fallback_pushes = 0;  ///< pushes that found no lane
  std::uint64_t queue_evictions = 0;  ///< lane events moved to the fallback
};
[[nodiscard]] EngineHostStats engine_host_stats() noexcept;
void reset_engine_host_stats() noexcept;

class Engine {
 public:
  Engine();
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulated time.
  [[nodiscard]] Time now() const noexcept { return now_; }

  /// Schedules `fn` to run `delay` nanoseconds from now (delay >= 0).
  /// `label` (a string literal) names the event in the determinism digest.
  /// The capture must fit sim::kInlineFnCapacity.
  void schedule(Duration delay, InlineFn fn, const char* label = "event");

  /// Schedules `fn` at absolute time `t` (t >= now()).
  void schedule_at(Time t, InlineFn fn, const char* label = "event");

  /// Schedules resumption of a suspended coroutine at the current time. All
  /// synchronization primitives wake waiters through here, never inline,
  /// which keeps wakeup order deterministic and stacks flat.
  void post(std::coroutine_handle<> h);

  /// Runs until the event queue is empty.
  void run();

  /// Runs all events with timestamp <= t, then sets now() = max(now(), t).
  /// Returns true if events remain in the queue.
  bool run_until(Time t);

  /// Runs a single event if one is pending. Returns false when idle.
  bool step();

  /// Number of queued events.
  [[nodiscard]] std::size_t pending() const noexcept { return queue_.size(); }

  /// Deepest the queue has been over this engine's lifetime.
  [[nodiscard]] std::size_t queue_depth_hwm() const noexcept {
    return queue_.depth_hwm();
  }

  /// Total events executed so far (useful for complexity assertions in tests).
  [[nodiscard]] std::uint64_t executed() const noexcept { return executed_; }

  /// Determinism digest: when enabled, every dispatched event folds
  /// (when, seq, label) into a running FNV-1a hash. Two runs of the same
  /// program must produce identical digests (chk::run_twice_and_compare).
  void enable_digest(bool on) noexcept { digest_on_ = on; }
  [[nodiscard]] std::uint64_t digest() const noexcept { return digest_; }

 private:
  void schedule_node(Time t, InlineFn fn, const char* label);
  void dispatch(EventNode* n);
  void audit_queue_drained();

  EventArena arena_;
  EventQueue queue_;
  std::uint64_t next_seq_ = 0;
  Time now_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t digest_ = 0;
  bool digest_on_ = false;
  chk::Audit::Registration audit_reg_;
};

}  // namespace meshmp::sim
