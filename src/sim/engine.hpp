#pragma once

// Discrete-event simulation engine: sequential by default, conservative
// parallel (PDES) when partitioned.
//
// Legacy mode (every raw `Engine`, and clusters when MESHMP_THREADS is
// unset): a single-threaded, deterministic event loop. Events fire in
// (time, sequence) order, where sequence is the order of scheduling. All
// coroutine resumptions are funnelled through the queue, so two runs of the
// same program produce identical event orders and identical results. This
// path is byte-identical to the engine before the PDES work — same seq
// numbering, same digest.
//
// Partitioned mode (Engine::partition, used by the cluster builders when
// MESHMP_THREADS >= 1): events are sharded across logical processes — LP 0
// for control/host work, one LP per simulated node — each shard owning its
// own EventArena/EventQueue/seq-counter/clock/digest. Execution advances in
// lookahead windows: with T the earliest pending timestamp and L the link
// propagation delay, every event with when < T+L can run, because the only
// cross-LP events are wire hops (Engine::schedule_to) whose delay is >= L,
// so nothing scheduled inside the window can land inside it on another LP.
// Cross-LP events travel through per-shard mailboxes, are sorted by
// (when, source LP, per-source emission number) and injected at window
// boundaries — an order that no thread interleaving can perturb. Each LP's
// events run in (when, seq) order by exactly one owner per window, so the
// per-LP FNV digests — merged in LP-id order by digest() — are bit-identical
// at any MESHMP_THREADS value, including 1. Windows with control-LP events
// (fault injection, host drivers) run merged on the coordinator in global
// (when, lp, seq) order; pure node windows fan out across the worker team.
//
// Hot-path shape (both modes): pooled EventNodes (sim/event_queue.hpp)
// holding a fixed-capacity sim::InlineFn, ordered by per-delay FIFO lanes
// with a fallback heap. Steady-state scheduling performs zero heap
// allocations.

#include <coroutine>
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "chk/audit.hpp"
#include "chk/thread_annotations.hpp"
#include "sim/event_queue.hpp"
#include "sim/inline_fn.hpp"
#include "sim/lp.hpp"
#include "sim/time.hpp"

namespace meshmp::sim {

class WorkerTeam;

/// Process-wide host-side engine telemetry, accumulated as engines are
/// destroyed (relaxed atomics; safe under TSan). Deliberately outside the
/// deterministic state: bench reports publish these under the host.* metric
/// group, which tools/bench_diff.py treats as informational only.
struct EngineHostStats {
  std::uint64_t events_dispatched = 0;
  std::uint64_t queue_depth_hwm = 0;  ///< max over all engines' high-water marks
  std::uint64_t windows = 0;           ///< lookahead windows run (partitioned)
  std::uint64_t parallel_windows = 0;  ///< windows fanned out to the team
  std::uint64_t queue_lane_pushes = 0;      ///< pushes onto a FIFO lane
  std::uint64_t queue_fallback_pushes = 0;  ///< pushes that found no lane
  std::uint64_t queue_evictions = 0;  ///< lane events moved to the fallback
};
[[nodiscard]] EngineHostStats engine_host_stats() noexcept;
void reset_engine_host_stats() noexcept;

// meshmp-lint: shared-state
class Engine {
 public:
  Engine();
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Switches this engine into windowed conservative mode with `nlps`
  /// logical processes (LP 0 = control, 1..nlps-1 = nodes), `nthreads`
  /// workers (clamped to nlps; 1 = the single-threaded reference execution
  /// of the same windowed algorithm) and a lookahead of `lookahead` ns (the
  /// minimum cross-LP delay; must be > 0). Must be called before anything
  /// is scheduled. Digests are a function of the simulated program and nlps
  /// only — never of nthreads.
  void partition(std::uint32_t nlps, unsigned nthreads, Duration lookahead);

  [[nodiscard]] bool partitioned() const noexcept {
    return shards_.size() > 1;
  }
  [[nodiscard]] std::uint32_t lps() const noexcept {
    return static_cast<std::uint32_t>(shards_.size());
  }
  [[nodiscard]] unsigned threads() const noexcept { return nthreads_; }
  [[nodiscard]] Duration lookahead() const noexcept { return lookahead_; }

  /// LP whose events are currently being scheduled: the dispatching shard
  /// inside an event body, the enclosing LpScope during construction, or
  /// the control LP from a plain host context.
  [[nodiscard]] LpId current_lp() const noexcept {
    const detail::LpCtx& c = detail::lp_ctx();
    return c.eng == this ? c.lp : kControlLp;
  }

  /// Current simulated time: the executing LP's clock inside an event body
  /// (floored by the dispatching event's time, so an LpScope onto a shard
  /// whose clock lags — a crashed node being respawned — still reads the
  /// causal present), the engine-wide high-water mark otherwise.
  [[nodiscard]] Time now() const noexcept {
    const detail::LpCtx& c = detail::lp_ctx();
    if (c.eng == this && c.lp < shards_.size()) {
      const Time t = shards_[c.lp]->lnow;
      return c.tnow > t ? c.tnow : t;
    }
    return now_;
  }

  /// Schedules `fn` to run `delay` nanoseconds from now (delay >= 0) on the
  /// current LP. `label` (a string literal) names the event in the
  /// determinism digest. The capture must fit sim::kInlineFnCapacity.
  void schedule(Duration delay, InlineFn fn, const char* label = "event");

  /// Schedules `fn` at absolute time `t` (t >= now()) on the current LP.
  void schedule_at(Time t, InlineFn fn, const char* label = "event");

  /// Schedules `fn` onto LP `target` after `delay`. Same-LP calls collapse
  /// to schedule(); cross-LP calls go through the target's mailbox, drained
  /// deterministically at the next window boundary. During a window the
  /// delay must be >= lookahead() (the wire-propagation guarantee); a
  /// violation is detected at drain time and reported as a logic error.
  void schedule_to(LpId target, Duration delay, InlineFn fn,
                   const char* label = "xlp");

  /// Schedules resumption of a suspended coroutine at the current time on
  /// the current LP. All synchronization primitives wake waiters through
  /// here, never inline — coroutines migrate to the LP of whoever wakes
  /// them, which keeps wakeup order deterministic and stacks flat.
  void post(std::coroutine_handle<> h);

  /// Runs until the event queue(s) — and, when partitioned, the cross-LP
  /// mailboxes — are empty.
  void run();

  /// Runs all events with timestamp <= t, then sets now() = max(now(), t).
  /// Returns true if events remain in the queue.
  bool run_until(Time t);

  /// Runs a single event if one is pending (in global (when, lp, seq) order
  /// when partitioned). Returns false when idle.
  bool step();

  /// Number of queued events (including undelivered cross-LP messages).
  [[nodiscard]] std::size_t pending() const noexcept;

  /// Deepest any shard's queue has been over this engine's lifetime.
  [[nodiscard]] std::size_t queue_depth_hwm() const noexcept;

  /// Total events executed so far (useful for complexity assertions in tests).
  [[nodiscard]] std::uint64_t executed() const noexcept;

  /// Determinism digest: when enabled, every dispatched event folds
  /// (when, seq, label) into its LP's running FNV-1a hash; digest() merges
  /// the per-LP hashes in LP-id order (for a single shard it *is* the
  /// shard's hash, byte-identical to the sequential engine). Two runs of
  /// the same program must produce identical digests at any thread count
  /// (chk::run_twice_and_compare).
  void enable_digest(bool on) noexcept { digest_on_ = on; }
  [[nodiscard]] bool digest_enabled() const noexcept { return digest_on_; }
  [[nodiscard]] std::uint64_t digest() const noexcept;

 private:
  friend class WorkerTeam;

  /// One cross-LP mailbox item. (src, emit_seq) is the per-source emission
  /// number — together with `when` it is a total order no host interleaving
  /// can change, and the drain sorts by exactly that key.
  struct XlpItem {
    Time when = 0;
    LpId src = 0;
    std::uint64_t emit_seq = 0;
    const char* label = nullptr;
    InlineFn fn;
  };

  /// One logical process: an independent event queue with its own clock,
  /// sequence numbering and digest. `mu` is never contended in practice
  /// (one owner per window, coordinator between windows) but keeps the
  /// structure honest under TSan; `inbox_mu` really is cross-thread (any
  /// LP may emit into any other LP's mailbox mid-window).
  struct Shard {
    mutable chk::SimLock mu;
    std::uint64_t next_seq MESHMP_GUARDED_BY(mu) = 0;
    EventArena arena MESHMP_GUARDED_BY(mu);
    EventQueue queue MESHMP_GUARDED_BY(mu);
    Time lnow = 0;                  ///< LP-local clock (owner-private mid-window)
    std::uint64_t executed = 0;
    std::uint64_t digest = 0;
    std::uint64_t xlp_emitted = 0;  ///< per-source emission counter
    mutable chk::SimLock inbox_mu;
    std::vector<XlpItem> inbox MESHMP_GUARDED_BY(inbox_mu);
    /// Set (under inbox_mu) whenever a message lands, cleared at drain: the
    /// per-window drain sweep reads one flag per shard instead of taking
    /// every inbox lock — cross-LP traffic is sparse next to window count.
    std::atomic<bool> inbox_nonempty{false};
    /// Set when a running engine schedules directly onto this shard from a
    /// *different* dispatching shard (an LpScope from a control-LP event,
    /// e.g. a restart respawning a crashed node's loops). The shard may be
    /// inactive this window with its cached head stale; the coordinator
    /// sweeps these flags each window and re-reads the queue head, else the
    /// new event would never be discovered.
    std::atomic<bool> head_dirty{false};
  };

  [[nodiscard]] Shard& current_shard() noexcept {
    return *shards_[current_lp()];
  }

  /// Scheduling base time for shard `s`: its clock, floored by the
  /// dispatching event's time when called from inside an event body.
  [[nodiscard]] Time causal_now(const Shard& s) const noexcept {
    const detail::LpCtx& c = detail::lp_ctx();
    return c.eng == this && c.tnow > s.lnow ? c.tnow : s.lnow;
  }

  void schedule_on(Shard& s, Time t, InlineFn fn, const char* label);
  void dispatch(Shard& s, EventNode* n);
  /// Destroys the event's callable outside the shard lock (captures may
  /// release pooled buffers, which takes the buf::Pool lock), then recycles.
  void release_node(Shard& s, EventNode* n) noexcept;

  // --- windowed (partitioned) execution ---
  bool run_windowed(Time limit, bool bounded);
  void drain_inboxes();
  /// Recomputes shard lp's head and (re)inserts it into the lazy head heap.
  void refresh_head(LpId lp);
  void rebuild_heads();
  /// Re-reads the head of every shard flagged head_dirty (scoped scheduling
  /// onto a possibly-inactive shard mid-run); one atomic load per shard.
  void sweep_dirty_heads();
  /// Executes every active-shard event with when < wend on the calling
  /// worker's share of the active set (lp % stride == worker).
  void run_window_shards(unsigned worker, unsigned stride, Time wend);
  void run_shard_window(Shard& s, LpId lp, Time wend);
  /// Coordinator-only: merged execution of the window across all active
  /// shards in global (when, lp, seq) order.
  void run_window_merged(Time wend);
  bool step_windowed();

  /// Quiesce validator body (a named method so the thread-safety analysis
  /// sees the lock acquisition; lambdas are analyzed without lock context).
  void audit_queue_drained();

  // Shard list: resized once by partition() before any event exists; the
  // vector itself is immutable afterwards and shard interiors carry their
  // own locks.
  // meshmp-lint: unshared(fixed after partition; interiors self-locked)
  std::vector<std::unique_ptr<Shard>> shards_;
  Duration lookahead_ = 0;
  unsigned nthreads_ = 1;
  Time now_ = 0;  ///< coordinator clock: high-water mark across shards
  bool digest_on_ = false;
  bool running_ = false;      ///< inside run/run_until/step (coordinator-set)
  bool heads_stale_ = true;   ///< host scheduled outside the run loop
  std::uint64_t windows_ = 0;
  std::uint64_t parallel_windows_ = 0;

  // Lazy min-heap of shard heads, validated against head_cache_ on pop
  // (coordinator-private; see run_windowed).
  // meshmp-lint: unshared(coordinator-private scratch)
  std::vector<std::pair<Time, LpId>> heads_;
  // meshmp-lint: unshared(coordinator-private scratch)
  std::vector<Time> head_cache_;
  /// LPs active in the current window; workers read it during the window
  /// (published by the team barrier), only the coordinator writes.
  // meshmp-lint: unshared(written between windows only; published by barrier)
  std::vector<LpId> active_;
  // meshmp-lint: unshared(coordinator-private scratch)
  std::vector<XlpItem> drain_scratch_;
  // meshmp-lint: unshared(coordinator-private scratch)
  std::vector<std::pair<Time, LpId>> merge_heap_;

  std::unique_ptr<WorkerTeam> team_;
  chk::Audit::Registration audit_reg_;
};

}  // namespace meshmp::sim
