#include "sim/engine.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "chk/digest.hpp"
#include "obs/trace.hpp"

namespace meshmp::sim {

namespace {

constexpr Time kNever = std::numeric_limits<Time>::max();

/// Saturating a + b for b >= 0: schedules near Time-max clamp instead of
/// wrapping.
constexpr Time sat_add(Time a, Duration b) noexcept {
  return a > kNever - b ? kNever : a + b;
}

// Host-side telemetry only — never feeds back into simulated behavior.
EngineHostStats g_host_stats;

}  // namespace

EngineHostStats engine_host_stats() noexcept { return g_host_stats; }

void reset_engine_host_stats() noexcept { g_host_stats = {}; }

Engine::Engine()
    : audit_reg_(chk::Audit::instance().watch(
          "sim.engine", [this] { audit_queue_drained(); })) {}

Engine::~Engine() {
  const EventQueue::Stats& q = queue_.stats();
  g_host_stats.events_dispatched += executed_;
  g_host_stats.queue_depth_hwm =
      std::max<std::uint64_t>(g_host_stats.queue_depth_hwm, queue_.depth_hwm());
  g_host_stats.queue_lane_pushes += q.lane_pushes;
  g_host_stats.queue_fallback_pushes += q.fallback_pushes;
  g_host_stats.queue_evictions += q.evictions;
}

void Engine::audit_queue_drained() {
  if (queue_.empty()) return;
  chk::Audit::instance().fail(
      "sim.engine", std::to_string(queue_.size()) +
                        " event(s) still queued at quiesce (next at t=" +
                        std::to_string(queue_.peek()->when) + "ns)");
}

void Engine::schedule(Duration delay, InlineFn fn, const char* label) {
  if (delay < 0) throw std::invalid_argument("Engine::schedule: negative delay");
  schedule_node(sat_add(now_, delay), std::move(fn), label);
}

void Engine::schedule_at(Time t, InlineFn fn, const char* label) {
  if (t < now_) {
    throw std::invalid_argument("Engine::schedule_at: time in the past");
  }
  schedule_node(t, std::move(fn), label);
}

void Engine::post(std::coroutine_handle<> h) {
  assert(h && "posting a null coroutine handle");
  schedule_node(now_, [h] { h.resume(); }, "post");
}

void Engine::schedule_node(Time t, InlineFn fn, const char* label) {
  EventNode* n = arena_.get();
  n->when = t;
  n->seq = next_seq_++;
  n->label = label;
  n->fn = std::move(fn);
  queue_.push(n);
}

void Engine::dispatch(EventNode* n) {
  if (n->when < now_) [[unlikely]] {
    chk::Audit::instance().fail(
        "sim.engine",
        "time went backwards: dispatching t=" + std::to_string(n->when) +
            "ns at now=" + std::to_string(now_) + "ns");
  }
  if (digest_on_) {
    std::uint64_t h = digest_ == 0 ? chk::kFnvOffset : digest_;
    h = chk::fnv1a_u64(h, static_cast<std::uint64_t>(n->when));
    h = chk::fnv1a_u64(h, n->seq);
    digest_ = chk::fnv1a_cstr(h, n->label);
  }
  now_ = n->when;
  ++executed_;
  // Per-dispatch events live in the (default-masked) kSim category: they are
  // the finest-grained view of the run and evict everything else when on.
  MESHMP_TRACE_INSTANT_ARG(*this, obs::Cat::kSim, obs::kEnginePid, n->label,
                           "seq", n->seq);
  // Recycling is deferred past the body so a throwing event cannot leak its
  // node; the callable is destroyed after it runs (never while running).
  struct Recycle {
    EventArena& arena;
    EventNode* node;
    ~Recycle() {
      node->fn.reset();
      arena.put(node);
    }
  } recycle{arena_, n};
  n->fn();
}

void Engine::run() {
  while (EventNode* n = queue_.pop()) dispatch(n);
}

bool Engine::run_until(Time t) {
  for (EventNode* head = queue_.peek(); head != nullptr && head->when <= t;
       head = queue_.peek()) {
    dispatch(queue_.pop());
  }
  // Never rewind: an earlier t would reopen already-executed time to
  // schedule_at.
  now_ = std::max(now_, t);
  return !queue_.empty();
}

bool Engine::step() {
  EventNode* n = queue_.pop();
  if (n == nullptr) return false;
  dispatch(n);
  return true;
}

}  // namespace meshmp::sim
