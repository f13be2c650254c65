#include "sim/engine.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "chk/digest.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/scheduler.hpp"

namespace meshmp::sim {

namespace {

constexpr Time kNever = std::numeric_limits<Time>::max();

/// Saturating a + b for b >= 0: the lookahead horizon and Time-max schedules
/// clamp instead of wrapping.
constexpr Time sat_add(Time a, Duration b) noexcept {
  return a > kNever - b ? kNever : a + b;
}

/// Min-heap comparator over (when, lp): earliest first, lowest LP on ties.
struct HeadGreater {
  bool operator()(const std::pair<Time, LpId>& a,
                  const std::pair<Time, LpId>& b) const noexcept {
    return a > b;
  }
};

// Host-side telemetry only — never feeds back into simulated behavior.
std::atomic<std::uint64_t> g_events_dispatched{0};
std::atomic<std::uint64_t> g_queue_depth_hwm{0};
std::atomic<std::uint64_t> g_windows{0};
std::atomic<std::uint64_t> g_parallel_windows{0};
std::atomic<std::uint64_t> g_queue_lane_pushes{0};
std::atomic<std::uint64_t> g_queue_fallback_pushes{0};
std::atomic<std::uint64_t> g_queue_evictions{0};

void fold_host_stats(std::uint64_t dispatched, std::uint64_t hwm,
                     std::uint64_t windows, std::uint64_t parallel,
                     const EventQueue::Stats& q) noexcept {
  g_events_dispatched.fetch_add(dispatched, std::memory_order_relaxed);
  g_windows.fetch_add(windows, std::memory_order_relaxed);
  g_parallel_windows.fetch_add(parallel, std::memory_order_relaxed);
  g_queue_lane_pushes.fetch_add(q.lane_pushes, std::memory_order_relaxed);
  g_queue_fallback_pushes.fetch_add(q.fallback_pushes,
                                    std::memory_order_relaxed);
  g_queue_evictions.fetch_add(q.evictions, std::memory_order_relaxed);
  std::uint64_t cur = g_queue_depth_hwm.load(std::memory_order_relaxed);
  while (hwm > cur && !g_queue_depth_hwm.compare_exchange_weak(
                          cur, hwm, std::memory_order_relaxed)) {
  }
}

}  // namespace

EngineHostStats engine_host_stats() noexcept {
  EngineHostStats s;
  s.events_dispatched = g_events_dispatched.load(std::memory_order_relaxed);
  s.queue_depth_hwm = g_queue_depth_hwm.load(std::memory_order_relaxed);
  s.windows = g_windows.load(std::memory_order_relaxed);
  s.parallel_windows = g_parallel_windows.load(std::memory_order_relaxed);
  s.queue_lane_pushes = g_queue_lane_pushes.load(std::memory_order_relaxed);
  s.queue_fallback_pushes =
      g_queue_fallback_pushes.load(std::memory_order_relaxed);
  s.queue_evictions = g_queue_evictions.load(std::memory_order_relaxed);
  return s;
}

void reset_engine_host_stats() noexcept {
  g_events_dispatched.store(0, std::memory_order_relaxed);
  g_queue_depth_hwm.store(0, std::memory_order_relaxed);
  g_windows.store(0, std::memory_order_relaxed);
  g_parallel_windows.store(0, std::memory_order_relaxed);
  g_queue_lane_pushes.store(0, std::memory_order_relaxed);
  g_queue_fallback_pushes.store(0, std::memory_order_relaxed);
  g_queue_evictions.store(0, std::memory_order_relaxed);
}

Engine::Engine()
    : audit_reg_(chk::Audit::instance().watch(
          "sim.engine", [this] { audit_queue_drained(); })) {
  shards_.push_back(std::make_unique<Shard>());
  head_cache_.assign(1, kNever);
}

Engine::~Engine() {
  // Join the worker team first so no thread can touch the shards below.
  team_.reset();
  EventQueue::Stats q;
  for (const auto& sp : shards_) {
    chk::SimLockGuard g(sp->mu);
    q.lane_pushes += sp->queue.stats().lane_pushes;
    q.fallback_pushes += sp->queue.stats().fallback_pushes;
    q.evictions += sp->queue.stats().evictions;
  }
  fold_host_stats(executed(), queue_depth_hwm(), windows_, parallel_windows_,
                  q);
}

void Engine::partition(std::uint32_t nlps, unsigned nthreads,
                       Duration lookahead) {
  if (nlps == 0) {
    throw std::invalid_argument("Engine::partition: need at least one LP");
  }
  if (nlps > 1 && lookahead <= 0) {
    throw std::invalid_argument(
        "Engine::partition: lookahead must be positive");
  }
  if (executed() != 0 || pending() != 0 || now_ != 0) {
    throw std::logic_error(
        "Engine::partition: engine already scheduled or ran events");
  }
#if defined(MESHMP_OBS_TRACING)
  // The sim-time tracer's ring buffer is single-writer; a traced run keeps
  // the windowed algorithm but executes it on the coordinator alone, which
  // leaves the digest unchanged (it never depends on the worker count).
  if (obs::Tracer::instance().enabled()) nthreads = 1;
#endif
  if (nthreads == 0) nthreads = 1;
  if (nthreads > nlps) nthreads = nlps;
  while (shards_.size() < nlps) shards_.push_back(std::make_unique<Shard>());
  nthreads_ = nthreads;
  lookahead_ = nlps > 1 ? lookahead : 0;
  head_cache_.assign(shards_.size(), kNever);
  heads_.clear();
  heads_stale_ = true;
}

void Engine::audit_queue_drained() {
  for (std::size_t lp = 0; lp < shards_.size(); ++lp) {
    Shard& s = *shards_[lp];
    {
      chk::SimLockGuard g(s.mu);
      if (!s.queue.empty()) {
        std::string msg = std::to_string(s.queue.size()) +
                          " event(s) still queued at quiesce (next at t=" +
                          std::to_string(s.queue.peek()->when) + "ns)";
        if (partitioned()) msg += " on lp=" + std::to_string(lp);
        chk::Audit::instance().fail("sim.engine", msg);
      }
    }
    chk::SimLockGuard g(s.inbox_mu);
    if (!s.inbox.empty()) {
      chk::Audit::instance().fail(
          "sim.engine",
          std::to_string(s.inbox.size()) +
              " cross-LP message(s) undelivered at quiesce into lp=" +
              std::to_string(lp));
    }
  }
}

void Engine::schedule(Duration delay, InlineFn fn, const char* label) {
  if (delay < 0) throw std::invalid_argument("Engine::schedule: negative delay");
  Shard& s = current_shard();
  if (!running_) heads_stale_ = true;
  schedule_on(s, sat_add(causal_now(s), delay), std::move(fn), label);
}

void Engine::schedule_at(Time t, InlineFn fn, const char* label) {
  Shard& s = current_shard();
  if (t < causal_now(s)) {
    throw std::invalid_argument("Engine::schedule_at: time in the past");
  }
  if (!running_) heads_stale_ = true;
  schedule_on(s, t, std::move(fn), label);
}

void Engine::schedule_to(LpId target, Duration delay, InlineFn fn,
                         const char* label) {
  if (delay < 0) {
    throw std::invalid_argument("Engine::schedule_to: negative delay");
  }
  if (target >= shards_.size()) {
    throw std::invalid_argument("Engine::schedule_to: no such LP");
  }
  const LpId cur = current_lp();
  Shard& src = *shards_[cur];
  const Time t = sat_add(causal_now(src), delay);
  if (target == cur) {
    if (!running_) heads_stale_ = true;
    schedule_on(src, t, std::move(fn), label);
    return;
  }
  // Cross-LP: through the target's mailbox. (when, src, emit_seq) is the
  // canonical drain order — a per-source counter advanced only by this LP's
  // own deterministic execution, so no host interleaving can reorder it.
  Shard& dst = *shards_[target];
  XlpItem item;
  item.when = t;
  item.src = cur;
  item.emit_seq = src.xlp_emitted++;
  item.label = label;
  item.fn = std::move(fn);
  chk::SimLockGuard g(dst.inbox_mu);
  dst.inbox.push_back(std::move(item));
  dst.inbox_nonempty.store(true, std::memory_order_release);
}

void Engine::post(std::coroutine_handle<> h) {
  assert(h && "posting a null coroutine handle");
  Shard& s = current_shard();
  if (!running_) heads_stale_ = true;
  schedule_on(s, causal_now(s), [h] { h.resume(); }, "post");
}

void Engine::schedule_on(Shard& s, Time t, InlineFn fn, const char* label) {
  {
    chk::SimLockGuard g(s.mu);
    EventNode* n = s.arena.get();
    n->when = t;
    n->seq = s.next_seq++;
    n->label = label;
    n->fn = std::move(fn);
    s.queue.push(n);
  }
  // Scheduling onto a shard other than the one this thread is dispatching
  // (an LpScope from a control-LP event): the target may be inactive this
  // window with a stale cached head, so flag it for the coordinator sweep.
  // Only legal from merged execution — node events must use schedule_to —
  // because a direct foreign push races the owner's seq assignment.
  if (running_ && partitioned() &&
      detail::lp_ctx().dispatch_shard != static_cast<const void*>(&s)) {
    s.head_dirty.store(true, std::memory_order_release);
  }
}

void Engine::release_node(Shard& s, EventNode* n) noexcept {
  n->fn.reset();
  chk::SimLockGuard g(s.mu);
  s.arena.put(n);
}

void Engine::dispatch(Shard& s, EventNode* n) {
  if (chk::Audit::enabled() && n->when < s.lnow) {
    chk::Audit::instance().fail(
        "sim.engine",
        "time went backwards: dispatching t=" + std::to_string(n->when) +
            "ns at now=" + std::to_string(s.lnow) + "ns");
  }
  if (digest_on_) {
    std::uint64_t h = s.digest == 0 ? chk::kFnvOffset : s.digest;
    h = chk::fnv1a_u64(h, static_cast<std::uint64_t>(n->when));
    h = chk::fnv1a_u64(h, n->seq);
    s.digest = chk::fnv1a_cstr(h, n->label);
  }
  s.lnow = n->when;
  // Causal floor and owner shard for scoped scheduling from the event body.
  detail::lp_ctx().tnow = n->when;
  detail::lp_ctx().dispatch_shard = &s;
  ++s.executed;
  // Per-dispatch events live in the (default-masked) kSim category: they are
  // the finest-grained view of the run and evict everything else when on.
  MESHMP_TRACE_INSTANT_ARG(*this, obs::Cat::kSim, obs::kEnginePid, n->label,
                           "seq", n->seq);
  // Recycling is deferred past the body so a throwing event cannot leak its
  // node; the callable is destroyed after it runs (never while running).
  struct Recycle {
    Engine* eng;
    Shard* shard;
    EventNode* node;
    ~Recycle() { eng->release_node(*shard, node); }
  } recycle{this, &s, n};
  n->fn();
}

// The run loops pop under the shard lock but always dispatch outside it:
// event bodies re-enter schedule_at (timers, coroutine posts), which must
// not self-deadlock now that SimLock is a real mutex under mt_active().

void Engine::run() {
  if (partitioned()) {
    run_windowed(0, /*bounded=*/false);
    return;
  }
  Shard& s = *shards_[0];
  running_ = true;
  const detail::LpCtx saved = detail::lp_ctx();
  detail::lp_ctx() = detail::LpCtx{this, kControlLp};
  for (;;) {
    EventNode* n = nullptr;
    {
      chk::SimLockGuard g(s.mu);
      n = s.queue.pop();
    }
    if (n == nullptr) break;
    dispatch(s, n);
    now_ = s.lnow;
  }
  detail::lp_ctx() = saved;
  running_ = false;
}

bool Engine::run_until(Time t) {
  if (partitioned()) return run_windowed(t, /*bounded=*/true);
  Shard& s = *shards_[0];
  running_ = true;
  const detail::LpCtx saved = detail::lp_ctx();
  detail::lp_ctx() = detail::LpCtx{this, kControlLp};
  for (;;) {
    EventNode* n = nullptr;
    {
      chk::SimLockGuard g(s.mu);
      EventNode* head = s.queue.peek();
      if (head == nullptr || head->when > t) break;
      n = s.queue.pop();
    }
    dispatch(s, n);
  }
  // Never rewind: an earlier t would reopen already-executed time to
  // schedule_at (the windowed path clamps the same way).
  s.lnow = std::max(s.lnow, t);
  now_ = s.lnow;
  detail::lp_ctx() = saved;
  running_ = false;
  return pending() != 0;
}

bool Engine::step() {
  if (partitioned()) return step_windowed();
  Shard& s = *shards_[0];
  EventNode* n = nullptr;
  {
    chk::SimLockGuard g(s.mu);
    n = s.queue.pop();
  }
  if (n == nullptr) return false;
  running_ = true;
  const detail::LpCtx saved = detail::lp_ctx();
  detail::lp_ctx() = detail::LpCtx{this, kControlLp};
  dispatch(s, n);
  now_ = s.lnow;
  detail::lp_ctx() = saved;
  running_ = false;
  return true;
}

std::size_t Engine::pending() const noexcept {
  std::size_t total = 0;
  for (const auto& sp : shards_) {
    {
      chk::SimLockGuard g(sp->mu);
      total += sp->queue.size();
    }
    chk::SimLockGuard g(sp->inbox_mu);
    total += sp->inbox.size();
  }
  return total;
}

std::size_t Engine::queue_depth_hwm() const noexcept {
  std::size_t hwm = 0;
  for (const auto& sp : shards_) {
    chk::SimLockGuard g(sp->mu);
    hwm = std::max(hwm, sp->queue.depth_hwm());
  }
  return hwm;
}

std::uint64_t Engine::executed() const noexcept {
  std::uint64_t total = 0;
  for (const auto& sp : shards_) total += sp->executed;
  return total;
}

std::uint64_t Engine::digest() const noexcept {
  if (shards_.size() == 1) return shards_[0]->digest;
  // Merge the per-LP digests in LP-id order: a canonical fold no thread
  // interleaving can perturb.
  std::uint64_t h = chk::kFnvOffset;
  for (const auto& sp : shards_) h = chk::fnv1a_u64(h, sp->digest);
  return h;
}

// --------------------------------------------------------------------------
// Windowed (partitioned) execution
// --------------------------------------------------------------------------

void Engine::refresh_head(LpId lp) {
  Shard& s = *shards_[lp];
  Time w = kNever;
  {
    chk::SimLockGuard g(s.mu);
    EventNode* h = s.queue.peek();
    if (h != nullptr) w = h->when;
  }
  head_cache_[lp] = w;
  if (w != kNever) {
    heads_.emplace_back(w, lp);
    std::push_heap(heads_.begin(), heads_.end(), HeadGreater{});
  }
}

void Engine::rebuild_heads() {
  heads_.clear();
  for (LpId lp = 0; lp < shards_.size(); ++lp) refresh_head(lp);
}

void Engine::sweep_dirty_heads() {
  for (LpId lp = 0; lp < shards_.size(); ++lp) {
    Shard& s = *shards_[lp];
    if (!s.head_dirty.load(std::memory_order_acquire)) continue;
    s.head_dirty.store(false, std::memory_order_relaxed);
    refresh_head(lp);
  }
}

void Engine::drain_inboxes() {
  for (LpId lp = 0; lp < shards_.size(); ++lp) {
    Shard& s = *shards_[lp];
    if (!s.inbox_nonempty.load(std::memory_order_acquire)) continue;
    {
      chk::SimLockGuard g(s.inbox_mu);
      if (s.inbox.empty()) continue;
      drain_scratch_.swap(s.inbox);
      s.inbox_nonempty.store(false, std::memory_order_relaxed);
    }
    std::sort(drain_scratch_.begin(), drain_scratch_.end(),
              [](const XlpItem& a, const XlpItem& b) {
                if (a.when != b.when) return a.when < b.when;
                if (a.src != b.src) return a.src < b.src;
                return a.emit_seq < b.emit_seq;
              });
    {
      chk::SimLockGuard g(s.mu);
      for (XlpItem& item : drain_scratch_) {
        if (item.when < s.lnow) {
          throw std::logic_error(
              "Engine: cross-LP message violates the lookahead window "
              "(delivery t=" +
              std::to_string(item.when) +
              "ns behind lp=" + std::to_string(lp) + " clock t=" +
              std::to_string(s.lnow) + "ns)");
        }
        EventNode* n = s.arena.get();
        n->when = item.when;
        n->seq = s.next_seq++;
        n->label = item.label;
        n->fn = std::move(item.fn);
        s.queue.push(n);
      }
    }
    drain_scratch_.clear();
    refresh_head(lp);
  }
}

void Engine::run_window_shards(unsigned worker, unsigned stride, Time wend) {
  for (LpId lp : active_) {
    if (lp % stride != worker) continue;
    run_shard_window(*shards_[lp], lp, wend);
  }
}

void Engine::run_shard_window(Shard& s, LpId lp, Time wend) {
  const detail::LpCtx saved = detail::lp_ctx();
  detail::lp_ctx() = detail::LpCtx{this, lp};
  for (;;) {
    EventNode* n = nullptr;
    {
      chk::SimLockGuard g(s.mu);
      EventNode* h = s.queue.peek();
      if (h != nullptr && h->when < wend) n = s.queue.pop();
    }
    if (n == nullptr) break;
    dispatch(s, n);
  }
  detail::lp_ctx() = saved;
}

void Engine::run_window_merged(Time wend) {
  // Global (when, lp, seq) interleave across the active shards: per-LP order
  // is the same as the fan-out path (so digests agree), and cross-LP
  // timestamp order is preserved for control events that touch node state.
  merge_heap_.clear();
  for (LpId lp : active_) {
    Shard& s = *shards_[lp];
    chk::SimLockGuard g(s.mu);
    EventNode* h = s.queue.peek();
    if (h != nullptr && h->when < wend) merge_heap_.emplace_back(h->when, lp);
  }
  std::make_heap(merge_heap_.begin(), merge_heap_.end(), HeadGreater{});
  const detail::LpCtx saved = detail::lp_ctx();
  while (!merge_heap_.empty()) {
    const LpId lp = merge_heap_.front().second;
    std::pop_heap(merge_heap_.begin(), merge_heap_.end(), HeadGreater{});
    merge_heap_.pop_back();
    Shard& s = *shards_[lp];
    EventNode* n = nullptr;
    {
      chk::SimLockGuard g(s.mu);
      n = s.queue.pop();
    }
    detail::lp_ctx() = detail::LpCtx{this, lp};
    dispatch(s, n);
    detail::lp_ctx() = saved;
    chk::SimLockGuard g(s.mu);
    EventNode* h = s.queue.peek();
    if (h != nullptr && h->when < wend) {
      merge_heap_.emplace_back(h->when, lp);
      std::push_heap(merge_heap_.begin(), merge_heap_.end(), HeadGreater{});
    }
  }
}

bool Engine::run_windowed(Time limit, bool bounded) {
  running_ = true;
  if (nthreads_ > 1 && team_ == nullptr) {
    team_ = std::make_unique<WorkerTeam>(*this, nthreads_);
  }
  const bool sharded_obs = nthreads_ > 1;
  if (sharded_obs) obs::Registry::instance().begin_parallel(nthreads_);
  if (heads_stale_) {
    rebuild_heads();
    heads_stale_ = false;
  }
  for (;;) {
    drain_inboxes();
    sweep_dirty_heads();
    // Earliest valid head: discard stale lazy-heap entries on the way.
    Time t0 = kNever;
    while (!heads_.empty()) {
      const auto [w, lp] = heads_.front();
      if (w == head_cache_[lp]) {
        t0 = w;
        break;
      }
      std::pop_heap(heads_.begin(), heads_.end(), HeadGreater{});
      heads_.pop_back();
    }
    if (t0 == kNever) break;
    if (bounded && t0 > limit) break;
    Time wend = sat_add(t0, lookahead_);
    if (bounded && limit != kNever && wend > limit + 1) wend = limit + 1;
    // Collect the active LPs (head < wend), consuming their heap entries.
    active_.clear();
    bool lp0_active = false;
    while (!heads_.empty() && heads_.front().first < wend) {
      const auto [w, lp] = heads_.front();
      std::pop_heap(heads_.begin(), heads_.end(), HeadGreater{});
      heads_.pop_back();
      if (w != head_cache_[lp]) continue;  // stale entry
      head_cache_[lp] = kNever;            // consumed; refreshed after the window
      active_.push_back(lp);
      if (lp == kControlLp) lp0_active = true;
    }
    ++windows_;
    // Fan out only when the window is pure node work: control-LP events
    // (fault injection, host drivers) may touch any node's state, so they
    // run merged in global timestamp order. Tiny windows stay merged too —
    // the barrier costs more than two shards' worth of events.
    const bool parallel =
        team_ != nullptr && !lp0_active && active_.size() >= 3;
    if (parallel) {
      ++parallel_windows_;
      team_->run_window(wend);
    } else {
      run_window_merged(wend);
    }
    for (LpId lp : active_) refresh_head(lp);
  }
  if (bounded) now_ = std::max(now_, limit);
  for (const auto& sp : shards_) now_ = std::max(now_, sp->lnow);
  // Synchronize every shard clock to the run's high-water mark. Shard clocks
  // drift apart across windows (an idle LP keeps the time of its last
  // event); if they stayed behind, work scheduled by the host between runs —
  // harnesses routinely run, post more traffic, and run again — would land
  // in a laggard's past and its first wire hop would violate the lookahead
  // invariant on a shard whose clock is already ahead.
  for (auto& sp : shards_) sp->lnow = now_;
  if (sharded_obs) obs::Registry::instance().end_parallel();
  running_ = false;
  return pending() != 0;
}

bool Engine::step_windowed() {
  running_ = true;
  if (heads_stale_) {
    rebuild_heads();
    heads_stale_ = false;
  }
  drain_inboxes();
  sweep_dirty_heads();
  Shard* best = nullptr;
  LpId best_lp = 0;
  while (!heads_.empty()) {
    const auto [w, lp] = heads_.front();
    std::pop_heap(heads_.begin(), heads_.end(), HeadGreater{});
    heads_.pop_back();
    if (w != head_cache_[lp]) continue;
    head_cache_[lp] = kNever;
    best = shards_[lp].get();
    best_lp = lp;
    break;
  }
  if (best == nullptr) {
    running_ = false;
    return false;
  }
  EventNode* n = nullptr;
  {
    chk::SimLockGuard g(best->mu);
    n = best->queue.pop();
  }
  const detail::LpCtx saved = detail::lp_ctx();
  detail::lp_ctx() = detail::LpCtx{this, best_lp};
  dispatch(*best, n);
  detail::lp_ctx() = saved;
  now_ = std::max(now_, best->lnow);
  refresh_head(best_lp);
  running_ = false;
  return true;
}

}  // namespace meshmp::sim
