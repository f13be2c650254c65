#pragma once

// Awaitable synchronization primitives.
//
// Every primitive wakes waiters by posting to the engine queue at the current
// timestamp rather than resuming inline: wakeup order is then a deterministic
// function of program order, and call stacks stay flat no matter how deep the
// protocol layering gets.
//
// Signal carries a notification epoch and every wait loop captures the
// awaiter *before* testing its predicate; a notification landing between the
// test and the suspension is then observed by the awaiter instead of lost.

#include <cassert>
#include <coroutine>
#include <cstdint>
#include <deque>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "chk/audit.hpp"
#include "sim/engine.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace meshmp::sim {

/// `co_await delay(eng, d)` — suspends for d nanoseconds of simulated time.
struct DelayAwaiter {
  Engine& eng;
  Duration d;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) const {
    eng.schedule(d, [h] { h.resume(); }, "delay");
  }
  void await_resume() const noexcept {}
};

inline DelayAwaiter delay(Engine& eng, Duration d) { return {eng, d}; }

/// One-shot event. Waiters before fire() suspend; waiters after pass through.
class Trigger {
 public:
  explicit Trigger(Engine& eng) : eng_(&eng) {}
  Trigger(const Trigger&) = delete;
  Trigger& operator=(const Trigger&) = delete;

  [[nodiscard]] bool fired() const noexcept { return fired_; }

  void fire() {
    if (fired_) return;
    fired_ = true;
    std::vector<std::coroutine_handle<>> woken;
    woken.swap(waiters_);
    for (auto h : woken) eng_->post(h);
  }

  auto wait() noexcept {
    struct Awaiter {
      Trigger& t;
      bool await_ready() const noexcept { return t.fired(); }
      bool await_suspend(std::coroutine_handle<> h) {
        if (t.fired_) return false;  // fired after the ready check: pass through
        t.waiters_.push_back(h);
        return true;
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

 private:
  Engine* eng_;
  bool fired_ = false;
  std::vector<std::coroutine_handle<>> waiters_;
};

/// Multi-shot notification: each notify_all() wakes everyone waiting *now*.
/// Use `wait_until(signal, pred)` for condition-variable style loops.
class Signal {
 public:
  explicit Signal(Engine& eng) : eng_(&eng) {}
  Signal(const Signal&) = delete;
  Signal& operator=(const Signal&) = delete;

  void notify_all() {
    ++epoch_;
    std::vector<std::coroutine_handle<>> woken;
    woken.swap(waiters_);
    for (auto h : woken) eng_->post(h);
    // Hand the emptied buffer's capacity back so the steady-state
    // notify/wait cycle stays allocation-free.
    woken.clear();
    if (waiters_.empty()) waiters_.swap(woken);
  }

  /// Awaits the next notification *after the awaiter was created*. Create
  /// the awaiter before testing the condition it guards (as wait_until
  /// does): a notify_all between the test and the co_await then resumes the
  /// waiter immediately instead of being lost.
  auto next() noexcept {
    struct Awaiter {
      Signal& s;
      std::uint64_t seen;
      explicit Awaiter(Signal& sig) : s(sig), seen(sig.epoch_) {}
      bool await_ready() const noexcept { return s.epoch_ != seen; }
      bool await_suspend(std::coroutine_handle<> h) {
        if (s.epoch_ != seen) return false;  // notified since creation
        s.waiters_.push_back(h);
        return true;
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

  [[nodiscard]] std::size_t waiting() const noexcept {
    return waiters_.size();
  }

 private:
  Engine* eng_;
  std::uint64_t epoch_ = 0;
  std::vector<std::coroutine_handle<>> waiters_;
};

/// Suspends until pred() holds, re-checking after each signal notification.
/// The awaiter is created before each predicate test so a notification
/// racing the test is caught by the awaiter's epoch instead of lost.
template <typename Pred>
Task<> wait_until(Signal& signal, Pred pred) {
  for (;;) {
    auto next = signal.next();
    if (pred()) break;
    co_await next;
  }
}

/// Unbounded FIFO channel with awaitable pop. Values are handed directly to
/// the oldest waiter, so multiple consumers never race for one item.
template <typename T>
class Queue {
 public:
  explicit Queue(Engine& eng) : eng_(&eng) {}
  Queue(const Queue&) = delete;
  Queue& operator=(const Queue&) = delete;

  void push(T value) {
    if (waiters_.empty()) {
      items_.push_back(std::move(value));
      return;
    }
    const Waiter w = waiters_.front();
    waiters_.pop_front();
    // The waiter is suspended until the posted wake runs, so its slot is
    // exclusively ours here.
    w.slot->emplace(std::move(value));
    eng_->post(w.h);
  }

  auto pop() noexcept {
    struct Awaiter {
      Queue& q;
      std::optional<T> slot{};
      bool await_ready() { return q.take(slot); }
      bool await_suspend(std::coroutine_handle<> h) {
        if (q.take(slot)) return false;  // pushed after the ready check
        q.waiters_.push_back(Waiter{h, &slot});
        return true;
      }
      T await_resume() { return std::move(*slot); }
    };
    return Awaiter{*this};
  }

  /// Non-blocking pop.
  std::optional<T> try_pop() {
    std::optional<T> v;
    take(v);
    return v;
  }

  [[nodiscard]] std::size_t size() const noexcept { return items_.size(); }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }

 private:
  struct Waiter {
    std::coroutine_handle<> h;
    std::optional<T>* slot;
  };

  /// Moves the head item into `slot` if there is one.
  bool take(std::optional<T>& slot) {
    if (items_.empty()) return false;
    slot.emplace(std::move(items_.front()));
    items_.pop_front();
    return true;
  }

  Engine* eng_;
  std::deque<T> items_;
  std::deque<Waiter> waiters_;
};

/// Counted resource with priority + FIFO granting. Priority 0 is the most
/// urgent (kernel interrupt work); larger numbers are less urgent.
class Resource {
 public:
  static constexpr int kInterruptPriority = 0;
  static constexpr int kKernelPriority = 1;
  static constexpr int kUserPriority = 2;

  /// `name` labels the resource in audit reports ("cpu", "bus", ...).
  Resource(Engine& eng, std::int64_t capacity, std::string name = "resource")
      : eng_(&eng),
        capacity_(capacity),
        name_(std::move(name)),
        audit_reg_(chk::Audit::instance().watch(
            "sim.resource." + name_, [this] { audit_quiesce(); })) {
    assert(capacity > 0);
  }
  Resource(const Resource&) = delete;
  Resource& operator=(const Resource&) = delete;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  [[nodiscard]] std::int64_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::int64_t in_use() const noexcept { return in_use_; }
  /// Busy time integral so far (for utilization statistics).
  [[nodiscard]] Duration busy_time() const noexcept {
    Duration d = busy_;
    if (in_use_ > 0) d += eng_->now() - busy_since_;
    return d;
  }

  auto acquire(std::int64_t amount = 1, int priority = kUserPriority) {
    assert(amount > 0 && amount <= capacity_);
    struct Awaiter {
      Resource& r;
      std::int64_t amount;
      int priority;
      bool suspended = false;
      bool await_ready() const noexcept {
        return r.waiters_.empty() && r.in_use_ + amount <= r.capacity_;
      }
      void await_suspend(std::coroutine_handle<> h) {
        suspended = true;
        r.enqueue(Waiter{priority, r.next_seq_++, amount, h});
      }
      void await_resume() const {
        // A suspended waiter was granted capacity inside pump() before its
        // wake was posted, so nothing can steal it in between.
        if (!suspended) r.grant(amount);
      }
    };
    return Awaiter{*this, amount, priority};
  }

  void release(std::int64_t amount = 1) {
    if (amount <= 0 || amount > in_use_) [[unlikely]] {
      chk::Audit::instance().fail(
          "sim.resource." + name_,
          "release(" + std::to_string(amount) + ") with only " +
              std::to_string(in_use_) + " of " + std::to_string(capacity_) +
              " in use");
    }
    ungrant(amount);
    pump();
  }

  /// Occupies `amount` of the resource for `dur`, queued at `priority`.
  /// This is the canonical way to model work on a CPU.
  Task<> consume(Duration dur, int priority = kUserPriority,
                 std::int64_t amount = 1) {
    co_await acquire(amount, priority);
    co_await delay(*eng_, dur);
    release(amount);
  }

 private:
  struct Waiter {
    int priority;
    std::uint64_t seq;
    std::int64_t amount;
    std::coroutine_handle<> h;
  };

  // Waiters kept sorted by (priority, seq): stable priority queue. The queue
  // is short in practice (a handful of protocol actors per node), so a vector
  // insert is fine.
  void enqueue(Waiter w) {
    auto it = waiters_.begin();
    while (it != waiters_.end() && !(w.priority < it->priority)) ++it;
    waiters_.insert(it, w);
  }

  void grant(std::int64_t amount) {
    if (in_use_ == 0) busy_since_ = eng_->now();
    in_use_ += amount;
  }

  void ungrant(std::int64_t amount) {
    in_use_ -= amount;
    if (in_use_ == 0) busy_ += eng_->now() - busy_since_;
  }

  void pump() {
    while (!waiters_.empty() &&
           in_use_ + waiters_.front().amount <= capacity_) {
      Waiter w = waiters_.front();
      waiters_.erase(waiters_.begin());
      grant(w.amount);
      eng_->post(w.h);
    }
  }

  /// Quiesce invariant: nothing held, nobody waiting. A violated check means
  /// a coroutine leaked a hold (acquire without release) or starved forever.
  void audit_quiesce() const {
    if (in_use_ != 0) {
      chk::Audit::instance().fail(
          "sim.resource." + name_,
          std::to_string(in_use_) + " of " + std::to_string(capacity_) +
              " still held at quiesce (leaked hold)");
    }
    if (!waiters_.empty()) {
      chk::Audit::instance().fail(
          "sim.resource." + name_,
          std::to_string(waiters_.size()) +
              " waiter(s) still queued at quiesce (starved acquire)");
    }
  }

  Engine* eng_;
  std::int64_t capacity_;
  std::int64_t in_use_ = 0;
  std::uint64_t next_seq_ = 0;
  Duration busy_ = 0;
  Time busy_since_ = 0;
  std::string name_;
  std::vector<Waiter> waiters_;
  chk::Audit::Registration audit_reg_;
};

/// Structured join for a set of concurrently spawned tasks.
/// Add tasks, then `co_await group.join()`; the first stored exception (if
/// any) is rethrown at the join point.
class TaskGroup {
 public:
  explicit TaskGroup(Engine& eng) : done_(eng) {}
  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  void add(Task<> task) {
    ++pending_;
    wrap(std::move(task)).detach();
  }

  /// Adds a value-returning task; the value is discarded at the join.
  template <typename T>
  void add(Task<T> task) {
    add(drop_value(std::move(task)));
  }

  Task<> join() {
    for (;;) {
      auto next = done_.next();  // created before the test: no lost wakeup
      if (pending_ == 0) break;
      co_await next;
    }
    std::exception_ptr e = std::exchange(error_, nullptr);
    if (e) std::rethrow_exception(e);
  }

  [[nodiscard]] int pending() const noexcept { return pending_; }

 private:
  template <typename T>
  static Task<> drop_value(Task<T> task) {
    (void)co_await task;
  }

  Task<> wrap(Task<> task) {
    try {
      co_await task;
    } catch (...) {
      if (!error_) error_ = std::current_exception();
    }
    // Order matters: the join loop re-reads pending_ after observing the
    // epoch bump, so the decrement must come first.
    --pending_;
    done_.notify_all();
  }

  int pending_ = 0;
  Signal done_;
  std::exception_ptr error_;
};

}  // namespace meshmp::sim
