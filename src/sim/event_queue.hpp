#pragma once

// Pooled event nodes and the lane queue behind sim::Engine.
//
//  - EventArena: a freelist of fixed-size EventNodes carved from chunked
//    slabs. Nodes never move once allocated and are recycled instead of
//    freed, so steady-state scheduling performs zero heap allocations.
//
//  - EventQueue: per-delay FIFO lanes over the strict (when, seq) order.
//    The modelled hardware schedules almost everything at a handful of
//    fixed offsets (zero, cable, VIA work, ISR entry, interrupt delay, frame
//    serialization, heartbeat), and events pushed at one delay past a
//    non-decreasing pop time arrive already sorted. So each push goes to
//    the lane keyed by its delay past the last popped `when`, found by a
//    short linear probe of a small fixed table. A lane only accepts an
//    event whose (when, seq) exceeds its tail, so every lane is sorted by
//    construction; a small indexed heap orders the heads of the nonempty
//    lanes, and a fallback heap takes any event that finds no lane. A delay
//    that finds neither its own lane nor a free one evicts a one-event lane
//    (its event moves to the fallback heap) and takes it over, so one-off
//    delays cannot crowd out the recurring ones. The zero-delay lane stays
//    out of the head heap: its events all fire at the last pop's time, so
//    one comparison against each heap top orders it. Lane pushes and pops
//    cost O(log kLanes) at most; only fallback events pay O(log fallback).
//
// Ordering invariants (what makes dispatch order — and therefore the FNV
// determinism digest — byte-identical to the engine's former binary heap):
//  1. Every lane is sorted by (when, seq), and the head heap holds exactly
//     the head of each nonempty keyed lane. pop() takes the smallest of the
//     zero-delay lane's head and the two heap tops: the global minimum.
//  2. (when, seq) is a total order (seq is unique), so the pop sequence is
//     fully determined by the comparator — independent of which lane or
//     heap an event sat in, and of evictions. A push earlier than the last
//     pop (never done by the engine) goes to the fallback heap and still
//     pops in order.
//  3. Lane assignment derives from simulated timestamps only, never from
//     host state, so two runs of the same program make identical
//     structural decisions and report identical work counts.
//
// Both classes are owned by one sim::Engine and never shared.

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/inline_fn.hpp"
#include "sim/time.hpp"

namespace meshmp::sim {

/// One scheduled event. Arena-owned; never moves once allocated. `next`
/// links nodes while they sit in a lane or the arena freelist; the
/// fallback heap stores raw pointers instead.
struct EventNode {
  Time when = 0;
  std::uint64_t seq = 0;
  const char* label = nullptr;
  EventNode* next = nullptr;
  InlineFn fn;
};

// Two cache lines per event: 32 bytes of ordering/bookkeeping header plus
// the 96-byte inline callable. Pinned so capture-budget growth is a
// deliberate decision, not an accident.
static_assert(sizeof(EventNode) == 128);
static_assert(alignof(EventNode) == alignof(void*));

/// Strict-weak order "fires later than": min-heap comparator over (when,
/// seq), byte-identical to the tie-break of the engine's former
/// std::priority_queue.
struct FiresLater {
  bool operator()(const EventNode* a, const EventNode* b) const noexcept {
    if (a->when != b->when) return a->when > b->when;
    return a->seq > b->seq;
  }
};

/// Freelist arena of EventNodes. get() reuses a recycled node or carves a
/// fresh chunk; put() recycles. Chunks are only ever grown, so the arena's
/// high-water mark bounds its footprint and steady state never allocates.
class EventArena {
 public:
  EventArena() = default;
  EventArena(const EventArena&) = delete;
  EventArena& operator=(const EventArena&) = delete;

  [[nodiscard]] EventNode* get();
  /// Recycles a node. The caller must have reset() the callable already
  /// (captures are destroyed after the event body, never while it runs).
  void put(EventNode* n) noexcept;

  /// Nodes carved so far (warmup growth metric for tests).
  [[nodiscard]] std::size_t capacity() const noexcept {
    return chunks_.size() * kChunkNodes;
  }

 private:
  static constexpr std::size_t kChunkNodes = 256;
  std::vector<std::unique_ptr<EventNode[]>> chunks_;
  EventNode* free_ = nullptr;
};

/// Per-delay lane queue; see the file comment for structure and invariants.
class EventQueue {
 public:
  // Pre-sizing the fallback heap keeps the steady state allocation-free: a
  // vector doubling can otherwise land arbitrarily late (first time the
  // heap's high-water mark is reached), which the engine microbench's
  // zero-allocation assertion would catch as a spurious failure.
  EventQueue() {
    delay_.fill(kUnclaimed);
    fallback_.reserve(1024);
  }
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  void push(EventNode* n);
  /// Minimum-(when, seq) node, or nullptr when empty.
  [[nodiscard]] EventNode* peek() const noexcept;
  /// Removes and returns the minimum node, or nullptr when empty.
  EventNode* pop() noexcept;

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  /// Deepest the queue has ever been (host-side telemetry; deterministic,
  /// since depth evolution is a function of the simulated program alone).
  [[nodiscard]] std::size_t depth_hwm() const noexcept { return hwm_; }

  /// Work counts: every push is exactly one lane push or one fallback push;
  /// an eviction later moves one lane event into the fallback heap.
  struct Stats {
    std::uint64_t lane_pushes = 0;
    std::uint64_t fallback_pushes = 0;
    std::uint64_t evictions = 0;
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  /// Structural snapshot for white-box tests.
  struct Layout {
    std::size_t lanes = 0;     ///< nonempty lanes
    std::size_t fallback = 0;  ///< nodes in the fallback heap
  };
  [[nodiscard]] Layout layout() const noexcept;

 private:
  static constexpr std::size_t kLanes = 64;  // power of two (probe wraps)
  static constexpr std::size_t kProbe = 8;
  static constexpr Duration kUnclaimed = -1;

  /// Sorted FIFO of events pushed at one delay past the pop time (the key
  /// sits in delay_). A lane keeps its key while empty, so a recurring
  /// delay finds it again.
  struct Lane {
    EventNode* head = nullptr;
    EventNode* tail = nullptr;
    void append(EventNode* n) noexcept {
      if (tail != nullptr) {
        tail->next = n;
      } else {
        head = n;
      }
      tail = n;
    }
  };
  /// Head-heap entry: a nonempty lane keyed by its head's (when, seq).
  struct Head {
    Time when = 0;
    std::uint64_t seq = 0;
    std::uint32_t lane = 0;
  };

  /// Starts empty lane s with n and enters it into the head heap.
  void open_lane(std::size_t s, EventNode* n) noexcept;
  void fallback_push(EventNode* n);
  void set_head(std::size_t i, const Head& h) noexcept;
  void sift_up(std::size_t i) noexcept;
  void sift_down(std::size_t i) noexcept;

  Lane now_;  // zero-delay lane; not in the head heap (see file comment)
  std::array<Duration, kLanes> delay_{};  // lane key; kUnclaimed if never used
  std::array<Lane, kLanes> lanes_{};
  std::array<Head, kLanes> heads_{};        // binary min-heap, nheads_ long
  std::array<std::uint8_t, kLanes> pos_{};  // lane -> index in heads_
  std::size_t nheads_ = 0;
  std::vector<EventNode*> fallback_;  // binary min-heap under FiresLater
  Time last_ = 0;                     // `when` of the last pop
  std::size_t size_ = 0;
  std::size_t hwm_ = 0;
  Stats stats_;
};

}  // namespace meshmp::sim
