#pragma once

// Pooled event nodes and the ladder queue behind sim::Engine.
//
// The engine's former std::priority_queue cost O(log n) comparisons per
// push/pop on a heap of by-value events. This file replaces it with:
//
//  - EventArena: a freelist of fixed-size EventNodes carved from chunked
//    slabs (the buf::Pool capacity-class idiom, specialized to one size).
//    Nodes never move once allocated and are recycled instead of freed, so
//    steady-state scheduling performs zero heap allocations.
//
//  - LadderQueue: a calendar/ladder queue over the same strict (when, seq)
//    order as the old heap. Near-future events live in a binary heap
//    ("bottom"); mid-range events are spread across kRungs buckets of equal
//    width; far-future events sit on an unsorted overflow list that is
//    re-spread (reseeded) across fresh buckets when the current rung ladder
//    drains. Rung and overflow work is O(1) amortized per event, but push
//    and pop cost O(log b), where b is the number of events inside the
//    current bucket's window: most events are scheduled well under one
//    bucket width ahead, so nearly every push lands in the bottom heap and
//    b runs to hundreds or thousands on cluster workloads.
//
// Ordering invariants (what makes dispatch order — and therefore the FNV
// determinism digest — byte-identical to the old heap):
//  1. bottom holds exactly the events with when <  bottom_end_;
//     rungs/overflow hold events with       when >= bottom_end_.
//     So whenever bottom is nonempty its heap minimum is the global minimum.
//  2. (when, seq) is a total order (seq is unique), so the pop sequence is
//     fully determined by the comparator — independent of bucket layout,
//     overflow list order, or heap internals.
//  3. All bucket geometry (rung_start_, width_, horizon_) is derived from
//     simulated timestamps only, never from host state, so two runs of the
//     same program make identical structural decisions.
//
// Thread-safety: neither class locks; both are owned by sim::Engine and
// guarded by its queue_mu_ (see MESHMP_GUARDED_BY annotations there).

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/inline_fn.hpp"
#include "sim/time.hpp"

namespace meshmp::sim {

/// One scheduled event. Arena-owned; never moves once allocated. `next`
/// links nodes while they sit in a rung bucket, the overflow list, or the
/// arena freelist; the bottom heap stores raw pointers instead.
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
  /// (capture destruction runs outside the engine's queue lock).
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

/// Calendar/ladder queue; see the file comment for structure and invariants.
class LadderQueue {
 public:
  // Pre-sizing the bottom heap keeps the steady state allocation-free: a
  // vector doubling can otherwise land arbitrarily late (first time the
  // bottom's high-water mark is reached), which the engine microbench's
  // zero-allocation assertion would catch as a spurious failure.
  LadderQueue() { bottom_.reserve(1024); }
  LadderQueue(const LadderQueue&) = delete;
  LadderQueue& operator=(const LadderQueue&) = delete;

  void push(EventNode* n);
  /// Minimum-(when, seq) node, or nullptr when empty. May restructure
  /// internally (drain a bucket into the bottom heap) but never reorders.
  [[nodiscard]] EventNode* peek();
  /// Removes and returns the minimum node, or nullptr when empty.
  EventNode* pop();

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  /// Deepest the queue has ever been (host-side telemetry; deterministic,
  /// since depth evolution is a function of the simulated program alone).
  [[nodiscard]] std::size_t depth_hwm() const noexcept { return hwm_; }

  /// Structural snapshot for white-box tests.
  struct Layout {
    std::size_t bottom = 0;    ///< nodes in the bottom heap
    std::size_t rungs = 0;     ///< nodes across all rung buckets
    std::size_t overflow = 0;  ///< nodes on the overflow list
    std::size_t reseeds = 0;   ///< overflow re-spreads performed
    Time bottom_end = 0;       ///< bottom holds when < bottom_end
    Time rung_start = 0;       ///< first bucket's start time
    Time width = 1;            ///< bucket width (ns)
    Time horizon = 0;          ///< rung coverage end (saturating)
  };
  [[nodiscard]] Layout layout() const noexcept;

 private:
  static constexpr std::size_t kRungs = 256;
  static constexpr std::size_t kWords = kRungs / 64;

  struct Bucket {
    EventNode* head = nullptr;
    EventNode* tail = nullptr;
  };

  void append(Bucket& b, EventNode* n) noexcept;
  /// Refills the empty bottom heap from the next nonempty bucket, reseeding
  /// from overflow as needed. False when the queue is truly empty.
  bool advance();
  /// Re-spreads the overflow list across fresh buckets sized to its span.
  void reseed();
  [[nodiscard]] std::size_t next_occupied(std::size_t from) const noexcept;

  std::vector<EventNode*> bottom_;  // binary min-heap under FiresLater
  std::array<Bucket, kRungs> rungs_{};
  std::array<std::uint64_t, kWords> occ_{};  // nonempty-bucket bitmap
  std::size_t cur_ = kRungs;                 // next bucket to drain
  std::size_t rung_count_ = 0;               // events across all buckets
  Time rung_start_ = 0;
  Time width_ = 1;
  Time bottom_end_ = 0;
  Time horizon_ = 0;
  EventNode* overflow_ = nullptr;
  std::size_t overflow_count_ = 0;
  std::size_t reseeds_ = 0;
  std::size_t size_ = 0;
  std::size_t hwm_ = 0;
};

}  // namespace meshmp::sim
