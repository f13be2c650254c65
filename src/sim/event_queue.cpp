#include "sim/event_queue.hpp"

#include <algorithm>
#include <cassert>

namespace meshmp::sim {

namespace {

/// Strict (when, seq) order between head-heap entries and event nodes.
template <typename A, typename B>
bool earlier(const A& a, const B& b) noexcept {
  return a.when != b.when ? a.when < b.when : a.seq < b.seq;
}

}  // namespace

// --- EventArena ------------------------------------------------------------

EventNode* EventArena::get() {
  if (free_ == nullptr) {
    auto chunk = std::make_unique<EventNode[]>(kChunkNodes);
    for (std::size_t i = kChunkNodes; i-- > 0;) {
      chunk[i].next = free_;
      free_ = &chunk[i];
    }
    chunks_.push_back(std::move(chunk));
  }
  EventNode* n = free_;
  free_ = n->next;
  n->next = nullptr;
  return n;
}

void EventArena::put(EventNode* n) noexcept {
  assert(!n->fn && "recycling a node with a live callable");
  n->label = nullptr;
  n->next = free_;
  free_ = n;
}

// --- EventQueue ------------------------------------------------------------

void EventQueue::push(EventNode* n) {
  n->next = nullptr;
  if (++size_ > hwm_) hwm_ = size_;
  const Duration delay = n->when - last_;
  if (delay <= 0) {
    if (delay == 0 && (now_.tail == nullptr || earlier(*now_.tail, *n))) {
      ++stats_.lane_pushes;
      now_.append(n);
    } else {
      fallback_push(n);
    }
    return;
  }
  // Fibonacci hashing: the top six bits of delay * 2^64/phi spread the
  // recurring delays (a few hundred ns apart) across the table.
  static_assert(kLanes == 64, "home slot is the hash's top six bits");
  const auto home = static_cast<std::size_t>(
      (static_cast<std::uint64_t>(delay) * 0x9E3779B97F4A7C15ULL) >> 58);
  for (std::size_t i = 0; i < kProbe; ++i) {
    const std::size_t s = (home + i) & (kLanes - 1);
    if (delay_[s] != delay) continue;
    Lane& l = lanes_[s];
    if (l.tail == nullptr) {
      open_lane(s, n);
    } else if (earlier(*l.tail, *n)) {
      ++stats_.lane_pushes;
      l.append(n);
    } else {
      fallback_push(n);
    }
    return;
  }
  // No lane for this delay: claim a free one, else evict a one-event lane.
  std::size_t victim = kLanes;
  for (std::size_t i = 0; i < kProbe; ++i) {
    const std::size_t s = (home + i) & (kLanes - 1);
    const Lane& l = lanes_[s];
    if (l.head == nullptr) {
      delay_[s] = delay;
      open_lane(s, n);
      return;
    }
    if (victim == kLanes && l.head == l.tail) victim = s;
  }
  if (victim == kLanes) {
    fallback_push(n);
    return;
  }
  // The victim's one event moves to the fallback heap, and the new event
  // re-keys the lane's head-heap entry in place.
  ++stats_.evictions;
  ++stats_.lane_pushes;
  Lane& l = lanes_[victim];
  fallback_.push_back(l.head);
  std::push_heap(fallback_.begin(), fallback_.end(), FiresLater{});
  delay_[victim] = delay;
  l.head = l.tail = n;
  const std::size_t i = pos_[victim];
  heads_[i].when = n->when;
  heads_[i].seq = n->seq;
  if (i > 0 && earlier(heads_[i], heads_[(i - 1) / 2])) {
    sift_up(i);
  } else {
    sift_down(i);
  }
}

void EventQueue::open_lane(std::size_t s, EventNode* n) noexcept {
  ++stats_.lane_pushes;
  lanes_[s].append(n);
  set_head(nheads_, Head{n->when, n->seq, static_cast<std::uint32_t>(s)});
  sift_up(nheads_++);
}

void EventQueue::fallback_push(EventNode* n) {
  ++stats_.fallback_pushes;
  fallback_.push_back(n);
  std::push_heap(fallback_.begin(), fallback_.end(), FiresLater{});
}

EventNode* EventQueue::peek() const noexcept {
  EventNode* best = now_.head;
  if (nheads_ > 0 && (best == nullptr || earlier(heads_[0], *best))) {
    best = lanes_[heads_[0].lane].head;
  }
  if (!fallback_.empty() &&
      (best == nullptr || earlier(*fallback_.front(), *best))) {
    best = fallback_.front();
  }
  return best;
}

EventNode* EventQueue::pop() noexcept {
  EventNode* n = peek();
  if (n == nullptr) return nullptr;
  if (n == now_.head) {
    now_.head = n->next;
    if (now_.head == nullptr) now_.tail = nullptr;
  } else if (nheads_ > 0 && n == lanes_[heads_[0].lane].head) {
    Lane& l = lanes_[heads_[0].lane];
    l.head = n->next;
    if (l.head != nullptr) {
      heads_[0].when = l.head->when;
      heads_[0].seq = l.head->seq;
    } else {
      l.tail = nullptr;
      if (--nheads_ > 0) set_head(0, heads_[nheads_]);
    }
    if (nheads_ > 0) sift_down(0);
  } else {
    std::pop_heap(fallback_.begin(), fallback_.end(), FiresLater{});
    fallback_.pop_back();
  }
  n->next = nullptr;
  last_ = n->when;
  --size_;
  return n;
}

void EventQueue::set_head(std::size_t i, const Head& h) noexcept {
  heads_[i] = h;
  pos_[h.lane] = static_cast<std::uint8_t>(i);
}

void EventQueue::sift_up(std::size_t i) noexcept {
  const Head h = heads_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    const Head& p = heads_[parent];
    if (!earlier(h, p)) break;
    set_head(i, p);
    i = parent;
  }
  set_head(i, h);
}

void EventQueue::sift_down(std::size_t i) noexcept {
  const Head h = heads_[i];
  for (;;) {
    std::size_t c = 2 * i + 1;
    if (c >= nheads_) break;
    if (c + 1 < nheads_ && earlier(heads_[c + 1], heads_[c])) ++c;
    if (!earlier(heads_[c], h)) break;
    set_head(i, heads_[c]);
    i = c;
  }
  set_head(i, h);
}

EventQueue::Layout EventQueue::layout() const noexcept {
  return Layout{nheads_ + (now_.head != nullptr ? 1 : 0), fallback_.size()};
}

}  // namespace meshmp::sim
