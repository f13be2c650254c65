#pragma once

// Deterministically ordered flat associative containers.
//
// std::unordered_map iteration order depends on hash seeding, bucket counts
// and insertion history — iterating one in simulation-affecting code is a
// determinism bug waiting to happen (and `tools/meshmp_lint.py` rule D1 bans
// the type in src/ outright). These containers are the sanctioned
// replacement: a sorted vector of entries, so iteration order is the key
// order, identical on every run and every platform. obs::Counters pioneered
// the idiom for the metrics registry; this header generalizes it.
//
// Complexity: lookup is O(log n), insert/erase O(n) moves. Every map in the
// simulator keyed this way is small (directions per node, services per
// agent, in-flight rendezvous per endpoint), where the flat layout also wins
// on cache behaviour.
//
// The API is the subset of std::map the codebase uses; value_type is
// std::pair<Key, Value> (non-const key, as in a vector), and insertion or
// erasure invalidates iterators and references like any vector.

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

namespace meshmp::chk {

template <typename Key, typename Value>
class FlatMap {
 public:
  using value_type = std::pair<Key, Value>;
  using iterator = typename std::vector<value_type>::iterator;
  using const_iterator = typename std::vector<value_type>::const_iterator;

  [[nodiscard]] iterator begin() noexcept { return items_.begin(); }
  [[nodiscard]] iterator end() noexcept { return items_.end(); }
  [[nodiscard]] const_iterator begin() const noexcept {
    return items_.begin();
  }
  [[nodiscard]] const_iterator end() const noexcept { return items_.end(); }

  [[nodiscard]] std::size_t size() const noexcept { return items_.size(); }
  [[nodiscard]] bool empty() const noexcept { return items_.empty(); }
  void clear() noexcept { items_.clear(); }

  [[nodiscard]] iterator find(const Key& key) {
    auto it = lower_bound(key);
    return it != items_.end() && it->first == key ? it : items_.end();
  }
  [[nodiscard]] const_iterator find(const Key& key) const {
    auto it = lower_bound(key);
    return it != items_.end() && it->first == key ? it : items_.end();
  }
  [[nodiscard]] bool contains(const Key& key) const {
    return find(key) != end();
  }
  [[nodiscard]] std::size_t count(const Key& key) const {
    return contains(key) ? 1 : 0;
  }

  [[nodiscard]] Value& at(const Key& key) {
    auto it = find(key);
    if (it == end()) throw std::out_of_range("FlatMap::at: no such key");
    return it->second;
  }
  [[nodiscard]] const Value& at(const Key& key) const {
    auto it = find(key);
    if (it == end()) throw std::out_of_range("FlatMap::at: no such key");
    return it->second;
  }

  Value& operator[](const Key& key) {
    auto it = lower_bound(key);
    if (it == items_.end() || it->first != key) {
      it = items_.emplace(it, key, Value{});
    }
    return it->second;
  }

  /// Inserts (key, Value(args...)) if absent; returns {iterator, inserted}.
  /// Value is only constructed when the key is new (try_emplace semantics;
  /// emplace is an alias since the codebase never relies on the difference).
  template <typename... Args>
  std::pair<iterator, bool> try_emplace(const Key& key, Args&&... args) {
    auto it = lower_bound(key);
    if (it != items_.end() && it->first == key) return {it, false};
    it = items_.emplace(it, std::piecewise_construct,
                        std::forward_as_tuple(key),
                        std::forward_as_tuple(std::forward<Args>(args)...));
    return {it, true};
  }
  template <typename... Args>
  std::pair<iterator, bool> emplace(const Key& key, Args&&... args) {
    return try_emplace(key, std::forward<Args>(args)...);
  }

  std::size_t erase(const Key& key) {
    auto it = find(key);
    if (it == end()) return 0;
    items_.erase(it);
    return 1;
  }
  iterator erase(const_iterator pos) { return items_.erase(pos); }

 private:
  [[nodiscard]] iterator lower_bound(const Key& key) {
    return std::lower_bound(
        items_.begin(), items_.end(), key,
        [](const value_type& a, const Key& k) { return a.first < k; });
  }
  [[nodiscard]] const_iterator lower_bound(const Key& key) const {
    return std::lower_bound(
        items_.begin(), items_.end(), key,
        [](const value_type& a, const Key& k) { return a.first < k; });
  }

  std::vector<value_type> items_;
};

template <typename Key>
class FlatSet {
 public:
  using const_iterator = typename std::vector<Key>::const_iterator;

  [[nodiscard]] const_iterator begin() const noexcept {
    return items_.begin();
  }
  [[nodiscard]] const_iterator end() const noexcept { return items_.end(); }

  [[nodiscard]] std::size_t size() const noexcept { return items_.size(); }
  [[nodiscard]] bool empty() const noexcept { return items_.empty(); }
  void clear() noexcept { items_.clear(); }

  [[nodiscard]] bool contains(const Key& key) const {
    auto it = std::lower_bound(items_.begin(), items_.end(), key);
    return it != items_.end() && *it == key;
  }

  /// Inserts `key` if absent; returns true when it was new.
  bool insert(const Key& key) {
    auto it = std::lower_bound(items_.begin(), items_.end(), key);
    if (it != items_.end() && *it == key) return false;
    items_.insert(it, key);
    return true;
  }

  std::size_t erase(const Key& key) {
    auto it = std::lower_bound(items_.begin(), items_.end(), key);
    if (it == items_.end() || *it != key) return 0;
    items_.erase(it);
    return 1;
  }

 private:
  std::vector<Key> items_;
};

}  // namespace meshmp::chk
