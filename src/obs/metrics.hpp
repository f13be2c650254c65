#pragma once

// Metrics: counters, log-bucketed histograms, and the process-wide registry.
//
// This is the quantitative half of the observability layer (the tracer in
// obs/trace.hpp is the timeline half). Components own their counters and
// histogram handles; the registry only aggregates:
//
//  * Counters is a sorted flat map — O(log n) lookup per increment and
//    deterministically ordered iteration for snapshots.
//  * Histogram buckets values by power of two, so latencies from nanoseconds
//    to seconds and sizes from bytes to megabytes fit in 66 fixed buckets;
//    percentiles are interpolated within the bucket.
//  * Registry aggregates by *group name*: every hw::Nic attaches its counters
//    under "hw.nic", and a snapshot sums them — the per-instance breakdown
//    stays available through the components' own accessors. Detached sources
//    (a destroyed cluster) fold into retired totals so end-of-process
//    snapshots (BenchReport) still see them. Histograms are interned by name
//    and shared: all NICs add to one "hw.nic.rx_batch_frames".
//
// Everything here is deterministic: values come from the simulation only,
// snapshots iterate in sorted name order, and nothing consumes RNG.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace meshmp::obs {

/// Monotone counters keyed by short names. Sorted flat map: keys are kept
/// ordered, so inc/get are binary searches and items() is deterministic.
/// Lookups take string_view so the per-frame hot incs (NIC rx/tx, router)
/// never construct a std::string — keys longer than the SSO buffer would
/// otherwise cost a heap allocation per increment.
class Counters {
 public:
  void inc(std::string_view key, std::int64_t by = 1) {
    auto it = lower_bound(key);
    if (it != items_.end() && it->first == key) {
      it->second += by;
      return;
    }
    items_.emplace(it, std::string(key), by);
  }

  [[nodiscard]] std::int64_t get(std::string_view key) const {
    auto it = lower_bound(key);
    return it != items_.end() && it->first == key ? it->second : 0;
  }

  /// (key, value) pairs in ascending key order.
  [[nodiscard]] const std::vector<std::pair<std::string, std::int64_t>>&
  items() const noexcept {
    return items_;
  }

 private:
  using Item = std::pair<std::string, std::int64_t>;

  [[nodiscard]] std::vector<Item>::const_iterator lower_bound(
      std::string_view key) const {
    return std::lower_bound(
        items_.begin(), items_.end(), key,
        [](const Item& a, std::string_view k) { return a.first < k; });
  }
  [[nodiscard]] std::vector<Item>::iterator lower_bound(std::string_view key) {
    return std::lower_bound(
        items_.begin(), items_.end(), key,
        [](const Item& a, std::string_view k) { return a.first < k; });
  }

  std::vector<Item> items_;
};

/// Log-bucketed histogram for non-negative integer samples (latencies in ns,
/// sizes in bytes). Bucket k >= 1 holds values in [2^(k-1), 2^k); bucket 0
/// holds zeros. Percentiles interpolate linearly inside the bucket and are
/// clamped to the observed [min, max].
class Histogram {
 public:
  static constexpr int kBuckets = 65;  // zeros + one per bit of magnitude

  Histogram() = default;
  Histogram(Histogram&&) = default;
  Histogram& operator=(Histogram&&) = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void add(std::int64_t value, std::int64_t weight = 1);

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] std::int64_t sum() const noexcept { return sum_; }
  [[nodiscard]] std::int64_t min() const noexcept {
    return count_ ? min_ : 0;
  }
  [[nodiscard]] std::int64_t max() const noexcept {
    return count_ ? max_ : 0;
  }
  [[nodiscard]] double mean() const noexcept {
    return count_ ? static_cast<double>(sum_) / static_cast<double>(count_)
                  : 0.0;
  }

  /// Value at quantile q in [0, 1]; 0 when empty.
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double p50() const { return quantile(0.50); }
  [[nodiscard]] double p95() const { return quantile(0.95); }
  [[nodiscard]] double p99() const { return quantile(0.99); }

  void merge(const Histogram& other);
  void reset() { *this = Histogram{}; }

  [[nodiscard]] const std::uint64_t* buckets() const noexcept {
    return buckets_;
  }

 private:
  std::uint64_t buckets_[kBuckets] = {};
  std::uint64_t count_ = 0;
  std::int64_t sum_ = 0;
  std::int64_t min_ = 0;
  std::int64_t max_ = 0;
};

/// One aggregated histogram in a snapshot.
struct HistogramSummary {
  std::string name;
  std::uint64_t count = 0;
  std::int64_t sum = 0;
  std::int64_t min = 0;
  std::int64_t max = 0;
  double mean = 0;
  double p50 = 0;
  double p95 = 0;
  double p99 = 0;
};

/// Deterministic, sorted view of everything the registry knows.
struct Snapshot {
  /// Fully-qualified "<group>.<key>" counter totals, ascending by name.
  std::vector<std::pair<std::string, std::int64_t>> counters;
  /// Histogram summaries, ascending by name.
  std::vector<HistogramSummary> hists;

  [[nodiscard]] std::int64_t counter(const std::string& name) const;
  [[nodiscard]] const HistogramSummary* hist(const std::string& name) const;

  /// JSON object {"counters": {...}, "histograms": {...}}, stable key order.
  [[nodiscard]] std::string to_json(int indent = 0) const;
};

/// Process-wide metrics registry (singleton, like chk::Audit and
/// buf::CopyStats). Components attach their Counters under a group name for
/// the lifetime of a Registration; same-group sources are summed in
/// snapshots. Detaching folds the final values into retired totals.
class Registry {
 public:
  class Registration {
   public:
    Registration() = default;
    Registration(Registration&& other) noexcept { swap(other); }
    Registration& operator=(Registration&& other) noexcept {
      swap(other);
      return *this;
    }
    Registration(const Registration&) = delete;
    Registration& operator=(const Registration&) = delete;
    ~Registration();

   private:
    friend class Registry;
    Registration(Registry* reg, std::uint64_t id) : reg_(reg), id_(id) {}
    void swap(Registration& other) noexcept {
      std::swap(reg_, other.reg_);
      std::swap(id_, other.id_);
    }
    Registry* reg_ = nullptr;
    std::uint64_t id_ = 0;
  };

  static Registry& instance();

  /// Attaches `counters` under `group` until the Registration dies; the
  /// caller keeps ownership and must outlive the Registration.
  [[nodiscard]] Registration attach(std::string group,
                                    const Counters* counters);

  /// Interned shared histogram: one instance per name, owned by the registry
  /// for the rest of the process. All callers with the same name add into
  /// the same histogram.
  [[nodiscard]] Histogram& histogram(const std::string& name);

  /// Live sources + retired totals + all histograms (BenchReport view).
  [[nodiscard]] Snapshot snapshot() const;
  /// Live sources only, no retired totals (ClusterReport view: the counters
  /// of the clusters currently alive, not of everything run so far).
  [[nodiscard]] Snapshot snapshot_live() const;

  /// Forgets retired totals and zeroes every interned histogram. Live
  /// attachments are untouched. Benches call this between phases; tests call
  /// it for isolation.
  void reset();

 private:
  struct Source {
    std::uint64_t id = 0;
    std::string group;
    const Counters* counters = nullptr;  ///< null = tombstoned (detached)
  };

  Registry() = default;
  void detach(std::uint64_t id);
  [[nodiscard]] Snapshot snapshot_impl(bool include_retired) const;

  std::uint64_t next_id_ = 1;
  std::vector<Source> sources_;
  std::size_t dead_sources_ = 0;
  Counters retired_;  // keyed "<group>.<key>"
  std::vector<std::pair<std::string, std::unique_ptr<Histogram>>> hists_;
};

}  // namespace meshmp::obs
