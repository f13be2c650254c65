#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cmath>
#include <cstdio>

namespace meshmp::obs {

// --------------------------------------------------------------------------
// Histogram
// --------------------------------------------------------------------------

namespace {

/// Bucket index for a sample: 0 for values <= 0, else 1 + floor(log2(v)).
int bucket_of(std::int64_t value) {
  if (value <= 0) return 0;
  return std::bit_width(static_cast<std::uint64_t>(value));
}

/// Inclusive value range covered by bucket k (k >= 1).
std::pair<double, double> bucket_range(int k) {
  const double lo = k <= 1 ? 1.0 : std::ldexp(1.0, k - 1);
  const double hi = std::ldexp(1.0, k) - 1.0;
  return {lo, std::max(lo, hi)};
}

}  // namespace

void Histogram::add(std::int64_t value, std::int64_t weight) {
  if (weight <= 0) return;
  const auto w = static_cast<std::uint64_t>(weight);
  buckets_[bucket_of(value)] += w;
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  count_ += w;
  sum_ += value * weight;
}

double Histogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the requested quantile, 1-based, nearest-rank with interpolation
  // inside the bucket.
  const double rank = q * static_cast<double>(count_ - 1) + 1.0;
  double seen = 0;
  for (int k = 0; k < kBuckets; ++k) {
    if (buckets_[k] == 0) continue;
    const auto in_bucket = static_cast<double>(buckets_[k]);
    if (rank > seen + in_bucket) {
      seen += in_bucket;
      continue;
    }
    if (k == 0) return std::clamp(0.0, static_cast<double>(min_),
                                  static_cast<double>(max_));
    const auto [lo, hi] = bucket_range(k);
    const double frac = in_bucket > 1 ? (rank - seen - 1.0) / (in_bucket - 1.0)
                                      : 0.5;
    const double v = lo + frac * (hi - lo);
    return std::clamp(v, static_cast<double>(min_),
                      static_cast<double>(max_));
  }
  return static_cast<double>(max_);
}

void Histogram::merge(const Histogram& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  for (int k = 0; k < kBuckets; ++k) buckets_[k] += other.buckets_[k];
  count_ += other.count_;
  sum_ += other.sum_;
}

// --------------------------------------------------------------------------
// Snapshot
// --------------------------------------------------------------------------

std::int64_t Snapshot::counter(const std::string& name) const {
  for (const auto& [k, v] : counters) {
    if (k == name) return v;
  }
  return 0;
}

const HistogramSummary* Snapshot::hist(const std::string& name) const {
  for (const auto& h : hists) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

std::string Snapshot::to_json(int indent) const {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  const std::string pad1 = pad + "  ";
  const std::string pad2 = pad1 + "  ";
  std::string out = "{\n" + pad1 + "\"counters\": {";
  for (std::size_t i = 0; i < counters.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    char line[192];
    std::snprintf(line, sizeof(line), "%s\"%s\": %" PRId64, pad2.c_str(),
                  counters[i].first.c_str(), counters[i].second);
    out += line;
  }
  out += counters.empty() ? "},\n" : "\n" + pad1 + "},\n";
  out += pad1 + "\"histograms\": {";
  for (std::size_t i = 0; i < hists.size(); ++i) {
    const HistogramSummary& h = hists[i];
    out += i == 0 ? "\n" : ",\n";
    char line[320];
    std::snprintf(line, sizeof(line),
                  "%s\"%s\": {\"count\": %" PRIu64 ", \"sum\": %" PRId64
                  ", \"min\": %" PRId64 ", \"max\": %" PRId64
                  ", \"mean\": %.6g, \"p50\": %.6g, \"p95\": %.6g, "
                  "\"p99\": %.6g}",
                  pad2.c_str(), h.name.c_str(), h.count, h.sum, h.min, h.max,
                  h.mean, h.p50, h.p95, h.p99);
    out += line;
  }
  out += hists.empty() ? "}\n" : "\n" + pad1 + "}\n";
  out += pad + "}";
  return out;
}

// --------------------------------------------------------------------------
// Registry
// --------------------------------------------------------------------------

Registry::Registration::~Registration() {
  if (reg_ != nullptr) reg_->detach(id_);
}

Registry& Registry::instance() {
  static Registry reg;
  return reg;
}

Registry::Registration Registry::attach(std::string group,
                                        const Counters* counters) {
  const std::uint64_t id = next_id_++;
  sources_.push_back(Source{id, std::move(group), counters});
  return Registration{this, id};
}

void Registry::detach(std::uint64_t id) {
  // Ids are handed out monotonically and sources_ is append-only between
  // erases, so it stays sorted by id: binary search instead of a scan.
  // Teardown detaches in near-LIFO order, which also keeps the erase cheap.
  auto it = std::lower_bound(
      sources_.begin(), sources_.end(), id,
      [](const Source& s, std::uint64_t want) { return s.id < want; });
  if (it == sources_.end() || it->id != id || it->counters == nullptr) return;
  // Reuse one buffer for the "<group>.<key>" names: cluster teardown folds
  // thousands of sources, and a fresh string per key made detach a visible
  // slice of bench teardown time.
  std::string name;
  for (const auto& [key, value] : it->counters->items()) {
    name.assign(it->group);
    name += '.';
    name += key;
    retired_.inc(name, value);
  }
  // Tombstone instead of erasing: a 256-node cluster detaches thousands of
  // sources in non-LIFO order, and erasing each one memmoved the whole tail
  // (quadratic teardown). Compacting once the dead outnumber the live keeps
  // detach amortized O(log n) and preserves the sorted-by-id order.
  it->counters = nullptr;
  ++dead_sources_;
  if (dead_sources_ * 2 > sources_.size()) {
    std::erase_if(sources_,
                  [](const Source& s) { return s.counters == nullptr; });
    dead_sources_ = 0;
  }
}

Histogram& Registry::histogram(const std::string& name) {
  for (auto& [n, h] : hists_) {
    if (n == name) return *h;
  }
  hists_.emplace_back(name, std::make_unique<Histogram>());
  return *hists_.back().second;
}

Snapshot Registry::snapshot() const { return snapshot_impl(true); }
Snapshot Registry::snapshot_live() const { return snapshot_impl(false); }

Snapshot Registry::snapshot_impl(bool include_retired) const {
  Counters total;
  std::string name;  // reused "<group>.<key>" buffer, as in detach()
  for (const Source& s : sources_) {
    if (s.counters == nullptr) continue;  // tombstoned (detached)
    for (const auto& [key, value] : s.counters->items()) {
      name.assign(s.group);
      name += '.';
      name += key;
      total.inc(name, value);
    }
  }
  if (include_retired) {
    for (const auto& [key, value] : retired_.items()) total.inc(key, value);
  }
  Snapshot snap;
  snap.counters = total.items();
  for (const auto& [name, h] : hists_) {
    if (h->count() == 0) continue;
    HistogramSummary s;
    s.name = name;
    s.count = h->count();
    s.sum = h->sum();
    s.min = h->min();
    s.max = h->max();
    s.mean = h->mean();
    s.p50 = h->p50();
    s.p95 = h->p95();
    s.p99 = h->p99();
    snap.hists.push_back(std::move(s));
  }
  std::sort(snap.hists.begin(), snap.hists.end(),
            [](const HistogramSummary& a, const HistogramSummary& b) {
              return a.name < b.name;
            });
  return snap;
}

void Registry::reset() {
  retired_ = Counters{};
  for (auto& [name, h] : hists_) h->reset();
}

}  // namespace meshmp::obs
