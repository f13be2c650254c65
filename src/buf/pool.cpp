#include "buf/pool.hpp"

#include <string>
#include <utility>

#include "buf/copy.hpp"

namespace meshmp::buf {

// --- Slice -----------------------------------------------------------------

Slice::Slice(const Slice& other) noexcept
    : ctrl_(other.ctrl_), off_(other.off_), len_(other.len_) {
  if (ctrl_ != nullptr) ++ctrl_->refs;
}

Slice::Slice(Slice&& other) noexcept
    : ctrl_(std::exchange(other.ctrl_, nullptr)),
      off_(std::exchange(other.off_, 0)),
      len_(std::exchange(other.len_, 0)) {}

Slice& Slice::operator=(const Slice& other) noexcept {
  if (this == &other) return *this;
  if (other.ctrl_ != nullptr) ++other.ctrl_->refs;
  release();
  ctrl_ = other.ctrl_;
  off_ = other.off_;
  len_ = other.len_;
  return *this;
}

Slice& Slice::operator=(Slice&& other) noexcept {
  if (this == &other) return *this;
  release();
  ctrl_ = std::exchange(other.ctrl_, nullptr);
  off_ = std::exchange(other.off_, 0);
  len_ = std::exchange(other.len_, 0);
  return *this;
}

void Slice::release() noexcept {
  if (ctrl_ != nullptr && --ctrl_->refs == 0) {
    delete ctrl_;
    Pool::instance().drop_one();
  }
  ctrl_ = nullptr;
  len_ = 0;
  off_ = 0;
}

Slice Slice::subslice(std::size_t off, std::size_t len) const {
  if (len == 0 || ctrl_ == nullptr) return {};
  ++ctrl_->refs;
  return {ctrl_, off_ + off, len};
}

Slice Slice::corrupted(std::size_t index, std::byte mask) const {
  std::vector<std::byte> copy = to_vector();
  copy[index] ^= mask;
  return Pool::instance().adopt(std::move(copy));
}

// --- Buffer ----------------------------------------------------------------

Buffer& Buffer::operator=(Buffer&& other) noexcept {
  if (this == &other) return *this;
  if (live_) Pool::instance().drop_one();
  vec_ = std::move(other.vec_);
  live_ = std::exchange(other.live_, false);
  return *this;
}

Buffer::~Buffer() {
  if (live_) Pool::instance().drop_one();
}

std::vector<std::byte> Buffer::release() && {
  if (live_) {
    live_ = false;
    Pool::instance().drop_one();
  }
  return std::move(vec_);
}

// --- Pool ------------------------------------------------------------------

Pool& Pool::instance() {
  static Pool pool;
  return pool;
}

Pool::Pool()
    : audit_reg_(chk::Audit::instance().watch(
          "buf.pool", [this] { audit_outstanding(); })) {}

void Pool::audit_outstanding() const {
  if (outstanding_ != 0) {
    chk::Audit::instance().fail(
        "buf.pool", std::to_string(outstanding_) +
                        " pooled buffer(s)/slice(s) not returned");
  }
}

Buffer Pool::get(std::size_t bytes) {
  ++stats_.pool_misses;
  ++outstanding_;
  return Buffer(std::vector<std::byte>(bytes));
}

Slice Pool::stage(std::span<const std::byte> src) {
  if (src.empty()) return {};
  ++stats_.pool_misses;
  return wrap({src.begin(), src.end()});
}

Slice Pool::adopt(std::vector<std::byte> v) {
  if (v.empty()) return {};
  ++stats_.adopts;
  return wrap(std::move(v));
}

Slice Pool::wrap(std::vector<std::byte> v) {
  std::size_t n = v.size();
  auto* ctrl = new detail::Ctrl{std::move(v), 1};
  ++outstanding_;
  return {ctrl, 0, n};
}

// --- copy accounting (declared in copy.hpp) --------------------------------

CopyStats& detail::copy_tally() noexcept {
  static CopyStats tally;
  return tally;
}

}  // namespace meshmp::buf
