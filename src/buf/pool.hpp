#pragma once

// Reference-counted payload buffers for the simulated data path.
//
// The simulator models copy costs explicitly (hw::Cpu::copy,
// hw::IsrContext::spend_copy — both reached through buf::charge_copy in
// copy.hpp); any other byte movement is a simulation artifact and must not
// cost host time. This module decouples the two:
//
//  * Pool::get(n)    -> Buffer: mutable zero-filled scratch (reassembly).
//  * Pool::stage(s)  -> Slice:  bytes copied into fresh storage — the one
//                               host copy that matches a modeled copy.
//  * Pool::adopt(v)  -> Slice:  take ownership of an existing vector, no copy.
//  * Slice::subslice -> aliasing offset/length view; refcount bump only.
//
// Slices are immutable views, so a frame forwarded over many hops, queued
// for retransmit, and reassembled at the receiver all alias one storage
// block. Wire corruption goes through Slice::corrupted(), which produces a
// detached copy-on-write slice with one byte really flipped: the original
// (e.g. a sender's retransmit queue entry) is never altered.
//
// Storage comes from the allocator and is freed when its last Buffer or
// Slice dies. The pool keeps no free lists (DESIGN.md §8 has the measured
// reason); it keeps a ledger instead: a chk::Audit validator ("buf.pool")
// reports any Buffer or Slice not returned at quiesce, catching leaked
// references in protocol state.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "chk/audit.hpp"

namespace meshmp::buf {

class Pool;
class Buffer;

namespace detail {
/// Shared storage block behind one or more Slices.
struct Ctrl {
  std::vector<std::byte> bytes;
  std::uint32_t refs = 0;
};
}  // namespace detail

/// Immutable offset/length view into shared storage. Copying a Slice bumps
/// a refcount; the storage is freed when the last view dies.
class Slice {
 public:
  Slice() noexcept = default;
  Slice(const Slice& other) noexcept;
  Slice(Slice&& other) noexcept;
  Slice& operator=(const Slice& other) noexcept;
  Slice& operator=(Slice&& other) noexcept;
  ~Slice() { release(); }

  [[nodiscard]] std::size_t size() const noexcept { return len_; }
  [[nodiscard]] bool empty() const noexcept { return len_ == 0; }
  [[nodiscard]] const std::byte* data() const noexcept {
    return ctrl_ ? ctrl_->bytes.data() + off_ : nullptr;
  }
  [[nodiscard]] std::span<const std::byte> span() const noexcept {
    return {data(), len_};
  }
  [[nodiscard]] const std::byte* begin() const noexcept { return data(); }
  [[nodiscard]] const std::byte* end() const noexcept {
    return data() + len_;
  }
  std::byte operator[](std::size_t i) const noexcept { return data()[i]; }

  /// Aliasing sub-view; shares (and pins) the same storage block.
  [[nodiscard]] Slice subslice(std::size_t off, std::size_t len) const;

  /// Detached mutated copy with byte `index` XOR-ed by `mask`; this view and
  /// every alias of its storage keep the original bytes.
  [[nodiscard]] Slice corrupted(std::size_t index, std::byte mask) const;

  /// Copies the view out into a plain vector (user-boundary materialization).
  [[nodiscard]] std::vector<std::byte> to_vector() const {
    return {begin(), end()};
  }

 private:
  friend class Pool;
  Slice(detail::Ctrl* ctrl, std::size_t off, std::size_t len) noexcept
      : ctrl_(ctrl), off_(off), len_(len) {}
  void release() noexcept;

  detail::Ctrl* ctrl_ = nullptr;
  std::size_t off_ = 0;
  std::size_t len_ = 0;
};

/// Mutable, uniquely owned scratch buffer — used to gather fragments
/// during reassembly. Convert to user data with release() (steals the
/// vector: no copy at the completion boundary) or share it via
/// Pool::adopt(std::move(buffer).release()).
class Buffer {
 public:
  Buffer() noexcept = default;
  Buffer(const Buffer&) = delete;
  Buffer& operator=(const Buffer&) = delete;
  Buffer(Buffer&& other) noexcept
      : vec_(std::move(other.vec_)), live_(other.live_) {
    other.live_ = false;
  }
  Buffer& operator=(Buffer&& other) noexcept;
  ~Buffer();

  [[nodiscard]] std::size_t size() const noexcept { return vec_.size(); }
  [[nodiscard]] std::byte* data() noexcept { return vec_.data(); }
  [[nodiscard]] std::span<std::byte> span() noexcept { return vec_; }
  [[nodiscard]] bool live() const noexcept { return live_; }

  /// Steals the storage out of the pool's accounting (it now belongs to the
  /// caller, e.g. as RecvCompletion::data). Zero-copy completion.
  [[nodiscard]] std::vector<std::byte> release() &&;

 private:
  friend class Pool;
  explicit Buffer(std::vector<std::byte> v) noexcept
      : vec_(std::move(v)), live_(true) {}

  std::vector<std::byte> vec_;
  bool live_ = false;
};

/// Process-wide payload ledger. Deterministic: pool state never feeds back
/// into simulation decisions.
class Pool {
 public:
  static Pool& instance();

  /// Zero-filled mutable scratch of exactly `bytes`.
  [[nodiscard]] Buffer get(std::size_t bytes);

  /// Copy `src` into fresh storage; the caller's modeled copy charge is
  /// the only copy this mirrors. Empty input yields a null slice.
  [[nodiscard]] Slice stage(std::span<const std::byte> src);

  /// Take ownership of `v` with no copy. Empty input yields a null slice.
  [[nodiscard]] Slice adopt(std::vector<std::byte> v);

  /// Buffers plus storage blocks currently alive. Zero at quiesce
  /// when no protocol state leaks references (audited as "buf.pool").
  [[nodiscard]] std::size_t outstanding() const noexcept {
    return outstanding_;
  }

  struct Stats {
    std::uint64_t pool_hits = 0;    ///< always 0: no storage is recycled
    std::uint64_t pool_misses = 0;  ///< get()/stage() allocations
    std::uint64_t adopts = 0;       ///< vectors adopted without copy
  };
  [[nodiscard]] Stats stats() const noexcept { return stats_; }

 private:
  friend class Slice;
  friend class Buffer;

  Pool();

  /// Quiesce validator body.
  void audit_outstanding() const;

  Slice wrap(std::vector<std::byte> v);
  /// Removes one Buffer or storage block from the outstanding count.
  void drop_one() noexcept { --outstanding_; }

  std::size_t outstanding_ = 0;
  Stats stats_{};
  chk::Audit::Registration audit_reg_;
};

}  // namespace meshmp::buf
