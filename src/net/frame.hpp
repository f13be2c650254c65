#pragma once

// Frames: the unit moved by links and NICs.
//
// Frames carry *real* payload bytes so that integrity is testable end to end
// (through fragmentation, kernel forwarding, corruption and retransmission),
// plus a modelled `wire_bytes` size that includes protocol headers the
// simulation does not materialize.
//
// The payload is a buf::Slice: a refcounted view into pooled storage, so
// copying a frame (per-hop forwarding, retransmit queues, DMA staging) bumps
// a refcount instead of duplicating bytes. Modeled copy costs are charged
// separately through buf::charge_copy; see src/buf/.

#include <any>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "buf/pool.hpp"
#include "sim/inline_fn.hpp"

namespace meshmp::net {

/// Global node index within a cluster.
using NodeId = std::int32_t;

/// Freelist allocator for the protocol headers carried in Frame::meta.
/// std::any heap-allocates one header per frame (and per frame *copy* —
/// retransmit queues, per-hop event captures), which made malloc a hot-path
/// cost. Protocol header types route their class-level operator new/delete
/// here so steady-state frames recycle fixed blocks instead. Requests larger
/// than the block size fall through to the global allocator.
[[nodiscard]] void* meta_alloc(std::size_t bytes);
void meta_free(void* p, std::size_t bytes) noexcept;

/// One block class sized for the largest header (ViaHeader is exactly 96
/// bytes); smaller headers waste a little slack rather than paying a second
/// freelist. Header types static_assert they fit so a growing header turns
/// the pool off loudly (at compile time) instead of silently.
inline constexpr std::size_t kMetaBlockBytes = 96;

/// Declares pooled allocation for a protocol header type. Member functions
/// do not affect aggregate-ness, so designated initializers keep working.
#define MESHMP_POOLED_META()                                    \
  static void* operator new(std::size_t n) {                    \
    return ::meshmp::net::meta_alloc(n);                        \
  }                                                             \
  static void operator delete(void* p, std::size_t n) noexcept { \
    ::meshmp::net::meta_free(p, n);                             \
  }

/// Forwarding budget: enough for any minimal route on the paper's meshes
/// plus detours around failed links, small enough to kill routing loops fast.
inline constexpr std::uint8_t kDefaultTtl = 32;

// Field order is packed densest-first so the header occupies bytes [0, 24)
// with a single byte of tail padding: every hot-path hop (TTL check, proto
// demux, wire-time computation) touches one cache line.
struct Frame {
  NodeId src = -1;  ///< originating node (not the last forwarder)
  NodeId dst = -1;  ///< final destination node
  /// Modelled frame size in bytes including protocol headers (the link adds
  /// Ethernet preamble/header/FCS/IFG on top of this).
  std::int64_t wire_bytes = 0;
  /// CRC of `payload` computed at transmit time (hardware checksum model).
  std::uint32_t checksum = 0;
  /// Protocol demultiplex key on the receiving node (VIA kernel agent, TCP
  /// stack, ...). Values are assigned by the cluster builder.
  std::uint16_t proto = 0;
  /// Remaining forwarding hops; decremented by each kernel-level switch and
  /// dropped at zero so a transient routing loop cannot orbit forever.
  std::uint8_t ttl = kDefaultTtl;
  /// Actual data carried (null slice for pure control frames). Immutable:
  /// wire corruption must go through corrupt_payload_byte().
  buf::Slice payload;
  /// Protocol-private header (e.g. via::FrameHeader). One heap allocation per
  /// frame; only the owning protocol reads it.
  std::any meta;

  /// Recomputes `checksum` from the payload (done by the NIC on transmit —
  /// the Intel Pro/1000MT offloads this, so it costs no host CPU). The
  /// slice memoizes its CRC, so restamping on forward costs O(1).
  void stamp_checksum() { checksum = payload.crc(); }

  /// True when payload still matches the transmit-time checksum.
  [[nodiscard]] bool checksum_ok() const { return checksum == payload.crc(); }

  /// Models a wire bit error: replaces the payload with a detached mutated
  /// copy (the original storage — shared with retransmit queues — is never
  /// altered, and the copy carries no CRC memo, so checksum_ok() fails).
  void corrupt_payload_byte(std::size_t index, std::byte mask) {
    payload = payload.corrupted(index, mask);
  }
};

// Size pins: frames are moved through every pump and captured by value in
// per-hop events, so growth here is a hot-path regression. 24-byte packed
// header + 32-byte slice + 16-byte std::any.
static_assert(sizeof(buf::Slice) == 32);
static_assert(sizeof(Frame) == 72);

// The largest event capture on the hot path is [this + Frame] in the
// link/NIC/crossbar pumps; it must fit the InlineFn budget so those events
// never allocate. If this fires, either the Frame grew or the budget shrank
// — both are deliberate decisions.
static_assert(sizeof(Frame) + sizeof(void*) <= sim::kInlineFnCapacity);

/// Convenience: byte-vector from any trivially copyable object sequence.
template <typename T>
std::vector<std::byte> to_bytes(std::span<const T> values) {
  static_assert(std::is_trivially_copyable_v<T>);
  auto raw = std::as_bytes(values);
  return {raw.begin(), raw.end()};
}

}  // namespace meshmp::net
