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

// Field order is packed densest-first so the header occupies bytes [0, 18)
// of a 24-byte block, and the whole frame is one cache line: every hot-path
// hop (TTL check, FCS verdict, wire-time computation) touches one line.
struct Frame {
  NodeId src = -1;  ///< originating node (not the last forwarder)
  NodeId dst = -1;  ///< final destination node
  /// Modelled frame size in bytes including protocol headers (the link adds
  /// Ethernet preamble/header/FCS/IFG on top of this).
  std::int64_t wire_bytes = 0;
  /// Remaining forwarding hops; decremented by each kernel-level switch and
  /// dropped at zero so a transient routing loop cannot orbit forever.
  std::uint8_t ttl = kDefaultTtl;
  /// The frame check sequence no longer matches the payload: set by the wire
  /// stage when it corrupts the frame, and the receiving adapter drops such
  /// frames (the Intel Pro/1000MT checks the FCS in hardware, at no host
  /// cost).
  bool fcs_error = false;
  /// Actual data carried (null slice for pure control frames). Immutable:
  /// wire corruption must go through corrupt_payload_byte().
  buf::Slice payload;
  /// Protocol-private header (e.g. via::FrameHeader). One heap allocation per
  /// frame; only the owning protocol reads it.
  std::any meta;

  /// Models a wire bit error: replaces the payload with a detached copy that
  /// has one byte really flipped (the original storage — shared with
  /// retransmit queues — is never altered) and marks the FCS bad.
  void corrupt_payload_byte(std::size_t index, std::byte mask) {
    payload = payload.corrupted(index, mask);
    fcs_error = true;
  }
};

// Size pins: frames are moved through every pump and captured by value in
// per-hop events, so growth here is a hot-path regression. 24-byte packed
// header + 24-byte slice + 16-byte std::any = one 64-byte cache line.
static_assert(sizeof(buf::Slice) == 24);
static_assert(sizeof(Frame) == 64);

// The largest event capture on the hot path is [this + Frame] in the
// link/NIC/crossbar pumps; it must fit the InlineFn budget so those events
// never allocate. If this fires, either the Frame grew or the budget shrank
// — both are deliberate decisions.
static_assert(sizeof(Frame) + sizeof(void*) <= sim::kInlineFnCapacity);

}  // namespace meshmp::net
