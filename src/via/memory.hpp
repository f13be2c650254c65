#pragma once

// Registered memory regions.
//
// VIA requires data buffers to be registered (pinned) before the adapter may
// DMA into them. Regions carry a protection key: an RMA write must present
// the right (handle, key) pair and stay inside the region's bounds, otherwise
// it is discarded and counted — the simulated equivalent of the VIA
// protection model.

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "chk/flat_map.hpp"
#include "net/frame.hpp"
#include "obs/metrics.hpp"
#include "sim/rng.hpp"

namespace meshmp::via {

/// Remote-memory access token handed to a peer so it may RMA-write here.
struct MemToken {
  net::NodeId node = -1;
  std::uint32_t handle = 0;
  std::uint32_t key = 0;
  std::uint64_t bytes = 0;
};

class MemoryRegistry {
 public:
  explicit MemoryRegistry(net::NodeId node, sim::Rng rng)
      : node_(node), rng_(rng) {}

  /// Registers a zero-initialized region and returns its access token.
  MemToken register_region(std::uint64_t bytes) {
    const std::uint32_t handle = next_handle_++;
    Region r;
    r.key = static_cast<std::uint32_t>(rng_.next() | 1u);
    r.storage.assign(bytes, std::byte{0});
    regions_.emplace(handle, std::move(r));
    return MemToken{node_, handle, regions_.at(handle).key, bytes};
  }

  void deregister(std::uint32_t handle) { regions_.erase(handle); }

  /// Steals the region's storage and deregisters it in one step: the
  /// zero-copy handoff from a rendezvous landing zone to the user's message
  /// buffer (the RMA write into the region was the one modeled copy).
  [[nodiscard]] std::vector<std::byte> take_storage(std::uint32_t handle) {
    auto it = regions_.find(handle);
    if (it == regions_.end()) return {};
    std::vector<std::byte> out = std::move(it->second.storage);
    regions_.erase(it);
    return out;
  }

  /// Direct access for the owning process (e.g. to read a received message).
  [[nodiscard]] std::span<std::byte> region(std::uint32_t handle) {
    auto it = regions_.find(handle);
    if (it == regions_.end()) return {};
    return it->second.storage;
  }

  /// Validated remote write; returns false (and counts) on any violation.
  bool write(std::uint32_t handle, std::uint32_t key, std::uint64_t offset,
             std::span<const std::byte> data) {
    auto it = regions_.find(handle);
    if (it == regions_.end()) {
      counters_.inc("rma_bad_handle");
      return false;
    }
    Region& r = it->second;
    if (key != r.key) {
      counters_.inc("rma_bad_key");
      return false;
    }
    if (offset + data.size() > r.storage.size()) {
      counters_.inc("rma_out_of_bounds");
      return false;
    }
    // meshmp-lint: charged-copy(KernelAgent::rx_rma bills this fragment's
    // bytes via charge_copy before calling write)
    std::copy(data.begin(), data.end(), r.storage.begin() +
                                            static_cast<std::ptrdiff_t>(offset));
    return true;
  }

  [[nodiscard]] const obs::Counters& counters() const { return counters_; }

 private:
  struct Region {
    std::uint32_t key = 0;
    std::vector<std::byte> storage;
  };

  net::NodeId node_;
  sim::Rng rng_;
  std::uint32_t next_handle_ = 1;
  // Keyed by handle (monotonic), so iteration order is registration order.
  // Region moves on insert/erase keep their storage buffers in place, so
  // spans handed out by region() stay valid.
  chk::FlatMap<std::uint32_t, Region> regions_;
  obs::Counters counters_;
};

}  // namespace meshmp::via
