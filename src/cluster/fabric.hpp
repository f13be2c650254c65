#pragma once

// Shared mesh plumbing: builds one NodeHw per torus rank with one adapter
// port per mesh direction and wires neighbouring ports with full-duplex
// cables. Both the M-VIA and the TCP mesh clusters sit on this.

#include <memory>
#include <string>
#include <vector>

#include "hw/node.hpp"
#include "hw/params.hpp"
#include "net/link.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"
#include "topo/torus.hpp"

namespace meshmp::cluster {

class MeshFabric {
 public:
  MeshFabric(sim::Engine& eng, const topo::Torus& torus,
             const hw::HostParams& host, const hw::NicParams& nic_params,
             const hw::BusParams& bus, const net::LinkParams& link,
             sim::Rng& rng) {
    nodes_.reserve(static_cast<std::size_t>(torus.size()));
    nic_index_.assign(static_cast<std::size_t>(torus.size()),
                      std::vector<int>(2 * topo::kMaxDims, -1));
    for (topo::Rank r = 0; r < torus.size(); ++r) {
      auto node = std::make_unique<hw::NodeHw>(eng, r, host, bus);
      for (topo::Dir d : torus.directions(torus.coord(r))) {
        node->add_nic(nic_params, link, rng.fork(),
                      "node" + std::to_string(r) + "." + d.str());
        nic_index_[static_cast<std::size_t>(r)][static_cast<std::size_t>(
            d.index())] = static_cast<int>(node->nics().size()) - 1;
      }
      nodes_.push_back(std::move(node));
    }
    // Each (node, dir) port connects to the neighbour's opposite port.
    for (topo::Rank r = 0; r < torus.size(); ++r) {
      for (topo::Dir d : torus.directions(torus.coord(r))) {
        auto n = torus.neighbor(r, d);
        nic(r, d).set_peer(nic(*n, d.opposite()).rx_entry());
      }
    }
  }

  [[nodiscard]] hw::NodeHw& node(topo::Rank r) { return *nodes_.at(r); }

  [[nodiscard]] hw::Nic& nic(topo::Rank r, topo::Dir dir) {
    const int idx = nic_index_.at(static_cast<std::size_t>(r))
                        .at(static_cast<std::size_t>(dir.index()));
    return nodes_[static_cast<std::size_t>(r)]->nic(
        static_cast<std::size_t>(idx));
  }

  [[nodiscard]] std::size_t size() const noexcept { return nodes_.size(); }

 private:
  std::vector<std::unique_ptr<hw::NodeHw>> nodes_;
  std::vector<std::vector<int>> nic_index_;
};

}  // namespace meshmp::cluster
