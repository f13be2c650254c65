#pragma once

// TCP baseline twin of the GigE mesh cluster: same hardware, same cables,
// but the stock kernel TCP/IP stack instead of the modified M-VIA.

#include <memory>
#include <string>
#include <vector>

#include "chk/digest_out.hpp"
#include "cluster/fabric.hpp"
#include "sim/engine.hpp"
#include "tcpstack/stack.hpp"
#include "topo/torus.hpp"

namespace meshmp::cluster {

struct TcpMeshConfig {
  topo::Coord shape{4, 8, 8};
  bool wrap = true;
  hw::HostParams host{};
  hw::NicParams nic{};
  hw::BusParams bus{};
  net::LinkParams link = hw::gige_link_params();
  tcpstack::TcpParams tcp{};
  std::uint64_t seed = 1;
};

class TcpMeshCluster {
 public:
  explicit TcpMeshCluster(TcpMeshConfig cfg)
      : cfg_(cfg), torus_(cfg.shape, cfg.wrap) {
    if (chk::digest_out_path() != nullptr) eng_.enable_digest(true);
    digest_name_ = "cluster." + std::to_string(chk::next_digest_ordinal());
    sim::Rng master(cfg_.seed);
    fabric_ = std::make_unique<MeshFabric>(eng_, torus_, cfg_.host, cfg_.nic,
                                           cfg_.bus, cfg_.link, master);
    stacks_.reserve(static_cast<std::size_t>(torus_.size()));
    for (topo::Rank r = 0; r < torus_.size(); ++r) {
      auto stack = std::make_unique<tcpstack::TcpStack>(fabric_->node(r),
                                                        torus_, r, cfg_.tcp);
      for (topo::Dir d : torus_.directions(torus_.coord(r))) {
        stack->attach_nic(d, fabric_->nic(r, d));
      }
      stacks_.push_back(std::move(stack));
    }
  }
  ~TcpMeshCluster() { chk::append_digest_out(digest_name_, eng_.digest()); }
  TcpMeshCluster(const TcpMeshCluster&) = delete;
  TcpMeshCluster& operator=(const TcpMeshCluster&) = delete;

  [[nodiscard]] sim::Engine& engine() noexcept { return eng_; }
  [[nodiscard]] const topo::Torus& torus() const noexcept { return torus_; }
  [[nodiscard]] topo::Rank size() const noexcept { return torus_.size(); }
  [[nodiscard]] hw::NodeHw& node_hw(topo::Rank r) { return fabric_->node(r); }
  [[nodiscard]] tcpstack::TcpStack& stack(topo::Rank r) {
    return *stacks_.at(r);
  }
  [[nodiscard]] hw::Nic& nic(topo::Rank r, topo::Dir dir) {
    return fabric_->nic(r, dir);
  }

  void run() { eng_.run(); }

 private:
  TcpMeshConfig cfg_;
  sim::Engine eng_;
  topo::Torus torus_;
  std::string digest_name_;
  std::unique_ptr<MeshFabric> fabric_;
  std::vector<std::unique_ptr<tcpstack::TcpStack>> stacks_;
};

}  // namespace meshmp::cluster
