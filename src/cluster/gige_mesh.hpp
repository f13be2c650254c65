#pragma once

// Builder for a GigE mesh/torus cluster: N nodes, one adapter port per mesh
// direction, copper point-to-point cables to the neighbours, one modified
// M-VIA kernel agent per node. This is the simulated twin of the JLab
// clusters (paper sec. 3).

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cluster/fabric.hpp"
#include "hw/node.hpp"
#include "hw/params.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"
#include "sim/task.hpp"
#include "topo/torus.hpp"
#include "via/agent.hpp"

namespace meshmp::cluster {

struct GigeMeshConfig {
  topo::Coord shape{4, 8, 8};
  bool wrap = true;
  hw::HostParams host{};
  hw::NicParams nic{};
  hw::BusParams bus{};
  net::LinkParams link = hw::gige_link_params();
  via::ViaParams via{};
  std::uint64_t seed = 1;
};

class GigeMeshCluster {
 public:
  explicit GigeMeshCluster(GigeMeshConfig cfg);
  ~GigeMeshCluster();
  GigeMeshCluster(const GigeMeshCluster&) = delete;
  GigeMeshCluster& operator=(const GigeMeshCluster&) = delete;

  [[nodiscard]] sim::Engine& engine() noexcept { return eng_; }
  [[nodiscard]] const topo::Torus& torus() const noexcept { return torus_; }
  [[nodiscard]] topo::Rank size() const noexcept { return torus_.size(); }
  [[nodiscard]] const GigeMeshConfig& config() const noexcept { return cfg_; }

  [[nodiscard]] hw::NodeHw& node_hw(topo::Rank r) { return fabric_->node(r); }
  [[nodiscard]] via::KernelAgent& agent(topo::Rank r) { return *agents_.at(r); }
  /// The adapter of node `r` facing direction `dir`.
  [[nodiscard]] hw::Nic& nic(topo::Rank r, topo::Dir dir) {
    return fabric_->nic(r, dir);
  }

  /// Detaches a node program onto the simulation.
  void spawn(sim::Task<> program) { program.detach(); }

  /// Runs the simulation to completion.
  void run() { eng_.run(); }

  // -- node-failure lifecycle --------------------------------------------
  /// Observers (the ClusterLifecycle failure detector) notified after a node
  /// is power-failed / power-restored.
  void set_crash_hooks(std::function<void(topo::Rank)> on_crash,
                       std::function<void(topo::Rank)> on_restart) {
    on_crash_ = std::move(on_crash);
    on_restart_ = std::move(on_restart);
  }

  /// Whole-node power failure: every adapter powers off (rings and in-flight
  /// descriptors discarded, carrier drops at both cable ends) and the kernel
  /// agent fails all its connections so local blockers unwind.
  void power_fail_node(topo::Rank r);
  /// Cold start: the agent's incarnation epoch bumps first, then the
  /// adapters power on and both cable ends regain carrier.
  void power_restore_node(topo::Rank r);

 private:
  GigeMeshConfig cfg_;
  sim::Engine eng_;
  topo::Torus torus_;
  std::string digest_name_;
  std::unique_ptr<MeshFabric> fabric_;
  std::vector<std::unique_ptr<via::KernelAgent>> agents_;
  std::function<void(topo::Rank)> on_crash_;
  std::function<void(topo::Rank)> on_restart_;
};

}  // namespace meshmp::cluster
