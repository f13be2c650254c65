#include "cluster/gige_mesh.hpp"

#include "chk/digest_out.hpp"

namespace meshmp::cluster {

GigeMeshCluster::GigeMeshCluster(GigeMeshConfig cfg)
    : cfg_(cfg), torus_(cfg.shape, cfg.wrap) {
  // A golden-transcript run hashes every event; plain runs stay hash-free.
  if (chk::digest_out_path() != nullptr) eng_.enable_digest(true);
  digest_name_ = "cluster." + std::to_string(chk::next_digest_ordinal());
  sim::Rng master(cfg_.seed);
  fabric_ = std::make_unique<MeshFabric>(eng_, torus_, cfg_.host, cfg_.nic,
                                         cfg_.bus, cfg_.link, master);
  agents_.reserve(static_cast<std::size_t>(torus_.size()));
  for (topo::Rank r = 0; r < torus_.size(); ++r) {
    auto agent = std::make_unique<via::KernelAgent>(
        fabric_->node(r), torus_, r, cfg_.via, master.fork());
    for (topo::Dir d : torus_.directions(torus_.coord(r))) {
      agent->attach_nic(d, fabric_->nic(r, d));
    }
    agents_.push_back(std::move(agent));
  }
}

GigeMeshCluster::~GigeMeshCluster() {
  chk::append_digest_out(digest_name_, eng_.digest());
}

void GigeMeshCluster::power_fail_node(topo::Rank r) {
  if (!agent(r).powered()) return;
  // Adapters first: anything the agent's failure callbacks try to transmit
  // while unwinding is blackholed instead of escaping the dead host.
  for (topo::Dir d : torus_.directions(torus_.coord(r))) {
    nic(r, d).power_off();
    // The cable is dead at both ends: the neighbour's port sees its link go
    // down and its agent reroutes from the next frame on.
    const auto n = torus_.neighbor(r, d);
    nic(*n, d.opposite()).set_carrier(false);
  }
  agent(r).power_fail();
  if (on_crash_) on_crash_(r);
}

void GigeMeshCluster::power_restore_node(topo::Rank r) {
  if (agent(r).powered()) return;
  // Epoch bumps before any port carries traffic, so every frame of the new
  // incarnation is stamped with the new epoch.
  agent(r).power_restore();
  for (topo::Dir d : torus_.directions(torus_.coord(r))) {
    nic(r, d).power_on();
    nic(r, d).set_carrier(true);
    const auto n = torus_.neighbor(r, d);
    nic(*n, d.opposite()).set_carrier(true);
  }
  if (on_restart_) on_restart_(r);
}

}  // namespace meshmp::cluster
