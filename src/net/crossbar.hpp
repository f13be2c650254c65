#pragma once

// Ideal non-blocking crossbar switch (full-bisection Clos model).
//
// Used for the Myrinet comparison cluster: every ingress frame pays a fixed
// switch latency, then serializes only on its *output* port — two flows to
// different destinations never interfere, which is exactly what a
// full-bisection Clos network provides.

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/frame.hpp"
#include "net/link.hpp"
#include "sim/engine.hpp"

namespace meshmp::net {

class Crossbar {
 public:
  /// `port_params` describes each node-to-switch cable; egress serialization
  /// happens at this same rate.
  Crossbar(sim::Engine& eng, int ports, LinkParams port_params,
           sim::Duration switch_latency);

  /// Registers the sink for frames leaving output port `port` (the attached
  /// node's NIC rx entry).
  void set_egress_sink(int port, std::function<void(Frame)> sink);

  /// Called by the ingress side; frame.dst selects the output port (node id
  /// == port index in the switched cluster).
  void ingress(Frame f);

 private:
  sim::Engine& eng_;
  sim::Duration switch_latency_;
  std::vector<std::unique_ptr<SimplexPipe>> egress_;
};

}  // namespace meshmp::net
