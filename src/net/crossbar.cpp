#include "net/crossbar.hpp"

#include <cassert>
#include <stdexcept>

namespace meshmp::net {

Crossbar::Crossbar(sim::Engine& eng, int ports, LinkParams port_params,
                   sim::Duration switch_latency)
    : eng_(eng), switch_latency_(switch_latency) {
  egress_.reserve(static_cast<std::size_t>(ports));
  for (int p = 0; p < ports; ++p) {
    egress_.push_back(std::make_unique<SimplexPipe>(eng, port_params));
  }
}

void Crossbar::set_egress_sink(int port, std::function<void(Frame)> sink) {
  egress_.at(static_cast<std::size_t>(port))->set_sink(std::move(sink));
}

void Crossbar::ingress(Frame f) {
  if (f.dst < 0 || static_cast<std::size_t>(f.dst) >= egress_.size()) {
    throw std::out_of_range("Crossbar::ingress: bad destination");
  }
  eng_.schedule(switch_latency_, [this, f = std::move(f)]() mutable {
    egress_[static_cast<std::size_t>(f.dst)]->send(std::move(f));
  });
}

}  // namespace meshmp::net
