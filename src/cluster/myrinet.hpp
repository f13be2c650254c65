#pragma once

// Myrinet comparison cluster (paper sec. 3/6): every node has one LANai9
// port into a full-bisection Clos switch (modelled as an ideal crossbar).
// The transport is GM-like: user-level, polled completions, no kernel or
// interrupts on the critical path — which is exactly why its latency beats
// GigE even though our M-VIA removes most of the TCP overhead.

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "hw/cpu.hpp"
#include "hw/params.hpp"
#include "net/crossbar.hpp"
#include "net/link.hpp"
#include "obs/metrics.hpp"
#include "sim/engine.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace meshmp::cluster {

struct GmMessage {
  int src = -1;
  int tag = 0;
  std::vector<std::byte> data;
};

class MyrinetCluster;

/// Per-node user-level transport endpoint.
class GmPort {
 public:
  GmPort(MyrinetCluster& cluster, int rank, hw::Cpu& cpu,
         net::SimplexPipe& to_switch);
  GmPort(const GmPort&) = delete;
  GmPort& operator=(const GmPort&) = delete;

  [[nodiscard]] int rank() const noexcept { return rank_; }
  [[nodiscard]] hw::Cpu& cpu() noexcept { return cpu_; }

  sim::Task<> send(int dst, int tag, std::vector<std::byte> data);
  sim::Task<GmMessage> recv(int src, int tag);

  /// Recursive-doubling global sum (power-of-two node counts).
  sim::Task<double> allreduce_sum(double value);

  /// Receive entry driven by the switch egress pipe.
  void deliver(net::Frame f);

  [[nodiscard]] const obs::Counters& counters() const noexcept {
    return counters_;
  }

 private:
  struct Posted {
    int src;
    int tag;
    GmMessage msg;
    bool done = false;
    std::unique_ptr<sim::Trigger> ready;
  };
  struct Partial {
    std::vector<std::byte> buf;
    std::uint32_t msg_id = 0;
    std::uint32_t seen = 0;
    std::uint32_t nfrags = 0;
    bool active = false;
  };

  void complete(GmMessage msg);

  MyrinetCluster& cluster_;
  int rank_;
  hw::Cpu& cpu_;
  net::SimplexPipe& to_switch_;
  std::uint32_t next_msg_id_ = 1;
  // reassembly keyed by source (one in-flight message per src suffices: the
  // port serializes per-source messages; key by (src,msg_id) if extended)
  std::vector<Partial> partial_;
  std::deque<std::shared_ptr<Posted>> posted_;
  std::deque<GmMessage> unexpected_;
  obs::Counters counters_;
};

struct MyrinetConfig {
  int nodes = 64;
  hw::HostParams host{};  ///< flops rate overridden by gm.flops_per_sec
  hw::MyrinetParams gm{};
  net::LinkParams link = hw::myrinet_link_params();
};

class MyrinetCluster {
 public:
  explicit MyrinetCluster(MyrinetConfig cfg);
  MyrinetCluster(const MyrinetCluster&) = delete;
  MyrinetCluster& operator=(const MyrinetCluster&) = delete;

  [[nodiscard]] sim::Engine& engine() noexcept { return eng_; }
  [[nodiscard]] int size() const noexcept { return cfg_.nodes; }
  [[nodiscard]] const MyrinetConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] GmPort& port(int r) { return *ports_.at(static_cast<std::size_t>(r)); }
  [[nodiscard]] hw::Cpu& cpu(int r) {
    return *cpus_.at(static_cast<std::size_t>(r));
  }

  void run() { eng_.run(); }

 private:
  friend class GmPort;
  MyrinetConfig cfg_;
  sim::Engine eng_;
  std::vector<std::unique_ptr<hw::Cpu>> cpus_;
  std::vector<std::unique_ptr<net::SimplexPipe>> ingress_;
  std::unique_ptr<net::Crossbar> xbar_;
  std::vector<std::unique_ptr<GmPort>> ports_;
};

}  // namespace meshmp::cluster
