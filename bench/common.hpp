#pragma once

// Shared measurement harnesses for the paper-reproduction benches.
//
// Every figure bench builds a fresh simulated cluster per data point, runs
// the paper's measurement pattern, and prints one row per message size in a
// gnuplot-friendly table.

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/gige_mesh.hpp"
#include "cluster/tcp_mesh.hpp"
#include "mp/endpoint.hpp"
#include "sim/engine.hpp"
#include "via/agent.hpp"

namespace benchutil {

using namespace meshmp;
using namespace meshmp::sim::literals;
using sim::Task;

// --------------------------------------------------------------------------
// Self-timing report: collects the simulated results a bench prints plus the
// host wall-clock it took to produce them, and emits both as
// BENCH_<name>.json in the working directory. Machine-readable so CI perf
// jobs (and humans diffing runs) can track simulator throughput regressions
// alongside the modeled numbers.
// --------------------------------------------------------------------------

class BenchReport {
 public:
  explicit BenchReport(std::string name);
  BenchReport(const BenchReport&) = delete;
  BenchReport& operator=(const BenchReport&) = delete;
  /// Writes the JSON on destruction (covers early returns in bench mains).
  ~BenchReport();

  /// One result row: ordered (key, value) pairs, e.g. {{"bytes", 8},
  /// {"broadcast_us", 208.2}}.
  void add_row(std::vector<std::pair<std::string, double>> row);

  /// Host seconds elapsed since construction.
  double host_seconds() const;

 private:
  std::string name_;
  std::int64_t start_ns_ = 0;
  std::vector<std::vector<std::pair<std::string, double>>> rows_;
};

inline std::vector<std::byte> payload(std::size_t n) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>((i * 31) & 0xff);
  }
  return v;
}

// --------------------------------------------------------------------------
// Raw M-VIA harnesses (figures 2 and 3)
// --------------------------------------------------------------------------

struct ViaPair {
  cluster::GigeMeshCluster cluster;
  via::Vi* a = nullptr;
  via::Vi* b = nullptr;

  explicit ViaPair(cluster::GigeMeshConfig cfg = ring4())
      : cluster(std::move(cfg)) {
    auto dial = [](via::KernelAgent& ag, via::Vi*& out) -> Task<> {
      out = co_await ag.connect(1, 1);
    };
    auto answer = [](via::KernelAgent& ag, via::Vi*& out) -> Task<> {
      out = co_await ag.accept(1);
    };
    cluster.agent(1).listen(1);
    answer(cluster.agent(1), b).detach();
    dial(cluster.agent(0), a).detach();
    cluster.run();
  }

  static cluster::GigeMeshConfig ring4() {
    cluster::GigeMeshConfig cfg;
    cfg.shape = topo::Coord{4};
    return cfg;
  }
};

/// Half round-trip time over `rounds` VIA ping-pongs.
inline double via_rtt2_us(std::int64_t size, int rounds = 40,
                          cluster::GigeMeshConfig cfg = ViaPair::ring4()) {
  ViaPair p(std::move(cfg));
  for (int i = 0; i < rounds + 4; ++i) {
    p.a->post_recv(size + 64);
    p.b->post_recv(size + 64);
  }
  sim::Time t0 = 0;
  sim::Time t1 = 0;
  auto pong = [](via::Vi& vi, int n) -> Task<> {
    for (int i = 0; i < n; ++i) {
      auto m = co_await vi.recv_completion();
      co_await vi.send(std::move(m.data));
    }
  };
  auto ping = [](via::Vi& vi, sim::Engine& eng, std::int64_t sz, int n,
                 sim::Time& start, sim::Time& end) -> Task<> {
    start = eng.now();
    for (int i = 0; i < n; ++i) {
      co_await vi.send(payload(static_cast<std::size_t>(sz)));
      (void)co_await vi.recv_completion();
    }
    end = eng.now();
  };
  pong(*p.b, rounds).detach();
  ping(*p.a, p.cluster.engine(), size, rounds, t0, t1).detach();
  p.cluster.run();
  return sim::to_us(t1 - t0) / 2.0 / rounds;
}

/// Pingpong bandwidth (MB/s): alternating one-way transfers.
inline double via_pingpong_bw(std::int64_t size, int rounds = 30) {
  const double rtt2_us = via_rtt2_us(size, rounds);
  return static_cast<double>(size) / rtt2_us;  // bytes/us == MB/s
}

/// Simultaneous send bandwidth (MB/s): both ends stream `count` messages of
/// `size` concurrently; reported per direction.
inline double via_simultaneous_bw(std::int64_t size, int count = 200,
                                  cluster::GigeMeshConfig cfg =
                                      ViaPair::ring4()) {
  ViaPair p(std::move(cfg));
  for (int i = 0; i < count + 4; ++i) {
    p.a->post_recv(size + 64);
    p.b->post_recv(size + 64);
  }
  // Each drain records its own finish time; the measurement is the max.
  sim::Time ends[2] = {0, 0};
  auto stream = [](via::Vi& vi, std::int64_t sz, int n) -> Task<> {
    for (int i = 0; i < n; ++i) {
      co_await vi.send(payload(static_cast<std::size_t>(sz)));
    }
  };
  auto drain = [](via::Vi& vi, sim::Engine& eng, int n,
                  sim::Time& end) -> Task<> {
    for (int i = 0; i < n; ++i) (void)co_await vi.recv_completion();
    end = eng.now();
  };
  const sim::Time t0 = p.cluster.engine().now();
  stream(*p.a, size, count).detach();
  drain(*p.a, p.cluster.engine(), count, ends[0]).detach();
  stream(*p.b, size, count).detach();
  drain(*p.b, p.cluster.engine(), count, ends[1]).detach();
  p.cluster.run();
  const sim::Time t_end = ends[0] > ends[1] ? ends[0] : ends[1];
  return sim::rate_mb_per_s(size * count, t_end - t0);
}

/// Aggregated send bandwidth (MB/s) of the centre node of a 2-D (3x3) or
/// 3-D (3x3x3) torus: all links stream bidirectionally at once, like the
/// paper's "sum of the simultaneous bandwidth of each GigE link within a
/// single user process".
double via_aggregate_bw(int ndims, std::int64_t size, int count_per_link);
/// Same, with custom adapter parameters (NAPI / coalescing ablations).
double via_aggregate_bw_cfg(int ndims, std::int64_t size, int count_per_link,
                            const hw::NicParams& nic_params);
/// Same, with a full cluster config (wire loss/corruption rates, VIA
/// tunables) and an optional link flap: `flap_after` into the streaming
/// phase the centre node's first port loses carrier for `flap_down`
/// (0 = no flap). Shape is still fixed by `ndims`.
double via_aggregate_bw_faulty(int ndims, std::int64_t size,
                               int count_per_link,
                               cluster::GigeMeshConfig cfg,
                               sim::Duration flap_after = 0,
                               sim::Duration flap_down = 0);

// --------------------------------------------------------------------------
// TCP harnesses
// --------------------------------------------------------------------------

struct TcpPair {
  cluster::TcpMeshCluster cluster;
  tcpstack::TcpSocket* a = nullptr;
  tcpstack::TcpSocket* b = nullptr;

  TcpPair()
      : cluster([] {
          cluster::TcpMeshConfig cfg;
          cfg.shape = topo::Coord{4};
          return cfg;
        }()) {
    auto dial = [](tcpstack::TcpStack& st, tcpstack::TcpSocket*& out)
        -> Task<> { out = co_await st.connect(1, 7); };
    auto answer = [](tcpstack::TcpStack& st, tcpstack::TcpSocket*& out)
        -> Task<> { out = co_await st.accept(7); };
    cluster.stack(1).listen(7);
    answer(cluster.stack(1), b).detach();
    dial(cluster.stack(0), a).detach();
    cluster.run();
  }
};

double tcp_rtt2_us(std::int64_t size, int rounds = 40);
double tcp_simultaneous_bw(std::int64_t size, int count = 200);
double tcp_aggregate_bw(int ndims, std::int64_t size, int count_per_link);

inline double tcp_pingpong_bw(std::int64_t size, int rounds = 30) {
  return static_cast<double>(size) / tcp_rtt2_us(size, rounds);
}

// --------------------------------------------------------------------------
// MPI/QMP (endpoint) harnesses (figure 4)
// --------------------------------------------------------------------------

double mpiqmp_rtt2_us(std::int64_t size, int rounds = 40,
                      mp::CoreParams mp_params = {});
double mpiqmp_aggregate_bw(int ndims, std::int64_t size, int count_per_link);
/// One-way streaming bandwidth between neighbours through MPI/QMP.
double mpiqmp_stream_bw(std::int64_t size, int count,
                        mp::CoreParams mp_params = {});
/// Latency between ranks `hops` apart on a ring (kernel packet switching).
double mpiqmp_routed_rtt2_us(int hops, std::int64_t size, int rounds = 20);

}  // namespace benchutil
