#include "common.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <memory>

#include "buf/copy.hpp"
#include "flt/fault.hpp"
#include "mpi/mpi.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace benchutil {

namespace {

std::int64_t host_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

// --------------------------------------------------------------------------
// BenchReport
// --------------------------------------------------------------------------

BenchReport::BenchReport(std::string name)
    : name_(std::move(name)), start_ns_(host_now_ns()) {
  // Fresh metrics for this bench only (a process may run several harnesses
  // before the report is constructed), and honour MESHMP_TRACE.
  obs::Registry::instance().reset();
  // Copy accounting restarts with the bench too, so the charged_copies /
  // charged_bytes the report publishes are this bench's alone and the
  // baselines pin the exact modeled-copy count of each figure.
  buf::reset_copy_stats();
  // Host-side engine telemetry (events dispatched, queue depth) restarts so
  // the host.engine.* metrics the report publishes cover this bench alone.
  sim::reset_engine_host_stats();
  obs::trace_init_from_env();
}

double BenchReport::host_seconds() const {
  return static_cast<double>(host_now_ns() - start_ns_) * 1e-9;
}

void BenchReport::add_row(std::vector<std::pair<std::string, double>> row) {
  rows_.push_back(std::move(row));
}

BenchReport::~BenchReport() {
  const std::string path = "BENCH_" + name_ + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "BenchReport: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"%s\",\n", name_.c_str());
  std::fprintf(f, "  \"host_seconds\": %.6f,\n", host_seconds());
  std::fprintf(f, "  \"rows\": [\n");
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    std::fprintf(f, "    {");
    for (std::size_t k = 0; k < rows_[i].size(); ++k) {
      std::fprintf(f, "%s\"%s\": %.6g", k == 0 ? "" : ", ",
                   rows_[i][k].first.c_str(), rows_[i][k].second);
    }
    std::fprintf(f, "}%s\n", i + 1 < rows_.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  // Full registry view (live + retired): per-layer counters and histogram
  // summaries travel with the modeled rows so regressions in *why* numbers
  // moved are diffable, not just the numbers themselves. The charge_copy
  // tally rides along as buf.copy.* — an unreviewed extra copy on a modeled
  // path shows up as exact-counter drift in the bench_diff gate.
  const buf::CopyStats cs = buf::copy_stats();
  obs::Counters copy_counters;
  copy_counters.inc("charged_copies", static_cast<std::int64_t>(cs.copies));
  copy_counters.inc("charged_bytes", static_cast<std::int64_t>(cs.bytes));
  const auto copy_reg =
      obs::Registry::instance().attach("buf.copy", &copy_counters);
  // Host-side engine throughput rides along under the "host." prefix, which
  // tools/bench_diff.py treats as informational (host time is machine-
  // dependent; everything else in this report is gated byte-exact).
  const sim::EngineHostStats es = sim::engine_host_stats();
  const double secs = host_seconds();
  obs::Counters host_counters;
  host_counters.inc("events_dispatched",
                    static_cast<std::int64_t>(es.events_dispatched));
  host_counters.inc("queue_depth_hwm",
                    static_cast<std::int64_t>(es.queue_depth_hwm));
  host_counters.inc(
      "events_per_sec",
      secs > 0 ? static_cast<std::int64_t>(
                     static_cast<double>(es.events_dispatched) / secs)
               : 0);
  // Event-queue work counts: how many pushes took an O(1) FIFO lane versus
  // the fallback heap, and how many lane events were evicted into it.
  host_counters.inc("queue_lane_pushes",
                    static_cast<std::int64_t>(es.queue_lane_pushes));
  host_counters.inc("queue_fallback_pushes",
                    static_cast<std::int64_t>(es.queue_fallback_pushes));
  host_counters.inc("queue_evictions",
                    static_cast<std::int64_t>(es.queue_evictions));
  const auto host_reg =
      obs::Registry::instance().attach("host.engine", &host_counters);
  const std::string metrics = obs::Registry::instance().snapshot().to_json(2);
  std::fprintf(f, "  \"metrics\": %s\n}\n", metrics.c_str());
  std::fclose(f);
  std::printf("# host wall-clock: %.3f s (-> %s)\n", host_seconds(),
              path.c_str());
  obs::trace_flush_env();
}

namespace {

topo::Coord aggregate_shape(int ndims) {
  return ndims == 2 ? topo::Coord{3, 3} : topo::Coord{3, 3, 3};
}

}  // namespace

// --------------------------------------------------------------------------
// M-VIA aggregate
// --------------------------------------------------------------------------

double via_aggregate_bw(int ndims, std::int64_t size, int count_per_link) {
  return via_aggregate_bw_cfg(ndims, size, count_per_link, hw::NicParams{});
}

double via_aggregate_bw_cfg(int ndims, std::int64_t size, int count_per_link,
                            const hw::NicParams& nic_params) {
  cluster::GigeMeshConfig cfg;
  cfg.nic = nic_params;
  return via_aggregate_bw_faulty(ndims, size, count_per_link, cfg);
}

double via_aggregate_bw_faulty(int ndims, std::int64_t size,
                               int count_per_link,
                               cluster::GigeMeshConfig cfg,
                               sim::Duration flap_after,
                               sim::Duration flap_down) {
  cfg.shape = aggregate_shape(ndims);
  cluster::GigeMeshCluster c(cfg);
  const topo::Torus& t = c.torus();
  const topo::Rank center = t.rank(ndims == 2 ? topo::Coord{1, 1}
                                              : topo::Coord{1, 1, 1});
  const auto dirs = t.directions(t.coord(center));
  const int nlinks = static_cast<int>(dirs.size());

  // One VI pair per link, dialed from the centre.
  struct LinkConn {
    via::Vi* mine = nullptr;   // centre endpoint
    via::Vi* theirs = nullptr; // neighbour endpoint
  };
  std::vector<LinkConn> conns(static_cast<std::size_t>(nlinks));
  auto dial = [](via::KernelAgent& ag, net::NodeId peer, std::uint32_t svc,
                 via::Vi*& out) -> Task<> {
    out = co_await ag.connect(peer, svc);
  };
  auto answer = [](via::KernelAgent& ag, std::uint32_t svc,
                   via::Vi*& out) -> Task<> {
    out = co_await ag.accept(svc);
  };
  for (int i = 0; i < nlinks; ++i) {
    const auto nb = t.neighbor(center, dirs[static_cast<std::size_t>(i)]);
    const auto svc = static_cast<std::uint32_t>(100 + i);
    c.agent(*nb).listen(svc);
    answer(c.agent(*nb), svc, conns[static_cast<std::size_t>(i)].theirs)
        .detach();
    dial(c.agent(center), *nb, svc, conns[static_cast<std::size_t>(i)].mine)
        .detach();
  }
  c.run();

  // Reverse connections so neighbours also stream toward the centre
  // (bidirectional "simultaneous" load on every link).
  std::vector<LinkConn> rev(static_cast<std::size_t>(nlinks));
  for (int i = 0; i < nlinks; ++i) {
    const auto nb = t.neighbor(center, dirs[static_cast<std::size_t>(i)]);
    const auto svc = static_cast<std::uint32_t>(200 + i);
    c.agent(center).listen(svc);
    answer(c.agent(center), svc, rev[static_cast<std::size_t>(i)].theirs)
        .detach();
    dial(c.agent(*nb), center, svc, rev[static_cast<std::size_t>(i)].mine)
        .detach();
  }
  c.run();

  for (int i = 0; i < nlinks; ++i) {
    for (int k = 0; k < count_per_link + 4; ++k) {
      conns[static_cast<std::size_t>(i)].theirs->post_recv(size + 64);
      rev[static_cast<std::size_t>(i)].theirs->post_recv(size + 64);
    }
  }

  // Per-drain finish slots (max taken after the run).
  std::vector<sim::Time> ends(static_cast<std::size_t>(2 * nlinks), 0);
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
  const sim::Time t0 = c.engine().now();
  std::unique_ptr<flt::Injector> inj;
  if (flap_down > 0) {
    flt::Schedule faults;
    faults.link_flap(t0 + flap_after, center, dirs[0], flap_down);
    inj = std::make_unique<flt::Injector>(c, faults);
  }
  for (int i = 0; i < nlinks; ++i) {
    stream(*conns[static_cast<std::size_t>(i)].mine, size, count_per_link)
        .detach();
    drain(*rev[static_cast<std::size_t>(i)].theirs, c.engine(),
          count_per_link, ends[static_cast<std::size_t>(nlinks + i)])
        .detach();
    stream(*rev[static_cast<std::size_t>(i)].mine, size, count_per_link)
        .detach();
    drain(*conns[static_cast<std::size_t>(i)].theirs, c.engine(),
          count_per_link, ends[static_cast<std::size_t>(i)])
        .detach();
  }
  c.run();
  const sim::Time t_end = *std::max_element(ends.begin(), ends.end());
  // Aggregated *send* bandwidth of the centre node.
  return sim::rate_mb_per_s(static_cast<std::int64_t>(nlinks) * size *
                                count_per_link,
                            t_end - t0);
}

// --------------------------------------------------------------------------
// TCP
// --------------------------------------------------------------------------

double tcp_rtt2_us(std::int64_t size, int rounds) {
  TcpPair p;
  sim::Time t0 = 0;
  sim::Time t1 = 0;
  auto pong = [](tcpstack::TcpSocket& s, std::int64_t sz, int n) -> Task<> {
    for (int i = 0; i < n; ++i) {
      auto m = co_await s.recv_exact(sz);
      co_await s.send(std::move(m));
    }
  };
  auto ping = [](tcpstack::TcpSocket& s, sim::Engine& eng, std::int64_t sz,
                 int n, sim::Time& start, sim::Time& end) -> Task<> {
    start = eng.now();
    for (int i = 0; i < n; ++i) {
      co_await s.send(payload(static_cast<std::size_t>(sz)));
      (void)co_await s.recv_exact(sz);
    }
    end = eng.now();
  };
  pong(*p.b, size, rounds).detach();
  ping(*p.a, p.cluster.engine(), size, rounds, t0, t1).detach();
  p.cluster.run();
  return sim::to_us(t1 - t0) / 2.0 / rounds;
}

double tcp_simultaneous_bw(std::int64_t size, int count) {
  TcpPair p;
  sim::Time ends[2] = {0, 0};
  auto stream = [](tcpstack::TcpSocket& s, std::int64_t sz, int n) -> Task<> {
    for (int i = 0; i < n; ++i) {
      co_await s.send(payload(static_cast<std::size_t>(sz)));
    }
  };
  auto drain = [](tcpstack::TcpSocket& s, sim::Engine& eng, std::int64_t sz,
                  int n, sim::Time& end) -> Task<> {
    (void)co_await s.recv_exact(sz * n);
    end = eng.now();
  };
  const sim::Time t0 = p.cluster.engine().now();
  stream(*p.a, size, count).detach();
  drain(*p.a, p.cluster.engine(), size, count, ends[0]).detach();
  stream(*p.b, size, count).detach();
  drain(*p.b, p.cluster.engine(), size, count, ends[1]).detach();
  p.cluster.run();
  const sim::Time t_end = std::max(ends[0], ends[1]);
  return sim::rate_mb_per_s(size * count, t_end - t0);
}

double tcp_aggregate_bw(int ndims, std::int64_t size, int count_per_link) {
  cluster::TcpMeshConfig cfg;
  cfg.shape = aggregate_shape(ndims);
  cluster::TcpMeshCluster c(cfg);
  const topo::Torus& t = c.torus();
  const topo::Rank center = t.rank(ndims == 2 ? topo::Coord{1, 1}
                                              : topo::Coord{1, 1, 1});
  const auto dirs = t.directions(t.coord(center));
  const int nlinks = static_cast<int>(dirs.size());

  struct Conn {
    tcpstack::TcpSocket* mine = nullptr;
    tcpstack::TcpSocket* theirs = nullptr;
  };
  std::vector<Conn> out(static_cast<std::size_t>(nlinks));
  std::vector<Conn> back(static_cast<std::size_t>(nlinks));
  auto dial = [](tcpstack::TcpStack& st, net::NodeId peer, std::uint16_t port,
                 tcpstack::TcpSocket*& o) -> Task<> {
    o = co_await st.connect(peer, port);
  };
  auto answer = [](tcpstack::TcpStack& st, std::uint16_t port,
                   tcpstack::TcpSocket*& o) -> Task<> {
    o = co_await st.accept(port);
  };
  for (int i = 0; i < nlinks; ++i) {
    const auto nb = t.neighbor(center, dirs[static_cast<std::size_t>(i)]);
    const auto port1 = static_cast<std::uint16_t>(100 + i);
    const auto port2 = static_cast<std::uint16_t>(200 + i);
    c.stack(*nb).listen(port1);
    c.stack(center).listen(port2);
    answer(c.stack(*nb), port1, out[static_cast<std::size_t>(i)].theirs)
        .detach();
    dial(c.stack(center), *nb, port1, out[static_cast<std::size_t>(i)].mine)
        .detach();
    answer(c.stack(center), port2, back[static_cast<std::size_t>(i)].theirs)
        .detach();
    dial(c.stack(*nb), center, port2, back[static_cast<std::size_t>(i)].mine)
        .detach();
  }
  c.run();

  std::vector<sim::Time> ends(static_cast<std::size_t>(2 * nlinks), 0);
  auto stream = [](tcpstack::TcpSocket& s, std::int64_t sz, int n) -> Task<> {
    for (int i = 0; i < n; ++i) {
      co_await s.send(payload(static_cast<std::size_t>(sz)));
    }
  };
  auto drain = [](tcpstack::TcpSocket& s, sim::Engine& eng, std::int64_t sz,
                  int n, sim::Time& end) -> Task<> {
    (void)co_await s.recv_exact(sz * n);
    end = eng.now();
  };
  const sim::Time t0 = c.engine().now();
  for (int i = 0; i < nlinks; ++i) {
    stream(*out[static_cast<std::size_t>(i)].mine, size, count_per_link)
        .detach();
    drain(*back[static_cast<std::size_t>(i)].theirs, c.engine(), size,
          count_per_link, ends[static_cast<std::size_t>(nlinks + i)])
        .detach();
    stream(*back[static_cast<std::size_t>(i)].mine, size, count_per_link)
        .detach();
    drain(*out[static_cast<std::size_t>(i)].theirs, c.engine(), size,
          count_per_link, ends[static_cast<std::size_t>(i)])
        .detach();
  }
  c.run();
  const sim::Time t_end = *std::max_element(ends.begin(), ends.end());
  return sim::rate_mb_per_s(static_cast<std::int64_t>(nlinks) * size *
                                count_per_link,
                            t_end - t0);
}

// --------------------------------------------------------------------------
// MPI/QMP (endpoint layer)
// --------------------------------------------------------------------------

namespace {

struct EndpointWorld {
  cluster::GigeMeshCluster cluster;
  std::vector<std::unique_ptr<mp::Endpoint>> eps;

  explicit EndpointWorld(topo::Coord shape, mp::CoreParams mp_params = {})
      : cluster([&] {
          cluster::GigeMeshConfig cfg;
          cfg.shape = shape;
          return cfg;
        }()) {
    for (topo::Rank r = 0; r < cluster.size(); ++r) {
      eps.push_back(
          std::make_unique<mp::Endpoint>(cluster.agent(r), mp_params));
    }
  }
};

}  // namespace

double mpiqmp_rtt2_us(std::int64_t size, int rounds,
                      mp::CoreParams mp_params) {
  EndpointWorld w(topo::Coord{4}, mp_params);
  sim::Time t0 = 0;
  sim::Time t1 = 0;
  auto pong = [](mp::Endpoint& ep, int n) -> Task<> {
    for (int i = 0; i < n; ++i) {
      auto m = co_await ep.recv(0, 1);
      co_await ep.send(0, 1, std::move(m.data));
    }
  };
  auto ping = [](mp::Endpoint& ep, sim::Engine& eng, std::int64_t sz, int n,
                 sim::Time& start, sim::Time& end) -> Task<> {
    start = eng.now();
    for (int i = 0; i < n; ++i) {
      co_await ep.send(1, 1, payload(static_cast<std::size_t>(sz)));
      (void)co_await ep.recv(1, 1);
    }
    end = eng.now();
  };
  pong(*w.eps[1], rounds).detach();
  ping(*w.eps[0], w.cluster.engine(), size, rounds, t0, t1).detach();
  w.cluster.run();
  return sim::to_us(t1 - t0) / 2.0 / rounds;
}

double mpiqmp_stream_bw(std::int64_t size, int count,
                        mp::CoreParams mp_params) {
  EndpointWorld w(topo::Coord{4}, mp_params);
  sim::Time t0 = 0;
  sim::Time t1 = 0;
  auto stream = [](mp::Endpoint& ep, std::int64_t sz, int n) -> Task<> {
    for (int i = 0; i < n; ++i) {
      co_await ep.send(1, 1, payload(static_cast<std::size_t>(sz)));
    }
  };
  auto drain = [](mp::Endpoint& ep, sim::Engine& eng, int n,
                  sim::Time& start, sim::Time& end) -> Task<> {
    start = eng.now();
    for (int i = 0; i < n; ++i) (void)co_await ep.recv(0, 1);
    end = eng.now();
  };
  drain(*w.eps[1], w.cluster.engine(), count, t0, t1).detach();
  stream(*w.eps[0], size, count).detach();
  w.cluster.run();
  return sim::rate_mb_per_s(size * count, t1 - t0);
}

double mpiqmp_routed_rtt2_us(int hops, std::int64_t size, int rounds) {
  EndpointWorld w(topo::Coord{16});  // ring: ranks 0..15, distance = rank
  const int peer = hops;
  sim::Time t0 = 0;
  sim::Time t1 = 0;
  auto pong = [](mp::Endpoint& ep, int n) -> Task<> {
    for (int i = 0; i < n; ++i) {
      auto m = co_await ep.recv(0, 1);
      co_await ep.send(0, 1, std::move(m.data));
    }
  };
  auto ping = [](mp::Endpoint& ep, sim::Engine& eng, int peer_,
                 std::int64_t sz, int n, sim::Time& start,
                 sim::Time& end) -> Task<> {
    start = eng.now();
    for (int i = 0; i < n; ++i) {
      co_await ep.send(peer_, 1, payload(static_cast<std::size_t>(sz)));
      (void)co_await ep.recv(peer_, 1);
    }
    end = eng.now();
  };
  pong(*w.eps[static_cast<std::size_t>(peer)], rounds).detach();
  ping(*w.eps[0], w.cluster.engine(), peer, size, rounds, t0, t1).detach();
  w.cluster.run();
  return sim::to_us(t1 - t0) / 2.0 / rounds;
}

double mpiqmp_aggregate_bw(int ndims, std::int64_t size, int count_per_link) {
  EndpointWorld w(aggregate_shape(ndims));
  const topo::Torus& t = w.cluster.torus();
  const topo::Rank center = t.rank(ndims == 2 ? topo::Coord{1, 1}
                                              : topo::Coord{1, 1, 1});
  const auto dirs = t.directions(t.coord(center));
  const int nlinks = static_cast<int>(dirs.size());

  std::vector<sim::Time> ends(static_cast<std::size_t>(2 * nlinks), 0);
  auto stream = [](mp::Endpoint& ep, int dst, std::int64_t sz,
                   int n) -> Task<> {
    for (int i = 0; i < n; ++i) {
      co_await ep.send(dst, 1, payload(static_cast<std::size_t>(sz)));
    }
  };
  auto drain = [](mp::Endpoint& ep, sim::Engine& eng, int src, int n,
                  sim::Time& end) -> Task<> {
    for (int i = 0; i < n; ++i) (void)co_await ep.recv(src, 1);
    end = eng.now();
  };
  const sim::Time t0 = w.cluster.engine().now();
  for (int i = 0; i < nlinks; ++i) {
    const auto nb = *t.neighbor(center, dirs[static_cast<std::size_t>(i)]);
    stream(*w.eps[static_cast<std::size_t>(center)], nb, size,
           count_per_link)
        .detach();
    drain(*w.eps[static_cast<std::size_t>(center)], w.cluster.engine(), nb,
          count_per_link, ends[static_cast<std::size_t>(nlinks + i)])
        .detach();
    stream(*w.eps[static_cast<std::size_t>(nb)], center, size,
           count_per_link)
        .detach();
    drain(*w.eps[static_cast<std::size_t>(nb)], w.cluster.engine(), center,
          count_per_link, ends[static_cast<std::size_t>(i)])
        .detach();
  }
  w.cluster.run();
  const sim::Time t_end = *std::max_element(ends.begin(), ends.end());
  return sim::rate_mb_per_s(static_cast<std::int64_t>(nlinks) * size *
                                count_per_link,
                            t_end - t0);
}

}  // namespace benchutil
