#include "cluster/myrinet.hpp"

#include <any>
#include <cstring>
#include <cassert>
#include <stdexcept>
#include <utility>

#include "buf/pool.hpp"

namespace meshmp::cluster {

using sim::Task;

namespace {

struct GmHeader {
  int tag = 0;
  std::uint32_t msg_id = 0;
  std::uint32_t frag = 0;
  std::uint32_t nfrags = 1;
  std::uint64_t msg_bytes = 0;

  // Carried per-frame inside Frame::meta — use the pooled meta freelist.
  MESHMP_POOLED_META()
};

static_assert(sizeof(GmHeader) <= net::kMetaBlockBytes);

bool is_pow2(int n) { return n > 0 && (n & (n - 1)) == 0; }

}  // namespace

MyrinetCluster::MyrinetCluster(MyrinetConfig cfg) : cfg_(cfg) {
  // Every node's host flops come from the Myrinet cluster's (slower) CPUs.
  cfg_.host.flops_per_sec = cfg_.gm.flops_per_sec;
  xbar_ = std::make_unique<net::Crossbar>(eng_, cfg_.nodes, cfg_.link,
                                          cfg_.gm.switch_latency);
  for (int r = 0; r < cfg_.nodes; ++r) {
    cpus_.push_back(std::make_unique<hw::Cpu>(eng_, cfg_.host));
    ingress_.push_back(std::make_unique<net::SimplexPipe>(eng_, cfg_.link));
    ingress_.back()->set_sink(
        [this](net::Frame f) { xbar_->ingress(std::move(f)); });
    ports_.push_back(std::make_unique<GmPort>(*this, r, *cpus_.back(),
                                              *ingress_.back()));
    xbar_->set_egress_sink(r, [port = ports_.back().get()](net::Frame f) {
      port->deliver(std::move(f));
    });
  }
}

GmPort::GmPort(MyrinetCluster& cluster, int rank, hw::Cpu& cpu,
               net::SimplexPipe& to_switch)
    : cluster_(cluster),
      rank_(rank),
      cpu_(cpu),
      to_switch_(to_switch),
      partial_(static_cast<std::size_t>(cluster.size())) {}

Task<> GmPort::send(int dst, int tag, std::vector<std::byte> data) {
  if (dst < 0 || dst >= cluster_.size()) {
    throw std::invalid_argument("GmPort::send: bad destination");
  }
  const auto& gm = cluster_.config().gm;
  const auto total = static_cast<std::int64_t>(data.size());
  const auto nfrags = static_cast<std::uint32_t>(
      total == 0 ? 1 : (total + gm.mtu_payload - 1) / gm.mtu_payload);
  const std::uint32_t msg_id = next_msg_id_++;
  // Adopt once; fragments alias the message storage.
  const buf::Slice whole = buf::Pool::instance().adopt(std::move(data));
  for (std::uint32_t i = 0; i < nfrags; ++i) {
    const std::int64_t off = static_cast<std::int64_t>(i) * gm.mtu_payload;
    const std::int64_t len = std::min(gm.mtu_payload, total - off);
    // User-level post: descriptor write + doorbell, then LANai firmware.
    co_await cpu_.busy(gm.host_post, hw::Cpu::kUser);
    co_await sim::delay(cpu_.engine(), gm.nic_per_frame);
    net::Frame f;
    f.src = rank_;
    f.dst = dst;
    f.wire_bytes = std::max<std::int64_t>(len, 0) + 16;  // GM header
    if (len > 0) {
      f.payload = whole.subslice(static_cast<std::size_t>(off),
                                 static_cast<std::size_t>(len));
    }
    GmHeader h;
    h.tag = tag;
    h.msg_id = msg_id;
    h.frag = i;
    h.nfrags = nfrags;
    h.msg_bytes = static_cast<std::uint64_t>(total);
    f.meta = h;
    to_switch_.send(std::move(f));
  }
  counters_.inc("tx_messages");
}

void GmPort::deliver(net::Frame f) {
  const auto* h = std::any_cast<GmHeader>(&f.meta);
  assert(h != nullptr);
  Partial& p = partial_[static_cast<std::size_t>(f.src)];
  if (!p.active) {
    p.active = true;
    p.msg_id = h->msg_id;
    p.nfrags = h->nfrags;
    p.buf.assign(h->msg_bytes, std::byte{0});
    p.seen = 0;
  } else if (p.msg_id != h->msg_id) {
    // One in-flight message per (src,dst) pair is the supported pattern;
    // interleaved fragments would corrupt the reassembly, so fail loudly.
    throw std::logic_error("GmPort: interleaved messages from one source");
  }
  const auto off =
      static_cast<std::ptrdiff_t>(h->frag) *
      static_cast<std::ptrdiff_t>(cluster_.config().gm.mtu_payload);
  // meshmp-lint: host-copy(GM reassembly; the Myrinet reference model bills a
  // calibrated lump host_completion cost per message instead of per-byte
  // charge_copy, so charging here would double-count)
  std::copy(f.payload.begin(), f.payload.end(), p.buf.begin() + off);
  if (++p.seen < p.nfrags) return;
  GmMessage msg;
  msg.src = f.src;
  msg.tag = h->tag;
  msg.data = std::move(p.buf);
  p = Partial{};
  counters_.inc("rx_messages");
  complete(std::move(msg));
}

void GmPort::complete(GmMessage msg) {
  for (auto it = posted_.begin(); it != posted_.end(); ++it) {
    Posted& p = **it;
    if ((p.src < 0 || p.src == msg.src) && (p.tag < 0 || p.tag == msg.tag)) {
      auto sp = *it;
      posted_.erase(it);
      sp->msg = std::move(msg);
      sp->done = true;
      sp->ready->fire();
      return;
    }
  }
  unexpected_.push_back(std::move(msg));
}

Task<GmMessage> GmPort::recv(int src, int tag) {
  const auto& gm = cluster_.config().gm;
  for (auto it = unexpected_.begin(); it != unexpected_.end(); ++it) {
    if ((src < 0 || src == it->src) && (tag < 0 || tag == it->tag)) {
      GmMessage msg = std::move(*it);
      unexpected_.erase(it);
      co_await cpu_.busy(gm.host_completion, hw::Cpu::kUser);
      co_return msg;
    }
  }
  auto posted = std::make_shared<Posted>();
  posted->src = src;
  posted->tag = tag;
  posted->ready = std::make_unique<sim::Trigger>(cpu_.engine());
  posted_.push_back(posted);
  co_await posted->ready->wait();
  co_await cpu_.busy(gm.host_completion, hw::Cpu::kUser);
  co_return std::move(posted->msg);
}

Task<double> GmPort::allreduce_sum(double value) {
  const int n = cluster_.size();
  if (!is_pow2(n)) {
    throw std::invalid_argument("allreduce_sum needs a power-of-two cluster");
  }
  constexpr int kTag = 1 << 20;
  double acc = value;
  for (int mask = 1; mask < n; mask <<= 1) {
    const int partner = rank_ ^ mask;
    std::vector<std::byte> out(sizeof(double));
    // meshmp-lint: host-copy(8-byte scalar codec of the GM allreduce)
    std::memcpy(out.data(), &acc, sizeof(double));
    co_await send(partner, kTag + mask, std::move(out));
    GmMessage in = co_await recv(partner, kTag + mask);
    double other = 0;
    std::memcpy(&other, in.data.data(), sizeof(double));
    acc += other;
  }
  co_return acc;
}

}  // namespace meshmp::cluster
