#include "via/vi.hpp"

#include <string>
#include <utility>

#include "via/agent.hpp"

namespace meshmp::via {

const char* to_string(ViError e) noexcept {
  switch (e) {
    case ViError::kNone:
      return "none";
    case ViError::kUnreachable:
      return "unreachable";
    case ViError::kMinorityPartition:
      return "minority-partition";
  }
  return "?";
}

Vi::Vi(KernelAgent& agent, std::uint32_t id)
    : agent_(agent),
      id_(id),
      conn_done_(agent.node().cpu().engine()),
      completions_(agent.node().cpu().engine()),
      send_lock_(agent.node().cpu().engine(), 1,
                 "vi" + std::to_string(id) + ".sendlock"),
      audit_reg_(chk::Audit::instance().watch("via.vi",
                                              [this] { audit_quiesce(); })),
      metrics_reg_(obs::Registry::instance().attach("via.vi", &counters_)),
      msg_bytes_hist_(obs::Registry::instance().histogram("via.msg_bytes")) {}

void Vi::post_recv(std::int64_t max_bytes) {
  ++descs_posted_total_;
  recv_descs_.push_back(max_bytes);
  MESHMP_TRACE_ASYNC_BEGIN(
      agent_.node().cpu().engine(), obs::Cat::kVia, agent_.node_id(),
      "vi.desc", desc_trace_id(agent_.node_id(), id_, descs_posted_total_));
}

void Vi::audit_quiesce() const {
  const std::string who = "node " + std::to_string(agent_.node_id()) + " vi " +
                          std::to_string(id_) + ": ";
  if (descs_posted_total_ != descs_consumed_total_ + recv_descs_.size()) {
    chk::Audit::instance().fail(
        "via.vi",
        who + "recv descriptors not conserved: posted " +
            std::to_string(descs_posted_total_) + " != consumed " +
            std::to_string(descs_consumed_total_) + " + queued " +
            std::to_string(recv_descs_.size()));
  }
  if (rx_.active &&
      agent_.params().reliability == Reliability::kReliableDelivery) {
    chk::Audit::instance().fail(
        "via.vi", who + "reassembly incomplete at quiesce: msg " +
                      std::to_string(rx_.msg_id) + " has " +
                      std::to_string(rx_.frags_seen) + "/" +
                      std::to_string(rx_.nfrags) + " fragments");
  }
  if (!failed_ && !unacked_.empty()) {
    chk::Audit::instance().fail(
        "via.vi", who + std::to_string(unacked_.size()) +
                      " frame(s) unacknowledged at quiesce on a live VI");
  }
}

sim::Task<> Vi::send(std::vector<std::byte> data, std::uint64_t immediate) {
  co_await send(buf::Pool::instance().adopt(std::move(data)), immediate);
}

sim::Task<> Vi::send(buf::Slice data, std::uint64_t immediate) {
  msg_bytes_hist_.add(static_cast<std::int64_t>(data.size()));
  MESHMP_TRACE_TRACK(trk_, agent_.node_id(), "vi" + std::to_string(id_));
  MESHMP_TRACE_SCOPE_ARG(agent_.node().cpu().engine(), obs::Cat::kVia,
                         agent_.node_id(), trk_, "vi.send", "bytes",
                         data.size());
  auto& cpu = agent_.node().cpu();
  co_await cpu.busy(cpu.host().via_post, hw::Cpu::kUser);
  co_await agent_.transmit_message(*this, MsgKind::kData, std::move(data),
                                   immediate, nullptr, 0);
}

sim::Task<> Vi::rma_write(std::vector<std::byte> data, const MemToken& token,
                          std::uint64_t offset) {
  co_await rma_write(buf::Pool::instance().adopt(std::move(data)), token,
                     offset);
}

sim::Task<> Vi::rma_write(buf::Slice data, const MemToken& token,
                          std::uint64_t offset) {
  msg_bytes_hist_.add(static_cast<std::int64_t>(data.size()));
  MESHMP_TRACE_TRACK(trk_, agent_.node_id(), "vi" + std::to_string(id_));
  MESHMP_TRACE_SCOPE_ARG(agent_.node().cpu().engine(), obs::Cat::kVia,
                         agent_.node_id(), trk_, "vi.rma_write", "bytes",
                         data.size());
  auto& cpu = agent_.node().cpu();
  co_await cpu.busy(cpu.host().via_post, hw::Cpu::kUser);
  co_await agent_.transmit_message(*this, MsgKind::kRmaWrite, std::move(data),
                                   0, &token, offset);
}

sim::Task<RecvCompletion> Vi::recv_completion() {
  // The recv-wait span is the big one for trace coverage: it shows the
  // simulated time this endpoint spent *blocked*, which on a ping-pong node
  // is most of the run.
  MESHMP_TRACE_TRACK(trk_, agent_.node_id(), "vi" + std::to_string(id_));
  MESHMP_TRACE_SCOPE(agent_.node().cpu().engine(), obs::Cat::kVia,
                     agent_.node_id(), trk_, "vi.recv_wait");
  RecvCompletion c = co_await completions_.pop();
  auto& cpu = agent_.node().cpu();
  co_await cpu.busy(cpu.host().via_completion, hw::Cpu::kUser);
  co_return c;
}

}  // namespace meshmp::via
