#include "net/link.hpp"

#include <cassert>
#include <utility>

namespace meshmp::net {

SimplexPipe::SimplexPipe(sim::Engine& eng, LinkParams params)
    : eng_(eng), params_(params), q_(eng) {
  pump().detach();
}

void SimplexPipe::send(Frame f) { q_.push(std::move(f)); }

sim::Task<> SimplexPipe::pump() {
  for (;;) {
    Frame f = co_await q_.pop();
    co_await sim::delay(eng_, params_.wire_time(f.wire_bytes));
    assert(sink_ && "SimplexPipe: no sink attached");
    eng_.schedule(
        params_.propagation,
        [this, f = std::move(f)]() mutable { sink_(std::move(f)); }, "wire");
  }
}

}  // namespace meshmp::net
