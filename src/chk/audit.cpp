#include "chk/audit.hpp"

#include <cstdio>
#include <cstdlib>

namespace meshmp::chk {

Audit& Audit::instance() {
  static Audit audit;
  return audit;
}

void Audit::Registration::release() noexcept {
  if (id_ != 0) {
    Audit::instance().unwatch(id_);
    id_ = 0;
  }
}

void Audit::unwatch(std::uint64_t id) noexcept {
  entries_.erase(id);
}

Audit::Registration Audit::watch(std::string label, Validator validator) {
  const std::uint64_t id = next_id_++;
  entries_.emplace(id, Entry{std::move(label), std::move(validator)});
  return Registration{id};
}

std::size_t Audit::quiesce() {
  // Snapshot the ids, then look each one up again before calling it: object
  // teardown inside a validator or handler may unregister entries mid-sweep.
  const std::size_t before = violations_.size();
  std::vector<std::uint64_t> ids;
  ids.reserve(entries_.size());
  for (const auto& [id, entry] : entries_) ids.push_back(id);
  for (std::uint64_t id : ids) {
    auto it = entries_.find(id);
    if (it == entries_.end()) continue;  // unregistered mid-sweep
    Validator v = it->second.validator;
    v();
  }
  return violations_.size() - before;
}

void Audit::fail(std::string label, std::string message) {
  Violation v{std::move(label), std::move(message)};
  violations_.push_back(v);
  // A copy: the handler may swap itself out while it runs.
  Handler h = handler_;
  if (h) {
    h(v);
    return;
  }
  std::fprintf(stderr, "meshmp audit violation [%s]: %s\n", v.label.c_str(),
               v.message.c_str());
  std::abort();
}

Audit::Handler Audit::exchange_handler(Handler h) {
  Handler old = std::move(handler_);
  handler_ = std::move(h);
  return old;
}

ScopedCapture::ScopedCapture() {
  Audit::instance().clear_violations();
  previous_ =
      Audit::instance().exchange_handler([](const Violation&) { /* record */ });
}

ScopedCapture::~ScopedCapture() {
  (void)Audit::instance().exchange_handler(std::move(previous_));
  Audit::instance().clear_violations();
}

bool ScopedCapture::caught(std::string_view label_prefix) const {
  for (const Violation& v : violations()) {
    if (std::string_view(v.label).substr(0, label_prefix.size()) ==
        label_prefix) {
      return true;
    }
  }
  return false;
}

}  // namespace meshmp::chk
