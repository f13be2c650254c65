#include "obs/trace.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string_view>

#include "sim/engine.hpp"

namespace meshmp::obs {

const char* to_string(Cat cat) noexcept {
  switch (cat) {
    case Cat::kSim:
      return "sim";
    case Cat::kNic:
      return "nic";
    case Cat::kVia:
      return "via";
    case Cat::kMp:
      return "mp";
    case Cat::kColl:
      return "coll";
    case Cat::kTcp:
      return "tcp";
    case Cat::kApp:
      return "app";
  }
  return "?";
}

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

void Tracer::enable(std::size_t capacity) {
  clear();
  capacity_ = std::max<std::size_t>(capacity, 1);
  ring_.reserve(std::min<std::size_t>(capacity_, 1u << 16));
  enabled_ = true;
}

void Tracer::clear() {
  // Track interning survives clear(): components cache track ids, and a
  // stale id pointing at a recycled slot would mislabel every later span.
  ring_.clear();
  head_ = 0;
  wrapped_ = false;
  dropped_ = 0;
}

std::int32_t Tracer::track(std::int32_t node, std::string name) {
  for (std::size_t i = 0; i < tracks_.size(); ++i) {
    if (tracks_[i].node == node && tracks_[i].name == name) {
      return static_cast<std::int32_t>(i);
    }
  }
  tracks_.push_back(Track{node, std::move(name)});
  return static_cast<std::int32_t>(tracks_.size() - 1);
}

void Tracer::push(const TraceEvent& ev) {
  if (ring_.size() < capacity_) {
    ring_.push_back(ev);
    return;
  }
  ring_[head_] = ev;
  head_ = (head_ + 1) % capacity_;
  wrapped_ = true;
  ++dropped_;
}

void Tracer::complete(sim::Time ts, sim::Duration dur, Cat cat,
                      std::int32_t node, std::int32_t track, const char* name,
                      const char* arg_name, double arg) {
  if (!wants(cat)) return;
  TraceEvent ev;
  ev.ts = ts;
  ev.dur = dur;
  ev.name = name;
  ev.arg_name = arg_name;
  ev.arg = arg;
  ev.node = node;
  ev.track = track;
  ev.cat = cat;
  ev.phase = TraceEvent::Phase::kComplete;
  push(ev);
}

void Tracer::instant(sim::Time ts, Cat cat, std::int32_t node,
                     const char* name, const char* arg_name, double arg) {
  if (!wants(cat)) return;
  TraceEvent ev;
  ev.ts = ts;
  ev.name = name;
  ev.arg_name = arg_name;
  ev.arg = arg;
  ev.node = node;
  ev.track = -1;
  ev.cat = cat;
  ev.phase = TraceEvent::Phase::kInstant;
  push(ev);
}

void Tracer::async_begin(sim::Time ts, Cat cat, std::int32_t node,
                         const char* name, std::uint64_t id,
                         const char* arg_name, double arg) {
  if (!wants(cat)) return;
  TraceEvent ev;
  ev.ts = ts;
  ev.name = name;
  ev.arg_name = arg_name;
  ev.arg = arg;
  ev.id = id;
  ev.node = node;
  ev.track = -1;
  ev.cat = cat;
  ev.phase = TraceEvent::Phase::kAsyncBegin;
  push(ev);
}

void Tracer::async_end(sim::Time ts, Cat cat, std::int32_t node,
                       const char* name, std::uint64_t id) {
  if (!wants(cat)) return;
  TraceEvent ev;
  ev.ts = ts;
  ev.name = name;
  ev.id = id;
  ev.node = node;
  ev.track = -1;
  ev.cat = cat;
  ev.phase = TraceEvent::Phase::kAsyncEnd;
  push(ev);
}

void Tracer::counter(sim::Time ts, Cat cat, std::int32_t node,
                     const char* name, double value) {
  if (!wants(cat)) return;
  TraceEvent ev;
  ev.ts = ts;
  ev.name = name;
  ev.arg_name = "value";
  ev.arg = value;
  ev.node = node;
  ev.track = -1;
  ev.cat = cat;
  ev.phase = TraceEvent::Phase::kCounter;
  push(ev);
}

std::vector<TraceEvent> Tracer::events() const {
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  if (wrapped_) {
    out.insert(out.end(), ring_.begin() + static_cast<std::ptrdiff_t>(head_),
               ring_.end());
    out.insert(out.end(), ring_.begin(),
               ring_.begin() + static_cast<std::ptrdiff_t>(head_));
  } else {
    out = ring_;
  }
  return out;
}

namespace {

/// Escapes a string for a JSON value. Names are string literals from our own
/// code, so this only needs to handle quotes/backslashes defensively.
std::string json_escape(const char* s) {
  std::string out;
  for (; *s != '\0'; ++s) {
    if (*s == '"' || *s == '\\') out += '\\';
    out += *s;
  }
  return out;
}

/// Emits the common fields of one trace_event. `ph` is the phase letter.
void append_event_json(std::string& out, const TraceEvent& ev, char ph) {
  char buf[256];
  // Perfetto wants microseconds; keep nanosecond precision as fractions.
  const double ts_us = static_cast<double>(ev.ts) / 1000.0;
  std::snprintf(buf, sizeof(buf),
                "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"%c\", "
                "\"ts\": %.3f, \"pid\": %d, \"tid\": %d",
                json_escape(ev.name).c_str(), to_string(ev.cat), ph, ts_us,
                ev.node, ev.track >= 0 ? ev.track : 0);
  out += buf;
  if (ph == 'X') {
    std::snprintf(buf, sizeof(buf), ", \"dur\": %.3f",
                  static_cast<double>(ev.dur) / 1000.0);
    out += buf;
  }
  if (ph == 'b' || ph == 'e') {
    std::snprintf(buf, sizeof(buf), ", \"id\": \"%" PRIx64 "\", \"scope\": \"%s\"",
                  ev.id, to_string(ev.cat));
    out += buf;
  }
  if (ph == 'i') out += ", \"s\": \"t\"";
  if (ev.arg_name != nullptr) {
    std::snprintf(buf, sizeof(buf), ", \"args\": {\"%s\": %.6g}",
                  json_escape(ev.arg_name).c_str(), ev.arg);
    out += buf;
  } else if (ph == 'b' || ph == 'e') {
    // Async events require an args object in some consumers.
    out += ", \"args\": {}";
  }
  out += '}';
}

}  // namespace

std::string Tracer::to_json() const {
  std::vector<TraceEvent> evs = events();
  std::stable_sort(evs.begin(), evs.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.ts < b.ts;
                   });

  std::string out = "{\"traceEvents\": [\n";
  bool first = true;
  char buf[256];

  // Metadata: name processes after nodes and threads after interned tracks.
  std::vector<std::int32_t> pids;
  for (const TraceEvent& ev : evs) pids.push_back(ev.node);
  for (const Track& t : tracks_) pids.push_back(t.node);
  std::sort(pids.begin(), pids.end());
  pids.erase(std::unique(pids.begin(), pids.end()), pids.end());
  for (std::int32_t pid : pids) {
    if (!first) out += ",\n";
    first = false;
    if (pid == kEnginePid) {
      std::snprintf(buf, sizeof(buf),
                    "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": %d, "
                    "\"args\": {\"name\": \"engine\"}}",
                    pid);
    } else {
      std::snprintf(buf, sizeof(buf),
                    "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": %d, "
                    "\"args\": {\"name\": \"node%d\"}}",
                    pid, pid);
    }
    out += buf;
  }
  for (std::size_t i = 0; i < tracks_.size(); ++i) {
    if (!first) out += ",\n";
    first = false;
    std::snprintf(buf, sizeof(buf),
                  "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": %d, "
                  "\"tid\": %zu, \"args\": {\"name\": \"%s\"}}",
                  tracks_[i].node, i, json_escape(tracks_[i].name.c_str()).c_str());
    out += buf;
  }

  for (const TraceEvent& ev : evs) {
    if (!first) out += ",\n";
    first = false;
    char ph = 'i';
    switch (ev.phase) {
      case TraceEvent::Phase::kComplete:
        ph = 'X';
        break;
      case TraceEvent::Phase::kInstant:
        ph = 'i';
        break;
      case TraceEvent::Phase::kAsyncBegin:
        ph = 'b';
        break;
      case TraceEvent::Phase::kAsyncEnd:
        ph = 'e';
        break;
      case TraceEvent::Phase::kCounter:
        ph = 'C';
        break;
    }
    append_event_json(out, ev, ph);
  }
  out += "\n], \"displayTimeUnit\": \"ns\"}\n";
  return out;
}

bool Tracer::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "obs: cannot open trace output '%s'\n", path.c_str());
    return false;
  }
  const std::string json = to_json();
  const std::size_t wrote = std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  if (wrote != json.size()) {
    std::fprintf(stderr, "obs: short write to trace output '%s'\n",
                 path.c_str());
    return false;
  }
  return true;
}

double span_coverage(const std::vector<TraceEvent>& events, std::int32_t node,
                     sim::Time t0, sim::Time t1) {
  if (t1 <= t0) return 0.0;
  std::vector<std::pair<sim::Time, sim::Time>> spans;
  for (const TraceEvent& ev : events) {
    if (ev.phase != TraceEvent::Phase::kComplete || ev.node != node) continue;
    const sim::Time lo = std::max(ev.ts, t0);
    const sim::Time hi = std::min(ev.ts + ev.dur, t1);
    if (hi > lo) spans.emplace_back(lo, hi);
  }
  std::sort(spans.begin(), spans.end());
  sim::Duration covered = 0;
  sim::Time cursor = t0;
  for (const auto& [lo, hi] : spans) {
    const sim::Time begin = std::max(lo, cursor);
    if (hi > begin) {
      covered += hi - begin;
      cursor = hi;
    }
  }
  return static_cast<double>(covered) / static_cast<double>(t1 - t0);
}

namespace {
std::string g_env_trace_path;  // captured by trace_init_from_env()
}

bool trace_init_from_env() {
  // Called once from main()/BenchReport before any cluster exists, so the
  // mt-unsafe getenv cannot race a setenv.
  const char* path = std::getenv("MESHMP_TRACE");  // NOLINT(concurrency-mt-unsafe)
  if (path == nullptr || *path == '\0') return false;
  Tracer& tr = Tracer::instance();
  tr.enable();
  if (const char* cats = std::getenv("MESHMP_TRACE_CATS");  // NOLINT(concurrency-mt-unsafe)
      cats != nullptr && *cats != '\0') {
    std::uint32_t mask = 0;
    const char* p = cats;
    while (*p != '\0') {
      const char* end = std::strchr(p, ',');
      const std::size_t len =
          end != nullptr ? static_cast<std::size_t>(end - p) : std::strlen(p);
      const std::string_view tok(p, len);
      for (int c = 0; c <= static_cast<int>(Cat::kApp); ++c) {
        if (tok == to_string(static_cast<Cat>(c))) {
          mask |= cat_bit(static_cast<Cat>(c));
        }
      }
      if (tok == "all") mask = 0xffffffffu;
      p = end != nullptr ? end + 1 : p + len;
    }
    if (mask != 0) tr.set_categories(mask);
  }
  g_env_trace_path = path;
  return true;
}

void trace_flush_env() {
  if (g_env_trace_path.empty()) return;
  Tracer& tr = Tracer::instance();
  if (tr.write_json(g_env_trace_path)) {
    std::fprintf(stderr, "obs: wrote trace to %s (%zu events, %" PRIu64
                         " dropped)\n",
                 g_env_trace_path.c_str(), tr.events().size(), tr.dropped());
  }
  g_env_trace_path.clear();
  tr.disable();
}

void SpanHandle::start(sim::Engine& eng) {
  eng_ = &eng;
  t0_ = eng.now();
}

void SpanHandle::finish() {
  if (!Tracer::wants(cat_)) return;
  const sim::Time t1 = eng_->now();
  Tracer::instance().complete(t0_, t1 - t0_, cat_, node_, track_, name_,
                              arg_name_, arg_);
}

void AsyncScope::begin(sim::Engine& eng) {
  eng_ = &eng;
  Tracer::instance().async_begin(eng.now(), cat_, node_, name_, id_);
}

void AsyncScope::end() {
  if (!Tracer::wants(cat_)) return;
  Tracer::instance().async_end(eng_->now(), cat_, node_, name_, id_);
}

}  // namespace meshmp::obs
