#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>

namespace pao::obs {

namespace {

std::int64_t monotonicNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Per-thread stack of open span names; referenced by currentSpanName() so
// parallelFor can label worker spans after the submitting phase.
thread_local std::vector<std::string> gSpanStack;

}  // namespace

struct Tracer::ThreadBuffer {
  explicit ThreadBuffer(int tid, std::size_t cap) : tid(tid) {
    ring.reserve(cap < 1024 ? cap : 1024);
    capacity = cap;
  }
  int tid;
  std::size_t capacity;
  std::size_t head = 0;  // next write position once the ring is full
  std::uint64_t recorded = 0;
  std::vector<TraceEvent> ring;
  std::mutex mu;  // record() vs collect(); uncontended in steady state
};

Tracer& Tracer::instance() {
  static Tracer* const kInstance = new Tracer();  // leaked on purpose
  return *kInstance;
}

void Tracer::enable(std::size_t ringCap) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& buf : buffers_) {
    std::lock_guard<std::mutex> bufLock(buf->mu);
    buf->ring.clear();
    buf->head = 0;
    buf->recorded = 0;
    buf->capacity = ringCap;
  }
  ringCap_ = ringCap;
  epochNs_ = monotonicNs();
  enabled_.store(true, std::memory_order_release);
}

void Tracer::disable() { enabled_.store(false, std::memory_order_release); }

std::int64_t Tracer::nowUs() const {
  if (!enabled()) return 0;
  return (monotonicNs() - epochNs_) / 1000;
}

Tracer::ThreadBuffer& Tracer::localBuffer() {
  thread_local ThreadBuffer* cached = nullptr;
  thread_local const Tracer* cachedOwner = nullptr;
  if (cached != nullptr && cachedOwner == this) return *cached;
  std::lock_guard<std::mutex> lock(mu_);
  const int tid = nextTid_.fetch_add(1, std::memory_order_relaxed);
  buffers_.push_back(std::make_unique<ThreadBuffer>(tid, ringCap_));
  cached = buffers_.back().get();
  cachedOwner = this;
  return *cached;
}

void Tracer::record(std::string name, Json args, std::int64_t tsUs,
                    std::int64_t durUs) {
  TraceEvent ev{std::move(name), std::move(args), tsUs, durUs, 0};
  ev.tid = localBuffer().tid;
  recordEvent(std::move(ev));
}

void Tracer::recordEvent(TraceEvent ev) {
  ThreadBuffer& buf = localBuffer();
  std::lock_guard<std::mutex> lock(buf.mu);
  ++buf.recorded;
  if (buf.ring.size() < buf.capacity) {
    buf.ring.push_back(std::move(ev));
  } else {
    buf.ring[buf.head] = std::move(ev);
    buf.head = (buf.head + 1) % buf.capacity;
  }
}

std::string Tracer::currentSpanName() {
  return gSpanStack.empty() ? std::string() : gSpanStack.back();
}

void Tracer::pushSpanName(const std::string& name) {
  gSpanStack.push_back(name);
}

void Tracer::popSpanName() {
  if (!gSpanStack.empty()) gSpanStack.pop_back();
}

std::vector<TraceEvent> Tracer::collect() const {
  std::vector<TraceEvent> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& buf : buffers_) {
      std::lock_guard<std::mutex> bufLock(buf->mu);
      out.insert(out.end(), buf->ring.begin(), buf->ring.end());
    }
  }
  std::sort(out.begin(), out.end(), [](const TraceEvent& a,
                                       const TraceEvent& b) {
    if (a.tsUs != b.tsUs) return a.tsUs < b.tsUs;
    if (a.tid != b.tid) return a.tid < b.tid;
    return a.name < b.name;
  });
  return out;
}

std::uint64_t Tracer::eventCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t n = 0;
  for (const auto& buf : buffers_) {
    std::lock_guard<std::mutex> bufLock(buf->mu);
    n += buf->ring.size();
  }
  return n;
}

std::uint64_t Tracer::droppedEvents() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t dropped = 0;
  for (const auto& buf : buffers_) {
    std::lock_guard<std::mutex> bufLock(buf->mu);
    dropped += buf->recorded - buf->ring.size();
  }
  return dropped;
}

std::string Tracer::exportChromeTrace() const {
  Json doc = Json::object();
  Json events = Json::array();
  for (TraceEvent& ev : collect()) {
    Json e = Json::object();
    e.set("name", Json(std::move(ev.name)));
    e.set("cat", Json("pao"));
    e.set("ph", Json(std::string(1, ev.ph)));
    e.set("ts", Json(ev.tsUs));
    if (ev.ph == 'X') e.set("dur", Json(ev.durUs));
    e.set("pid", Json(ev.pid));
    e.set("tid", Json(ev.tid));
    if (ev.ph == 's' || ev.ph == 'f') {
      e.set("id", Json(ev.flowId));
      // Bind the 'f' to the enclosing slice so the arrow lands at the
      // consuming node's start rather than its end.
      if (ev.ph == 'f') e.set("bp", Json("e"));
    }
    if (!ev.args.isNull()) e.set("args", std::move(ev.args));
    events.push(std::move(e));
  }
  doc.set("traceEvents", std::move(events));
  doc.set("displayTimeUnit", Json("ms"));
  doc.set("otherData", counts());
  return doc.dump(1);
}

Json Tracer::counts() const {
  Json out = Json::object();
  out.set("eventCount", Json(eventCount()));
  out.set("droppedEvents", Json(droppedEvents()));
  return out;
}

void TraceScope::beginStr(std::string name, Json args) {
  active_ = true;
  name_ = std::move(name);
  args_ = std::move(args);
  Tracer::pushSpanName(name_);
  tsUs_ = Tracer::instance().nowUs();
}

void TraceScope::end() {
  Tracer& tracer = Tracer::instance();
  const std::int64_t endUs = tracer.nowUs();
  Tracer::popSpanName();
  // Record even if the tracer was disabled mid-span, so push/pop stay
  // balanced and the span is not silently lost when export follows disable().
  tracer.record(std::move(name_), std::move(args_), tsUs_,
                endUs > tsUs_ ? endUs - tsUs_ : 0);
}

}  // namespace pao::obs
