#include "obs/trace.hpp"

#include <chrono>
#include <memory>
#include <mutex>

#include "util/assert.hpp"

namespace refbmc::obs {

const char* to_string(EventKind kind) {
  switch (kind) {
    case EventKind::SpanDepth: return "depth";
    case EventKind::SpanEncode: return "encode";
    case EventKind::SpanSimplify: return "simplify";
    case EventKind::SpanSolve: return "solve";
    case EventKind::TapeEncode: return "tape_encode";
    case EventKind::Restart: return "restart";
    case EventKind::ReduceDb: return "reduce_db";
    case EventKind::ImportBatch: return "import_batch";
    case EventKind::ExportBatch: return "export_batch";
    case EventKind::DynamicFallback: return "dynamic_fallback";
    case EventKind::JobSubmit: return "job_submit";
    case EventKind::JobStart: return "job_start";
    case EventKind::JobVerdict: return "job_verdict";
    case EventKind::CancelRequest: return "cancel_request";
    case EventKind::JobStop: return "job_stop";
    case EventKind::PoolPublish: return "pool_publish";
    case EventKind::PoolClose: return "pool_close";
    case EventKind::SpanPreprocess: return "preprocess";
  }
  return "?";
}

const char* category(EventKind kind) {
  switch (kind) {
    case EventKind::SpanDepth:
    case EventKind::SpanEncode:
    case EventKind::SpanSimplify:
    case EventKind::SpanSolve:
    case EventKind::TapeEncode:
    case EventKind::SpanPreprocess:
      return "bmc";
    case EventKind::Restart:
    case EventKind::ReduceDb:
    case EventKind::ImportBatch:
    case EventKind::ExportBatch:
    case EventKind::DynamicFallback:
      return "sat";
    case EventKind::JobSubmit:
    case EventKind::JobStart:
    case EventKind::JobVerdict:
    case EventKind::CancelRequest:
    case EventKind::JobStop:
    case EventKind::PoolPublish:
    case EventKind::PoolClose:
      return "race";
  }
  return "?";
}

bool is_span(EventKind kind) {
  switch (kind) {
    case EventKind::SpanDepth:
    case EventKind::SpanEncode:
    case EventKind::SpanSimplify:
    case EventKind::SpanSolve:
    case EventKind::TapeEncode:
    case EventKind::ImportBatch:
    case EventKind::SpanPreprocess:
      return true;
    default:
      return false;
  }
}

TraceBuffer::TraceBuffer(std::size_t capacity)
    : capacity_(capacity), slots_(capacity) {
  REFBMC_EXPECTS_MSG(capacity >= 1, "trace buffer needs at least one slot");
}

std::vector<TraceEvent> TraceBuffer::snapshot() const {
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  const std::uint64_t n = head < capacity_ ? head : capacity_;
  std::vector<TraceEvent> out;
  out.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = head - n; i < head; ++i)
    out.push_back(slots_[static_cast<std::size_t>(i % capacity_)]);
  return out;
}

std::uint64_t TraceDump::total_events() const {
  std::uint64_t n = 0;
  for (const auto& t : tracks) n += t.events.size();
  return n;
}

std::uint64_t TraceDump::total_dropped() const {
  std::uint64_t n = 0;
  for (const auto& t : tracks) n += t.dropped;
  return n;
}

std::uint64_t monotonic_now_us() {
  static const std::chrono::steady_clock::time_point anchor =
      std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - anchor)
          .count());
}

namespace detail {
#if REFBMC_TRACE
std::atomic<bool> g_trace_on{false};
#endif
}  // namespace detail

namespace {

struct ThreadTrack {
  std::string name;
  std::unique_ptr<TraceBuffer> buf;
};

/// The session registry.  `generation` invalidates the thread-local
/// track caches when a new session starts, so a thread that outlives one
/// session re-registers into the next instead of writing into a ring the
/// collector already handed out.
struct Session {
  std::mutex mu;
  std::vector<std::unique_ptr<ThreadTrack>> tracks;
  std::uint64_t generation = 0;
  std::size_t buffer_events = TraceConfig{}.buffer_events;
  std::uint64_t unnamed = 0;
};

Session& session() {
  static Session s;
  return s;
}

struct TrackCache {
  std::uint64_t generation = 0;  // 0 = never registered
  ThreadTrack* track = nullptr;
};
thread_local TrackCache t_cache;

/// The calling thread's track, registering a fresh ring on first use in
/// the current session.
ThreadTrack& my_track() {
  Session& s = session();
  {
    // The generation is published under the mutex and cached per thread;
    // a stale cache only survives until the next record call.
    const std::lock_guard<std::mutex> lock(s.mu);
    if (t_cache.track != nullptr && t_cache.generation == s.generation)
      return *t_cache.track;
    auto track = std::make_unique<ThreadTrack>();
    track->name = "thread-" + std::to_string(s.unnamed++);
    track->buf = std::make_unique<TraceBuffer>(s.buffer_events);
    s.tracks.push_back(std::move(track));
    t_cache.generation = s.generation;
    t_cache.track = s.tracks.back().get();
    return *t_cache.track;
  }
}

/// Lock-free fast path: the per-thread cache is valid iff its generation
/// matches.  Reading s.generation unlocked is fine — it only changes in
/// trace_begin/trace_end, which the contract puts at quiescent points.
ThreadTrack* my_track_fast() {
  if (t_cache.track != nullptr &&
      t_cache.generation == session().generation)
    return t_cache.track;
  return &my_track();
}

TraceDump collect_locked(Session& s) {
  TraceDump dump;
  for (const auto& t : s.tracks) {
    TrackDump td;
    td.name = t->name;
    td.dropped = t->buf->dropped();
    td.events = t->buf->snapshot();
    dump.tracks.push_back(std::move(td));
  }
  return dump;
}

}  // namespace

bool trace_begin(const TraceConfig& cfg) {
#if REFBMC_TRACE
  Session& s = session();
  const std::lock_guard<std::mutex> lock(s.mu);
  if (detail::g_trace_on.load(std::memory_order_relaxed)) return false;
  s.tracks.clear();
  ++s.generation;
  s.buffer_events = cfg.buffer_events < 1 ? 1 : cfg.buffer_events;
  s.unnamed = 0;
  detail::g_trace_on.store(true, std::memory_order_release);
  return true;
#else
  (void)cfg;
  return false;
#endif
}

TraceDump trace_end() {
#if REFBMC_TRACE
  Session& s = session();
  detail::g_trace_on.store(false, std::memory_order_release);
  const std::lock_guard<std::mutex> lock(s.mu);
  TraceDump dump = collect_locked(s);
  s.tracks.clear();
  ++s.generation;  // invalidate caches of threads that outlive the session
  return dump;
#else
  return {};
#endif
}

TraceDump trace_dump() {
  Session& s = session();
  const std::lock_guard<std::mutex> lock(s.mu);
  return collect_locked(s);
}

void trace_set_thread_track(const std::string& name) {
  if (!trace_active()) return;
  my_track_fast()->name = name;
}

void trace_record(EventKind kind, int depth, std::int64_t value) {
  if (!trace_active()) return;
  TraceEvent e;
  e.ts_us = monotonic_now_us();
  e.kind = kind;
  e.depth = static_cast<std::int16_t>(depth);
  e.value = value;
  my_track_fast()->buf->record(e);
}

void trace_record_span(EventKind kind, std::uint64_t ts_us,
                       std::uint64_t dur_us, int depth, std::int64_t value) {
  if (!trace_active()) return;
  TraceEvent e;
  e.ts_us = ts_us;
  e.dur_us = dur_us > 0xffffffffull
                 ? 0xffffffffu
                 : static_cast<std::uint32_t>(dur_us);
  e.kind = kind;
  e.depth = static_cast<std::int16_t>(depth);
  e.value = value;
  my_track_fast()->buf->record(e);
}

}  // namespace refbmc::obs
