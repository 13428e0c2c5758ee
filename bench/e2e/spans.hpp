// In-memory span log of a traced bench_e2e pass, written out as Chrome
// trace-event JSON (chrome://tracing, Perfetto) when the pass ends.
//
// Spans are recorded by the benchmark around its calls into each layer;
// nothing inside the engine is instrumented.  Every span carries, in its
// args: the check (or job) id shared by one tree, its own id, its
// parent's id (0 for the root), whether it is `derived` (laid out from
// the engine's own per-depth durations rather than timed here), and
// whether it is on the check's critical path — a race's losing entrants
// run in parallel with the winner, so their lanes are kept but marked
// `critical: false` and left out of the self-time sum.
#pragma once

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "measure.hpp"

namespace e2e {

struct Span {
  const char* name = "";
  std::uint64_t check = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  int lane = 0;
  bool critical = true;
  bool derived = false;
  std::int64_t start_ns = 0;  // from the log's origin
  std::int64_t end_ns = 0;
};

class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  std::int64_t ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }

  std::uint64_t next_id() {
    const std::lock_guard<std::mutex> lock(mu_);
    return next_id_++;
  }

  /// Records a span; assigns an id when the caller did not reserve one.
  std::uint64_t add(Span s) {
    const std::lock_guard<std::mutex> lock(mu_);
    if (s.id == 0) s.id = next_id_++;
    spans_.push_back(s);
    return s.id;
  }

  /// Derived children of one span: the given durations are laid out back
  /// to back so the last one ends at the parent's end.  Nothing is
  /// clipped: when the durations add up to more than the parent lasted,
  /// the first child starts before its parent and check_trace.py reports
  /// it.  Returns the children in the order given.
  std::vector<Span> add_derived_tail(
      const Span& parent,
      const std::vector<std::pair<const char*, std::int64_t>>& parts_in_order) {
    std::vector<Span> out(parts_in_order.size());
    std::int64_t end = parent.end_ns;
    for (std::size_t i = parts_in_order.size(); i-- > 0;) {
      Span& c = out[i];
      c.name = parts_in_order[i].first;
      c.check = parent.check;
      c.parent = parent.id;
      c.lane = parent.lane;
      c.critical = parent.critical;
      c.derived = true;
      c.start_ns = end - parts_in_order[i].second;
      c.end_ns = end;
      c.id = add(c);
      end = c.start_ns;
    }
    return out;
  }

  bool write_chrome(const std::string& path, const char* workload) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"otherData\": {\"workload\": \"%s\"},\n", workload);
    std::fprintf(f, "\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n");
    const std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(
          f,
          "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %d, "
          "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"check\": %llu, "
          "\"id\": %llu, \"parent\": %llu, \"derived\": %s, "
          "\"critical\": %s}}%s\n",
          s.name, s.lane, static_cast<double>(s.start_ns) / 1e3,
          static_cast<double>(s.end_ns - s.start_ns) / 1e3,
          static_cast<unsigned long long>(s.check),
          static_cast<unsigned long long>(s.id),
          static_cast<unsigned long long>(s.parent),
          s.derived ? "true" : "false", s.critical ? "true" : "false",
          i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  const Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::uint64_t next_id_ = 1;
};

}  // namespace e2e
