// Clocks, order statistics, process resource usage, CPU placement and the
// metric sheet bench_e2e prints.
#pragma once

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <iterator>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bmc/engine.hpp"
#include "util/json.hpp"

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Percentile with linear interpolation between closest ranks (q in
/// [0, 1]); 0 for an empty sample.
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double median(std::vector<double> v) {
  return percentile(std::move(v), 0.5);
}

inline double ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

/// User + system CPU seconds of the whole process (every thread).
inline double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

/// CPU seconds of the calling thread.
inline double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Peak resident set of the process since the last reset_peak_rss()
/// (ru_maxrss is in KiB on Linux).
inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Hands the heap's free pages back to the system (malloc_trim) and
/// lowers the process's peak resident set to its current one (Linux: "5"
/// to /proc/self/clear_refs), so peak_rss_mb() covers what runs next
/// rather than what earlier rounds left in glibc's per-thread arenas.
/// Without that file the peak stays the process-lifetime one.
inline void reset_peak_rss() {
  malloc_trim(0);
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

/// Moves the calling thread over windows of `width` of the CPUs the
/// process may use; threads it starts afterwards inherit the window.  On
/// a shared host the vCPUs slow down independently of each other, so
/// repeats placed on different ones keep one slow vCPU from setting the
/// median of a run.  Restores the original mask on destruction.  With no
/// more CPUs than `width`, nothing is pinned.
class CpuRotation {
 public:
  explicit CpuRotation(std::size_t width) : width_(width) {
    CPU_ZERO(&saved_);
    if (sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &saved_)) cpus_.push_back(c);
  }
  ~CpuRotation() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof saved_, &saved_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Number of distinct windows (one per usable CPU).
  std::size_t windows() const {
    return std::max<std::size_t>(cpus_.size(), 1);
  }

  /// Pins to the window that starts at the `index`-th CPU (wrapping).
  void select(std::size_t index) {
    if (cpus_.size() <= width_) return;
    cpu_set_t mask;
    CPU_ZERO(&mask);
    for (std::size_t k = 0; k < width_; ++k)
      CPU_SET(cpus_[(index + k) % cpus_.size()], &mask);
    sched_setaffinity(0, sizeof mask, &mask);
  }

 private:
  cpu_set_t saved_;
  std::vector<int> cpus_;
  std::size_t width_;
};

/// Host-speed gauge.  The machine is shared, and its other tenants slow
/// every CPU by up to half again and more, in spells of a second or two
/// and in drifts over minutes (README.md, "Host speed").  The gauge is a
/// fixed piece of work that slows with them as the engine does: a
/// node-based hash map of a few MiB (allocation, hashing, cache misses)
/// and a sort of random keys (branches no predictor learns); either part
/// alone slows more, or less, than the engine.  It runs between checks
/// (closed loop) or beside the jobs (serve), on the CPUs they run on, and
/// each check's or job's times are divided by the slowdown the gauge read
/// around it: the mean of the samples just before and just after,
/// against kGaugeReferenceMs.
inline constexpr double kGaugeReferenceMs = 10.0;

/// Keeps the gauge's work from being optimised away.
inline thread_local volatile std::uint64_t gauge_sink = 0;

/// Runs the gauge's work once; returns its wall time in ms.
inline double gauge_ms() {
  const Clock::time_point t0 = Clock::now();
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::unordered_map<std::uint64_t, std::uint64_t> map;
  for (std::uint64_t i = 0; i < 60000; ++i) map[next() % 100000] += i;
  std::uint64_t found = 0;
  for (std::uint64_t k = 0; k < 60000; ++k) found += map.count(k);
  std::vector<std::uint32_t> keys(1u << 16);
  for (std::uint32_t& k : keys) k = static_cast<std::uint32_t>(next());
  std::sort(keys.begin(), keys.end());
  gauge_sink = found + keys[keys.size() / 2];
  return ms_between(t0, Clock::now());
}

/// Gauge samples on a timeline, for work that runs beside the gauge
/// rather than between its samples.
class GaugeTimeline {
 public:
  /// A sample of `ms` whose work ran around `at`; samples come in time
  /// order.
  void add(Clock::time_point at, double ms) { samples_.push_back({at, ms}); }

  /// The slowdown at `t`: the mean of the samples just before and just
  /// after it (the nearest one past either end) over kGaugeReferenceMs;
  /// 1 without samples.
  double slowdown_at(Clock::time_point t) const {
    if (samples_.empty()) return 1.0;
    const auto after = std::lower_bound(
        samples_.begin(), samples_.end(), t,
        [](const Sample& s, Clock::time_point x) { return s.at < x; });
    if (after == samples_.begin()) return after->ms / kGaugeReferenceMs;
    if (after == samples_.end())
      return samples_.back().ms / kGaugeReferenceMs;
    return (std::prev(after)->ms + after->ms) / 2.0 / kGaugeReferenceMs;
  }

  /// Mean sample over kGaugeReferenceMs; 1 without samples.
  double mean_slowdown() const {
    if (samples_.empty()) return 1.0;
    double sum = 0.0;
    for (const Sample& s : samples_) sum += s.ms;
    return sum / static_cast<double>(samples_.size()) / kGaugeReferenceMs;
  }

 private:
  struct Sample {
    Clock::time_point at;
    double ms;
  };
  std::vector<Sample> samples_;
};

/// A check or job that fails counts as missing any latency limit.
inline constexpr double kFailedLatencyMs = 1e9;

/// The end-to-end times of one round (closed loop: one pass over every
/// row; serve: one play of the schedule), over all of its checks.
struct RoundTimes {
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double per_s = 0.0;  // checks_per_s
  double cpu_per_check_ms = 0.0;
};

struct Round {
  RoundTimes times;  // at the reference host speed (see gauge_ms)
  RoundTimes clock;  // as the clock read them
  double peak_rss_mb = 0.0;
  double slowdown = 1.0;  // mean over the round
};

/// Ordered (name, value, unit) list: printed as `name value unit` lines
/// and written into BENCH_e2e_<workload>.json.
class MetricSheet {
 public:
  void add(std::string name, double value, std::string unit) {
    rows_.push_back({std::move(name), value, std::move(unit)});
  }

  void print() const {
    for (const auto& r : rows_)
      std::printf("%s %.12g %s\n", r.name.c_str(), r.value, r.unit.c_str());
    std::fflush(stdout);
  }

  void write_json(refbmc::JsonWriter& w) const {
    w.begin_object();
    for (const auto& r : rows_) {
      w.key(r.name);
      w.begin_object();
      w.kv("value", r.value);
      w.kv("unit", r.unit);
      w.end_object();
    }
    w.end_object();
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> rows_;
};

/// Each end-to-end metric of a run is the median over its rounds, of the
/// round's times at the reference host speed; each round's percentiles
/// see every check, the slow ones included.  The clock's own readings
/// are printed too, with the suffix `_raw`, beside the median slowdown.
/// Returns the medians of Round::times.
inline RoundTimes report_rounds(MetricSheet& m,
                                const std::vector<Round>& rounds) {
  const auto med = [&rounds](const auto& value_of) {
    std::vector<double> v;
    for (const Round& r : rounds) v.push_back(value_of(r));
    return median(std::move(v));
  };
  const auto report = [&](RoundTimes Round::*which, const std::string& sfx) {
    RoundTimes out;
    out.p50_ms = med([which](const Round& r) { return (r.*which).p50_ms; });
    out.p90_ms = med([which](const Round& r) { return (r.*which).p90_ms; });
    out.per_s = med([which](const Round& r) { return (r.*which).per_s; });
    out.cpu_per_check_ms =
        med([which](const Round& r) { return (r.*which).cpu_per_check_ms; });
    m.add("verdict_p50_ms" + sfx, out.p50_ms, "ms");
    m.add("verdict_p90_ms" + sfx, out.p90_ms, "ms");
    m.add("checks_per_s" + sfx, out.per_s, "1/s");
    m.add("cpu_per_check_ms" + sfx, out.cpu_per_check_ms, "ms");
    return out;
  };
  const RoundTimes out = report(&Round::times, "");
  m.add("peak_rss_mb", med([](const Round& r) { return r.peak_rss_mb; }),
        "MiB");
  report(&Round::clock, "_raw");
  m.add("host.slowdown", med([](const Round& r) { return r.slowdown; }),
        "ratio");
  m.add("rounds", static_cast<double>(rounds.size()), "count");
  return out;
}

/// Sums of the engine's per-depth counters over every check of a pass
/// (the winner's series, as api::CheckResult::per_depth reports it).
struct DepthTotals {
  std::uint64_t depths = 0;
  std::uint64_t decisions = 0;
  std::uint64_t propagations = 0;
  std::uint64_t binary_propagations = 0;
  std::uint64_t blocker_skips = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t cnf_clauses = 0;
  std::uint64_t vars_eliminated = 0;
  std::uint64_t clauses_subsumed = 0;
  std::uint64_t savepoint_hits = 0;
  std::uint64_t savepoint_misses = 0;
  std::uint64_t retired_frame_clauses = 0;
  std::uint64_t vivified_literals = 0;
  std::uint64_t rank_switches = 0;
  std::uint64_t preprocess_us = 0;
  std::uint64_t simplify_us = 0;
  std::uint64_t replay_us = 0;
  std::uint64_t solve_us = 0;
  std::uint64_t inprocess_us = 0;
  std::uint64_t peak_mem_bytes = 0;  // max over checks

  /// encode_us minus the preprocessing and simplification inside it.  A
  /// race runs those passes once per depth and reports them to every
  /// entrant, so for an entrant this includes waiting for them, and it is
  /// 0 when the entrant found them done.
  static std::uint64_t replay_of(const refbmc::bmc::DepthStats& d) {
    const std::uint64_t inner = d.preprocess_us + d.simplify_us;
    return d.encode_us > inner ? d.encode_us - inner : 0;
  }

  void add(const refbmc::bmc::DepthStats& d) {
    ++depths;
    decisions += d.decisions;
    propagations += d.propagations;
    binary_propagations += d.binary_propagations;
    blocker_skips += d.blocker_skips;
    conflicts += d.conflicts;
    cnf_clauses += d.cnf_clauses;
    vars_eliminated += d.vars_eliminated;
    clauses_subsumed += d.clauses_subsumed;
    savepoint_hits += d.savepoint_hits;
    savepoint_misses += d.savepoint_misses;
    retired_frame_clauses += d.retired_frame_clauses;
    vivified_literals += d.vivified_literals;
    rank_switches += d.rank_switched ? 1 : 0;
    preprocess_us += d.preprocess_us;
    simplify_us += d.simplify_us;
    replay_us += replay_of(d);
    solve_us += d.solve_us;
    inprocess_us += d.inprocess_us;
  }

  void add_check(const std::vector<refbmc::bmc::DepthStats>& per_depth,
                 std::uint64_t peak_bytes) {
    for (const auto& d : per_depth) add(d);
    peak_mem_bytes = std::max(peak_mem_bytes, peak_bytes);
  }

  /// The bmc.* and sat.* rows of the per-layer ledger.  `checks` is the
  /// base of the per-check means; `check_ms` the summed time of those
  /// checks (the base of preprocess_share).
  void report(MetricSheet& m, std::uint64_t checks, double check_ms) const {
    const double n = static_cast<double>(std::max<std::uint64_t>(checks, 1));
    const auto per_check_ms = [n](std::uint64_t us) {
      return static_cast<double>(us) / 1e3 / n;
    };
    const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    m.add("bmc.preprocess_ms", per_check_ms(preprocess_us), "ms");
    m.add("bmc.preprocess_share", ratio(d(preprocess_us) / 1e3, check_ms),
          "frac");
    m.add("bmc.replay_ms", per_check_ms(replay_us), "ms");
    m.add("bmc.simplify_ms", per_check_ms(simplify_us), "ms");
    m.add("bmc.vars_eliminated", d(vars_eliminated), "count");
    m.add("bmc.clauses_subsumed", d(clauses_subsumed), "count");
    m.add("bmc.cnf_clauses", d(cnf_clauses), "count");
    m.add("bmc.savepoint_hit_frac",
          ratio(d(savepoint_hits), d(savepoint_hits + savepoint_misses)),
          "frac");
    m.add("bmc.retired_frame_clauses", d(retired_frame_clauses), "count");
    m.add("bmc.peak_formula_mb", d(peak_mem_bytes) / (1024.0 * 1024.0), "MiB");
    m.add("bmc.rank_switch_frac", ratio(d(rank_switches), d(depths)), "frac");
    const double solve_s = d(solve_us) / 1e6;
    m.add("sat.solve_ms", per_check_ms(solve_us), "ms");
    m.add("sat.props_per_s", ratio(d(propagations), solve_s), "1/s");
    m.add("sat.conflicts_per_s", ratio(d(conflicts), solve_s), "1/s");
    m.add("sat.decisions", d(decisions), "count");
    m.add("sat.propagations", d(propagations), "count");
    m.add("sat.conflicts", d(conflicts), "count");
    m.add("sat.binary_prop_frac",
          ratio(d(binary_propagations), d(propagations)), "frac");
    m.add("sat.blocker_skips_per_prop",
          ratio(d(blocker_skips), d(propagations)), "ratio");
    m.add("sat.vivify_ms", per_check_ms(inprocess_us), "ms");
    m.add("sat.vivified_lits", d(vivified_literals), "count");
  }
};

}  // namespace e2e
