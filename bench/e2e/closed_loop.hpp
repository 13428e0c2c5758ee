// The closed-loop workloads (scratch, race, incremental): one client
// hands the engine one AIGER text at a time and waits for the verdict.
//
// A check is model::read_aiger_string plus api::check; its latency runs
// from the text to the verdict.  The benchmark then judges the verdict
// against the generator's expectation and replays any counterexample on
// a netlist re-parsed from the same text (sim.validate — after the
// verdict, so outside the latency).
#pragma once

#include <algorithm>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/refbmc.hpp"
#include "bmc/trace.hpp"
#include "inputs.hpp"
#include "measure.hpp"
#include "spans.hpp"

namespace e2e {

namespace api = refbmc::api;
namespace bmc = refbmc::bmc;

/// The generator's expectation against the engine's outcome; replays a
/// counterexample with bmc::validate_trace on a netlist re-parsed from
/// the row's text, independent of whatever the engine checked itself.
/// Returns "" when the outcome is correct, else the reason.
inline std::string judge(const Row& row, api::CheckResult::Status status,
                         int cex_depth, const bmc::Trace* trace) {
  using Status = api::CheckResult::Status;
  if (status == Status::ResourceLimit) return "resource limit";
  const bool found = status == Status::CounterexampleFound;
  if (found != row.expect_fail)
    return found ? "counterexample on a passing row" : "missed failure";
  if (!found) return "";
  if (cex_depth != row.expect_depth)
    return "counterexample at depth " + std::to_string(cex_depth) +
           ", expected " + std::to_string(row.expect_depth);
  if (trace == nullptr) return "no counterexample trace";
  const refbmc::model::Netlist net =
      refbmc::model::read_aiger_string(row.aiger);
  if (!bmc::validate_trace(net, *trace, 0))
    return "counterexample does not replay";
  return "";
}

inline const std::vector<std::string>& race_policies() {
  static const std::vector<std::string> names{"static", "dynamic", "evsids"};
  return names;
}

inline api::RaceOptions options_for(Workload w, int bound) {
  api::RaceOptions o;
  if (w == Workload::Race)
    o.policies(race_policies());
  else
    o.policy("dynamic");
  if (w == Workload::Incremental) o.incremental(true);
  o.max_depth(bound);
  return o;
}

inline int entrants_of(Workload w) { return w == Workload::Race ? 3 : 1; }

/// A run repeats whole rounds over the rows: at least kMinRounds, and
/// more while the next round is expected to end within the run's
/// seconds, each round on the next window of CPUs (see CpuRotation).
/// The gauge runs between checks (see gauge_ms), and the end-to-end
/// metrics are medians over rounds (report_rounds).
inline constexpr int kMinRounds = 3;
/// The gauge runs before every kGaugeEvery-th check: about a tenth of a
/// round's time.
inline constexpr std::size_t kGaugeEvery = 2;

/// What one run over the rows measured.
struct ClosedPass {
  std::vector<Round> rounds;
  std::vector<double> latency_ms;  // every check, in order
  std::uint64_t checks = 0;
  std::uint64_t failures = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double latency_sum_ms = 0.0;
  double parse_ms_sum = 0.0;
  double validate_ms_sum = 0.0;
  std::uint64_t validated = 0;
  DepthTotals totals;
  // race-level counters from api::CheckResult
  std::vector<double> cancel_latency_ms;
  std::uint64_t clauses_exported = 0;
  std::uint64_t clauses_imported = 0;
  std::uint64_t ranks_published = 0;
  std::uint64_t rank_refreshes = 0;
  std::map<std::string, std::uint64_t> wins;
  // traced pass only: from the on_depth callbacks
  std::vector<double> first_depth_ms;
  double depth_gap_ms_sum = 0.0;
};

/// on_depth sink of one traced check: entrants call it concurrently.
class DepthRecorder {
 public:
  struct Event {
    std::thread::id thread;
    Clock::time_point at;
    bmc::DepthStats stats;
  };

  void record(const bmc::DepthStats& d) {
    const Clock::time_point now = Clock::now();
    const std::lock_guard<std::mutex> lock(mu_);
    events_.push_back({std::this_thread::get_id(), now, d});
  }

  /// Events grouped by calling thread (one lane per entrant), lanes in
  /// order of their first callback.
  std::vector<std::vector<Event>> lanes() const {
    const std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::vector<Event>> out;
    std::vector<std::thread::id> ids;
    for (const Event& e : events_) {
      const auto it = std::find(ids.begin(), ids.end(), e.thread);
      const std::size_t lane = static_cast<std::size_t>(it - ids.begin());
      if (it == ids.end()) {
        ids.push_back(e.thread);
        out.emplace_back();
      }
      out[lane].push_back(e);
    }
    return out;
  }

 private:
  mutable std::mutex mu_;
  std::vector<Event> events_;
};

inline bool same_depth(const bmc::DepthStats& a, const bmc::DepthStats& b) {
  return a.depth == b.depth && a.decisions == b.decisions &&
         a.propagations == b.propagations && a.conflicts == b.conflicts &&
         a.solve_us == b.solve_us && a.encode_us == b.encode_us;
}

/// Spans of one traced check: check > {model.parse, api.check, sim.validate},
/// api.check > bmc.depth per depth per entrant lane, each depth > derived
/// {bmc.encode, sat.solve} from that depth's DepthStats.  With one entrant,
/// bmc.encode > derived {bmc.simplify, bmc.preprocess}, so its self time
/// is the replay.  In a race the engine runs those two passes once per
/// depth for the whole race and reports their durations to every
/// entrant, whether it ran them, waited for them or found them done, so
/// they cannot be placed on a lane: bmc.encode is then the entrant's whole
/// prepare step.  Also adds the check's first-depth time and its depth
/// gap (critical depth time no derived child explains) to `pass`.
inline void emit_check_spans(SpanLog& log, std::uint64_t check,
                             Clock::time_point t0, Clock::time_point t1,
                             Clock::time_point t2, Clock::time_point t3,
                             bool validated, bool race,
                             const DepthRecorder& rec,
                             const api::CheckResult& res, ClosedPass& pass) {
  const std::uint64_t root = log.next_id();
  const std::uint64_t api_id = log.next_id();
  Span s;
  s.check = check;
  s.name = "check";
  s.id = root;
  s.start_ns = log.ns(t0);
  s.end_ns = log.ns(t3);
  log.add(s);
  s.parent = root;
  s.id = 0;
  s.name = "model.parse";
  s.start_ns = log.ns(t0);
  s.end_ns = log.ns(t1);
  log.add(s);
  s.name = "api.check";
  s.id = api_id;
  s.start_ns = log.ns(t1);
  s.end_ns = log.ns(t2);
  log.add(s);
  if (validated) {
    s.name = "sim.validate";
    s.id = 0;
    s.start_ns = log.ns(t2);
    s.end_ns = log.ns(t3);
    log.add(s);
  }

  const auto lanes = rec.lanes();
  std::size_t winner = lanes.size();
  if (!res.per_depth.empty())
    for (std::size_t l = 0; l < lanes.size(); ++l)
      if (same_depth(lanes[l].back().stats, res.per_depth.back())) winner = l;
  double first_ms = -1.0;
  for (std::size_t l = 0; l < lanes.size(); ++l) {
    Clock::time_point prev = t1;
    for (const auto& e : lanes[l]) {
      const double at_ms = ms_between(t1, e.at);
      if (first_ms < 0.0 || at_ms < first_ms) first_ms = at_ms;
      Span d;
      d.name = "bmc.depth";
      d.check = check;
      d.id = log.next_id();
      d.parent = api_id;
      d.lane = static_cast<int>(l) + 1;
      d.critical = l == winner;
      d.start_ns = log.ns(prev);
      d.end_ns = log.ns(e.at);
      log.add(d);
      const bmc::DepthStats& st = e.stats;
      const auto ns = [](std::uint64_t us) {
        return static_cast<std::int64_t>(us) * 1000;
      };
      const std::vector<Span> parts = log.add_derived_tail(
          d, {{"bmc.encode", ns(st.encode_us)}, {"sat.solve", ns(st.solve_us)}});
      if (!race)
        log.add_derived_tail(parts[0], {{"bmc.simplify", ns(st.simplify_us)},
                                        {"bmc.preprocess",
                                         ns(st.preprocess_us)}});
      if (d.critical) {
        const std::int64_t gap =
            d.end_ns - d.start_ns - ns(st.encode_us) - ns(st.solve_us);
        pass.depth_gap_ms_sum +=
            static_cast<double>(std::max<std::int64_t>(0, gap)) / 1e6;
      }
      prev = e.at;
    }
  }
  if (first_ms >= 0.0) pass.first_depth_ms.push_back(first_ms);
}

/// One check of `row`: parse, check, judge; folds it into `pass`.
inline void run_check(Workload w, const Row& row, SpanLog* log,
                      ClosedPass& pass) {
  ++pass.checks;
  DepthRecorder rec;
  api::CheckHooks hooks;
  if (log != nullptr)
    hooks.on_depth = [&rec](const bmc::DepthStats& d) { rec.record(d); };
  std::string why;
  double latency = kFailedLatencyMs;
  try {
    const Clock::time_point t0 = Clock::now();
    api::CheckRequest req;
    req.net = refbmc::model::read_aiger_string(row.aiger);
    const Clock::time_point t1 = Clock::now();
    req.name = row.name;
    req.options = options_for(w, row.bound);
    const api::CheckResult res = api::check(req, hooks);
    const Clock::time_point t2 = Clock::now();
    const bmc::Trace* trace =
        res.counterexample ? &*res.counterexample : nullptr;
    why = judge(row, res.status, res.counterexample_depth, trace);
    const Clock::time_point t3 = Clock::now();

    latency = ms_between(t0, t2);
    pass.latency_sum_ms += latency;
    pass.parse_ms_sum += ms_between(t0, t1);
    if (trace != nullptr) {
      pass.validate_ms_sum += ms_between(t2, t3);
      ++pass.validated;
    }
    pass.totals.add_check(res.per_depth, res.peak_mem_bytes);
    pass.clauses_exported += res.clauses_exported;
    pass.clauses_imported += res.clauses_imported;
    pass.ranks_published += res.ranks_published;
    pass.rank_refreshes += res.rank_refreshes;
    if (entrants_of(w) > 1)
      pass.cancel_latency_ms.push_back(
          static_cast<double>(res.cancel_latency_us) / 1e3);
    if (!res.winner_policy.empty()) ++pass.wins[res.winner_policy];
    if (log != nullptr)
      emit_check_spans(*log, pass.checks, t0, t1, t2, t3, trace != nullptr,
                       entrants_of(w) > 1, rec, res, pass);
  } catch (const std::exception& e) {
    why = std::string("exception: ") + e.what();
  }
  pass.latency_ms.push_back(latency);
  if (!why.empty()) {
    ++pass.failures;
    std::fprintf(stderr, "FAIL %s: %s\n", row.name.c_str(), why.c_str());
  }
}

/// One round from its per-check numbers.  The gauge (see gauge_ms) ran
/// before every kGaugeEvery-th check and after the last, so check i ran
/// between samples i / kGaugeEvery and the one after; its slowdown is
/// their mean over kGaugeReferenceMs.  Round::times divides each check's latency, step
/// time and CPU time by its slowdown; Round::clock keeps them as read.
/// A step is everything the loop does for one check: parse, check, judge.
inline Round closed_round(const std::vector<double>& latency_ms,
                          const std::vector<double>& step_s,
                          const std::vector<double>& step_cpu_s,
                          const std::vector<double>& gauge) {
  const std::size_t n = latency_ms.size();
  std::vector<double> scaled(n);
  double wall = 0.0, cpu = 0.0, wall_scaled = 0.0, cpu_scaled = 0.0;
  double slowdown_sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t g = i / kGaugeEvery;
    const double slowdown =
        (gauge[g] + gauge[g + 1]) / 2.0 / kGaugeReferenceMs;
    scaled[i] = latency_ms[i] / slowdown;
    wall += step_s[i];
    cpu += step_cpu_s[i];
    wall_scaled += step_s[i] / slowdown;
    cpu_scaled += step_cpu_s[i] / slowdown;
    slowdown_sum += slowdown;
  }
  const double checks = static_cast<double>(n);
  Round r;
  r.times.p50_ms = percentile(scaled, 0.5);
  r.times.p90_ms = percentile(scaled, 0.9);
  r.times.per_s = ratio(checks, wall_scaled);
  r.times.cpu_per_check_ms = ratio(cpu_scaled * 1e3, checks);
  r.clock.p50_ms = percentile(latency_ms, 0.5);
  r.clock.p90_ms = percentile(latency_ms, 0.9);
  r.clock.per_s = ratio(checks, wall);
  r.clock.cpu_per_check_ms = ratio(cpu * 1e3, checks);
  r.slowdown = ratio(slowdown_sum, checks);
  return r;
}

/// Whole rounds over `rows` (see kMinRounds), at most `max_rounds`.  A
/// non-null `log` makes it the traced pass.
inline ClosedPass run_closed_pass(Workload w, const std::vector<Row>& rows,
                                  double seconds, int max_rounds,
                                  SpanLog* log) {
  ClosedPass pass;
  for (const auto& p : race_policies()) pass.wins[p] = 0;
  CpuRotation cpus(static_cast<std::size_t>(entrants_of(w)));
  const Clock::time_point start = Clock::now();
  for (int round = 1;; ++round) {
    cpus.select(static_cast<std::size_t>(round - 1));
    reset_peak_rss();
    const Clock::time_point r0 = Clock::now();
    const std::size_t first = pass.latency_ms.size();
    std::vector<double> gauge;  // see closed_round
    std::vector<double> step_s, step_cpu_s;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      if (i % kGaugeEvery == 0) gauge.push_back(gauge_ms());
      const Clock::time_point s0 = Clock::now();
      const double cpu0 = cpu_seconds();
      run_check(w, rows[i], log, pass);
      step_s.push_back(
          std::chrono::duration<double>(Clock::now() - s0).count());
      step_cpu_s.push_back(cpu_seconds() - cpu0);
    }
    gauge.push_back(gauge_ms());
    const std::vector<double> latency(pass.latency_ms.begin() +
                                          static_cast<std::ptrdiff_t>(first),
                                      pass.latency_ms.end());
    Round r = closed_round(latency, step_s, step_cpu_s, gauge);
    r.peak_rss_mb = peak_rss_mb();
    pass.rounds.push_back(r);
    for (std::size_t i = 0; i < step_s.size(); ++i) {
      pass.wall_s += step_s[i];
      pass.cpu_s += step_cpu_s[i];
    }
    if (round >= max_rounds) break;
    const auto since = [](Clock::time_point t) {
      return std::chrono::duration<double>(Clock::now() - t).count();
    };
    if (round >= kMinRounds && since(start) + since(r0) > seconds) break;
  }
  return pass;
}

inline void report_closed_end_to_end(MetricSheet& m, Workload w,
                                     std::size_t rows, const ClosedPass& pass) {
  const RoundTimes med = report_rounds(m, pass.rounds);
  // One client waits for each verdict, so the highest rate a closed loop
  // sustains is its throughput.
  m.add("max_rate_jobs_per_s", med.per_s, "1/s");
  m.add("rows", static_cast<double>(rows), "count");
  m.add("measured_s", pass.wall_s, "s");
  m.add("entrants", entrants_of(w), "count");
}

inline void report_closed_per_layer(MetricSheet& m, Workload w,
                                    const ClosedPass& pass) {
  const double checks = static_cast<double>(pass.checks);
  m.add("model.parse_ms", ratio(pass.parse_ms_sum, checks), "ms");
  pass.totals.report(m, pass.checks, pass.latency_sum_ms);
  m.add("bmc.depth_gap_ms", ratio(pass.depth_gap_ms_sum, checks), "ms");
  m.add("portfolio.cpu_util",
        ratio(pass.cpu_s, pass.wall_s * entrants_of(w)), "frac");
  m.add("portfolio.first_depth_ms", median(pass.first_depth_ms), "ms");
  if (w == Workload::Race) {
    m.add("portfolio.cancel_latency_p50_ms",
          percentile(pass.cancel_latency_ms, 0.5), "ms");
    m.add("portfolio.cancel_latency_p90_ms",
          percentile(pass.cancel_latency_ms, 0.9), "ms");
    m.add("portfolio.clauses_exported",
          static_cast<double>(pass.clauses_exported), "count");
    m.add("portfolio.clauses_imported",
          static_cast<double>(pass.clauses_imported), "count");
    m.add("portfolio.imports_per_export",
          ratio(static_cast<double>(pass.clauses_imported),
                static_cast<double>(pass.clauses_exported)),
          "ratio");
    m.add("portfolio.ranks_published",
          static_cast<double>(pass.ranks_published), "count");
    m.add("portfolio.rank_refreshes",
          static_cast<double>(pass.rank_refreshes), "count");
    for (const auto& p : race_policies())
      m.add("portfolio.win_frac." + p,
            ratio(static_cast<double>(pass.wins.at(p)), checks), "frac");
  }
  m.add("sim.validate_ms",
        ratio(pass.validate_ms_sum, static_cast<double>(pass.validated)),
        "ms");
}

}  // namespace e2e
