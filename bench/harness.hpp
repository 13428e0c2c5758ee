// Shared harness for the table/figure benches: runs suite rows under each
// ordering policy with a per-run budget and reports the paper's metrics.
//
// Timeout semantics follow Table 1: "If the experiments cannot be finished
// within [the budget], we compare the CPU times spent to reach the maximum
// unrolling depth that all methods can complete; in those cases, the
// maximum unrolling depth is given in parentheses."
#pragma once

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bmc/engine.hpp"
#include "model/benchgen.hpp"
#include "util/assert.hpp"
#include "util/json.hpp"

namespace refbmc::benchharness {

// ---- machine-readable output ----------------------------------------------
//
// Benches additionally emit a BENCH_<name>.json next to where they run so
// the perf trajectory is tracked across PRs by tooling, not eyeballs —
// the CI bench-trajectory step diffs these artifacts textually, which is
// why JsonWriter (util/json.hpp) guarantees escaping, deterministic key
// order, and finite numbers.
using refbmc::JsonWriter;

/// Serializes one DepthStats row, including the solver-core hot-path
/// counters (binary propagations, blocking-literal skips) so BENCH_*.json
/// tracks BCP throughput across PRs, not just verdicts.
inline void write_depth_stats(JsonWriter& w, const bmc::DepthStats& d) {
  w.begin_object();
  w.kv("depth", d.depth);
  w.kv("result", to_string(d.result));
  w.kv("decisions", d.decisions);
  w.kv("propagations", d.propagations);
  w.kv("binary_propagations", d.binary_propagations);
  w.kv("blocker_skips", d.blocker_skips);
  w.kv("conflicts", d.conflicts);
  w.kv("clauses_exported", d.clauses_exported);
  w.kv("clauses_imported", d.clauses_imported);
  w.kv("import_propagations", d.import_propagations);
  w.kv("ranks_published", d.ranks_published);
  w.kv("time_sec", d.time_sec);
  // Phase split of time_sec (obs layer, PR 6): where this depth's wall
  // time went — formula growth, encoder simplification, SAT search.
  w.kv("encode_us", d.encode_us);
  w.kv("simplify_us", d.simplify_us);
  w.kv("solve_us", d.solve_us);
  // Preprocess counters: what the tape pass removed before solving.
  w.kv("vars_eliminated", d.vars_eliminated);
  w.kv("clauses_subsumed", d.clauses_subsumed);
  w.kv("lits_strengthened", d.lits_strengthened);
  w.kv("preprocess_us", d.preprocess_us);
  // Incremental fast path (PR 8): savepoint resumes and frame-retirement
  // sweeps (zero for scratch sessions / savepoint off).
  w.kv("savepoint_hits", d.savepoint_hits);
  w.kv("savepoint_misses", d.savepoint_misses);
  w.kv("savepoint_levels_reused", d.savepoint_levels_reused);
  w.kv("retired_frame_clauses", d.retired_frame_clauses);
  // Formula-state footprint (PR 10): tracker high-water mark plus this
  // entrant's arena and the (race-wide) tape residency at depth end.
  w.kv("peak_bytes", d.peak_bytes);
  w.kv("arena_bytes", d.arena_bytes);
  w.kv("tape_bytes", d.tape_bytes);
  w.end_object();
}

/// Serializes the solver-core totals of a finished run under keys shared
/// with write_depth_stats, plus propagations/sec over the solve time.
inline void write_solver_core_totals(JsonWriter& w,
                                     const bmc::BmcResult& result) {
  std::uint64_t bin = 0, skips = 0, exported = 0, imported = 0;
  std::uint64_t published = 0;
  double solve_time = 0.0;
  for (const auto& d : result.per_depth) {
    bin += d.binary_propagations;
    skips += d.blocker_skips;
    exported += d.clauses_exported;
    imported += d.clauses_imported;
    published += d.ranks_published;
    solve_time += d.time_sec;
  }
  const std::uint64_t props = result.total_propagations();
  w.kv("decisions", result.total_decisions());
  w.kv("propagations", props);
  w.kv("binary_propagations", bin);
  w.kv("blocker_skips", skips);
  w.kv("conflicts", result.total_conflicts());
  w.kv("clauses_exported", exported);
  w.kv("clauses_imported", imported);
  w.kv("ranks_published", published);
  w.kv("solve_time_sec", solve_time);
  w.kv("props_per_sec",
       solve_time > 0.0 ? static_cast<double>(props) / solve_time : 0.0);
}

struct PolicyRun {
  bmc::BmcResult result;
  /// cumulative_time[i] = seconds spent on depths start..i (prefix sums).
  std::vector<double> cumulative_time;
  bool finished = false;  // ran to cex or bound without hitting the budget

  int last_depth() const { return result.last_completed_depth; }
};

inline PolicyRun run_policy(const model::Benchmark& bm,
                            bmc::OrderingPolicy policy, double budget_sec,
                            bmc::EngineConfig base_cfg = {}) {
  bmc::EngineConfig cfg = base_cfg;
  cfg.policy = policy;
  cfg.max_depth = bm.suggested_bound;
  cfg.total_time_limit_sec = budget_sec;
  cfg.validate_counterexamples = true;
  bmc::BmcEngine engine(bm.net, cfg);
  PolicyRun run;
  run.result = engine.run();
  run.finished = run.result.status != bmc::BmcResult::Status::ResourceLimit;
  double acc = 0.0;
  for (const auto& d : run.result.per_depth) {
    acc += d.time_sec;
    run.cumulative_time.push_back(acc);
  }
  return run;
}

/// Cumulative solver time up to and including depth k (0 if k below start).
inline double cumulative_time_at(const PolicyRun& run, int k) {
  double t = 0.0;
  for (std::size_t i = 0; i < run.result.per_depth.size(); ++i) {
    if (run.result.per_depth[i].depth > k) break;
    t = run.cumulative_time[i];
  }
  return t;
}

struct RowComparison {
  std::string name;
  std::string verdict;       // "F" (fails), "T" (passes bound), "(k)" capped
  int compared_depth = 0;    // depth at which times are compared
  bool capped = false;       // some policy hit the budget
  std::vector<double> times;  // one per policy, comparable at compared_depth
  std::vector<std::uint64_t> decisions;
};

/// Applies the Table 1 comparison rule across policies.
inline RowComparison compare_row(const model::Benchmark& bm,
                                 const std::vector<PolicyRun>& runs) {
  RowComparison row;
  row.name = bm.name;
  bool all_finished = true;
  int min_depth = 1 << 30;
  for (const auto& r : runs) {
    all_finished &= r.finished;
    min_depth = std::min(min_depth, r.last_depth());
  }
  if (all_finished) {
    row.compared_depth = runs.front().last_depth();
    row.verdict = bm.expect_fail ? 'F' : 'T';
    for (const auto& r : runs) {
      // Compare accumulated SAT-solver time: CNF generation is identical
      // across policies (the paper's industrial circuits were entirely
      // solve-dominated; our synthetic ones are not, so including the
      // common unrolling cost would only dilute the ratios).
      row.times.push_back(r.cumulative_time.empty()
                              ? 0.0
                              : r.cumulative_time.back());
      row.decisions.push_back(r.result.total_decisions());
    }
  } else {
    row.capped = true;
    row.compared_depth = std::max(min_depth, 0);
    row.verdict = '(';
    row.verdict += std::to_string(row.compared_depth);
    row.verdict += ')';
    for (const auto& r : runs) {
      row.times.push_back(cumulative_time_at(r, row.compared_depth));
      std::uint64_t dec = 0;
      for (const auto& d : r.result.per_depth)
        if (d.depth <= row.compared_depth) dec += d.decisions;
      row.decisions.push_back(dec);
    }
  }
  return row;
}

}  // namespace refbmc::benchharness
