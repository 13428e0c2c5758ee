// The paper's conclusion: "our method can be combined with these
// incremental techniques to further improve their performance."  This
// bench crosses the instance-handling axes on a suite subset:
//
//   scratch     — fresh solver per depth, dynamic refined ordering;
//   incr        — one persistent solver, PR 7 pipeline (no delta
//                 preprocessing, root restart between depths);
//   incr+fast   — PR 8 fast path: delta preprocessing + assumption
//                 savepoint + batched frame retirement.
//
//   $ ./bench_incremental [--quick] [--budget SECONDS]
//
// Expected shape: incr < scratch (clause reuse), and incr+fast trims
// decisions/propagations further on most rows (identical verdicts).
// Results go to stdout and, machine-readably, to BENCH_incremental.json
// (the CI bench-trajectory step diffs the artifact across PRs).
#include <cstdio>

#include "harness.hpp"
#include "util/options.hpp"

int main(int argc, char** argv) {
  using namespace refbmc;
  using namespace refbmc::benchharness;
  using bmc::OrderingPolicy;

  const Options opts = Options::parse(argc, argv);
  const bool quick = opts.get_bool("quick", false);
  const double budget = opts.get_double("budget", quick ? 2.0 : 5.0);

  std::vector<model::Benchmark> rows;
  if (quick) {
    rows = model::quick_suite();
  } else {
    rows.push_back(model::with_distractor(model::arbiter_safe(8), 24, 103));
    rows.push_back(model::with_distractor(model::fifo_safe(4), 32, 104));
    rows.push_back(model::with_distractor(model::peterson_safe(), 32, 106));
    rows.push_back(model::accumulator_reach(16, 4, 255));
    rows.push_back(model::with_distractor(model::fifo_buggy(4), 24, 105));
    rows.push_back(
        model::with_distractor(model::needle(10, 8, 24, 30), 32, 109));
  }

  struct Mode {
    const char* name;
    bool incremental;
    bool fast;  // PR 8: delta preprocessing + savepoint + retirement
  };
  const Mode modes[] = {
      {"scratch", false, false},
      {"incr", true, false},
      {"incr+fast", true, true},
  };
  constexpr int kModes = 3;

  JsonWriter json;
  json.begin_object();
  json.kv("bench", "incremental");
  json.kv("quick", quick);
  json.kv("budget_sec", budget);
  json.key("rows");
  json.begin_array();

  std::printf("Scratch vs incremental vs incremental fast path (dynamic "
              "ordering; solver seconds)\n\n");
  std::printf("%-26s", "model");
  for (const Mode& m : modes) std::printf(" %13s", m.name);
  std::printf("  %9s %9s %7s\n", "save-hit%", "retired", "elim");

  double totals[kModes] = {0, 0, 0};
  std::uint64_t total_decisions[kModes] = {0, 0, 0};
  std::uint64_t total_propagations[kModes] = {0, 0, 0};
  int decisions_improved = 0, propagations_improved = 0, compared = 0;
  bool verdicts_all_match = true;
  for (const auto& bm : rows) {
    std::printf("%-26s", bm.name.c_str());
    PolicyRun runs[kModes];
    for (int i = 0; i < kModes; ++i) {
      bmc::EngineConfig cfg;
      cfg.incremental = modes[i].incremental;
      cfg.preprocess.enabled = modes[i].fast;
      cfg.solver.assumption_savepoint = modes[i].fast;
      runs[i] = run_policy(bm, OrderingPolicy::Dynamic, budget, cfg);
      const double t = runs[i].cumulative_time.empty()
                           ? 0.0
                           : runs[i].cumulative_time.back();
      totals[i] += t;
      total_decisions[i] += runs[i].result.total_decisions();
      total_propagations[i] += runs[i].result.total_propagations();
      std::printf(" %12.3f%s", t, runs[i].finished ? " " : "^");
    }

    // Fast-path specifics from the incr+fast run's per-depth stats.
    std::uint64_t hits = 0, misses = 0, retired = 0, eliminated = 0;
    for (const auto& d : runs[2].result.per_depth) {
      hits += d.savepoint_hits;
      misses += d.savepoint_misses;
      retired += d.retired_frame_clauses;
      eliminated += d.vars_eliminated;
    }
    const double hit_rate =
        hits + misses > 0
            ? static_cast<double>(hits) / static_cast<double>(hits + misses)
            : 0.0;
    std::printf("  %8.1f%% %9llu %7llu\n", 100.0 * hit_rate,
                static_cast<unsigned long long>(retired),
                static_cast<unsigned long long>(eliminated));

    const bool match =
        runs[0].result.status == runs[1].result.status &&
        runs[1].result.status == runs[2].result.status &&
        runs[0].result.counterexample_depth ==
            runs[2].result.counterexample_depth;
    verdicts_all_match &= match;
    // Improvement is only comparable when both incremental runs finished.
    if (runs[1].finished && runs[2].finished) {
      ++compared;
      if (runs[2].result.total_decisions() < runs[1].result.total_decisions())
        ++decisions_improved;
      if (runs[2].result.total_propagations() <
          runs[1].result.total_propagations())
        ++propagations_improved;
    }

    json.begin_object();
    json.kv("name", bm.name);
    json.kv("verdicts_match", match);
    for (int i = 0; i < kModes; ++i) {
      json.key(modes[i].name);
      json.begin_object();
      json.kv("finished", runs[i].finished);
      json.kv("last_depth", runs[i].last_depth());
      json.kv("cex_depth", runs[i].result.counterexample_depth);
      write_solver_core_totals(json, runs[i].result);
      json.end_object();
    }
    json.kv("savepoint_hit_rate", hit_rate);
    json.kv("savepoint_hits", hits);
    json.kv("savepoint_misses", misses);
    json.kv("retired_frame_clauses", retired);
    json.kv("vars_eliminated", eliminated);
    json.end_object();
  }
  json.end_array();

  std::printf("\n%-26s", "TOTAL");
  for (int i = 0; i < kModes; ++i) std::printf(" %13.3f", totals[i]);
  std::printf("\n%-26s", "decisions");
  for (int i = 0; i < kModes; ++i)
    std::printf(" %13llu", static_cast<unsigned long long>(total_decisions[i]));
  std::printf("\n%-26s", "RATIO");
  for (int i = 0; i < kModes; ++i)
    std::printf(" %12.0f%%",
                totals[0] > 0.0 ? 100.0 * totals[i] / totals[0] : 0.0);
  std::printf("\n\nfast path vs plain incremental: decisions improved on "
              "%d/%d rows, propagations on %d/%d%s\n",
              decisions_improved, compared, propagations_improved, compared,
              verdicts_all_match ? "" : "  VERDICT MISMATCH");
  std::printf("(^ = hit the per-run budget)\n");

  json.kv("total_scratch_sec", totals[0]);
  json.kv("total_incremental_sec", totals[1]);
  json.kv("total_fast_sec", totals[2]);
  json.kv("total_fast_ratio_vs_incremental",
          totals[1] > 0.0 ? totals[2] / totals[1] : 0.0);
  json.kv("rows_compared", compared);
  json.kv("rows_decisions_improved", decisions_improved);
  json.kv("rows_propagations_improved", propagations_improved);
  json.kv("verdicts_all_match", verdicts_all_match);
  json.end_object();

  if (!json.write_file("BENCH_incremental.json"))
    std::fprintf(stderr, "warning: could not write BENCH_incremental.json\n");
  else
    std::printf("wrote BENCH_incremental.json\n");
  return 0;
}
