// Portfolio scheduler over the benchgen suite — the parallel front-end to
// everything the paper builds.
//
//   $ ./portfolio_race [--mode race|shard] [--threads N]
//                      [--policies baseline,static,dynamic,shtrichman,evsids]
//                      [--depth K] [--budget SECONDS] [--quick]
//                      [--incremental] [--simplify 0|1] [--seed S]
//                      [--share 0|1] [--share-lbd L] [--share-size S]
//                      [--share-cap N] [--share-rank 0|1]
//                      [--core-weighting linear|uniform|last-only|exp-decay]
//                      [--preprocess 0|1] [--bve-budget N]
//                      [--trace FILE] [--trace-buffer-kb KB] [--metrics FILE]
//
// --trace FILE records a race-wide event timeline and writes it as
// Chrome trace-event JSON — load it in https://ui.perfetto.dev or
// chrome://tracing; each racing solver (or shard worker) is its own
// track.  --metrics FILE writes the counter/histogram registry as flat
// JSON.  Both default to off (zero recording overhead).
//
// race:  every suite row is raced across the ordering policies — one
//        api::check per row, the same façade call the job server makes.
//        The first definitive verdict wins and cancels the losers.
//        Entrants exchange short/low-LBD learned clauses through a
//        SharedClausePool unless --share off, and pool their unsat cores
//        into one SharedRankSource — refining every rival's decision
//        ordering mid-solve — unless --share-rank off.  Prints the
//        winning policy and the exchange counters, and checks the
//        verdict against the suite's expectation — the portfolio must
//        never disagree with a single-policy run, sharing or not.
// shard: the suite is expanded into one job per (netlist, property) and
//        distributed over a work-stealing pool; prints the batch report
//        and the parallel speedup over the sequential-equivalent time.
//        (Batch sharding is a scheduler-level feature, below the façade.)
#include <cstdio>
#include <exception>
#include <string>

#include "api/refbmc.hpp"
#include "model/benchgen.hpp"
#include "portfolio/scheduler.hpp"
#include "util/options.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace refbmc;
  using namespace refbmc::portfolio;

  const Options opts = Options::parse(argc, argv);
  const api::RaceOptions options = api::RaceOptions::from_options(opts);
  const std::string mode = opts.get("mode", "race");
  const auto suite = opts.get_bool("quick", false) ? model::quick_suite()
                                                   : model::standard_suite();

  api::ObservabilityScope observability(options);

  if (mode == "race") {
    const ResolvedPortfolio cfg = options.resolve();
    std::printf(
        "racing %zu policies on %zu instances (%d threads/race, lemma "
        "sharing %s, rank sharing %s)\n\n",
        cfg.policies.size(), suite.size(),
        static_cast<int>(cfg.policies.size()),
        cfg.sharing.enabled ? "on" : "off",
        cfg.sharing.rank ? "on" : "off");
    std::printf("%-26s %-8s %-12s %10s %10s %9s %9s %6s %6s %8s\n", "model",
                "verdict", "winner", "race(s)", "expected", "exported",
                "imported", "publ", "refr", "cxl(us)");
    int mismatches = 0;
    for (const auto& bm : suite) {
      api::CheckRequest request;
      request.net = bm.net;
      request.name = bm.name;
      request.options = options;
      if (!opts.has("depth") && !opts.has("bound"))
        request.options.max_depth(bm.suggested_bound);
      const api::CheckResult r = api::check(request);

      const bool ok =
          !r.winner_policy.empty() && r.found_counterexample() == bm.expect_fail;
      if (!ok) ++mismatches;
      std::printf(
          "%-26s %-8s %-12s %10.3f %10s %9llu %9llu %6llu %6llu %8llu%s\n",
          bm.name.c_str(), to_string(r.status),
          r.winner_policy.empty() ? "-" : r.winner_policy.c_str(),
          r.wall_time_sec, bm.expect_fail ? "cex" : "bound",
          static_cast<unsigned long long>(r.clauses_exported),
          static_cast<unsigned long long>(r.clauses_imported),
          static_cast<unsigned long long>(r.ranks_published),
          static_cast<unsigned long long>(r.rank_refreshes),
          static_cast<unsigned long long>(r.cancel_latency_us),
          ok ? "" : "  <-- MISMATCH");
    }
    std::printf("\n%s\n", mismatches == 0
                              ? "all race verdicts match the expectations"
                              : "VERDICT MISMATCHES FOUND");
    return mismatches == 0 ? 0 : 1;
  }

  if (mode == "shard") {
    const ResolvedPortfolio cfg = options.resolve();
    std::vector<Job> jobs;
    for (const auto& bm : suite) {
      bmc::EngineConfig engine = cfg.engine;
      engine.policy = cfg.policies.front();
      if (!opts.has("depth")) engine.max_depth = bm.suggested_bound;
      for (Job& job : shard_properties(bm.net, engine, bm.name))
        jobs.push_back(std::move(job));
    }
    std::printf("sharding %zu jobs over %d workers\n\n", jobs.size(),
                cfg.num_threads);
    PortfolioScheduler scheduler(cfg.num_threads, cfg.seed, cfg.sharing);
    const BatchReport report =
        scheduler.run_batch(jobs, options.budget_sec());

    std::printf("%-30s %-8s %8s %8s  %s\n", "job", "verdict", "depth",
                "time(s)", "worker");
    for (const auto& r : report.results)
      std::printf("%-30s %-8s %8d %8.3f  #%d\n", r.name.c_str(),
                  to_string(r.result.status), r.result.last_completed_depth,
                  r.wall_time_sec, r.worker_id);
    std::printf(
        "\n%zu cex, %zu bound, %zu limit | wall %.3fs, sequential-equivalent "
        "%.3fs (%.2fx), %llu steals, %llu lemmas exported / %llu imported, "
        "%llu cores published / %llu rank refreshes\n",
        report.counterexamples(), report.bounds_reached(),
        report.resource_limits(), report.wall_time_sec,
        report.total_job_time_sec(),
        report.wall_time_sec > 0.0
            ? report.total_job_time_sec() / report.wall_time_sec
            : 0.0,
        static_cast<unsigned long long>(report.steals),
        static_cast<unsigned long long>(report.clauses_exported),
        static_cast<unsigned long long>(report.clauses_imported),
        static_cast<unsigned long long>(report.ranks_published),
        static_cast<unsigned long long>(report.rank_refreshes));
    return 0;
  }

  std::fprintf(stderr, "unknown --mode '%s' (use race|shard)\n", mode.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "portfolio_race: %s\n", e.what());
    return 2;
  }
}
