// Portfolio race over the benchgen suite — the parallel front-end to
// everything the paper builds.
//
//   $ ./portfolio_race [--mode race]
//                      [--policies baseline,static,dynamic,shtrichman,evsids]
//                      [--depth K] [--budget SECONDS] [--quick]
//                      [--incremental] [--simplify 0|1]
//                      [--share 0|1] [--share-lbd L] [--share-size S]
//                      [--share-cap N]
//                      [--core-weighting linear|uniform|last-only|exp-decay]
//                      [--preprocess 0|1] [--bve-budget N]
//                      [--trace FILE] [--trace-buffer-kb KB] [--metrics FILE]
//
// --trace FILE records a race-wide event timeline and writes it as
// Chrome trace-event JSON — load it in https://ui.perfetto.dev or
// chrome://tracing; each racing solver is its own track.  --metrics
// FILE writes the counter/histogram registry as flat JSON.  Both
// default to off (zero recording overhead).
//
// Every suite row is raced across the ordering policies — one
// api::check per row, the same façade call the job server makes.  The
// first definitive verdict wins and cancels the losers.  Entrants
// exchange short/low-LBD learned clauses through a SharedClausePool
// unless --share off; each core-ranking entrant refines its own
// decision ordering from its own unsat cores.  Prints the winning
// policy and the exchange counters, and checks the verdict against the
// suite's expectation — the portfolio must never disagree with a
// single-policy run, sharing or not.  `race` is the only mode (batch
// sharding was removed; `--mode shard` is an error).
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
        "sharing %s)\n\n",
        cfg.policies.size(), suite.size(),
        static_cast<int>(cfg.policies.size()),
        cfg.sharing.enabled ? "on" : "off");
    std::printf("%-26s %-8s %-12s %10s %10s %9s %9s %6s %8s\n", "model",
                "verdict", "winner", "race(s)", "expected", "exported",
                "imported", "publ", "cxl(us)");
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
          "%-26s %-8s %-12s %10.3f %10s %9llu %9llu %6llu %8llu%s\n",
          bm.name.c_str(), to_string(r.status),
          r.winner_policy.empty() ? "-" : r.winner_policy.c_str(),
          r.wall_time_sec, bm.expect_fail ? "cex" : "bound",
          static_cast<unsigned long long>(r.clauses_exported),
          static_cast<unsigned long long>(r.clauses_imported),
          static_cast<unsigned long long>(r.ranks_published),
          static_cast<unsigned long long>(r.cancel_latency_us),
          ok ? "" : "  <-- MISMATCH");
    }
    std::printf("\n%s\n", mismatches == 0
                              ? "all race verdicts match the expectations"
                              : "VERDICT MISMATCHES FOUND");
    return mismatches == 0 ? 0 : 1;
  }

  if (mode == "shard") {
    std::fprintf(stderr,
                 "--mode shard is no longer supported: batch sharding was "
                 "removed (use --mode race)\n");
    return 2;
  }

  std::fprintf(stderr, "unknown --mode '%s' (use race)\n", mode.c_str());
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
