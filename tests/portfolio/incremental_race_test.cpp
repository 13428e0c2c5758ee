// Incremental sessions inside a portfolio race: every entrant keeps one
// persistent solver fed by preprocessed per-depth deltas with the
// assumption savepoint on, while lemma sharing churns underneath —
// verdicts, cex depths and extracted traces must stay indistinguishable
// from the suite expectation across the matrix.
#include <gtest/gtest.h>

#include "bmc/trace.hpp"
#include "model/benchgen.hpp"
#include "portfolio/scheduler.hpp"

namespace refbmc::portfolio {
namespace {

using bmc::BmcResult;
using bmc::OrderingPolicy;

bmc::EngineConfig incremental_engine(const model::Benchmark& bm,
                                     bool preprocess) {
  bmc::EngineConfig cfg;
  cfg.max_depth = bm.suggested_bound;
  cfg.incremental = true;
  cfg.preprocess.enabled = preprocess;
  cfg.solver.assumption_savepoint = true;
  return cfg;
}

TEST(IncrementalRaceTest, VerdictsMatchAcrossSharingAndPreprocessMatrix) {
  // share × preprocess with incremental sessions — four configurations
  // per model (Shtrichman is scratch-only, so the racing policy set
  // stays within the incremental-capable ones).
  for (const auto& bm : model::quick_suite()) {
    int expected_cex_depth = -2;  // sentinel: not yet observed
    for (const bool lemmas : {false, true}) {
      SharingConfig sharing;
      sharing.enabled = lemmas;
      for (const bool preprocess : {false, true}) {
        const RaceResult race = portfolio::race(
            bm.net, 0, incremental_engine(bm, preprocess),
            {OrderingPolicy::Baseline, OrderingPolicy::Dynamic}, sharing);
        ASSERT_TRUE(race.has_winner())
            << bm.name << " lemmas=" << lemmas
            << " preprocess=" << preprocess;
        EXPECT_EQ(race.status() == BmcResult::Status::CounterexampleFound,
                  bm.expect_fail)
            << bm.name;
        if (!bm.expect_fail) continue;
        const int depth = race.winning().result.counterexample_depth;
        if (expected_cex_depth == -2) expected_cex_depth = depth;
        EXPECT_EQ(depth, expected_cex_depth) << bm.name;
      }
    }
  }
}

TEST(IncrementalRaceTest, PreprocessedIncrementalTracesReplay) {
  // The winning entrant solved delta-simplified frames under activation
  // guards; its trace must still replay on the concrete simulator (the
  // cumulative witness stack is the only way that holds).
  const model::Benchmark models[] = {
      model::counter_reach(4, 7, true),
      model::with_distractor(model::counter_reach(3, 5, true), 3, 1)};
  for (const auto& bm : models) {
    const RaceResult race =
        portfolio::race(bm.net, 0, incremental_engine(bm, true));
    ASSERT_TRUE(race.has_winner()) << bm.name;
    const BmcResult& r = race.winning().result;
    ASSERT_EQ(r.status, BmcResult::Status::CounterexampleFound) << bm.name;
    ASSERT_TRUE(r.counterexample.has_value()) << bm.name;
    EXPECT_TRUE(bmc::validate_trace(bm.net, *r.counterexample, 0)) << bm.name;
  }
}

}  // namespace
}  // namespace refbmc::portfolio
