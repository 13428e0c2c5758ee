// Remapping soundness across the portfolio: racing entrants solve the
// PREPROCESSED formula while verdicts, cex depths, and extracted traces
// are reported in model-node space — so a race with preprocessing on
// must be indistinguishable, result-wise, from one with it off, with
// lemma sharing on and off.  Also covers the pool seam: clauses travel
// in tape space, and imports that mention a variable this consumer
// eliminated are dropped, not parked.
#include <gtest/gtest.h>

#include "bmc/trace.hpp"
#include "model/benchgen.hpp"
#include "portfolio/scheduler.hpp"

namespace refbmc::portfolio {
namespace {

using bmc::BmcResult;
using bmc::OrderingPolicy;

bmc::EngineConfig engine_for(const model::Benchmark& bm, bool preprocess) {
  bmc::EngineConfig cfg;
  cfg.max_depth = bm.suggested_bound;
  cfg.preprocess.enabled = preprocess;
  return cfg;
}

TEST(PreprocessRaceTest, VerdictsMatchAcrossSharingAndPreprocessMatrix) {
  // share × preprocess — four configurations per model, all required to
  // agree with the suite expectation and with each other on the
  // counterexample depth.
  for (const auto& bm : model::quick_suite()) {
    int expected_cex_depth = -2;  // sentinel: not yet observed
    for (const bool lemmas : {false, true}) {
      SharingConfig sharing;
      sharing.enabled = lemmas;
      for (const bool preprocess : {false, true}) {
        const RaceResult race = portfolio::race(
            bm.net, 0, engine_for(bm, preprocess),
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

TEST(PreprocessRaceTest, ExtractedTracesProjectToModelSpace) {
  // The winning entrant of a preprocessed race must hand back a trace
  // that replays on the concrete simulator — the witness-completion
  // path (eliminated vars reconstructed from the remapper stack) is the
  // only way that can hold.
  const model::Benchmark models[] = {
      model::counter_reach(4, 7, true),
      model::with_distractor(model::counter_reach(3, 5, true), 3, 1)};
  for (const auto& bm : models) {
    const RaceResult race =
        portfolio::race(bm.net, 0, engine_for(bm, /*preprocess=*/true));
    ASSERT_TRUE(race.has_winner()) << bm.name;
    const BmcResult& r = race.winning().result;
    ASSERT_EQ(r.status, BmcResult::Status::CounterexampleFound) << bm.name;
    ASSERT_TRUE(r.counterexample.has_value()) << bm.name;
    EXPECT_TRUE(bmc::validate_trace(bm.net, *r.counterexample, 0)) << bm.name;
  }
}

TEST(PreprocessRaceTest, PreprocessedRaceStillExchangesClauses) {
  // Liveness with the new drop-at-delivery rule: the pool must not
  // starve just because consumers run preprocessed formulas.  Exports
  // are tape-space, so anything over surviving variables still lands.
  const model::Benchmark bm = model::needle(6, 6, 40, 50);
  const RaceResult race =
      portfolio::race(bm.net, 0, engine_for(bm, /*preprocess=*/true));
  ASSERT_TRUE(race.has_winner());
  EXPECT_GT(race.clauses_exported, 0u);
}

}  // namespace
}  // namespace refbmc::portfolio
