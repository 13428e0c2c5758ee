// Portfolio racing must be a pure accelerator: whichever policy wins,
// verdict and counter-example depth are identical to every single-policy
// run of the same instance.
#include <atomic>

#include <gtest/gtest.h>

#include "model/benchgen.hpp"
#include "portfolio/scheduler.hpp"

namespace refbmc::portfolio {
namespace {

using bmc::BmcResult;
using bmc::OrderingPolicy;

bmc::EngineConfig engine_for(const model::Benchmark& bm) {
  bmc::EngineConfig cfg;
  cfg.max_depth = bm.suggested_bound;
  return cfg;
}

TEST(PortfolioRaceTest, VerdictsMatchEverySinglePolicyRun) {
  for (const auto& bm : model::quick_suite()) {
    const bmc::EngineConfig engine = engine_for(bm);

    // Ground truth: each policy alone.
    std::vector<JobResult> singles;
    for (const OrderingPolicy policy : default_race_policies()) {
      Job job;
      job.net = &bm.net;
      job.name = bm.name;
      job.config = engine;
      job.config.policy = policy;
      singles.push_back(run_job(job));
      ASSERT_NE(singles.back().result.status,
                BmcResult::Status::ResourceLimit)
          << bm.name << " under " << to_string(policy);
      // All policies agree with the suite's expectation...
      EXPECT_EQ(singles.back().result.status ==
                    BmcResult::Status::CounterexampleFound,
                bm.expect_fail)
          << bm.name << " under " << to_string(policy);
    }

    // ...and the race agrees with all of them.
    const RaceResult race = portfolio::race(bm.net, 0, engine);
    ASSERT_TRUE(race.has_winner()) << bm.name;
    EXPECT_EQ(race.entrants.size(), default_race_policies().size());
    EXPECT_EQ(race.status(), singles.front().result.status) << bm.name;
    if (bm.expect_fail) {
      for (const auto& single : singles)
        EXPECT_EQ(race.winning().result.counterexample_depth,
                  single.result.counterexample_depth)
            << bm.name;
      ASSERT_TRUE(race.winning().result.counterexample.has_value());
    }
  }
}

TEST(PortfolioRaceTest, SinglePolicyRaceWorks) {
  const model::Benchmark bm = model::arbiter_buggy(4);  // fails at depth 1
  const RaceResult race = portfolio::race(
      bm.net, 0, engine_for(bm), {OrderingPolicy::Dynamic});
  ASSERT_TRUE(race.has_winner());
  EXPECT_EQ(race.winner, 0);
  EXPECT_EQ(race.winning().policy, OrderingPolicy::Dynamic);
  EXPECT_EQ(race.status(), BmcResult::Status::CounterexampleFound);
}

TEST(PortfolioRaceTest, LosersAreCancelledNotWrong) {
  // Losing entrants either finished with the same verdict (they were
  // close behind) or were cut off with ResourceLimit — never a
  // contradicting verdict.
  const model::Benchmark bm = model::needle(6, 6, 40, 40);
  const RaceResult race = portfolio::race(bm.net, 0, engine_for(bm));
  ASSERT_TRUE(race.has_winner());
  for (const auto& entrant : race.entrants) {
    if (entrant.result.status == BmcResult::Status::ResourceLimit) continue;
    EXPECT_EQ(entrant.result.status, race.winning().result.status);
  }
}

TEST(PortfolioRaceTest, ExternalStopCancelsTheWholeRace) {
  // Heavy instance + pre-set external stop: the relay cancels every
  // entrant before anyone can reach a verdict.
  model::Benchmark bm = model::accumulator_reach(16, 2, 30000);
  bm = model::with_distractor(std::move(bm), 24, 3);
  std::atomic<bool> external{true};
  bmc::EngineConfig engine = engine_for(bm);
  engine.max_depth = 100000;
  engine.stop = &external;
  const RaceResult race = portfolio::race(bm.net, 0, engine);
  EXPECT_FALSE(race.has_winner());
  EXPECT_EQ(race.status(), BmcResult::Status::ResourceLimit);
  for (const auto& entrant : race.entrants)
    EXPECT_EQ(entrant.result.status, BmcResult::Status::ResourceLimit);
}

TEST(PortfolioRaceTest, RaceEncodesEachDepthExactlyOnce) {
  // Encode-once racing: P policies racing to a bound of k perform exactly
  // k+1 frame encodings total — one per depth, not one per (depth,
  // policy).  A passing model forces every entrant through every depth.
  const model::Benchmark bm = model::counter_safe(6, 40, 50);
  const int bound = 8;
  bmc::EngineConfig engine;
  engine.max_depth = bound;
  const RaceResult race = portfolio::race(bm.net, 0, engine);
  ASSERT_TRUE(race.has_winner());
  EXPECT_EQ(race.status(), BmcResult::Status::BoundReached);
  EXPECT_EQ(race.frames_encoded, static_cast<std::uint64_t>(bound + 1));
}

TEST(PortfolioRaceTest, EncodeOnceHoldsForIncrementalEntrants) {
  // Scratch (Shtrichman demotes to it) and incremental sessions replay
  // the same shared tape; the encoding count stays one per depth.
  const model::Benchmark bm = model::arbiter_safe(5);
  const int bound = 6;
  bmc::EngineConfig engine;
  engine.max_depth = bound;
  engine.incremental = true;
  const RaceResult race = portfolio::race(bm.net, 0, engine);
  ASSERT_TRUE(race.has_winner());
  EXPECT_EQ(race.frames_encoded, static_cast<std::uint64_t>(bound + 1));
  // And the verdict still matches a solo incremental run.
  Job job;
  job.net = &bm.net;
  job.name = bm.name;
  job.config = engine;
  job.config.policy = bmc::OrderingPolicy::Dynamic;
  EXPECT_EQ(run_job(job).result.status, race.status());
}

TEST(PortfolioRaceTest, RaceIsRepeatable) {
  // Objective verdicts: repeated races of the same
  // instance give the same verdict and cex depth every time (the winning
  // policy may differ — that is scheduling, not semantics).
  const model::Benchmark bm = model::lfsr_hit(8, 9);
  const bmc::EngineConfig engine = engine_for(bm);
  const RaceResult first = portfolio::race(bm.net, 0, engine);
  ASSERT_TRUE(first.has_winner());
  for (int i = 0; i < 3; ++i) {
    const RaceResult again = portfolio::race(bm.net, 0, engine);
    ASSERT_TRUE(again.has_winner());
    EXPECT_EQ(again.status(), first.status());
    EXPECT_EQ(again.winning().result.counterexample_depth,
              first.winning().result.counterexample_depth);
  }
}

}  // namespace
}  // namespace refbmc::portfolio
