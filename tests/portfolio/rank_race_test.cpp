// Ordering exchange across the portfolio, end to end.
//
//   * soundness: a rank-sharing race never changes a verdict or a cex
//     depth — shared scores only re-order decisions;
//   * liveness: on multi-depth UNSAT instances the core-ranking entrants
//     actually publish into the race's SharedRankSource, and the race /
//     batch counters balance with the per-depth engine stats;
//   * determinism: with rank sharing (and lemma sharing) disabled the
//     scheduler is bit-identical to the exchange-free scheduler — a
//     single-policy race matches a solo run of the same job stat for
//     stat, including the decision counts the refined ordering drives.
#include <cstdint>
#include <vector>

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

SharingConfig exchange_off() {
  SharingConfig cfg;
  cfg.enabled = false;
  cfg.rank = false;
  return cfg;
}

/// Tests that assert the shared source EXISTS must force it past the
/// pays-off demotion, or they would silently skip on single-core CI.
SharingConfig rank_forced() {
  SharingConfig cfg;
  cfg.rank_force = true;
  return cfg;
}

TEST(RankRaceTest, RankSharingRaceVerdictsMatchTheSuite) {
  // The race-is-a-pure-accelerator invariant must survive ordering
  // exchange: same verdict, same cex depth, on every quick-suite row.
  const PortfolioScheduler scheduler(4, /*base_seed=*/21, rank_forced());
  ASSERT_TRUE(scheduler.sharing().rank);
  for (const auto& bm : model::quick_suite()) {
    const RaceResult race = scheduler.race(bm.net, 0, engine_for(bm));
    ASSERT_TRUE(race.has_winner()) << bm.name;
    EXPECT_TRUE(race.rank_sharing) << bm.name;
    EXPECT_EQ(race.status() == BmcResult::Status::CounterexampleFound,
              bm.expect_fail)
        << bm.name;
    if (bm.expect_fail) {
      Job job;
      job.net = &bm.net;
      job.name = bm.name;
      job.config = engine_for(bm);
      job.config.policy = OrderingPolicy::Baseline;
      EXPECT_EQ(race.winning().result.counterexample_depth,
                run_job(job).result.counterexample_depth)
          << bm.name;
    }
  }
}

TEST(RankRaceTest, CoreRankingEntrantsActuallyPublish) {
  // A safe instance every entrant grinds through depth by depth: the
  // core-ranking policies publish one core per UNSAT depth they finish
  // (publishing is unconditional on the other threads' progress).
  const model::Benchmark bm = model::needle(6, 6, 40, 50);
  const PortfolioScheduler scheduler(2, /*base_seed=*/7, rank_forced());
  const RaceResult race =
      scheduler.race(bm.net, 0, engine_for(bm),
                     {OrderingPolicy::Static, OrderingPolicy::Dynamic});
  ASSERT_TRUE(race.has_winner());
  EXPECT_TRUE(race.rank_sharing);
  EXPECT_GT(race.ranks_published, 0u);
  // Engine-level accounting rides in the per-depth stats; the source
  // counts publish calls, so the sums line up exactly.
  std::uint64_t published = 0, refreshes = 0;
  for (const auto& entrant : race.entrants)
    for (const auto& d : entrant.result.per_depth) {
      published += d.ranks_published;
      refreshes += d.rank_refreshes;
    }
  EXPECT_EQ(published, race.ranks_published);
  EXPECT_EQ(refreshes, race.rank_refreshes);
  // The accumulation advanced at least once (epoch counts distinct score
  // states, bounded by the publish count).
  EXPECT_GT(race.rank_epoch, 0u);
  EXPECT_LE(race.rank_epoch, race.ranks_published);
}

TEST(RankRaceTest, RankSharingOffIsBitIdenticalToASoloRun) {
  // The PR-4-head determinism contract: with every exchange disabled, a
  // single-policy race (no rival, no cancellation) and a solo run of the
  // same job agree on every counter of every depth — in particular the
  // decision counts the refined ordering produces.
  const PortfolioScheduler scheduler(1, /*base_seed=*/5, exchange_off());
  for (const auto policy :
       {OrderingPolicy::Static, OrderingPolicy::Dynamic}) {
    const model::Benchmark bm = model::arbiter_safe(5);
    const bmc::EngineConfig engine = engine_for(bm);

    const RaceResult race = scheduler.race(bm.net, 0, engine, {policy});
    ASSERT_TRUE(race.has_winner());
    EXPECT_FALSE(race.rank_sharing);
    EXPECT_EQ(race.ranks_published, 0u);
    EXPECT_EQ(race.rank_refreshes, 0u);

    Job job;
    job.net = &bm.net;
    job.name = bm.name;
    job.config = engine;
    job.config.policy = policy;
    const JobResult solo = run_job(job);

    const auto& raced = race.winning().result;
    ASSERT_EQ(raced.status, solo.result.status);
    ASSERT_EQ(raced.per_depth.size(), solo.result.per_depth.size());
    for (std::size_t k = 0; k < raced.per_depth.size(); ++k) {
      const auto& r = raced.per_depth[k];
      const auto& s = solo.result.per_depth[k];
      EXPECT_EQ(r.decisions, s.decisions) << "depth " << k;
      EXPECT_EQ(r.propagations, s.propagations) << "depth " << k;
      EXPECT_EQ(r.conflicts, s.conflicts) << "depth " << k;
      // An engine-private accumulation still publishes into its own
      // LocalRankSource — that is the paper's loop, and it must look the
      // same raced or solo.
      EXPECT_EQ(r.ranks_published, s.ranks_published) << "depth " << k;
      EXPECT_EQ(r.rank_epoch, s.rank_epoch) << "depth " << k;
      // Mid-solve refreshes require a shared source.
      EXPECT_EQ(r.rank_refreshes, 0u);
      EXPECT_EQ(s.rank_refreshes, 0u);
    }
  }
}

TEST(RankRaceTest, ShardTwinsShareOneRankSource) {
  // Two copies of the same dynamic-policy job form one shard group with
  // a shared rank accumulation; both publish into it and the report
  // totals balance with the per-depth stats.
  const model::Benchmark bm = model::needle(6, 6, 40, 50);
  bmc::EngineConfig engine = engine_for(bm);
  engine.policy = OrderingPolicy::Dynamic;

  std::vector<Job> jobs(2);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].net = &bm.net;
    jobs[i].bad_index = 0;
    jobs[i].name = "twin/" + std::to_string(i);
    jobs[i].config = engine;
  }

  const PortfolioScheduler scheduler(2, /*base_seed=*/19, rank_forced());
  const BatchReport report = scheduler.run_batch(jobs);
  ASSERT_EQ(report.results.size(), 2u);
  for (const auto& r : report.results)
    EXPECT_EQ(r.result.status, BmcResult::Status::BoundReached) << r.name;

  std::uint64_t published = 0;
  for (const auto& r : report.results)
    for (const auto& d : r.result.per_depth) published += d.ranks_published;
  EXPECT_GT(report.ranks_published, 0u);
  EXPECT_EQ(published, report.ranks_published);
}

TEST(RankRaceTest, LoneConsumerLineupDemotesToPrivateRanking) {
  // {Static, Evsids}: one rank consumer, nobody to exchange with.  The
  // scheduler must NOT materialise a shared source (rank on, force off)
  // — and the lone consumer still runs the paper's loop through its
  // engine-private LocalRankSource, so its per-depth publish counters
  // stay alive.
  const model::Benchmark bm = model::needle(6, 6, 40, 50);
  const PortfolioScheduler scheduler(2, /*base_seed=*/11);  // defaults
  ASSERT_TRUE(scheduler.sharing().rank);
  const RaceResult race =
      scheduler.race(bm.net, 0, engine_for(bm),
                     {OrderingPolicy::Static, OrderingPolicy::Evsids});
  ASSERT_TRUE(race.has_winner());
  EXPECT_FALSE(race.rank_sharing);
  EXPECT_EQ(race.ranks_published, 0u);
  EXPECT_EQ(race.rank_refreshes, 0u);
  // entrants[0] is Static: its private accumulation published one core
  // per UNSAT depth it completed (unless it was cancelled before any).
  std::uint64_t static_published = 0;
  for (const auto& d : race.entrants[0].result.per_depth)
    static_published += d.ranks_published;
  if (race.winner == 0) {
    EXPECT_GT(static_published, 0u);
  }
}

TEST(RankRaceTest, DistinctFormulasDoNotShareRanks) {
  // Different properties of one netlist are different formulas: no shard
  // group forms, no shared source, report counters stay zero.
  const model::Benchmark bm = model::arbiter_buggy(4);
  ASSERT_GE(bm.net.bad_properties().size(), 1u);
  const std::vector<Job> jobs =
      shard_properties(bm.net, engine_for(bm), "arb");
  const PortfolioScheduler scheduler(2, /*base_seed=*/23);
  const BatchReport report = scheduler.run_batch(jobs);
  EXPECT_EQ(report.ranks_published, 0u);
  EXPECT_EQ(report.rank_refreshes, 0u);
}

TEST(RankRaceTest, MixedModeRaceSharesRanksSoundly) {
  // Incremental entrants interleave activation guards into their CNF
  // numbering; model-node-space merging plus per-entrant origin-map
  // projection must keep verdicts objective anyway.
  const model::Benchmark bm = model::lfsr_hit(8, 9);
  bmc::EngineConfig engine = engine_for(bm);
  engine.incremental = true;
  const PortfolioScheduler scheduler(4, /*base_seed=*/29);
  const RaceResult race = scheduler.race(bm.net, 0, engine);
  ASSERT_TRUE(race.has_winner());
  EXPECT_EQ(race.status(), BmcResult::Status::CounterexampleFound);

  Job job;
  job.net = &bm.net;
  job.name = bm.name;
  job.config = engine;
  job.config.policy = OrderingPolicy::Dynamic;
  EXPECT_EQ(race.winning().result.counterexample_depth,
            run_job(job).result.counterexample_depth);
}

}  // namespace
}  // namespace refbmc::portfolio
