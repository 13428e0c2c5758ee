// Lemma sharing across the portfolio, end to end.
//
//   * soundness: a sharing race never changes a verdict or a cex depth —
//     imported clauses are tape-implied, so they only prune search;
//   * liveness: on conflict-heavy instances the pool counters actually
//     move;
//   * determinism: with sharing disabled a race is bit-identical to an
//     exchange-free one — a sharing-off race entrant matches a solo run
//     of the same job stat for stat, including the decision counts the
//     refined ordering drives and the cores it accumulates.
#include <atomic>
#include <cstdint>

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

SharingConfig sharing_off() {
  SharingConfig cfg;
  cfg.enabled = false;
  return cfg;
}

TEST(ShareRaceTest, SharingRaceVerdictsMatchTheSuite) {
  // The race-is-a-pure-accelerator invariant must survive clause
  // exchange: same verdict, same cex depth, on every quick-suite row.
  ASSERT_TRUE(SharingConfig{}.enabled);  // sharing on by default
  for (const auto& bm : model::quick_suite()) {
    const RaceResult race = portfolio::race(bm.net, 0, engine_for(bm));
    ASSERT_TRUE(race.has_winner()) << bm.name;
    EXPECT_TRUE(race.sharing) << bm.name;
    EXPECT_EQ(race.status() == BmcResult::Status::CounterexampleFound,
              bm.expect_fail)
        << bm.name;
    if (bm.expect_fail) {
      // cex depth is objective: the shallowest violation.
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

TEST(ShareRaceTest, ConflictHeavyRaceActuallyExchangesClauses) {
  // A safe instance every entrant must grind through end to end: each
  // solver learns small clauses (exports are unconditional on the other
  // threads), so the pool fills regardless of scheduling.
  const model::Benchmark bm = model::needle(6, 6, 40, 50);
  const RaceResult race = portfolio::race(bm.net, 0, engine_for(bm));
  ASSERT_TRUE(race.has_winner());
  EXPECT_TRUE(race.sharing);
  EXPECT_GT(race.clauses_exported, 0u);
  // Entrant-level accounting rides along in the per-depth stats; the
  // solver counter counts pool acceptances, so the sums line up.
  std::uint64_t accepted = 0;
  for (const auto& entrant : race.entrants)
    for (const auto& d : entrant.result.per_depth)
      accepted += d.clauses_exported;
  EXPECT_EQ(accepted, race.clauses_exported);
}

TEST(ShareRaceTest, SharingOffRaceIsBitIdenticalToASoloRun) {
  // SharingConfig{.enabled = false} must reproduce an exchange-free
  // race exactly: a single-policy race (no rival, so no cancellation)
  // and a solo run of the same job agree on every counter of every
  // depth — for the core-ranking policies too, whose engine refines its
  // own ordering from its own cores raced or solo.
  for (const auto policy :
       {OrderingPolicy::Static, OrderingPolicy::Dynamic,
        OrderingPolicy::Evsids}) {
    const model::Benchmark bm = model::arbiter_safe(5);
    const bmc::EngineConfig engine = engine_for(bm);

    const RaceResult race =
        portfolio::race(bm.net, 0, engine, {policy}, sharing_off());
    ASSERT_TRUE(race.has_winner());
    EXPECT_FALSE(race.sharing);
    EXPECT_EQ(race.clauses_exported, 0u);
    EXPECT_EQ(race.clauses_imported, 0u);

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
      EXPECT_EQ(r.cnf_vars, s.cnf_vars) << "depth " << k;
      EXPECT_EQ(r.cnf_clauses, s.cnf_clauses) << "depth " << k;
      EXPECT_EQ(r.ranks_published, s.ranks_published) << "depth " << k;
      EXPECT_EQ(r.clauses_exported, 0u);
      EXPECT_EQ(r.clauses_imported, 0u);
      EXPECT_EQ(r.import_propagations, 0u);
    }
  }
}

TEST(ShareRaceTest, IncrementalEntrantsShareSoundly) {
  // Mixed-mode sharing: incremental sessions interleave activation
  // guards into their variable space; the endpoint's translation must
  // keep verdicts objective anyway.
  const model::Benchmark bm = model::lfsr_hit(8, 9);
  bmc::EngineConfig engine = engine_for(bm);
  engine.incremental = true;
  const RaceResult race = portfolio::race(bm.net, 0, engine);
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
