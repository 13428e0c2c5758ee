// Engine behaviour: verdicts, depths, per-depth stats, resource limits.
#include "bmc/engine.hpp"

#include <gtest/gtest.h>

#include "model/benchgen.hpp"
#include "model/builder.hpp"

namespace refbmc::bmc {
namespace {

TEST(EngineTest, FindsCounterexampleAtExactDepth) {
  const auto bm = model::counter_reach(5, 12, true);
  EngineConfig cfg;
  cfg.policy = OrderingPolicy::Dynamic;
  cfg.max_depth = 20;
  const BmcResult r = BmcEngine(bm.net, cfg).run();
  EXPECT_EQ(r.status, BmcResult::Status::CounterexampleFound);
  EXPECT_EQ(r.counterexample_depth, 12);
  ASSERT_TRUE(r.counterexample.has_value());
  EXPECT_EQ(r.counterexample->depth, 12);
  EXPECT_TRUE(validate_trace(bm.net, *r.counterexample));
}

TEST(EngineTest, BoundReachedOnPassingProperty) {
  const auto bm = model::counter_safe(6, 40, 50);
  EngineConfig cfg;
  cfg.policy = OrderingPolicy::Static;
  cfg.max_depth = 15;
  const BmcResult r = BmcEngine(bm.net, cfg).run();
  EXPECT_EQ(r.status, BmcResult::Status::BoundReached);
  EXPECT_FALSE(r.counterexample.has_value());
  EXPECT_EQ(r.last_completed_depth, 15);
  EXPECT_EQ(r.per_depth.size(), 16u);  // depths 0..15
}

TEST(EngineTest, PerDepthStatsAreComplete) {
  const auto bm = model::fifo_safe(3);
  EngineConfig cfg;
  cfg.policy = OrderingPolicy::Static;
  cfg.max_depth = 8;
  BmcEngine engine(bm.net, cfg);
  const BmcResult r = engine.run();
  ASSERT_EQ(r.per_depth.size(), 9u);
  for (int k = 0; k <= 8; ++k) {
    const DepthStats& d = r.per_depth[static_cast<std::size_t>(k)];
    EXPECT_EQ(d.depth, k);
    EXPECT_EQ(d.result, sat::Result::Unsat);
    EXPECT_GT(d.cnf_vars, 0u);
    EXPECT_GT(d.cnf_clauses, 0u);
    EXPECT_GT(d.core_clauses, 0u);
    EXPECT_GT(d.core_vars, 0u);
    EXPECT_GE(d.time_sec, 0.0);
  }
  EXPECT_GT(r.total_time_sec, 0.0);
}

TEST(EngineTest, RankingAccumulatesAcrossDepths) {
  const auto bm = model::fifo_safe(3);
  EngineConfig cfg;
  cfg.policy = OrderingPolicy::Static;
  cfg.max_depth = 6;
  BmcEngine engine(bm.net, cfg);
  engine.run();
  EXPECT_EQ(engine.ranking().num_updates(), 7u);
  EXPECT_FALSE(engine.ranking().scores().empty());
}

TEST(EngineTest, BaselineSkipsCoreTracking) {
  const auto bm = model::counter_safe(5, 20, 25);
  EngineConfig cfg;
  cfg.policy = OrderingPolicy::Baseline;
  cfg.max_depth = 5;
  BmcEngine engine(bm.net, cfg);
  const BmcResult r = engine.run();
  for (const auto& d : r.per_depth) EXPECT_EQ(d.core_clauses, 0u);
  EXPECT_EQ(engine.ranking().num_updates(), 0u);
}

TEST(EngineTest, BaselineCanTrackCoresOnDemand) {
  const auto bm = model::counter_safe(5, 20, 25);
  EngineConfig cfg;
  cfg.policy = OrderingPolicy::Baseline;
  cfg.always_track_cdg = true;
  cfg.max_depth = 4;
  const BmcResult r = BmcEngine(bm.net, cfg).run();
  for (const auto& d : r.per_depth) EXPECT_GT(d.core_clauses, 0u);
}

TEST(EngineTest, VerifyCoresOptionChecksEveryDepth) {
  const auto bm = model::fifo_safe(3);
  EngineConfig cfg;
  cfg.policy = OrderingPolicy::Dynamic;
  cfg.verify_cores = true;  // would throw on a bogus core
  cfg.max_depth = 6;
  EXPECT_NO_THROW(BmcEngine(bm.net, cfg).run());
}

TEST(EngineTest, StartDepthSkipsShallowInstances) {
  const auto bm = model::counter_reach(5, 8, false);
  EngineConfig cfg;
  cfg.start_depth = 5;
  cfg.max_depth = 12;
  const BmcResult r = BmcEngine(bm.net, cfg).run();
  EXPECT_EQ(r.status, BmcResult::Status::CounterexampleFound);
  EXPECT_EQ(r.counterexample_depth, 8);
  EXPECT_EQ(r.per_depth.front().depth, 5);
}

TEST(EngineTest, TotalTimeLimitStopsEarly) {
  const auto bm = model::with_distractor(model::fifo_safe(5), 48, 3);
  EngineConfig cfg;
  cfg.policy = OrderingPolicy::Baseline;
  cfg.max_depth = 1000;
  cfg.total_time_limit_sec = 0.2;
  const BmcResult r = BmcEngine(bm.net, cfg).run();
  EXPECT_EQ(r.status, BmcResult::Status::ResourceLimit);
  EXPECT_LT(r.last_completed_depth, 1000);
}

TEST(EngineTest, PerInstanceConflictLimitReportsResourceLimit) {
  const auto bm = model::with_distractor(model::accumulator_reach(16, 4, 255), 16, 4);
  EngineConfig cfg;
  cfg.policy = OrderingPolicy::Baseline;
  cfg.max_depth = 16;
  cfg.per_instance_conflict_limit = 1;
  const BmcResult r = BmcEngine(bm.net, cfg).run();
  EXPECT_EQ(r.status, BmcResult::Status::ResourceLimit);
}

TEST(EngineTest, InvalidConfigRejected) {
  const auto bm = model::counter_reach(3, 2, false);
  EngineConfig cfg;
  cfg.start_depth = 5;
  cfg.max_depth = 4;
  EXPECT_THROW(BmcEngine(bm.net, cfg), std::invalid_argument);
  cfg.start_depth = -1;
  EXPECT_THROW(BmcEngine(bm.net, cfg), std::invalid_argument);
}

TEST(EngineTest, BadIndexSelectsProperty) {
  model::Netlist net;
  model::Builder b(net);
  const model::Word cnt = b.latch_word("c", 4, 0);
  b.set_next_word(cnt, b.increment(cnt));
  net.add_bad(b.eq_const(cnt, 3), "at3");
  net.add_bad(b.eq_const(cnt, 7), "at7");
  EngineConfig cfg;
  cfg.policy = OrderingPolicy::Baseline;
  cfg.max_depth = 10;
  EXPECT_EQ(BmcEngine(net, cfg, 0).run().counterexample_depth, 3);
  EXPECT_EQ(BmcEngine(net, cfg, 1).run().counterexample_depth, 7);
}

TEST(EngineTest, AnyModeFindsSameDepthFromScratch) {
  const auto bm = model::counter_reach(5, 9, true);
  EngineConfig cfg;
  cfg.bad_mode = BadMode::Any;
  cfg.max_depth = 15;
  const BmcResult r = BmcEngine(bm.net, cfg).run();
  EXPECT_EQ(r.status, BmcResult::Status::CounterexampleFound);
  EXPECT_EQ(r.counterexample_depth, 9);
  ASSERT_TRUE(r.counterexample.has_value());
  EXPECT_TRUE(validate_trace(bm.net, *r.counterexample));
}

TEST(EngineTest, TotalsAggregatePerDepth) {
  const auto bm = model::fifo_safe(3);
  EngineConfig cfg;
  cfg.max_depth = 5;
  const BmcResult r = BmcEngine(bm.net, cfg).run();
  std::uint64_t dec = 0, props = 0, confl = 0;
  for (const auto& d : r.per_depth) {
    dec += d.decisions;
    props += d.propagations;
    confl += d.conflicts;
  }
  EXPECT_EQ(r.total_decisions(), dec);
  EXPECT_EQ(r.total_propagations(), props);
  EXPECT_EQ(r.total_conflicts(), confl);
}

}  // namespace
}  // namespace refbmc::bmc
