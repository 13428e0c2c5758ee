// End-to-end flows mirroring real usage: AIGER file in, verdict and
// validated trace out; ranking persistence across an engine run; the
// §3.1 overhead claim in its functional form (CDG on/off changes no
// verdict); determinism of whole runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>

#include "bmc/engine.hpp"
#include "model/aiger.hpp"
#include "model/benchgen.hpp"

namespace refbmc::bmc {
namespace {

TEST(EndToEndTest, AigerFileToVerdict) {
  const auto bm = model::fifo_buggy(3);
  const std::string path = ::testing::TempDir() + "/refbmc_e2e.aag";
  model::write_aiger_file(path, bm.net);

  const model::Netlist loaded = model::read_aiger_file(path);
  EngineConfig cfg;
  cfg.policy = OrderingPolicy::Dynamic;
  cfg.max_depth = bm.suggested_bound;
  const BmcResult r = BmcEngine(loaded, cfg).run();
  ASSERT_EQ(r.status, BmcResult::Status::CounterexampleFound);
  EXPECT_EQ(r.counterexample_depth, bm.expect_depth);
  EXPECT_TRUE(validate_trace(loaded, *r.counterexample));
  std::remove(path.c_str());
}

TEST(EndToEndTest, RankingConcentratesOnCoreRegisters) {
  // After a run on a distracted circuit, the accumulated register-axis
  // scores of the original (core) registers must dominate those of the
  // distractor registers — the mechanism behind Fig. 3/4.
  const auto bm = model::with_distractor(model::counter_safe(6, 40, 50), 16, 5);
  EngineConfig cfg;
  cfg.policy = OrderingPolicy::Static;
  cfg.max_depth = 10;
  // The input-free counter folds to constants under frame-wise
  // simplification (its registers then never appear in any core);
  // this test asserts the paper's register-axis story on the textbook
  // encoding.
  cfg.simplify = false;
  BmcEngine engine(bm.net, cfg);
  ASSERT_EQ(engine.run().status, BmcResult::Status::BoundReached);

  const CoreRanking& ranking = engine.ranking();
  double best_counter = 0.0, best_distractor = 0.0;
  for (const model::NodeId latch : bm.net.latches()) {
    const double score = ranking.node_score(latch);
    if (bm.net.name(latch).rfind("dreg", 0) == 0)
      best_distractor = std::max(best_distractor, score);
    else
      best_counter = std::max(best_counter, score);
  }
  EXPECT_GT(best_counter, 0.0);
  EXPECT_GT(best_counter, best_distractor);
}

TEST(EndToEndTest, CdgTrackingDoesNotChangeVerdicts) {
  // Functional half of the §3.1 claim (the cost half is bench_overhead_cdg).
  for (const auto& bm : model::quick_suite()) {
    SCOPED_TRACE(bm.name);
    EngineConfig with;
    with.policy = OrderingPolicy::Baseline;
    with.always_track_cdg = true;
    with.max_depth = bm.suggested_bound;
    EngineConfig without = with;
    without.always_track_cdg = false;
    const BmcResult a = BmcEngine(bm.net, with).run();
    const BmcResult b = BmcEngine(bm.net, without).run();
    EXPECT_EQ(a.status, b.status);
    EXPECT_EQ(a.counterexample_depth, b.counterexample_depth);
    // Identical search trajectory: the CDG is pure bookkeeping.
    EXPECT_EQ(a.total_decisions(), b.total_decisions());
    EXPECT_EQ(a.total_conflicts(), b.total_conflicts());
  }
}

TEST(EndToEndTest, RunsAreDeterministic) {
  const auto bm = model::with_distractor(model::fifo_safe(4), 16, 9);
  const auto run_once = [&]() {
    EngineConfig cfg;
    cfg.policy = OrderingPolicy::Dynamic;
    cfg.max_depth = 10;
    return BmcEngine(bm.net, cfg).run();
  };
  const BmcResult a = run_once();
  const BmcResult b = run_once();
  ASSERT_EQ(a.per_depth.size(), b.per_depth.size());
  for (std::size_t i = 0; i < a.per_depth.size(); ++i) {
    EXPECT_EQ(a.per_depth[i].decisions, b.per_depth[i].decisions) << i;
    EXPECT_EQ(a.per_depth[i].conflicts, b.per_depth[i].conflicts) << i;
    EXPECT_EQ(a.per_depth[i].core_vars, b.per_depth[i].core_vars) << i;
  }
}

TEST(EndToEndTest, CoreSizesStayBoundedAcrossDepths) {
  // Cores track the abstract model, not the whole instance: the fraction
  // of core variables per instance must not approach 1 on a distracted
  // circuit.
  const auto bm = model::with_distractor(model::counter_safe(8, 200, 250), 32, 7);
  EngineConfig cfg;
  cfg.policy = OrderingPolicy::Static;
  cfg.max_depth = 12;
  const BmcResult r = BmcEngine(bm.net, cfg).run();
  ASSERT_EQ(r.status, BmcResult::Status::BoundReached);
  for (const auto& d : r.per_depth) {
    if (d.depth < 2) continue;  // tiny instances are all core
    EXPECT_LT(static_cast<double>(d.core_vars),
              0.8 * static_cast<double>(d.cnf_vars))
        << "depth " << d.depth;
  }
}

TEST(EndToEndTest, StaticOrderingReusedAcrossEngines) {
  // Warm-starting a second engine pass (e.g. after raising the bound) via
  // start_depth: the Fig. 5 loop tolerates resuming at any depth.
  const auto bm = model::counter_safe(8, 200, 250);
  EngineConfig cfg;
  cfg.policy = OrderingPolicy::Static;
  cfg.max_depth = 6;
  BmcEngine first(bm.net, cfg);
  ASSERT_EQ(first.run().status, BmcResult::Status::BoundReached);

  EngineConfig resume = cfg;
  resume.start_depth = 7;
  resume.max_depth = 10;
  BmcEngine second(bm.net, resume);
  const BmcResult r = second.run();
  EXPECT_EQ(r.status, BmcResult::Status::BoundReached);
  EXPECT_EQ(r.per_depth.size(), 4u);
}

}  // namespace
}  // namespace refbmc::bmc
