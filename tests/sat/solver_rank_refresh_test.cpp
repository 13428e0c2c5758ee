// Mid-solve rank refresh (the portfolio's shared-ordering seam):
//
//   * the solver polls RankRefresh at level-0 boundaries (solve start
//     and restarts) and re-feeds the decision queue when an update is
//     pending — a refresh applied at solve start is indistinguishable
//     from having set the ranks up front;
//   * with no update pending the hook is invisible: trajectories are
//     bit-identical to a solver without it;
//   * a refresh never resurrects rank-primary ordering after the
//     dynamic fallback switched — §3.3's "this instance is hard"
//     verdict outlives it (DecisionQueue::refresh_ranks contract).
#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "../helpers.hpp"
#include "sat/solver.hpp"

namespace refbmc::sat {
namespace {

using test::load;
using test::pigeonhole;

/// Scripted refresh source: hands out `ranks` for `updates` polls, then
/// goes quiet.  Counts how many times the solver actually drew on it.
class StubRefresh final : public RankRefresh {
 public:
  StubRefresh(std::vector<double> ranks, int updates)
      : ranks_(std::move(ranks)), updates_(updates) {}

  bool has_update() const override { return updates_ > 0; }
  std::span<const double> refresh() override {
    --updates_;
    ++refreshes_;
    return ranks_;
  }
  int refreshes() const { return refreshes_; }

 private:
  std::vector<double> ranks_;
  int updates_;
  int refreshes_ = 0;
};

TEST(SolverRankRefreshTest, SolveStartRefreshEqualsUpfrontRank) {
  // Solver A gets rank r0 then a pending refresh to r1; solver B gets r1
  // directly.  The refresh lands before the first decision, so both must
  // walk the identical trajectory.
  const Cnf cnf = pigeonhole(5, 4);
  SolverConfig cfg;
  cfg.rank_mode = RankMode::Static;

  Solver refreshed(cfg);
  load(refreshed, cnf);
  std::vector<double> r0(static_cast<std::size_t>(refreshed.num_vars()), 0.0);
  std::vector<double> r1 = r0;
  for (std::size_t i = 0; i < r1.size(); ++i)
    r1[i] = static_cast<double>((i * 3) % 7);
  refreshed.set_variable_rank(r0);
  StubRefresh stub(r1, /*updates=*/1);
  refreshed.set_rank_refresh(&stub);
  ASSERT_EQ(refreshed.solve(), Result::Unsat);
  EXPECT_EQ(stub.refreshes(), 1);
  EXPECT_EQ(refreshed.stats().rank_refreshes, 1u);

  Solver upfront(cfg);
  load(upfront, cnf);
  upfront.set_variable_rank(r1);
  ASSERT_EQ(upfront.solve(), Result::Unsat);
  EXPECT_EQ(upfront.stats().rank_refreshes, 0u);

  EXPECT_EQ(refreshed.stats().decisions, upfront.stats().decisions);
  EXPECT_EQ(refreshed.stats().propagations, upfront.stats().propagations);
  EXPECT_EQ(refreshed.stats().conflicts, upfront.stats().conflicts);
}

TEST(SolverRankRefreshTest, QuietHookLeavesTrajectoryBitIdentical) {
  const Cnf cnf = pigeonhole(6, 5);
  SolverConfig cfg;
  cfg.rank_mode = RankMode::Static;

  const auto run = [&](bool with_hook) {
    Solver s(cfg);
    load(s, cnf);
    s.set_variable_rank(std::vector<double>(
        static_cast<std::size_t>(s.num_vars()), 1.0));
    StubRefresh stub({}, /*updates=*/0);  // never has an update
    if (with_hook) s.set_rank_refresh(&stub);
    EXPECT_EQ(s.solve(), Result::Unsat);
    EXPECT_EQ(s.stats().rank_refreshes, 0u);
    return s.stats().decisions;
  };
  EXPECT_EQ(run(true), run(false));
}

TEST(SolverRankRefreshTest, RestartBoundariesDrainPendingUpdates) {
  // PHP(7,6) conflicts enough to restart many times with a small base;
  // a stub with several pending updates is drained one per boundary.
  SolverConfig cfg;
  cfg.rank_mode = RankMode::Static;
  cfg.restart_base = 4;
  Solver s(cfg);
  load(s, pigeonhole(7, 6));
  std::vector<double> ranks(static_cast<std::size_t>(s.num_vars()), 0.0);
  for (std::size_t i = 0; i < ranks.size(); ++i)
    ranks[i] = static_cast<double>(i % 4);
  s.set_variable_rank(ranks);
  StubRefresh stub(ranks, /*updates=*/3);
  s.set_rank_refresh(&stub);
  ASSERT_EQ(s.solve(), Result::Unsat);
  EXPECT_EQ(stub.refreshes(), 3);
  EXPECT_EQ(s.stats().rank_refreshes, 3u);
}

TEST(SolverRankRefreshTest, RefreshDoesNotResurrectSwitchedFallback) {
  // Queue-level contract: after the dynamic fallback fired, refresh_ranks
  // installs values but neither rebuilds rank-primary order nor clears
  // the switch — over either scorer.
  for (const DecisionMode mode : {DecisionMode::Chaff, DecisionMode::Evsids}) {
    SCOPED_TRACE(mode == DecisionMode::Chaff ? "chaff" : "evsids");
    DecisionQueue queue(mode, RankMode::Dynamic);
    for (int v = 0; v < 8; ++v) queue.add_var();
    const std::vector<double> ranks{7, 6, 5, 4, 3, 2, 1, 0};
    EXPECT_TRUE(queue.refresh_ranks(ranks));  // rank active: heap re-keyed

    // Force the switch: 63 literals / divisor 64 puts the threshold at 0
    // decisions, so the first decision passes it.
    EXPECT_TRUE(queue.on_decision(/*num_original_literals=*/63,
                                  /*switch_divisor=*/64));
    ASSERT_TRUE(queue.switched());
    ASSERT_FALSE(queue.rank_active());

    EXPECT_FALSE(queue.refresh_ranks(ranks));  // values only, no rebuild
    EXPECT_TRUE(queue.switched());
    EXPECT_FALSE(queue.rank_active());

    // The next solve re-arms the fallback as before.
    queue.reset_switch();
    EXPECT_FALSE(queue.switched());
    EXPECT_TRUE(queue.rank_active());
  }
}

TEST(SolverRankRefreshTest, VerdictsSurviveArbitraryRefreshes) {
  // Correctness is ordering-independent: hammering the solver with a
  // fresh (different) rank at every boundary changes no verdict.
  class Rotating final : public RankRefresh {
   public:
    explicit Rotating(std::size_t n) : ranks_(n, 0.0) {}
    bool has_update() const override { return true; }
    std::span<const double> refresh() override {
      for (std::size_t i = 0; i < ranks_.size(); ++i)
        ranks_[i] = static_cast<double>((i + step_) % 5);
      ++step_;
      return ranks_;
    }

   private:
    std::vector<double> ranks_;
    std::size_t step_ = 0;
  };

  for (const RankMode mode : {RankMode::Static, RankMode::Dynamic}) {
    SolverConfig cfg;
    cfg.rank_mode = mode;
    cfg.restart_base = 8;
    {
      Solver s(cfg);
      load(s, pigeonhole(6, 5));
      Rotating rot(static_cast<std::size_t>(s.num_vars()));
      s.set_rank_refresh(&rot);
      EXPECT_EQ(s.solve(), Result::Unsat) << to_string(mode);
      EXPECT_GT(s.stats().rank_refreshes, 0u);
    }
    {
      Solver s(cfg);
      load(s, pigeonhole(4, 4));
      Rotating rot(static_cast<std::size_t>(s.num_vars()));
      s.set_rank_refresh(&rot);
      EXPECT_EQ(s.solve(), Result::Sat) << to_string(mode);
    }
  }
}

}  // namespace
}  // namespace refbmc::sat
