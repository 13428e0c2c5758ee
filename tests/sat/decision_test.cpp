// The DecisionQueue's EVSIDS scorer (analysis bumps, polarity counts)
// and pick_branch — plus the EVSIDS-scored solver end to end.  The Chaff
// scorer, the rank modes and the §3.3 switch are in heuristic_test.
#include "sat/decision.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "../helpers.hpp"
#include "sat/reference_solver.hpp"
#include "sat/solver.hpp"

namespace refbmc::sat {
namespace {

using test::load;
using test::model_satisfies;
using test::pigeonhole;

// The queue is pinned in place (its heap comparator captures `this`),
// so tests allocate it behind a unique_ptr.
std::unique_ptr<DecisionQueue> make(DecisionMode scorer, RankMode rank,
                                    int nvars) {
  auto q = std::make_unique<DecisionQueue>(scorer, rank,
                                           /*update_period=*/256);
  for (int i = 0; i < nvars; ++i) q->add_var();
  return q;
}

// ---- the EVSIDS scorer -----------------------------------------------------

TEST(DecisionQueueTest, EvsidsOrdersByAnalysisBumps) {
  auto q = make(DecisionMode::Evsids, RankMode::None, 3);
  // Original-literal counts do not move EVSIDS activity — only analysis
  // bumps do, and later bumps weigh more after decay inflation.
  for (int i = 0; i < 50; ++i) q->on_original_literal(Lit::make(0));
  q->on_analyzed_var(1);
  q->on_conflict();  // inflates the increment
  q->on_analyzed_var(2);
  EXPECT_EQ(q->pop(), 2);
  EXPECT_EQ(q->pop(), 1);
  EXPECT_EQ(q->pop(), 0);
}

TEST(DecisionQueueTest, EvsidsPhaseFollowsPolarityCounts) {
  auto q = make(DecisionMode::Evsids, RankMode::None, 1);
  EXPECT_EQ(q->pick_phase(0), Lit::make(0));  // ties go positive
  q->on_original_literal(Lit::make(0, true));
  q->on_original_literal(Lit::make(0, true));
  q->on_original_literal(Lit::make(0));
  EXPECT_EQ(q->pick_phase(0), Lit::make(0, true));
}

// ---- pick_branch -----------------------------------------------------------

TEST(DecisionQueueTest, PickBranchSkipsAssigned) {
  auto q = make(DecisionMode::Evsids, RankMode::None, 3);
  q->on_analyzed_var(2);  // highest priority
  Trail trail;
  for (int i = 0; i < 3; ++i) trail.new_var();
  trail.new_decision_level();
  trail.assign(Lit::make(2, true), kClauseRefUndef);
  // var2 is assigned: pick_branch must skip it and return var0 or var1.
  const Lit picked = q->pick_branch(trail);
  ASSERT_FALSE(picked.is_undef());
  EXPECT_NE(picked.var(), 2);
}

// ---- the EVSIDS solver end to end ------------------------------------------

SolverConfig evsids_config() {
  SolverConfig cfg;
  cfg.decision = DecisionMode::Evsids;
  return cfg;
}

TEST(EvsidsSolverTest, AgreesOnSatAndUnsat) {
  {
    Solver s(evsids_config());
    load(s, pigeonhole(4, 4));
    ASSERT_EQ(s.solve(), Result::Sat);
    EXPECT_TRUE(model_satisfies(s, pigeonhole(4, 4)));
  }
  {
    Solver s(evsids_config());
    load(s, pigeonhole(7, 6));
    EXPECT_EQ(s.solve(), Result::Unsat);
  }
}

TEST(EvsidsSolverTest, RandomFormulasAgreeWithReference) {
  Rng rng(0xE51D5);
  for (int iter = 0; iter < 40; ++iter) {
    const int nv = rng.next_int(8, 14);
    const Cnf cnf = test::random_ksat(rng, nv, nv * 4, 3);
    Solver s(evsids_config());
    load(s, cnf);
    ASSERT_EQ(s.solve(), reference_solve(cnf)) << iter;
  }
}

TEST(EvsidsSolverTest, CoreExtractionStillWorks) {
  Solver s(evsids_config());
  load(s, pigeonhole(6, 5));
  ASSERT_EQ(s.solve(), Result::Unsat);
  EXPECT_FALSE(s.unsat_core().empty());
}

TEST(EvsidsSolverTest, StaticRankRidesOnEvsids) {
  // The rank feed composes with the EVSIDS scorer exactly as with Chaff.
  SolverConfig cfg = evsids_config();
  cfg.rank_mode = RankMode::Static;
  Solver s(cfg);
  load(s, pigeonhole(5, 4));
  std::vector<double> rank(static_cast<std::size_t>(s.num_vars()), 1.0);
  s.set_variable_rank(rank);
  EXPECT_EQ(s.solve(), Result::Unsat);
  EXPECT_FALSE(s.stats().rank_switched);
}

}  // namespace
}  // namespace refbmc::sat
