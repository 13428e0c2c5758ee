// Basic solver behaviour: trivial formulas, unit propagation at the root,
// API contracts.
#include "sat/solver.hpp"

#include <gtest/gtest.h>

#include "../helpers.hpp"

namespace refbmc::sat {
namespace {

using test::as_vector;
using test::lits;

TEST(SolverBasicTest, EmptyFormulaIsSat) {
  Solver s;
  EXPECT_EQ(s.solve(), Result::Sat);
}

TEST(SolverBasicTest, SingleUnitClause) {
  Solver s;
  const Var x = s.new_var();
  s.add_clause({Lit::make(x)});
  EXPECT_EQ(s.solve(), Result::Sat);
  EXPECT_EQ(s.model_value(x), l_True);
}

TEST(SolverBasicTest, ContradictoryUnitsAreUnsat) {
  Solver s;
  const Var x = s.new_var();
  EXPECT_TRUE(s.add_clause({Lit::make(x)}));
  EXPECT_FALSE(s.add_clause({Lit::make(x, true)}));
  EXPECT_FALSE(s.okay());
  EXPECT_EQ(s.solve(), Result::Unsat);
}

TEST(SolverBasicTest, EmptyClauseIsUnsat) {
  Solver s;
  EXPECT_FALSE(s.add_clause({}));
  EXPECT_EQ(s.solve(), Result::Unsat);
  EXPECT_EQ(s.unsat_core(), std::vector<ClauseId>{1});
}

TEST(SolverBasicTest, UnitChainPropagation) {
  // x1 ∧ (¬x1 ∨ x2) ∧ (¬x2 ∨ x3): all forced true with zero decisions.
  Solver s;
  for (int i = 0; i < 3; ++i) s.new_var();
  s.add_clause(lits({1}));
  s.add_clause(lits({-1, 2}));
  s.add_clause(lits({-2, 3}));
  EXPECT_EQ(s.solve(), Result::Sat);
  EXPECT_EQ(s.stats().decisions, 0u);
  for (int v = 0; v < 3; ++v) EXPECT_EQ(s.model_value(v), l_True);
}

TEST(SolverBasicTest, UnitChainConflict) {
  Solver s;
  for (int i = 0; i < 3; ++i) s.new_var();
  s.add_clause(lits({1}));
  s.add_clause(lits({-1, 2}));
  s.add_clause(lits({-2, 3}));
  EXPECT_FALSE(s.add_clause(lits({-3})));
  EXPECT_EQ(s.solve(), Result::Unsat);
  // The core is the whole chain.
  EXPECT_EQ(s.unsat_core(), (std::vector<ClauseId>{1, 2, 3, 4}));
}

TEST(SolverBasicTest, DuplicateLiteralsDeduped) {
  Solver s;
  s.new_var();
  s.add_clause(lits({1, 1, 1}));
  EXPECT_EQ(as_vector(s.original_clause(1)), lits({1}));
  EXPECT_EQ(s.solve(), Result::Sat);
}

TEST(SolverBasicTest, TautologyIgnoredButKeepsId) {
  Solver s;
  s.new_var();
  s.new_var();
  s.add_clause(lits({1, -1}));  // id 1, tautology
  s.add_clause(lits({2}));      // id 2
  EXPECT_EQ(s.num_original_clauses(), 2u);
  EXPECT_FALSE(s.add_clause(lits({-2})));  // id 3
  EXPECT_EQ(s.solve(), Result::Unsat);
  // The tautology can never appear in a core.
  EXPECT_EQ(s.unsat_core(), (std::vector<ClauseId>{2, 3}));
}

TEST(SolverBasicTest, ClausesOverUnknownVariablesRejected) {
  Solver s;
  s.new_var();
  EXPECT_THROW(s.add_clause(lits({2})), std::invalid_argument);
  EXPECT_THROW(s.add_clause({kLitUndef}), std::invalid_argument);
}

TEST(SolverBasicTest, ModelAccessBeforeSatThrows) {
  Solver s;
  const Var x = s.new_var();
  EXPECT_THROW(s.model_value(x), std::invalid_argument);
}

TEST(SolverBasicTest, CoreWithoutUnsatThrows) {
  Solver s;
  s.new_var();
  s.add_clause(lits({1}));
  EXPECT_EQ(s.solve(), Result::Sat);
  EXPECT_THROW(s.unsat_core(), std::invalid_argument);
}

TEST(SolverBasicTest, CoreWithTrackingDisabledThrows) {
  SolverConfig cfg;
  cfg.track_cdg = false;
  Solver s(cfg);
  s.new_var();
  s.add_clause(lits({1}));
  s.add_clause(lits({-1}));
  EXPECT_EQ(s.solve(), Result::Unsat);
  EXPECT_THROW(s.unsat_core(), std::invalid_argument);
}

TEST(SolverBasicTest, SatisfiedAtRootClauseHandled) {
  Solver s;
  s.new_var();
  s.new_var();
  s.add_clause(lits({1}));
  s.add_clause(lits({1, 2}));  // already satisfied at the root
  EXPECT_EQ(s.solve(), Result::Sat);
}

TEST(SolverBasicTest, EffectivelyUnitAfterRootAssignments) {
  // x1 forced; (¬x1 ∨ x2) added afterwards becomes effectively unit.
  Solver s;
  s.new_var();
  s.new_var();
  s.add_clause(lits({1}));
  s.add_clause(lits({-1, 2}));
  EXPECT_EQ(s.value(Lit::from_dimacs(2)), l_True);  // propagated at add time
  EXPECT_EQ(s.solve(), Result::Sat);
}

TEST(SolverBasicTest, AddAfterUnsatKeepsIdsInSync) {
  Solver s;
  s.new_var();
  s.add_clause(lits({1}));
  s.add_clause(lits({-1}));
  EXPECT_FALSE(s.okay());
  EXPECT_FALSE(s.add_clause(lits({1, -1})));  // still consumes id 3
  EXPECT_EQ(s.num_original_clauses(), 3u);
  EXPECT_EQ(as_vector(s.original_clause(3)), lits({1, -1}));
}

TEST(SolverBasicTest, OriginalClauseAccessorBounds) {
  Solver s;
  s.new_var();
  s.add_clause(lits({1}));
  EXPECT_THROW(s.original_clause(0), std::invalid_argument);
  EXPECT_THROW(s.original_clause(2), std::invalid_argument);
}

TEST(SolverBasicTest, NumOriginalLiteralsCountsDeduped) {
  Solver s;
  s.new_var();
  s.new_var();
  s.add_clause(lits({1, 2}));
  s.add_clause(lits({1, 1}));
  EXPECT_EQ(s.num_original_literals(), 3u);
}

TEST(SolverBasicTest, SimpleBacktrackingProblem) {
  // (x1 ∨ x2) ∧ (¬x1 ∨ x2) ∧ (x1 ∨ ¬x2) — unique model x1=x2=true.
  Solver s;
  s.new_var();
  s.new_var();
  s.add_clause(lits({1, 2}));
  s.add_clause(lits({-1, 2}));
  s.add_clause(lits({1, -2}));
  EXPECT_EQ(s.solve(), Result::Sat);
  EXPECT_EQ(s.model_value(0), l_True);
  EXPECT_EQ(s.model_value(1), l_True);
}

TEST(SolverBasicTest, StatsPopulated) {
  Solver s;
  for (int i = 0; i < 2; ++i) s.new_var();
  s.add_clause(lits({1, 2}));
  s.add_clause(lits({-1, 2}));
  s.add_clause(lits({-2, 1}));
  s.add_clause(lits({-1, -2}));
  EXPECT_EQ(s.solve(), Result::Unsat);
  EXPECT_GT(s.stats().conflicts, 0u);
  EXPECT_GT(s.stats().propagations, 0u);
  EXPECT_GE(s.stats().solve_time_sec, 0.0);
}

}  // namespace
}  // namespace refbmc::sat
