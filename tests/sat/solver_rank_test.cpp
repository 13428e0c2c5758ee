// External variable ranking inside the solver (paper §3.3): static and
// dynamic combination with VSIDS.
#include <gtest/gtest.h>

#include "../helpers.hpp"
#include "obs/trace.hpp"
#include "sat/solver.hpp"

namespace refbmc::sat {
namespace {

using test::load;
using test::pigeonhole;

TEST(SolverRankTest, StaticRankSteersFirstDecision) {
  // Two independent satisfiable halves; the ranked variable is decided
  // first, which shows up as it being assigned by decision, not by BCP.
  SolverConfig cfg;
  cfg.rank_mode = RankMode::Static;
  Solver s(cfg);
  for (int i = 0; i < 4; ++i) s.new_var();
  s.add_clause({Lit::make(0), Lit::make(1)});
  s.add_clause({Lit::make(2), Lit::make(3)});
  const std::vector<double> rank{0.0, 0.0, 9.0, 0.0};
  s.set_variable_rank(rank);
  ASSERT_EQ(s.solve(), Result::Sat);
  EXPECT_GE(s.stats().decisions, 1u);
}

TEST(SolverRankTest, RanksAreAppliedPartially) {
  SolverConfig cfg;
  cfg.rank_mode = RankMode::Static;
  Solver s(cfg);
  for (int i = 0; i < 5; ++i) s.new_var();
  // Shorter vector than num_vars is allowed; the rest default to 0.
  const std::vector<double> rank{1.0, 2.0};
  EXPECT_NO_THROW(s.set_variable_rank(rank));
  // Longer than num_vars is rejected.
  const std::vector<double> too_long(7, 1.0);
  EXPECT_THROW(s.set_variable_rank(too_long), std::invalid_argument);
}

TEST(SolverRankTest, AllModesSolveIdentically) {
  // Correctness must be ordering-independent.
  for (const RankMode mode :
       {RankMode::None, RankMode::Static, RankMode::Dynamic}) {
    SolverConfig cfg;
    cfg.rank_mode = mode;
    {
      Solver s(cfg);
      load(s, pigeonhole(4, 4));
      std::vector<double> rank(static_cast<std::size_t>(s.num_vars()));
      for (std::size_t i = 0; i < rank.size(); ++i)
        rank[i] = static_cast<double>(i % 5);
      s.set_variable_rank(rank);
      EXPECT_EQ(s.solve(), Result::Sat) << to_string(mode);
    }
    {
      Solver s(cfg);
      load(s, pigeonhole(5, 4));
      std::vector<double> rank(static_cast<std::size_t>(s.num_vars()));
      for (std::size_t i = 0; i < rank.size(); ++i)
        rank[i] = static_cast<double>((i * 7) % 3);
      s.set_variable_rank(rank);
      EXPECT_EQ(s.solve(), Result::Unsat) << to_string(mode);
    }
  }
}

TEST(SolverRankTest, DynamicSwitchFiresOnHardProblem) {
  SolverConfig cfg;
  cfg.rank_mode = RankMode::Dynamic;
  cfg.dynamic_switch_divisor = 64;
  Solver s(cfg);
  load(s, pigeonhole(8, 7));
  // A deliberately misleading rank: spread thin over all variables.
  std::vector<double> rank(static_cast<std::size_t>(s.num_vars()), 0.0);
  rank[0] = 1.0;
  s.set_variable_rank(rank);
  ASSERT_EQ(s.solve(), Result::Unsat);
  // PHP(8,7) needs far more decisions than #literals/64, so the dynamic
  // policy must have fallen back to VSIDS.
  EXPECT_TRUE(s.stats().rank_switched);
}

TEST(SolverRankTest, DynamicSwitchRespectsDivisor) {
  // With a huge divisor the threshold is 0 decisions: switches instantly.
  SolverConfig cfg;
  cfg.rank_mode = RankMode::Dynamic;
  cfg.dynamic_switch_divisor = 1'000'000;
  Solver s(cfg);
  load(s, pigeonhole(4, 3));
  s.set_variable_rank(std::vector<double>(
      static_cast<std::size_t>(s.num_vars()), 1.0));
  ASSERT_EQ(s.solve(), Result::Unsat);
  EXPECT_TRUE(s.stats().rank_switched);
}

TEST(SolverRankTest, DynamicSwitchCountsDecisionsPerSolveCall) {
  // §3.3's switch is a per-instance verdict: a persistent solver counts
  // each solve() call's decisions from zero.  The first call refutes a
  // guarded pigeonhole instance in far more than #literals / 64
  // decisions and switches; the second, with the guard retired and every
  // pigeon variable fixed, decides a fresh clause in a couple of
  // decisions and keeps the rank primary.
  SolverConfig cfg;
  cfg.rank_mode = RankMode::Dynamic;
  Solver s(cfg);
  const Cnf php = pigeonhole(8, 7);
  for (int v = 0; v < php.num_vars; ++v) s.new_var();
  const Lit guard = Lit::make(s.new_var());
  for (std::vector<Lit> clause : php.clauses) {
    clause.push_back(~guard);
    s.add_clause(clause);
  }
  s.set_variable_rank(std::vector<double>(
      static_cast<std::size_t>(s.num_vars()), 1.0));
  ASSERT_EQ(s.solve({guard}), Result::Unsat);
  ASSERT_TRUE(s.stats().rank_switched);

  s.add_clause({~guard});
  for (int v = 0; v < php.num_vars; ++v) s.add_clause({Lit::make(v, true)});
  const Lit a = Lit::make(s.new_var());
  const Lit b = Lit::make(s.new_var());
  s.add_clause({a, b});
  const std::uint64_t threshold = s.num_original_literals() / 64;
  ASSERT_GT(s.stats().decisions, threshold);  // cumulative count is past it
  const std::uint64_t before = s.stats().decisions;
  ASSERT_EQ(s.solve(), Result::Sat);
  const std::uint64_t second = s.stats().decisions - before;
  EXPECT_GE(second, 1u);
  EXPECT_LE(second, threshold);
  EXPECT_FALSE(s.stats().rank_switched);
}

TEST(SolverRankTest, DynamicFallbackEventCarriesThePerCallCount) {
  // A persistent Dynamic solver refutes two guarded pigeonhole copies
  // over disjoint variables, one per solve() call, and switches in both.
  // The DynamicFallback trace event reports the count the switch
  // compared — the call's own decisions, threshold + 1 — not the
  // solver's running total.
  SolverConfig cfg;
  cfg.rank_mode = RankMode::Dynamic;
  Solver s(cfg);
  const Cnf php = pigeonhole(8, 7);
  const auto add_guarded_copy = [&] {
    const int base = s.num_vars();
    for (int v = 0; v < php.num_vars; ++v) s.new_var();
    const Lit guard = Lit::make(s.new_var());
    for (const std::vector<Lit>& clause : php.clauses) {
      std::vector<Lit> shifted{~guard};
      for (const Lit l : clause)
        shifted.push_back(Lit::make(base + l.var(), l.negated()));
      s.add_clause(shifted);
    }
    return guard;
  };
  const Lit first = add_guarded_copy();
  const Lit second = add_guarded_copy();
  s.set_variable_rank(std::vector<double>(
      static_cast<std::size_t>(s.num_vars()), 1.0));
  const std::uint64_t threshold = s.num_original_literals() / 64;

  ASSERT_TRUE(obs::trace_begin());
  ASSERT_EQ(s.solve({first}), Result::Unsat);
  ASSERT_TRUE(s.stats().rank_switched);
  ASSERT_EQ(s.solve({second}), Result::Unsat);
  ASSERT_TRUE(s.stats().rank_switched);
  const obs::TraceDump dump = obs::trace_end();

  std::vector<std::int64_t> values;
  for (const obs::TrackDump& track : dump.tracks)
    for (const obs::TraceEvent& e : track.events)
      if (e.kind == obs::EventKind::DynamicFallback) values.push_back(e.value);
  ASSERT_EQ(values.size(), 2u);
  EXPECT_EQ(values[0], static_cast<std::int64_t>(threshold + 1));
  EXPECT_EQ(values[1], static_cast<std::int64_t>(threshold + 1));
}

TEST(SolverRankTest, StaticNeverSwitches) {
  SolverConfig cfg;
  cfg.rank_mode = RankMode::Static;
  Solver s(cfg);
  load(s, pigeonhole(7, 6));
  s.set_variable_rank(std::vector<double>(
      static_cast<std::size_t>(s.num_vars()), 1.0));
  ASSERT_EQ(s.solve(), Result::Unsat);
  EXPECT_FALSE(s.stats().rank_switched);
}

TEST(SolverRankTest, PerfectRankReducesDecisionsOnSplitFormula) {
  // Formula = hard UNSAT kernel over a few variables ⊕ large easy
  // satisfiable part.  Ranking the kernel variables first should not do
  // worse than baseline on decisions (usually strictly better).
  const Cnf kernel = pigeonhole(4, 3);  // 12 vars, unsat
  const auto build = [&](SolverConfig cfg, Solver& s) {
    load(s, kernel);
    const int base = s.num_vars();
    for (int i = 0; i < 40; ++i) s.new_var();
    for (int i = 0; i < 39; ++i)
      s.add_clause({Lit::make(base + i), Lit::make(base + i + 1)});
    (void)cfg;
  };
  SolverConfig base_cfg;
  Solver baseline(base_cfg);
  build(base_cfg, baseline);
  ASSERT_EQ(baseline.solve(), Result::Unsat);

  SolverConfig rank_cfg;
  rank_cfg.rank_mode = RankMode::Static;
  Solver ranked(rank_cfg);
  build(rank_cfg, ranked);
  std::vector<double> rank(static_cast<std::size_t>(ranked.num_vars()), 0.0);
  for (int v = 0; v < kernel.num_vars; ++v)
    rank[static_cast<std::size_t>(v)] = 10.0;
  ranked.set_variable_rank(rank);
  ASSERT_EQ(ranked.solve(), Result::Unsat);

  EXPECT_LE(ranked.stats().decisions, baseline.stats().decisions);
}

}  // namespace
}  // namespace refbmc::sat
