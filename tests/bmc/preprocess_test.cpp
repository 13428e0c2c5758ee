// Tape preprocessing (PR 7): the clause-level simplification pass —
// subsumption, self-subsuming resolution, pure literals, bounded
// variable elimination, unit propagation — plus the remapping contract
// that keeps trace extraction and the sharing seams sound: variable
// numbering preserved, frozen variables protected, witness completion
// extending simplified models back to the original formula, and
// `preprocess off` leaving the engine bit-identical.
#include "bmc/preprocess.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "bmc/engine.hpp"
#include "bmc/tape.hpp"
#include "model/aiger.hpp"
#include "model/benchgen.hpp"
#include "sat/solver.hpp"

namespace refbmc::bmc {
namespace {


sat::Lit pos(int v) { return sat::Lit::make(static_cast<sat::Var>(v)); }
sat::Lit neg(int v) {
  return sat::Lit::make(static_cast<sat::Var>(v), true);
}

SimplifyResult simplify(int num_vars, const ClauseList& clauses,
                        std::vector<char> frozen = {},
                        PreprocessOptions opts = {}) {
  opts.enabled = true;
  if (frozen.empty()) frozen.assign(static_cast<std::size_t>(num_vars), 0);
  PreprocessWorkspace ws;
  return TapePreprocessor(opts).run(num_vars, clauses, frozen, nullptr, ws);
}

std::vector<char> all_frozen(int num_vars) {
  return std::vector<char>(static_cast<std::size_t>(num_vars), 1);
}

bool contains_clause(const ClauseList& clauses, std::vector<sat::Lit> want) {
  std::sort(want.begin(), want.end());
  for (const std::span<const sat::Lit> c : clauses) {
    std::vector<sat::Lit> have(c.begin(), c.end());
    std::sort(have.begin(), have.end());
    if (have == want) return true;
  }
  return false;
}

TEST(PreprocessTest, SubsumptionRemovesSupersets) {
  // Freeze everything so only subsumption can act.
  const ClauseList in{{pos(0), pos(1)},
                   {pos(0), pos(1), pos(2)},
                   {neg(0), pos(2)}};
  const SimplifyResult r = simplify(3, in, all_frozen(3));
  EXPECT_FALSE(r.fell_back);
  EXPECT_EQ(r.stats.clauses_subsumed, 1u);
  ASSERT_EQ(r.clauses.size(), 2u);
  EXPECT_TRUE(contains_clause(r.clauses, {pos(0), pos(1)}));
  EXPECT_TRUE(contains_clause(r.clauses, {neg(0), pos(2)}));
  // Nothing was eliminated — every variable survives.
  EXPECT_EQ(r.remap.num_eliminated(), 0u);
  for (int v = 0; v < 3; ++v)
    EXPECT_TRUE(r.remap.is_kept(static_cast<sat::Var>(v)));
}

TEST(PreprocessTest, SelfSubsumingResolutionStrengthens) {
  // (0 1) and (~0 1 2): resolving on 0 gives (1 2) ⊂ (~0 1 2), so the
  // longer clause drops ~0.
  const ClauseList in{{pos(0), pos(1)}, {neg(0), pos(1), pos(2)}};
  const SimplifyResult r = simplify(3, in, all_frozen(3));
  EXPECT_GE(r.stats.lits_strengthened, 1u);
  ASSERT_EQ(r.clauses.size(), 2u);
  EXPECT_TRUE(contains_clause(r.clauses, {pos(0), pos(1)}));
  EXPECT_TRUE(contains_clause(r.clauses, {pos(1), pos(2)}));
}

TEST(PreprocessTest, UnitPropagationKeepsRootFacts) {
  // The unit 0 propagates 1 through (~0 1); both facts must survive as
  // unit clauses so the solver sees the same level-0 trail.
  const ClauseList in{{pos(0)}, {neg(0), pos(1)}, {pos(1), pos(2)}};
  const SimplifyResult r = simplify(3, in, all_frozen(3));
  EXPECT_GE(r.stats.units_propagated, 2u);
  ASSERT_EQ(r.clauses.size(), 2u);
  EXPECT_TRUE(contains_clause(r.clauses, {pos(0)}));
  EXPECT_TRUE(contains_clause(r.clauses, {pos(1)}));
}

TEST(PreprocessTest, PureLiteralsAreEliminatedWithWitness) {
  // Var 0 occurs only positively and is not frozen: both holders go,
  // and the witness must be able to re-satisfy them.
  std::vector<char> frozen{0, 1, 1};
  const ClauseList in{{pos(0), pos(1)}, {pos(0), pos(2)}};
  const SimplifyResult r = simplify(3, in, frozen);
  EXPECT_TRUE(r.clauses.empty());
  EXPECT_EQ(r.stats.pure_literals, 1u);
  EXPECT_EQ(r.stats.vars_eliminated, 1u);
  EXPECT_FALSE(r.remap.is_kept(0));

  // A model falsifying both kept variables forces the witness flip.
  std::vector<sat::lbool> values{sat::l_Undef, sat::l_False, sat::l_False};
  r.remap.complete_model(values);
  EXPECT_EQ(values[0], sat::l_True);
}

TEST(PreprocessTest, BoundedVariableEliminationResolves) {
  // Var 1 has one positive and two negative occurrences; the two
  // resolvents replace three clauses (NiVER accepts).
  std::vector<char> frozen{1, 0, 1, 1};
  const ClauseList in{{pos(1), pos(0)}, {neg(1), pos(2)}, {neg(1), neg(3)}};
  const SimplifyResult r = simplify(4, in, frozen);
  EXPECT_EQ(r.stats.vars_eliminated, 1u);
  EXPECT_FALSE(r.remap.is_kept(1));
  ASSERT_EQ(r.clauses.size(), 2u);
  EXPECT_TRUE(contains_clause(r.clauses, {pos(0), pos(2)}));
  EXPECT_TRUE(contains_clause(r.clauses, {pos(0), neg(3)}));
}

TEST(PreprocessTest, FrozenVariablesAreNeverEliminated) {
  // Same formula, everything frozen: no elimination, no pure removal.
  const ClauseList in{{pos(1), pos(0)}, {neg(1), pos(2)}, {neg(1), neg(3)}};
  const SimplifyResult r = simplify(4, in, all_frozen(4));
  EXPECT_EQ(r.stats.vars_eliminated, 0u);
  EXPECT_EQ(r.remap.num_eliminated(), 0u);
  EXPECT_EQ(r.clauses.size(), 3u);
}

TEST(PreprocessTest, ContradictionFallsBackToInput) {
  const ClauseList in{{pos(0)}, {neg(0)}};
  const SimplifyResult r = simplify(1, in, all_frozen(1));
  EXPECT_TRUE(r.fell_back);
  EXPECT_EQ(r.clauses.size(), in.size());
  EXPECT_TRUE(r.remap.is_kept(0));
}

TEST(PreprocessTest, WitnessCompletionExtendsAnySimplifiedModel) {
  // A Tseitin AND-chain y_i = x_i & y_{i-1}: the y's are eliminable,
  // the x's are the frozen "inputs".  Any model of the simplified
  // formula must extend to a model of the original through the witness
  // stack — the full-model round trip the soundness tests rely on
  // (extract_trace itself reads only frozen variables).
  constexpr int kInputs = 5;
  ClauseList in;
  // vars 0..4 = x inputs (frozen), 5..9 = y chain, var 10 = top unit.
  int y_prev = 0;  // y_0 alias: x_0
  int next = kInputs;
  for (int i = 1; i < kInputs; ++i) {
    const int y = next++;
    // y = x_i & y_prev
    in.push_back({neg(y), pos(i)});
    in.push_back({neg(y), pos(y_prev)});
    in.push_back({pos(y), neg(i), neg(y_prev)});
    y_prev = y;
  }
  in.push_back({pos(y_prev)});  // assert the conjunction
  const int num_vars = next;
  std::vector<char> frozen(static_cast<std::size_t>(num_vars), 0);
  for (int i = 0; i < kInputs; ++i) frozen[static_cast<std::size_t>(i)] = 1;

  const SimplifyResult r = simplify(num_vars, in, frozen);
  ASSERT_FALSE(r.fell_back);

  // Solve the simplified formula (numbering preserved, so it loads
  // directly into a solver with the same variable count).
  sat::Solver solver;
  while (solver.num_vars() < num_vars) solver.new_var();
  for (const std::span<const sat::Lit> c : r.clauses)
    solver.add_clause(std::vector<sat::Lit>(c.begin(), c.end()));
  ASSERT_EQ(solver.solve(), sat::Result::Sat);

  std::vector<sat::lbool> values(static_cast<std::size_t>(num_vars),
                                 sat::l_Undef);
  for (int v = 0; v < num_vars; ++v)
    if (r.remap.is_kept(static_cast<sat::Var>(v)))
      values[static_cast<std::size_t>(v)] =
          solver.model_value(static_cast<sat::Var>(v));
  r.remap.complete_model(values);

  for (const std::span<const sat::Lit> clause : in) {
    bool satisfied = false;
    for (const sat::Lit l : clause) {
      const sat::lbool v = values[static_cast<std::size_t>(l.var())];
      ASSERT_NE(v, sat::l_Undef);
      if ((v == sat::l_True) != l.negated()) satisfied = true;
    }
    EXPECT_TRUE(satisfied);
  }
}

// ---- SharedTape integration ----------------------------------------------

/// Feeds a solver and records the clause stream, in sink space.
struct RecordingSolverSink final : public ClauseSink {
  sat::Solver solver;
  std::vector<VarOrigin> origin;
  SolverSink inner{solver, origin};
  std::vector<std::vector<sat::Lit>> clauses;
  sat::Var add_var(const VarOrigin& o) override { return inner.add_var(o); }
  void add_clause(std::span<const sat::Lit> lits) override {
    clauses.emplace_back(lits.begin(), lits.end());
    inner.add_clause(lits);
  }
};

TEST(PreprocessTapeTest, SimplifiedReplayShrinksAndIsDeterministic) {
  const auto bm = model::fifo_safe(3);
  PreprocessOptions po;
  po.enabled = true;
  SharedTape tape(bm.net, 0, {}, po);
  const int k = 5;

  const std::size_t plain = tape.mark_at(k).clauses;
  const std::size_t simplified = tape.simplified_clauses_at(k);
  EXPECT_LT(simplified, plain);
  // The passes are cached: asking again returns the same formula.
  EXPECT_EQ(tape.simplified_clauses_at(k), simplified);
  // A consumer at depth k holds every delta 0..k.
  std::uint64_t eliminated = 0, clauses_out = 0;
  for (int f = 0; f <= k; ++f) {
    const PreprocessStats ps = tape.preprocess_stats_at(f);
    eliminated += ps.vars_eliminated;
    clauses_out += ps.clauses_out;
  }
  EXPECT_GT(eliminated, 0u);
  EXPECT_EQ(clauses_out, simplified);

  // Two fresh consumers replay identical streams: same var_map, same
  // solver shape — the shard-group "one formula, many solvers" premise.
  RecordingSolverSink sink1, sink2;
  ClauseTape::Cursor c1, c2;
  tape.replay_to(k, c1, sink1);
  tape.replay_to(k, c2, sink2);
  EXPECT_EQ(c1.var_map, c2.var_map);
  EXPECT_EQ(sink1.solver.num_original_clauses(),
            sink2.solver.num_original_clauses());
  EXPECT_EQ(sink1.clauses, sink2.clauses);
  // Round-trip guard: the replayed clause count is exactly what the
  // tape reports (the scratch session asserts the same invariant).
  EXPECT_EQ(sink1.solver.num_original_clauses(), simplified);

  // Eliminated variables occupy kVarUndef slots; kept ones translate.
  const VarRemapper remap = tape.remapper_at(k);
  ASSERT_EQ(c1.var_map.size(), static_cast<std::size_t>(remap.num_vars()));
  std::size_t undef_slots = 0;
  for (std::size_t v = 0; v < c1.var_map.size(); ++v) {
    const bool kept = remap.is_kept(static_cast<sat::Var>(v));
    EXPECT_EQ(c1.var_map[v] == sat::kVarUndef, !kept) << v;
    undef_slots += c1.var_map[v] == sat::kVarUndef;
  }
  EXPECT_EQ(undef_slots, remap.num_eliminated());
  // The property literal rides a frozen variable and must translate.
  EXPECT_NE(c1.translate(tape.property(k)).var(), sat::kVarUndef);

  // A consumer that advances a depth at a time (an incremental solver)
  // reaches, at every depth, what a fresh consumer of that depth holds.
  RecordingSolverSink stepped;
  ClauseTape::Cursor cs;
  for (int f = 0; f <= k; ++f) {
    tape.replay_to(f, cs, stepped);
    RecordingSolverSink fresh;
    ClauseTape::Cursor cf;
    tape.replay_to(f, cf, fresh);
    EXPECT_EQ(cs.var_map, cf.var_map) << "depth " << f;
    EXPECT_EQ(stepped.clauses, fresh.clauses) << "depth " << f;
    EXPECT_EQ(stepped.solver.num_original_clauses(),
              tape.simplified_clauses_at(f))
        << "depth " << f;
  }
  EXPECT_EQ(cs.var_map, c1.var_map);
}

TEST(PreprocessTapeTest, SimplifiedFormulaKeepsVerdicts) {
  // Depth-by-depth SAT equivalence of plain vs simplified replay: the
  // simplified formula plus the property assertion must produce the
  // same verdict at every depth.
  const auto bm = model::counter_reach(4, 6, true);
  PreprocessOptions po;
  po.enabled = true;
  SharedTape plain_tape(bm.net, 0, {});
  SharedTape prep_tape(bm.net, 0, {}, po);
  for (int k = 0; k <= 6; ++k) {
    sat::Solver plain_solver, prep_solver;
    std::vector<VarOrigin> po1, po2;
    SolverSink sink1(plain_solver, po1), sink2(prep_solver, po2);
    ClauseTape::Cursor c1, c2;
    plain_tape.replay_to(k, c1, sink1);
    prep_tape.replay_to(k, c2, sink2);
    plain_solver.add_clause({c1.translate(plain_tape.property(k))});
    prep_solver.add_clause({c2.translate(prep_tape.property(k))});
    EXPECT_EQ(plain_solver.solve(), prep_solver.solve()) << "depth " << k;
  }
}

// ---- engine integration ---------------------------------------------------

struct Verdict {
  BmcResult::Status status;
  int cex_depth;
  int bad_frame;
};

Verdict run_engine(const model::Benchmark& bm, bool simplify,
                   bool preprocess, int max_depth, bool incremental = false) {
  EngineConfig cfg;
  cfg.policy = OrderingPolicy::Dynamic;
  cfg.max_depth = max_depth;
  cfg.simplify = simplify;
  cfg.incremental = incremental;
  cfg.preprocess.enabled = preprocess;
  if (preprocess) cfg.solver.inprocess.vivify_interval = 2;
  cfg.validate_counterexamples = true;  // asserts replay on the simulator
  BmcEngine engine(bm.net, cfg);
  const BmcResult r = engine.run();
  Verdict v;
  v.status = r.status;
  v.cex_depth = r.counterexample_depth;
  v.bad_frame =
      r.counterexample.has_value() ? r.counterexample->bad_frame : -1;
  return v;
}

// The bad signal is a latch whose next state is the AND of two inputs,
// so with latch aliasing property(k) is the frame-(k-1) gate: no clause
// of depth k's delta names it, and depth k-1's delta pass, which does
// not freeze it, eliminates it (every resolvent is a tautology).
model::Benchmark latch_bad() {
  model::Benchmark bm;
  bm.name = "latch_bad";
  bm.net = model::read_aiger_string("aag 4 2 1 0 1 1\n2\n4\n6 8\n6\n8 2 4\n");
  return bm;
}

TEST(PreprocessEngineTest, VerdictsAgreeAcrossSimplifyPreprocessMatrix) {
  const model::Benchmark models[] = {model::counter_reach(4, 9, true),
                                     model::fifo_safe(3), latch_bad()};
  const int max_depth = 10;
  for (const auto& bm : models) {
    const Verdict base = run_engine(bm, true, false, max_depth);
    for (const bool incremental : {false, true}) {
      for (const bool simplify : {false, true}) {
        for (const bool preprocess : {false, true}) {
          const Verdict v =
              run_engine(bm, simplify, preprocess, max_depth, incremental);
          EXPECT_EQ(v.status, base.status) << bm.name;
          EXPECT_EQ(v.cex_depth, base.cex_depth) << bm.name;
          EXPECT_EQ(v.bad_frame, base.bad_frame) << bm.name;
        }
      }
    }
  }
  const Verdict latch = run_engine(latch_bad(), true, false, max_depth);
  EXPECT_EQ(latch.status, BmcResult::Status::CounterexampleFound);
  EXPECT_EQ(latch.cex_depth, 1);
}

TEST(PreprocessEngineTest, PreprocessStatsFlowIntoDepthStats) {
  const auto bm = model::fifo_safe(3);
  EngineConfig cfg;
  cfg.policy = OrderingPolicy::Dynamic;
  cfg.max_depth = 6;
  cfg.preprocess.enabled = true;
  BmcEngine engine(bm.net, cfg);
  const BmcResult r = engine.run();
  std::uint64_t eliminated = 0;
  for (const auto& d : r.per_depth) eliminated += d.vars_eliminated;
  EXPECT_GT(eliminated, 0u);
}

TEST(PreprocessEngineTest, OffIsBitIdenticalToDefault) {
  // `--preprocess off` must be the PR 6 pipeline bit for bit: identical
  // search trajectory (decisions, propagations, conflicts per depth),
  // not merely the same verdict.
  const auto bm = model::fifo_safe(3);
  EngineConfig base;
  base.policy = OrderingPolicy::Dynamic;
  base.max_depth = 6;
  EngineConfig off = base;
  off.preprocess.enabled = false;
  off.solver.inprocess.vivify_interval = 0;
  const BmcResult a = BmcEngine(bm.net, base).run();
  const BmcResult b = BmcEngine(bm.net, off).run();
  ASSERT_EQ(a.per_depth.size(), b.per_depth.size());
  for (std::size_t i = 0; i < a.per_depth.size(); ++i) {
    EXPECT_EQ(a.per_depth[i].decisions, b.per_depth[i].decisions) << i;
    EXPECT_EQ(a.per_depth[i].propagations, b.per_depth[i].propagations) << i;
    EXPECT_EQ(a.per_depth[i].conflicts, b.per_depth[i].conflicts) << i;
    EXPECT_EQ(a.per_depth[i].vars_eliminated, 0u);
    EXPECT_EQ(a.per_depth[i].vivify_rounds, 0u);
  }
}

TEST(PreprocessEngineTest, SharedTapeMustAgreeOnPreprocessConfig) {
  const auto bm = model::counter_reach(3, 2, true);
  PreprocessOptions po;
  po.enabled = true;
  SharedTape tape(bm.net, 0, {}, po);
  EngineConfig cfg;
  cfg.shared_tape = &tape;
  cfg.max_depth = 2;
  // Engine default has preprocessing off — mismatched consumers would
  // race on different formulas, so construction must refuse.
  EXPECT_THROW(BmcEngine(bm.net, cfg), std::invalid_argument);
  cfg.preprocess = po;
  EXPECT_NO_THROW(BmcEngine(bm.net, cfg));
}

}  // namespace
}  // namespace refbmc::bmc
