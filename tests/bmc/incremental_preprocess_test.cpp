// Incremental-session fast path (PR 8): activation-aware delta
// preprocessing, the assumption savepoint, and frame retirement.  The
// engine-level matrix pins verdict/depth equivalence with scratch mode
// across every knob combination; the bit-identity test pins the
// contract that both knobs off IS the PR 7 pipeline, counter for
// counter; the witness test drives the shared tape directly and proves
// a counter-example model of the delta-simplified formula recompletes
// over variables BVE eliminated at earlier depths, and the as-of test
// proves the depth-k view of the cumulative witness stack is unmoved by
// consumers that already replayed later deltas.
#include <gtest/gtest.h>

#include <vector>

#include "bmc/encoder.hpp"
#include "bmc/engine.hpp"
#include "bmc/preprocess.hpp"
#include "bmc/tape.hpp"
#include "bmc/trace.hpp"
#include "model/benchgen.hpp"
#include "sat/solver.hpp"

namespace refbmc::bmc {
namespace {

EngineConfig incremental_config(const model::Benchmark& bm, bool preprocess,
                                bool savepoint) {
  EngineConfig cfg;
  cfg.policy = OrderingPolicy::Dynamic;
  cfg.max_depth = bm.suggested_bound;
  cfg.incremental = true;
  cfg.preprocess.enabled = preprocess;
  cfg.solver.assumption_savepoint = savepoint;
  return cfg;
}

TEST(IncrementalPreprocessTest, MatrixMatchesScratchOnQuickSuite) {
  // incremental × preprocess × savepoint, all four combinations per
  // model, against the scratch-mode reference: same verdict, same cex
  // depth, same last completed depth, and every trace replays on the
  // concrete simulator.
  for (const auto& bm : model::quick_suite()) {
    SCOPED_TRACE(bm.name);
    EngineConfig scratch;
    scratch.policy = OrderingPolicy::Dynamic;
    scratch.max_depth = bm.suggested_bound;
    const BmcResult a = BmcEngine(bm.net, scratch).run();
    for (const bool preprocess : {false, true}) {
      for (const bool savepoint : {false, true}) {
        SCOPED_TRACE(testing::Message() << "preprocess=" << preprocess
                                        << " savepoint=" << savepoint);
        const BmcResult b =
            BmcEngine(bm.net, incremental_config(bm, preprocess, savepoint))
                .run();
        EXPECT_EQ(a.status, b.status);
        EXPECT_EQ(a.counterexample_depth, b.counterexample_depth);
        EXPECT_EQ(a.last_completed_depth, b.last_completed_depth);
        if (b.counterexample) {
          EXPECT_TRUE(validate_trace(bm.net, *b.counterexample));
        }
      }
    }
  }
}

TEST(IncrementalPreprocessTest, KnobsOffIsBitIdenticalToLegacyIncremental) {
  // Preprocessing off + the solver's assumption savepoint off must
  // reproduce the PR 7 incremental pipeline counter for counter.  Both knobs default
  // off at the EngineConfig level, so the default-config run IS the
  // legacy path; the explicit-off run must match it per depth.
  for (const auto& bm :
       {model::fifo_safe(3), model::counter_reach(3, 2, false)}) {
    SCOPED_TRACE(bm.name);
    EngineConfig legacy;
    legacy.policy = OrderingPolicy::Dynamic;
    legacy.max_depth = bm.suggested_bound;
    legacy.incremental = true;
    EngineConfig off = incremental_config(bm, false, false);

    const BmcResult a = BmcEngine(bm.net, legacy).run();
    const BmcResult b = BmcEngine(bm.net, off).run();
    ASSERT_EQ(a.per_depth.size(), b.per_depth.size());
    for (std::size_t i = 0; i < a.per_depth.size(); ++i) {
      EXPECT_EQ(a.per_depth[i].decisions, b.per_depth[i].decisions) << i;
      EXPECT_EQ(a.per_depth[i].propagations, b.per_depth[i].propagations)
          << i;
      EXPECT_EQ(a.per_depth[i].conflicts, b.per_depth[i].conflicts) << i;
      // The fast-path counters must read zero with the knobs off.
      EXPECT_EQ(b.per_depth[i].savepoint_hits, 0u) << i;
      EXPECT_EQ(b.per_depth[i].savepoint_misses, 0u) << i;
      EXPECT_EQ(b.per_depth[i].retired_frame_clauses, 0u) << i;
    }
  }
}

TEST(IncrementalPreprocessTest, SavepointAndRetirementStatsFlow) {
  // On a passing property the session's assumption lists share all but
  // the newest guard level, so deep enough runs must record prefix
  // resumes — and the batched retirement flush must free the dead
  // guards' clauses out of the arena.
  const auto bm = model::fifo_safe(3);
  const BmcResult r =
      BmcEngine(bm.net, incremental_config(bm, true, true)).run();
  ASSERT_EQ(r.status, BmcResult::Status::BoundReached);
  std::uint64_t hits = 0, misses = 0, reused = 0, retired = 0;
  for (const auto& d : r.per_depth) {
    hits += d.savepoint_hits;
    misses += d.savepoint_misses;
    reused += d.savepoint_levels_reused;
    retired += d.retired_frame_clauses;
  }
  EXPECT_EQ(hits + misses, r.per_depth.size());  // one solve per depth
  EXPECT_GT(hits, 0u);
  EXPECT_GE(reused, hits);  // every hit reuses at least one level
  EXPECT_GT(retired, 0u);   // at least one batch flushed
}

TEST(IncrementalPreprocessTest, DeltaPreprocessStatsReported) {
  // With preprocessing on, incremental runs report the per-depth DELTA
  // pass counters (PR 7 zeroed these in incremental mode).
  const auto bm = model::counter_reach(4, 6, true);
  const BmcResult r =
      BmcEngine(bm.net, incremental_config(bm, true, true)).run();
  ASSERT_EQ(r.status, BmcResult::Status::CounterexampleFound);
  std::uint64_t eliminated = 0;
  for (const auto& d : r.per_depth) eliminated += d.vars_eliminated;
  EXPECT_GT(eliminated, 0u);
}

/// Identity consumer: tape variables are created densely from 0, so the
/// collected clauses are in tape variable space verbatim.
struct CollectSink final : public ClauseSink {
  std::vector<std::vector<sat::Lit>> clauses;
  sat::Var next = 0;
  sat::Var add_var(const VarOrigin&) override { return next++; }
  void add_clause(std::span<const sat::Lit> lits) override {
    clauses.emplace_back(lits.begin(), lits.end());
  }
};

/// Lifts the solver model back to tape space (eliminated slots undef),
/// lets the witness stack fill in the eliminated variables, and reports
/// whether every original clause holds.
bool completes_original(const VarRemapper& remap, const sat::Solver& solver,
                        const ClauseTape::Cursor& cursor,
                        const std::vector<std::vector<sat::Lit>>& original) {
  std::vector<sat::lbool> values(
      static_cast<std::size_t>(remap.num_vars()), sat::l_Undef);
  for (std::size_t t = 0; t < cursor.var_map.size(); ++t) {
    if (cursor.var_map[t] == sat::kVarUndef) continue;
    values[t] = solver.model_value(cursor.var_map[t]);
  }
  remap.complete_model(values);
  for (const auto& clause : original) {
    bool satisfied = false;
    for (const sat::Lit l : clause) {
      const sat::lbool v = values[static_cast<std::size_t>(l.var())];
      if ((v ^ l.negated()) == sat::l_True) {
        satisfied = true;
        break;
      }
    }
    if (!satisfied) return false;
  }
  return true;
}

TEST(IncrementalPreprocessTest, WitnessRecompletesAcrossDepthDeltas) {
  // A counter-example found at depth k on the delta-simplified formula
  // must extend — through the cumulative witness stack — to a model of
  // the ORIGINAL tape formula, including variables BVE eliminated at
  // depths < k.  Drives SharedTape directly: one identity consumer
  // collects the unsimplified clauses, a solver consumer replays the
  // simplified deltas.
  const auto bm = model::counter_reach(4, 6, true);
  ASSERT_TRUE(bm.expect_fail);
  const int k = bm.expect_depth;
  ASSERT_GE(k, 2);  // need eliminations at depths strictly below k

  PreprocessOptions popt;
  popt.enabled = true;
  SharedTape tape(bm.net, 0, {}, popt);

  // The unsimplified formula comes from a plain tape of the same netlist
  // (encoding is deterministic, so the tape variables are the same).
  SharedTape plain(bm.net, 0, {});
  ClauseTape::Cursor id_cursor;
  CollectSink original;
  plain.replay_to(k, id_cursor, original);

  // Simplified consumer: replay the per-depth deltas 0..k.
  sat::Solver solver;
  std::vector<VarOrigin> origin;
  SolverSink sink(solver, origin);
  ClauseTape::Cursor cursor;
  tape.replay_to(k, cursor, sink);

  const VarRemapper remap = tape.remapper_at(k);
  ASSERT_GT(remap.num_eliminated(), 0u);  // the test must not be vacuous
  ASSERT_EQ(solver.solve({cursor.translate(tape.property(k))}),
            sat::Result::Sat);
  EXPECT_TRUE(completes_original(remap, solver, cursor, original.clauses));
}

TEST(IncrementalPreprocessTest, RemapperAsOfDepthIgnoresFasterConsumers) {
  // There is one cumulative witness stack and no per-depth snapshot:
  // remapper_at(k) rebuilds depth k's view on demand.  Once
  // a fast consumer has replayed deltas up to k+3 — resurrecting
  // variables that were eliminated at depth <= k — the view at k must
  // still equal, witness for witness, the view of a tape whose deltas
  // stopped at k, and it must still complete a depth-k model of the
  // original formula.
  const auto bm = model::counter_reach(4, 6, true);
  const int k = 3;
  ASSERT_LE(k + 3, bm.suggested_bound);
  PreprocessOptions popt;
  popt.enabled = true;

  SharedTape fast(bm.net, 0, {}, popt);
  {
    CollectSink sink;
    ClauseTape::Cursor cursor;
    fast.replay_to(k + 3, cursor, sink);
  }
  const VarRemapper late = fast.remapper_at(k);

  // Reference: a tape whose deltas stopped at k, with a solver consumer.
  SharedTape slow(bm.net, 0, {}, popt);
  sat::Solver solver;
  std::vector<VarOrigin> origin;
  SolverSink sink(solver, origin);
  ClauseTape::Cursor cursor;
  slow.replay_to(k, cursor, sink);
  const VarRemapper stopped = slow.remapper_at(k);

  // The deltas after k really did resurrect some of depth k's
  // eliminations, so the cumulative stack has moved on.
  const VarRemapper ahead = fast.remapper_at(k + 3);
  std::size_t resurrected = 0;
  for (const VarRemapper::Witness& w : stopped.witnesses())
    resurrected += ahead.is_kept(w.lit.var()) ? 1 : 0;
  ASSERT_GT(resurrected, 0u);

  ASSERT_EQ(late.num_vars(), stopped.num_vars());
  for (int v = 0; v < late.num_vars(); ++v)
    EXPECT_EQ(late.is_kept(v), stopped.is_kept(v)) << "var " << v;
  ASSERT_EQ(late.num_eliminated(), stopped.num_eliminated());
  ASSERT_EQ(late.witnesses().size(), stopped.witnesses().size());
  const auto kit = [](const VarRemapper& r, std::uint32_t first,
                      std::uint32_t last) {
    std::vector<std::vector<sat::Lit>> out;
    for (std::uint32_t i = first; i < last; ++i)
      out.emplace_back(r.clauses()[i].begin(), r.clauses()[i].end());
    return out;
  };
  for (std::size_t i = 0; i < late.witnesses().size(); ++i) {
    const VarRemapper::Witness& a = late.witnesses()[i];
    const VarRemapper::Witness& b = stopped.witnesses()[i];
    EXPECT_EQ(a.lit, b.lit) << "witness " << i;
    EXPECT_EQ(a.eliminated_at, b.eliminated_at) << "witness " << i;
    EXPECT_EQ(kit(late, a.first, a.mid), kit(stopped, b.first, b.mid))
        << "witness " << i;
    EXPECT_EQ(kit(late, a.mid, a.last), kit(stopped, b.mid, b.last))
        << "witness " << i;
  }

  // Any model of the depth-k delta formula (the transition relation is
  // satisfiable; the property need not be) completes through the late
  // view to a model of the original depth-k formula.
  CollectSink original;
  ClauseTape::Cursor id_cursor;
  SharedTape(bm.net, 0, {}).replay_to(k, id_cursor, original);
  ASSERT_EQ(solver.solve(), sat::Result::Sat);
  EXPECT_TRUE(completes_original(late, solver, cursor, original.clauses));
}

}  // namespace
}  // namespace refbmc::bmc
