// FormulaSession: the strategy that turns the shared formula stream into
// per-depth SAT queries.  The engine's single loop (engine.cpp) is
// parameterized by it:
//
//   * scratch     — a fresh solver per depth, fed by replaying the shared
//                   formula from the start and asserting the depth-k
//                   property as a unit (the paper's Fig. 5 discipline);
//   * incremental — one persistent solver fed tape deltas, the depth-k
//                   property guarded by an activation literal enabled via
//                   solve-under-assumptions (Eén–Sörensson; the
//                   combination with incremental SAT the paper's
//                   conclusion proposes).  Learned clauses — and, for the
//                   refined ordering, VSIDS scores — carry over between
//                   depths; retire(k) permanently disables a proven
//                   depth's guard so BCP never revisits it.  With the
//                   solver's assumption savepoint enabled the session
//                   presents a growing assumption prefix (retired guards
//                   negated, live guard last) so successive solves reuse
//                   the trail, and retirements are batched through
//                   Solver::retire_frame_guards so dead-frame clauses
//                   actually leave the arena.
//
// Either way the formula itself is encoded exactly once, by whichever
// SharedTape the session was given — private to one engine, or shared
// across a portfolio race — and both sessions take it through the one
// SharedTape::replay_to, which alone decides whether the stream is the
// raw tape or the per-depth simplified deltas (tape preprocessing on).
#pragma once

#include <memory>
#include <vector>

#include "bmc/tape.hpp"
#include "sat/solver.hpp"

namespace refbmc::portfolio {
class SharedClausePool;
}

namespace refbmc::bmc {

class FormulaSession {
 public:
  /// One prepared depth: the solver to query, the assumptions to pass,
  /// and the solver-space property literal (the ¬P(V^k) handle — seed of
  /// the Shtrichman ordering, unit-asserted by scratch, guarded by
  /// incremental).
  struct Prepared {
    sat::Solver* solver = nullptr;
    std::vector<sat::Lit> assumptions;
    sat::Lit property_lit;
    std::size_t cnf_vars = 0;
    std::size_t cnf_clauses = 0;
  };

  virtual ~FormulaSession() = default;

  /// Makes depth k ready to solve.  Depths must be non-decreasing.  The
  /// returned solver stays valid until the next prepare() call (long
  /// enough for model/core extraction).
  virtual Prepared prepare(int k) = 0;

  /// Called after depth k came back UNSAT, before moving on.
  virtual void retire(int k) = 0;

  /// CNF-variable origins of the current solver (index = solver var).
  virtual const std::vector<VarOrigin>& origin() const = 0;
};

// `share_pool`, when non-null, connects the session's solver(s) to a
// portfolio lemma pool through a PoolEndpoint (clause_pool.hpp):
// qualifying learnts are exported in tape space, foreign lemmas imported
// at decision-level-0 boundaries.  `share_producer` is this entrant's id
// in the pool.  While sharing, the scratch session asserts the per-depth
// property as an *assumption* instead of a unit clause, which keeps every
// clause in its database implied by the tape alone (the export-soundness
// invariant); with a null pool the query shape — and every search
// trajectory — is bit-identical to a session without the hooks.
std::unique_ptr<FormulaSession> make_scratch_session(
    SharedTape& tape, const sat::SolverConfig& solver_config,
    portfolio::SharedClausePool* share_pool = nullptr,
    int share_producer = 0);
std::unique_ptr<FormulaSession> make_incremental_session(
    SharedTape& tape, const sat::SolverConfig& solver_config,
    portfolio::SharedClausePool* share_pool = nullptr,
    int share_producer = 0);

}  // namespace refbmc::bmc
