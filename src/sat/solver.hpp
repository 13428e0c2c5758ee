// CDCL SAT solver in the Chaff/MiniSat lineage, with the additions the
// paper needs:
//
//  * Chaff-style VSIDS decision scores (periodic halve-and-add) combined
//    with an external variable ranking (static / dynamic, §3.3);
//  * a simplified Conflict-Dependency Graph recording, per learned clause,
//    the pseudo-IDs of its antecedents (§3.1), kept independent of the
//    clause database so reduceDB stays enabled;
//  * complete unsatisfiable-core extraction from the final conflict —
//    including refutations of assumption sets;
//  * incremental use: clauses may be added between solve() calls, and
//    solve(assumptions) supports activation-literal idioms (the
//    "incremental SAT" combination the paper's conclusion points to).
//
// The solver is an orchestrator over four explicit layers:
//
//   Trail         — assignments, levels, reasons, the propagation queue
//                   (trail.hpp);
//   Propagator    — two-watched-literal BCP with blocking literals and
//                   inlined binary watch lists (propagator.hpp);
//   DecisionQueue — the decision order: the refined-ordering rank first,
//                   then Chaff or EVSIDS activity, with the §3.3
//                   dynamic switch (decision.hpp);
//   ClauseDB      — arena, clause-id space, LBD-tiered learned-clause
//                   deletion with glue protection (clausedb.hpp).
//
// What remains here: first-UIP conflict analysis with recursive clause
// minimization, Luby restarts, assumption handling, CDG/core plumbing,
// and the search loop that ties the layers together.
//
// Clause ids are dense over *all* clauses in arrival order (original and
// learned interleave under incremental use); unsat cores are reported as
// original-clause ids.
#pragma once

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "sat/cdg.hpp"
#include "sat/clause.hpp"
#include "sat/clausedb.hpp"
#include "sat/decision.hpp"
#include "sat/propagator.hpp"
#include "sat/stats.hpp"
#include "sat/trail.hpp"
#include "sat/types.hpp"
#include "util/timer.hpp"

namespace refbmc::sat {

/// Lemma-exchange seam for portfolio solving (implemented by
/// portfolio::PoolEndpoint; the solver stays ignorant of threads and of
/// the shared variable space).
///
/// Contract: export_clause is called from the search loop for every
/// learned clause passing the export filter (lbd <= share_lbd or size <=
/// share_size), with solver-space literals, learnt[0] = asserting
/// literal; it returns whether the exchange accepted the clause (the
/// solver's clauses_exported counts acceptances, so every layer's
/// "exported" number means the same thing).  import_clauses is called
/// only at decision level 0 (solve
/// start and restarts); the implementation hands foreign clauses to the
/// sink in solver-space literals.  Imported clauses MUST be implied by
/// the clause database the solvers share (the formula tape) — the
/// endpoint's variable translation enforces this by refusing clauses
/// over unshared variables.  has_pending() must be cheap (one relaxed
/// atomic load): it gates every import point.
class ClauseExchange {
 public:
  class ImportSink {
   public:
    virtual void add(std::span<const Lit> lits, std::uint32_t lbd) = 0;

   protected:
    ~ImportSink() = default;
  };

  virtual ~ClauseExchange() = default;
  /// Returns true when the clause was accepted (published).
  virtual bool export_clause(std::span<const Lit> lits, std::uint32_t lbd) = 0;
  virtual bool has_pending() const = 0;
  virtual void import_clauses(ImportSink& sink) = 0;
};

struct SolverConfig {
  // Decision scorer (see decision.hpp); the BMC layer derives it from
  // the ordering policy.
  DecisionMode decision = DecisionMode::Chaff;
  // VSIDS (Chaff scorer)
  int vsids_update_period = 256;  // conflicts between score halvings
  // EVSIDS scorer: per-conflict activity inflation factor.
  double evsids_decay = 0.95;
  // Refined ordering (paper §3.3)
  RankMode rank_mode = RankMode::None;
  int dynamic_switch_divisor = 64;  // switch when decisions > #lits / divisor
  // Restarts: Luby sequence in units of `restart_base` conflicts.
  bool enable_restarts = true;
  int restart_base = 256;
  // Learned clause deletion (LBD tiers; see clausedb.hpp).
  bool enable_reduce_db = true;
  int reduce_base = 2000;       // first reduceDB after this many learned
  double reduce_grow = 1.5;     // growth factor of the limit
  double clause_decay = 0.999;  // learned clause activity decay
  int glue_lbd = 2;             // LBD at or below: never deleted
  int tier_lbd = 6;             // LBD at or below: deleted after local tier
  // Lemma sharing export filter (consulted only with a ClauseExchange
  // attached): a learned clause is exported when lbd <= share_lbd OR
  // size <= share_size.
  int share_lbd = 4;
  int share_size = 2;
  // Conflict-dependency graph / core tracking (paper §3.1).  Turning this
  // off disables unsat_core() but removes the bookkeeping overhead.
  bool track_cdg = true;
  // Assumption savepoint (incremental sessions): when successive solve()
  // calls share an assumption prefix, keep that prefix's trail levels
  // alive instead of backtracking to level 0 — solve start and restarts
  // return only to the longest common prefix still on the trail, and
  // clauses added between calls attach at the current level when their
  // watch invariants allow it.  Off (the default) is bit-identical to a
  // solver without the feature.
  bool assumption_savepoint = false;
  // Resource limits per solve() call (negative = unlimited).
  std::int64_t conflict_limit = -1;
  double time_limit_sec = -1.0;
  // Formula-state memory accounting (may be shared race-wide; not
  // owned).  The arena and the watcher lists charge their heap here,
  // and solve() returns Result::Unknown at the next conflict/decision
  // checkpoint once the tracker reports a ceiling breach.
  MemTracker* mem_tracker = nullptr;
};

class Solver {
 public:
  explicit Solver(SolverConfig config = {});

  Solver(const Solver&) = delete;
  Solver& operator=(const Solver&) = delete;

  // ---- problem construction -----------------------------------------
  /// Creates a fresh variable and returns it (dense, starting at 0).
  /// May be called between solve() calls.
  Var new_var();
  int num_vars() const { return trail_.num_vars(); }

  /// Adds a clause over existing variables.  Every call consumes one
  /// clause id (dense, shared with learned clauses) — including
  /// tautologies and clauses already satisfied.  May be called between
  /// solve() calls.  Returns false when the solver is already in an
  /// unsatisfiable state after this clause.  The clause is normalized in
  /// a member buffer and its literals are kept in the ClauseDB's flat
  /// store, so a formula loads (a tape replay, once per depth) with no
  /// allocation per clause.
  bool add_clause(std::span<const Lit> lits);
  bool add_clause(std::initializer_list<Lit> lits) {
    return add_clause(std::span<const Lit>(lits.begin(), lits.size()));
  }

  /// Number of add_clause calls so far.
  std::size_t num_original_clauses() const {
    return db_.num_original_clauses();
  }
  /// Ids of original clauses in arrival order.
  const std::vector<ClauseId>& original_ids() const {
    return db_.original_ids();
  }
  /// Literal occurrences across original clauses (after dedup), the
  /// baseline for the dynamic policy's switch threshold.
  std::uint64_t num_original_literals() const {
    return db_.num_original_literals();
  }

  /// The literals of original clause `id` (after duplicate removal);
  /// valid until the next add_clause.
  std::span<const Lit> original_clause(ClauseId id) const {
    return db_.original_clause(id);
  }
  bool is_original_clause(ClauseId id) const {
    return db_.is_original_clause(id);
  }

  // ---- refined ordering ----------------------------------------------
  /// Sets the external per-variable rank (bmc_score).  Only meaningful
  /// with rank_mode Static, Dynamic or Replace.  Missing entries default
  /// to 0.
  void set_variable_rank(std::span<const double> rank_by_var);

  /// Adjusts the per-solve resource limits (useful between incremental
  /// solve() calls; negative = unlimited).
  void set_resource_limits(std::int64_t conflict_limit,
                           double time_limit_sec) {
    config_.conflict_limit = conflict_limit;
    config_.time_limit_sec = time_limit_sec;
  }

  /// Cooperative cancellation: while `stop` is non-null and becomes true,
  /// solve() returns Result::Unknown at the next conflict / restart /
  /// decision boundary (and immediately when pre-set).  The flag is owned
  /// by the caller — typically the portfolio scheduler — and may be
  /// flipped from another thread; the solver only ever reads it.
  void set_stop_flag(const std::atomic<bool>* stop) { stop_ = stop; }
  bool stop_requested() const {
    return stop_ != nullptr && stop_->load(std::memory_order_relaxed);
  }

  /// Attaches a lemma-exchange endpoint (portfolio clause sharing).  The
  /// exchange is owned by the caller and must outlive every solve();
  /// null (the default) disables sharing and leaves every search
  /// trajectory bit-identical to a solver without the hook.
  void set_clause_exchange(ClauseExchange* exchange) { exchange_ = exchange; }

  // ---- incremental frame guards ---------------------------------------
  /// Declares `v` a frame activation guard (incremental sessions), so
  /// that retiring it later drives the retirement sweep.
  void register_frame_guard(Var v);
  /// Permanently falsifies a batch of activation guards: backtracks to
  /// the root, adds the unit ~g for each, then sweeps every clause a
  /// dead guard satisfies out of the arena (stats_.retired_frame_clauses)
  /// and compacts if worthwhile.  Returns ok_.
  bool retire_frame_guards(const std::vector<Lit>& guards);

  // ---- solving ---------------------------------------------------------
  Result solve() { return solve({}); }
  /// Solves under the given assumption literals.  Unsat then means "the
  /// formula refutes this assumption set"; unsat_core() reports the
  /// original clauses used in that refutation.
  Result solve(const std::vector<Lit>& assumptions);

  /// Model access after Result::Sat.
  lbool model_value(Var v) const;
  bool model_literal_true(Lit l) const {
    return (model_value(l.var()) ^ l.negated()) == l_True;
  }

  /// After Result::Unsat (with track_cdg): ids of original clauses in the
  /// unsatisfiable core, sorted ascending.  When the last solve used
  /// assumptions, the core is relative to them: core ∧ assumptions ⊨ ⊥.
  std::vector<ClauseId> unsat_core() const;
  /// Variables occurring in the unsat core, sorted ascending.
  std::vector<Var> unsat_core_vars() const {
    return unsat_core_vars(unsat_core());
  }
  /// Variables occurring in `core` (original-clause ids, as unsat_core()
  /// returns them), sorted ascending: a caller already holding the core
  /// skips a second dependency-graph walk.
  std::vector<Var> unsat_core_vars(const std::vector<ClauseId>& core) const;
  /// The assumptions of the most recent solve() call (empty for a plain
  /// solve) — needed to certify assumption-relative cores.
  const std::vector<Lit>& last_assumptions() const {
    return last_assumptions_;
  }

  const SolverStats& stats() const { return stats_; }
  const ConflictDependencyGraph& cdg() const { return cdg_; }

  /// Current assignment value (valid during/after solve; root-level facts
  /// persist across solve calls).
  lbool value(Var v) const { return trail_.value(v); }
  lbool value(Lit l) const { return trail_.value(l); }

  bool okay() const { return ok_; }

  /// The solver's layers, inspectable (tests, stats surfacing).
  const Trail& trail() const { return trail_; }
  const Propagator& propagator() const { return prop_; }
  const ClauseDB& clause_db() const { return db_; }

 private:
  // -- BCP (delegated to the Propagator) -----------------------------------
  ClauseRef propagate() { return prop_.propagate(trail_, db_.arena(), stats_); }

  // -- conflict analysis ---------------------------------------------------
  /// 1UIP analysis; fills `learnt` (learnt[0] = asserting literal),
  /// returns the backjump level, and fills `antecedents` with the clause
  /// ids resolved on (including those consumed by minimization and by
  /// elimination of root-implied literals).
  int analyze(ClauseRef confl, std::vector<Lit>& learnt,
              std::vector<ClauseId>& antecedents);
  bool lit_redundant(Lit p, std::uint32_t abstract_levels,
                     std::vector<ClauseId>& antecedents);
  /// Conflict with no decisions involved: the empty clause is derivable.
  void analyze_final_conflict(ClauseRef confl);
  /// The assumption `p` is refuted by propagation from the formula and
  /// earlier assumptions: record the clauses used.
  void analyze_assumption_refutation(Lit p);
  /// Adds the transitive reason closure of `v` to `antecedents`, stopping
  /// at decision/assumption variables (which have no reason clause).
  void collect_reason_closure(Var v, std::vector<ClauseId>& antecedents);
  void clear_closure_marks();
  /// Fetches the reason clause of trail literal `p`, normalized so the
  /// asserted literal sits at position 0 (binary propagation assigns
  /// without touching the arena, so its reasons may arrive swapped).
  Clause reason_clause(Lit p);

  // -- learned clause management (policy in the ClauseDB) -------------------
  void record_learned(const std::vector<Lit>& learnt, std::uint32_t lbd,
                      const std::vector<ClauseId>& antecedents);

  // -- lemma sharing --------------------------------------------------------
  /// Drains the attached exchange at decision level 0 and propagates the
  /// consequences.  Returns ok_: false means a foreign clause (or its
  /// propagation) produced a root conflict and the formula is unsat.
  bool import_shared_clauses();
  /// Integrates one foreign clause: root-simplifies it, then attaches it
  /// as a learned-tier clause (or asserts it when it reduces to a unit).
  void import_clause(std::span<const Lit> lits, std::uint32_t lbd);

  // -- search ---------------------------------------------------------------
  void backtrack(int level);
  static std::int64_t luby(std::int64_t i);

  SolverConfig config_;
  SolverStats stats_;

  Trail trail_;
  Propagator prop_;
  ClauseDB db_;
  DecisionQueue queue_;
  ConflictDependencyGraph cdg_;

  std::vector<Lit> assumptions_;       // active during a solve() call
  std::vector<Lit> last_assumptions_;  // assumptions of the latest solve

  // analysis scratch, reused across conflicts (no per-call allocation)
  std::vector<char> seen_;
  std::vector<Lit> analyze_toclear_;
  std::vector<Lit> minimize_stack_;  // lit_redundant work list
  std::vector<char> seen_closure_;   // reason-closure marks
  std::vector<Var> closure_clear_;
  std::vector<Var> closure_stack_;   // collect_reason_closure work list

  std::vector<lbool> model_;
  std::vector<Lit> add_buf_;                 // add_clause normalize scratch
  std::vector<Lit> import_buf_;              // import root-simplify scratch
  const std::atomic<bool>* stop_ = nullptr;  // not owned; may be null
  ClauseExchange* exchange_ = nullptr;       // not owned; may be null
  bool ok_ = true;
  bool solved_unsat_ = false;
  // Assumption savepoint: the assumption list whose decision levels were
  // kept on the trail by the previous solve()'s finish (levels 1..m map
  // to entries 0..m-1, placeholders included), and how many were kept.
  std::vector<Lit> savepoint_assumptions_;
  int savepoint_levels_ = 0;
  // Per-variable frame-guard state: 0 = not a guard, 1 = live, 2 = dead.
  std::vector<char> guard_state_;
};

}  // namespace refbmc::sat
