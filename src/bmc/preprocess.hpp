// Tape-level CNF preprocessing (paper-adjacent perf layer; ROADMAP
// "Inprocessing + formula preprocessing layer").
//
// The tape pipeline simplifies at the AIG level (constprop, strashing,
// latch aliasing), but the CNF that reaches the racing solvers is the
// raw Tseitin encoding.  This pass simplifies the *clause* level once
// per encoded depth — the clauses that depth added, with every earlier
// depth's variables frozen — before SharedTape replays the cached
// deltas into any session's solver:
//
//   * unit propagation to fixpoint (root units stay in the output, so
//     the solver sees the same level-0 facts it would have derived);
//   * subsumption and self-subsuming resolution, occurrence lists +
//     64-bit signature filtering (SatELite's backward-subsumption idiom);
//   * pure-literal elimination;
//   * bounded variable elimination (NiVER: eliminate v only when the
//     non-tautological resolvents do not outnumber the clauses they
//     replace, under an occurrence budget and a resolvent-size cap).
//
// Data layout: every clause list the pass reads or writes is a flat
// ClauseList (one literal vector plus end offsets) — the input, the
// output, the witness kits and the SharedTape caches built from them.
// Inside the pass every clause lives in one literal arena and is
// strengthened in place; the arena, the occurrence lists and the scratch
// buffers belong to a PreprocessWorkspace the caller owns and reuses, so
// a steady-state pass allocates only its outputs.  Rounds after the
// first are scheduled from touched sets: a variable is retried for
// elimination only once a clause holding it was added, killed or
// strengthened, and subsumption skips the pivot/candidate pairs whose
// clauses both stayed unchanged since the previous round started (that
// round already proved the check fails).  Only provably failing checks
// are skipped, so the result is exactly that of running every check.
//
// Soundness contract with the rest of the race:
//
//   * Variable numbering is PRESERVED.  Eliminated tape variables simply
//     never reach the solver (their var_map slot is sat::kVarUndef), so
//     VarOrigin projection — extract_trace, CDG core vars, RankProjector,
//     PoolEndpoint — keeps working unchanged on the kept variables.
//   * Every simplified clause is implied by the original tape range, so
//     lemmas derived from the simplified formula are tape-implied and
//     safe to export to the shared pool; imported lemmas over eliminated
//     variables are dropped at the endpoint (they can never bind here).
//   * FROZEN variables are never eliminated: inputs and latches (trace
//     extraction and cross-depth identity), per-frame property/bad
//     literals (assumption guards), and the encoder's auxiliary
//     constant variables.  Frozen variables may still be *assigned* by
//     unit propagation — the unit stays in the output, so the solver
//     derives the same root fact.
//   * Eliminated variables carry a witness (the clauses removed with
//     them).  Traces never need it — extract_trace reads only frozen
//     input and latch variables — but incremental sessions re-add a
//     witness kit to resurrect a variable a later delta references, and
//     VarRemapper::complete_model extends any model of the simplified
//     formula to a model of the original, which is how the soundness
//     tests check full-model round trips.
#pragma once

#include <climits>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <vector>

#include "sat/types.hpp"
#include "util/assert.hpp"

namespace refbmc::bmc {

/// A list of clauses in one flat literal vector plus one end offset per
/// clause.  Appending never allocates per clause, clear() keeps the
/// capacity, and the footprint is exactly two vectors.
class ClauseList {
 public:
  ClauseList() = default;
  ClauseList(std::initializer_list<std::initializer_list<sat::Lit>> clauses) {
    for (const auto& c : clauses) push_back(c);
  }

  std::size_t size() const { return ends_.size(); }
  bool empty() const { return ends_.empty(); }
  std::size_t num_lits() const { return lits_.size(); }

  std::span<const sat::Lit> operator[](std::size_t i) const {
    const std::size_t b = i == 0 ? 0 : ends_[i - 1];
    return {lits_.data() + b, ends_[i] - b};
  }

  void push_back(std::span<const sat::Lit> c) {
    lits_.insert(lits_.end(), c.begin(), c.end());
    REFBMC_ASSERT(lits_.size() <= UINT32_MAX);
    ends_.push_back(static_cast<std::uint32_t>(lits_.size()));
  }
  void push_back(std::initializer_list<sat::Lit> c) {
    push_back(std::span<const sat::Lit>(c.begin(), c.size()));
  }

  /// Appends clauses [first, last) of `other`.
  void append(const ClauseList& other, std::size_t first, std::size_t last) {
    for (std::size_t i = first; i < last; ++i) push_back(other[i]);
  }

  void clear() {
    lits_.clear();
    ends_.clear();
  }
  void reserve(std::size_t clauses, std::size_t lits) {
    ends_.reserve(clauses);
    lits_.reserve(lits);
  }
  void shrink_to_fit() {
    lits_.shrink_to_fit();
    ends_.shrink_to_fit();
  }
  /// Heap bytes held (capacity, not size).
  std::size_t memory_bytes() const {
    return lits_.capacity() * sizeof(sat::Lit) +
           ends_.capacity() * sizeof(std::uint32_t);
  }

  /// Range-for support: yields each clause as a span.
  class Iter {
   public:
    Iter(const ClauseList* list, std::size_t i) : list_(list), i_(i) {}
    std::span<const sat::Lit> operator*() const { return (*list_)[i_]; }
    Iter& operator++() {
      ++i_;
      return *this;
    }
    friend bool operator==(const Iter& a, const Iter& b) {
      return a.i_ == b.i_;
    }

   private:
    const ClauseList* list_;
    std::size_t i_;
  };
  Iter begin() const { return Iter(this, 0); }
  Iter end() const { return Iter(this, size()); }

 private:
  std::vector<sat::Lit> lits_;
  std::vector<std::uint32_t> ends_;  // one past each clause's last literal
};

/// Knobs for the tape pass.  Equality-comparable: shard groups and
/// shared tapes must agree on the exact configuration or their solvers
/// would race on different formulas (scheduler group key / engine
/// shared-tape assert).
struct PreprocessOptions {
  bool enabled = false;
  /// NiVER occurrence budget: variable v is a candidate only while
  /// occ(v) + occ(~v) <= bve_budget.
  int bve_budget = 16;
  /// Resolvent-size cap: an elimination producing any resolvent longer
  /// than this is rejected (keeps clauses short even when counts allow).
  int bve_max_resolvent = 24;
  /// Maximum simplification rounds (each = subsume/SSR + pure + BVE +
  /// unit propagation); stops early at fixpoint.
  int rounds = 3;

  friend bool operator==(const PreprocessOptions&,
                         const PreprocessOptions&) = default;
};

struct PreprocessStats {
  std::uint64_t vars_eliminated = 0;  // BVE + pure + zero-occurrence
  std::uint64_t pure_literals = 0;    // subset of vars_eliminated
  std::uint64_t clauses_subsumed = 0;
  std::uint64_t lits_strengthened = 0;  // self-subsumption + UP strips
  std::uint64_t units_propagated = 0;
  std::uint64_t clauses_in = 0;
  std::uint64_t clauses_out = 0;
  std::uint64_t lits_in = 0;
  std::uint64_t lits_out = 0;
  /// Wall time of SharedTape's pass: the tape scan that stages the
  /// input plus the simplification.  TapePreprocessor::run leaves it 0.
  std::uint64_t preprocess_us = 0;
};

/// The kept set plus the witness stack of eliminated variables.
///
/// Kept variables keep their tape numbering (the session's var_map does
/// the tape→solver translation as before); eliminated variables carry a
/// witness entry whose clauses live in the remapper's one flat
/// ClauseList.  Witnesses are completed in REVERSE elimination order:
/// each entry's clauses may mention variables eliminated later (already
/// completed) or kept variables, never variables eliminated earlier
/// (their clauses were gone by then).
///
/// The incremental session's cumulative stack is one remapper across
/// all depths: each entry records the depth whose delta eliminated it,
/// and resurrection marks an entry dead (with its depth) instead of
/// erasing it, so as_of(k) rebuilds exactly the state after depth k.
class VarRemapper {
 public:
  static constexpr int kLive = INT_MAX;

  struct Witness {
    /// The eliminated literal; every witness-side clause contains it.
    sat::Lit lit;
    /// Clause indices into clauses(): [first, mid) is the witness side
    /// (BVE: the positive occurrence list; pure: all occurrences;
    /// zero-occ: empty), [mid, last) the removed side (BVE: the negative
    /// occurrence list; empty otherwise).  Both sides together are the
    /// variable's resurrection kit: re-adding them restores every
    /// constraint the elimination deleted, which is what lets an
    /// incremental delta reference a variable eliminated at an earlier
    /// depth (global strashing makes later frames point at earlier gate
    /// variables).
    std::uint32_t first = 0;
    std::uint32_t mid = 0;
    std::uint32_t last = 0;
    /// Incremental depth whose delta eliminated it (0 for a one-off pass).
    int eliminated_at = 0;
    /// Incremental depth that re-admitted it; kLive while eliminated.
    int resurrected_at = kLive;

    bool live_at(int depth) const {
      return eliminated_at <= depth && resurrected_at > depth;
    }
  };

  VarRemapper() = default;
  explicit VarRemapper(int num_vars)
      : kept_(static_cast<std::size_t>(num_vars), 1) {}

  int num_vars() const { return static_cast<int>(kept_.size()); }
  bool is_kept(sat::Var v) const {
    return kept_[static_cast<std::size_t>(v)] != 0;
  }
  /// Live (not resurrected) entries.
  std::size_t num_eliminated() const { return live_; }
  /// Every entry in elimination order, resurrected ones included.
  const std::vector<Witness>& witnesses() const { return witnesses_; }
  const ClauseList& clauses() const { return clauses_; }

  /// Appends newly encoded tape variables (kept by default).  Used by
  /// the incremental delta pass, whose variable universe grows with
  /// each depth while the witness stack persists.
  void grow(int num_vars);

  /// Adds a clause to the kit of the next eliminate() call.
  void push_clause(std::span<const sat::Lit> c) { clauses_.push_back(c); }
  /// Marks lit.var() eliminated.  Its kit is every clause pushed since
  /// the previous entry: the first `num_witness` are the witness side
  /// (each must contain `lit`), the rest the removed side.
  void eliminate(sat::Lit lit, std::size_t num_witness, int depth = 0);

  /// Appends every entry of `pass` (a one-off pass's remapper over a
  /// prefix of this variable universe) as eliminated at `depth`.
  void append(const VarRemapper& pass, int depth);

  /// Re-admits an eliminated variable at `depth`: marks it kept again
  /// and its entry dead.  The caller must re-add the returned entry's
  /// kit (clauses [first, last)) to the formula — afterwards the
  /// variable behaves as if it had never been eliminated, and
  /// `complete_model` reads its value from the solver model like any
  /// kept variable.
  const Witness& resurrect(sat::Var v, int depth);

  /// The remapper as it stood after depth `depth`, over the first
  /// `num_vars` variables: the entries live at that depth, in
  /// elimination order, with their own compact clause list.
  VarRemapper as_of(int depth, int num_vars) const;

  /// Extends a model of the simplified formula (tape-var indexed; kept
  /// variables assigned, eliminated ones l_Undef) to a model of the
  /// original formula.  Default: falsify the witness literal (which
  /// satisfies the removed opposite-polarity clauses); flip only when
  /// some witness clause is otherwise unsatisfied (the flip satisfies
  /// all of them — they all contain the literal).
  void complete_model(std::vector<sat::lbool>& values) const;

  /// Heap bytes held (kept set, entries and kit clauses).
  std::size_t memory_bytes() const {
    return kept_.capacity() + witnesses_.capacity() * sizeof(Witness) +
           clauses_.memory_bytes();
  }
  void shrink_to_fit() {
    kept_.shrink_to_fit();
    witnesses_.shrink_to_fit();
    clauses_.shrink_to_fit();
  }

 private:
  std::vector<char> kept_;  // per tape var: 1 = survives to the solver
  std::vector<Witness> witnesses_;  // elimination order
  ClauseList clauses_;              // every entry's kit, in entry order
  std::size_t live_ = 0;
};

struct SimplifyResult {
  /// Simplified clauses in tape variable space: unit clauses for every
  /// root-level fact first, then the surviving clauses in tape order.
  /// Deterministic for a given (clauses, frozen, options) input.
  ClauseList clauses;
  VarRemapper remap;
  PreprocessStats stats;
  /// Post-run root assignment per tape variable (includes any seeded
  /// facts).  The incremental pass carries this across depths so later
  /// deltas are simplified against everything already known.
  std::vector<sat::lbool> assigned;
  /// True when the pass derived the empty clause (should not happen on
  /// a definitional tape) and returned the input unsimplified.
  bool fell_back = false;
};

/// Memory the pass reuses from run to run: the staged input, the
/// literal arena and clause headers, occurrence lists, touched sets and
/// scratch buffers.  Contents are meaningless between runs; capacity is
/// kept, so a steady-state pass allocates only its outputs.  One
/// workspace serves one run at a time (SharedTape uses it under its
/// mutex).  It is scratch sized by the largest pass, not formula state,
/// so SharedTape does not charge it to a MemTracker.
class PreprocessWorkspace {
 public:
  PreprocessWorkspace();
  ~PreprocessWorkspace();
  PreprocessWorkspace(const PreprocessWorkspace&) = delete;
  PreprocessWorkspace& operator=(const PreprocessWorkspace&) = delete;

  /// Staging buffer for the pass input: callers may scan clauses into
  /// it and hand it to TapePreprocessor::run.
  ClauseList input;

  struct State;  // the pass's own buffers (preprocess.cpp)

 private:
  friend class TapePreprocessor;
  std::unique_ptr<State> state_;
};

class TapePreprocessor {
 public:
  explicit TapePreprocessor(PreprocessOptions opts) : opts_(opts) {}

  /// Simplifies `clauses` (over variables 0..num_vars-1) with the
  /// variables marked in `frozen` (size num_vars) protected from
  /// elimination.  The result is a pure function of the inputs; `ws`
  /// only lends memory (`clauses` may be ws.input).
  ///
  /// `seed` (optional, size num_vars) pre-assigns root facts from
  /// earlier incremental deltas: seeded literals simplify the input
  /// (satisfied clauses die, false literals strip) but are neither
  /// counted as new units nor re-emitted in the output — the consuming
  /// solver already owns them.
  SimplifyResult run(int num_vars, const ClauseList& clauses,
                     const std::vector<char>& frozen,
                     const std::vector<sat::lbool>* seed,
                     PreprocessWorkspace& ws) const;

 private:
  PreprocessOptions opts_;
};

}  // namespace refbmc::bmc
