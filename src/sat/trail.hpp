// Trail: the assignment stack of the CDCL core.
//
// Owns everything that describes the current partial assignment — the
// value of every literal, and per variable its decision level and reason
// clause — plus the assignment stack itself, the decision-level frames
// and the propagation queue head.  The Propagator consumes the queue,
// the Solver drives decisions and backtracking; neither owns assignment
// state.
//
// Values are stored per literal (one byte at Lit::index()), so the BCP
// hot path reads a literal's value with a single load and no sign flip;
// assign and cancel_until keep both polarities of a variable in step.
//
// Backtracking (`cancel_until`) takes a callback so the owner can observe
// every unassigned variable (the Solver re-inserts it into the
// DecisionQueue) without the Trail depending on the decision layer.
#pragma once

#include <cstdint>
#include <vector>

#include "sat/clause.hpp"
#include "sat/types.hpp"
#include "util/assert.hpp"

namespace refbmc::sat {

class Trail {
 public:
  // ---- variables -----------------------------------------------------
  Var new_var() {
    const Var v = num_vars();
    vals_.push_back(l_Undef);  // positive literal
    vals_.push_back(l_Undef);  // negative literal
    level_.push_back(0);
    reason_.push_back(kClauseRefUndef);
    return v;
  }
  int num_vars() const { return static_cast<int>(level_.size()); }

  lbool value(Var v) const { return value(Lit::make(v)); }
  lbool value(Lit l) const {
    return vals_[static_cast<std::size_t>(l.index())];
  }
  int level(Var v) const { return level_[static_cast<std::size_t>(v)]; }
  ClauseRef reason(Var v) const {
    return reason_[static_cast<std::size_t>(v)];
  }
  void set_reason(Var v, ClauseRef r) {
    reason_[static_cast<std::size_t>(v)] = r;
  }

  /// 1 << (level(v) & 31): the level signature used by recursive clause
  /// minimization.
  std::uint32_t abstract_level(Var v) const {
    return 1u << (static_cast<std::uint32_t>(level(v)) & 31u);
  }

  // ---- decision levels -----------------------------------------------
  int decision_level() const { return static_cast<int>(lim_.size()); }
  void new_decision_level() {
    lim_.push_back(static_cast<int>(trail_.size()));
  }

  // ---- assignment stack ----------------------------------------------
  /// Appends the assignment l (with its implying clause, or
  /// kClauseRefUndef for decisions/assumptions) at the current level.
  /// The literal enters the propagation queue.
  void assign(Lit l, ClauseRef reason) {
    REFBMC_ASSERT(value(l) == l_Undef);
    const auto v = static_cast<std::size_t>(l.var());
    vals_[static_cast<std::size_t>(l.index())] = l_True;
    vals_[static_cast<std::size_t>((~l).index())] = l_False;
    level_[v] = decision_level();
    reason_[v] = reason;
    trail_.push_back(l);
  }

  std::size_t size() const { return trail_.size(); }
  Lit operator[](std::size_t i) const { return trail_[i]; }

  // ---- propagation queue ---------------------------------------------
  bool fully_propagated() const {
    return qhead_ == static_cast<int>(trail_.size());
  }
  Lit dequeue() { return trail_[static_cast<std::size_t>(qhead_++)]; }
  /// Discards the rest of the queue (conflict found: analysis restarts
  /// propagation after backtracking anyway).
  void flush_queue() { qhead_ = static_cast<int>(trail_.size()); }

  // ---- backtracking --------------------------------------------------
  /// Undoes all assignments above `level`; calls `on_unassign(v)` for
  /// each variable as it becomes free (most recent first).
  template <typename OnUnassign>
  void cancel_until(int level, OnUnassign&& on_unassign) {
    if (decision_level() <= level) return;
    const int bound = lim_[static_cast<std::size_t>(level)];
    for (int i = static_cast<int>(trail_.size()) - 1; i >= bound; --i) {
      const Lit l = trail_[static_cast<std::size_t>(i)];
      const auto v = static_cast<std::size_t>(l.var());
      vals_[static_cast<std::size_t>(l.index())] = l_Undef;
      vals_[static_cast<std::size_t>((~l).index())] = l_Undef;
      reason_[v] = kClauseRefUndef;
      on_unassign(static_cast<Var>(v));
    }
    trail_.resize(static_cast<std::size_t>(bound));
    lim_.resize(static_cast<std::size_t>(level));
    if (qhead_ > bound) qhead_ = bound;
  }

  /// Per-variable copy of the assignment (the model, when complete).
  std::vector<lbool> assignments() const;

  /// Patches every reason reference through an arena relocation map
  /// (sorted by old ref); reasons of unassigned variables are dropped.
  void relocate_reasons(
      const std::vector<std::pair<ClauseRef, ClauseRef>>& map);

 private:
  std::vector<lbool> vals_;        // per Lit::index()
  std::vector<int> level_;         // per var
  std::vector<ClauseRef> reason_;  // per var
  std::vector<Lit> trail_;
  std::vector<int> lim_;  // trail size at each decision level start
  int qhead_ = 0;
};

/// Looks `cref` up in a relocation map sorted by old reference (the order
/// ClauseArena::garbage_collect emits).
ClauseRef relocate_ref(
    ClauseRef cref,
    const std::vector<std::pair<ClauseRef, ClauseRef>>& map);

}  // namespace refbmc::sat
