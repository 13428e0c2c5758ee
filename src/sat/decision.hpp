// DecisionQueue: the decision ordering of the CDCL core — the paper's
// mechanism (§3.2–3.3) in one class.
//
// The queue owns everything the search loop needs to pick the next
// branch: one indexed max-heap of free variables, the external
// per-variable rank (bmc_score) and the §3.3 dynamic switch.  Its one
// comparator orders variables by
//     rank while rank_active(), then activity, then variable index,
// and a variable is decided toward its literal with the larger literal
// score (the positive literal wins ties).
//
// The scorer (DecisionMode) only decides what "activity" and "literal
// score" are:
//
//   * Chaff — the paper's solver: cha_score(l) starts as l's occurrence
//     count in the original formula and, every `update_period`
//     conflicts, becomes cha_score(l)/2 + new_lit_counts(l), where
//     new_lit_counts(l) counts the learned clauses containing l since
//     the last update.  A variable's activity is
//     max(cha_score(v), cha_score(~v)), and its literal scores are the
//     cha_scores.
//   * Evsids — MiniSat-lineage exponential VSIDS: every variable seen in
//     conflict analysis is bumped by an increment that inflates by
//     1/decay per conflict (rescaled on overflow).  A literal's score is
//     its occurrence count over original and learned clauses.
//
// Rank modes: None ignores the rank; Static keeps it primary for the
// whole search; Dynamic keeps it primary until this SAT instance's
// decisions exceed #original_literals / switch_divisor (the paper fixes
// the divisor at 64), then falls back to activity order until the next
// reset_switch(); Replace orders by rank alone, ties by index — the
// alternative §3.3 mentions and passes over.
#pragma once

#include <cstdint>
#include <vector>

#include "sat/trail.hpp"
#include "sat/types.hpp"
#include "util/heap.hpp"

namespace refbmc::sat {

enum class DecisionMode {
  Chaff,   // periodic halve-and-add literal scores (the paper's solver)
  Evsids,  // exponential VSIDS (MiniSat lineage)
};

enum class RankMode {
  None,     // pure VSIDS (baseline BMC)
  Static,   // bmc_score primary throughout, activity breaks ties
  Dynamic,  // bmc_score primary, activity order once the instance is hard
  Replace,  // bmc_score only (ties broken by index)
};

inline const char* to_string(RankMode m) {
  switch (m) {
    case RankMode::None: return "vsids";
    case RankMode::Static: return "static";
    case RankMode::Dynamic: return "dynamic";
    case RankMode::Replace: return "replace";
  }
  return "?";
}

class DecisionQueue {
 public:
  /// `update_period` (conflicts between halve-and-add updates) feeds the
  /// Chaff scorer, `decay` the Evsids scorer.
  DecisionQueue(DecisionMode scorer, RankMode rank_mode,
                int update_period = 256, double decay = 0.95);

  // The heap's comparator captures `this`; the queue stays where it was
  // constructed.
  DecisionQueue(const DecisionQueue&) = delete;
  DecisionQueue& operator=(const DecisionQueue&) = delete;

  // ---- variable registration and the rank feed -----------------------
  /// Registers a new variable (scores 0) and queues it.
  void add_var();
  /// External per-variable rank (bmc_score, default 0); primary key
  /// while rank_active().  Takes effect at the next rebuild().
  void set_rank(Var v, double score) {
    rank_[static_cast<std::size_t>(v)] = score;
  }
  /// Rebuilds the heap after bulk priority changes (rank feed applied).
  void rebuild() { heap_.rebuild(); }

  // ---- scoring hooks --------------------------------------------------
  /// One call per literal occurrence in the original formula.  Does not
  /// sift the heap (a rebuild realises the order).
  void on_original_literal(Lit l) {
    lit_score_[static_cast<std::size_t>(l.index())] += 1.0;
    if (scorer_ == DecisionMode::Chaff) refresh_chaff_activity(l.var());
  }
  /// One call per literal of each freshly learned clause.
  void on_learned_literal(Lit l) {
    const auto i = static_cast<std::size_t>(l.index());
    if (scorer_ == DecisionMode::Chaff)
      new_lits_[i] += 1;
    else
      lit_score_[i] += 1.0;
  }
  /// One call per variable marked during conflict analysis: the Evsids
  /// bump (Chaff scores learned literals instead).
  void on_analyzed_var(Var v) {
    if (scorer_ != DecisionMode::Evsids) return;
    double& a = activity_[static_cast<std::size_t>(v)];
    a += inc_;
    if (a > 1e100) rescale();
    heap_.update(v);
  }
  /// Once per conflict: Evsids inflation or Chaff's periodic update.
  void on_conflict() {
    if (scorer_ == DecisionMode::Evsids) {
      inc_ /= decay_;
    } else if (++conflicts_since_update_ >= update_period_) {
      conflicts_since_update_ = 0;
      halve_and_add();
    }
  }

  // ---- dynamic switch (§3.3) ------------------------------------------
  /// Once per decision: counts it toward this instance's decisions.
  /// `num_original_literals` is the literal count of the original
  /// formula.  Returns true when this call switched the order from
  /// rank-primary to activity.
  bool on_decision(std::uint64_t num_original_literals, int switch_divisor);
  /// Starts a SAT instance (a solve() call): zeroes the decision count
  /// and re-arms the switch, which is a per-instance verdict.
  void reset_switch();
  /// True while the rank is the primary sort key.
  bool rank_active() const {
    return mode_ == RankMode::Static || mode_ == RankMode::Replace ||
           (mode_ == RankMode::Dynamic && !switched_);
  }
  bool switched() const { return switched_; }
  /// Decisions of this instance: counted by on_decision since the last
  /// reset_switch().
  std::uint64_t decisions() const { return decisions_; }

  // ---- the queue itself -----------------------------------------------
  void insert(Var v) {
    if (!heap_.contains(v)) heap_.insert(v);
  }
  bool empty() const { return heap_.empty(); }
  Var pop() { return heap_.pop(); }
  /// Decision literal for v: the one with the larger literal score.
  Lit pick_phase(Var v) const {
    const Lit pos = Lit::make(v, false);
    const Lit neg = Lit::make(v, true);
    return lit_score(neg) > lit_score(pos) ? neg : pos;
  }
  /// Pops until a variable unassigned on `trail` surfaces and returns
  /// its decision literal; kLitUndef when no free variable remains
  /// (model found).
  Lit pick_branch(const Trail& trail);

  /// The literal score pick_phase compares (Chaff: cha_score).
  double lit_score(Lit l) const {
    return lit_score_[static_cast<std::size_t>(l.index())];
  }

 private:
  struct VarGreater {
    const DecisionQueue* q;
    bool operator()(int a, int b) const { return q->var_greater(a, b); }
  };

  bool var_greater(Var a, Var b) const {
    if (rank_active()) {
      const double ra = rank_[static_cast<std::size_t>(a)];
      const double rb = rank_[static_cast<std::size_t>(b)];
      if (ra != rb) return ra > rb;
      if (mode_ == RankMode::Replace) return a < b;  // no activity tiebreak
    }
    const double aa = activity_[static_cast<std::size_t>(a)];
    const double ab = activity_[static_cast<std::size_t>(b)];
    if (aa != ab) return aa > ab;
    return a < b;  // deterministic total order
  }

  /// Chaff activity of v: max(cha_score(v), cha_score(~v)).
  void refresh_chaff_activity(Var v) {
    const double p = lit_score(Lit::make(v, false));
    const double n = lit_score(Lit::make(v, true));
    activity_[static_cast<std::size_t>(v)] = p > n ? p : n;
  }
  void halve_and_add();
  void rescale();

  const DecisionMode scorer_;
  const RankMode mode_;
  bool switched_ = false;
  std::uint64_t decisions_ = 0;  // since the last reset_switch()
  // Chaff
  const int update_period_;
  int conflicts_since_update_ = 0;
  std::vector<std::uint32_t> new_lits_;  // per literal: new_lit_counts
  // Evsids
  const double decay_;
  double inc_ = 1.0;

  std::vector<double> lit_score_;  // per literal
  std::vector<double> activity_;   // per variable: the secondary key
  std::vector<double> rank_;       // per variable: bmc_score
  IndexedMaxHeap<VarGreater> heap_{VarGreater{this}};
};

}  // namespace refbmc::sat
