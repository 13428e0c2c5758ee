#include "sat/decision.hpp"

#include "util/assert.hpp"

namespace refbmc::sat {

DecisionQueue::DecisionQueue(DecisionMode scorer, RankMode rank_mode,
                             int update_period, double decay)
    : scorer_(scorer),
      mode_(rank_mode),
      update_period_(update_period),
      decay_(decay) {
  REFBMC_EXPECTS(update_period > 0);
  REFBMC_EXPECTS(decay > 0.0 && decay < 1.0);
}

void DecisionQueue::add_var() {
  const auto v = static_cast<Var>(rank_.size());
  lit_score_.push_back(0.0);
  lit_score_.push_back(0.0);
  new_lits_.push_back(0);
  new_lits_.push_back(0);
  activity_.push_back(0.0);
  rank_.push_back(0.0);
  heap_.insert(v);
}

bool DecisionQueue::refresh_ranks(std::span<const double> rank_by_var) {
  for (std::size_t v = 0; v < rank_by_var.size(); ++v)
    set_rank(static_cast<Var>(v), rank_by_var[v]);
  if (!rank_active()) return false;  // values kept; activity order stands
  rebuild();
  return true;
}

bool DecisionQueue::on_decision(std::uint64_t num_original_literals,
                                int switch_divisor) {
  ++decisions_;
  if (mode_ != RankMode::Dynamic || switched_) return false;
  REFBMC_EXPECTS(switch_divisor > 0);
  if (decisions_ >
      num_original_literals / static_cast<std::uint64_t>(switch_divisor)) {
    switched_ = true;
    heap_.rebuild();  // primary key changed from rank to activity
    return true;
  }
  return false;
}

void DecisionQueue::reset_switch() {
  decisions_ = 0;
  if (switched_) {
    switched_ = false;
    heap_.rebuild();
  }
}

Lit DecisionQueue::pick_branch(const Trail& trail) {
  while (!heap_.empty()) {
    const Var v = heap_.pop();
    if (trail.value(v) == l_Undef) return pick_phase(v);
  }
  return kLitUndef;
}

void DecisionQueue::halve_and_add() {
  for (std::size_t i = 0; i < lit_score_.size(); ++i) {
    lit_score_[i] = lit_score_[i] / 2.0 + static_cast<double>(new_lits_[i]);
    new_lits_[i] = 0;
  }
  for (Var v = 0; v < static_cast<Var>(activity_.size()); ++v)
    refresh_chaff_activity(v);
  // Scores moved wholesale; the heap order is stale.
  heap_.rebuild();
}

void DecisionQueue::rescale() {
  for (double& a : activity_) a *= 1e-100;
  inc_ *= 1e-100;
  // Uniform scaling preserves the heap order; no rebuild needed.
}

}  // namespace refbmc::sat
