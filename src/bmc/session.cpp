#include "bmc/session.hpp"

#include "portfolio/clause_pool.hpp"
#include "util/assert.hpp"

namespace refbmc::bmc {

namespace {

class ScratchSession final : public FormulaSession {
 public:
  ScratchSession(SharedTape& tape, const sat::SolverConfig& scfg,
                 portfolio::SharedClausePool* pool, int producer)
      : tape_(tape), scfg_(scfg) {
    if (pool != nullptr)
      endpoint_ =
          std::make_unique<portfolio::PoolEndpoint>(*pool, producer);
  }

  Prepared prepare(int k) override {
    solver_ = std::make_unique<sat::Solver>(scfg_);
    origin_.clear();
    ClauseTape::Cursor cursor;
    SolverSink sink(*solver_, origin_);
    tape_.replay_to(k, cursor, sink);
    // Round-trip guard: a fresh replay must land the exact clause count
    // the tape reports — remapper drift between sessions would break the
    // shard group's "one formula, many solvers" premise silently.
    REFBMC_ASSERT(solver_->num_original_clauses() ==
                  tape_.simplified_clauses_at(k));

    const sat::Lit prop = cursor.translate(tape_.property(k));
    Prepared p;
    p.solver = solver_.get();
    p.property_lit = prop;
    if (endpoint_ != nullptr) {
      // Sharing: the fresh solver adopts the endpoint (rewound so the
      // ring's live lemmas flow in at solve start), and the property is
      // an assumption, not a clause — assumptions steer the search
      // without entering the clause database, so every learnt stays
      // implied by the tape and is sound to export.  (Side effect: the
      // property no longer counts as an original clause, so cnf_clauses
      // reads one lower per depth than in non-sharing mode.)
      endpoint_->rebind();
      endpoint_->sync_vars(cursor.var_map);
      solver_->set_clause_exchange(endpoint_.get());
      p.assumptions = {prop};
    } else {
      solver_->add_clause({prop});
    }
    p.cnf_vars = origin_.size();
    p.cnf_clauses = solver_->num_original_clauses();
    return p;
  }

  void retire(int) override {}  // the next depth starts from scratch

  const std::vector<VarOrigin>& origin() const override { return origin_; }

 private:
  SharedTape& tape_;
  sat::SolverConfig scfg_;
  std::unique_ptr<sat::Solver> solver_;
  std::unique_ptr<portfolio::PoolEndpoint> endpoint_;
  std::vector<VarOrigin> origin_;
};

class IncrementalSession final : public FormulaSession {
 public:
  IncrementalSession(SharedTape& tape, const sat::SolverConfig& scfg,
                     portfolio::SharedClausePool* pool, int producer)
      : tape_(tape),
        savepoint_(scfg.assumption_savepoint),
        solver_(std::make_unique<sat::Solver>(scfg)) {
    if (pool != nullptr) {
      endpoint_ =
          std::make_unique<portfolio::PoolEndpoint>(*pool, producer);
      solver_->set_clause_exchange(endpoint_.get());
    }
  }

  Prepared prepare(int k) override {
    REFBMC_EXPECTS_MSG(k >= prepared_depth_,
                       "incremental session depths must be non-decreasing");
    // Deferred retirements flush in batches: each flush costs a trip to
    // the root (the savepoint prefix is rebuilt on the next solve), so
    // amortize it over several proven depths.  Before the flush the dead
    // guards are disabled by assumption instead.
    if (pending_retire_.size() >= kRetireBatch) flush_retirements();

    SolverSink sink(*solver_, origin_);
    tape_.replay_to(k, cursor_, sink);
    prepared_depth_ = k;
    // Activation guards are solver-local (absent from the map), so the
    // endpoint's export filter refuses any learnt that mentions one —
    // exactly the learnts that are not implied by the tape alone.
    if (endpoint_ != nullptr) endpoint_->sync_vars(cursor_.var_map);

    while (static_cast<int>(activation_.size()) <= k)
      activation_.push_back(sat::kLitUndef);
    sat::Lit guard = activation_[static_cast<std::size_t>(k)];
    if (guard.is_undef()) {
      origin_.push_back(VarOrigin{model::kConstNode, -2});
      guard = sat::Lit::make(solver_->new_var());
      // Live guards shield their clauses from vivification and, once
      // retired, key the frame-retirement sweep.  Registration only in
      // savepoint mode: without it the solver must stay bit-identical
      // to a plain incremental session.
      if (savepoint_) solver_->register_frame_guard(guard.var());
      // Guarded property: assuming `guard` asserts the violation at k.
      solver_->add_clause({~guard, cursor_.translate(tape_.property(k))});
      activation_[static_cast<std::size_t>(k)] = guard;
    }

    Prepared p;
    p.solver = solver_.get();
    if (savepoint_) {
      // Stable, growing assumption prefix: every retired depth's guard
      // negated (in depth order — flushed ones are root facts and cost a
      // placeholder level), the live depth's guard last.  Successive
      // depths share all but the final entry, which is exactly what the
      // solver's assumption savepoint keeps assigned between calls.
      for (std::size_t j = 0; j < retired_.size(); ++j)
        if (retired_[j]) p.assumptions.push_back(~activation_[j]);
      p.assumptions.push_back(guard);
    } else {
      p.assumptions = {guard};
    }
    p.property_lit = cursor_.translate(tape_.property(k));
    p.cnf_vars = origin_.size();
    p.cnf_clauses = solver_->num_original_clauses();
    return p;
  }

  void retire(int k) override {
    REFBMC_EXPECTS(k >= 0 &&
                   static_cast<std::size_t>(k) < activation_.size() &&
                   !activation_[static_cast<std::size_t>(k)].is_undef());
    while (static_cast<std::size_t>(k) >= retired_.size())
      retired_.push_back(0);
    if (retired_[static_cast<std::size_t>(k)]) return;
    retired_[static_cast<std::size_t>(k)] = 1;
    if (savepoint_) {
      // Defer the permanent unit: until the next flush the dead guard is
      // disabled by assumption (~g leads the next depth's prefix), which
      // keeps the savepoint trail intact.
      pending_retire_.push_back(activation_[static_cast<std::size_t>(k)]);
      return;
    }
    // Permanently disable the guard so BCP never revisits the dead
    // property clause at deeper depths.
    solver_->add_clause({~activation_[static_cast<std::size_t>(k)]});
  }

  const std::vector<VarOrigin>& origin() const override { return origin_; }

 private:
  // Depths retired between flushes of the permanent units + arena sweep.
  static constexpr std::size_t kRetireBatch = 4;

  void flush_retirements() {
    solver_->retire_frame_guards(pending_retire_);
    pending_retire_.clear();
  }

  SharedTape& tape_;
  bool savepoint_;
  std::unique_ptr<sat::Solver> solver_;
  std::unique_ptr<portfolio::PoolEndpoint> endpoint_;
  ClauseTape::Cursor cursor_;
  std::vector<VarOrigin> origin_;
  std::vector<sat::Lit> activation_;  // per depth; undef = not created
  std::vector<char> retired_;         // per depth
  std::vector<sat::Lit> pending_retire_;  // savepoint mode: await flush
  int prepared_depth_ = -1;
};

}  // namespace

std::unique_ptr<FormulaSession> make_scratch_session(
    SharedTape& tape, const sat::SolverConfig& solver_config,
    portfolio::SharedClausePool* share_pool, int share_producer) {
  return std::make_unique<ScratchSession>(tape, solver_config, share_pool,
                                          share_producer);
}

std::unique_ptr<FormulaSession> make_incremental_session(
    SharedTape& tape, const sat::SolverConfig& solver_config,
    portfolio::SharedClausePool* share_pool, int share_producer) {
  return std::make_unique<IncrementalSession>(tape, solver_config,
                                              share_pool, share_producer);
}

}  // namespace refbmc::bmc
