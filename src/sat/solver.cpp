#include "sat/solver.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"

namespace refbmc::sat {

Solver::Solver(SolverConfig config)
    : config_(config),
      db_(config.clause_decay, config.glue_lbd, config.tier_lbd),
      queue_(config.decision, config.rank_mode, config.vsids_update_period,
             config.evsids_decay) {
  if (config_.mem_tracker != nullptr) {
    db_.arena().set_mem_tracker(config_.mem_tracker);
    prop_.set_mem_tracker(config_.mem_tracker);
  }
}

Var Solver::new_var() {
  const Var v = trail_.new_var();
  prop_.new_var();
  seen_.push_back(0);
  seen_closure_.push_back(0);
  queue_.add_var();
  return v;
}

void Solver::set_variable_rank(std::span<const double> rank_by_var) {
  REFBMC_EXPECTS(rank_by_var.size() <= static_cast<std::size_t>(num_vars()));
  for (std::size_t v = 0; v < rank_by_var.size(); ++v)
    queue_.set_rank(static_cast<Var>(v), rank_by_var[v]);
  queue_.rebuild();
}

bool Solver::add_clause(std::span<const Lit> lits) {
  REFBMC_EXPECTS_MSG(
      trail_.decision_level() == 0 || config_.assumption_savepoint,
      "clauses can only be added at the root level");
  for (const Lit l : lits)
    REFBMC_EXPECTS_MSG(!l.is_undef() && l.var() < num_vars(),
                       "literal over unknown variable");

  // Dedup; detect tautology.  Normalized in place in the member buffer,
  // which keeps its capacity from clause to clause.
  std::vector<Lit>& c = add_buf_;
  c.assign(lits.begin(), lits.end());
  std::sort(c.begin(), c.end());
  c.erase(std::unique(c.begin(), c.end()), c.end());
  bool tautology = false;
  for (std::size_t i = 0; i + 1 < c.size(); ++i) {
    if (c[i].var() == c[i + 1].var()) {
      tautology = true;
      break;
    }
  }

  // Every call consumes an id so external clause indexing stays in sync.
  const ClauseId id = db_.register_original(c, /*counted=*/!tautology);
  if (config_.track_cdg) cdg_.register_original(id);

  if (tautology) return ok_;  // recorded but irrelevant to solving

  for (const Lit l : c) queue_.on_original_literal(l);

  if (!ok_) return false;  // already unsat; id bookkeeping done above

  if (c.empty()) {
    ok_ = false;
    if (config_.track_cdg) cdg_.set_final_conflict({id});
    return false;
  }

  if (trail_.decision_level() > 0) {
    // Savepoint mode: the trail still holds a kept assumption prefix.
    // When the clause has two literals non-false under the live prefix it
    // attaches in place (watch invariants hold; nothing propagates).
    // Otherwise flush to the root and fall through to the usual handling
    // — the savepoint is rebuilt by the next solve().
    std::size_t nnf = 0;
    for (std::size_t i = 0; i < c.size(); ++i) {
      if (value(c[i]) != l_False) std::swap(c[nnf++], c[i]);
    }
    if (nnf >= 2) {
      const ClauseRef cref = db_.alloc_original(c, id);
      prop_.attach(db_.arena(), cref);
      return ok_;
    }
    backtrack(0);
  }

  // Partition: non-false-at-root literals first.  False-at-root literals
  // are kept (the clause stays intact for reason/core identity); they can
  // never become true again since root assignments persist.
  std::size_t num_non_false = 0;
  for (std::size_t i = 0; i < c.size(); ++i) {
    if (value(c[i]) != l_False) std::swap(c[num_non_false++], c[i]);
  }

  if (num_non_false == 0) {
    // Clause falsified by root-level units: the empty clause is derivable.
    ok_ = false;
    if (config_.track_cdg) {
      std::vector<ClauseId> ants{id};
      for (const Lit l : c) collect_reason_closure(l.var(), ants);
      clear_closure_marks();
      cdg_.set_final_conflict(ants);
    }
    return false;
  }

  const ClauseRef cref = db_.alloc_original(c, id);

  if (num_non_false == 1) {
    if (value(c[0]) == l_True) return ok_;  // satisfied at root forever
    // Effectively a unit clause: propagate immediately so later adds see
    // the consequences.  No watches needed — it can never be falsified
    // except through a root conflict, which we detect here.
    trail_.assign(c[0], cref);
    const ClauseRef confl = propagate();
    if (confl != kClauseRefUndef) {
      ok_ = false;
      if (config_.track_cdg) analyze_final_conflict(confl);
      return false;
    }
    return ok_;
  }

  prop_.attach(db_.arena(), cref);
  return ok_;
}

void Solver::backtrack(int level) {
  trail_.cancel_until(level, [this](Var v) { queue_.insert(v); });
}

void Solver::collect_reason_closure(Var v, std::vector<ClauseId>& antecedents) {
  // Collects the ids of all clauses participating in the propagation
  // derivation of `v`, transitively, stopping at decision/assumption
  // variables (no reason clause).  Marks persist until
  // clear_closure_marks() so repeated calls within one analysis dedup.
  if (seen_closure_[static_cast<std::size_t>(v)]) return;
  seen_closure_[static_cast<std::size_t>(v)] = 1;
  closure_clear_.push_back(v);
  closure_stack_.clear();
  closure_stack_.push_back(v);
  while (!closure_stack_.empty()) {
    const Var u = closure_stack_.back();
    closure_stack_.pop_back();
    const ClauseRef r = trail_.reason(u);
    if (r == kClauseRefUndef) continue;  // decision or assumption
    const Clause c = db_.get(r);
    antecedents.push_back(c.id());
    for (std::uint32_t k = 0; k < c.size(); ++k) {
      const Var w = c[k].var();
      if (w == u || seen_closure_[static_cast<std::size_t>(w)]) continue;
      seen_closure_[static_cast<std::size_t>(w)] = 1;
      closure_clear_.push_back(w);
      closure_stack_.push_back(w);
    }
  }
}

void Solver::clear_closure_marks() {
  for (const Var v : closure_clear_)
    seen_closure_[static_cast<std::size_t>(v)] = 0;
  closure_clear_.clear();
}

void Solver::analyze_final_conflict(ClauseRef confl) {
  std::vector<ClauseId> ants;
  const Clause c = db_.get(confl);
  ants.push_back(c.id());
  for (std::uint32_t k = 0; k < c.size(); ++k)
    collect_reason_closure(c[k].var(), ants);
  clear_closure_marks();
  cdg_.set_final_conflict(ants);
}

void Solver::analyze_assumption_refutation(Lit p) {
  // `p` is an assumption that propagation (from the formula plus earlier
  // assumptions) has driven false: the clauses in its reason closure
  // derive the refutation of the assumption set.
  std::vector<ClauseId> ants;
  collect_reason_closure(p.var(), ants);
  clear_closure_marks();
  cdg_.set_final_conflict(ants);
}

Clause Solver::reason_clause(Lit p) {
  const ClauseRef r = trail_.reason(p.var());
  REFBMC_ASSERT(r != kClauseRefUndef);
  Clause c = db_.get(r);
  if (c[0] != p) {
    // Only binary propagation assigns without normalizing the clause.
    REFBMC_ASSERT(c.size() == 2 && c[1] == p);
    c.swap_lits(0, 1);
  }
  return c;
}

int Solver::analyze(ClauseRef confl, std::vector<Lit>& learnt,
                    std::vector<ClauseId>& antecedents) {
  learnt.clear();
  learnt.push_back(kLitUndef);  // slot for the asserting literal
  antecedents.clear();

  int path_count = 0;
  Lit p = kLitUndef;
  int index = static_cast<int>(trail_.size()) - 1;
  Clause c = db_.get(confl);

  do {
    if (config_.track_cdg) antecedents.push_back(c.id());
    // Bump and re-tier: a clause re-derived through fewer levels now
    // deserves a better (lower) LBD.  Clauses already in the glue tier
    // cannot improve — skip the recomputation on them — and the capped
    // walk stops as soon as improvement is ruled out.
    if (c.learnt()) {
      const std::uint32_t stored = c.lbd();
      const std::uint32_t lbd =
          stored > static_cast<std::uint32_t>(config_.glue_lbd)
              ? db_.compute_lbd_capped(c, trail_, stored)
              : 0;
      db_.on_used_in_analysis(c, lbd);
    }

    for (std::uint32_t k = (p == kLitUndef) ? 0 : 1; k < c.size(); ++k) {
      const Lit q = c[k];
      const auto vq = static_cast<std::size_t>(q.var());
      if (seen_[vq]) continue;
      if (trail_.level(q.var()) > 0) {
        seen_[vq] = 1;
        queue_.on_analyzed_var(q.var());
        analyze_toclear_.push_back(q);
        if (trail_.level(q.var()) >= trail_.decision_level()) {
          ++path_count;
        } else {
          learnt.push_back(q);
        }
      } else if (config_.track_cdg) {
        // Root-level literal resolved away by its unit derivation.
        collect_reason_closure(q.var(), antecedents);
      }
    }

    // Next clause to resolve with: last seen trail literal.
    while (!seen_[static_cast<std::size_t>(
        trail_[static_cast<std::size_t>(index)].var())])
      --index;
    p = trail_[static_cast<std::size_t>(index)];
    --index;
    seen_[static_cast<std::size_t>(p.var())] = 0;
    --path_count;
    if (path_count > 0) c = reason_clause(p);
  } while (path_count > 0);
  learnt[0] = ~p;

  // Recursive clause minimization: drop literals implied by the rest.
  std::uint32_t abstract = 0;
  for (std::size_t i = 1; i < learnt.size(); ++i)
    abstract |= trail_.abstract_level(learnt[i].var());
  std::size_t kept = 1;
  for (std::size_t i = 1; i < learnt.size(); ++i) {
    const Var v = learnt[i].var();
    if (trail_.reason(v) == kClauseRefUndef ||
        !lit_redundant(learnt[i], abstract, antecedents)) {
      learnt[kept++] = learnt[i];
    } else {
      ++stats_.minimized_literals;
    }
  }
  learnt.resize(kept);

  // Find the backjump level: maximal level among learnt[1..].
  int backjump = 0;
  if (learnt.size() > 1) {
    std::size_t max_i = 1;
    for (std::size_t i = 2; i < learnt.size(); ++i) {
      if (trail_.level(learnt[i].var()) > trail_.level(learnt[max_i].var()))
        max_i = i;
    }
    std::swap(learnt[1], learnt[max_i]);
    backjump = trail_.level(learnt[1].var());
  }

  for (const Lit l : analyze_toclear_)
    seen_[static_cast<std::size_t>(l.var())] = 0;
  analyze_toclear_.clear();
  clear_closure_marks();

  return backjump;
}

bool Solver::lit_redundant(Lit p, std::uint32_t abstract_levels,
                           std::vector<ClauseId>& antecedents) {
  // Checks whether ~p is implied by the other learnt literals through the
  // implication graph.  On success the reason clauses used become
  // antecedents of the learned clause; on failure all tentative marks and
  // antecedents are rolled back.
  minimize_stack_.clear();
  minimize_stack_.push_back(p);
  const std::size_t toclear_top = analyze_toclear_.size();
  const std::size_t ants_top = antecedents.size();
  const std::size_t closure_top = closure_clear_.size();

  while (!minimize_stack_.empty()) {
    const Lit q = minimize_stack_.back();
    minimize_stack_.pop_back();
    // q is false on the trail; its var's reason asserts ~q.
    const Clause c = reason_clause(~q);
    if (config_.track_cdg) antecedents.push_back(c.id());
    for (std::uint32_t k = 1; k < c.size(); ++k) {
      const Lit l = c[k];
      const auto v = static_cast<std::size_t>(l.var());
      if (seen_[v]) continue;
      if (trail_.level(l.var()) == 0) {
        if (config_.track_cdg) collect_reason_closure(l.var(), antecedents);
        continue;
      }
      if (trail_.reason(l.var()) != kClauseRefUndef &&
          (trail_.abstract_level(l.var()) & abstract_levels) != 0) {
        seen_[v] = 1;
        analyze_toclear_.push_back(l);
        minimize_stack_.push_back(l);
      } else {
        // Not removable: roll back tentative state.
        for (std::size_t i = toclear_top; i < analyze_toclear_.size(); ++i)
          seen_[static_cast<std::size_t>(analyze_toclear_[i].var())] = 0;
        analyze_toclear_.resize(toclear_top);
        for (std::size_t i = closure_top; i < closure_clear_.size(); ++i)
          seen_closure_[static_cast<std::size_t>(closure_clear_[i])] = 0;
        closure_clear_.resize(closure_top);
        antecedents.resize(ants_top);
        return false;
      }
    }
  }
  return true;
}

void Solver::record_learned(const std::vector<Lit>& learnt, std::uint32_t lbd,
                            const std::vector<ClauseId>& antecedents) {
  const ClauseId id = db_.register_learned();
  ++stats_.learned_clauses;
  stats_.learned_literals += learnt.size();
  if (config_.track_cdg) cdg_.add_learned(id, antecedents);
  for (const Lit l : learnt) queue_.on_learned_literal(l);

  // Unit learned clauses are permanent root facts; they are not attached
  // (nothing to watch) and never deleted (unmanaged), but they do serve
  // as reasons, keeping the CDG complete.
  const bool managed = learnt.size() >= 2;
  const ClauseRef cref = db_.alloc_learned(learnt, id, lbd, managed);
  if (managed) prop_.attach(db_.arena(), cref);
  trail_.assign(learnt[0], cref);
}

void Solver::import_clause(std::span<const Lit> lits, std::uint32_t lbd) {
  if (!ok_) return;
  REFBMC_ASSERT(trail_.decision_level() == 0);
  // Root-simplify the foreign clause: a literal true at the root
  // satisfies it forever (skip), a literal false at the root can never
  // come back (drop).  Remaining literals are all unassigned.
  import_buf_.clear();
  for (const Lit l : lits) {
    REFBMC_EXPECTS_MSG(!l.is_undef() && l.var() < num_vars(),
                       "imported clause over unknown variable");
    const lbool v = value(l);
    if (v == l_True) return;
    if (v == l_False) continue;
    import_buf_.push_back(l);
  }
  // Defensive dedup (a well-behaved exchange sends learnts, which have
  // neither duplicates nor complementary pairs — but the watcher
  // invariants must not hinge on the peer's good manners).
  std::sort(import_buf_.begin(), import_buf_.end());
  import_buf_.erase(std::unique(import_buf_.begin(), import_buf_.end()),
                    import_buf_.end());
  for (std::size_t i = 0; i + 1 < import_buf_.size(); ++i)
    if (import_buf_[i].var() == import_buf_[i + 1].var()) return;  // taut

  ++stats_.clauses_imported;
  const ClauseId id = db_.register_learned();
  // The clause was derived remotely: its antecedents are unknown here, so
  // it enters the dependency graph as an edge-less node.  Cores extracted
  // from a sharing solver are therefore relative to the imported lemmas
  // (which are themselves implied by the shared formula).
  if (config_.track_cdg) cdg_.add_learned(id, {});

  if (import_buf_.empty()) {
    ok_ = false;
    if (config_.track_cdg) cdg_.set_final_conflict({id});
    return;
  }
  // Tier the import like a local learnt; the LBD travelled with the
  // clause, clamped to its (possibly root-shortened) size.
  const std::uint32_t eff_lbd =
      std::min(std::max(lbd, 1u),
               static_cast<std::uint32_t>(import_buf_.size()));
  const bool managed = import_buf_.size() >= 2;
  const ClauseRef cref = db_.alloc_learned(import_buf_, id, eff_lbd, managed);
  if (managed)
    prop_.attach(db_.arena(), cref);
  else
    trail_.assign(import_buf_[0], cref);  // root fact, reason kept for CDG
}

bool Solver::import_shared_clauses() {
  if (exchange_ == nullptr || !ok_) return ok_;
  if (!exchange_->has_pending()) return ok_;  // one relaxed load, hot case
  REFBMC_ASSERT(trail_.decision_level() == 0);

  // Import latency covers the whole batch: drain, attach, re-propagate.
  // Conflicting batches (the solve ends here) are deliberately unmeasured;
  // they are a verdict, not a latency.
  const bool observed = obs::trace_active() || obs::metrics_active();
  const std::uint64_t t0 = observed ? obs::monotonic_now_us() : 0;
  const std::uint64_t imported_before = stats_.clauses_imported;

  // Drain BCP the formula already queued (a freshly replayed instance
  // arrives with its root units unpropagated): those propagations belong
  // to ordinary solving, and must not be billed to the imports below.
  {
    const ClauseRef confl = propagate();
    if (confl != kClauseRefUndef) {
      ++stats_.conflicts;
      if (config_.track_cdg) analyze_final_conflict(confl);
      ok_ = false;
      return false;
    }
  }

  struct Adapter final : ClauseExchange::ImportSink {
    Solver& solver;
    explicit Adapter(Solver& s) : solver(s) {}
    void add(std::span<const Lit> lits, std::uint32_t lbd) override {
      solver.import_clause(lits, lbd);
    }
  } adapter{*this};

  const std::uint64_t props_before = stats_.propagations;
  exchange_->import_clauses(adapter);
  if (ok_) {
    const ClauseRef confl = propagate();
    if (confl != kClauseRefUndef) {
      ++stats_.conflicts;
      if (config_.track_cdg) analyze_final_conflict(confl);
      ok_ = false;
    }
  }
  stats_.import_propagations += stats_.propagations - props_before;
  if (observed && ok_) {
    const std::uint64_t dur = obs::monotonic_now_us() - t0;
    if (obs::trace_active())
      obs::trace_record_span(
          obs::EventKind::ImportBatch, t0, dur, /*depth=*/-1,
          static_cast<std::int64_t>(stats_.clauses_imported -
                                    imported_before));
    if (obs::metrics_active()) {
      obs::metrics().histogram("sat.import_us").observe(dur);
      obs::metrics().counter("sat.import_batches").add(1);
    }
  }
  return ok_;
}

void Solver::register_frame_guard(Var v) {
  REFBMC_EXPECTS(v >= 0 && v < num_vars());
  if (guard_state_.size() < static_cast<std::size_t>(num_vars()))
    guard_state_.resize(static_cast<std::size_t>(num_vars()), 0);
  guard_state_[static_cast<std::size_t>(v)] = 1;
}

bool Solver::retire_frame_guards(const std::vector<Lit>& guards) {
  if (guards.empty()) return ok_;
  backtrack(0);
  for (const Lit g : guards) {
    const auto v = static_cast<std::size_t>(g.var());
    REFBMC_EXPECTS_MSG(v < guard_state_.size() && guard_state_[v] == 1,
                       "retiring an unregistered or already dead guard");
    guard_state_[v] = 2;
    add_clause({~g});
    if (!ok_) return false;
  }
  // The retirement units are now root facts: every clause satisfied by a
  // dead guard is permanently satisfied and can be dropped wholesale —
  // the one route by which a retired frame's clauses ever leave the
  // arena in an incremental session.
  stats_.retired_frame_clauses +=
      db_.retire_root_satisfied(trail_, prop_, guard_state_);
  db_.garbage_collect_if_needed(trail_, prop_, stats_);
  return ok_;
}

std::int64_t Solver::luby(std::int64_t x) {
  // Luby sequence 1,1,2,1,1,2,4,... at 0-based index x (MiniSat's scheme:
  // find the finite subsequence containing x, then recurse into it).
  std::int64_t size = 1;
  std::int64_t seq = 0;
  while (size < x + 1) {
    ++seq;
    size = 2 * size + 1;
  }
  while (size - 1 != x) {
    size = (size - 1) / 2;
    --seq;
    x = x % size;
  }
  return 1ll << seq;
}

Result Solver::solve(const std::vector<Lit>& assumptions) {
  Timer timer;
  assumptions_ = assumptions;
  last_assumptions_ = assumptions;
  for (const Lit a : assumptions_)
    REFBMC_EXPECTS_MSG(!a.is_undef() && a.var() < num_vars(),
                       "assumption over unknown variable");
  queue_.reset_switch();
  stats_.rank_switched = false;
  solved_unsat_ = false;

  if (!ok_) {
    stats_.solve_time_sec += timer.elapsed_sec();
    solved_unsat_ = true;
    return Result::Unsat;
  }
  if (stop_requested()) {
    // Pre-cancelled: give the verdict-less answer without exploring.
    stats_.solve_time_sec += timer.elapsed_sec();
    return Result::Unknown;
  }

  const Deadline deadline(config_.time_limit_sec);
  const std::int64_t conflicts_at_solve_start =
      static_cast<std::int64_t>(stats_.conflicts);
  std::int64_t restart_budget =
      config_.enable_restarts
          ? config_.restart_base * luby(static_cast<std::int64_t>(stats_.restarts))
          : -1;
  std::int64_t conflicts_this_restart = 0;
  std::int64_t reduce_limit =
      config_.reduce_base + static_cast<std::int64_t>(db_.num_learned());

  std::vector<Lit> learnt;
  std::vector<ClauseId> antecedents;

  // Export events are batched at decision-level-0 boundaries (restarts and
  // solve end): one event per batch with value = clauses exported since the
  // previous boundary, so tracing never touches the per-conflict path.
  std::uint64_t exported_mark = stats_.clauses_exported;
  const auto note_export_batch = [&] {
    if (!obs::trace_active() || stats_.clauses_exported == exported_mark)
      return;
    obs::trace_record(
        obs::EventKind::ExportBatch, /*depth=*/-1,
        static_cast<std::int64_t>(stats_.clauses_exported - exported_mark));
    exported_mark = stats_.clauses_exported;
  };

  const auto finish = [&](Result r) {
    note_export_batch();
    if (config_.assumption_savepoint && ok_) {
      // Keep the assumption prefix assigned (decisions and placeholders
      // for levels 1..keep map to assumptions_[0..keep-1]); the next
      // solve() resumes from the longest common prefix instead of
      // re-deciding and re-propagating every frame guard.
      const int keep = std::min(trail_.decision_level(),
                                static_cast<int>(assumptions_.size()));
      backtrack(keep);
      savepoint_assumptions_ = assumptions_;
      savepoint_levels_ = keep;
    } else {
      backtrack(0);
      savepoint_assumptions_.clear();
      savepoint_levels_ = 0;
    }
    assumptions_.clear();
    stats_.solve_time_sec += timer.elapsed_sec();
    return r;
  };

  if (config_.assumption_savepoint) {
    // Resume from the longest common prefix of the kept assumption
    // levels.  Pending clause imports need the root, so they force a
    // miss.
    int lcp = 0;
    const int reusable = std::min(
        {savepoint_levels_, trail_.decision_level(),
         static_cast<int>(assumptions_.size())});
    while (lcp < reusable &&
           assumptions_[static_cast<std::size_t>(lcp)] ==
               savepoint_assumptions_[static_cast<std::size_t>(lcp)])
      ++lcp;
    if (exchange_ != nullptr && exchange_->has_pending()) lcp = 0;
    backtrack(lcp);
    if (lcp > 0) {
      ++stats_.savepoint_hits;
      stats_.savepoint_levels_reused += static_cast<std::uint64_t>(lcp);
    } else {
      ++stats_.savepoint_misses;
    }
  }

  // Foreign lemmas first: a solve() starting at decision level 0 is the
  // one place imported clauses can be attached and root-propagated
  // safely.  A savepoint resume skips the boundary (the LCP was forced
  // to 0 above whenever imports were pending).
  if (trail_.decision_level() == 0 && !import_shared_clauses()) {
    solved_unsat_ = true;
    return finish(Result::Unsat);
  }

  while (true) {
    const ClauseRef confl = propagate();
    if (confl != kClauseRefUndef) {
      ++stats_.conflicts;
      ++conflicts_this_restart;
      if (trail_.decision_level() == 0) {
        if (config_.track_cdg) analyze_final_conflict(confl);
        ok_ = false;
        solved_unsat_ = true;
        return finish(Result::Unsat);
      }
      const int backjump = analyze(confl, learnt, antecedents);
      // LBD against the pre-backjump levels: the tier key of the new
      // clause (asserting literal's new level is not assigned yet).
      const std::uint32_t lbd = db_.compute_lbd(learnt, trail_);
      backtrack(backjump);
      record_learned(learnt, lbd, antecedents);
      // Lemma export (portfolio sharing): short or low-LBD clauses are
      // the ones worth re-deriving nowhere else.  Counted only when the
      // exchange accepts (it may refuse clauses over unshared variables).
      if (exchange_ != nullptr &&
          (lbd <= static_cast<std::uint32_t>(config_.share_lbd) ||
           learnt.size() <= static_cast<std::size_t>(config_.share_size))) {
        if (exchange_->export_clause(learnt, lbd)) ++stats_.clauses_exported;
      }
      db_.decay_activity();
      queue_.on_conflict();

      // Resource limits and cancellation, checked at conflicts for low
      // overhead (a relaxed atomic load per conflict is noise next to BCP).
      if (stop_requested() ||
          (config_.conflict_limit >= 0 &&
           static_cast<std::int64_t>(stats_.conflicts) -
                   conflicts_at_solve_start >=
               config_.conflict_limit) ||
          ((stats_.conflicts & 127) == 0 &&
           (deadline.expired() || (config_.mem_tracker != nullptr &&
                                   config_.mem_tracker->breached())))) {
        return finish(Result::Unknown);
      }
      continue;
    }

    // No conflict: restart / reduce / decide.
    if (restart_budget >= 0 && conflicts_this_restart >= restart_budget) {
      if (stop_requested()) return finish(Result::Unknown);
      ++stats_.restarts;
      REFBMC_TRACE_EVENT(obs::EventKind::Restart, -1,
                         static_cast<std::int64_t>(stats_.restarts));
      note_export_batch();
      conflicts_this_restart = 0;
      restart_budget = config_.restart_base *
                       luby(static_cast<std::int64_t>(stats_.restarts));
      // Savepoint: restart only down to the assumption prefix unless
      // clause imports are pending (they need the root).
      const bool need_root =
          !config_.assumption_savepoint ||
          (exchange_ != nullptr && exchange_->has_pending());
      if (!need_root) {
        backtrack(std::min(trail_.decision_level(),
                           static_cast<int>(assumptions_.size())));
        continue;
      }
      backtrack(0);
      // Restart = decision-level-zero boundary: the import point where
      // foreign lemmas learned since the last visit are integrated.
      if (!import_shared_clauses()) {
        solved_unsat_ = true;
        return finish(Result::Unsat);
      }
      continue;
    }
    if (config_.enable_reduce_db &&
        static_cast<std::int64_t>(db_.num_learned()) >= reduce_limit) {
      REFBMC_TRACE_EVENT(obs::EventKind::ReduceDb, -1,
                         static_cast<std::int64_t>(db_.num_learned()));
      db_.reduce(trail_, prop_, /*strengthen=*/!config_.track_cdg, stats_);
      reduce_limit =
          static_cast<std::int64_t>(static_cast<double>(reduce_limit) *
                                    config_.reduce_grow);
    }

    // Assumption decisions come first, in order, one level each.
    Lit next = kLitUndef;
    while (trail_.decision_level() <
           static_cast<int>(assumptions_.size())) {
      const Lit a =
          assumptions_[static_cast<std::size_t>(trail_.decision_level())];
      if (value(a) == l_True) {
        trail_.new_decision_level();  // placeholder keeps indices aligned
      } else if (value(a) == l_False) {
        // The formula (plus earlier assumptions) refutes this assumption.
        if (config_.track_cdg) analyze_assumption_refutation(a);
        solved_unsat_ = true;
        return finish(Result::Unsat);
      } else {
        next = a;
        break;
      }
    }

    if (next == kLitUndef) {
      next = queue_.pick_branch(trail_);
      if (next == kLitUndef) {
        // All variables assigned: model found.
        model_ = trail_.assignments();
        return finish(Result::Sat);
      }
    }
    ++stats_.decisions;
    // Long conflict-free decision runs (easy SAT instances) still need to
    // observe cancellation and the deadline.  `next` was already popped
    // off the decision heap; put it back or it would be lost to every
    // later solve() on this solver.
    if ((stats_.decisions & 255) == 0 &&
        (stop_requested() || deadline.expired() ||
         (config_.mem_tracker != nullptr &&
          config_.mem_tracker->breached()))) {
      queue_.insert(next.var());
      return finish(Result::Unknown);
    }
    if (queue_.on_decision(db_.num_original_literals(),
                           config_.dynamic_switch_divisor)) {
      stats_.rank_switched = true;
      // The instance's own count, the one the switch compared (a
      // persistent solver's stats_.decisions spans every solve() call).
      REFBMC_TRACE_EVENT(obs::EventKind::DynamicFallback, -1,
                         static_cast<std::int64_t>(queue_.decisions()));
    }
    trail_.new_decision_level();
    trail_.assign(next, kClauseRefUndef);
  }
}

lbool Solver::model_value(Var v) const {
  REFBMC_EXPECTS_MSG(!model_.empty(), "no model (last solve was not SAT)");
  REFBMC_EXPECTS(v >= 0 && static_cast<std::size_t>(v) < model_.size());
  return model_[static_cast<std::size_t>(v)];
}

std::vector<ClauseId> Solver::unsat_core() const {
  REFBMC_EXPECTS_MSG(solved_unsat_, "unsat core requires an UNSAT result");
  REFBMC_EXPECTS_MSG(config_.track_cdg,
                     "unsat core requires track_cdg = true");
  return cdg_.original_core();
}

std::vector<Var> Solver::unsat_core_vars(
    const std::vector<ClauseId>& core) const {
  std::vector<bool> in(static_cast<std::size_t>(num_vars()), false);
  for (const ClauseId id : core)
    for (const Lit l : original_clause(id))
      in[static_cast<std::size_t>(l.var())] = true;
  std::vector<Var> vars;
  for (Var v = 0; v < num_vars(); ++v)
    if (in[static_cast<std::size_t>(v)]) vars.push_back(v);
  return vars;
}

}  // namespace refbmc::sat
