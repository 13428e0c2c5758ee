#include "sat/clausedb.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace refbmc::sat {

ClauseId ClauseDB::register_original(const std::vector<Lit>& dedup_lits,
                                     bool counted) {
  const ClauseId id = ++last_id_;
  id_is_original_.push_back(1);
  original_ids_.push_back(id);
  orig_lits_.insert(orig_lits_.end(), dedup_lits.begin(), dedup_lits.end());
  lit_offset_.push_back(orig_lits_.size());
  if (counted) num_orig_lits_ += dedup_lits.size();
  return id;
}

ClauseId ClauseDB::register_learned() {
  const ClauseId id = ++last_id_;
  id_is_original_.push_back(0);
  lit_offset_.push_back(orig_lits_.size());  // empty range
  return id;
}

ClauseRef ClauseDB::alloc_learned(const std::vector<Lit>& lits, ClauseId id,
                                  std::uint32_t lbd, bool managed) {
  const ClauseRef cref = arena_.alloc(lits, id, /*learnt=*/true);
  Clause c = arena_.get(cref);
  c.set_lbd(lbd);
  c.set_activity(static_cast<float>(cla_inc_));
  if (managed) learned_.push_back(cref);
  return cref;
}

void ClauseDB::on_used_in_analysis(Clause c, std::uint32_t current_lbd) {
  if (current_lbd > 0 && current_lbd < c.lbd()) c.set_lbd(current_lbd);
  c.set_activity(c.activity() + static_cast<float>(cla_inc_));
  if (c.activity() > 1e20f) {
    for (const ClauseRef cref : learned_) {
      Clause lc = arena_.get(cref);
      lc.set_activity(lc.activity() * 1e-20f);
    }
    cla_inc_ *= 1e-20;
  }
}

std::uint32_t ClauseDB::compute_lbd(const std::vector<Lit>& lits,
                                    const Trail& trail) const {
  ++stamp_gen_;
  std::uint32_t count = 0;
  for (const Lit l : lits) {
    const auto lev = static_cast<std::size_t>(trail.level(l.var()));
    if (lev == 0) continue;
    if (lev >= level_stamp_.size()) level_stamp_.resize(lev + 1, 0);
    if (level_stamp_[lev] != stamp_gen_) {
      level_stamp_[lev] = stamp_gen_;
      ++count;
    }
  }
  return count;
}

std::uint32_t ClauseDB::compute_lbd_capped(const Clause& c, const Trail& trail,
                                           std::uint32_t cap) const {
  ++stamp_gen_;
  std::uint32_t count = 0;
  for (std::uint32_t k = 0; k < c.size(); ++k) {
    const auto lev = static_cast<std::size_t>(trail.level(c[k].var()));
    if (lev == 0) continue;
    if (lev >= level_stamp_.size()) level_stamp_.resize(lev + 1, 0);
    if (level_stamp_[lev] != stamp_gen_) {
      level_stamp_[lev] = stamp_gen_;
      if (++count >= cap) return cap;  // cannot improve: stop walking
    }
  }
  return count;
}

bool ClauseDB::clause_locked(ClauseRef cref, const Trail& trail) const {
  const Clause c = arena_.get(cref);
  const Var v = c[0].var();
  return trail.reason(v) == cref && trail.value(c[0]) == l_True;
}

void ClauseDB::strengthen_learned(ClauseRef cref, Trail& trail,
                                  Propagator& propagator,
                                  SolverStats& stats) {
  // Drops tail literals that are false at decision level 0 — permanently
  // false, so removal is sound at any current level.  The watched
  // positions 0/1 are left alone (watch invariants stay intact; a false
  // watch of a satisfied/propagating clause is legal and rare).
  Clause c = arena_.get(cref);
  std::uint32_t i = 2;
  std::uint32_t n = c.size();
  while (i < n) {
    const Lit l = c[i];
    if (trail.value(l) == l_False && trail.level(l.var()) == 0) {
      c.swap_lits(i, n - 1);
      --n;
    } else {
      ++i;
    }
  }
  if (n < c.size()) {
    stats.strengthened_literals += c.size() - n;
    arena_.shrink_clause(cref, n);
    propagator.on_clause_shrunk(arena_, cref);
  }
}

void ClauseDB::reduce(Trail& trail, Propagator& propagator, bool strengthen,
                      SolverStats& stats) {
  ++stats.reduce_db_runs;

  // Split the learned list: protected clauses (glue tier, binary, locked)
  // survive unconditionally; the rest are deletion candidates.
  std::vector<ClauseRef> kept;
  std::vector<ClauseRef> candidates;
  kept.reserve(learned_.size());
  for (const ClauseRef cref : learned_) {
    const Clause c = arena_.get(cref);
    if (c.lbd() <= glue_lbd_) {
      ++stats.glue_protected;
      kept.push_back(cref);
    } else if (c.size() <= 2 || clause_locked(cref, trail)) {
      kept.push_back(cref);
    } else {
      candidates.push_back(cref);
    }
  }

  // Worst-first: the whole local tier (lbd > tier_lbd) goes before the
  // mid tier; within a tier, activity decides (LBD as tiebreak) — on
  // formulas where every clause looks alike LBD carries no signal, and
  // recency-of-use must keep ruling there.  The clause ref breaks final
  // ties for determinism.
  std::sort(candidates.begin(), candidates.end(),
            [this](ClauseRef a, ClauseRef b) {
              const Clause ca = arena_.get(a);
              const Clause cb = arena_.get(b);
              const bool la = ca.lbd() > tier_lbd_;
              const bool lb = cb.lbd() > tier_lbd_;
              if (la != lb) return la;
              if (ca.activity() != cb.activity())
                return ca.activity() < cb.activity();
              if (ca.lbd() != cb.lbd()) return ca.lbd() > cb.lbd();
              return a < b;
            });

  // Aim at half of the whole learned list (the classic reduceDB volume);
  // protections cap what is actually deletable.
  const std::size_t target = std::min(candidates.size(), learned_.size() / 2);
  std::size_t removed = 0;
  for (const ClauseRef cref : candidates) {
    if (removed < target) {
      propagator.detach(arena_, cref);
      arena_.free_clause(cref);
      ++removed;
    } else {
      kept.push_back(cref);
    }
  }
  stats.deleted_clauses += removed;

  if (strengthen)
    for (const ClauseRef cref : kept)
      strengthen_learned(cref, trail, propagator, stats);

  learned_ = std::move(kept);
  garbage_collect_if_needed(trail, propagator, stats);
}

std::uint64_t ClauseDB::retire_root_satisfied(
    Trail& trail, Propagator& propagator,
    const std::vector<char>& guard_state) {
  std::vector<ClauseRef> doomed_learned;
  std::uint64_t retired = 0;
  arena_.for_each_live([&](ClauseRef cref, Clause c) {
    bool satisfied_by_dead = false;
    for (std::uint32_t k = 0; k < c.size(); ++k) {
      const Lit l = c[k];
      const auto v = static_cast<std::size_t>(l.var());
      if (v >= guard_state.size() || guard_state[v] != 2) continue;
      if (trail.value(l) == l_True && trail.level(l.var()) == 0) {
        satisfied_by_dead = true;
        break;
      }
    }
    if (!satisfied_by_dead) return;
    // Reasons of current root assignments stay — the retirement unit
    // itself, and anything a dead guard helped propagate at the root —
    // so the trail and the CDG keep their anchors.  Long clauses assert
    // through position 0; inlined binaries through either watch.
    const std::uint32_t reason_positions = c.size() >= 2 ? 2u : 1u;
    for (std::uint32_t k = 0; k < reason_positions; ++k) {
      if (trail.reason(c[k].var()) == cref && trail.value(c[k]) == l_True)
        return;
    }
    if (c.size() >= 2 && propagator.is_attached(arena_, cref))
      propagator.detach(arena_, cref);
    if (c.learnt()) doomed_learned.push_back(cref);
    arena_.free_clause(cref);
    ++retired;
  });
  if (!doomed_learned.empty()) {
    std::sort(doomed_learned.begin(), doomed_learned.end());
    learned_.erase(
        std::remove_if(learned_.begin(), learned_.end(),
                       [&](ClauseRef cref) {
                         return std::binary_search(doomed_learned.begin(),
                                                   doomed_learned.end(),
                                                   cref);
                       }),
        learned_.end());
  }
  return retired;
}

void ClauseDB::garbage_collect_if_needed(Trail& trail,
                                         Propagator& propagator,
                                         SolverStats& stats) {
  if (!arena_.should_collect()) return;
  ++stats.arena_gcs;
  const bool observed = obs::metrics_active();
  const std::uint64_t t0 = observed ? obs::monotonic_now_us() : 0;
  std::vector<std::pair<ClauseRef, ClauseRef>> map;
  arena_.garbage_collect(map);  // map is sorted by old ref (scan order)
  propagator.relocate(map);
  trail.relocate_reasons(map);
  for (auto& cref : learned_) cref = relocate_ref(cref, map);
  if (observed)
    obs::metrics().histogram("arena.gc_pause_us")
        .observe(obs::monotonic_now_us() - t0);
}

}  // namespace refbmc::sat
