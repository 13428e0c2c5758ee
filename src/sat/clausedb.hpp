// ClauseDB: the clause store of the CDCL core.
//
// Owns the ClauseArena, the dense clause-id space shared by original and
// learned clauses (the pseudo-IDs of the paper's §3.1 dependency graph),
// the learned-clause list with its activities, and the deletion policy.
//
// Learned clauses are tiered by literal-block distance (LBD — the number
// of distinct decision levels in the clause when it was derived):
//
//   * glue  (lbd <= glue_lbd): never deleted.  These are the clauses that
//     chain propagations across levels; losing them costs re-derivation.
//   * mid   (lbd <= tier_lbd): deleted only after the local tier is
//     exhausted.
//   * local (the rest): first against the wall, lowest activity first.
//
// This replaces the pure activity-based reduceDB of the monolithic
// solver: a reduce run deletes half of the non-glue candidates, visiting
// them worst-first (higher LBD, then lower activity).  Binary and locked
// (currently-a-reason) clauses are always kept.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "sat/clause.hpp"
#include "sat/propagator.hpp"
#include "sat/stats.hpp"
#include "sat/trail.hpp"
#include "sat/types.hpp"

namespace refbmc::sat {

class ClauseDB {
 public:
  ClauseDB(double clause_decay, int glue_lbd, int tier_lbd)
      : clause_decay_(clause_decay),
        glue_lbd_(static_cast<std::uint32_t>(glue_lbd)),
        tier_lbd_(static_cast<std::uint32_t>(tier_lbd)) {
    REFBMC_EXPECTS(glue_lbd >= 0 && tier_lbd >= glue_lbd);
  }

  ClauseArena& arena() { return arena_; }
  const ClauseArena& arena() const { return arena_; }
  Clause get(ClauseRef cref) { return arena_.get(cref); }

  // ---- clause-id space ------------------------------------------------
  /// Consumes the next id for an original clause and records its
  /// (deduplicated) literals for core reporting.  `counted` is false for
  /// tautologies, which keep their id but do not contribute literals.
  ClauseId register_original(const std::vector<Lit>& dedup_lits,
                             bool counted);
  /// Consumes the next id for a learned clause (literals live in the
  /// arena only).
  ClauseId register_learned();

  ClauseId last_id() const { return last_id_; }
  bool is_original_clause(ClauseId id) const {
    return id >= 1 && id <= last_id_ && id_is_original_[id - 1] != 0;
  }
  const std::vector<Lit>& original_clause(ClauseId id) const {
    REFBMC_EXPECTS_MSG(is_original_clause(id), "not an original clause id");
    return lits_by_id_[id - 1];
  }
  const std::vector<ClauseId>& original_ids() const { return original_ids_; }
  std::size_t num_original_clauses() const { return original_ids_.size(); }
  std::uint64_t num_original_literals() const { return num_orig_lits_; }

  // ---- allocation -----------------------------------------------------
  ClauseRef alloc_original(const std::vector<Lit>& lits, ClauseId id) {
    return arena_.alloc(lits, id, /*learnt=*/false);
  }
  /// Allocates a learned clause with its LBD and initial activity; adds
  /// it to the deletion-managed list when `managed` (size >= 2; unit
  /// learned clauses are permanent root facts and stay out).
  ClauseRef alloc_learned(const std::vector<Lit>& lits, ClauseId id,
                          std::uint32_t lbd, bool managed);

  std::size_t num_learned() const { return learned_.size(); }

  // ---- activity / LBD maintenance -------------------------------------
  /// Bumps a learned clause used in conflict analysis and lowers its
  /// stored LBD when the clause is now supported by fewer levels.
  void on_used_in_analysis(Clause c, std::uint32_t current_lbd);
  void decay_activity() { cla_inc_ /= clause_decay_; }

  /// LBD of `lits` under the current trail: distinct non-root decision
  /// levels.
  std::uint32_t compute_lbd(const std::vector<Lit>& lits,
                            const Trail& trail) const;
  /// Capped variant for update-on-use: stops counting at `cap` (the
  /// stored LBD) — once that many distinct levels are seen the clause
  /// cannot improve, so the walk ends early.  Returns cap when no
  /// improvement is possible.
  std::uint32_t compute_lbd_capped(const Clause& c, const Trail& trail,
                                   std::uint32_t cap) const;

  // ---- deletion and compaction ----------------------------------------
  /// One tiered reduceDB run (see file comment).  Kept clauses are
  /// strengthened in place when `strengthen` (root-false tail literals
  /// dropped; a clause shrunk to binary migrates into the propagator's
  /// inlined lists).  Follows up with arena compaction when worthwhile,
  /// patching the propagator's and trail's references.
  void reduce(Trail& trail, Propagator& propagator, bool strengthen,
              SolverStats& stats);

  /// Compacts the arena when enough space is dead, relocating watches,
  /// reasons, and the learned list.  Exposed for the solver's use outside
  /// reduce (e.g. tests); no-op when compaction is not worthwhile.
  void garbage_collect_if_needed(Trail& trail, Propagator& propagator,
                                 SolverStats& stats);

  /// Frame retirement sweep (incremental sessions, at decision level 0):
  /// frees every clause satisfied by a root-true literal over a variable
  /// marked 2 ("dead guard") in `guard_state`, detaching it from the
  /// propagator first.  Clauses that are the reason of a root assignment
  /// — including the retirement units themselves — are kept (they anchor
  /// CDG antecedents and the root trail).  Returns the number of clauses
  /// freed; the caller should follow up with garbage_collect_if_needed.
  std::uint64_t retire_root_satisfied(Trail& trail, Propagator& propagator,
                                      const std::vector<char>& guard_state);

 private:
  bool clause_locked(ClauseRef cref, const Trail& trail) const;
  void strengthen_learned(ClauseRef cref, Trail& trail,
                          Propagator& propagator, SolverStats& stats);

  ClauseArena arena_;
  double clause_decay_;
  std::uint32_t glue_lbd_;
  std::uint32_t tier_lbd_;
  double cla_inc_ = 1.0;

  ClauseId last_id_ = 0;                      // unified id counter
  std::vector<std::vector<Lit>> lits_by_id_;  // originals only
  std::vector<char> id_is_original_;          // per id
  std::vector<ClauseId> original_ids_;
  std::uint64_t num_orig_lits_ = 0;

  std::vector<ClauseRef> learned_;

  // compute_lbd scratch: distinct levels are counted by stamping each
  // level with a generation counter — O(size), no sorting, and the hot
  // analyze loop calls this for every learnt antecedent.
  mutable std::vector<std::uint64_t> level_stamp_;
  mutable std::uint64_t stamp_gen_ = 0;
};

}  // namespace refbmc::sat
