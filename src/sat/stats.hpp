// Search statistics.  "propagations" is the paper's "number of
// implications" (Fig. 7); "decisions" is its "number of decisions".
#pragma once

#include <cstdint>

namespace refbmc::sat {

struct SolverStats {
  std::uint64_t decisions = 0;
  std::uint64_t propagations = 0;  // implications
  /// Assignments produced by the inlined binary watch lists (no arena
  /// access at all) — the fastest BCP path.
  std::uint64_t binary_propagations = 0;
  /// Long-clause watcher visits short-circuited by a satisfied blocking
  /// literal (clause never fetched from the arena).
  std::uint64_t blocker_skips = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t restarts = 0;
  std::uint64_t learned_clauses = 0;
  std::uint64_t learned_literals = 0;
  std::uint64_t deleted_clauses = 0;
  std::uint64_t minimized_literals = 0;  // removed by clause minimization
  /// Root-false literals dropped in place from kept learned clauses
  /// during reduceDB (only with track_cdg off; see Solver::reduce_db).
  std::uint64_t strengthened_literals = 0;
  std::uint64_t reduce_db_runs = 0;
  /// Lemma sharing (portfolio clause exchange; zero without an attached
  /// ClauseExchange): learned clauses the exchange accepted (filter
  /// passes it refused are not counted), foreign clauses attached after
  /// root simplification, and propagations performed while integrating
  /// them at decision level 0.
  std::uint64_t clauses_exported = 0;
  std::uint64_t clauses_imported = 0;
  std::uint64_t import_propagations = 0;
  /// Learned clauses spared by the ClauseDB's glue protection (LBD at or
  /// below glue_lbd) across all reduceDB runs.
  std::uint64_t glue_protected = 0;
  std::uint64_t arena_gcs = 0;
  /// Assumption savepoint (zero with assumption_savepoint off): solve()
  /// calls that kept a non-empty trail prefix from the previous call,
  /// calls that had to fall back to level 0, and the total decision
  /// levels the hits preserved (re-propagation avoided).
  std::uint64_t savepoint_hits = 0;
  std::uint64_t savepoint_misses = 0;
  std::uint64_t savepoint_levels_reused = 0;
  /// Frame retirement (incremental sessions): clauses deleted from the
  /// arena because a permanently false activation guard satisfies them.
  std::uint64_t retired_frame_clauses = 0;
  bool rank_switched = false;  // dynamic fallback fired (last solve call)
  double solve_time_sec = 0.0;  // accumulated across solve calls
};

}  // namespace refbmc::sat
