// Parallel portfolio scheduler — the seam between one-solver BMC and a
// production service.  Two modes:
//
//   * race(net, bad, base, policies): the paper shows the refined
//     ordering wins on *most* instances, not all (Table 1 has losing
//     rows).  Racing the ordering policies on the same instance turns
//     "usually faster" into "as fast as the best, always": each policy
//     runs on its own thread against a shared cancellation flag, and the
//     first definitive verdict (counter-example or bound reached) wins
//     and cancels the rest.  Verdicts are objective, so whichever policy
//     wins, the answer equals every single-policy run.
//
//   * run_batch(jobs): shards a multi-property / multi-model workload —
//     one Job per (netlist, bad_index) — across a work-stealing pool and
//     aggregates the per-job BmcResults into a BatchReport.
//
// Both modes rely on the cooperative stop flag threaded through
// sat::Solver (conflict/restart/decision boundaries) and bmc::BmcEngine
// (per-depth), so cancellation latency is bounded by one BCP pass.
//
// Races are encode-once: the instance is encoded into one SharedTape and
// every entrant's solver is fed by replaying it, so race startup does one
// frame encoding per depth instead of one per (depth, policy).
//
// Races (and shard groups solving the same formula) also share lemmas:
// every entrant publishes its short / low-LBD learnts into one
// SharedClausePool and imports the others' at restart boundaries, so the
// diversity the race creates compounds instead of being re-derived P
// times (see clause_pool.hpp; SharingConfig below tunes the filter).
//
// And they share the refined ORDERING the same way: the paper's whole
// point is that earlier cores sharpen later decision orderings, so the
// scheduler gives each race / shard group one SharedRankSource
// (model-node-space score map, see bmc/rank_source.hpp) — every entrant
// publishes the cores it proves and refreshes its rank feed mid-solve
// when rivals advance the accumulation, instead of re-learning the
// ordering from scratch P times.
#pragma once

#include <string>
#include <vector>

#include "portfolio/clause_pool.hpp"
#include "portfolio/job.hpp"
#include "portfolio/worker.hpp"
#include "util/options.hpp"

namespace refbmc::portfolio {

/// Exchange knobs (the CLI's --share* family): lemma sharing and
/// ordering sharing, independently switchable.  With `enabled` false no
/// clause pool is created; with `rank` false every engine keeps its
/// private CoreRanking; with both off every run is bit-identical to the
/// exchange-free scheduler.
struct SharingConfig {
  bool enabled = true;
  /// Export filter: a learnt is published when lbd <= lbd_max OR size <=
  /// size_max (SolverConfig::share_lbd / share_size).
  int lbd_max = 4;
  int size_max = 2;
  /// Ring capacity of each pool, in clauses (--share-cap).
  int capacity = 4096;
  /// Ordering exchange (--share-rank): entrants of a race (and shard
  /// twins on the same formula) publish unsat cores into one
  /// SharedRankSource and refresh their solvers' rank feed mid-solve.
  ///
  /// Even when on, the scheduler only materialises a shared source when
  /// it can pay off: at least two entrants whose policy actually
  /// consumes the rank feed (Static / Dynamic / Replace), on a machine
  /// with more than one hardware thread.  A lineup like {Static, Evsids}
  /// has nobody to exchange WITH — the lone consumer falls back to its
  /// engine-private LocalRankSource, which accumulates the same scores
  /// without the shared source's mutex/epoch machinery on the solve path.
  bool rank = true;
  /// Test hook: create the shared source whenever `rank` is on,
  /// bypassing the pays-off demotion above (single-core CI runners would
  /// otherwise never exercise the exchange).
  bool rank_force = false;
};

/// Outcome of one race.  `entrants` line up with the policy list passed
/// in (losers carry Status::ResourceLimit results).
struct RaceResult {
  std::vector<JobResult> entrants;
  int winner = -1;  // index into entrants; -1 when nobody finished
  double wall_time_sec = 0.0;
  /// Frames encoded by the race's shared formula tape: exactly one per
  /// depth any entrant reached, independent of the number of policies
  /// (the encode-once guarantee, asserted by tests).
  std::uint64_t frames_encoded = 0;
  /// Lemma-sharing pool counters (zero when sharing was off): clauses
  /// accepted into the race's pool, and clause copies handed to
  /// importing entrants.  NB: clauses_imported here counts pool
  /// *deliveries* — a scratch entrant re-imports the live ring into each
  /// depth's fresh solver, so this is larger than the per-depth
  /// DepthStats::clauses_imported sums, which count only clauses a
  /// solver actually attached after root simplification.
  bool sharing = false;
  std::uint64_t clauses_exported = 0;
  std::uint64_t clauses_imported = 0;
  /// Ordering-exchange counters (zero when rank sharing was off): cores
  /// published into the race's SharedRankSource across all entrants, the
  /// mid-solve rank refreshes their solvers applied, and the source's
  /// final accumulation epoch (distinct score states reached — a merge
  /// that changed nothing does not advance it).
  bool rank_sharing = false;
  std::uint64_t ranks_published = 0;
  std::uint64_t rank_refreshes = 0;
  std::uint64_t rank_epoch = 0;
  /// Cancellation latency in microseconds: from the winner's verdict
  /// (its winner-CAS success) to the LAST losing entrant actually
  /// stopping.  The observable cost of "cancel the rest" — bounded by
  /// one BCP pass plus a conflict/decision check interval.  Zero when
  /// the race had no winner or only one entrant.  Measured on the
  /// obs::monotonic_now_us axis; available whether or not tracing is on.
  std::uint64_t cancel_latency_us = 0;
  /// Formula-state memory over the race: high-water mark of the shared
  /// tracker (tape + every entrant's arena / watcher heap / pool ring),
  /// and whether the race ended on a ceiling breach rather than a
  /// verdict or timeout.
  std::uint64_t peak_mem_bytes = 0;
  bool mem_limit_hit = false;

  bool has_winner() const { return winner >= 0; }
  const JobResult& winning() const;
  /// The race verdict: the winner's status, or ResourceLimit when every
  /// entrant was cut off (budget exhausted / externally cancelled).
  bmc::BmcResult::Status status() const;
};

/// The default racing lineup: the four policies the paper and its
/// related work put head to head (Replace is §3.3's passed-over
/// alternative and is left out, matching the paper's evaluation).
std::vector<bmc::OrderingPolicy> default_race_policies();

class PortfolioScheduler {
 public:
  /// `num_threads` sizes the sharding pool; races use one thread per
  /// entrant policy.  `base_seed` fixes the per-worker RNG seeds
  /// (worker w gets base_seed + w), keeping victim selection
  /// reproducible — and with it, when sharing is off, the whole batch.
  /// `sharing` tunes lemma and ordering exchange (both default on;
  /// exchange timing is scheduling-dependent, so per-job solver stats
  /// then vary run to run while verdicts stay objective.  SharingConfig
  /// with `enabled` and `rank` both false restores the
  /// independent-solver scheduler bit for bit).
  explicit PortfolioScheduler(int num_threads, std::uint64_t base_seed = 1,
                              SharingConfig sharing = {});

  int num_threads() const { return num_threads_; }
  const SharingConfig& sharing() const { return sharing_; }

  /// Races `policies` on property `bad_index` of `net`.  `base` supplies
  /// everything but the policy (depth, limits, incremental mode...); its
  /// `stop` hook, when set, cancels the whole race from outside.  When
  /// `base.rank_source` is non-null the race exchanges orderings through
  /// THAT source instead of creating its own — the serving layer's
  /// warm-start seam (seed it, race, snapshot it back).
  RaceResult race(const model::Netlist& net, std::size_t bad_index,
                  const bmc::EngineConfig& base,
                  const std::vector<bmc::OrderingPolicy>& policies =
                      default_race_policies()) const;

  /// Runs `jobs` across the pool with work stealing.  `budget_sec > 0`
  /// bounds the batch wall-clock: on expiry in-flight engines are
  /// cancelled and unstarted jobs are reported as ResourceLimit.
  /// `external_stop`, when non-null, cancels the batch the same way from
  /// outside (the pool overrides each job's own EngineConfig::stop, so
  /// this is the one cancellation hook for a batch).
  BatchReport run_batch(const std::vector<Job>& jobs,
                        double budget_sec = -1.0,
                        const std::atomic<bool>* external_stop =
                            nullptr) const;

 private:
  int num_threads_;
  std::uint64_t base_seed_;
  SharingConfig sharing_;
};

/// PortfolioConfig (CLI layer) resolved against the bmc types: ranges
/// checked (PortfolioConfig::validate), policy names parsed
/// (std::invalid_argument on an unknown or repeated one), engine
/// defaults filled in.  The single translation point between `util` and
/// here.
struct ResolvedPortfolio {
  std::vector<bmc::OrderingPolicy> policies;
  bmc::EngineConfig engine;  // max_depth / incremental / budget applied
  int num_threads = 1;
  std::uint64_t seed = 1;
  SharingConfig sharing;  // --share* family incl. --share-rank
};
ResolvedPortfolio resolve(const PortfolioConfig& cfg);

}  // namespace refbmc::portfolio
