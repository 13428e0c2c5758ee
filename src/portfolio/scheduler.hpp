// Parallel portfolio race — the seam between one-solver BMC and a
// production service.
//
// race(net, bad, base, policies): the paper shows the refined ordering
// wins on *most* instances, not all (Table 1 has losing rows).  Racing
// the ordering policies on the same instance turns "usually faster"
// into "as fast as the best, always": each policy runs on its own thread
// against a shared cancellation flag, and the first definitive verdict
// (counter-example or bound reached) wins and cancels the rest.
// Verdicts are objective, so whichever policy wins, the answer equals
// every single-policy run.
//
// Cancellation rides the cooperative stop flag threaded through
// sat::Solver (conflict/restart/decision boundaries) and bmc::BmcEngine
// (per-depth), so its latency is bounded by one BCP pass.
//
// Races are encode-once: the instance is encoded into one SharedTape and
// every entrant's solver is fed by replaying it, so race startup does one
// frame encoding per depth instead of one per (depth, policy).
//
// Races also share lemmas: every entrant publishes its short / low-LBD
// learnts into one SharedClausePool and imports the others' at restart
// boundaries, so the diversity the race creates compounds instead of
// being re-derived P times (see clause_pool.hpp; SharingConfig below
// tunes the filter).  Decision orderings are not exchanged: each
// core-ranking entrant refines its own order from its own unsat cores,
// which is the paper's loop (§3.2–3.3).
#pragma once

#include <string>
#include <vector>

#include "portfolio/clause_pool.hpp"
#include "portfolio/job.hpp"
#include "util/options.hpp"

namespace refbmc::portfolio {

/// Lemma-exchange knobs (the CLI's --share* family).  With `enabled`
/// false no clause pool is created and every run is bit-identical to an
/// exchange-free race.
struct SharingConfig {
  bool enabled = true;
  /// Export filter: a learnt is published when lbd <= lbd_max OR size <=
  /// size_max (SolverConfig::share_lbd / share_size).
  int lbd_max = 4;
  int size_max = 2;
  /// Ring capacity of each pool, in clauses (--share-cap).
  int capacity = 4096;
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

/// Races `policies` on property `bad_index` of `net`, one thread per
/// entrant.  `base` supplies everything but the policy (depth, limits,
/// incremental mode...); its `stop` hook, when set, cancels the whole
/// race from outside.  `sharing` tunes the lemma exchange (on by
/// default; exchange timing is scheduling-dependent, so per-entrant
/// solver stats then vary run to run while verdicts stay objective).
RaceResult race(const model::Netlist& net, std::size_t bad_index,
                const bmc::EngineConfig& base,
                const std::vector<bmc::OrderingPolicy>& policies =
                    default_race_policies(),
                const SharingConfig& sharing = {});

/// PortfolioConfig (CLI layer) resolved against the bmc types: ranges
/// checked (PortfolioConfig::validate), policy names parsed
/// (std::invalid_argument on an unknown or repeated one), engine
/// defaults filled in.  The single translation point between `util` and
/// here.
struct ResolvedPortfolio {
  std::vector<bmc::OrderingPolicy> policies;
  bmc::EngineConfig engine;  // max_depth / incremental / budget applied
  SharingConfig sharing;     // --share* family
};
ResolvedPortfolio resolve(const PortfolioConfig& cfg);

}  // namespace refbmc::portfolio
