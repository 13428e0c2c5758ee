// The BMC engine: standard BMC and the paper's refine_order_bmc (Fig. 5),
// grown around the encode-once formula pipeline and the portfolio's
// ordering exchange.  Per depth k the one loop does:
//
//   prepare  — the FormulaSession materialises instance k from the
//              SharedTape: a fresh solver fed by replaying the tape
//              (scratch) or one persistent solver with activation
//              literals (incremental); the formula itself is encoded
//              exactly once either way (session.hpp / tape.hpp);
//   project  — the rank feed of sat_check(F, varRank): the RankSource's
//              accumulated model-axis bmc_scores are pushed down to this
//              instance's CNF variables through the session's origin map
//              (rank_source.hpp);
//   solve    — SAT means counter-example (validated on the simulator);
//   publish  — UNSAT means the core's variables are projected back to
//              the model axis and published into the RankSource (the
//              paper's bmc_score accumulation, §3.2), sharpening the
//              ordering of depth k+1 — and, when the source is shared
//              across a portfolio race, of every rival mid-solve: their
//              solvers poll the source's epoch at restart boundaries.
//
// The ordering policy selects how the rank feed is used by the solver:
//   Baseline   — ignored (pure Chaff VSIDS; the paper's "standard BMC");
//   Static     — primary sort key for the whole search (§3.3);
//   Dynamic    — primary key until the instance's #decisions >
//                #literals/64, then VSIDS;
//   Shtrichman — time-axis BFS ranks (related-work comparison), static.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "bmc/cnf.hpp"
#include "bmc/encoder.hpp"
#include "bmc/rank_source.hpp"
#include "bmc/ranking.hpp"
#include "bmc/tape.hpp"
#include "bmc/trace.hpp"
#include "model/netlist.hpp"
#include "sat/solver.hpp"
#include "util/assert.hpp"
#include "util/mem_tracker.hpp"

namespace refbmc::portfolio {
class SharedClausePool;
}

namespace refbmc::bmc {

enum class OrderingPolicy {
  Baseline,    // pure VSIDS (the paper's "standard BMC")
  Static,      // §3.3 static: bmc_score primary, cha_score tiebreak
  Dynamic,     // §3.3 dynamic: static until difficulty, then VSIDS
  Replace,     // §3.3's passed-over alternative: bmc_score only
  Shtrichman,  // related work: time-axis BFS ordering
  Evsids,      // exponential VSIDS (MiniSat lineage), no rank feed
};

inline const char* to_string(OrderingPolicy p) {
  switch (p) {
    case OrderingPolicy::Baseline: return "baseline";
    case OrderingPolicy::Static: return "static";
    case OrderingPolicy::Dynamic: return "dynamic";
    case OrderingPolicy::Replace: return "replace";
    case OrderingPolicy::Shtrichman: return "shtrichman";
    case OrderingPolicy::Evsids: return "evsids";
  }
  REFBMC_ASSERT_MSG(false, "invalid OrderingPolicy value");
}

/// All policies, in enum order — the canonical iteration set for
/// portfolio racing and CLI enumeration.
inline constexpr std::array<OrderingPolicy, 6> all_policies() {
  return {OrderingPolicy::Baseline,   OrderingPolicy::Static,
          OrderingPolicy::Dynamic,    OrderingPolicy::Replace,
          OrderingPolicy::Shtrichman, OrderingPolicy::Evsids};
}

/// Inverse of to_string: parses a policy name (exactly as printed).
/// Returns nullopt for unknown names.
std::optional<OrderingPolicy> parse_policy(std::string_view name);

/// The decision order `policy` asks of the solver, set over `base`: the
/// scorer (Chaff for every policy but evsids), the rank mode (Shtrichman
/// ranks statically) and the §3.3 switch divisor.  Every other field of
/// `base` is kept.
sat::SolverConfig solver_config_for(OrderingPolicy policy,
                                    int dynamic_switch_divisor,
                                    sat::SolverConfig base);

struct DepthStats;

struct EngineConfig {
  OrderingPolicy policy = OrderingPolicy::Baseline;
  BadMode bad_mode = BadMode::Last;
  CoreWeighting weighting = CoreWeighting::Linear;  // §3.2 (ablatable)
  int start_depth = 0;
  int max_depth = 20;  // completeness threshold / bound
  int dynamic_switch_divisor = 64;  // §3.3 (ablatable)
  /// Incremental mode (the combination with incremental SAT proposed in
  /// the paper's conclusion): one persistent solver, frames added once,
  /// per-depth properties enabled by assumption.  Learned clauses — and
  /// VSIDS activity — carry over between depths.  Supports both bad
  /// modes; the Shtrichman ordering (which ranks a fixed instance) is
  /// scratch-only.
  bool incremental = false;
  /// Frame-wise formula simplification (constant propagation from the
  /// initial states, structural hashing of the unrolled AIG, latch
  /// aliasing) on top of the COI cut.  DepthStats reports the savings.
  bool simplify = true;
  /// Tape-level CNF preprocessing (bounded variable elimination,
  /// pure-literal, subsumption / self-subsuming resolution — see
  /// bmc/preprocess.hpp), run once per depth over the shared tape: each
  /// depth's DELTA is simplified under a cumulative witness stack, and
  /// every session replays the cached deltas — a scratch session 0..k
  /// into its fresh solver, an incremental one a depth at a time.  A
  /// later frame whose clauses or property name an eliminated variable
  /// transparently resurrects it (see SharedTape::replay_to).  Off by
  /// default (and then bit-identical to an engine without the pass).
  PreprocessOptions preprocess;
  /// When non-null, this engine replays the given shared formula instead
  /// of encoding its own — the portfolio's encode-once racing.  Must
  /// match (netlist, bad_index, bad_mode, simplify) and outlive run().
  /// Not owned.
  SharedTape* shared_tape = nullptr;
  /// Portfolio lemma sharing: when non-null, the engine's session
  /// attaches a PoolEndpoint so its solver exchanges learned clauses (in
  /// tape space) with every other engine on the same formula — see
  /// portfolio/clause_pool.hpp.  The pool's variable space must be the
  /// tape of this (netlist, bad_index, bad_mode, simplify) combination.
  /// Not owned; must outlive run().
  portfolio::SharedClausePool* share_pool = nullptr;
  /// This engine's producer id within the pool (unique per entrant, so
  /// its own lemmas are never handed back to it).
  int share_producer = 0;
  /// Portfolio ordering exchange: when non-null the engine publishes its
  /// unsat cores into — and projects its per-depth rank feed from — this
  /// race-wide source instead of a private CoreRanking, and installs a
  /// mid-solve refresh hook so its solver picks up rivals' cores at
  /// restart boundaries (rank_source.hpp).  The source's weighting must
  /// equal `weighting`.  Not owned; must outlive run().
  RankSource* rank_source = nullptr;
  /// Collect unsat cores even for the baseline (costs the §3.1 overhead;
  /// the baseline of the paper's Table 1 runs with this off).
  bool always_track_cdg = false;
  /// Self-check: validate every counter-example on the simulator and every
  /// unsat core by re-solving (the latter is expensive; default off).
  bool validate_counterexamples = true;
  bool verify_cores = false;
  // Resource limits (negative = unlimited).
  double total_time_limit_sec = -1.0;
  double per_instance_time_limit_sec = -1.0;
  std::int64_t per_instance_conflict_limit = -1;
  /// Formula-state memory ceiling in bytes (0 = unlimited).  The tracked
  /// footprint — clause arena chunks, watcher-list heap, and the shared
  /// tape with its per-depth caches — is checked at conflict / decision /
  /// depth boundaries; a breach ends the run with Status::ResourceLimit
  /// and mem_limit_hit set.  Accounting itself is always on, so a zero
  /// ceiling is bit-identical to a build without one.
  std::uint64_t mem_ceiling_bytes = 0;
  /// Race-wide memory accounting: when non-null the engine charges its
  /// formula state to this tracker (shared by every entrant of a race)
  /// instead of an engine-private one; the ceiling then bounds the SUM
  /// across entrants.  Not owned; must outlive run().
  MemTracker* mem_tracker = nullptr;
  /// Cooperative cancellation: when non-null and set to true (possibly
  /// from another thread, e.g. by the portfolio scheduler when a rival
  /// policy wins), run() stops at the next depth / solver checkpoint and
  /// reports Status::ResourceLimit.  Not owned; must outlive run().
  const std::atomic<bool>* stop = nullptr;
  /// Per-depth progress hook: invoked with every completed depth's
  /// DepthStats, right after it is appended to the result (SAT, UNSAT
  /// and resource-limit depths alike).  This is the serving layer's
  /// stream seam — a JobServer forwards these to polling clients while
  /// the engine is still running.  Called on the solving thread; in a
  /// portfolio race every entrant carries a copy of this callback and
  /// they fire concurrently, so the target must be thread-safe.  Keep it
  /// cheap: it sits between depths, not inside the search, but a slow
  /// callback still delays the next depth.
  std::function<void(const DepthStats&)> on_depth;
  /// Base solver knobs (restarts, reduceDB, VSIDS period, …).  The
  /// decision scorer and rank mode follow `policy` (solver_config_for);
  /// track_cdg and limits are overridden per instance by the engine.
  sat::SolverConfig solver;
};

/// Per-depth statistics — the series behind the paper's Fig. 7.
struct DepthStats {
  int depth = 0;
  sat::Result result = sat::Result::Unknown;
  std::uint64_t decisions = 0;
  std::uint64_t propagations = 0;  // "implications"
  /// Solver-core hot-path counters (see sat/propagator.hpp): assignments
  /// from the inlined binary watch lists, and long-clause watcher visits
  /// resolved by the blocking literal without touching the clause arena.
  std::uint64_t binary_propagations = 0;
  std::uint64_t blocker_skips = 0;
  std::uint64_t conflicts = 0;
  /// Lemma sharing at this depth (zero without a share_pool): learnts
  /// the pool accepted for export, foreign lemmas attached, and
  /// propagations spent integrating them at level 0.
  std::uint64_t clauses_exported = 0;
  std::uint64_t clauses_imported = 0;
  std::uint64_t import_propagations = 0;
  /// Ordering feed at this depth: cores this engine published into its
  /// RankSource (0/1 — one core per UNSAT depth of a core-ranking
  /// policy, engine-private or shared alike), mid-solve rank refreshes
  /// its solver applied (only a shared source can advance mid-solve, so
  /// zero without one), and the accumulation epoch the depth's initial
  /// projection was taken at.
  std::uint64_t ranks_published = 0;
  std::uint64_t rank_refreshes = 0;
  std::uint64_t rank_epoch = 0;
  double time_sec = 0.0;
  /// Per-depth phase wall-times (µs), the split behind the obs spans:
  ///   encode_us   — this engine's prepare(k): shared-tape extension (for
  ///                 whichever entrant got there first) plus replay into
  ///                 its solver;
  ///   simplify_us — the encoder's gate fold/strash work for the frames
  ///                 newly encoded at this depth (a shared-formula cost,
  ///                 paid once per race and reported identically to every
  ///                 entrant; simplification is fused into encoding, so
  ///                 this is its separable share — see EncodeStats);
  ///   solve_us    — the solver.solve() call, wall clock (time_sec is the
  ///                 solver's own accounting of the same interval).
  std::uint64_t encode_us = 0;
  std::uint64_t simplify_us = 0;
  std::uint64_t solve_us = 0;
  std::size_t cnf_vars = 0;
  std::size_t cnf_clauses = 0;
  /// Simplification savings, cumulative over frames 0..depth (what the
  /// encoder removed relative to the unsimplified encoding).
  std::uint64_t simplified_vars_removed = 0;
  std::uint64_t simplified_clauses_removed = 0;
  /// Tape preprocessing of this depth's DELTA, for every session (zero
  /// with preprocess off; the pass runs once per depth race-wide but its
  /// counters are reported identically to every entrant, like
  /// simplify_us).  lits_strengthened counts self-subsuming resolution
  /// plus unit-propagation strips.
  std::uint64_t vars_eliminated = 0;
  std::uint64_t clauses_subsumed = 0;
  std::uint64_t lits_strengthened = 0;
  std::uint64_t preprocess_us = 0;
  /// Always 0: the solver has no inprocessing.  Kept only because the
  /// end-to-end benchmark (bench/e2e/measure.hpp) still reads them for
  /// its sat.vivified_lits and sat.vivify_ms rows; they go with those
  /// rows.
  std::uint64_t vivified_literals = 0;
  std::uint64_t inprocess_us = 0;
  /// Incremental fast path at this depth (zero for scratch sessions or
  /// with SolverConfig::assumption_savepoint off): solve() calls that
  /// resumed from a kept assumption prefix vs. fell back to the root,
  /// decision levels the resumes reused, and clauses the
  /// frame-retirement sweep freed (flushes run inside prepare, batched —
  /// most depths read zero and the flushing depth reads the whole
  /// batch).
  std::uint64_t savepoint_hits = 0;
  std::uint64_t savepoint_misses = 0;
  std::uint64_t savepoint_levels_reused = 0;
  std::uint64_t retired_frame_clauses = 0;
  /// Formula-state footprint at the end of this depth: the tracker's
  /// high-water mark (race-wide under a shared tracker), this entrant's
  /// clause-arena bytes, and the shared tape's resident bytes (events +
  /// preprocessing caches; a race-wide figure).
  std::uint64_t peak_bytes = 0;
  std::uint64_t arena_bytes = 0;
  std::uint64_t tape_bytes = 0;
  std::size_t core_clauses = 0;  // when UNSAT and cores tracked
  std::size_t core_vars = 0;
  bool rank_switched = false;  // dynamic policy fell back to VSIDS
};

struct BmcResult {
  enum class Status {
    CounterexampleFound,
    BoundReached,     // all instances up to max_depth UNSAT
    ResourceLimit,    // time/conflict budget exhausted
  };
  Status status = Status::BoundReached;
  std::optional<Trace> counterexample;  // set when a cex was found
  int counterexample_depth = -1;
  int last_completed_depth = -1;
  std::vector<DepthStats> per_depth;
  double total_time_sec = 0.0;
  /// Set when the run ended on a memory-ceiling breach (the status is
  /// ResourceLimit, indistinguishable from a timeout without this flag).
  bool mem_limit_hit = false;
  /// High-water mark of the tracked formula-state footprint over the
  /// whole run (race-wide when the tracker is shared).
  std::uint64_t peak_mem_bytes = 0;

  std::uint64_t total_decisions() const;
  std::uint64_t total_propagations() const;
  std::uint64_t total_conflicts() const;
};

class BmcEngine {
 public:
  BmcEngine(const model::Netlist& net, EngineConfig config,
            std::size_t bad_index = 0);

  /// Runs the loop of Fig. 5 (or plain BMC for the Baseline policy).
  BmcResult run();

  /// Snapshot of the accumulated register-axis scores (inspectable
  /// between runs; a shared source reports the race-wide merge).
  CoreRanking ranking() const { return rank_->snapshot(); }
  /// The ordering accumulation this engine feeds and projects from
  /// (engine-owned LocalRankSource, or the race-wide shared one).
  const RankSource& rank_source() const { return *rank_; }
  /// The formula this engine solves from (shared or engine-owned).
  const SharedTape& tape() const { return *tape_; }

 private:
  bool cancelled() const {
    return config_.stop != nullptr &&
           config_.stop->load(std::memory_order_relaxed);
  }
  bool uses_core_ranking() const {
    return config_.policy == OrderingPolicy::Static ||
           config_.policy == OrderingPolicy::Dynamic ||
           config_.policy == OrderingPolicy::Replace;
  }
  sat::SolverConfig solver_config_for_policy() const;

  const model::Netlist& net_;
  EngineConfig config_;
  std::size_t bad_index_;
  std::unique_ptr<SharedTape> owned_tape_;  // when no shared tape given
  SharedTape* tape_;
  std::unique_ptr<LocalRankSource> owned_rank_;  // when no shared source
  RankSource* rank_;
  RankProjector rank_refresher_;  // bound per depth under a shared source
  std::unique_ptr<MemTracker> owned_mem_;  // when no shared tracker given
  MemTracker* mem_;
};

/// Fingerprint of everything that determines the FORMULA an engine
/// solves — bad mode, frame-wise simplification, and the full tape
/// preprocessing recipe — but nothing about how it is searched (policy,
/// solver knobs, sharing).  Two configs with equal formula fingerprints
/// on the same (netlist, bad index) produce identical tape variable
/// spaces and identical eliminated-variable sets, so they may share a
/// clause pool; the portfolio's shard grouping and the service's result
/// cache both build on this one function, which is what keeps the two
/// keys from drifting apart (asserted by the api fingerprint tests).
std::uint64_t formula_fingerprint(const EngineConfig& config);

/// BMC with an automatically computed completeness threshold (§2 of the
/// paper: "k exceeds a predetermined completeness threshold" ⇒ the
/// property is proven).  The threshold is the reachable-state-space
/// diameter from explicit enumeration, so this is limited to small
/// models (≤ 24 latches / 16 inputs); `proven` is true when the bound
/// was exhausted without a counter-example.
struct CompleteCheckResult {
  BmcResult bmc;
  int threshold = 0;
  bool proven = false;
};
CompleteCheckResult check_invariant_complete(
    const model::Netlist& net, OrderingPolicy policy = OrderingPolicy::Dynamic,
    std::size_t bad_index = 0);

}  // namespace refbmc::bmc
