#include "bmc/engine.hpp"

#include <algorithm>

#include "bmc/session.hpp"
#include "bmc/shtrichman.hpp"
#include "mc/reach.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sat/core_verify.hpp"
#include "util/assert.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace refbmc::bmc {

std::optional<OrderingPolicy> parse_policy(std::string_view name) {
  for (const OrderingPolicy p : all_policies())
    if (name == to_string(p)) return p;
  return std::nullopt;
}

std::uint64_t formula_fingerprint(const EngineConfig& config) {
  // FNV-1a over the formula-shaping fields, each preceded by a field tag
  // so adjacent fields can never alias under reordering.  Extend this
  // list whenever EngineConfig grows an option that changes the encoded
  // clauses — the api fingerprint round-trip test flips every field and
  // will catch a forgotten one only if it is listed here or in
  // api::config_fingerprint.
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t tag, std::uint64_t v) {
    for (const std::uint64_t word : {tag, v})
      for (int byte = 0; byte < 8; ++byte) {
        h ^= (word >> (byte * 8)) & 0xff;
        h *= 1099511628211ull;
      }
  };
  mix(1, static_cast<std::uint64_t>(config.bad_mode));
  mix(2, config.simplify ? 1 : 0);
  mix(3, config.preprocess.enabled ? 1 : 0);
  mix(4, static_cast<std::uint64_t>(config.preprocess.bve_budget));
  mix(5, static_cast<std::uint64_t>(config.preprocess.bve_max_resolvent));
  mix(6, static_cast<std::uint64_t>(config.preprocess.rounds));
  return h;
}

std::uint64_t BmcResult::total_decisions() const {
  std::uint64_t n = 0;
  for (const auto& d : per_depth) n += d.decisions;
  return n;
}
std::uint64_t BmcResult::total_propagations() const {
  std::uint64_t n = 0;
  for (const auto& d : per_depth) n += d.propagations;
  return n;
}
std::uint64_t BmcResult::total_conflicts() const {
  std::uint64_t n = 0;
  for (const auto& d : per_depth) n += d.conflicts;
  return n;
}

BmcEngine::BmcEngine(const model::Netlist& net, EngineConfig config,
                     std::size_t bad_index)
    : net_(net), config_(config), bad_index_(bad_index) {
  REFBMC_EXPECTS(config_.start_depth >= 0);
  REFBMC_EXPECTS(config_.max_depth >= config_.start_depth);
  if (config_.rank_source != nullptr) {
    REFBMC_EXPECTS_MSG(
        config_.rank_source->weighting() == config_.weighting,
        "shared rank source weighting does not match the engine's");
    rank_ = config_.rank_source;
  } else {
    owned_rank_ = std::make_unique<LocalRankSource>(config_.weighting);
    rank_ = owned_rank_.get();
  }
  if (config_.shared_tape != nullptr) {
    SharedTape& shared = *config_.shared_tape;
    REFBMC_EXPECTS_MSG(&shared.net() == &net_ &&
                           shared.bad_index() == bad_index_ &&
                           shared.options().mode == config_.bad_mode &&
                           shared.options().simplify == config_.simplify &&
                           shared.options().constrain_init &&
                           shared.preprocess_options() == config_.preprocess,
                       "shared tape does not match the engine's formula "
                       "(netlist / property / bad mode / simplify / "
                       "preprocess)");
    tape_ = &shared;
  } else {
    EncoderOptions opts;
    opts.mode = config_.bad_mode;
    opts.constrain_init = true;
    opts.simplify = config_.simplify;
    owned_tape_ = std::make_unique<SharedTape>(net_, bad_index_, opts,
                                               config_.preprocess);
    tape_ = owned_tape_.get();
  }
  if (config_.mem_tracker != nullptr) {
    mem_ = config_.mem_tracker;
  } else {
    owned_mem_ = std::make_unique<MemTracker>();
    mem_ = owned_mem_.get();
  }
  if (config_.mem_ceiling_bytes > 0) mem_->set_ceiling(config_.mem_ceiling_bytes);
  // Idempotent under a shared tape: every racing entrant carries the same
  // tracker, and set_mem_tracker transfers charges rather than
  // double-counting (tape.cpp).
  tape_->set_mem_tracker(mem_);
}

sat::SolverConfig solver_config_for(OrderingPolicy policy,
                                    int dynamic_switch_divisor,
                                    sat::SolverConfig base) {
  base.decision = policy == OrderingPolicy::Evsids ? sat::DecisionMode::Evsids
                                                   : sat::DecisionMode::Chaff;
  switch (policy) {
    case OrderingPolicy::Baseline:
    case OrderingPolicy::Evsids:
      base.rank_mode = sat::RankMode::None;
      break;
    case OrderingPolicy::Static:
    case OrderingPolicy::Shtrichman:
      base.rank_mode = sat::RankMode::Static;
      break;
    case OrderingPolicy::Dynamic:
      base.rank_mode = sat::RankMode::Dynamic;
      break;
    case OrderingPolicy::Replace:
      base.rank_mode = sat::RankMode::Replace;
      break;
  }
  base.dynamic_switch_divisor = dynamic_switch_divisor;
  return base;
}

sat::SolverConfig BmcEngine::solver_config_for_policy() const {
  sat::SolverConfig scfg = solver_config_for(
      config_.policy, config_.dynamic_switch_divisor, config_.solver);
  // Core tracking is what feeds the ranking refinement; the baseline
  // and the Shtrichman ordering do not need it (paper's standard BMC).
  scfg.track_cdg = uses_core_ranking() || config_.always_track_cdg;
  // The engine-level limit wins when set; otherwise a per-solve budget
  // the caller put into the base SolverConfig stays in force.
  if (config_.per_instance_conflict_limit >= 0)
    scfg.conflict_limit = config_.per_instance_conflict_limit;
  // The assumption savepoint only pays off for a persistent solver with
  // a growing assumption prefix; a scratch session's fresh solver has no
  // previous trail to resume, so keep its restart/solve loop on the
  // classic (root-boundary) path.
  if (!config_.incremental) scfg.assumption_savepoint = false;
  // Formula-state accounting: the solver charges its arena and watcher
  // heap here and bails (Result::Unknown) at the next conflict / decision
  // checkpoint once the ceiling is breached.
  scfg.mem_tracker = mem_;
  return scfg;
}

BmcResult BmcEngine::run() {
  REFBMC_EXPECTS_MSG(
      !(config_.incremental && config_.policy == OrderingPolicy::Shtrichman),
      "incremental mode does not support the Shtrichman ordering");

  BmcResult result;
  Timer total_timer;
  const Deadline total_deadline(config_.total_time_limit_sec);
  std::uint64_t retired_seen = 0;

  const sat::SolverConfig scfg = solver_config_for_policy();
  const std::unique_ptr<FormulaSession> session =
      config_.incremental
          ? make_incremental_session(*tape_, scfg, config_.share_pool,
                                     config_.share_producer)
          : make_scratch_session(*tape_, scfg, config_.share_pool,
                                 config_.share_producer);

  for (int k = config_.start_depth; k <= config_.max_depth; ++k) {
    if (total_deadline.expired() || cancelled()) {
      result.status = BmcResult::Status::ResourceLimit;
      break;
    }
    if (mem_->breached()) {
      // Depth boundary: the cheapest clean stop.  Mid-depth breaches are
      // caught by the solver's conflict/decision checkpoints instead.
      result.status = BmcResult::Status::ResourceLimit;
      result.mem_limit_hit = true;
      break;
    }

    // gen_cnf_formula(M, P, k): encode-once via the tape, query shape
    // from the session.  The phase clocks feed DepthStats (encode /
    // simplify / solve split) and, when a session is on, the trace.
    const std::uint64_t t_prep0 = obs::monotonic_now_us();
    const FormulaSession::Prepared prep = session->prepare(k);
    const std::uint64_t t_prep1 = obs::monotonic_now_us();
    sat::Solver& solver = *prep.solver;
    solver.set_stop_flag(config_.stop);

    // sat_check(F, varRank): project the accumulated model-axis scores
    // down to this instance's CNF variables through the origin map.
    std::uint64_t rank_epoch = 0;
    if (config_.policy == OrderingPolicy::Shtrichman) {
      solver.set_variable_rank(shtrichman_rank(solver, prep.property_lit));
    } else if (uses_core_ranking()) {
      solver.set_variable_rank(rank_->project(session->origin(), &rank_epoch));
      if (config_.rank_source != nullptr) {
        // Shared ordering: rivals may publish cores while this depth
        // solves; the solver re-projects at restart boundaries.
        rank_refresher_.bind(*rank_, session->origin(), rank_epoch);
        solver.set_rank_refresh(&rank_refresher_);
      }
    }

    // Engine-level limits take precedence; otherwise any per-solve budget
    // the caller put into the base SolverConfig stays in force.
    double limit = config_.solver.time_limit_sec;
    if (config_.per_instance_time_limit_sec > 0.0 ||
        config_.total_time_limit_sec > 0.0) {
      const double remaining = total_deadline.remaining_sec();
      limit = config_.per_instance_time_limit_sec > 0.0
                  ? std::min(config_.per_instance_time_limit_sec, remaining)
                  : remaining;
    }
    const std::int64_t conflict_limit =
        config_.per_instance_conflict_limit >= 0
            ? config_.per_instance_conflict_limit
            : config_.solver.conflict_limit;
    solver.set_resource_limits(conflict_limit, limit);

    const sat::SolverStats before = solver.stats();
    const std::uint64_t t_solve0 = obs::monotonic_now_us();
    const sat::Result res = solver.solve(prep.assumptions);
    const std::uint64_t t_solve1 = obs::monotonic_now_us();

    DepthStats stats;
    stats.depth = k;
    stats.result = res;
    stats.decisions = solver.stats().decisions - before.decisions;
    stats.propagations = solver.stats().propagations - before.propagations;
    stats.binary_propagations =
        solver.stats().binary_propagations - before.binary_propagations;
    stats.blocker_skips =
        solver.stats().blocker_skips - before.blocker_skips;
    stats.conflicts = solver.stats().conflicts - before.conflicts;
    stats.clauses_exported =
        solver.stats().clauses_exported - before.clauses_exported;
    stats.clauses_imported =
        solver.stats().clauses_imported - before.clauses_imported;
    stats.import_propagations =
        solver.stats().import_propagations - before.import_propagations;
    stats.rank_refreshes =
        solver.stats().rank_refreshes - before.rank_refreshes;
    stats.rank_epoch = rank_epoch;
    stats.peak_bytes = mem_->peak();
    stats.arena_bytes = solver.clause_db().arena().allocated_bytes();
    stats.tape_bytes = tape_->memory_bytes();
    stats.time_sec = solver.stats().solve_time_sec - before.solve_time_sec;
    stats.cnf_vars = prep.cnf_vars;
    stats.cnf_clauses = prep.cnf_clauses;
    const EncodeStats encode = tape_->stats_at(k);
    stats.simplified_vars_removed = encode.vars_removed;
    stats.simplified_clauses_removed = encode.clauses_removed;
    stats.rank_switched = solver.stats().rank_switched;
    stats.savepoint_hits =
        solver.stats().savepoint_hits - before.savepoint_hits;
    stats.savepoint_misses =
        solver.stats().savepoint_misses - before.savepoint_misses;
    stats.savepoint_levels_reused =
        solver.stats().savepoint_levels_reused -
        before.savepoint_levels_reused;
    // Retirement flushes happen inside prepare() — before the `before`
    // snapshot — so this delta is taken against the previous depth's
    // cumulative count instead (scratch solvers always read zero).
    stats.retired_frame_clauses =
        solver.stats().retired_frame_clauses - retired_seen;
    retired_seen = solver.stats().retired_frame_clauses;
    if (config_.preprocess.enabled) {
      // Depth k's delta pass ran (cached) inside prepare(); pull its
      // counters.  In a race every entrant reports the same numbers — the
      // pass is per-depth, race-wide, like the encode itself.
      const PreprocessStats ps = tape_->preprocess_stats_at(k);
      stats.vars_eliminated = ps.vars_eliminated;
      stats.clauses_subsumed = ps.clauses_subsumed;
      stats.lits_strengthened = ps.lits_strengthened;
      stats.preprocess_us = ps.preprocess_us;
    }
    // Phase split: prepare = this entrant's materialization cost; the
    // simplify share is the tape's fold/strash time for the frames that
    // became encoded at this depth (delta of the cumulative snapshots —
    // deterministic per k no matter which entrant triggered the encode).
    stats.encode_us = t_prep1 - t_prep0;
    const std::uint64_t prev_simplify_ns =
        k > 0 ? tape_->stats_at(k - 1).simplify_ns : 0;
    stats.simplify_us = (encode.simplify_ns - prev_simplify_ns) / 1000;
    stats.solve_us = t_solve1 - t_solve0;
    if (obs::trace_active()) {
      obs::trace_record_span(obs::EventKind::SpanEncode, t_prep0,
                             t_prep1 - t_prep0, k,
                             static_cast<std::int64_t>(prep.cnf_clauses));
      if (stats.simplify_us > 0)
        obs::trace_record_span(obs::EventKind::SpanSimplify, t_prep0,
                               stats.simplify_us, k,
                               static_cast<std::int64_t>(
                                   encode.vars_removed));
      obs::trace_record_span(obs::EventKind::SpanSolve, t_solve0,
                             t_solve1 - t_solve0, k,
                             static_cast<std::int64_t>(stats.conflicts));
      obs::trace_record_span(obs::EventKind::SpanDepth, t_prep0,
                             t_solve1 - t_prep0, k,
                             static_cast<std::int64_t>(res));
    }
    if (obs::metrics_active()) {
      obs::MetricsRegistry& m = obs::metrics();
      m.histogram("bmc.encode_us").observe(stats.encode_us);
      m.histogram("bmc.simplify_us").observe(stats.simplify_us);
      m.histogram("bmc.solve_us").observe(stats.solve_us);
      m.counter("bmc.depths").add(1);
    }

    if (res == sat::Result::Sat) {
      Trace trace = extract_trace(net_, k, session->origin(), solver);
      if (config_.validate_counterexamples) {
        REFBMC_ASSERT_MSG(validate_trace(net_, trace, bad_index_),
                          "BMC produced a counter-example that does not "
                          "replay on the simulator");
      }
      result.per_depth.push_back(stats);
      if (config_.on_depth) config_.on_depth(stats);
      result.status = BmcResult::Status::CounterexampleFound;
      result.counterexample = std::move(trace);
      result.counterexample_depth = k;
      result.last_completed_depth = k;
      break;
    }
    if (res == sat::Result::Unknown) {
      result.per_depth.push_back(stats);
      if (config_.on_depth) config_.on_depth(stats);
      result.status = BmcResult::Status::ResourceLimit;
      if (mem_->breached()) result.mem_limit_hit = true;
      break;
    }

    // UNSAT: the paper's update_ranking step — the core's variables are
    // projected to the model axis and published into the RankSource
    // (which a shared source fans out to every racing rival).
    if (scfg.track_cdg) {
      const std::vector<sat::ClauseId> core = solver.unsat_core();
      const std::vector<sat::Var> core_vars = solver.unsat_core_vars(core);
      stats.core_vars = core_vars.size();
      stats.core_clauses = core.size();
      if (config_.verify_cores) {
        const sat::CoreCheck check = sat::verify_core(solver);
        REFBMC_ASSERT_MSG(check.core_unsat,
                          "extracted unsat core is not unsatisfiable");
      }
      if (uses_core_ranking()) {
        rank_->publish(session->origin(), core_vars, k);
        stats.ranks_published = 1;
      }
    }
    session->retire(k);
    result.per_depth.push_back(stats);
    if (config_.on_depth) config_.on_depth(stats);
    result.last_completed_depth = k;
    REFBMC_DEBUG() << "depth " << k << " UNSAT, decisions=" << stats.decisions
                   << ", core_vars=" << stats.core_vars;
  }

  result.total_time_sec = total_timer.elapsed_sec();
  result.peak_mem_bytes = mem_->peak();
  return result;
}

CompleteCheckResult check_invariant_complete(const model::Netlist& net,
                                             OrderingPolicy policy,
                                             std::size_t bad_index) {
  CompleteCheckResult result;
  result.threshold = mc::compute_diameter(net);
  EngineConfig cfg;
  cfg.policy = policy;
  cfg.max_depth = result.threshold;
  result.bmc = BmcEngine(net, cfg, bad_index).run();
  result.proven = result.bmc.status == BmcResult::Status::BoundReached;
  return result;
}

}  // namespace refbmc::bmc
