// The stable public façade of refbmc: one value-typed request, one
// value-typed result, one call.
//
//   api::CheckRequest req;
//   req.net = model::read_aiger_file("design.aag");
//   req.options.max_depth(30).policies({"dynamic", "evsids"});
//   const api::CheckResult res = api::check(req);
//
// Everything underneath — the portfolio race over decision-ordering
// policies, encode-once formula tapes, lemma exchange, preprocessing
// and the incremental fast path — is reached exclusively through
// RaceOptions, a builder over the same knob set the CLI exposes.  The
// examples, the benches, the one-shot CLIs and the job server
// (service/job_server.hpp) all construct races only through this header,
// so the scattered PortfolioConfig / EngineConfig / SolverConfig plumbing
// can evolve without breaking any caller.
//
// Identity functions for the serving layer live here too:
// config_fingerprint hashes every behaviour-affecting option (and embeds
// bmc::formula_fingerprint), so "same request" means the same thing to
// the result cache as "same formula" means to the engine.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "bmc/engine.hpp"
#include "model/netlist.hpp"
#include "util/options.hpp"

namespace refbmc::portfolio {
struct ResolvedPortfolio;
}

namespace refbmc::api {

/// Builder-style configuration of one check: wraps the CLI-level
/// PortfolioConfig (policies, budget, sharing, preprocessing, ...) plus
/// the engine-level bad mode, behind chainable setters.  Invalid
/// *values* (unknown or repeated policy name, tier below glue, negative
/// depth) surface at resolve time — i.e. inside api::check and
/// JobServer::submit — as std::invalid_argument, exactly like the CLI
/// path, because they go through the same checks
/// (PortfolioConfig::validate).
class RaceOptions {
 public:
  RaceOptions() = default;

  /// The one shared CLI path (satisfying every example/bench/daemon):
  /// all PortfolioConfig flags (--policies, --depth, --budget,
  /// --share*, --preprocess, ... see util/options.hpp) plus the
  /// engine-level spellings the one-shot examples grew over time:
  /// `--policy P` (single-policy lineup), `--bound N` (alias of
  /// --depth), `--any-frame` (BadMode::Any).
  static RaceOptions from_options(const Options& opts);

  // ---- chainable setters ---------------------------------------------------
  RaceOptions& policies(std::vector<std::string> names);
  RaceOptions& policy(const std::string& name);  // single-entrant lineup
  RaceOptions& max_depth(int depth);
  RaceOptions& budget_sec(double sec);
  RaceOptions& incremental(bool on);
  RaceOptions& simplify(bool on);
  RaceOptions& bad_mode(bmc::BadMode mode);
  RaceOptions& glue_lbd(int lbd);
  RaceOptions& tier_lbd(int lbd);
  RaceOptions& share(bool on);
  RaceOptions& share_lbd(int lbd);
  RaceOptions& share_size(int size);
  RaceOptions& share_cap(int clauses);
  RaceOptions& core_weighting(const std::string& name);
  RaceOptions& preprocess(bool on);
  RaceOptions& bve_budget(int occurrences);
  /// Formula-state memory ceiling in MiB (0 = unlimited); a breach ends
  /// the race with Status::ResourceLimit and mem_limit_hit set.
  RaceOptions& mem_ceiling_mb(int mb);

  // ---- inspection ----------------------------------------------------------
  const PortfolioConfig& cli() const { return cli_; }
  bmc::BadMode bad_mode() const { return bad_mode_; }
  int max_depth() const { return cli_.max_depth; }
  double budget_sec() const { return cli_.budget_sec; }

  /// Resolves to the scheduler/engine types (checks ranges, parses
  /// policy and mode names; throws std::invalid_argument on a bad value,
  /// an unknown name or a repeated policy) and applies the façade-level
  /// extras (bad mode).
  portfolio::ResolvedPortfolio resolve() const;

 private:
  friend std::uint64_t config_fingerprint(const RaceOptions&);
  PortfolioConfig cli_;
  bmc::BadMode bad_mode_ = bmc::BadMode::Last;
};

/// One self-contained check: the model (owned by value, so a request can
/// be queued, shipped or cached without lifetime strings attached), the
/// property, and how to race it.
struct CheckRequest {
  model::Netlist net;
  std::size_t bad_index = 0;
  std::string name;  // label for reports / server logs
  RaceOptions options;
};

/// The race outcome, flattened to values: verdict, counter-example,
/// winner identity, the winner's per-depth series, and the race-level
/// exchange counters (see portfolio::RaceResult for their semantics).
struct CheckResult {
  using Status = bmc::BmcResult::Status;

  Status status = Status::ResourceLimit;
  std::optional<bmc::Trace> counterexample;
  int counterexample_depth = -1;
  int last_completed_depth = -1;
  /// Winning entrant's policy name ("" when no entrant finished).
  std::string winner_policy;
  /// The winner's per-depth statistics (empty when no winner).
  std::vector<bmc::DepthStats> per_depth;
  double wall_time_sec = 0.0;

  // Race-level counters (zeros for cached results — nothing was solved).
  std::uint64_t frames_encoded = 0;
  std::uint64_t clauses_exported = 0;
  std::uint64_t clauses_imported = 0;
  /// Cores every entrant added to its own CoreRanking: the sum of their
  /// per-depth DepthStats::ranks_published.
  std::uint64_t ranks_published = 0;
  /// Always 0: entrants no longer exchange rankings mid-solve.  Kept
  /// only because the end-to-end benchmark (bench/e2e/closed_loop.hpp)
  /// still reads it; it goes with that benchmark row.
  std::uint64_t rank_refreshes = 0;
  std::uint64_t cancel_latency_us = 0;
  /// Race-wide formula-state footprint high-water mark, and whether a
  /// --mem-ceiling breach (not a timeout) produced the ResourceLimit.
  std::uint64_t peak_mem_bytes = 0;
  bool mem_limit_hit = false;

  /// Set by the serving layer when this result was returned from the
  /// ResultCache without running a race.
  bool from_cache = false;

  std::uint64_t total_decisions() const;
  std::uint64_t total_propagations() const;
  std::uint64_t total_conflicts() const;
  bool found_counterexample() const {
    return status == Status::CounterexampleFound;
  }
};

inline const char* to_string(CheckResult::Status s) {
  switch (s) {
    case CheckResult::Status::CounterexampleFound: return "cex";
    case CheckResult::Status::BoundReached: return "bound";
    case CheckResult::Status::ResourceLimit: return "limit";
  }
  return "?";
}

/// Run-time hooks a serving layer threads into a check; plain callers
/// leave all of them unset.
struct CheckHooks {
  /// Cooperative cancel: observed at depth / solver checkpoint
  /// boundaries.  Not owned; must outlive the call.
  const std::atomic<bool>* stop = nullptr;
  /// Per-depth progress stream (every entrant reports; must be
  /// thread-safe — see bmc::EngineConfig::on_depth).
  std::function<void(const bmc::DepthStats&)> on_depth;
  /// Additional wall-clock cap layered on top of the request's own
  /// budget (<= 0: none) — the serving layer's deadline enforcement,
  /// observed at depth boundaries like any engine budget.
  double deadline_sec = -1.0;
};

/// Checks `request.bad_index` of `request.net` by racing the configured
/// policy lineup; first definitive verdict wins.  Blocking; thread-safe
/// (no shared state between concurrent calls).
CheckResult check(const CheckRequest& request, const CheckHooks& hooks = {});

/// Trace/metrics sessions per the request's CLI-level observability
/// flags (--trace FILE / --metrics FILE), RAII-style: construction
/// starts the sessions (no-op when the flags are unset — zero recording
/// overhead, like the flags promise), destruction collects and writes
/// the files and prints a one-line summary per file to stdout.  Shared
/// by every example and tool, replacing their copy-pasted
/// begin/end_observability helpers.  Destroy only after every race
/// returned (the collection contract of obs::trace_end).
class ObservabilityScope {
 public:
  explicit ObservabilityScope(const RaceOptions& options);
  ~ObservabilityScope();

  ObservabilityScope(const ObservabilityScope&) = delete;
  ObservabilityScope& operator=(const ObservabilityScope&) = delete;

 private:
  std::string trace_file_;
  std::string metrics_file_;
};

/// Fingerprint of every behaviour-affecting option in `options` — the
/// config component of the service's cache key.  Embeds
/// bmc::formula_fingerprint, so the cache and the engine can never
/// disagree about formula identity; on top of it hashes the
/// search-affecting knobs: policy lineup (which also fixes each
/// entrant's decision scorer), depth, budget, incremental mode (which
/// also fixes the assumption savepoint), core weighting, reduceDB tiers,
/// the lemma-sharing family and the memory ceiling.
/// Observability settings (trace/metrics files) are deliberately
/// excluded — they never change a verdict or a counter.
std::uint64_t config_fingerprint(const RaceOptions& options);

}  // namespace refbmc::api
