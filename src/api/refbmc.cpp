#include "api/refbmc.hpp"

#include <algorithm>
#include <cstdio>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "portfolio/scheduler.hpp"
#include "util/timer.hpp"

namespace refbmc::api {

RaceOptions RaceOptions::from_options(const Options& opts) {
  RaceOptions o;
  o.cli_ = PortfolioConfig::from_options(opts);
  // The one-shot examples' historical spellings, folded into the same
  // path so no caller parses flags privately any more.
  if (opts.has("bound")) o.cli_.max_depth = opts.get_int("bound", o.cli_.max_depth);
  if (opts.has("policy")) o.cli_.policies = {opts.get("policy")};
  if (opts.get_bool("any-frame", false)) o.bad_mode_ = bmc::BadMode::Any;
  return o;
}

RaceOptions& RaceOptions::policies(std::vector<std::string> names) {
  cli_.policies = std::move(names);
  return *this;
}
RaceOptions& RaceOptions::policy(const std::string& name) {
  cli_.policies = {name};
  return *this;
}
RaceOptions& RaceOptions::max_depth(int depth) {
  cli_.max_depth = depth;
  return *this;
}
RaceOptions& RaceOptions::budget_sec(double sec) {
  cli_.budget_sec = sec;
  return *this;
}
RaceOptions& RaceOptions::threads(int n) {
  cli_.num_threads = n;
  return *this;
}
RaceOptions& RaceOptions::seed(std::uint64_t s) {
  cli_.seed = s;
  return *this;
}
RaceOptions& RaceOptions::incremental(bool on) {
  cli_.incremental = on;
  return *this;
}
RaceOptions& RaceOptions::simplify(bool on) {
  cli_.simplify = on;
  return *this;
}
RaceOptions& RaceOptions::bad_mode(bmc::BadMode mode) {
  bad_mode_ = mode;
  return *this;
}
RaceOptions& RaceOptions::glue_lbd(int lbd) {
  cli_.glue_lbd = lbd;
  return *this;
}
RaceOptions& RaceOptions::tier_lbd(int lbd) {
  cli_.tier_lbd = lbd;
  return *this;
}
RaceOptions& RaceOptions::share(bool on) {
  cli_.share = on;
  return *this;
}
RaceOptions& RaceOptions::share_lbd(int lbd) {
  cli_.share_lbd = lbd;
  return *this;
}
RaceOptions& RaceOptions::share_size(int size) {
  cli_.share_size = size;
  return *this;
}
RaceOptions& RaceOptions::share_cap(int clauses) {
  cli_.share_cap = clauses;
  return *this;
}
RaceOptions& RaceOptions::share_rank(bool on) {
  cli_.share_rank = on;
  return *this;
}
RaceOptions& RaceOptions::core_weighting(const std::string& name) {
  cli_.core_weighting = name;
  return *this;
}
RaceOptions& RaceOptions::preprocess(bool on) {
  cli_.preprocess = on;
  return *this;
}
RaceOptions& RaceOptions::bve_budget(int occurrences) {
  cli_.bve_budget = occurrences;
  return *this;
}
RaceOptions& RaceOptions::mem_ceiling_mb(int mb) {
  cli_.mem_ceiling_mb = mb;
  return *this;
}

portfolio::ResolvedPortfolio RaceOptions::resolve() const {
  portfolio::ResolvedPortfolio r = portfolio::resolve(cli_);
  r.engine.bad_mode = bad_mode_;
  return r;
}

std::uint64_t CheckResult::total_decisions() const {
  std::uint64_t n = 0;
  for (const auto& d : per_depth) n += d.decisions;
  return n;
}
std::uint64_t CheckResult::total_propagations() const {
  std::uint64_t n = 0;
  for (const auto& d : per_depth) n += d.propagations;
  return n;
}
std::uint64_t CheckResult::total_conflicts() const {
  std::uint64_t n = 0;
  for (const auto& d : per_depth) n += d.conflicts;
  return n;
}

CheckResult check(const CheckRequest& request, const CheckHooks& hooks) {
  portfolio::ResolvedPortfolio r = request.options.resolve();
  r.engine.stop = hooks.stop;
  r.engine.rank_source = hooks.rank_source;
  r.engine.on_depth = hooks.on_depth;
  if (hooks.deadline_sec > 0.0)
    r.engine.total_time_limit_sec =
        r.engine.total_time_limit_sec > 0.0
            ? std::min(r.engine.total_time_limit_sec, hooks.deadline_sec)
            : hooks.deadline_sec;

  const portfolio::PortfolioScheduler scheduler(r.num_threads, r.seed,
                                                r.sharing);
  const portfolio::RaceResult race =
      scheduler.race(request.net, request.bad_index, r.engine, r.policies);

  CheckResult out;
  out.status = race.status();
  out.wall_time_sec = race.wall_time_sec;
  out.frames_encoded = race.frames_encoded;
  out.clauses_exported = race.clauses_exported;
  out.clauses_imported = race.clauses_imported;
  out.ranks_published = race.ranks_published;
  out.rank_refreshes = race.rank_refreshes;
  out.cancel_latency_us = race.cancel_latency_us;
  out.peak_mem_bytes = race.peak_mem_bytes;
  out.mem_limit_hit = race.mem_limit_hit;
  if (race.has_winner()) {
    const portfolio::JobResult& w = race.winning();
    out.winner_policy = w.name;
    out.counterexample = w.result.counterexample;
    out.counterexample_depth = w.result.counterexample_depth;
    out.last_completed_depth = w.result.last_completed_depth;
    out.per_depth = w.result.per_depth;
  } else {
    // No verdict: report the furthest any entrant got, so a budget-cut
    // check still tells the caller how deep it reached.
    for (const auto& e : race.entrants)
      out.last_completed_depth =
          std::max(out.last_completed_depth, e.result.last_completed_depth);
  }
  return out;
}

ObservabilityScope::ObservabilityScope(const RaceOptions& options)
    : trace_file_(options.cli().trace_file),
      metrics_file_(options.cli().metrics_file) {
  if (!trace_file_.empty()) {
    obs::TraceConfig tc;
    tc.buffer_events = std::max<std::size_t>(
        1, static_cast<std::size_t>(options.cli().trace_buffer_kb) * 1024 /
               sizeof(obs::TraceEvent));
    obs::trace_begin(tc);
    obs::trace_set_thread_track("driver");
  }
  if (!metrics_file_.empty()) obs::metrics_enable(true);
}

ObservabilityScope::~ObservabilityScope() {
  if (!trace_file_.empty()) {
    const obs::TraceDump dump = obs::trace_end();
    obs::write_chrome_trace_file(trace_file_, dump);
    std::printf("trace: %llu events on %zu tracks (%llu dropped) -> %s\n",
                static_cast<unsigned long long>(dump.total_events()),
                dump.tracks.size(),
                static_cast<unsigned long long>(dump.total_dropped()),
                trace_file_.c_str());
  }
  if (!metrics_file_.empty()) {
    obs::write_metrics_file(metrics_file_, obs::metrics());
    std::printf("metrics -> %s\n", metrics_file_.c_str());
  }
}

std::uint64_t config_fingerprint(const RaceOptions& options) {
  // FNV-1a over (tag, value) pairs, the same mixing discipline as
  // bmc::formula_fingerprint / model::structural_hash.  Resolve first so
  // the hash covers the *effective* configuration — parsed policy and
  // mode names, the ceiling in bytes — and so two option spellings of
  // the same behaviour collide on purpose.
  const portfolio::ResolvedPortfolio r = options.resolve();

  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t tag, std::uint64_t v) {
    for (const std::uint64_t word : {tag, v})
      for (int byte = 0; byte < 8; ++byte) {
        h ^= (word >> (byte * 8)) & 0xff;
        h *= 1099511628211ull;
      }
  };
  const auto mix_double = [&mix](std::uint64_t tag, double d) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(d));
    __builtin_memcpy(&bits, &d, sizeof(bits));
    mix(tag, bits);
  };

  // The formula component — shared verbatim with the shard GroupKey.
  mix(0x10, bmc::formula_fingerprint(r.engine));
  // The search component: everything else that can change a verdict, a
  // trace or a per-depth counter.
  mix(0x11, static_cast<std::uint64_t>(r.policies.size()));
  for (const bmc::OrderingPolicy p : r.policies)
    mix(0x12, static_cast<std::uint64_t>(p));
  mix(0x13, static_cast<std::uint64_t>(r.engine.max_depth));
  mix_double(0x14, r.engine.total_time_limit_sec);
  mix(0x15, r.engine.incremental ? 1 : 0);
  mix(0x16, static_cast<std::uint64_t>(r.engine.weighting));
  mix(0x18, static_cast<std::uint64_t>(r.engine.solver.glue_lbd));
  mix(0x19, static_cast<std::uint64_t>(r.engine.solver.tier_lbd));
  mix(0x1c, static_cast<std::uint64_t>(r.num_threads));
  mix(0x1d, r.seed);
  mix(0x1e, r.sharing.enabled ? 1 : 0);
  mix(0x1f, static_cast<std::uint64_t>(r.sharing.lbd_max));
  mix(0x20, static_cast<std::uint64_t>(r.sharing.size_max));
  mix(0x21, static_cast<std::uint64_t>(r.sharing.capacity));
  mix(0x22, r.sharing.rank ? 1 : 0);
  mix(0x23, static_cast<std::uint64_t>(
                r.engine.preprocess.bve_max_resolvent));
  // The memory ceiling changes when a run is cut off, hence verdicts —
  // it must key the cache.
  mix(0x24, r.engine.mem_ceiling_bytes);
  return h;
}

}  // namespace refbmc::api
