#include "portfolio/scheduler.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <exception>
#include <memory>
#include <stdexcept>
#include <thread>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace refbmc::portfolio {

namespace {

/// Joins `threads`, meanwhile relaying an external cancellation source
/// onto the race-internal stop flag.  With nothing to relay this is a
/// plain join (no latency quantization); the relay granularity otherwise
/// (1ms) is far below any engine's depth time.
void join_with_relay(std::vector<std::thread>& threads,
                     std::atomic<std::size_t>& done, std::size_t expected,
                     const std::atomic<bool>* external_stop,
                     std::atomic<bool>& stop) {
  if (external_stop != nullptr) {
    while (done.load(std::memory_order_acquire) < expected) {
      if (external_stop->load(std::memory_order_relaxed)) {
        stop.store(true, std::memory_order_relaxed);
        break;  // flag relayed; the entrants wind down on their own
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  for (auto& t : threads) t.join();
}

void rethrow_first(const std::vector<std::exception_ptr>& errors) {
  for (const auto& e : errors)
    if (e) std::rethrow_exception(e);
}

}  // namespace

const JobResult& RaceResult::winning() const {
  REFBMC_EXPECTS_MSG(has_winner(), "race produced no verdict");
  return entrants[static_cast<std::size_t>(winner)];
}

bmc::BmcResult::Status RaceResult::status() const {
  return has_winner() ? winning().result.status
                      : bmc::BmcResult::Status::ResourceLimit;
}

std::vector<bmc::OrderingPolicy> default_race_policies() {
  return {bmc::OrderingPolicy::Baseline, bmc::OrderingPolicy::Static,
          bmc::OrderingPolicy::Dynamic, bmc::OrderingPolicy::Shtrichman,
          bmc::OrderingPolicy::Evsids};
}

RaceResult race(const model::Netlist& net, std::size_t bad_index,
                const bmc::EngineConfig& base,
                const std::vector<bmc::OrderingPolicy>& policies,
                const SharingConfig& sharing) {
  REFBMC_EXPECTS_MSG(!policies.empty(), "race needs at least one policy");
  REFBMC_EXPECTS_MSG(!sharing.enabled ||
                         (sharing.lbd_max >= 0 && sharing.size_max >= 0 &&
                          sharing.capacity >= 1),
                     "invalid sharing configuration");

  RaceResult out;
  out.entrants.resize(policies.size());

  // One formula-state tracker per race: the tape, every entrant's clause
  // arena and watcher heap, and the lemma pool all charge here, so a
  // --mem-ceiling bounds the race's SUM, not each entrant separately.  A
  // caller-supplied tracker (service seam) takes precedence.  Declared
  // before tape and pool: its chargers must not outlive it.
  MemTracker race_mem;
  MemTracker* mem =
      base.mem_tracker != nullptr ? base.mem_tracker : &race_mem;

  // Encode once: every entrant replays this shared formula instead of
  // unrolling its own copy (frames_encoded stays one-per-depth no matter
  // how many policies race).
  bmc::EncoderOptions tape_opts;
  tape_opts.mode = base.bad_mode;
  tape_opts.simplify = base.simplify;
  bmc::SharedTape tape(net, bad_index, tape_opts, base.preprocess);

  // One lemma pool per race: every entrant replays the same tape, so the
  // pool's tape-space clauses are meaningful to all of them.  A
  // single-entrant race has nobody to share with.
  std::unique_ptr<SharedClausePool> pool;
  if (sharing.enabled && policies.size() > 1) {
    pool = std::make_unique<SharedClausePool>(
        static_cast<std::size_t>(sharing.capacity));
    pool->set_mem_tracker(mem);
  }

  std::atomic<bool> stop{false};
  std::atomic<int> winner{-1};
  std::atomic<std::size_t> done{0};
  std::vector<std::exception_ptr> errors(policies.size());
  // Cancellation-latency bookkeeping: the winner stamps verdict_ts at
  // its CAS success, every entrant stamps end_ts when its job function
  // returns.  Plain monotonic microseconds — no tracing required.
  std::atomic<std::uint64_t> verdict_ts{0};
  std::vector<std::uint64_t> end_ts(policies.size(), 0);
  Timer timer;

  std::vector<std::thread> threads;
  threads.reserve(policies.size());
  for (std::size_t i = 0; i < policies.size(); ++i) {
    // Submit lands on the CALLER's track (the race driver); the rest of
    // the lifecycle lands on the entrant's own.
    REFBMC_TRACE_EVENT(obs::EventKind::JobSubmit, -1,
                       static_cast<std::int64_t>(i));
    threads.emplace_back([&, i] {
      // One trace track and one log tag per entrant, named after its
      // policy — the per-solver lanes the Perfetto view hinges on.
      obs::trace_set_thread_track(to_string(policies[i]));
      set_log_thread_tag(to_string(policies[i]));
      REFBMC_TRACE_EVENT(obs::EventKind::JobStart, -1,
                         static_cast<std::int64_t>(i));
      try {
        Job job;
        job.net = &net;
        job.bad_index = bad_index;
        job.name = to_string(policies[i]);
        job.config = base;
        job.config.policy = policies[i];
        job.config.shared_tape = &tape;
        if (pool != nullptr) {
          job.config.share_pool = pool.get();
          job.config.share_producer = static_cast<int>(i);
          job.config.solver.share_lbd = sharing.lbd_max;
          job.config.solver.share_size = sharing.size_max;
        }
        job.config.mem_tracker = mem;
        // The Shtrichman ordering has no incremental mode; demote that
        // entrant to scratch solving rather than disqualifying it
        // (scratch and incremental sessions replay the same tape).
        if (job.config.incremental &&
            policies[i] == bmc::OrderingPolicy::Shtrichman)
          job.config.incremental = false;

        JobResult r = run_job(job, &stop);
        if (r.result.status != bmc::BmcResult::Status::ResourceLimit) {
          int expected = -1;
          if (winner.compare_exchange_strong(expected, static_cast<int>(i))) {
            verdict_ts.store(obs::monotonic_now_us(),
                             std::memory_order_release);
            REFBMC_TRACE_EVENT(obs::EventKind::JobVerdict, -1,
                               static_cast<std::int64_t>(r.result.status));
            REFBMC_TRACE_EVENT(obs::EventKind::CancelRequest, -1,
                               static_cast<std::int64_t>(i));
            // Epoch close: the race is decided — losers wind down without
            // publishing lemmas nobody will read.
            if (pool != nullptr) {
              pool->close();
              REFBMC_TRACE_EVENT(obs::EventKind::PoolClose, -1,
                                 static_cast<std::int64_t>(pool->published()));
            }
            stop.store(true, std::memory_order_release);
          }
        }
        out.entrants[i] = std::move(r);
      } catch (...) {
        errors[i] = std::current_exception();
        stop.store(true, std::memory_order_release);
      }
      end_ts[i] = obs::monotonic_now_us();
      REFBMC_TRACE_EVENT(obs::EventKind::JobStop, -1,
                         static_cast<std::int64_t>(i));
      set_log_thread_tag({});
      done.fetch_add(1, std::memory_order_release);
    });
  }

  join_with_relay(threads, done, policies.size(), base.stop, stop);
  rethrow_first(errors);

  out.winner = winner.load();
  out.wall_time_sec = timer.elapsed_sec();
  out.frames_encoded = tape.frames_encoded();
  // Verdict -> last loser actually stopped.  Losers that finished before
  // the verdict cost nothing; the clamp keeps an all-early race at 0.
  if (out.winner >= 0 && policies.size() > 1) {
    const std::uint64_t verdict = verdict_ts.load(std::memory_order_acquire);
    std::uint64_t last_stop = 0;
    for (std::size_t i = 0; i < policies.size(); ++i) {
      if (static_cast<int>(i) == out.winner) continue;
      last_stop = std::max(last_stop, end_ts[i]);
    }
    out.cancel_latency_us = last_stop > verdict ? last_stop - verdict : 0;
    if (obs::metrics_active())
      obs::metrics()
          .histogram("race.cancel_latency_us")
          .observe(out.cancel_latency_us);
  }
  if (pool != nullptr) {
    out.sharing = true;
    out.clauses_exported = pool->published();
    out.clauses_imported = pool->delivered();
  }
  out.peak_mem_bytes = mem->peak();
  for (const auto& entrant : out.entrants)
    if (entrant.result.mem_limit_hit) out.mem_limit_hit = true;
  return out;
}

ResolvedPortfolio resolve(const PortfolioConfig& cfg) {
  cfg.validate();
  ResolvedPortfolio r;
  // Identical entrants run identical, deterministic searches, so a
  // repeat is pure waste — and rejecting it bounds a race at one thread
  // per policy, however long the submitted lineup.
  std::array<bool, bmc::all_policies().size()> listed{};
  for (const std::string& name : cfg.policies) {
    const auto p = bmc::parse_policy(name);
    if (!p)
      throw std::invalid_argument("unknown ordering policy '" + name + "'");
    bool& seen = listed[static_cast<std::size_t>(*p)];
    if (seen)
      throw std::invalid_argument("ordering policy '" + name +
                                  "' listed twice");
    seen = true;
    r.policies.push_back(*p);
  }
  r.engine.max_depth = cfg.max_depth;
  r.engine.incremental = cfg.incremental;
  r.engine.simplify = cfg.simplify;
  r.engine.total_time_limit_sec = cfg.budget_sec;
  r.engine.solver.glue_lbd = cfg.glue_lbd;
  r.engine.solver.tier_lbd = cfg.tier_lbd;
  const auto weighting = bmc::parse_core_weighting(cfg.core_weighting);
  if (!weighting)
    throw std::invalid_argument(
        "unknown core weighting '" + cfg.core_weighting +
        "' (expected linear, uniform, last-only or exp-decay)");
  r.engine.weighting = *weighting;
  r.engine.preprocess.enabled = cfg.preprocess;
  r.engine.preprocess.bve_budget = cfg.bve_budget;
  // Incremental sessions resume from the common assumption prefix;
  // scratch engines clear this themselves (solver_config_for_policy).
  r.engine.solver.assumption_savepoint = true;
  r.engine.mem_ceiling_bytes =
      static_cast<std::uint64_t>(cfg.mem_ceiling_mb) * 1024 * 1024;
  r.sharing.enabled = cfg.share;
  r.sharing.lbd_max = cfg.share_lbd;
  r.sharing.size_max = cfg.share_size;
  r.sharing.capacity = cfg.share_cap;
  return r;
}

}  // namespace refbmc::portfolio
