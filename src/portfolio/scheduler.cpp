#include "portfolio/scheduler.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <exception>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>
#include <tuple>

#include "bmc/rank_source.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace refbmc::portfolio {

namespace {

/// Joins `threads`, meanwhile relaying an external cancellation source
/// and an optional deadline onto the pool-internal stop flag.  With
/// nothing to relay this is a plain join (no latency quantization); the
/// relay granularity otherwise (1ms) is far below any engine's depth
/// time.
void join_with_relay(std::vector<std::thread>& threads,
                     std::atomic<std::size_t>& done, std::size_t expected,
                     const std::atomic<bool>* external_stop,
                     const Deadline* deadline, std::atomic<bool>& stop) {
  if (external_stop != nullptr || deadline != nullptr) {
    while (done.load(std::memory_order_acquire) < expected) {
      if ((external_stop != nullptr &&
           external_stop->load(std::memory_order_relaxed)) ||
          (deadline != nullptr && deadline->expired())) {
        stop.store(true, std::memory_order_relaxed);
        break;  // flag relayed; the workers wind down on their own
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

/// Policies that actually read the rank feed (and publish cores into
/// it).  Baseline / Evsids ignore it entirely; Shtrichman ranks a fixed
/// instance from scratch each depth and never consumes the accumulation.
bool consumes_rank(bmc::OrderingPolicy p) {
  return p == bmc::OrderingPolicy::Static ||
         p == bmc::OrderingPolicy::Dynamic ||
         p == bmc::OrderingPolicy::Replace;
}

/// A shared rank source pays off only when two+ consumers can overlap;
/// see SharingConfig::rank.  `rank_force` bypasses the check for tests.
bool shared_rank_pays_off(const SharingConfig& sharing,
                          std::size_t consumers) {
  if (sharing.rank_force) return true;
  return std::thread::hardware_concurrency() > 1 && consumers >= 2;
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

PortfolioScheduler::PortfolioScheduler(int num_threads,
                                       std::uint64_t base_seed,
                                       SharingConfig sharing)
    : num_threads_(num_threads), base_seed_(base_seed), sharing_(sharing) {
  REFBMC_EXPECTS_MSG(num_threads >= 1, "scheduler needs at least one thread");
  REFBMC_EXPECTS_MSG(!sharing_.enabled ||
                         (sharing_.lbd_max >= 0 && sharing_.size_max >= 0 &&
                          sharing_.capacity >= 1),
                     "invalid sharing configuration");
}

RaceResult PortfolioScheduler::race(
    const model::Netlist& net, std::size_t bad_index,
    const bmc::EngineConfig& base,
    const std::vector<bmc::OrderingPolicy>& policies) const {
  REFBMC_EXPECTS_MSG(!policies.empty(), "race needs at least one policy");

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
  if (sharing_.enabled && policies.size() > 1) {
    pool = std::make_unique<SharedClausePool>(
        static_cast<std::size_t>(sharing_.capacity));
    pool->set_mem_tracker(mem);
  }

  // And one rank source per race: cores live in model-node space, so the
  // merged accumulation is meaningful to every entrant regardless of its
  // solver's variable numbering (each projects through its own origin
  // map).  Entrants whose policy ignores the rank feed simply never
  // publish or refresh.  A caller-supplied base.rank_source takes
  // precedence over creating our own — that is how the serving layer
  // warm-starts a race from a persisted accumulation (and reads the
  // merged snapshot back out afterwards).
  std::unique_ptr<bmc::SharedRankSource> owned_rank_source;
  bmc::RankSource* rank_source = base.rank_source;
  if (rank_source == nullptr && sharing_.rank && policies.size() > 1) {
    const std::size_t consumers = static_cast<std::size_t>(
        std::count_if(policies.begin(), policies.end(), consumes_rank));
    if (shared_rank_pays_off(sharing_, consumers)) {
      owned_rank_source =
          std::make_unique<bmc::SharedRankSource>(base.weighting);
      rank_source = owned_rank_source.get();
    }
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
          job.config.solver.share_lbd = sharing_.lbd_max;
          job.config.solver.share_size = sharing_.size_max;
        }
        if (rank_source != nullptr) job.config.rank_source = rank_source;
        job.config.mem_tracker = mem;
        // The Shtrichman ordering has no incremental mode; demote that
        // entrant to scratch solving rather than disqualifying it
        // (scratch and incremental sessions replay the same tape).
        if (job.config.incremental &&
            policies[i] == bmc::OrderingPolicy::Shtrichman)
          job.config.incremental = false;

        JobResult r = run_job(job, &stop);
        r.job_index = i;
        r.worker_id = static_cast<int>(i);
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

  join_with_relay(threads, done, policies.size(), base.stop,
                  /*deadline=*/nullptr, stop);
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
  if (rank_source != nullptr) {
    out.rank_sharing = true;
    out.ranks_published = rank_source->num_updates();
    out.rank_epoch = rank_source->epoch();
    for (const auto& entrant : out.entrants)
      for (const auto& d : entrant.result.per_depth)
        out.rank_refreshes += d.rank_refreshes;
  }
  out.peak_mem_bytes = mem->peak();
  for (const auto& entrant : out.entrants)
    if (entrant.result.mem_limit_hit) out.mem_limit_hit = true;
  return out;
}

BatchReport PortfolioScheduler::run_batch(
    const std::vector<Job>& jobs, double budget_sec,
    const std::atomic<bool>* external_stop) const {
  BatchReport report;
  report.results.resize(jobs.size());
  if (jobs.empty()) return report;

  const int workers = static_cast<int>(
      std::min<std::size_t>(static_cast<std::size_t>(num_threads_),
                            jobs.size()));
  report.num_workers = workers;

  // Shard-group exchange: jobs on the same formula — identical (netlist,
  // property, bad mode, simplify), hence identical tape variable spaces
  // — get one clause pool per group.  Rank sources sub-group further by
  // core weighting (merged scores must mean the same thing to every
  // publisher; clause soundness never depended on it, so the pool group
  // stays whole).  Each engine encodes its own tape, but the encoder is
  // deterministic, so the spaces line up.  Requires rewriting the job
  // configs, so the workers run on a copy.
  std::vector<Job> shared_jobs;
  std::vector<std::unique_ptr<SharedClausePool>> pools;
  std::vector<std::unique_ptr<bmc::SharedRankSource>> rank_sources;
  const std::vector<Job>* run_jobs = &jobs;
  if ((sharing_.enabled || sharing_.rank) && jobs.size() > 1) {
    // The formula fingerprint joins the key: the pool's clauses live in
    // tape space, which preprocessing never renumbers, but members of a
    // group must agree on *which* variables got eliminated or their
    // endpoints would silently drop each other's best lemmas.  The
    // fingerprint covers bad mode, frame-wise simplify and the whole
    // preprocess recipe — the same function the service's result cache
    // keys on, so the two notions of "same formula" cannot drift apart.
    using GroupKey = std::tuple<const model::Netlist*, std::size_t,
                                std::uint64_t>;
    std::map<GroupKey, std::vector<std::size_t>> groups;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const Job& j = jobs[i];
      groups[GroupKey{j.net, j.bad_index, bmc::formula_fingerprint(j.config)}]
          .push_back(i);
    }
    for (const auto& [key, members] : groups) {
      if (members.size() < 2) continue;  // nobody to share with
      if (shared_jobs.empty()) shared_jobs = jobs;
      if (sharing_.enabled) {
        pools.push_back(std::make_unique<SharedClausePool>(
            static_cast<std::size_t>(sharing_.capacity)));
        for (std::size_t p = 0; p < members.size(); ++p) {
          bmc::EngineConfig& cfg = shared_jobs[members[p]].config;
          cfg.share_pool = pools.back().get();
          cfg.share_producer = static_cast<int>(p);
          cfg.solver.share_lbd = sharing_.lbd_max;
          cfg.solver.share_size = sharing_.size_max;
        }
      }
      if (sharing_.rank) {
        std::map<int, std::vector<std::size_t>> by_weighting;
        for (const std::size_t m : members)
          by_weighting[static_cast<int>(shared_jobs[m].config.weighting)]
              .push_back(m);
        for (const auto& [w, twins] : by_weighting) {
          if (twins.size() < 2) continue;
          // Same pays-off demotion as race(): a twin group without two
          // rank-consuming policies leaves everyone on their private
          // LocalRankSource (no exchange to be had).
          std::size_t consumers = 0;
          for (const std::size_t m : twins)
            if (consumes_rank(shared_jobs[m].config.policy)) ++consumers;
          if (!shared_rank_pays_off(sharing_, consumers)) continue;
          rank_sources.push_back(std::make_unique<bmc::SharedRankSource>(
              shared_jobs[twins.front()].config.weighting));
          for (const std::size_t m : twins)
            shared_jobs[m].config.rank_source = rank_sources.back().get();
        }
      }
    }
    if (!shared_jobs.empty()) run_jobs = &shared_jobs;
  }

  // Round-robin seeding spreads the batch evenly; stealing rebalances
  // whatever the initial split gets wrong.
  std::vector<WorkStealingQueue> queues(static_cast<std::size_t>(workers));
  for (std::size_t i = 0; i < jobs.size(); ++i)
    queues[i % static_cast<std::size_t>(workers)].push(i);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> steals{0};
  std::atomic<std::size_t> done{0};
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(workers));
  const Deadline deadline(budget_sec);
  Timer timer;

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      std::string tag = "w";
      tag += std::to_string(w);
      obs::trace_set_thread_track(tag);
      set_log_thread_tag(tag);
      try {
        WorkerContext ctx;
        ctx.id = w;
        ctx.rng_seed = base_seed_ + static_cast<std::uint64_t>(w);
        ctx.jobs = run_jobs;
        ctx.results = &report.results;
        ctx.queues = &queues;
        ctx.stop = &stop;
        ctx.steals = &steals;
        worker_main(ctx);
      } catch (...) {
        errors[static_cast<std::size_t>(w)] = std::current_exception();
        stop.store(true, std::memory_order_release);
      }
      done.fetch_add(1, std::memory_order_release);
    });
  }

  join_with_relay(threads, done, static_cast<std::size_t>(workers),
                  external_stop, budget_sec > 0.0 ? &deadline : nullptr,
                  stop);
  rethrow_first(errors);

  for (std::size_t i = 0; i < report.results.size(); ++i)
    report.results[i].job_index = i;
  report.steals = steals.load();
  report.wall_time_sec = timer.elapsed_sec();
  for (const auto& pool : pools) {
    report.clauses_exported += pool->published();
    report.clauses_imported += pool->delivered();
  }
  for (const auto& ranks : rank_sources)
    report.ranks_published += ranks->num_updates();
  if (!rank_sources.empty())
    for (const auto& r : report.results)
      for (const auto& d : r.result.per_depth)
        report.rank_refreshes += d.rank_refreshes;
  return report;
}

ResolvedPortfolio resolve(const PortfolioConfig& cfg) {
  cfg.validate();
  ResolvedPortfolio r;
  r.num_threads = cfg.num_threads;
  r.seed = cfg.seed;
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
  r.sharing.rank = cfg.share_rank;
  return r;
}

}  // namespace refbmc::portfolio
