// Portfolio race bench: measures the claims the race makes.
//
//   $ ./bench_portfolio [--budget SECONDS-PER-RUN] [--quick] [--depth K]
//
//  (a) race overhead — per instance, every policy run alone vs. the
//      full-lineup race; race wall-clock should track the per-instance
//      best policy (target: within 15% in total).  Each race runs twice:
//      lemma exchange off (independent solvers) and on (LBD-filtered
//      clause exchange through the SharedClausePool), with the
//      exported/imported counters recorded so the trajectory tooling can
//      see the exchange actually firing;
//  (b) race setup — encode-once vs per-policy encoding;
//  (c) a traced race, written as TRACE_race.json;
//  (d) tape preprocessing — clause reduction and solve-time ratio.
//
// Results go to stdout and, machine-readably, to BENCH_portfolio.json.
// The overhead target assumes the hardware can actually run the
// entrants in parallel: on a machine with fewer cores than entrants the
// race degrades to time-slicing (ratio ≈ #policies).  The JSON records
// hw_threads so trajectory tooling can tell "regression" from "ran on a
// small box".
#include <algorithm>
#include <cstdio>
#include <exception>
#include <thread>

#include "api/refbmc.hpp"
#include "bmc/tape.hpp"
#include "harness.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "portfolio/scheduler.hpp"
#include "util/options.hpp"
#include "util/timer.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace refbmc;
  using namespace refbmc::portfolio;
  using benchharness::JsonWriter;

  const Options opts = Options::parse(argc, argv);
  const double budget = opts.get_double("budget", 5.0);
  const auto suite = opts.get_bool("quick", false) ? model::quick_suite()
                                                   : model::standard_suite();
  const unsigned hw_threads = std::thread::hardware_concurrency();
  std::printf("hardware threads: %u\n\n", hw_threads);

  JsonWriter json;
  json.begin_object();
  json.kv("bench", "portfolio");
  json.kv("rows", static_cast<std::uint64_t>(suite.size()));
  json.kv("budget_sec", budget);
  json.kv("hw_threads", static_cast<std::uint64_t>(hw_threads));

  // ---- (a) race vs. best single policy, by exchange regime ----------------
  // Two exchange regimes: lemma exchange off (independent solvers) and
  // on (the default), isolating the clause exchange.  Each race is one
  // api::check — the bench exercises the same façade entry the examples
  // and the job server use — while the single-policy baselines stay on
  // run_job (a race of one would add thread overhead to the very number
  // being compared).  The share columns show whether portfolio
  // diversity compounds or the instance is too easy to learn anything
  // worth exchanging.  NB: like the race itself, the exchange payoff
  // needs real parallelism; on a box with fewer cores than entrants the
  // wall-clock comparison degrades to time-slicing noise while the
  // counters stay meaningful.
  const auto policies = default_race_policies();
  api::RaceOptions plain_race;
  plain_race.share(false);
  api::RaceOptions lemma_race;  // defaults: lemma exchange on

  std::printf("\nrace vs. best single policy (plain / lemma-sharing)\n");
  std::printf("%-26s %10s %-12s %10s %10s %7s %9s %9s\n", "model",
              "best(s)", "best-policy", "race(s)", "share(s)", "ratio",
              "exported", "imported");
  json.key("race");
  json.begin_array();
  double total_best = 0.0, total_race = 0.0, total_race_share = 0.0;
  std::uint64_t total_exported = 0, total_imported = 0;
  std::uint64_t max_cancel_latency = 0;
  const auto race_once = [&](const model::Benchmark& bm,
                             const api::RaceOptions& regime, int depth) {
    api::CheckRequest req;
    req.net = bm.net;
    req.name = bm.name;
    req.options = regime;
    req.options.max_depth(depth).budget_sec(budget);
    return api::check(req);
  };
  for (const auto& bm : suite) {
    const int depth = opts.get_int("depth", bm.suggested_bound);
    bmc::EngineConfig engine;
    engine.max_depth = depth;
    engine.total_time_limit_sec = budget;

    double best_sec = -1.0;
    bmc::OrderingPolicy best_policy = policies.front();
    for (const auto policy : policies) {
      Job job;
      job.net = &bm.net;
      job.name = bm.name;
      job.config = engine;
      job.config.policy = policy;
      const JobResult single = run_job(job);
      if (best_sec < 0.0 || single.wall_time_sec < best_sec) {
        best_sec = single.wall_time_sec;
        best_policy = policy;
      }
    }

    const api::CheckResult race = race_once(bm, plain_race, depth);
    const api::CheckResult shared = race_once(bm, lemma_race, depth);
    const double ratio = best_sec > 0.0 ? race.wall_time_sec / best_sec : 0.0;
    total_best += best_sec;
    total_race += race.wall_time_sec;
    total_race_share += shared.wall_time_sec;
    total_exported += shared.clauses_exported;
    total_imported += shared.clauses_imported;
    max_cancel_latency = std::max({max_cancel_latency, race.cancel_latency_us,
                                   shared.cancel_latency_us});
    std::printf("%-26s %10.3f %-12s %10.3f %10.3f %7.2f %9llu %9llu\n",
                bm.name.c_str(), best_sec, to_string(best_policy),
                race.wall_time_sec, shared.wall_time_sec, ratio,
                static_cast<unsigned long long>(shared.clauses_exported),
                static_cast<unsigned long long>(shared.clauses_imported));
    json.begin_object();
    json.kv("name", bm.name);
    json.kv("best_sec", best_sec);
    json.kv("best_policy", to_string(best_policy));
    json.kv("race_sec", race.wall_time_sec);
    json.kv("race_winner",
            race.winner_policy.empty() ? "-" : race.winner_policy);
    json.kv("race_verdict", api::to_string(race.status));
    json.kv("ratio", ratio);
    json.kv("frames_encoded", race.frames_encoded);
    json.kv("race_share_sec", shared.wall_time_sec);
    json.kv("race_share_winner",
            shared.winner_policy.empty() ? "-" : shared.winner_policy);
    json.kv("race_share_verdict", api::to_string(shared.status));
    json.kv("share_ratio_vs_plain",
            race.wall_time_sec > 0.0
                ? shared.wall_time_sec / race.wall_time_sec
                : 0.0);
    json.kv("clauses_exported", shared.clauses_exported);
    json.kv("clauses_imported", shared.clauses_imported);
    // Cancellation latency per exchange regime: verdict -> last loser
    // actually stopped.
    json.kv("cancel_latency_us", race.cancel_latency_us);
    json.kv("cancel_latency_share_us", shared.cancel_latency_us);
    json.end_object();
  }
  json.end_array();

  // ---- (b) race setup: encode-once vs per-policy encoding -----------------
  // The PR 1 race had every entrant unroll its own copy of the instance;
  // entrants now replay one shared tape.  Measure both disciplines on the
  // suite's deepest instance: P independent encodings vs one encoding
  // plus P solver replays.
  {
    const model::Benchmark* deepest = &suite.front();
    for (const auto& bm : suite)
      if (bm.suggested_bound > deepest->suggested_bound) deepest = &bm;
    const int depth = opts.get_int("depth", deepest->suggested_bound);
    const std::size_t num_policies = policies.size();

    Timer independent_timer;
    for (std::size_t p = 0; p < num_policies; ++p) {
      bmc::SharedTape own(deepest->net, 0);
      own.ensure_depth(depth);
      sat::Solver solver;
      std::vector<bmc::VarOrigin> origin;
      bmc::SolverSink sink(solver, origin);
      bmc::ClauseTape::Cursor cursor;
      own.replay_to(depth, cursor, sink);
    }
    const double independent_sec = independent_timer.elapsed_sec();

    Timer shared_timer;
    bmc::SharedTape shared(deepest->net, 0);
    shared.ensure_depth(depth);
    for (std::size_t p = 0; p < num_policies; ++p) {
      sat::Solver solver;
      std::vector<bmc::VarOrigin> origin;
      bmc::SolverSink sink(solver, origin);
      bmc::ClauseTape::Cursor cursor;
      shared.replay_to(depth, cursor, sink);
    }
    const double shared_sec = shared_timer.elapsed_sec();

    std::printf(
        "\nrace setup on %s (depth %d, %zu policies): per-policy encode "
        "%.4fs, encode-once %.4fs (%.2fx)\n",
        deepest->name.c_str(), depth, num_policies, independent_sec,
        shared_sec, shared_sec > 0.0 ? independent_sec / shared_sec : 0.0);
    json.key("race_setup");
    json.begin_object();
    json.kv("model", deepest->name);
    json.kv("depth", depth);
    json.kv("policies", static_cast<std::uint64_t>(num_policies));
    json.kv("per_policy_encode_sec", independent_sec);
    json.kv("encode_once_sec", shared_sec);
    json.kv("speedup",
            shared_sec > 0.0 ? independent_sec / shared_sec : 0.0);
    json.end_object();
  }

  // ---- (c) traced race: one lemma-sharing race under the obs layer -------
  // Records the race timeline (per-depth encode/simplify/solve spans,
  // solver milestones, job lifecycle) and exports it as Chrome
  // trace-event JSON — TRACE_race.json rides along with BENCH_*.json as
  // a CI artifact and opens in Perfetto with one track per entrant.
  {
    const model::Benchmark& bm = suite.front();
    bmc::EngineConfig engine;
    engine.max_depth = opts.get_int("depth", bm.suggested_bound);
    engine.total_time_limit_sec = budget;
    obs::TraceConfig tc;
    tc.buffer_events = 64 * 1024;
    obs::trace_begin(tc);
    obs::trace_set_thread_track("driver");
    const RaceResult traced = race(bm.net, 0, engine, policies);
    const obs::TraceDump dump = obs::trace_end();
    const bool trace_written =
        obs::write_chrome_trace_file("TRACE_race.json", dump);
    std::printf(
        "\ntraced race on %s: %llu events, %zu tracks, %llu dropped%s\n",
        bm.name.c_str(),
        static_cast<unsigned long long>(dump.total_events()),
        dump.tracks.size(),
        static_cast<unsigned long long>(dump.total_dropped()),
        trace_written ? " -> TRACE_race.json"
                      : " (could not write TRACE_race.json)");
    json.key("trace");
    json.begin_object();
    json.kv("model", bm.name);
    json.kv("file", "TRACE_race.json");
    json.kv("written", trace_written);
    json.kv("tracks", static_cast<std::uint64_t>(dump.tracks.size()));
    json.kv("events", dump.total_events());
    json.kv("dropped_events", dump.total_dropped());
    json.kv("cancel_latency_us", traced.cancel_latency_us);
    json.end_object();
    max_cancel_latency = std::max(max_cancel_latency,
                                  traced.cancel_latency_us);
  }

  // ---- (d) tape preprocessing: clause reduction and solve-time ratio ------
  // The PR 7 claim: BVE + subsumption over the encoded tape shrinks the
  // formula every scratch entrant replays, without changing any verdict.
  // Per model: formula size at the suggested bound with and without the
  // pass, plus a single-engine solve either way (same policy, same
  // budget) for the end-to-end ratio.
  std::uint64_t total_vars_eliminated = 0, total_clauses_subsumed = 0;
  std::uint64_t total_preprocess_us = 0;
  {
    std::printf("\ntape preprocessing (BVE + subsumption at the bound)\n");
    std::printf("%-26s %6s %9s %9s %7s %10s %10s %7s\n", "model", "depth",
                "clauses", "simpl", "red%", "plain(s)", "prep(s)", "ratio");
    json.key("preprocess");
    json.begin_array();
    for (const auto& bm : suite) {
      const int depth = opts.get_int("depth", bm.suggested_bound);

      bmc::PreprocessOptions po;
      po.enabled = true;
      bmc::SharedTape tape(bm.net, 0, {}, po);
      const std::uint64_t plain_clauses = tape.mark_at(depth).clauses;
      const std::uint64_t simpl_clauses = tape.simplified_clauses_at(depth);
      // The pass at the bound is every delta pass 0..depth.
      bmc::PreprocessStats ps;
      for (int f = 0; f <= depth; ++f) {
        const bmc::PreprocessStats d = tape.preprocess_stats_at(f);
        ps.vars_eliminated += d.vars_eliminated;
        ps.clauses_subsumed += d.clauses_subsumed;
        ps.lits_strengthened += d.lits_strengthened;
        ps.preprocess_us += d.preprocess_us;
      }
      // Reserve heuristic (PR 10): the same frames encoded into a bare
      // tape (geometric vector growth) vs through SharedTape's
      // netlist-derived per-frame reserve — the capacity overshoot the
      // estimate trades away.
      bmc::ClauseTape bare_tape;
      {
        bmc::FrameEncoder bare_enc(bm.net, bare_tape);
        bare_enc.encode_to(depth);
      }
      bmc::SharedTape reserved_tape(bm.net, 0, {});
      reserved_tape.mark_at(depth);
      const std::uint64_t tape_bytes_before = bare_tape.memory_bytes();
      const std::uint64_t tape_bytes_after = reserved_tape.memory_bytes();
      const double reduction =
          plain_clauses > 0
              ? 1.0 - static_cast<double>(simpl_clauses) /
                          static_cast<double>(plain_clauses)
              : 0.0;

      bmc::EngineConfig plain_cfg;
      plain_cfg.policy = bmc::OrderingPolicy::Dynamic;
      plain_cfg.max_depth = depth;
      plain_cfg.total_time_limit_sec = budget;
      bmc::EngineConfig prep_cfg = plain_cfg;
      prep_cfg.preprocess.enabled = true;

      Timer plain_timer;
      bmc::BmcEngine plain_engine(bm.net, plain_cfg);
      const bmc::BmcResult plain_result = plain_engine.run();
      const double plain_sec = plain_timer.elapsed_sec();
      Timer prep_timer;
      bmc::BmcEngine prep_engine(bm.net, prep_cfg);
      const bmc::BmcResult prep_result = prep_engine.run();
      const double prep_sec = prep_timer.elapsed_sec();
      const double solve_ratio = plain_sec > 0.0 ? prep_sec / plain_sec : 0.0;
      const bool verdicts_match = plain_result.status == prep_result.status;

      total_vars_eliminated += ps.vars_eliminated;
      total_clauses_subsumed += ps.clauses_subsumed;
      total_preprocess_us += ps.preprocess_us;
      std::printf("%-26s %6d %9llu %9llu %6.1f%% %10.3f %10.3f %7.2f%s\n",
                  bm.name.c_str(), depth,
                  static_cast<unsigned long long>(plain_clauses),
                  static_cast<unsigned long long>(simpl_clauses),
                  100.0 * reduction, plain_sec, prep_sec, solve_ratio,
                  verdicts_match ? "" : "  VERDICT MISMATCH");
      json.begin_object();
      json.kv("name", bm.name);
      json.kv("depth", depth);
      json.kv("clauses_plain", plain_clauses);
      json.kv("clauses_simplified", simpl_clauses);
      json.kv("clause_reduction", reduction);
      json.kv("vars_eliminated", ps.vars_eliminated);
      json.kv("clauses_subsumed", ps.clauses_subsumed);
      json.kv("lits_strengthened", ps.lits_strengthened);
      json.kv("preprocess_us", ps.preprocess_us);
      json.kv("tape_bytes_before", tape_bytes_before);
      json.kv("tape_bytes_after", tape_bytes_after);
      json.kv("plain_sec", plain_sec);
      json.kv("preprocess_sec", prep_sec);
      json.kv("solve_ratio_vs_plain", solve_ratio);
      json.kv("verdicts_match", verdicts_match);
      json.end_object();
    }
    json.end_array();
  }

  const double total_ratio = total_best > 0.0 ? total_race / total_best : 0.0;
  std::printf(
      "\nTOTAL best %.3fs, race %.3fs (ratio %.2f), sharing race %.3fs "
      "(%llu exported, %llu imported)\n",
      total_best, total_race, total_ratio, total_race_share,
      static_cast<unsigned long long>(total_exported),
      static_cast<unsigned long long>(total_imported));
  json.kv("total_best_sec", total_best);
  json.kv("total_race_sec", total_race);
  json.kv("total_ratio", total_ratio);
  json.kv("total_race_share_sec", total_race_share);
  json.kv("total_share_ratio_vs_plain",
          total_race > 0.0 ? total_race_share / total_race : 0.0);
  json.kv("total_clauses_exported", total_exported);
  json.kv("total_clauses_imported", total_imported);
  json.kv("max_cancel_latency_us", max_cancel_latency);
  json.kv("total_vars_eliminated", total_vars_eliminated);
  json.kv("total_clauses_subsumed", total_clauses_subsumed);
  json.kv("total_preprocess_us", total_preprocess_us);
  json.end_object();

  if (!json.write_file("BENCH_portfolio.json"))
    std::fprintf(stderr, "warning: could not write BENCH_portfolio.json\n");
  else
    std::printf("wrote BENCH_portfolio.json\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_portfolio: %s\n", e.what());
    return 2;
  }
}
