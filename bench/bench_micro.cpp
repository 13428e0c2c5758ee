// Micro-benchmarks (google-benchmark) for the substrate components:
// BCP throughput, end-to-end solving, CNF generation, tape replay and
// preprocessing, core extraction, and the decision heap.
//
// `bench_micro --quick` skips the google-benchmark suite and instead
// runs the benchgen quick suite end to end, writing BENCH_solver.json
// (per-row and total propagations/sec, decisions, conflicts, and the
// propagator hot-path counters) — the solver-core throughput record CI
// uploads with the other BENCH artifacts.  `--full` does the same over
// the 37-row standard suite.
#include <benchmark/benchmark.h>

#include <cstring>
#include <string>

#include "bmc/encoder.hpp"
#include "bmc/ranking.hpp"
#include "bmc/tape.hpp"
#include "harness.hpp"
#include "model/benchgen.hpp"
#include "obs/trace.hpp"
#include "sat/solver.hpp"
#include "util/heap.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using namespace refbmc;

sat::Cnf pigeonhole(int pigeons, int holes) {
  sat::Cnf cnf;
  cnf.num_vars = pigeons * holes;
  for (int p = 0; p < pigeons; ++p) {
    std::vector<sat::Lit> clause;
    for (int h = 0; h < holes; ++h)
      clause.push_back(sat::Lit::make(p * holes + h));
    cnf.add_clause(clause);
  }
  for (int h = 0; h < holes; ++h)
    for (int p1 = 0; p1 < pigeons; ++p1)
      for (int p2 = p1 + 1; p2 < pigeons; ++p2)
        cnf.add_clause({sat::Lit::make(p1 * holes + h, true),
                        sat::Lit::make(p2 * holes + h, true)});
  return cnf;
}

void BM_BcpChain(benchmark::State& state) {
  // A long implication chain: one unit + N binary clauses; solving is
  // pure BCP, so this measures propagation throughput — since the chain
  // is all binary clauses, specifically the inlined-binary-watch path.
  const int n = static_cast<int>(state.range(0));
  std::uint64_t props = 0;
  std::uint64_t bin_props = 0;
  for (auto _ : state) {
    state.PauseTiming();
    sat::Solver s;
    for (int i = 0; i < n; ++i) s.new_var();
    for (int i = 0; i + 1 < n; ++i)
      s.add_clause({sat::Lit::make(i, true), sat::Lit::make(i + 1)});
    state.ResumeTiming();
    s.add_clause({sat::Lit::make(0)});  // triggers the full chain
    benchmark::DoNotOptimize(s.solve());
    props += s.stats().propagations;
    bin_props += s.stats().binary_propagations;
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.counters["props_per_sec"] = benchmark::Counter(
      static_cast<double>(props), benchmark::Counter::kIsRate);
  state.counters["binary_share"] =
      props > 0 ? static_cast<double>(bin_props) / static_cast<double>(props)
                : 0.0;
}
BENCHMARK(BM_BcpChain)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_BcpLongClauses(benchmark::State& state) {
  // Chains built from ternary clauses with one always-false guard: every
  // propagation walks the long-clause watch path, so together with
  // BM_BcpChain this separates the binary-inline win from the
  // blocking-literal win.
  const int n = static_cast<int>(state.range(0));
  std::uint64_t props = 0;
  for (auto _ : state) {
    state.PauseTiming();
    sat::Solver s;
    for (int i = 0; i < n + 1; ++i) s.new_var();
    const sat::Lit guard = sat::Lit::make(n);  // forced false below
    for (int i = 0; i + 1 < n; ++i)
      s.add_clause({sat::Lit::make(i, true), sat::Lit::make(i + 1), guard});
    s.add_clause({~guard});
    state.ResumeTiming();
    s.add_clause({sat::Lit::make(0)});
    benchmark::DoNotOptimize(s.solve());
    props += s.stats().propagations;
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.counters["props_per_sec"] = benchmark::Counter(
      static_cast<double>(props), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BcpLongClauses)->Arg(1000)->Arg(10000);

void BM_SolvePigeonhole(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const sat::Cnf cnf = pigeonhole(n + 1, n);
  for (auto _ : state) {
    sat::Solver s;
    for (int v = 0; v < cnf.num_vars; ++v) s.new_var();
    for (const auto& c : cnf.clauses) s.add_clause(c);
    benchmark::DoNotOptimize(s.solve());
  }
}
BENCHMARK(BM_SolvePigeonhole)->Arg(6)->Arg(7)->Arg(8);

void BM_SolveWithCdg(benchmark::State& state) {
  // CDG on/off on the same formula — the §3.1 overhead at solver level.
  const sat::Cnf cnf = pigeonhole(8, 7);
  const bool track = state.range(0) != 0;
  for (auto _ : state) {
    sat::SolverConfig cfg;
    cfg.track_cdg = track;
    sat::Solver s(cfg);
    for (int v = 0; v < cnf.num_vars; ++v) s.new_var();
    for (const auto& c : cnf.clauses) s.add_clause(c);
    benchmark::DoNotOptimize(s.solve());
  }
}
BENCHMARK(BM_SolveWithCdg)->Arg(0)->Arg(1);

void BM_SolveTraceGate(benchmark::State& state) {
  // The obs layer's "near-zero cost when off" claim, head to head: the
  // same solve with no trace session (every instrumentation site is one
  // predicted branch) and with one recording (ring writes at restarts /
  // level-0 boundaries).  Arg 0 = off, Arg 1 = on.
  const sat::Cnf cnf = pigeonhole(7, 6);
  const bool traced = state.range(0) != 0;
  if (traced) {
    obs::TraceConfig tc;
    tc.buffer_events = 1 << 16;
    obs::trace_begin(tc);
  }
  for (auto _ : state) {
    sat::Solver s;
    for (int v = 0; v < cnf.num_vars; ++v) s.new_var();
    for (const auto& c : cnf.clauses) s.add_clause(c);
    benchmark::DoNotOptimize(s.solve());
  }
  if (traced) obs::trace_end();
}
BENCHMARK(BM_SolveTraceGate)->Arg(0)->Arg(1);

void BM_CoreExtraction(benchmark::State& state) {
  const sat::Cnf cnf = pigeonhole(8, 7);
  sat::Solver s;
  for (int v = 0; v < cnf.num_vars; ++v) s.new_var();
  for (const auto& c : cnf.clauses) s.add_clause(c);
  if (s.solve() != sat::Result::Unsat) state.SkipWithError("not unsat");
  for (auto _ : state) benchmark::DoNotOptimize(s.unsat_core_vars());
}
BENCHMARK(BM_CoreExtraction);

void BM_EncodeInstance(benchmark::State& state) {
  // Full Eq. 1 encoding at a given depth, with the simplification layer
  // on or off (second arg).
  const auto bm = model::with_distractor(model::fifo_safe(5), 32, 1);
  const int depth = static_cast<int>(state.range(0));
  bmc::EncoderOptions opts;
  opts.simplify = state.range(1) != 0;
  for (auto _ : state)
    benchmark::DoNotOptimize(bmc::encode_full(bm.net, 0, depth, opts));
  const auto inst = bmc::encode_full(bm.net, 0, depth, opts);
  state.counters["cnf_vars"] = static_cast<double>(inst.num_vars());
  state.counters["cnf_clauses"] = static_cast<double>(inst.num_clauses());
}
BENCHMARK(BM_EncodeInstance)
    ->Args({10, 0})
    ->Args({10, 1})
    ->Args({20, 0})
    ->Args({20, 1})
    ->Args({40, 0})
    ->Args({40, 1});

void BM_TapeReplay(benchmark::State& state) {
  // Feeding a fresh solver by replaying the shared tape — the per-depth
  // setup cost of scratch sessions and race entrants (encode-once: the
  // encoding itself happened exactly once, outside the loop).
  const auto bm = model::with_distractor(model::fifo_safe(5), 32, 1);
  const int depth = static_cast<int>(state.range(0));
  bmc::SharedTape tape(bm.net, 0);
  tape.ensure_depth(depth);
  for (auto _ : state) {
    sat::Solver solver;
    std::vector<bmc::VarOrigin> origin;
    bmc::SolverSink sink(solver, origin);
    bmc::ClauseTape::Cursor cursor;
    tape.replay_to(depth, cursor, sink);
    benchmark::DoNotOptimize(solver.num_vars());
  }
}
BENCHMARK(BM_TapeReplay)->Arg(10)->Arg(20)->Arg(40);

void BM_TapePreprocess(benchmark::State& state) {
  // The once-per-depth CNF pass in front of the solver (tape scan into
  // the workspace, simplification, cache store) on BM_TapeReplay's
  // model.  Each iteration takes a fresh SharedTape, so the pass really
  // runs instead of hitting the per-depth cache; encoding the frames is
  // outside the timed region.
  const auto bm = model::with_distractor(model::fifo_safe(5), 32, 1);
  const int depth = static_cast<int>(state.range(0));
  bmc::PreprocessOptions po;
  po.enabled = true;
  for (auto _ : state) {
    state.PauseTiming();
    bmc::SharedTape tape(bm.net, 0, {}, po);
    tape.ensure_depth(depth);
    state.ResumeTiming();
    benchmark::DoNotOptimize(tape.simplified_clauses_at(depth));
  }
}
BENCHMARK(BM_TapePreprocess)->Arg(10)->Arg(20)->Arg(40);

void BM_RankingProject(benchmark::State& state) {
  const auto bm = model::with_distractor(model::fifo_safe(5), 32, 1);
  const auto inst = bmc::encode_full(bm.net, 0, 20);
  bmc::CoreRanking ranking;
  std::vector<sat::Var> fake_core;
  for (std::size_t v = 1; v < inst.num_vars(); v += 3)
    fake_core.push_back(static_cast<sat::Var>(v));
  ranking.update(inst, fake_core, 5);
  for (auto _ : state) benchmark::DoNotOptimize(ranking.project(inst));
}
BENCHMARK(BM_RankingProject);

void BM_HeapChurn(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<double> score(static_cast<std::size_t>(n));
  Rng rng(7);
  for (auto& x : score) x = rng.next_double();
  const auto gt = [&score](int a, int b) {
    return score[static_cast<std::size_t>(a)] >
           score[static_cast<std::size_t>(b)];
  };
  for (auto _ : state) {
    IndexedMaxHeap<decltype(gt)> heap(gt);
    for (int i = 0; i < n; ++i) heap.insert(i);
    // Interleaved pops and re-inserts, like decide/backtrack churn.
    for (int i = 0; i < n / 2; ++i) {
      const int v = heap.pop();
      score[static_cast<std::size_t>(v)] = rng.next_double();
      heap.insert(v);
    }
    while (!heap.empty()) benchmark::DoNotOptimize(heap.pop());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_HeapChurn)->Arg(1000)->Arg(10000);

// ---- solver-core throughput record (BENCH_solver.json) -------------------

int run_solver_suite(bool full) {
  using benchharness::JsonWriter;
  const std::vector<model::Benchmark> suite =
      full ? model::standard_suite() : model::quick_suite();

  JsonWriter w;
  w.begin_object();
  w.kv("bench", "solver");
  w.kv("suite", full ? "standard" : "quick");
  w.key("rows");
  w.begin_array();

  std::uint64_t tot_decisions = 0, tot_props = 0, tot_bin = 0, tot_skips = 0,
                tot_conflicts = 0;
  double tot_solve_time = 0.0;
  for (const auto& bm : suite) {
    bmc::EngineConfig cfg;
    cfg.policy = bmc::OrderingPolicy::Baseline;  // pure solver throughput
    cfg.max_depth = bm.suggested_bound;
    bmc::BmcEngine engine(bm.net, cfg);
    const bmc::BmcResult result = engine.run();

    w.begin_object();
    w.kv("name", bm.name);
    w.kv("status", result.status == bmc::BmcResult::Status::CounterexampleFound
                       ? "cex"
                       : "bound");
    w.kv("last_depth", result.last_completed_depth);
    benchharness::write_solver_core_totals(w, result);
    w.end_object();

    tot_decisions += result.total_decisions();
    tot_props += result.total_propagations();
    tot_conflicts += result.total_conflicts();
    for (const auto& d : result.per_depth) {
      tot_bin += d.binary_propagations;
      tot_skips += d.blocker_skips;
      tot_solve_time += d.time_sec;
    }
  }
  w.end_array();

  w.key("totals");
  w.begin_object();
  w.kv("decisions", tot_decisions);
  w.kv("propagations", tot_props);
  w.kv("binary_propagations", tot_bin);
  w.kv("blocker_skips", tot_skips);
  w.kv("conflicts", tot_conflicts);
  w.kv("solve_time_sec", tot_solve_time);
  w.kv("props_per_sec", tot_solve_time > 0.0
                            ? static_cast<double>(tot_props) / tot_solve_time
                            : 0.0);
  w.end_object();

  // ---- trace-gate overhead record ----------------------------------------
  // Solves the same UNSAT formula back to back without a trace session
  // and with one recording, so the trajectory tooling can watch the
  // disabled-path cost (the ratio should sit within noise of 1.0 — the
  // off state is one predicted branch per instrumentation site).
  {
    const sat::Cnf cnf = pigeonhole(8, 7);
    const auto solve_once = [&cnf] {
      sat::Solver s;
      for (int v = 0; v < cnf.num_vars; ++v) s.new_var();
      for (const auto& c : cnf.clauses) s.add_clause(c);
      return s.solve();
    };
    const int reps = 3;
    solve_once();  // warm-up (allocator, caches)
    Timer off_timer;
    for (int r = 0; r < reps; ++r) solve_once();
    const double off_sec = off_timer.elapsed_sec();
    obs::TraceConfig tc;
    tc.buffer_events = 1 << 16;
    obs::trace_begin(tc);
    Timer on_timer;
    for (int r = 0; r < reps; ++r) solve_once();
    const double on_sec = on_timer.elapsed_sec();
    const obs::TraceDump dump = obs::trace_end();
    w.key("trace_overhead");
    w.begin_object();
    w.kv("reps", reps);
    w.kv("trace_off_sec", off_sec);
    w.kv("trace_on_sec", on_sec);
    w.kv("trace_on_ratio", off_sec > 0.0 ? on_sec / off_sec : 0.0);
    w.kv("events_recorded", dump.total_events());
    w.end_object();
  }
  w.end_object();

  if (!w.write_file("BENCH_solver.json")) {
    std::fprintf(stderr, "bench_micro: cannot write BENCH_solver.json\n");
    return 1;
  }
  std::printf("bench_micro: wrote BENCH_solver.json (%zu rows, %.2fM props/s)\n",
              suite.size(),
              tot_solve_time > 0.0
                  ? static_cast<double>(tot_props) / tot_solve_time / 1e6
                  : 0.0);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // `--quick` / `--full` run the suite pass instead of google-benchmark
  // (CI's BENCH_solver.json step); all other flags go to the library.
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) return run_solver_suite(false);
    if (std::strcmp(argv[i], "--full") == 0) return run_solver_suite(true);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
