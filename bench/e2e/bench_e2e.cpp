// End-to-end BMC benchmark: time from AIGER text to verdict, measured
// from outside the engine on four seeded workloads.
//
//   $ ./bench_e2e --workload scratch|race|incremental|serve --seed N
//                 [--seconds S] [--trace FILE] [--self-test]
//                 [--dump-inputs DIR]
//
// Untraced (the default), it measures for about S seconds — whole rounds
// over the rows, or five plays of the serve schedule — and prints the
// end-to-end metrics, each the median over rounds (plays) of that round's
// value over all of its checks, with times scaled to the reference host
// speed by a gauge run beside them (measure.hpp, gauge_ms).  With --trace
// FILE it runs one untraced round (play), then the same again with spans
// kept in memory, prints the per-layer metrics of the traced one plus
// bench.trace_overhead_frac, and writes the spans to FILE as Chrome
// trace JSON (bench/e2e/check_trace.py validates it).
//
// Every metric is printed as `name value unit` and written, with the
// input identity, to BENCH_e2e_<workload>.json in the working
// directory.  Every verdict is checked against the generator's
// expectation and every counterexample replayed; any mismatch is
// counted in failed_frac and makes the exit code 1.  --self-test flips
// one row's expectation, so a correct engine must fail the gate.
#include <cstdio>
#include <exception>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "closed_loop.hpp"
#include "inputs.hpp"
#include "measure.hpp"
#include "serve.hpp"
#include "spans.hpp"
#include "util/options.hpp"

namespace {

using namespace e2e;

/// Set-up runs this many times on each CPU the process may use.
constexpr int kSetupRepsPerCpu = 5;

struct Args {
  Workload workload = Workload::Scratch;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  std::string trace_file;
  std::string dump_dir;
  bool self_test = false;
};

Args parse_args(int argc, char** argv) {
  const refbmc::Options opts = refbmc::Options::parse(argc, argv);
  Args a;
  const auto w = parse_workload(opts.get("workload"));
  if (!w)
    throw std::invalid_argument(
        "--workload must be scratch, race, incremental or serve");
  a.workload = *w;
  const int seed = opts.get_int("seed", -1);
  if (seed < 0) throw std::invalid_argument("--seed must be an integer >= 0");
  a.seed = static_cast<std::uint64_t>(seed);
  a.seconds = opts.get_double("seconds", 10.0);
  if (!(a.seconds > 0.0 && a.seconds <= 600.0))
    throw std::invalid_argument("--seconds must be in (0, 600]");
  a.trace_file = opts.get("trace");
  a.dump_dir = opts.get("dump-inputs");
  a.self_test = opts.get_bool("self-test", false);
  if (!opts.positionals().empty())
    throw std::invalid_argument("unexpected argument '" +
                                opts.positionals()[0] + "'");
  return a;
}

struct Outcome {
  MetricSheet metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failures = 0;
  std::uint64_t inputs_fnv64 = 0;
};

/// Runs `setup` kSetupRepsPerCpu times on each CPU (see CpuRotation), each
/// run right after a gauge sample on the same CPU, and returns in seconds
/// the median over all runs of the run's time at the reference host
/// speed (see Gauge).  Every run must produce the same input hash.
template <typename Setup>
double timed_setup(Setup&& setup, std::uint64_t& fnv) {
  CpuRotation cpus(1);
  std::vector<double> secs;
  for (std::size_t c = 0; c < cpus.windows(); ++c) {
    cpus.select(c);
    for (int i = 0; i < kSetupRepsPerCpu; ++i) {
      const double slowdown = gauge_ms() / kGaugeReferenceMs;
      const Clock::time_point t0 = Clock::now();
      const std::uint64_t h = setup();
      secs.push_back(
          std::chrono::duration<double>(Clock::now() - t0).count() /
          slowdown);
      if (secs.size() > 1 && h != fnv)
        throw std::runtime_error("input generation is not deterministic");
      fnv = h;
    }
  }
  return median(secs);
}

Outcome run_closed(const Args& a) {
  Outcome out;
  std::vector<Row> rows;
  const double setup_s = timed_setup(
      [&] {
        rows = closed_loop_rows(a.workload, a.seed);
        Fnv64 h;
        for (const Row& r : rows) h.row(r);
        return h.value();
      },
      out.inputs_fnv64);
  if (a.self_test) rows.front().expect_fail = !rows.front().expect_fail;
  if (!a.dump_dir.empty()) {
    const char* flags = a.workload == Workload::Race
                            ? "--policies static,dynamic,evsids"
                        : a.workload == Workload::Incremental
                            ? "--policy dynamic --incremental"
                            : "--policy dynamic";
    dump_rows(a.dump_dir, rows, flags, a.workload, a.seed, out.inputs_fnv64);
  }

  if (a.trace_file.empty()) {
    const ClosedPass pass = run_closed_pass(
        a.workload, rows, a.seconds, std::numeric_limits<int>::max(),
        nullptr);
    out.metrics.add("setup_s", setup_s, "s");
    report_closed_end_to_end(out.metrics, a.workload, rows.size(), pass);
    out.attempted = pass.checks;
    out.failures = pass.failures;
    return out;
  }
  const ClosedPass plain =
      run_closed_pass(a.workload, rows, a.seconds, 1, nullptr);
  SpanLog log(Clock::now());
  const ClosedPass traced =
      run_closed_pass(a.workload, rows, a.seconds, 1, &log);
  report_closed_per_layer(out.metrics, a.workload, traced);
  out.metrics.add("bench.trace_overhead_frac",
                  ratio(traced.latency_sum_ms, plain.latency_sum_ms) - 1.0,
                  "frac");
  if (!log.write_chrome(a.trace_file, to_string(a.workload)))
    throw std::runtime_error("cannot write " + a.trace_file);
  out.attempted = plain.checks + traced.checks;
  out.failures = plain.failures + traced.failures;
  return out;
}

Outcome run_serve(const Args& a) {
  Outcome out;
  serve::Inputs in;
  const std::string sock = serve::socket_path();
  std::unique_ptr<serve::Stack> stack;
  const double setup_s = timed_setup(
      [&] {
        stack.reset();
        in = serve::make_inputs(a.seed, a.seconds);
        stack = std::make_unique<serve::Stack>(sock);
        return in.fnv64;
      },
      out.inputs_fnv64);
  stack.reset();
  if (a.self_test) in.rows.front().expect_fail = !in.rows.front().expect_fail;
  if (!a.dump_dir.empty())
    dump_rows(a.dump_dir, in.rows, "--policy dynamic", a.workload, a.seed,
              out.inputs_fnv64);

  // Every play starts a fresh stack — empty cache, so its fresh rows miss
  // again — on the next window of CPUs; its peak resident set covers the
  // stack's whole life.
  CpuRotation cpus(serve::kCpus);
  std::size_t plays = 0;
  const auto play = [&] {
    stack.reset();
    cpus.select(plays++);
    reset_peak_rss();
    stack = std::make_unique<serve::Stack>(sock);
    serve::Rep rep = serve::run_rep(*stack, in);
    rep.peak_rss_mb = peak_rss_mb();
    return rep;
  };
  serve::Verdicts verdicts;
  if (a.trace_file.empty()) {
    std::vector<serve::Rep> reps;
    for (int r = 0; r < serve::kReps; ++r) reps.push_back(play());
    for (const serve::Rep& r : reps) serve::judge_rep(in, r, verdicts);
    out.metrics.add("setup_s", setup_s, "s");
    serve::report_serve_end_to_end(out.metrics, in, reps);
  } else {
    const serve::Rep plain = play();
    serve::judge_rep(in, plain, verdicts);
    SpanLog log(Clock::now());
    const serve::Rep traced = play();
    serve::emit_serve_spans(log, traced);
    serve::Verdicts traced_verdicts;
    serve::judge_rep(in, traced, traced_verdicts);
    serve::report_serve_per_layer(out.metrics, *stack, in, traced,
                                  traced_verdicts);
    const auto sum = [](const std::vector<double>& v) {
      double s = 0.0;
      for (const double x : v) s += x;
      return s;
    };
    out.metrics.add("bench.trace_overhead_frac",
                    ratio(sum(serve::latencies(traced)),
                          sum(serve::latencies(plain))) -
                        1.0,
                    "frac");
    if (!log.write_chrome(a.trace_file, to_string(a.workload)))
      throw std::runtime_error("cannot write " + a.trace_file);
    verdicts.attempted += traced_verdicts.attempted;
    verdicts.failures += traced_verdicts.failures;
  }
  out.attempted = verdicts.attempted;
  out.failures = verdicts.failures;
  return out;
}

int run(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  Outcome out =
      a.workload == Workload::Serve ? run_serve(a) : run_closed(a);
  const double failed_frac = ratio(static_cast<double>(out.failures),
                                   static_cast<double>(out.attempted));
  out.metrics.add("failed_frac", failed_frac, "frac");
  // The same as a share that is never 0 on a good run, for BENCHMARK.json.
  out.metrics.add("correct_frac", 1.0 - failed_frac, "frac");
  out.metrics.add("checks_attempted", static_cast<double>(out.attempted),
                  "count");
  out.metrics.add("checks_failed", static_cast<double>(out.failures), "count");

  std::printf("workload %s seed %llu\n", to_string(a.workload),
              static_cast<unsigned long long>(a.seed));
  std::printf("inputs.fnv64 %s hash\n", hex64(out.inputs_fnv64).c_str());
  out.metrics.print();

  refbmc::JsonWriter json;
  json.begin_object();
  json.kv("bench", "e2e");
  json.kv("workload", to_string(a.workload));
  json.kv("seed", a.seed);
  json.kv("seconds", a.seconds);
  json.kv("traced", !a.trace_file.empty());
  json.kv("inputs_fnv64", hex64(out.inputs_fnv64));
  json.key("metrics");
  out.metrics.write_json(json);
  json.end_object();
  const std::string file =
      std::string("BENCH_e2e_") + to_string(a.workload) + ".json";
  if (!json.write_file(file))
    std::fprintf(stderr, "bench_e2e: could not write %s\n", file.c_str());
  return out.failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 2;
  }
}
