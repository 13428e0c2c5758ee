// Formula-state footprint record (BENCH_memory.json) — the space half of
// the bench trajectory, companion to bench_micro's throughput record.
//
// Two sections:
//   * pauses    — the arena's chunk-allocation and GC pause histograms
//                 from a metrics-enabled end-to-end run (the chunked
//                 arena's "no multi-ms realloc stall" claim, measured);
//   * process   — peak RSS (VmHWM) and a two-entrant race tracker's own
//                 peak.
#include <cstdio>
#include <cstring>
#include <vector>

#include "harness.hpp"
#include "model/benchgen.hpp"
#include "obs/metrics.hpp"
#include "portfolio/scheduler.hpp"

namespace {

using namespace refbmc;
using benchharness::JsonWriter;

/// Peak resident set of this process in kilobytes (/proc/self/status
/// VmHWM), or 0 where procfs is unavailable.
std::uint64_t vm_hwm_kb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  std::uint64_t kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtoull(line + 6, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return kb;
}

void write_histogram(JsonWriter& w, const char* name) {
  const obs::Histogram& h = obs::metrics().histogram(name);
  w.key(name);
  w.begin_object();
  w.kv("count", h.count());
  w.kv("mean_us", h.mean());
  w.kv("max_us", h.max());
  w.kv("p50_us", h.percentile(0.50));
  w.kv("p90_us", h.percentile(0.90));
  w.kv("p99_us", h.percentile(0.99));
  w.end_object();
}

int run() {
  JsonWriter w;
  w.begin_object();
  w.kv("bench", "memory");

  // ---- arena pause histograms -------------------------------------------
  // A metrics-enabled end-to-end run over a grinding UNSAT instance: the
  // solver allocates chunks as the formula grows and GCs learnt clauses
  // at reductions, so both histograms get real observations.  The claim
  // under watch: chunked growth never relocates, so no allocation pause
  // scales with the arena size.
  {
    obs::metrics_enable(true);
    obs::metrics().reset();
    const model::Benchmark bm = model::needle(6, 6, 40, 50);
    bmc::EngineConfig cfg;
    cfg.max_depth = bm.suggested_bound;
    bmc::BmcEngine(bm.net, cfg).run();
    obs::metrics_enable(false);

    w.key("pauses");
    w.begin_object();
    write_histogram(w, "arena.chunk_alloc_us");
    write_histogram(w, "arena.gc_pause_us");
    w.end_object();
  }

  // ---- race footprint ---------------------------------------------------
  // The race-wide tracker's high-water mark (tape, both entrants' arenas
  // and watcher heaps, the lemma pool) on the same grinding instance.
  std::uint64_t race_peak_mem = 0;
  {
    const model::Benchmark bm = model::needle(6, 6, 40, 50);
    bmc::EngineConfig cfg;
    cfg.max_depth = bm.suggested_bound;
    race_peak_mem =
        portfolio::race(bm.net, 0, cfg,
                        {bmc::OrderingPolicy::Static,
                         bmc::OrderingPolicy::Evsids})
            .peak_mem_bytes;
  }

  // ---- process footprint -------------------------------------------------
  w.key("process");
  w.begin_object();
  w.kv("vm_hwm_kb", vm_hwm_kb());
  w.kv("race_peak_mem_bytes", race_peak_mem);
  w.end_object();

  w.end_object();

  if (!w.write_file("BENCH_memory.json")) {
    std::fprintf(stderr, "bench_memory: cannot write BENCH_memory.json\n");
    return 1;
  }
  std::printf("bench_memory: wrote BENCH_memory.json\n");
  return 0;
}

}  // namespace

int main() { return run(); }
