// Tiny command-line option parser for examples and benches, plus the
// CLI-level portfolio configuration shared by the portfolio example,
// bench and tests.
//
// Supports `--name value`, `--name=value` and boolean flags `--name`.
// Unrecognized arguments are collected as positionals.
#pragma once

#include <map>
#include <string>
#include <vector>

namespace refbmc {

class Options {
 public:
  Options() = default;

  /// Parses argv; throws std::invalid_argument on malformed input
  /// (e.g. trailing `--name` where a value was required via has()).
  static Options parse(int argc, const char* const* argv);

  bool has(const std::string& name) const;
  std::string get(const std::string& name, const std::string& def = "") const;
  int get_int(const std::string& name, int def) const;
  double get_double(const std::string& name, double def) const;
  bool get_bool(const std::string& name, bool def) const;

  const std::vector<std::string>& positionals() const { return positionals_; }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positionals_;
};

/// Splits a comma-separated list, dropping empty items ("a,,b" → {a, b}).
std::vector<std::string> split_csv(const std::string& csv);

/// Portfolio scheduler knobs at the CLI level.  Policies are kept as
/// names (util cannot depend on bmc); the portfolio layer resolves them
/// to OrderingPolicy values and rejects unknown names there.
struct PortfolioConfig {
  std::vector<std::string> policies{"baseline", "static", "dynamic",
                                    "shtrichman", "evsids"};
  int max_depth = 20;
  double budget_sec = -1.0;  // wall-clock budget per race (<=0: none)
  bool incremental = false;  // per-entrant incremental SAT mode
  bool simplify = true;      // frame-wise formula simplification
  /// Solver-core knobs; the portfolio layer validates them.  The
  /// decision scorer follows the ordering policy.
  int glue_lbd = 2;   // learned clauses at or below this LBD never deleted
  int tier_lbd = 6;   // mid-tier LBD boundary of reduceDB
  /// Portfolio lemma sharing (clause exchange between racing solvers on
  /// the same formula).  `--share off` restores fully independent
  /// solvers, bit for bit.
  bool share = true;       // --share on|off
  int share_lbd = 4;       // export learnts with lbd <= this ...
  int share_size = 2;      // ... or size <= this
  int share_cap = 4096;    // pool ring capacity, in clauses
  /// Tape preprocessing (PR 7): bounded variable elimination, subsumption
  /// and self-subsuming resolution over the encoded formula, run once per
  /// depth race-wide.  `--preprocess off` restores the unsimplified
  /// pipeline bit for bit.
  bool preprocess = true;   // --preprocess on|off
  int bve_budget = 16;      // --bve-budget: max occurrences of an elim var
  /// Core-score weighting of §3.2 (the ablation knob), as a name (util
  /// cannot depend on bmc; the portfolio layer resolves and validates):
  /// linear | uniform | last-only | exp-decay.
  std::string core_weighting = "linear";  // --core-weighting
  /// Formula-state memory ceiling in MiB (0 = unlimited).  Bounds the
  /// tracked footprint — clause arenas, watcher heaps, the shared tape
  /// and the lemma pool, summed race-wide — and turns a breach into a
  /// clean ResourceLimit verdict at the next solver checkpoint.
  /// Accounting runs either way, so 0 is bit-identical to no ceiling.
  int mem_ceiling_mb = 0;  // --mem-ceiling MB
  /// Observability (src/obs): `--trace FILE` records a race-wide event
  /// trace and writes it as Chrome trace-event JSON (open in Perfetto or
  /// chrome://tracing; one track per racing solver); `--metrics FILE`
  /// enables the counter/histogram registry and writes it as flat JSON.
  /// Empty (the default) = off, one predicted branch per site.
  std::string trace_file;     // --trace FILE ("" = tracing off)
  int trace_buffer_kb = 256;  // --trace-buffer-kb: per-thread ring size
  std::string metrics_file;   // --metrics FILE ("" = metrics off)

  /// Reads `--policies a,b,c`, `--depth`, `--budget`, `--incremental`,
  /// `--simplify 0|1`, `--glue-lbd`, `--tier-lbd`, `--share 0|1`,
  /// `--share-lbd`, `--share-size`, `--share-cap`, `--core-weighting W`,
  /// `--preprocess 0|1`, `--bve-budget N`, `--mem-ceiling MB`,
  /// `--trace FILE`, `--trace-buffer-kb KB`, `--metrics FILE`; absent
  /// options keep the defaults above.  Unknown options are ignored,
  /// among them the retired `--threads`, `--seed`, `--share-rank`,
  /// `--decision` and `--assumption-savepoint`.  Throws
  /// std::invalid_argument on non-numeric numbers and on what validate()
  /// rejects.
  static PortfolioConfig from_options(const Options& opts);

  /// The range checks every entry point shares (from_options and
  /// portfolio::resolve, hence api::check and JobServer::submit too).
  /// Throws std::invalid_argument on an empty policy list, depth < 0,
  /// tier-lbd below glue-lbd, negative share filters,
  /// share-cap < 1, bve-budget < 1, mem-ceiling < 0 or
  /// trace-buffer-kb < 1.
  void validate() const;
};

}  // namespace refbmc
