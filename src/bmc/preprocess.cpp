#include "bmc/preprocess.hpp"

#include <algorithm>
#include <cstddef>

#include "util/assert.hpp"

namespace refbmc::bmc {

using sat::l_False;
using sat::l_True;
using sat::l_Undef;
using sat::lbool;
using sat::Lit;
using sat::Var;

// ---- VarRemapper ---------------------------------------------------------

void VarRemapper::grow(int num_vars) {
  REFBMC_EXPECTS(num_vars >= this->num_vars());
  kept_.resize(static_cast<std::size_t>(num_vars), 1);
}

void VarRemapper::eliminate(Lit lit, std::size_t num_witness, int depth) {
  const auto v = static_cast<std::size_t>(lit.var());
  REFBMC_ASSERT(kept_[v] != 0);
  kept_[v] = 0;
  Witness w;
  w.lit = lit;
  w.first = witnesses_.empty() ? 0 : witnesses_.back().last;
  w.last = static_cast<std::uint32_t>(clauses_.size());
  REFBMC_ASSERT(w.first + num_witness <= w.last);
  w.mid = w.first + static_cast<std::uint32_t>(num_witness);
  w.eliminated_at = depth;
  witnesses_.push_back(w);
  ++live_;
}

void VarRemapper::append(const VarRemapper& pass, int depth) {
  REFBMC_EXPECTS(pass.num_vars() <= num_vars());
  for (const Witness& w : pass.witnesses_) {
    clauses_.append(pass.clauses_, w.first, w.last);
    eliminate(w.lit, w.mid - w.first, depth);
  }
}

const VarRemapper::Witness& VarRemapper::resurrect(Var v, int depth) {
  REFBMC_EXPECTS(kept_[static_cast<std::size_t>(v)] == 0);
  kept_[static_cast<std::size_t>(v)] = 1;
  // Newest-first scan: resurrections chase references out of fresh
  // deltas, which overwhelmingly hit recent eliminations.  A variable
  // has at most one entry (resurrected variables belong to earlier
  // depths, which later passes freeze).
  for (auto it = witnesses_.rbegin(); it != witnesses_.rend(); ++it) {
    if (it->lit.var() != v || it->resurrected_at != kLive) continue;
    it->resurrected_at = depth;
    --live_;
    return *it;
  }
  REFBMC_ASSERT_MSG(false, "eliminated variable has no witness");
  return witnesses_.front();
}

VarRemapper VarRemapper::as_of(int depth, int num_vars) const {
  REFBMC_EXPECTS(num_vars <= this->num_vars());
  VarRemapper view(num_vars);
  for (const Witness& w : witnesses_) {
    if (!w.live_at(depth)) continue;
    REFBMC_ASSERT(w.lit.var() < num_vars);
    view.clauses_.append(clauses_, w.first, w.last);
    view.eliminate(w.lit, w.mid - w.first, w.eliminated_at);
  }
  return view;
}

void VarRemapper::complete_model(std::vector<lbool>& values) const {
  REFBMC_EXPECTS(values.size() >= kept_.size());
  for (auto it = witnesses_.rbegin(); it != witnesses_.rend(); ++it) {
    if (it->resurrected_at != kLive) continue;
    const auto v = static_cast<std::size_t>(it->lit.var());
    // Default: falsify the eliminated literal — this satisfies every
    // removed clause of the opposite polarity (BVE's N side; a pure
    // literal has none).
    values[v] = it->lit.negated() ? l_True : l_False;
    for (std::uint32_t c = it->first; c < it->mid; ++c) {
      bool satisfied = false;
      for (const Lit l : clauses_[c]) {
        if (l.var() == it->lit.var()) continue;
        const lbool val = values[static_cast<std::size_t>(l.var())];
        REFBMC_ASSERT(val != l_Undef);
        if ((val ^ l.negated()) == l_True) {
          satisfied = true;
          break;
        }
      }
      if (!satisfied) {
        // Flip: every witness clause contains the literal, so the flip
        // satisfies all of them at once.  The removed opposite-polarity
        // clauses stay satisfied by the resolvent argument (their
        // resolvents against this clause are in the simplified formula
        // and hold under `values`).
        values[v] = it->lit.negated() ? l_False : l_True;
        break;
      }
    }
  }
}

// ---- the pass ------------------------------------------------------------

/// Pass state that outlives a run for its capacity.  Clauses live in one
/// literal arena; a header records each clause's slice, signature and
/// touched-set stamp.  Strengthening shrinks a slice in place.
struct PreprocessWorkspace::State {
  struct Clause {
    std::uint32_t start = 0;  // arena offset
    std::uint32_t size = 0;   // sorted, var-unique literals
    std::uint64_t sig = 0;
    std::uint32_t stamp = 0;  // epoch of the last add / strengthen
    bool alive = true;
  };

  std::vector<Lit> arena;
  std::vector<Clause> cls;
  /// By Lit::index(): clause indices in ascending order, lazily
  /// pruned — dead clauses and clauses strengthened away from the
  /// literal are skipped on every walk and dropped by for_occ.
  std::vector<std::vector<std::uint32_t>> occ;
  std::vector<std::int32_t> occ_count;  // by Lit::index(); exact
  std::vector<char> seeded;             // by var: fact predates the run
  /// By var: epoch of the last add / strengthen of a clause holding it.
  std::vector<std::uint32_t> var_stamp;
  /// By var: a clause holding it was added, killed or strengthened since
  /// its last elimination attempt.
  std::vector<char> bve_dirty;
  std::vector<Lit> unit_queue;
  std::vector<std::uint32_t> p_idx, n_idx;
  std::vector<Lit> resolvent;
  ClauseList resolvents;

  void reset(std::size_t num_vars) {
    arena.clear();
    cls.clear();
    occ.resize(2 * num_vars);
    for (auto& list : occ) list.clear();
    occ_count.assign(2 * num_vars, 0);
    seeded.assign(num_vars, 0);
    var_stamp.assign(num_vars, 0);
    bve_dirty.assign(num_vars, 1);
    unit_queue.clear();
  }
};

PreprocessWorkspace::PreprocessWorkspace()
    : state_(std::make_unique<State>()) {}
PreprocessWorkspace::~PreprocessWorkspace() = default;

namespace {

using Clause = PreprocessWorkspace::State::Clause;

/// Clauses larger than this are skipped as subsumption *pivots* (they
/// still get subsumed by smaller ones).  Tape clauses are Tseitin-sized;
/// this only guards pathological resolvents.
constexpr std::size_t kMaxSubsumePivot = 32;

struct Simplifier {
  const PreprocessOptions& opts;
  int num_vars;
  const std::vector<char>& frozen;
  PreprocessWorkspace::State& ws;

  std::vector<lbool> assigned;  // by var
  VarRemapper remap;
  PreprocessStats stats;
  bool contradiction = false;
  bool changed = false;
  /// 0 while loading, r + 1 during round r.  A clause whose stamp is
  /// below epoch - 1 is unchanged since the previous round started.
  std::uint32_t epoch = 0;

  Simplifier(const PreprocessOptions& o, int nv, const std::vector<char>& fr,
             const std::vector<lbool>* seed, PreprocessWorkspace::State& w)
      : opts(o),
        num_vars(nv),
        frozen(fr),
        ws(w),
        assigned(static_cast<std::size_t>(nv), l_Undef),
        remap(nv) {
    ws.reset(static_cast<std::size_t>(nv));
    if (seed == nullptr) return;
    REFBMC_EXPECTS(seed->size() == static_cast<std::size_t>(nv));
    // Seeded facts simplify the input like any root assignment but are
    // not new discoveries: they bypass assign() (no units_propagated,
    // no changed flag) and output() never re-emits them.
    for (Var v = 0; v < nv; ++v) {
      const lbool val = (*seed)[static_cast<std::size_t>(v)];
      if (val == l_Undef) continue;
      assigned[static_cast<std::size_t>(v)] = val;
      ws.seeded[static_cast<std::size_t>(v)] = 1;
      ws.unit_queue.push_back(Lit::make(v, val == l_False));
    }
  }

  std::span<Lit> lits(const Clause& c) {
    return {ws.arena.data() + c.start, c.size};
  }
  std::span<const Lit> lits(std::uint32_t idx) const {
    const Clause& c = ws.cls[idx];
    return {ws.arena.data() + c.start, c.size};
  }
  bool contains(std::uint32_t idx, Lit l) const {
    const std::span<const Lit> c = lits(idx);
    return std::binary_search(c.begin(), c.end(), l);
  }

  static std::uint64_t signature(std::span<const Lit> c) {
    std::uint64_t s = 0;
    for (const Lit l : c)
      s |= std::uint64_t{1} << (static_cast<std::uint32_t>(l.var()) & 63u);
    return s;
  }

  lbool value(Lit l) const {
    return assigned[static_cast<std::size_t>(l.var())] ^ l.negated();
  }

  void assign(Lit l) {
    const lbool cur = value(l);
    if (cur == l_True) return;
    if (cur == l_False) {
      contradiction = true;
      return;
    }
    assigned[static_cast<std::size_t>(l.var())] =
        l.negated() ? l_False : l_True;
    ws.unit_queue.push_back(l);
    ++stats.units_propagated;
    changed = true;
  }

  /// Records that clause idx was added or strengthened: its contents
  /// differ from what earlier rounds saw, for every variable it holds.
  void touch(std::uint32_t idx) {
    ws.cls[idx].stamp = epoch;
    for (const Lit l : lits(idx)) {
      ws.var_stamp[static_cast<std::size_t>(l.var())] = epoch;
      ws.bve_dirty[static_cast<std::size_t>(l.var())] = 1;
    }
  }

  void kill(std::uint32_t idx) {
    Clause& c = ws.cls[idx];
    if (!c.alive) return;
    c.alive = false;
    for (const Lit l : lits(c)) {
      --ws.occ_count[static_cast<std::size_t>(l.index())];
      ws.bve_dirty[static_cast<std::size_t>(l.var())] = 1;
    }
  }

  /// Removes `drop` from clause `idx` (must be present and alive).
  void strengthen(std::uint32_t idx, Lit drop) {
    Clause& c = ws.cls[idx];
    REFBMC_ASSERT(c.alive);
    ws.bve_dirty[static_cast<std::size_t>(drop.var())] = 1;
    const std::span<Lit> cl = lits(c);
    const auto at = std::find(cl.begin(), cl.end(), drop);
    std::copy(at + 1, cl.end(), at);
    --c.size;
    --ws.occ_count[static_cast<std::size_t>(drop.index())];
    c.sig = signature(lits(c));
    touch(idx);
    ++stats.lits_strengthened;
    changed = true;
    if (c.size == 0) {
      contradiction = true;
    } else if (c.size == 1) {
      assign(ws.arena[c.start]);
      kill(idx);
    }
  }

  /// Adopts the sorted, var-unique, non-tautological literals at
  /// arena[start..] as a clause; units are folded into the assignment
  /// (and their literals released) instead of being stored.
  void add_arena_clause(std::size_t start) {
    const std::size_t n = ws.arena.size() - start;
    if (n <= 1) {
      if (n == 0)
        contradiction = true;
      else
        assign(ws.arena[start]);
      ws.arena.resize(start);
      return;
    }
    const auto idx = static_cast<std::uint32_t>(ws.cls.size());
    Clause c;
    c.start = static_cast<std::uint32_t>(start);
    c.size = static_cast<std::uint32_t>(n);
    c.sig = signature(lits(c));
    ws.cls.push_back(c);
    for (const Lit l : lits(idx)) {
      ws.occ[static_cast<std::size_t>(l.index())].push_back(idx);
      ++ws.occ_count[static_cast<std::size_t>(l.index())];
    }
    touch(idx);
  }

  /// Unit propagation to fixpoint.  Maintains the invariant that no
  /// alive clause mentions an assigned variable: clauses containing a
  /// true literal die, false literals are stripped.
  void propagate_units() {
    while (!ws.unit_queue.empty() && !contradiction) {
      const Lit l = ws.unit_queue.back();
      ws.unit_queue.pop_back();
      auto& pos_occ = ws.occ[static_cast<std::size_t>(l.index())];
      for (const std::uint32_t idx : pos_occ) {
        if (ws.cls[idx].alive && contains(idx, l)) kill(idx);
      }
      pos_occ.clear();
      // strengthen() may enqueue units but never adds occurrences, so
      // ~l's list can be walked in place.
      auto& neg_occ = ws.occ[static_cast<std::size_t>((~l).index())];
      for (const std::uint32_t idx : neg_occ) {
        if (!ws.cls[idx].alive || !contains(idx, ~l)) continue;
        strengthen(idx, ~l);
        if (contradiction) return;
      }
      neg_occ.clear();
    }
  }

  /// Walks occ[l], compacting dead/stale entries in place, and calls
  /// fn(idx) for each alive clause that really contains l.  fn must not
  /// add clauses.
  template <typename Fn>
  void for_occ(Lit l, Fn&& fn) {
    auto& list = ws.occ[static_cast<std::size_t>(l.index())];
    std::size_t out = 0;
    for (std::size_t i = 0; i < list.size(); ++i) {
      const std::uint32_t idx = list[i];
      if (!ws.cls[idx].alive || !contains(idx, l)) continue;
      list[out++] = idx;
      fn(idx);
    }
    list.resize(out);
  }

  // ---- subsumption / self-subsuming resolution ------------------------
  enum class SubCheck { Subsumes, Strengthens, Fail };

  /// Merge-walk: does C subsume D (C ⊆ D), or does C with exactly one
  /// literal flipped subsume D (self-subsuming resolution: D loses the
  /// flipped literal's negation)?  Both are sorted and var-unique, and
  /// Lit ordering is var-major, so one pass decides.
  static SubCheck subsume_check(std::span<const Lit> c,
                                std::span<const Lit> d, Lit& flipped) {
    std::size_t j = 0;
    int flips = 0;
    for (const Lit lc : c) {
      while (j < d.size() && d[j].var() < lc.var()) ++j;
      if (j == d.size() || d[j].var() != lc.var()) return SubCheck::Fail;
      if (d[j] != lc) {
        if (++flips > 1) return SubCheck::Fail;
        flipped = lc;
      }
      ++j;
    }
    return flips == 0 ? SubCheck::Subsumes : SubCheck::Strengthens;
  }

  /// Touched-set skip for pivot i (rounds after the first).  A clean
  /// pivot/candidate pair — both unchanged since the previous round
  /// started — was already checked then, with the same contents, and
  /// failed (success would have changed the candidate).  A clean pivot
  /// holding a variable no clause change has touched since then can
  /// only meet clean candidates: any clause it could subsume or
  /// strengthen holds that variable too.
  bool is_clean(std::uint32_t idx) const {
    return epoch >= 2 && ws.cls[idx].stamp < epoch - 1;
  }
  bool skip_pivot(std::uint32_t i) const {
    if (!is_clean(i)) return false;
    for (const Lit l : lits(i))
      if (ws.var_stamp[static_cast<std::size_t>(l.var())] < epoch - 1)
        return true;
    return false;
  }

  void subsume_round() {
    const auto pivots = static_cast<std::uint32_t>(ws.cls.size());
    for (std::uint32_t i = 0; i < pivots && !contradiction; ++i) {
      if (!ws.cls[i].alive || ws.cls[i].size > kMaxSubsumePivot) continue;
      if (skip_pivot(i)) continue;
      const bool pivot_clean = is_clean(i);
      // Cheapest literal to walk: fewest occurrences across both
      // polarities (every superset of C shows up in one of the two).
      Lit lmin = lits(i)[0];
      std::int32_t best = INT32_MAX;
      for (const Lit l : lits(i)) {
        const std::int32_t n =
            ws.occ_count[static_cast<std::size_t>(l.index())] +
            ws.occ_count[static_cast<std::size_t>((~l).index())];
        if (n < best) {
          best = n;
          lmin = l;
        }
      }
      for (const Lit probe : {lmin, ~lmin}) {
        // Checks touch only the candidate (kill/strengthen add no
        // occurrences), so the walk needs no snapshot.
        for_occ(probe, [&](std::uint32_t j) {
          if (j == i || contradiction) return;
          const Clause& d = ws.cls[j];
          if (!d.alive || d.size < ws.cls[i].size) return;
          if (pivot_clean && is_clean(j)) return;
          if ((ws.cls[i].sig & ~d.sig) != 0) return;
          Lit flipped = sat::kLitUndef;
          switch (subsume_check(lits(i), lits(j), flipped)) {
            case SubCheck::Subsumes:
              kill(j);
              ++stats.clauses_subsumed;
              changed = true;
              break;
            case SubCheck::Strengthens:
              strengthen(j, ~flipped);
              break;
            case SubCheck::Fail:
              break;
          }
        });
        if (contradiction) return;
      }
    }
  }

  // ---- pure / unused literal elimination ------------------------------
  bool eliminable(Var v) const {
    return frozen[static_cast<std::size_t>(v)] == 0 &&
           assigned[static_cast<std::size_t>(v)] == l_Undef &&
           remap.is_kept(v);
  }

  void pure_round() {
    for (Var v = 0; v < num_vars && !contradiction; ++v) {
      if (!eliminable(v)) continue;
      const Lit pos = Lit::make(v);
      const std::int32_t np =
          ws.occ_count[static_cast<std::size_t>(pos.index())];
      const std::int32_t nn =
          ws.occ_count[static_cast<std::size_t>((~pos).index())];
      if (np == 0 && nn == 0) {
        remap.eliminate(pos, 0);
        ++stats.vars_eliminated;
        changed = true;
        continue;
      }
      if (np != 0 && nn != 0) continue;
      const Lit pure = np != 0 ? pos : ~pos;
      ws.p_idx.clear();
      for_occ(pure, [&](std::uint32_t idx) { ws.p_idx.push_back(idx); });
      for (const std::uint32_t idx : ws.p_idx) {
        remap.push_clause(lits(idx));
        kill(idx);
      }
      remap.eliminate(pure, ws.p_idx.size());
      ++stats.vars_eliminated;
      ++stats.pure_literals;
      changed = true;
    }
  }

  // ---- bounded variable elimination (NiVER) ---------------------------
  /// Resolvent of p (contains pos) and n (contains ~pos): merged minus
  /// the pivot pair, deduplicated.  Returns false for tautologies.
  static bool resolve(std::span<const Lit> p, std::span<const Lit> n,
                      Lit pos, std::vector<Lit>& out) {
    out.clear();
    std::size_t i = 0, j = 0;
    while (i < p.size() || j < n.size()) {
      Lit next;
      if (j == n.size() || (i < p.size() && p[i] < n[j])) {
        next = p[i++];
      } else if (i == p.size() || n[j] < p[i]) {
        next = n[j++];
      } else {
        next = p[i++];
        ++j;  // identical literal in both parents
      }
      if (next.var() == pos.var()) continue;  // pivot pair drops out
      if (!out.empty() && out.back().var() == next.var()) {
        if (out.back() != next) return false;  // tautology
        continue;
      }
      out.push_back(next);
    }
    return true;
  }

  void bve_round() {
    for (Var v = 0; v < num_vars && !contradiction; ++v) {
      if (!eliminable(v)) continue;
      // Touched-set skip: nothing holding v changed since its last
      // attempt, so the occurrence lists — and the verdict — are the
      // ones that attempt already saw fail.
      if (ws.bve_dirty[static_cast<std::size_t>(v)] == 0) continue;
      ws.bve_dirty[static_cast<std::size_t>(v)] = 0;
      const Lit pos = Lit::make(v);
      const std::int32_t np =
          ws.occ_count[static_cast<std::size_t>(pos.index())];
      const std::int32_t nn =
          ws.occ_count[static_cast<std::size_t>((~pos).index())];
      if (np == 0 || nn == 0) continue;  // pure_round's job
      if (np + nn > opts.bve_budget) continue;

      ws.p_idx.clear();
      ws.n_idx.clear();
      for_occ(pos, [&](std::uint32_t idx) { ws.p_idx.push_back(idx); });
      for_occ(~pos, [&](std::uint32_t idx) { ws.n_idx.push_back(idx); });

      // NiVER acceptance: non-tautological resolvents must not
      // outnumber the clauses they replace, and must stay short.
      ws.resolvents.clear();
      const std::size_t limit = ws.p_idx.size() + ws.n_idx.size();
      bool ok = true;
      for (const std::uint32_t pi : ws.p_idx) {
        for (const std::uint32_t ni : ws.n_idx) {
          if (!resolve(lits(pi), lits(ni), pos, ws.resolvent)) continue;
          if (ws.resolvent.size() >
                  static_cast<std::size_t>(opts.bve_max_resolvent) ||
              ws.resolvents.size() == limit) {
            ok = false;
            break;
          }
          ws.resolvents.push_back(ws.resolvent);
        }
        if (!ok) break;
      }
      if (!ok) continue;

      // Witness: the positive occurrence list.  The default completion
      // (v = false) satisfies the negative side; the flip case is
      // covered by the resolvents now entering the formula.  The
      // negative side rides along as the resurrection kit's other half.
      for (const std::uint32_t pi : ws.p_idx) remap.push_clause(lits(pi));
      for (const std::uint32_t ni : ws.n_idx) remap.push_clause(lits(ni));
      for (const std::uint32_t pi : ws.p_idx) kill(pi);
      for (const std::uint32_t ni : ws.n_idx) kill(ni);
      remap.eliminate(pos, ws.p_idx.size());
      ++stats.vars_eliminated;
      changed = true;
      for (const std::span<const Lit> r : ws.resolvents) {
        const std::size_t start = ws.arena.size();
        ws.arena.insert(ws.arena.end(), r.begin(), r.end());
        add_arena_clause(start);
      }
      propagate_units();
    }
  }

  void load(const ClauseList& input) {
    stats.clauses_in = input.size();
    ws.arena.reserve(input.num_lits());
    ws.cls.reserve(input.size());
    for (const std::span<const Lit> raw : input) {
      stats.lits_in += raw.size();
      const std::size_t start = ws.arena.size();
      ws.arena.insert(ws.arena.end(), raw.begin(), raw.end());
      const auto first = ws.arena.begin() + static_cast<std::ptrdiff_t>(start);
      std::sort(first, ws.arena.end());
      ws.arena.erase(std::unique(first, ws.arena.end()), ws.arena.end());
      bool taut = false;
      for (std::size_t i = start; i + 1 < ws.arena.size(); ++i) {
        if (ws.arena[i].var() == ws.arena[i + 1].var()) {
          taut = true;
          break;
        }
      }
      if (taut) {  // vacuous on any assignment
        ws.arena.resize(start);
        continue;
      }
      add_arena_clause(start);
      if (contradiction) return;
    }
  }

  void run() {
    propagate_units();
    for (int round = 0; round < opts.rounds && !contradiction; ++round) {
      epoch = static_cast<std::uint32_t>(round) + 1;
      changed = false;
      subsume_round();
      propagate_units();
      if (contradiction) break;
      pure_round();
      bve_round();
      if (!changed) break;
    }
  }

  ClauseList output() {
    // Root facts first (the solver derives the same level-0 state the
    // unsimplified replay would have reached), then survivors in tape
    // order — fully deterministic.
    std::size_t num = 0, num_lits = 0;
    for (Var v = 0; v < num_vars; ++v) {
      if (ws.seeded[static_cast<std::size_t>(v)] == 0 &&
          assigned[static_cast<std::size_t>(v)] != l_Undef) {
        ++num;
        ++num_lits;
      }
    }
    for (const Clause& c : ws.cls) {
      if (!c.alive) continue;
      ++num;
      num_lits += c.size;
    }
    ClauseList out;
    out.reserve(num, num_lits);
    for (Var v = 0; v < num_vars; ++v) {
      if (ws.seeded[static_cast<std::size_t>(v)] != 0) continue;
      const lbool val = assigned[static_cast<std::size_t>(v)];
      if (val == l_Undef) continue;
      const Lit unit = Lit::make(v, val == l_False);
      out.push_back(std::span<const Lit>(&unit, 1));
    }
    for (const Clause& c : ws.cls) {
      if (c.alive) out.push_back(lits(c));
    }
    stats.lits_out = num_lits;
    stats.clauses_out = num;
    return out;
  }
};

}  // namespace

SimplifyResult TapePreprocessor::run(int num_vars, const ClauseList& clauses,
                                     const std::vector<char>& frozen,
                                     const std::vector<lbool>* seed,
                                     PreprocessWorkspace& ws) const {
  REFBMC_EXPECTS(frozen.size() == static_cast<std::size_t>(num_vars));

  Simplifier s(opts_, num_vars, frozen, seed, *ws.state_);
  s.load(clauses);
  if (!s.contradiction) s.run();

  SimplifyResult result;
  if (s.contradiction) {
    // A definitional tape should never be refutable by preprocessing
    // alone; if it happens (degenerate input), hand the solver the
    // original formula so verdicts and cores stay authoritative.
    result.clauses = clauses;
    result.remap = VarRemapper(num_vars);
    if (seed != nullptr) result.assigned = *seed;
    result.assigned.resize(static_cast<std::size_t>(num_vars), l_Undef);
    result.fell_back = true;
    result.stats.clauses_in = clauses.size();
    result.stats.clauses_out = clauses.size();
    result.stats.lits_in = clauses.num_lits();
    result.stats.lits_out = clauses.num_lits();
  } else {
    result.clauses = s.output();
    result.remap = std::move(s.remap);
    result.stats = s.stats;
    result.assigned = std::move(s.assigned);
  }
  return result;
}

}  // namespace refbmc::bmc
