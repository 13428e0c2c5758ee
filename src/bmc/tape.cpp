#include "bmc/tape.hpp"

#include <algorithm>
#include <array>

#include "model/stats.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"

namespace refbmc::bmc {

void ClauseTape::scan(
    std::size_t op_begin, std::size_t op_end,
    const std::function<void(std::size_t)>& on_vars,
    const std::function<void(std::span<const sat::Lit>)>& on_clause) const {
  REFBMC_EXPECTS(op_begin <= op_end && op_end <= ops_.size());
  // Literal offsets are not stored per op, so recover the start offset
  // by summing clause sizes up to op_begin — a linear walk over plain
  // ints, negligible next to the clause copying that follows.
  std::size_t lit = 0;
  for (std::size_t i = 0; i < op_begin; ++i)
    if (ops_[i] != kVarOp) lit += static_cast<std::size_t>(ops_[i]);
  std::size_t var_run = 0;
  for (std::size_t at = op_begin; at < op_end; ++at) {
    const std::int32_t op = ops_[at];
    if (op == kVarOp) {
      ++var_run;
      continue;
    }
    if (var_run != 0) {
      if (on_vars) on_vars(var_run);
      var_run = 0;
    }
    if (on_clause)
      on_clause(std::span<const sat::Lit>(lits_.data() + lit,
                                          static_cast<std::size_t>(op)));
    lit += static_cast<std::size_t>(op);
  }
  if (var_run != 0 && on_vars) on_vars(var_run);
}

void ClauseTape::replay(Cursor& cursor, const Mark& upto,
                        ClauseSink& out) const {
  std::vector<sat::Lit> clause;
  scan(cursor.op, upto.ops,
       [&](std::size_t n) {
         for (std::size_t i = 0; i < n; ++i)
           cursor.var_map.push_back(
               out.add_var(origin_[cursor.var_map.size()]));
       },
       [&](std::span<const sat::Lit> lits) {
         clause.clear();
         for (const sat::Lit l : lits) clause.push_back(cursor.translate(l));
         out.add_clause(clause);
       });
  cursor.op = upto.ops;
}

void ClauseTape::append_clauses(const Mark& from, const Mark& upto,
                                ClauseList& out) const {
  out.reserve(out.size() + (upto.clauses - from.clauses),
              out.num_lits() + (upto.lits - from.lits));
  scan(from.ops, upto.ops, {},
       [&](std::span<const sat::Lit> lits) { out.push_back(lits); });
}

SharedTape::SharedTape(const model::Netlist& net, std::size_t bad_index,
                       EncoderOptions opts, PreprocessOptions preprocess)
    : net_(net),
      bad_index_(bad_index),
      opts_(opts),
      preprocess_(preprocess),
      encoder_(net, tape_, bad_index, opts) {
  // Netlist-derived reserve heuristic: a frame creates roughly one tape
  // variable per input/latch/gate and one Tseitin clause triple per AND
  // plus the latch-transition binaries; strashing only shrinks these, so
  // the estimate is a safe upper bound for the common case and merely a
  // hint otherwise.
  const model::NetlistStats ns = model::analyze(net);
  const std::size_t vars_frame = ns.num_inputs + ns.num_latches + ns.num_ands + 2;
  const std::size_t clauses_frame = 3 * ns.num_ands + 2 * ns.num_latches + 4;
  est_ops_frame_ = vars_frame + clauses_frame;
  est_lits_frame_ = 3 * clauses_frame;
}

void SharedTape::recharge_locked() {
  // O(depths): every cache is a handful of flat vectors.
  std::size_t now = tape_.memory_bytes() + inc_remap_.memory_bytes();
  for (const IncDelta& d : inc_deltas_) now += d.memory_bytes();
  const std::size_t was = footprint_.load(std::memory_order_relaxed);
  if (mem_ != nullptr) {
    if (now >= was)
      mem_->add(now - was);
    else
      mem_->sub(was - now);
  }
  footprint_.store(now, std::memory_order_relaxed);
}

void SharedTape::ensure_locked(int k) {
  REFBMC_EXPECTS(k >= 0);
  const std::uint64_t before = encoder_.stats().frames_encoded;
  while (encoder_.encoded_depth() < k) {
    const int frame = encoder_.encoded_depth() + 1;
    tape_.reserve_additional(est_ops_frame_, est_lits_frame_);
    // The frame is encoded exactly once race-wide (this is the
    // encode-once guarantee), so the span lands on whichever entrant's
    // track got here first — one tape_encode span per frame, total.
    obs::TraceSpan span(obs::EventKind::TapeEncode, frame);
    encoder_.encode_to(frame);
    span.set_value(static_cast<std::int64_t>(encoder_.stats().clauses_emitted));
    depth_marks_.push_back(tape_.mark());
    depth_stats_.push_back(encoder_.stats());
  }
  if (encoder_.stats().frames_encoded != before) recharge_locked();
}

void SharedTape::ensure_depth(int k) {
  const std::lock_guard<std::mutex> lock(mu_);
  ensure_locked(k);
}

void SharedTape::replay_to(int k, ClauseTape::Cursor& cursor,
                           ClauseSink& out) {
  std::vector<const IncDelta*> deltas;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    ensure_locked(k);
    if (!preprocess_.enabled) {
      // The raw tape's vectors grow while frames are encoded: replay it
      // under the lock.
      tape_.replay(cursor, depth_marks_[static_cast<std::size_t>(k)], out);
      return;
    }
    // Each delta parks the cursor on its depth's mark, so the next delta
    // is that of the first depth whose mark lies beyond the cursor (a
    // fresh cursor: depth 0).  Two depths share a mark only when the
    // later one added no events, and then its delta is empty too.
    const auto next = std::upper_bound(
        depth_marks_.begin(), depth_marks_.end(), cursor.op,
        [](std::size_t op, const ClauseTape::Mark& m) { return op < m.ops; });
    ensure_inc_delta_locked(k);
    for (auto f = static_cast<std::size_t>(next - depth_marks_.begin());
         f <= static_cast<std::size_t>(k); ++f)
      deltas.push_back(&inc_deltas_[f]);
  }
  // Published deltas are immutable and never move: translate and add
  // their clauses without the lock.
  std::vector<sat::Lit> clause;
  for (const IncDelta* d : deltas) replay_delta(*d, cursor, out, clause);
}

// Frozen set: everything whose tape variable must survive to the
// solver.  Inputs and latches at every frame (trace extraction and
// cross-depth identity), the auxiliary constant (frame -1), and the
// per-frame property/bad literals (the scratch session asserts or
// assumes them; the prefix-disjunction chain under BadMode::Any rides
// on the bad literals it references).  Incremental activation guards
// never appear here: they are solver-local variables created OUTSIDE
// the tape, so the pass cannot touch them by construction — the guard
// clause's tape-side anchor is the property literal, which is frozen.
void SharedTape::build_frozen_locked(int k, std::size_t num_vars,
                                     std::vector<char>& frozen) const {
  const auto& origin = tape_.origin();
  for (std::size_t v = 0; v < num_vars; ++v) {
    const VarOrigin& o = origin[v];
    if (o.frame < 0) {
      frozen[v] = 1;
      continue;
    }
    const model::NodeKind kind = net_.kind(o.node);
    if (kind == model::NodeKind::Input || kind == model::NodeKind::Latch)
      frozen[v] = 1;
  }
  for (int j = 0; j <= k; ++j) {
    frozen[static_cast<std::size_t>(encoder_.property(j).var())] = 1;
    frozen[static_cast<std::size_t>(encoder_.bad(j).var())] = 1;
  }
}

void SharedTape::ensure_inc_delta_locked(int f) {
  ensure_locked(f);
  for (auto g = static_cast<int>(inc_deltas_.size()); g <= f; ++g) {
    inc_deltas_.push_back(build_inc_delta_locked(g));
    recharge_locked();
  }
}

SharedTape::IncDelta SharedTape::build_inc_delta_locked(int f) {
  REFBMC_ASSERT(static_cast<std::size_t>(f) == inc_deltas_.size());
  const auto idx = static_cast<std::size_t>(f);
  IncDelta d;
  d.prev = f > 0 ? depth_marks_[idx - 1] : ClauseTape::Mark{};
  d.mark = depth_marks_[idx];
  const ClauseTape::Mark& prev = d.prev;
  const ClauseTape::Mark& mark = d.mark;
  obs::TraceSpan span(obs::EventKind::SpanPreprocess, f);
  const std::uint64_t t0 = obs::monotonic_now_us();

  inc_remap_.grow(static_cast<int>(mark.vars));
  inc_assigned_.resize(mark.vars, sat::l_Undef);

  work_.input.clear();
  tape_.append_clauses(prev, mark, work_.input);

  // Transitive resurrection: the delta may reference variables BVE
  // eliminated at an earlier depth (global strashing aliases later
  // frames onto earlier gate variables).  Re-admit each one and re-add
  // its removed-clause kit ahead of the delta; kit clauses may
  // themselves reference other eliminated variables, so chase to
  // fixpoint.  Kit clauses join the simplifier input — seeded root
  // facts and the delta get to simplify them like anything else.
  ClauseList kit;
  const auto scan_clause = [&](std::span<const sat::Lit> c) {
    for (const sat::Lit l : c) {
      const sat::Var v = l.var();
      if (inc_remap_.is_kept(v)) continue;
      const VarRemapper::Witness& w = inc_remap_.resurrect(v, f);
      d.resurrected.push_back(v);
      kit.append(inc_remap_.clauses(), w.first, w.last);
    }
  };
  for (const std::span<const sat::Lit> c : work_.input) scan_clause(c);
  // The depth's own property and bad literals are translated by
  // consumers directly, and latch aliasing or cross-frame strashing can
  // make them gate variables of an earlier depth that no delta clause
  // names (bad = latch whose next state is an AND: property(f) is gate
  // f-1) — they come back exactly as a delta reference would.
  const std::array<sat::Lit, 2> named{encoder_.property(f), encoder_.bad(f)};
  scan_clause(named);
  std::vector<sat::Lit> copy;
  for (std::size_t i = 0; i < kit.size(); ++i) {
    copy.assign(kit[i].begin(), kit[i].end());  // kit may grow
    scan_clause(copy);
  }
  if (!kit.empty()) {
    kit.append(work_.input, 0, work_.input.size());
    work_.input.clear();
    work_.input.append(kit, 0, kit.size());
  }

  // Frozen: build_frozen_locked's set for the new variables, plus EVERY
  // variable of earlier depths — cross-depth identity is what lets a
  // consumer extend its formula a delta at a time (and keeps a
  // persistent solver's clauses meaningful), so only this delta's fresh
  // gate variables are elimination candidates.
  std::vector<char> frozen(mark.vars, 0);
  build_frozen_locked(f, mark.vars, frozen);
  for (std::size_t v = 0; v < prev.vars; ++v) frozen[v] = 1;

  SimplifyResult result = TapePreprocessor(preprocess_).run(
      static_cast<int>(mark.vars), work_.input, frozen, &inc_assigned_, work_);
  result.stats.preprocess_us = obs::monotonic_now_us() - t0;

  // Fold the delta's outcome into the cumulative state.  On fallback
  // (contradiction — degenerate input) the raw delta is cached and no
  // new eliminations or facts are recorded; the resurrections above
  // stand either way (the raw delta references those variables too).
  if (!result.fell_back) inc_remap_.append(result.remap, f);
  inc_assigned_ = std::move(result.assigned);
  // The origins replay hands the sink, in creation order: resurrected
  // variables first (the cached delta stream references them), then
  // this delta's surviving variables in tape order — identical creation
  // order for every consumer.
  const auto& origin = tape_.origin();
  for (const sat::Var v : d.resurrected)
    d.origins.push_back(origin[static_cast<std::size_t>(v)]);
  d.kept_new.assign(mark.vars - prev.vars, 1);
  for (std::size_t v = prev.vars; v < mark.vars; ++v) {
    if (inc_remap_.is_kept(static_cast<sat::Var>(v)))
      d.origins.push_back(origin[v]);
    else
      d.kept_new[v - prev.vars] = 0;
  }
  d.stats = result.stats;
  span.set_value(static_cast<std::int64_t>(result.clauses.size()));
  d.clauses = std::move(result.clauses);
  return d;
}

void SharedTape::replay_delta(const IncDelta& d, ClauseTape::Cursor& cursor,
                              ClauseSink& out, std::vector<sat::Lit>& clause) {
  REFBMC_EXPECTS_MSG(cursor.var_map.size() == d.prev.vars,
                     "delta replay requires a cursor parked at the "
                     "previous depth's mark");
  auto origin = d.origins.begin();
  for (const sat::Var v : d.resurrected) {
    auto& slot = cursor.var_map[static_cast<std::size_t>(v)];
    REFBMC_ASSERT(slot == sat::kVarUndef);
    slot = out.add_var(*origin++);
  }
  for (const char kept : d.kept_new)
    cursor.var_map.push_back(kept != 0 ? out.add_var(*origin++)
                                       : sat::kVarUndef);
  for (const std::span<const sat::Lit> c : d.clauses) {
    clause.clear();
    for (const sat::Lit l : c) clause.push_back(cursor.translate(l));
    out.add_clause(clause);
  }
  // Park at the depth mark: translate() keeps working for property, bad
  // and latch literals over kept (frozen) variables, and the next
  // replay_to finds the depth from the mark.
  cursor.op = d.mark.ops;
}

PreprocessStats SharedTape::preprocess_stats_at(int k) {
  const std::lock_guard<std::mutex> lock(mu_);
  ensure_inc_delta_locked(k);
  return inc_deltas_[static_cast<std::size_t>(k)].stats;
}

VarRemapper SharedTape::remapper_at(int k) {
  const std::lock_guard<std::mutex> lock(mu_);
  ensure_inc_delta_locked(k);
  return inc_remap_.as_of(
      k, static_cast<int>(depth_marks_[static_cast<std::size_t>(k)].vars));
}

std::size_t SharedTape::simplified_clauses_at(int k) {
  const std::lock_guard<std::mutex> lock(mu_);
  ensure_locked(k);
  if (!preprocess_.enabled)
    return depth_marks_[static_cast<std::size_t>(k)].clauses;
  ensure_inc_delta_locked(k);
  std::size_t n = 0;
  for (int f = 0; f <= k; ++f)
    n += inc_deltas_[static_cast<std::size_t>(f)].stats.clauses_out;
  return n;
}

sat::Lit SharedTape::property(int k) {
  const std::lock_guard<std::mutex> lock(mu_);
  ensure_locked(k);
  return encoder_.property(k);
}

sat::Lit SharedTape::bad(int frame) {
  const std::lock_guard<std::mutex> lock(mu_);
  ensure_locked(frame);
  return encoder_.bad(frame);
}

std::vector<sat::Lit> SharedTape::latch_lits(int frame) {
  const std::lock_guard<std::mutex> lock(mu_);
  ensure_locked(frame);
  return encoder_.latch_lits(frame);
}

ClauseTape::Mark SharedTape::mark_at(int k) {
  const std::lock_guard<std::mutex> lock(mu_);
  ensure_locked(k);
  return depth_marks_[static_cast<std::size_t>(k)];
}

std::uint64_t SharedTape::frames_encoded() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return encoder_.stats().frames_encoded;
}

EncodeStats SharedTape::stats_at(int k) {
  const std::lock_guard<std::mutex> lock(mu_);
  ensure_locked(k);
  return depth_stats_[static_cast<std::size_t>(k)];
}

EncodeStats SharedTape::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return encoder_.stats();
}

void SharedTape::set_mem_tracker(MemTracker* tracker) {
  const std::lock_guard<std::mutex> lock(mu_);
  const std::size_t charged = footprint_.load(std::memory_order_relaxed);
  if (mem_ != nullptr) mem_->sub(charged);
  mem_ = tracker;
  if (mem_ != nullptr) mem_->add(charged);
}

}  // namespace refbmc::bmc
