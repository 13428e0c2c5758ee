#include "bmc/tape.hpp"

#include <algorithm>

#include "bmc/tape_codec.hpp"
#include "model/stats.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"

namespace refbmc::bmc {

void ClauseTape::scan(
    std::size_t op_begin, std::size_t op_end,
    const std::function<void(std::size_t)>& on_vars,
    const std::function<void(std::span<const sat::Lit>)>& on_clause) const {
  REFBMC_EXPECTS(op_begin <= op_end && op_end <= base_ops_ + ops_.size());
  std::size_t at = op_begin;

  // Frozen prefix: decode every segment the range touches.  The codec's
  // delta chain spans a whole segment, so a partially-wanted segment is
  // decoded in full and clipped — the price of cold storage, paid only
  // by late joiners (steady-state consumers read the raw tail).
  std::size_t seg_start = 0;
  for (const FrozenSegment& seg : frozen_) {
    const std::size_t seg_end = seg_start + seg.ops;
    if (at >= op_end) return;
    if (at < seg_end) {
      std::size_t op = seg_start;
      TapeCodec::for_each(
          seg.bytes,
          [&](std::size_t n) {
            const std::size_t lo = std::max(op, at);
            const std::size_t hi = std::min(op + n, op_end);
            if (on_vars && hi > lo) on_vars(hi - lo);
            op += n;
          },
          [&](std::span<const sat::Lit> lits) {
            if (on_clause && op >= at && op < op_end) on_clause(lits);
            ++op;
          });
      at = std::min(seg_end, op_end);
    }
    seg_start = seg_end;
  }
  if (at >= op_end) return;

  // Raw tail.  Literal offsets are not stored per op, so recover the
  // start offset by summing clause sizes up to `at` — a linear walk over
  // plain ints, negligible next to the clause copying that follows.
  REFBMC_ASSERT(at >= base_ops_);
  std::size_t local = at - base_ops_;
  const std::size_t local_end = op_end - base_ops_;
  std::size_t lit = 0;
  for (std::size_t i = 0; i < local; ++i)
    if (ops_[i] != kVarOp) lit += static_cast<std::size_t>(ops_[i]);
  std::size_t var_run = 0;
  while (local < local_end) {
    const std::int32_t op = ops_[local++];
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

void ClauseTape::freeze_prefix(const Mark& upto) {
  REFBMC_EXPECTS_MSG(upto.ops >= base_ops_ &&
                         upto.ops <= base_ops_ + ops_.size(),
                     "freeze_prefix is monotone over the raw region");
  if (upto.ops == base_ops_) return;
  FrozenSegment seg;
  seg.ops = upto.ops - base_ops_;
  seg.lits = upto.lits - base_lits_;
  {
    TapeCodec::Writer w(seg.bytes);
    std::size_t lit = 0;
    for (std::size_t i = 0; i < seg.ops; ++i) {
      const std::int32_t op = ops_[i];
      if (op == kVarOp) {
        w.add_var();
        continue;
      }
      w.add_clause(std::span<const sat::Lit>(lits_.data() + lit,
                                             static_cast<std::size_t>(op)));
      lit += static_cast<std::size_t>(op);
    }
    REFBMC_ASSERT(lit == seg.lits);
    w.finish();
  }
  ops_.erase(ops_.begin(), ops_.begin() + static_cast<std::ptrdiff_t>(seg.ops));
  lits_.erase(lits_.begin(),
              lits_.begin() + static_cast<std::ptrdiff_t>(seg.lits));
  ops_.shrink_to_fit();
  lits_.shrink_to_fit();
  base_ops_ += seg.ops;
  base_lits_ += seg.lits;
  seg.bytes.shrink_to_fit();
  frozen_.push_back(std::move(seg));
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
  cursor.lit = upto.lits;
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
  std::size_t caches = inc_remap_.memory_bytes();
  for (const SimplifiedDepth& s : simplified_)
    caches += s.clauses.memory_bytes() + s.cold.capacity() +
              s.remap.memory_bytes();
  for (const IncDelta& d : inc_deltas_) {
    caches += d.clauses.memory_bytes() + d.cold.capacity();
    caches += d.resurrected.capacity() * sizeof(sat::Var) +
              d.kept_new.capacity();
  }
  cache_bytes_ = caches;
  const std::size_t now = tape_.memory_bytes() + cache_bytes_;
  if (mem_ != nullptr) {
    if (now >= last_charged_)
      mem_->add(now - last_charged_);
    else
      mem_->sub(last_charged_ - now);
  }
  last_charged_ = now;
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
    // Cold storage: the depth just superseded is fully replayable from
    // its mark, so its raw words can be frozen; the newest depth stays
    // raw (it is what steady-state consumers are about to read).
    if (cold_ && depth_marks_.size() >= 2)
      tape_.freeze_prefix(depth_marks_[depth_marks_.size() - 2]);
  }
  if (encoder_.stats().frames_encoded != before) recharge_locked();
}

void SharedTape::ensure_depth(int k) {
  const std::lock_guard<std::mutex> lock(mu_);
  ensure_locked(k);
}

void SharedTape::replay_to(int k, ClauseTape::Cursor& cursor,
                           ClauseSink& out) {
  const std::lock_guard<std::mutex> lock(mu_);
  ensure_locked(k);
  tape_.replay(cursor, depth_marks_[static_cast<std::size_t>(k)], out);
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

void SharedTape::ensure_simplified_locked(int k) {
  ensure_locked(k);
  const auto idx = static_cast<std::size_t>(k);
  if (simplified_.size() <= idx) simplified_.resize(idx + 1);
  if (simplified_[idx].ready) return;

  const ClauseTape::Mark& mark = depth_marks_[idx];
  obs::TraceSpan span(obs::EventKind::SpanPreprocess, k);
  const std::uint64_t t0 = obs::monotonic_now_us();

  work_.input.clear();
  tape_.append_clauses(ClauseTape::Mark{}, mark, work_.input);
  std::vector<char> frozen(mark.vars, 0);
  build_frozen_locked(k, mark.vars, frozen);

  SimplifyResult result = TapePreprocessor(preprocess_).run(
      static_cast<int>(mark.vars), work_.input, frozen, nullptr, work_);
  result.stats.preprocess_us = obs::monotonic_now_us() - t0;
  SimplifiedDepth& s = simplified_[idx];
  s.clause_count = result.clauses.size();
  if (cold_) {
    // The clause list is consumed through replay only; keep it encoded
    // and decode on demand (the remapper stays hot — model completion
    // needs it structurally).
    s.cold = TapeCodec::encode_clauses(result.clauses);
    s.cold.shrink_to_fit();
    s.is_cold = true;
  } else {
    s.clauses = std::move(result.clauses);
  }
  s.remap = std::move(result.remap);
  s.remap.shrink_to_fit();
  s.stats = result.stats;
  s.ready = true;
  span.set_value(static_cast<std::int64_t>(s.clause_count));
  recharge_locked();
}

void SharedTape::ensure_inc_delta_locked(int f) {
  ensure_locked(f);
  const auto idx = static_cast<std::size_t>(f);
  if (inc_deltas_.size() <= idx) inc_deltas_.resize(idx + 1);
  if (inc_deltas_[idx].ready) return;
  // The cumulative state (remapper, root facts) only makes sense built
  // strictly in depth order; consumers replay deltas in order anyway.
  if (f > 0) ensure_inc_delta_locked(f - 1);

  const ClauseTape::Mark prev =
      f > 0 ? depth_marks_[idx - 1] : ClauseTape::Mark{};
  const ClauseTape::Mark& mark = depth_marks_[idx];
  obs::TraceSpan span(obs::EventKind::SpanPreprocess, f);
  const std::uint64_t t0 = obs::monotonic_now_us();

  IncDelta& d = inc_deltas_[idx];
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

  // Frozen: the scratch recipe for the new variables, plus EVERY
  // variable of earlier depths — cross-depth identity is what makes
  // the persistent solver's clauses stay meaningful, so only this
  // delta's fresh gate variables are elimination candidates.
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
  d.kept_new.assign(mark.vars - prev.vars, 1);
  for (std::size_t v = prev.vars; v < mark.vars; ++v) {
    if (!inc_remap_.is_kept(static_cast<sat::Var>(v)))
      d.kept_new[v - prev.vars] = 0;
  }
  d.stats = result.stats;
  const std::size_t clause_count = result.clauses.size();
  if (cold_) {
    d.cold = TapeCodec::encode_clauses(result.clauses);
    d.cold.shrink_to_fit();
    d.is_cold = true;
  } else {
    d.clauses = std::move(result.clauses);
  }
  d.ready = true;
  span.set_value(static_cast<std::int64_t>(clause_count));
  recharge_locked();
}

void SharedTape::replay_simplified_delta(int f, ClauseTape::Cursor& cursor,
                                         ClauseSink& out) {
  const std::lock_guard<std::mutex> lock(mu_);
  ensure_inc_delta_locked(f);
  const auto idx = static_cast<std::size_t>(f);
  const ClauseTape::Mark prev =
      f > 0 ? depth_marks_[idx - 1] : ClauseTape::Mark{};
  const ClauseTape::Mark& mark = depth_marks_[idx];
  REFBMC_EXPECTS_MSG(cursor.var_map.size() == prev.vars,
                     "delta replay requires a cursor parked at the "
                     "previous depth's mark");
  const IncDelta& d = inc_deltas_[idx];
  const auto& origin = tape_.origin();

  // Resurrected variables first (the cached delta stream references
  // them), then this delta's surviving variables in tape order —
  // identical creation order for every incremental consumer.
  for (const sat::Var v : d.resurrected) {
    auto& slot = cursor.var_map[static_cast<std::size_t>(v)];
    REFBMC_ASSERT(slot == sat::kVarUndef);
    slot = out.add_var(origin[static_cast<std::size_t>(v)]);
  }
  for (std::size_t v = prev.vars; v < mark.vars; ++v) {
    cursor.var_map.push_back(d.kept_new[v - prev.vars] != 0
                                 ? out.add_var(origin[v])
                                 : sat::kVarUndef);
  }
  std::vector<sat::Lit> clause;
  const auto emit = [&](std::span<const sat::Lit> c) {
    clause.clear();
    for (const sat::Lit l : c) clause.push_back(cursor.translate(l));
    out.add_clause(clause);
  };
  if (d.is_cold) {
    TapeCodec::decode_clauses(d.cold, emit);
  } else {
    for (const std::span<const sat::Lit> c : d.clauses) emit(c);
  }
  // Park at the depth mark, exactly like the scratch simplified replay.
  cursor.op = mark.ops;
  cursor.lit = mark.lits;
}

void SharedTape::replay_simplified_to(int k, ClauseTape::Cursor& cursor,
                                      ClauseSink& out) {
  const std::lock_guard<std::mutex> lock(mu_);
  REFBMC_EXPECTS_MSG(cursor.op == 0 && cursor.var_map.empty(),
                     "simplified replay requires a fresh consumer");
  ensure_simplified_locked(k);
  const ClauseTape::Mark& mark = depth_marks_[static_cast<std::size_t>(k)];
  const SimplifiedDepth& s = simplified_[static_cast<std::size_t>(k)];

  const auto& origin = tape_.origin();
  for (std::size_t v = 0; v < mark.vars; ++v) {
    cursor.var_map.push_back(s.remap.is_kept(static_cast<sat::Var>(v))
                                 ? out.add_var(origin[v])
                                 : sat::kVarUndef);
  }
  std::vector<sat::Lit> clause;
  const auto emit = [&](std::span<const sat::Lit> c) {
    clause.clear();
    for (const sat::Lit l : c) clause.push_back(cursor.translate(l));
    out.add_clause(clause);
  };
  if (s.is_cold) {
    TapeCodec::decode_clauses(s.cold, emit);
  } else {
    for (const std::span<const sat::Lit> c : s.clauses) emit(c);
  }
  // Park the cursor at the depth mark: translate() keeps working for
  // property/bad/latch literals over kept (frozen) variables.
  cursor.op = mark.ops;
  cursor.lit = mark.lits;
}

PreprocessStats SharedTape::preprocess_stats_at(int k) {
  const std::lock_guard<std::mutex> lock(mu_);
  ensure_simplified_locked(k);
  return simplified_[static_cast<std::size_t>(k)].stats;
}

std::size_t SharedTape::simplified_clauses_at(int k) {
  const std::lock_guard<std::mutex> lock(mu_);
  ensure_simplified_locked(k);
  return simplified_[static_cast<std::size_t>(k)].clause_count;
}

VarRemapper SharedTape::remapper_at(int k) {
  const std::lock_guard<std::mutex> lock(mu_);
  ensure_simplified_locked(k);
  return simplified_[static_cast<std::size_t>(k)].remap;
}

PreprocessStats SharedTape::incremental_preprocess_stats_at(int k) {
  const std::lock_guard<std::mutex> lock(mu_);
  ensure_inc_delta_locked(k);
  return inc_deltas_[static_cast<std::size_t>(k)].stats;
}

VarRemapper SharedTape::incremental_remapper_at(int k) {
  const std::lock_guard<std::mutex> lock(mu_);
  ensure_inc_delta_locked(k);
  return inc_remap_.as_of(
      k, static_cast<int>(depth_marks_[static_cast<std::size_t>(k)].vars));
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

void SharedTape::set_cold_storage(bool on) {
  const std::lock_guard<std::mutex> lock(mu_);
  cold_ = on;
}

bool SharedTape::cold_storage() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return cold_;
}

void SharedTape::set_mem_tracker(MemTracker* tracker) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (mem_ != nullptr) mem_->sub(last_charged_);
  mem_ = tracker;
  if (mem_ != nullptr) mem_->add(last_charged_);
}

std::size_t SharedTape::memory_bytes() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return tape_.memory_bytes() + cache_bytes_;
}

std::size_t SharedTape::tape_raw_bytes() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return tape_.raw_bytes();
}

std::size_t SharedTape::tape_encoded_bytes() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return tape_.encoded_bytes();
}

}  // namespace refbmc::bmc
