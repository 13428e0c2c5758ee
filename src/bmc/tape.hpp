// Replayable clause streams and the thread-safe shared formula.
//
// A ClauseTape records the encoder's output — variable creations and
// clauses, in order — so the formula can be replayed into any number of
// sinks without re-encoding: a fresh solver per depth (scratch session),
// a persistent solver fed deltas (incremental session), or the P racing
// solvers of the portfolio (encode-once racing).  A Cursor tracks how far
// one consumer has replayed and carries the tape-var → sink-var
// translation (sinks may interleave their own variables, e.g. activation
// literals, so the spaces differ in general).
//
// SharedTape wraps tape + FrameEncoder behind a mutex: ensure_depth(k)
// encodes frames at most once regardless of how many threads ask, and
// replay_to() streams a consumer forward.  Replay happens under the lock
// too — clause copying is orders of magnitude cheaper than solving, so
// contention is negligible next to the O(P × k²) re-encoding it replaces.
// Cold storage (PR 10): freeze_prefix() re-encodes an already-replayed
// event prefix into the compact codec form (tape_codec.hpp) and drops
// the raw vectors — indices stay absolute, every reader goes through
// scan(), and late joiners decode transparently.  SharedTape's
// set_cold_storage(true) freezes each depth's prefix as the next one is
// encoded and keeps the consumed per-depth delta caches encoded too.
// Representation-only: verdicts, counters and replay streams are
// bit-identical with the mode off or on.
//
// Preprocessing (preprocess.hpp) runs under the same mutex in one
// PreprocessWorkspace the tape owns, once per depth: each depth's delta
// (the clauses frame k added on top of frame k-1) is simplified against
// everything before it, and every consumer — a fresh scratch solver or
// a persistent incremental one — reaches depth k by replaying the cached
// deltas 0..k.  Each pass scans its tape range straight into the
// workspace, and the arena, occurrence lists and buffers keep their
// capacity from depth to depth and across racing entrants.  The deltas
// share one cumulative witness stack whose entries carry the depth that
// eliminated (and resurrected) them, so the view as of any depth is
// rebuilt on demand.  Every cache's flat storage, the witness stack
// included, is charged to the MemTracker.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

#include "bmc/encoder.hpp"
#include "bmc/preprocess.hpp"
#include "util/mem_tracker.hpp"

namespace refbmc::bmc {

class ClauseTape final : public ClauseSink {
 public:
  /// A position in the stream; taken with mark(), consumed by replay().
  struct Mark {
    std::size_t ops = 0;
    std::size_t lits = 0;
    std::size_t vars = 0;
    std::size_t clauses = 0;
  };

  /// One consumer's replay state.  var_map[i] is the sink variable that
  /// tape variable i became.
  struct Cursor {
    std::size_t op = 0;
    std::size_t lit = 0;
    std::vector<sat::Var> var_map;

    /// Translates a tape-space literal into the sink's variable space.
    /// Only valid for variables the cursor has already replayed.
    sat::Lit translate(sat::Lit tape_lit) const {
      REFBMC_EXPECTS(static_cast<std::size_t>(tape_lit.var()) <
                     var_map.size());
      return sat::Lit::make(var_map[static_cast<std::size_t>(tape_lit.var())],
                            tape_lit.negated());
    }
  };

  // ---- recording (ClauseSink) -----------------------------------------
  sat::Var add_var(const VarOrigin& origin) override {
    const auto v = static_cast<sat::Var>(origin_.size());
    origin_.push_back(origin);
    ops_.push_back(kVarOp);
    return v;
  }
  void add_clause(std::span<const sat::Lit> lits) override {
    ops_.push_back(static_cast<std::int32_t>(lits.size()));
    lits_.insert(lits_.end(), lits.begin(), lits.end());
    ++num_clauses_;
  }

  // ---- reading ---------------------------------------------------------
  Mark mark() const {
    return Mark{base_ops_ + ops_.size(), base_lits_ + lits_.size(),
                origin_.size(), num_clauses_};
  }
  std::size_t num_vars() const { return origin_.size(); }
  std::size_t num_clauses() const { return num_clauses_; }
  const std::vector<VarOrigin>& origin() const { return origin_; }

  /// Replays events in [cursor, upto) into `out`, advancing the cursor.
  void replay(Cursor& cursor, const Mark& upto, ClauseSink& out) const;

  /// Appends the clauses recorded in [from, upto), in tape variable
  /// space, to `out` (how the preprocessing pass stages its input).
  void append_clauses(const Mark& from, const Mark& upto,
                      ClauseList& out) const;

  /// Walks ops [op_begin, op_end): on_vars(n) per run of add_var ops,
  /// on_clause(lits) per clause in tape literal space (span valid until
  /// the next callback).  Transparent over frozen segments — they are
  /// decoded on the fly.  Either callback may be empty.
  void scan(std::size_t op_begin, std::size_t op_end,
            const std::function<void(std::size_t)>& on_vars,
            const std::function<void(std::span<const sat::Lit>)>& on_clause)
      const;

  // ---- cold storage ----------------------------------------------------
  /// Re-encodes every raw event below `upto` into a compact codec
  /// segment and drops the raw words.  Indices stay absolute (mark(),
  /// Cursor positions and replay() keep working unchanged); reading a
  /// frozen range decodes it through scan().  Monotone: upto must not
  /// precede an earlier freeze.
  void freeze_prefix(const Mark& upto);

  /// Capacity hints for the recording vectors, ADDED to what is already
  /// stored (netlist-derived, see SharedTape's per-frame estimate).
  void reserve_additional(std::size_t ops, std::size_t lits) {
    ops_.reserve(ops_.size() + ops);
    lits_.reserve(lits_.size() + lits);
  }

  std::size_t frozen_segments() const { return frozen_.size(); }
  /// What the whole event stream costs in raw vector form (4 bytes per
  /// op + 4 per literal), frozen or not — the codec's baseline.
  std::size_t raw_bytes() const {
    return (base_ops_ + ops_.size()) * sizeof(std::int32_t) +
           (base_lits_ + lits_.size()) * sizeof(sat::Lit);
  }
  /// Encoded bytes held by frozen segments.
  std::size_t encoded_bytes() const {
    std::size_t n = 0;
    for (const FrozenSegment& s : frozen_) n += s.bytes.size();
    return n;
  }
  /// The tape's actual heap footprint: raw-tail capacity + frozen
  /// segment bytes + the origin vector.
  std::size_t memory_bytes() const {
    std::size_t n = ops_.capacity() * sizeof(std::int32_t) +
                    lits_.capacity() * sizeof(sat::Lit) +
                    origin_.capacity() * sizeof(VarOrigin);
    for (const FrozenSegment& s : frozen_) n += s.bytes.capacity();
    return n;
  }

 private:
  static constexpr std::int32_t kVarOp = -1;

  /// One frozen (codec-encoded) prefix range; segments are contiguous
  /// from op 0 and cover base_ops_ ops / base_lits_ lits in total.
  struct FrozenSegment {
    std::size_t ops = 0;
    std::size_t lits = 0;
    std::vector<std::uint8_t> bytes;
  };

  std::vector<FrozenSegment> frozen_;  // encoded prefix, in order
  std::size_t base_ops_ = 0;   // absolute index of ops_[0]
  std::size_t base_lits_ = 0;  // absolute index of lits_[0]
  std::vector<std::int32_t> ops_;  // raw tail: kVarOp or a literal count
  std::vector<sat::Lit> lits_;     // raw tail: flattened clause literals
  std::vector<VarOrigin> origin_;  // per tape variable (never frozen)
  std::size_t num_clauses_ = 0;
};

/// The one formula of a (netlist, property) pair, encoded exactly once
/// and consumed by any number of sessions, possibly concurrently.
class SharedTape {
 public:
  SharedTape(const model::Netlist& net, std::size_t bad_index = 0,
             EncoderOptions opts = {}, PreprocessOptions preprocess = {});

  const model::Netlist& net() const { return net_; }
  std::size_t bad_index() const { return bad_index_; }
  const EncoderOptions& options() const { return opts_; }
  /// Immutable after construction; racing consumers must agree on it
  /// (the engine asserts a shared tape's options match its own config).
  const PreprocessOptions& preprocess_options() const { return preprocess_; }

  /// Encodes frames up to depth k if not yet present.  Thread-safe; the
  /// frames_encoded() counter advances at most once per depth, ever.
  void ensure_depth(int k);

  /// Moves `cursor` from the depth it is parked at (a fresh cursor is
  /// parked at no depth) up to depth k, ensuring k first, and replays
  /// into `out` what lies between: the raw tape with preprocessing off,
  /// else each intermediate depth's cached simplified delta.  Every
  /// consumer reaches the same formula through this one call, whether
  /// it takes depth k in one step (a fresh scratch solver) or a depth at
  /// a time (an incremental solver).  Thread-safe.
  void replay_to(int k, ClauseTape::Cursor& cursor, ClauseSink& out);

  /// Preprocessing counters of depth k's delta pass (runs the cached
  /// passes up to k first).
  PreprocessStats preprocess_stats_at(int k);
  /// The cumulative remapper as of depth k's delta (witness stack for
  /// model completion across depths): exactly the elimination state a
  /// consumer that replayed to depth k is solving under, even when a
  /// faster consumer has already advanced the cumulative state past k.
  /// Built on demand from the cumulative stack (entries live at depth k,
  /// in elimination order); returned by value.
  VarRemapper remapper_at(int k);
  /// The clause count a fresh consumer holds after replay_to(k): the
  /// tape's own count with preprocessing off, else the sum of the delta
  /// counts for 0..k (the scratch session asserts the round trip).
  std::size_t simplified_clauses_at(int k);

  // Tape-space literals (ensure_depth is implied); translate through a
  // replay cursor before handing them to a sink's solver.
  sat::Lit property(int k);
  sat::Lit bad(int frame);
  std::vector<sat::Lit> latch_lits(int frame);

  /// The raw tape's size at depth k's mark (simplified_clauses_at gives
  /// what a consumer's solver holds).
  ClauseTape::Mark mark_at(int k);

  std::uint64_t frames_encoded() const;
  /// Cumulative encoder counters after frame k (simplification savings
  /// for DepthStats).
  EncodeStats stats_at(int k);
  EncodeStats stats() const;

  // ---- space accounting -----------------------------------------------
  /// Cold storage: when on, each depth's event prefix is frozen (codec-
  /// encoded, raw words dropped) as the next depth is encoded, and the
  /// consumed IncDelta caches are kept encoded too, decoding on replay.
  /// Representation-only — replay streams are bit-identical either way —
  /// so it is excluded from api::config_fingerprint.  Applies to depths
  /// encoded after the call.
  void set_cold_storage(bool on);
  bool cold_storage() const;

  /// Tape + cache footprint deltas are charged here (may be null).
  void set_mem_tracker(MemTracker* tracker);

  /// Heap footprint of the tape and its per-depth caches (the value
  /// charged to the MemTracker).
  std::size_t memory_bytes() const;
  /// Raw-form cost of the event stream (the codec baseline) and the
  /// bytes frozen segments actually hold — the bench_memory ratio.
  std::size_t tape_raw_bytes() const;
  std::size_t tape_encoded_bytes() const;

 private:
  void ensure_locked(int k);
  void ensure_inc_delta_locked(int f);
  /// Replays depth f's cached simplified delta — the clauses frame f
  /// added on top of frame f-1, simplified against everything already
  /// replayed — into a consumer whose cursor is parked at depth f-1's
  /// mark (or fresh, for f = 0).  The simplification state is
  /// cumulative: root facts from earlier deltas seed the pass, the
  /// VarRemapper witness stack is shared across depths, and a delta that
  /// references a variable eliminated at an earlier depth, or whose
  /// property or bad literal names one, transparently RESURRECTS it
  /// (the variable is re-created in the sink and its removed-clause kit
  /// is re-emitted before the delta, restoring every deleted
  /// constraint).  Deltas are computed (and cached) once per
  /// depth, race-wide, so every consumer sees the identical stream.
  void replay_delta_locked(int f, ClauseTape::Cursor& cursor,
                           ClauseSink& out);
  void build_frozen_locked(int k, std::size_t num_vars,
                           std::vector<char>& frozen) const;
  void recharge_locked();

  /// One depth's cached delta: the variables resurrected for it, which
  /// of its new variables survived, and the simplified delta clauses
  /// (kit clauses included), all in tape space.  Consumers replay deltas
  /// strictly in depth order, so caching makes the stream identical
  /// race-wide.  The remapper a consumer at depth k completes models
  /// with is inc_remap_.as_of(k), immune to faster consumers advancing
  /// the cumulative state past k.  stats.clauses_out is the list's size,
  /// also under cold storage, where the list is kept codec-encoded.
  struct IncDelta {
    bool ready = false;
    std::vector<sat::Var> resurrected;  // sink creation order
    std::vector<char> kept_new;         // per var in (prev, mark]
    ClauseList clauses;                 // kits + simplified delta
    std::vector<std::uint8_t> cold;     // encoded `clauses` (cold mode)
    bool is_cold = false;
    PreprocessStats stats;
  };

  mutable std::mutex mu_;
  const model::Netlist& net_;
  std::size_t bad_index_;
  EncoderOptions opts_;
  PreprocessOptions preprocess_;
  ClauseTape tape_;
  FrameEncoder encoder_;
  std::vector<ClauseTape::Mark> depth_marks_;  // per encoded depth
  std::vector<EncodeStats> depth_stats_;       // cumulative per depth
  // Cumulative preprocessing state: witness stack shared across depths
  // + root facts carried forward.
  std::vector<IncDelta> inc_deltas_;           // per depth, lazy
  VarRemapper inc_remap_{0};
  std::vector<sat::lbool> inc_assigned_;       // per tape var
  PreprocessWorkspace work_;                   // every pass's scratch

  // Space accounting (PR 10): cold-storage switch, netlist-derived
  // per-frame reserve estimate, and the footprint charged to `mem_`.
  bool cold_ = false;
  std::size_t est_ops_frame_ = 0;
  std::size_t est_lits_frame_ = 0;
  std::size_t cache_bytes_ = 0;   // per-depth caches + witness stacks
  std::size_t last_charged_ = 0;  // last value pushed to mem_
  MemTracker* mem_ = nullptr;
};

}  // namespace refbmc::bmc
