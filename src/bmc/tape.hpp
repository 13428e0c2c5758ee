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
// Events are stored raw in two flat vectors (one op per event, the
// clause literals back to back), so any range replays by a linear walk.
//
// SharedTape wraps tape + FrameEncoder behind a mutex that guards only
// writes: encoding a frame (ensure_depth(k) encodes each frame at most
// once, however many threads ask) and running a depth's preprocessing
// pass.  Copying clauses into a consumer's solver is NOT done under it:
// racing entrants replay the same depths at the same moments, their
// copies together cost several times the tape pass, and a lock held
// across them made every entrant queue behind the others' replays.
//
// Preprocessing (preprocess.hpp) runs under the mutex in one
// PreprocessWorkspace the tape owns, once per depth: each depth's delta
// (the clauses frame k added on top of frame k-1) is simplified against
// everything before it, and every consumer — a fresh scratch solver or
// a persistent incremental one — reaches depth k by replaying the cached
// deltas 0..k.  Each pass scans its tape range straight into the
// workspace, and the arena, occurrence lists and buffers keep their
// capacity from depth to depth and across racing entrants.  A cached
// delta is published once, complete, into reference-stable storage and
// never written again; it carries everything its replay reads (its
// marks, the origins of the variables it creates, its clauses), so
// replay_to takes the lock only to make the depths ready and collect
// them, then translates and adds the clauses after unlocking.  With
// preprocessing off, replay walks the raw tape, whose vectors grow while
// frames are encoded, so that path still replays under the lock.  The
// deltas share one cumulative witness stack whose entries carry the
// depth that eliminated (and resurrected) them, so the view as of any
// depth is rebuilt on demand.  Every cache's flat storage, the witness
// stack included, is charged to the MemTracker, and the footprint is
// published in an atomic that memory_bytes() reads without the lock.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
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
    return Mark{ops_.size(), lits_.size(), origin_.size(), num_clauses_};
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
  /// the next callback).  Either callback may be empty.
  void scan(std::size_t op_begin, std::size_t op_end,
            const std::function<void(std::size_t)>& on_vars,
            const std::function<void(std::span<const sat::Lit>)>& on_clause)
      const;

  /// Capacity hints for the recording vectors, ADDED to what is already
  /// stored (netlist-derived, see SharedTape's per-frame estimate).
  void reserve_additional(std::size_t ops, std::size_t lits) {
    ops_.reserve(ops_.size() + ops);
    lits_.reserve(lits_.size() + lits);
  }

  /// The tape's actual heap footprint: the capacity of its three
  /// vectors.
  std::size_t memory_bytes() const {
    return ops_.capacity() * sizeof(std::int32_t) +
           lits_.capacity() * sizeof(sat::Lit) +
           origin_.capacity() * sizeof(VarOrigin);
  }

 private:
  static constexpr std::int32_t kVarOp = -1;

  std::vector<std::int32_t> ops_;  // kVarOp or a literal count
  std::vector<sat::Lit> lits_;     // flattened clause literals
  std::vector<VarOrigin> origin_;  // per tape variable
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

  /// What a consumer reads of depth k besides its clauses.  All of it is
  /// fixed once depth k is ready, so replay_to hands it back from the
  /// lock it already holds instead of every caller locking again (in a
  /// race, a second lock queues behind a rival's delta pass).
  struct DepthInfo {
    sat::Lit property;  // tape space; translate through the replay cursor
    /// The clause count a fresh consumer holds after replaying to k
    /// (simplified_clauses_at(k)).
    std::size_t clauses = 0;
    EncodeStats encode;                  // stats_at(k)
    std::uint64_t prev_simplify_ns = 0;  // stats_at(k-1).simplify_ns; 0 at k=0
    /// Depth k's delta pass (preprocess_stats_at(k)); zero with
    /// preprocessing off.
    PreprocessStats preprocess;
  };

  /// Moves `cursor` from the depth it is parked at (a fresh cursor is
  /// parked at no depth) up to depth k, ensuring k first, and replays
  /// into `out` what lies between: the raw tape with preprocessing off,
  /// else each intermediate depth's cached simplified delta.  Every
  /// consumer reaches the same formula through this one call, whether
  /// it takes depth k in one step (a fresh scratch solver) or a depth at
  /// a time (an incremental solver).  Thread-safe.  With preprocessing
  /// on, the lock is held once, to run any missing delta passes and
  /// collect the deltas and depth k's DepthInfo; `out` is fed after it
  /// is released, so `out` may be slow without stalling other consumers.
  /// With preprocessing off the raw tape is replayed under the lock.
  DepthInfo replay_to(int k, ClauseTape::Cursor& cursor, ClauseSink& out);

  // The per-depth accessors below each take the lock; a consumer that
  // replays reads the same values from replay_to's DepthInfo instead.

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
  /// counts for 0..k.
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
  /// Cumulative encoder counters after frame k (the simplification
  /// savings DepthStats reports).
  EncodeStats stats_at(int k);
  EncodeStats stats() const;

  // ---- space accounting -----------------------------------------------
  /// Tape + cache footprint deltas are charged here (may be null).
  void set_mem_tracker(MemTracker* tracker);

  /// Heap footprint of the tape and its per-depth caches (the value
  /// charged to the MemTracker), as of the last encode or delta pass.
  /// Lock-free: an atomic read.
  std::size_t memory_bytes() const {
    return footprint_.load(std::memory_order_relaxed);
  }

 private:
  /// One depth's cached delta: the variables resurrected for it, which
  /// of its new variables survived, and the simplified delta clauses
  /// (kit clauses included), all in tape space, plus what replay reads
  /// besides: the depth's marks and the origin of every variable the
  /// replay creates.  Built under the lock and published complete;
  /// after that nothing writes it, so any number of consumers replay it
  /// without the lock.  Consumers replay deltas strictly in depth
  /// order, so caching makes the stream identical race-wide.  The
  /// remapper a consumer at depth k completes models with is
  /// inc_remap_.as_of(k), immune to faster consumers advancing the
  /// cumulative state past k.  stats.clauses_out is the list's size.
  struct IncDelta {
    ClauseTape::Mark prev;              // depth f-1's mark ({} for f = 0)
    ClauseTape::Mark mark;              // depth f's mark
    std::vector<sat::Var> resurrected;  // sink creation order
    std::vector<char> kept_new;         // per var in (prev, mark]
    std::vector<VarOrigin> origins;     // per created var, creation order
    ClauseList clauses;                 // kits + simplified delta
    PreprocessStats stats;

    std::size_t memory_bytes() const {
      return clauses.memory_bytes() +
             resurrected.capacity() * sizeof(sat::Var) + kept_new.capacity() +
             origins.capacity() * sizeof(VarOrigin);
    }
  };

  void ensure_locked(int k);
  /// Depth k's DepthInfo; depth k (and, with preprocessing on, its
  /// delta) must be ready.
  DepthInfo depth_info_locked(int k) const;
  /// Runs the delta passes of every depth up to f that lacks one.
  void ensure_inc_delta_locked(int f);
  /// Depth f's delta pass (f = inc_deltas_.size(): passes run strictly
  /// in depth order, since the cumulative state only makes sense built
  /// that way).  The simplification state is cumulative: root facts from
  /// earlier deltas seed the pass, the VarRemapper witness stack is
  /// shared across depths, and a delta that references a variable
  /// eliminated at an earlier depth, or whose property or bad literal
  /// names one, RESURRECTS it (the variable is re-created in the sink
  /// and its removed-clause kit is re-emitted before the delta,
  /// restoring every deleted constraint).
  IncDelta build_inc_delta_locked(int f);
  /// Replays a published delta into a consumer whose cursor is parked at
  /// the previous depth's mark (or fresh, for depth 0).  Reads only `d`,
  /// so it runs without the lock.
  static void replay_delta(const IncDelta& d, ClauseTape::Cursor& cursor,
                           ClauseSink& out, std::vector<sat::Lit>& clause);
  void build_frozen_locked(int k, std::size_t num_vars,
                           std::vector<char>& frozen) const;
  void recharge_locked();

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
  // + root facts carried forward.  inc_deltas_[f] is depth f's published
  // delta; a deque, so publishing depth f+1 never moves depth f.
  std::deque<IncDelta> inc_deltas_;
  VarRemapper inc_remap_{0};
  std::vector<sat::lbool> inc_assigned_;       // per tape var
  PreprocessWorkspace work_;                   // every pass's scratch

  // Space accounting: netlist-derived per-frame reserve estimate and the
  // footprint charged to `mem_`.
  std::size_t est_ops_frame_ = 0;
  std::size_t est_lits_frame_ = 0;
  // Last value pushed to mem_; written under the lock, read without it.
  std::atomic<std::size_t> footprint_{0};
  MemTracker* mem_ = nullptr;
};

}  // namespace refbmc::bmc
