// The unified time-frame encoder: one implementation of the paper's Eq. 1,
//
//     I(V^0) ∧ ⋀_{1<=i<=k} T(V^{i-1}, W^i, V^i) ∧ ¬P(V^k),
//
// emitting each frame exactly once into a pluggable ClauseSink.  Every
// consumer — the engine's scratch and incremental sessions, k-induction,
// the portfolio's encode-once racing, tests and benches — feeds off this
// single encoder; the old scratch/incremental encoder pair is gone.
//
// Encoding choices:
//  * one CNF variable per (node, frame) for nodes in the sequential COI
//    of the checked bad signal, plus one auxiliary constant-false var;
//  * AND gates: 3 Tseitin clauses per frame;
//  * latches: 2 equivalence clauses connecting latch(i) to its next-state
//    function at frame i-1; initial values as unit clauses at frame 0
//    (uninitialised latches are left unconstrained);
//  * property: BadMode::Last exposes bad at frame k exactly (Eq. 1);
//    BadMode::Any maintains a per-frame prefix disjunction
//    d_k ↔ d_{k-1} ∨ bad_k, so "bad at some frame ≤ k" stays monotone
//    and works in both scratch and incremental sessions.
//
// Frame-wise simplification (EncoderOptions::simplify, on by default)
// shrinks the instance before it ever reaches a solver, on top of the
// COI cut:
//  * constant propagation from the frame-0 initial values: an initialised
//    latch starts as a constant, and everything it forces downstream —
//    through gates and later frames — folds away;
//  * structural hashing of the unrolled AIG: two gates whose fanin
//    literal pairs coincide after folding share one CNF variable, across
//    frames as well as within one (the netlist's own strashing cannot see
//    these merges because they only appear after unrolling);
//  * latch aliasing: latch(i) is the same literal as its next-state
//    function at frame i-1, eliminating the coupling clauses entirely.
// All three preserve satisfiability frame-exactly; EncodeStats counts
// what they removed.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "bmc/cnf.hpp"
#include "model/netlist.hpp"
#include "sat/solver.hpp"

namespace refbmc::bmc {

enum class BadMode {
  Last,  // counter-example of length exactly k (paper's Eq. 1)
  Any,   // counter-example of length at most k
};

/// Where encoded variables and clauses go.  Implementations: sat::Solver
/// adaptor (SolverSink), BmcInstance buffer (InstanceSink), and the
/// replayable ClauseTape (tape.hpp).
class ClauseSink {
 public:
  virtual ~ClauseSink() = default;
  /// Allocates the next variable (dense, starting at 0 per sink) and
  /// records its origin.
  virtual sat::Var add_var(const VarOrigin& origin) = 0;
  virtual void add_clause(std::span<const sat::Lit> lits) = 0;
};

/// Feeds a solver; origins are appended to a caller-owned vector so the
/// caller ends up with the var → (node, frame) map trace extraction and
/// core projection need.
class SolverSink final : public ClauseSink {
 public:
  SolverSink(sat::Solver& solver, std::vector<VarOrigin>& origin)
      : solver_(solver), origin_(origin) {}

  sat::Var add_var(const VarOrigin& origin) override {
    origin_.push_back(origin);
    return solver_.new_var();
  }
  void add_clause(std::span<const sat::Lit> lits) override {
    solver_.add_clause(lits);
  }

 private:
  sat::Solver& solver_;
  std::vector<VarOrigin>& origin_;
};

/// Buffers the encoding into a BmcInstance (cnf + origin map).
class InstanceSink final : public ClauseSink {
 public:
  explicit InstanceSink(BmcInstance& inst) : inst_(inst) {}

  sat::Var add_var(const VarOrigin& origin) override {
    const auto v = static_cast<sat::Var>(inst_.origin.size());
    inst_.origin.push_back(origin);
    inst_.cnf.num_vars = static_cast<int>(inst_.origin.size());
    return v;
  }
  void add_clause(std::span<const sat::Lit> lits) override {
    inst_.cnf.add_clause(std::vector<sat::Lit>(lits.begin(), lits.end()));
  }

 private:
  BmcInstance& inst_;
};

struct EncoderOptions {
  BadMode mode = BadMode::Last;
  /// Emit the initial-state predicate I(V^0) (off for k-induction steps).
  bool constrain_init = true;
  /// Frame-wise simplification (constant propagation, structural hashing,
  /// latch aliasing).  Off reproduces the textbook one-var-per-(node,
  /// frame) encoding.
  bool simplify = true;
};

// EncodeStats (cnf.hpp) carries the encoder counters.  frames_encoded is
// the encode-once proof obligation: however many sessions consume the
// formula, it only ever advances by one per depth.  vars/clauses_removed
// count what simplification saved relative to the unsimplified encoding
// of the same frames.

class FrameEncoder {
 public:
  /// `bad_index` selects the checked property of the model.  The sink
  /// must be empty (no variables yet) and outlive the encoder.
  FrameEncoder(const model::Netlist& net, ClauseSink& sink,
               std::size_t bad_index = 0, EncoderOptions opts = {});

  /// Extends the encoding to depth k.  Monotone: each frame is encoded
  /// exactly once, ever.
  void encode_to(int k);
  int encoded_depth() const { return encoded_depth_; }

  /// Sink-space literal of `s` at `frame` (≤ encoded_depth).
  sat::Lit lit_of(model::Signal s, int frame) const;
  /// The bad signal at `frame`.
  sat::Lit bad(int frame) const { return lit_of(bad_, frame); }
  /// Literal whose truth is "the property is violated at depth k":
  /// bad(k) under BadMode::Last, the prefix disjunction ⋁_{f≤k} bad(f)
  /// under BadMode::Any.
  sat::Lit property(int k) const;
  /// Cone latches (Netlist::latches() order, non-cone latches skipped)
  /// at `frame` — the raw material for simple-path constraints.
  std::vector<sat::Lit> latch_lits(int frame) const;

  /// Nodes in the sequential cone of influence of the property.
  const std::vector<model::NodeId>& cone() const { return cone_; }
  const EncoderOptions& options() const { return opts_; }
  const EncodeStats& stats() const { return stats_; }
  /// The auxiliary constant: this literal is false in every model.
  sat::Lit false_lit() const { return false_lit_; }

 private:
  sat::Lit fresh(model::NodeId node, int frame);
  void emit(std::span<const sat::Lit> lits);
  /// Tseitin AND of two sink literals with folding + structural hashing
  /// (when simplify is on); `origin` labels a fresh variable if one is
  /// needed.
  sat::Lit and_lit(sat::Lit a, sat::Lit b, const VarOrigin& origin);
  void encode_frame(int f);

  sat::Lit& val(model::NodeId node, int frame) {
    return val_[static_cast<std::size_t>(frame) * net_.num_nodes() + node];
  }
  sat::Lit val(model::NodeId node, int frame) const {
    return val_[static_cast<std::size_t>(frame) * net_.num_nodes() + node];
  }

  const model::Netlist& net_;
  ClauseSink& sink_;
  model::Signal bad_;
  EncoderOptions opts_;
  std::vector<model::NodeId> cone_;  // sorted (= topological for ANDs)
  std::vector<char> in_cone_;        // per node
  std::vector<sat::Lit> val_;        // node × frame → sink literal
  std::vector<sat::Lit> any_;        // per frame, BadMode::Any chain
  std::unordered_map<std::uint64_t, sat::Lit> strash_;  // (lit,lit) → AND
  sat::Lit false_lit_;
  int encoded_depth_ = -1;
  EncodeStats stats_;
};

/// One-shot convenience: the full Eq. 1 instance for depth k — path,
/// initial states, and the asserted property clause (bad_lit).  Used by
/// tests, benches and the DIMACS export path.
BmcInstance encode_full(const model::Netlist& net, std::size_t bad_index,
                        int k, EncoderOptions opts = {});

/// Path-only instance: gate relations and latch couplings for frames
/// 0..k, the initial-state predicate iff opts.constrain_init, and NO
/// property clause — per-frame bad literals are exposed in `bad_frames`
/// for the caller to constrain (used by k-induction).
BmcInstance encode_path(const model::Netlist& net, std::size_t bad_index,
                        int k, EncoderOptions opts = {});

}  // namespace refbmc::bmc
