// Sequential circuit model: an And-Inverter Graph with registers.
//
// This is the 4-tuple ⟨V, W, I, T⟩ of the paper's §2: V = latches
// (present-state variables), W = primary inputs, I = latch initial values,
// T = next-state functions expressed as AIG nodes.  Properties are "bad"
// signals (AIGER 1.9 convention): the invariant GP holds iff no bad signal
// is ever 1 in a reachable state, i.e. P = ¬bad.
//
// Signals are AIGER-style literals: a node index with a complement bit.
// AND nodes are structurally hashed and constant-folded at creation.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "sat/types.hpp"  // for lbool (three-valued latch init)
#include "util/assert.hpp"

namespace refbmc::model {

using NodeId = std::uint32_t;
constexpr NodeId kConstNode = 0;  // node 0 is the constant FALSE

/// A signal: reference to a node, possibly complemented.
class Signal {
 public:
  constexpr Signal() : raw_(0) {}  // constant false

  static constexpr Signal make(NodeId node, bool negated = false) {
    Signal s;
    s.raw_ = (node << 1) | static_cast<std::uint32_t>(negated);
    return s;
  }
  static constexpr Signal constant(bool value) {
    return make(kConstNode, value);  // node 0 is FALSE; complement = TRUE
  }

  constexpr NodeId node() const { return raw_ >> 1; }
  constexpr bool negated() const { return (raw_ & 1u) != 0; }
  constexpr std::uint32_t raw() const { return raw_; }
  static constexpr Signal from_raw(std::uint32_t raw) {
    Signal s;
    s.raw_ = raw;
    return s;
  }

  constexpr bool is_const() const { return node() == kConstNode; }
  constexpr bool is_const_false() const { return raw_ == 0; }
  constexpr bool is_const_true() const { return raw_ == 1; }

  constexpr Signal operator!() const {
    Signal s;
    s.raw_ = raw_ ^ 1u;
    return s;
  }

  friend constexpr bool operator==(Signal a, Signal b) {
    return a.raw_ == b.raw_;
  }
  friend constexpr bool operator!=(Signal a, Signal b) {
    return a.raw_ != b.raw_;
  }
  friend constexpr bool operator<(Signal a, Signal b) {
    return a.raw_ < b.raw_;
  }

 private:
  std::uint32_t raw_;
};

enum class NodeKind : std::uint8_t { Const, Input, Latch, And };

struct Node {
  NodeKind kind;
  Signal fanin0;  // And: left operand; Latch: next-state (set via set_next)
  Signal fanin1;  // And: right operand
};

/// Named property: GP with P = ¬signal ("signal is never 1").
struct BadProperty {
  Signal signal;
  std::string name;
};

class Netlist {
 public:
  Netlist();

  // ---- construction ----------------------------------------------------
  Signal add_input(std::string name = "");
  /// Adds a latch with the given initial value (l_Undef = uninitialised,
  /// i.e. both initial values allowed).  The next-state function starts as
  /// the latch itself (self-loop) until set_next is called.
  Signal add_latch(sat::lbool init, std::string name = "");
  void set_next(Signal latch_sig, Signal next);

  /// AND with structural hashing and constant folding; never creates a
  /// node when the result simplifies.
  Signal add_and(Signal a, Signal b);

  void add_output(Signal s, std::string name = "");
  void add_bad(Signal s, std::string name = "");
  /// Replaces an existing bad property (used by circuit transformers).
  void replace_bad(std::size_t index, Signal s, std::string name);

  // ---- queries -----------------------------------------------------------
  std::size_t num_nodes() const { return nodes_.size(); }
  std::size_t num_inputs() const { return inputs_.size(); }
  std::size_t num_latches() const { return latches_.size(); }
  std::size_t num_ands() const { return num_ands_; }

  const Node& node(NodeId id) const {
    REFBMC_EXPECTS(id < nodes_.size());
    return nodes_[id];
  }
  NodeKind kind(NodeId id) const { return node(id).kind; }

  /// Inputs / latches in creation order (their NodeIds).
  const std::vector<NodeId>& inputs() const { return inputs_; }
  const std::vector<NodeId>& latches() const { return latches_; }

  sat::lbool latch_init(NodeId latch) const;
  Signal latch_next(NodeId latch) const;

  const std::vector<Signal>& outputs() const { return outputs_; }
  const std::vector<BadProperty>& bad_properties() const { return bads_; }

  const std::string& name(NodeId id) const;
  void set_name(NodeId id, std::string name);
  /// Reverse lookup; returns nullopt if no node carries `name`.
  std::optional<NodeId> find_by_name(const std::string& name) const;

  /// Nodes reachable backward from `roots` through AND fanins and latch
  /// next-state functions (the sequential cone of influence), as a sorted
  /// vector of NodeIds (always includes the constant node).
  std::vector<NodeId> cone_of_influence(const std::vector<Signal>& roots) const;

  /// Sanity check: every latch has a next-state function whose cone exists,
  /// fanins precede AND nodes, etc.  Throws std::logic_error on violation.
  void check() const;

 private:
  struct PairHash {
    std::size_t operator()(const std::pair<std::uint32_t, std::uint32_t>& p)
        const {
      return std::hash<std::uint64_t>()(
          (static_cast<std::uint64_t>(p.first) << 32) | p.second);
    }
  };

  std::vector<Node> nodes_;
  std::vector<NodeId> inputs_;
  std::vector<NodeId> latches_;
  std::vector<sat::lbool> latch_init_;  // parallel to latches_
  std::vector<Signal> outputs_;
  std::vector<std::string> output_names_;
  std::vector<BadProperty> bads_;
  std::size_t num_ands_ = 0;

  std::vector<std::string> names_;  // parallel to nodes_
  std::unordered_map<std::string, NodeId> name_index_;
  std::unordered_map<std::pair<std::uint32_t, std::uint32_t>, NodeId,
                     PairHash>
      strash_;

  std::unordered_map<NodeId, std::size_t> latch_pos_;  // latch id → index
};

/// Order-stable 64-bit structural hash of the circuit: node kinds and
/// fanins in id order, latch initial values, input/latch creation order,
/// outputs and bad-property signals.  Names are excluded — two netlists
/// that differ only in labels describe the same transition system and
/// hash equal.  This is the identity the serving layer keys on: the
/// result cache's (netlist, bad, depth, config) lookup uses it.
std::uint64_t structural_hash(const Netlist& net);

}  // namespace refbmc::model
