#include "model/stats.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>

namespace refbmc::model {

NetlistStats analyze(const Netlist& net) {
  NetlistStats stats;
  stats.num_inputs = net.num_inputs();
  stats.num_latches = net.num_latches();
  stats.num_ands = net.num_ands();
  stats.num_outputs = net.outputs().size();
  stats.num_bads = net.bad_properties().size();

  for (const NodeId latch : net.latches())
    if (net.latch_init(latch).is_undef()) ++stats.uninitialised_latches;

  // Logic depth: AND fanins precede the node, so one pass suffices.
  std::vector<int> depth(net.num_nodes(), 0);
  for (NodeId id = 0; id < net.num_nodes(); ++id) {
    const Node& n = net.node(id);
    if (n.kind != NodeKind::And) continue;
    depth[id] = 1 + std::max(depth[n.fanin0.node()], depth[n.fanin1.node()]);
    stats.logic_depth = std::max(stats.logic_depth, depth[id]);
  }

  for (const BadProperty& bad : net.bad_properties())
    stats.coi_sizes.push_back(net.cone_of_influence({bad.signal}).size());
  return stats;
}

std::string NetlistStats::to_string() const {
  std::ostringstream os;
  os << num_inputs << " inputs, " << num_latches << " latches";
  if (uninitialised_latches > 0)
    os << " (" << uninitialised_latches << " uninitialised)";
  os << ", " << num_ands << " ANDs (depth " << logic_depth << "), "
     << num_outputs << " outputs, " << num_bads << " properties";
  for (std::size_t i = 0; i < coi_sizes.size(); ++i)
    os << (i == 0 ? "; COI " : ", ") << coi_sizes[i];
  return os.str();
}

namespace {

std::string node_name(const Netlist& net, NodeId id) {
  if (!net.name(id).empty()) return net.name(id);
  std::string name = "n";
  name += std::to_string(id);
  return name;
}

void write_edge(std::ostream& out, const Netlist& net, Signal from,
                NodeId to, const char* style) {
  if (from.is_const()) {
    out << "  const" << (from.negated() ? "1" : "0") << " -> \""
        << node_name(net, to) << "\"";
  } else {
    out << "  \"" << node_name(net, from.node()) << "\" -> \""
        << node_name(net, to) << "\"";
  }
  out << " [";
  if (from.negated() && !from.is_const()) out << "style=dashed,";
  out << "class=\"" << style << "\"];\n";
}

}  // namespace

void write_dot(std::ostream& out, const Netlist& net) {
  out << "digraph netlist {\n  rankdir=LR;\n";
  bool const_used[2] = {false, false};
  for (NodeId id = 1; id < net.num_nodes(); ++id) {
    const Node& n = net.node(id);
    for (const Signal s :
         {n.fanin0, n.kind == NodeKind::And ? n.fanin1 : n.fanin0}) {
      if (s.is_const()) const_used[s.negated() ? 1 : 0] = true;
    }
  }
  if (const_used[0]) out << "  const0 [shape=plaintext,label=\"0\"];\n";
  if (const_used[1]) out << "  const1 [shape=plaintext,label=\"1\"];\n";

  for (const NodeId id : net.inputs())
    out << "  \"" << node_name(net, id) << "\" [shape=diamond];\n";
  for (const NodeId id : net.latches()) {
    const sat::lbool init = net.latch_init(id);
    out << "  \"" << node_name(net, id) << "\" [shape=box,label=\""
        << node_name(net, id) << "\\ninit="
        << (init.is_undef() ? "x" : init.is_true() ? "1" : "0") << "\"];\n";
  }
  for (NodeId id = 1; id < net.num_nodes(); ++id) {
    const Node& n = net.node(id);
    if (n.kind != NodeKind::And) continue;
    out << "  \"" << node_name(net, id) << "\" [shape=circle,label=\"&\"];\n";
    write_edge(out, net, n.fanin0, id, "and");
    write_edge(out, net, n.fanin1, id, "and");
  }
  for (const NodeId id : net.latches()) {
    const Signal next = net.latch_next(id);
    if (next.is_const()) {
      const_used[next.negated() ? 1 : 0] = true;
      out << "  const" << (next.negated() ? "1" : "0") << " -> \""
          << node_name(net, id) << "\" [style=dotted];\n";
    } else {
      out << "  \"" << node_name(net, next.node()) << "\" -> \""
          << node_name(net, id) << "\" [style=dotted"
          << (next.negated() ? ",arrowhead=odot" : "") << "];\n";
    }
  }
  for (std::size_t i = 0; i < net.bad_properties().size(); ++i) {
    const BadProperty& bad = net.bad_properties()[i];
    const std::string label =
        bad.name.empty() ? "bad" + std::to_string(i) : bad.name;
    out << "  \"" << label << "\" [shape=octagon,color=red];\n";
    if (bad.signal.is_const()) {
      out << "  const" << (bad.signal.negated() ? "1" : "0") << " -> \""
          << label << "\";\n";
    } else {
      out << "  \"" << node_name(net, bad.signal.node()) << "\" -> \""
          << label << "\""
          << (bad.signal.negated() ? " [style=dashed]" : "") << ";\n";
    }
  }
  out << "}\n";
}

std::string to_dot_string(const Netlist& net) {
  std::ostringstream os;
  write_dot(os, net);
  return os.str();
}

}  // namespace refbmc::model
