#include "bmc/trace.hpp"

#include <sstream>
#include <unordered_map>

#include "sim/simulator.hpp"
#include "util/assert.hpp"

namespace refbmc::bmc {

using model::NodeId;

std::string Trace::to_string(const model::Netlist& net) const {
  std::ostringstream os;
  os << "counter-example of length " << depth << " (bad at frame "
     << bad_frame << ")\n";
  const auto& latches = net.latches();
  os << "  init:";
  for (std::size_t i = 0; i < latches.size(); ++i) {
    const std::string& nm = net.name(latches[i]);
    os << ' ';
    if (nm.empty())
      os << 'l' << i;
    else
      os << nm;
    os << '=' << (initial_latches[i] ? '1' : '0');
  }
  os << '\n';
  const auto& ins = net.inputs();
  for (std::size_t f = 0; f < inputs.size(); ++f) {
    os << "  frame " << f << ':';
    for (std::size_t i = 0; i < ins.size(); ++i) {
      const std::string& nm = net.name(ins[i]);
      os << ' ';
      if (nm.empty())
        os << 'i' << i;
      else
        os << nm;
      os << '=' << (inputs[f][i] ? '1' : '0');
    }
    os << '\n';
  }
  return os.str();
}

Trace extract_trace(const model::Netlist& net, int depth,
                    const std::vector<VarOrigin>& origin,
                    const sat::Solver& solver) {
  Trace trace;
  trace.depth = depth;
  trace.bad_frame = depth;  // where BadMode::Last asserts the violation

  // Index model (node, frame) → CNF var from the origin map.
  std::unordered_map<std::uint64_t, sat::Var> var_at;
  var_at.reserve(origin.size());
  for (std::size_t v = 0; v < origin.size(); ++v) {
    const VarOrigin& o = origin[v];
    if (o.frame < 0) continue;
    var_at[(static_cast<std::uint64_t>(o.node) << 20) |
           static_cast<std::uint64_t>(o.frame)] = static_cast<sat::Var>(v);
  }
  const auto model_bit = [&](NodeId node, int frame, bool def) {
    const auto it = var_at.find((static_cast<std::uint64_t>(node) << 20) |
                                static_cast<std::uint64_t>(frame));
    if (it == var_at.end()) return def;  // outside the cone: free choice
    const sat::lbool val = solver.model_value(it->second);
    return val.is_undef() ? def : val.is_true();
  };

  const auto& ins = net.inputs();
  trace.inputs.resize(static_cast<std::size_t>(depth) + 1);
  for (int f = 0; f <= depth; ++f) {
    auto& frame = trace.inputs[static_cast<std::size_t>(f)];
    frame.resize(ins.size());
    for (std::size_t i = 0; i < ins.size(); ++i)
      frame[i] = model_bit(ins[i], f, false);
  }

  const auto& latches = net.latches();
  trace.initial_latches.resize(latches.size());
  for (std::size_t i = 0; i < latches.size(); ++i) {
    const sat::lbool init = net.latch_init(latches[i]);
    trace.initial_latches[i] =
        init.is_undef() ? model_bit(latches[i], 0, false) : init.is_true();
  }
  return trace;
}

Trace minimize_trace(const model::Netlist& net, Trace trace,
                     std::size_t bad_index) {
  REFBMC_EXPECTS_MSG(validate_trace(net, trace, bad_index),
                     "cannot minimize a trace that does not replay");
  // Free initial latch values first (only those not fixed by the model).
  const auto& latches = net.latches();
  for (std::size_t i = 0; i < trace.initial_latches.size(); ++i) {
    if (!net.latch_init(latches[i]).is_undef()) continue;
    if (!trace.initial_latches[i]) continue;
    trace.initial_latches[i] = false;
    if (!validate_trace(net, trace, bad_index))
      trace.initial_latches[i] = true;
  }
  // Then every input bit, frame by frame.
  for (auto& frame : trace.inputs) {
    for (std::size_t i = 0; i < frame.size(); ++i) {
      if (!frame[i]) continue;
      frame[i] = false;
      if (!validate_trace(net, trace, bad_index)) frame[i] = true;
    }
  }
  return trace;
}

bool validate_trace(const model::Netlist& net, const Trace& trace,
                    std::size_t bad_index) {
  REFBMC_EXPECTS(bad_index < net.bad_properties().size());
  REFBMC_EXPECTS(trace.inputs.size() ==
                 static_cast<std::size_t>(trace.depth) + 1);
  const model::Signal bad = net.bad_properties()[bad_index].signal;

  sim::Simulator simulator(net);
  simulator.reset(trace.initial_latches);
  for (int f = 0; f <= trace.depth; ++f) {
    simulator.evaluate(trace.inputs[static_cast<std::size_t>(f)]);
    if (simulator.value(bad)) return true;
    if (f < trace.depth)
      simulator.step(trace.inputs[static_cast<std::size_t>(f)]);
  }
  return false;
}

}  // namespace refbmc::bmc
