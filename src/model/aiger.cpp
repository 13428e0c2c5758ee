#include "model/aiger.hpp"

#include <climits>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace refbmc::model {
namespace {

struct AigerAnd {
  unsigned lhs, rhs0, rhs1;
};

[[noreturn]] void fail(const std::string& msg) {
  throw std::invalid_argument("aiger: " + msg);
}

/// The largest variable a 32-bit literal (2 * var + sign) can name.  A
/// header's M above it would wrap the parser's `m + 1` tables and
/// literal arithmetic, so it is rejected up front.
constexpr unsigned kMaxVar = (UINT_MAX - 1) / 2;

}  // namespace

// Defined below; reads the ASCII body (the public read_aiger dispatches).
Netlist read_aiger_ascii(std::istream& in);

namespace {

/// Binary-format helpers: AIGER's LEB128-style delta code (7 bits per
/// byte, high bit = continuation).
unsigned decode_delta(const std::string& buf, std::size_t& pos) {
  unsigned value = 0;
  int shift = 0;
  while (true) {
    if (pos >= buf.size()) fail("truncated binary delta code");
    const unsigned byte = static_cast<unsigned char>(buf[pos++]);
    value |= (byte & 0x7fu) << shift;
    if ((byte & 0x80u) == 0) return value;
    shift += 7;
    if (shift > 28) fail("binary delta code overflow");
  }
}

void encode_delta(std::ostream& out, unsigned delta) {
  while (delta >= 0x80u) {
    out.put(static_cast<char>((delta & 0x7fu) | 0x80u));
    delta >>= 7;
  }
  out.put(static_cast<char>(delta));
}

/// Reads one text line from `buf` starting at `pos` (consuming the '\n').
std::string take_line(const std::string& buf, std::size_t& pos,
                      const char* what) {
  const std::size_t nl = buf.find('\n', pos);
  if (nl == std::string::npos) fail(std::string("missing ") + what);
  std::string line = buf.substr(pos, nl - pos);
  pos = nl + 1;
  return line;
}

Netlist read_aiger_binary_buffer(const std::string& buf);

}  // namespace

Netlist read_aiger(std::istream& in) {
  // Slurp: the binary format interleaves text and raw bytes, so line-based
  // reading cannot be used throughout.
  std::string buffer((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
  if (buffer.rfind("aig ", 0) == 0) return read_aiger_binary_buffer(buffer);
  std::istringstream ascii(buffer);
  return read_aiger_ascii(ascii);
}

Netlist read_aiger_ascii(std::istream& in) {
  std::string header;
  if (!std::getline(in, header)) fail("empty input");
  std::istringstream hs(header);
  std::string magic;
  unsigned m = 0, i = 0, l = 0, o = 0, a = 0, b = 0;
  hs >> magic >> m >> i >> l >> o >> a;
  if (magic != "aag" || hs.fail())
    fail("expected 'aag M I L O A [B]' header, got: " + header);
  if (!(hs >> b)) b = 0;
  unsigned extra = 0;
  if (hs >> extra && extra != 0)
    fail("C/J/F sections are not supported");
  if (m > kMaxVar) fail("M exceeds the largest 32-bit literal's variable");
  // In 64 bits: counts near UINT_MAX must not wrap past the check.
  if (m < std::uint64_t{i} + l + a) fail("M smaller than I+L+A");

  std::vector<unsigned> input_lits(i);
  struct LatchLine {
    unsigned lit, next;
    long long init;  // -1 = uninitialised (own literal)
  };
  std::vector<LatchLine> latch_lines(l);
  std::vector<unsigned> output_lits(o);
  std::vector<unsigned> bad_lits(b);
  std::vector<AigerAnd> ands(a);

  const auto read_line = [&](const char* what) {
    std::string line;
    if (!std::getline(in, line)) fail(std::string("missing ") + what + " line");
    return line;
  };
  const auto check_lit = [&](unsigned lit) {
    if (lit / 2 > m) fail("literal out of range: " + std::to_string(lit));
  };

  for (unsigned k = 0; k < i; ++k) {
    std::istringstream ls(read_line("input"));
    if (!(ls >> input_lits[k]) || input_lits[k] % 2 != 0 ||
        input_lits[k] == 0)
      fail("malformed input line");
    check_lit(input_lits[k]);
  }
  for (unsigned k = 0; k < l; ++k) {
    std::istringstream ls(read_line("latch"));
    LatchLine& ll = latch_lines[k];
    if (!(ls >> ll.lit >> ll.next) || ll.lit % 2 != 0 || ll.lit == 0)
      fail("malformed latch line");
    check_lit(ll.lit);
    check_lit(ll.next);
    unsigned init = 0;
    if (ls >> init) {
      if (init == 0 || init == 1)
        ll.init = init;
      else if (init == ll.lit)
        ll.init = -1;  // uninitialised
      else
        fail("latch init must be 0, 1, or the latch literal");
    } else {
      ll.init = 0;
    }
  }
  for (unsigned k = 0; k < o; ++k) {
    std::istringstream ls(read_line("output"));
    if (!(ls >> output_lits[k])) fail("malformed output line");
    check_lit(output_lits[k]);
  }
  for (unsigned k = 0; k < b; ++k) {
    std::istringstream ls(read_line("bad"));
    if (!(ls >> bad_lits[k])) fail("malformed bad line");
    check_lit(bad_lits[k]);
  }
  std::map<unsigned, AigerAnd> and_by_var;
  for (unsigned k = 0; k < a; ++k) {
    std::istringstream ls(read_line("and"));
    AigerAnd& g = ands[k];
    if (!(ls >> g.lhs >> g.rhs0 >> g.rhs1) || g.lhs % 2 != 0 || g.lhs == 0)
      fail("malformed and line");
    check_lit(g.lhs);
    check_lit(g.rhs0);
    check_lit(g.rhs1);
    if (!and_by_var.emplace(g.lhs / 2, g).second)
      fail("duplicate AND definition");
  }

  // Symbol table and comments.
  std::map<unsigned, std::string> input_names, latch_names, bad_names;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line[0] == 'c') break;  // comment section: ignore the rest
    std::istringstream ls(line);
    std::string tag;
    ls >> tag;
    if (tag.size() < 2) fail("malformed symbol line: " + line);
    unsigned idx = 0;
    try {
      idx = static_cast<unsigned>(std::stoul(tag.substr(1)));
    } catch (const std::exception&) {
      fail("malformed symbol index: " + line);
    }
    std::string name;
    std::getline(ls, name);
    if (!name.empty() && name[0] == ' ') name.erase(0, 1);
    switch (tag[0]) {
      case 'i': input_names[idx] = name; break;
      case 'l': latch_names[idx] = name; break;
      case 'b': bad_names[idx] = name; break;
      case 'o': break;  // output names are not retained on the netlist
      default: fail("unknown symbol tag: " + line);
    }
  }

  // Build the netlist: aiger var → Signal of the created node.
  Netlist net;
  std::vector<Signal> sig_of_var(m + 1, Signal::constant(false));
  std::vector<char> defined(m + 1, 0);
  defined[0] = 1;

  for (unsigned k = 0; k < i; ++k) {
    const unsigned var = input_lits[k] / 2;
    if (defined[var]) fail("input redefines a variable");
    auto it = input_names.find(k);
    sig_of_var[var] =
        net.add_input(it == input_names.end() ? "" : it->second);
    defined[var] = 1;
  }
  for (unsigned k = 0; k < l; ++k) {
    const unsigned var = latch_lines[k].lit / 2;
    if (defined[var]) fail("latch redefines a variable");
    const sat::lbool init = latch_lines[k].init < 0
                                ? sat::l_Undef
                                : sat::lbool(latch_lines[k].init == 1);
    auto it = latch_names.find(k);
    sig_of_var[var] =
        net.add_latch(init, it == latch_names.end() ? "" : it->second);
    defined[var] = 1;
  }

  // Create AND nodes on demand (AAG permits any order); detect cycles.
  std::vector<char> visiting(m + 1, 0);
  const std::function<Signal(unsigned)> lit_signal =
      [&](unsigned lit) -> Signal {
    const unsigned var = lit / 2;
    const bool neg = (lit & 1u) != 0;
    if (!defined[var]) {
      const auto it = and_by_var.find(var);
      if (it == and_by_var.end())
        fail("undefined variable " + std::to_string(var));
      if (visiting[var]) fail("cyclic AND definition");
      visiting[var] = 1;
      const Signal s0 = lit_signal(it->second.rhs0);
      const Signal s1 = lit_signal(it->second.rhs1);
      visiting[var] = 0;
      sig_of_var[var] = net.add_and(s0, s1);
      defined[var] = 1;
    }
    const Signal s = sig_of_var[var];
    return neg ? !s : s;
  };

  for (const auto& [var, g] : and_by_var) {
    (void)g;
    (void)lit_signal(2 * var);
  }
  for (unsigned k = 0; k < l; ++k) {
    net.set_next(sig_of_var[latch_lines[k].lit / 2],
                 lit_signal(latch_lines[k].next));
  }
  for (unsigned k = 0; k < o; ++k)
    net.add_output(lit_signal(output_lits[k]));
  for (unsigned k = 0; k < b; ++k) {
    auto it = bad_names.find(k);
    net.add_bad(lit_signal(bad_lits[k]),
                it == bad_names.end() ? "" : it->second);
  }
  net.check();
  return net;
}

Netlist read_aiger_string(const std::string& text) {
  std::istringstream in(text);
  return read_aiger(in);
}

Netlist read_aiger_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) fail("cannot open file: " + path);
  return read_aiger(in);
}

void write_aiger(std::ostream& out, const Netlist& net) {
  // Assign aiger variables: inputs, then latches, then ANDs in node order
  // (fanins precede ANDs, so this is topological).
  std::vector<unsigned> var_of_node(net.num_nodes(), 0);
  unsigned next_var = 1;
  for (const NodeId id : net.inputs()) var_of_node[id] = next_var++;
  for (const NodeId id : net.latches()) var_of_node[id] = next_var++;
  std::vector<NodeId> and_nodes;
  for (NodeId id = 0; id < net.num_nodes(); ++id) {
    if (net.kind(id) == NodeKind::And) {
      var_of_node[id] = next_var++;
      and_nodes.push_back(id);
    }
  }
  const auto lit_of = [&](Signal s) -> unsigned {
    return 2 * var_of_node[s.node()] + (s.negated() ? 1u : 0u);
  };

  out << "aag " << (next_var - 1) << ' ' << net.num_inputs() << ' '
      << net.num_latches() << ' ' << net.outputs().size() << ' '
      << and_nodes.size();
  if (!net.bad_properties().empty())
    out << ' ' << net.bad_properties().size();
  out << '\n';

  for (const NodeId id : net.inputs())
    out << 2 * var_of_node[id] << '\n';
  for (const NodeId id : net.latches()) {
    out << 2 * var_of_node[id] << ' ' << lit_of(net.latch_next(id));
    const sat::lbool init = net.latch_init(id);
    if (init.is_undef())
      out << ' ' << 2 * var_of_node[id];
    else if (init.is_true())
      out << " 1";
    out << '\n';
  }
  for (const Signal s : net.outputs()) out << lit_of(s) << '\n';
  for (const BadProperty& b : net.bad_properties())
    out << lit_of(b.signal) << '\n';
  for (const NodeId id : and_nodes) {
    const Node& n = net.node(id);
    out << 2 * var_of_node[id] << ' ' << lit_of(n.fanin0) << ' '
        << lit_of(n.fanin1) << '\n';
  }

  for (std::size_t k = 0; k < net.inputs().size(); ++k)
    if (!net.name(net.inputs()[k]).empty())
      out << 'i' << k << ' ' << net.name(net.inputs()[k]) << '\n';
  for (std::size_t k = 0; k < net.latches().size(); ++k)
    if (!net.name(net.latches()[k]).empty())
      out << 'l' << k << ' ' << net.name(net.latches()[k]) << '\n';
  for (std::size_t k = 0; k < net.bad_properties().size(); ++k)
    if (!net.bad_properties()[k].name.empty())
      out << 'b' << k << ' ' << net.bad_properties()[k].name << '\n';
}

std::string to_aiger_string(const Netlist& net) {
  std::ostringstream os;
  write_aiger(os, net);
  return os.str();
}

void write_aiger_file(const std::string& path, const Netlist& net) {
  std::ofstream out(path);
  if (!out) fail("cannot open file for writing: " + path);
  write_aiger(out, net);
}

// ---- binary format ---------------------------------------------------------

namespace {

Netlist read_aiger_binary_buffer(const std::string& buf) {
  std::size_t pos = 0;
  std::istringstream hs(take_line(buf, pos, "header"));
  std::string magic;
  unsigned m = 0, i = 0, l = 0, o = 0, a = 0, b = 0;
  hs >> magic >> m >> i >> l >> o >> a;
  if (magic != "aig" || hs.fail()) fail("malformed binary header");
  if (!(hs >> b)) b = 0;
  unsigned extra = 0;
  if (hs >> extra && extra != 0) fail("C/J/F sections are not supported");
  if (m > kMaxVar) fail("M exceeds the largest 32-bit literal's variable");
  if (m != std::uint64_t{i} + l + a)
    fail("binary format requires M == I + L + A exactly");

  // Build directly: the binary format fixes the numbering — inputs are
  // variables 1..I, latches I+1..I+L, ANDs I+L+1..M, in order.
  Netlist net;
  std::vector<Signal> sig_of_var(m + 1, Signal::constant(false));
  for (unsigned k = 1; k <= i; ++k) sig_of_var[k] = net.add_input();

  struct LatchLine {
    unsigned next;
    long long init;
  };
  std::vector<LatchLine> latch_lines(l);
  for (unsigned k = 0; k < l; ++k) {
    std::istringstream ls(take_line(buf, pos, "latch line"));
    LatchLine& ll = latch_lines[k];
    if (!(ls >> ll.next)) fail("malformed binary latch line");
    if (ll.next / 2 > m) fail("latch next literal out of range");
    unsigned init = 0;
    const unsigned latch_lit = 2 * (i + k + 1);
    if (ls >> init) {
      if (init == 0 || init == 1)
        ll.init = init;
      else if (init == latch_lit)
        ll.init = -1;
      else
        fail("latch init must be 0, 1, or the latch literal");
    } else {
      ll.init = 0;
    }
    sig_of_var[i + k + 1] = net.add_latch(
        ll.init < 0 ? sat::l_Undef : sat::lbool(ll.init == 1));
  }

  std::vector<unsigned> output_lits(o);
  for (unsigned k = 0; k < o; ++k) {
    std::istringstream ls(take_line(buf, pos, "output line"));
    if (!(ls >> output_lits[k]) || output_lits[k] / 2 > m)
      fail("malformed binary output line");
  }
  std::vector<unsigned> bad_lits(b);
  for (unsigned k = 0; k < b; ++k) {
    std::istringstream ls(take_line(buf, pos, "bad line"));
    if (!(ls >> bad_lits[k]) || bad_lits[k] / 2 > m)
      fail("malformed binary bad line");
  }

  const auto lit_signal = [&](unsigned lit) {
    const Signal s = sig_of_var[lit / 2];
    return (lit & 1u) ? !s : s;
  };

  // Delta-coded AND section: for the k-th AND, lhs = 2(I+L+k+1) and the
  // file stores lhs-rhs0 followed by rhs0-rhs1 (so lhs > rhs0 >= rhs1).
  for (unsigned k = 0; k < a; ++k) {
    const unsigned lhs = 2 * (i + l + k + 1);
    const unsigned delta0 = decode_delta(buf, pos);
    if (delta0 == 0 || delta0 > lhs) fail("invalid AND delta0");
    const unsigned rhs0 = lhs - delta0;
    const unsigned delta1 = decode_delta(buf, pos);
    if (delta1 > rhs0) fail("invalid AND delta1");
    const unsigned rhs1 = rhs0 - delta1;
    sig_of_var[lhs / 2] = net.add_and(lit_signal(rhs0), lit_signal(rhs1));
  }

  for (unsigned k = 0; k < l; ++k)
    net.set_next(sig_of_var[i + k + 1], lit_signal(latch_lines[k].next));
  for (unsigned k = 0; k < o; ++k) net.add_output(lit_signal(output_lits[k]));
  for (unsigned k = 0; k < b; ++k) net.add_bad(lit_signal(bad_lits[k]));

  // Symbol table / comments (text again).
  while (pos < buf.size()) {
    const std::string line = take_line(buf, pos, "symbol line");
    if (line.empty()) continue;
    if (line[0] == 'c') break;
    std::istringstream ls(line);
    std::string tag;
    ls >> tag;
    if (tag.size() < 2) fail("malformed symbol line: " + line);
    unsigned idx = 0;
    try {
      idx = static_cast<unsigned>(std::stoul(tag.substr(1)));
    } catch (const std::exception&) {
      fail("malformed symbol index: " + line);
    }
    std::string name;
    std::getline(ls, name);
    if (!name.empty() && name[0] == ' ') name.erase(0, 1);
    switch (tag[0]) {
      case 'i':
        if (idx >= i) fail("symbol index out of range");
        net.set_name(net.inputs()[idx], name);
        break;
      case 'l':
        if (idx >= l) fail("symbol index out of range");
        net.set_name(net.latches()[idx], name);
        break;
      case 'b':
        if (idx >= b) fail("symbol index out of range");
        net.replace_bad(idx, net.bad_properties()[idx].signal, name);
        break;
      case 'o':
        break;
      default:
        fail("unknown symbol tag: " + line);
    }
  }
  net.check();
  return net;
}

}  // namespace

void write_aiger_binary(std::ostream& out, const Netlist& net) {
  // Canonical dense numbering, as in the ASCII writer.
  std::vector<unsigned> var_of_node(net.num_nodes(), 0);
  unsigned next_var = 1;
  for (const NodeId id : net.inputs()) var_of_node[id] = next_var++;
  for (const NodeId id : net.latches()) var_of_node[id] = next_var++;
  std::vector<NodeId> and_nodes;
  for (NodeId id = 0; id < net.num_nodes(); ++id) {
    if (net.kind(id) == NodeKind::And) {
      var_of_node[id] = next_var++;
      and_nodes.push_back(id);
    }
  }
  const auto lit_of = [&](Signal s) -> unsigned {
    return 2 * var_of_node[s.node()] + (s.negated() ? 1u : 0u);
  };

  out << "aig " << (next_var - 1) << ' ' << net.num_inputs() << ' '
      << net.num_latches() << ' ' << net.outputs().size() << ' '
      << and_nodes.size();
  if (!net.bad_properties().empty())
    out << ' ' << net.bad_properties().size();
  out << '\n';

  for (const NodeId id : net.latches()) {
    out << lit_of(net.latch_next(id));
    const sat::lbool init = net.latch_init(id);
    if (init.is_undef())
      out << ' ' << 2 * var_of_node[id];
    else if (init.is_true())
      out << " 1";
    out << '\n';
  }
  for (const Signal s : net.outputs()) out << lit_of(s) << '\n';
  for (const BadProperty& b : net.bad_properties())
    out << lit_of(b.signal) << '\n';

  for (const NodeId id : and_nodes) {
    const Node& n = net.node(id);
    const unsigned lhs = 2 * var_of_node[id];
    unsigned rhs0 = lit_of(n.fanin0);
    unsigned rhs1 = lit_of(n.fanin1);
    if (rhs0 < rhs1) std::swap(rhs0, rhs1);  // format wants rhs0 >= rhs1
    encode_delta(out, lhs - rhs0);
    encode_delta(out, rhs0 - rhs1);
  }

  for (std::size_t k = 0; k < net.inputs().size(); ++k)
    if (!net.name(net.inputs()[k]).empty())
      out << 'i' << k << ' ' << net.name(net.inputs()[k]) << '\n';
  for (std::size_t k = 0; k < net.latches().size(); ++k)
    if (!net.name(net.latches()[k]).empty())
      out << 'l' << k << ' ' << net.name(net.latches()[k]) << '\n';
  for (std::size_t k = 0; k < net.bad_properties().size(); ++k)
    if (!net.bad_properties()[k].name.empty())
      out << 'b' << k << ' ' << net.bad_properties()[k].name << '\n';
}

std::string to_aiger_binary_string(const Netlist& net) {
  std::ostringstream os;
  write_aiger_binary(os, net);
  return os.str();
}

}  // namespace refbmc::model
