#include "service/wire.hpp"

#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>

namespace refbmc::service {

// ---- JsonValue -------------------------------------------------------------

JsonValue JsonValue::boolean(bool b) {
  JsonValue v;
  v.kind_ = Kind::Bool;
  v.bool_ = b;
  return v;
}
JsonValue JsonValue::number(double d) {
  JsonValue v;
  v.kind_ = Kind::Number;
  v.number_ = d;
  return v;
}
JsonValue JsonValue::string(std::string s) {
  JsonValue v;
  v.kind_ = Kind::String;
  v.string_ = std::move(s);
  return v;
}
JsonValue JsonValue::array(std::vector<JsonValue> items) {
  JsonValue v;
  v.kind_ = Kind::Array;
  v.items_ = std::move(items);
  return v;
}
JsonValue JsonValue::object(std::vector<Member> members) {
  JsonValue v;
  v.kind_ = Kind::Object;
  v.members_ = std::move(members);
  return v;
}

const JsonValue* JsonValue::find(const std::string& key) const {
  if (kind_ != Kind::Object) return nullptr;
  // Last duplicate wins, matching the parser's documented behaviour.
  const JsonValue* found = nullptr;
  for (const Member& m : members_)
    if (m.first == key) found = &m.second;
  return found;
}

std::string JsonValue::get_string(const std::string& key,
                                  const std::string& def) const {
  const JsonValue* v = find(key);
  return v != nullptr && v->is_string() ? v->as_string() : def;
}
double JsonValue::get_number(const std::string& key, double def) const {
  const JsonValue* v = find(key);
  return v != nullptr && v->is_number() ? v->as_number() : def;
}
bool JsonValue::get_bool(const std::string& key, bool def) const {
  const JsonValue* v = find(key);
  return v != nullptr && v->is_bool() ? v->as_bool() : def;
}
std::int64_t JsonValue::get_int(const std::string& key,
                                std::int64_t def) const {
  const JsonValue* v = find(key);
  return v != nullptr && v->is_number()
             ? static_cast<std::int64_t>(v->as_number())
             : def;
}
std::uint64_t JsonValue::get_uint64(const std::string& key,
                                    std::uint64_t def) const {
  // 64-bit-exact values travel as strings (doubles lose bits past 2^53).
  const JsonValue* v = find(key);
  if (v == nullptr) return def;
  if (v->is_number()) return static_cast<std::uint64_t>(v->as_number());
  if (v->is_string()) {
    errno = 0;
    char* end = nullptr;
    const unsigned long long parsed =
        std::strtoull(v->as_string().c_str(), &end, 10);
    if (errno == 0 && end != nullptr && *end == '\0')
      return static_cast<std::uint64_t>(parsed);
  }
  return def;
}

// ---- parser ----------------------------------------------------------------

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  std::optional<JsonValue> run(std::string* error) {
    std::optional<JsonValue> v = parse_value();
    if (v) {
      skip_ws();
      if (pos_ != text_.size()) {
        v.reset();
        fail("trailing characters after document");
      }
    }
    if (!v && error != nullptr)
      *error = error_ + " at byte " + std::to_string(pos_);
    return v;
  }

 private:
  void fail(const char* why) {
    if (error_.empty()) error_ = why;
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool literal(const char* word) {
    const std::size_t n = std::strlen(word);
    if (text_.compare(pos_, n, word) != 0) return false;
    pos_ += n;
    return true;
  }

  std::optional<JsonValue> parse_value() {
    skip_ws();
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
      return std::nullopt;
    }
    const char c = text_[pos_];
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': {
        std::optional<std::string> s = parse_string();
        if (!s) return std::nullopt;
        return JsonValue::string(std::move(*s));
      }
      case 't':
        if (literal("true")) return JsonValue::boolean(true);
        break;
      case 'f':
        if (literal("false")) return JsonValue::boolean(false);
        break;
      case 'n':
        if (literal("null")) return JsonValue::null();
        break;
      default:
        if (c == '-' || (c >= '0' && c <= '9')) return parse_number();
        break;
    }
    fail("unexpected character");
    return std::nullopt;
  }

  std::optional<JsonValue> parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-'))
      ++pos_;
    errno = 0;
    char* end = nullptr;
    const std::string token = text_.substr(start, pos_ - start);
    const double d = std::strtod(token.c_str(), &end);
    if (errno != 0 || end == nullptr || *end != '\0' || token.empty()) {
      fail("malformed number");
      return std::nullopt;
    }
    return JsonValue::number(d);
  }

  std::optional<std::string> parse_string() {
    if (!consume('"')) {
      fail("expected string");
      return std::nullopt;
    }
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in string");
        return std::nullopt;
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            fail("truncated \\u escape");
            return std::nullopt;
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else {
              fail("bad hex digit in \\u escape");
              return std::nullopt;
            }
          }
          // UTF-8 encode (BMP only; the writer never emits surrogates —
          // it only escapes control characters).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          fail("unknown escape");
          return std::nullopt;
      }
    }
    fail("unterminated string");
    return std::nullopt;
  }

  std::optional<JsonValue> parse_array() {
    consume('[');
    std::vector<JsonValue> items;
    skip_ws();
    if (consume(']')) return JsonValue::array(std::move(items));
    for (;;) {
      std::optional<JsonValue> v = parse_value();
      if (!v) return std::nullopt;
      items.push_back(std::move(*v));
      if (consume(',')) continue;
      if (consume(']')) return JsonValue::array(std::move(items));
      fail("expected ',' or ']' in array");
      return std::nullopt;
    }
  }

  std::optional<JsonValue> parse_object() {
    consume('{');
    std::vector<JsonValue::Member> members;
    skip_ws();
    if (consume('}')) return JsonValue::object(std::move(members));
    for (;;) {
      skip_ws();
      std::optional<std::string> key = parse_string();
      if (!key) return std::nullopt;
      if (!consume(':')) {
        fail("expected ':' after object key");
        return std::nullopt;
      }
      std::optional<JsonValue> v = parse_value();
      if (!v) return std::nullopt;
      members.emplace_back(std::move(*key), std::move(*v));
      if (consume(',')) continue;
      if (consume('}')) return JsonValue::object(std::move(members));
      fail("expected ',' or '}' in object");
      return std::nullopt;
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  std::string error_;
};

}  // namespace

std::optional<JsonValue> json_parse(const std::string& text,
                                    std::string* error) {
  return Parser(text).run(error);
}

// ---- framing ---------------------------------------------------------------

namespace {

bool write_all(int fd, const void* data, std::size_t n) {
  const char* p = static_cast<const char*>(data);
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

bool read_all(int fd, void* data, std::size_t n) {
  char* p = static_cast<char*>(data);
  while (n > 0) {
    const ssize_t r = ::read(fd, p, n);
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (r == 0) return false;  // EOF mid-frame (or before one: clean close)
    p += r;
    n -= static_cast<std::size_t>(r);
  }
  return true;
}

}  // namespace

bool write_frame(int fd, const std::string& payload) {
  if (payload.size() > kMaxFrameBytes) return false;
  unsigned char header[4];
  const std::uint32_t n = static_cast<std::uint32_t>(payload.size());
  header[0] = static_cast<unsigned char>(n & 0xff);
  header[1] = static_cast<unsigned char>((n >> 8) & 0xff);
  header[2] = static_cast<unsigned char>((n >> 16) & 0xff);
  header[3] = static_cast<unsigned char>((n >> 24) & 0xff);
  return write_all(fd, header, 4) &&
         write_all(fd, payload.data(), payload.size());
}

bool read_frame(int fd, std::string& payload, std::size_t max_bytes) {
  unsigned char header[4];
  if (!read_all(fd, header, 4)) return false;
  const std::uint32_t n = static_cast<std::uint32_t>(header[0]) |
                          (static_cast<std::uint32_t>(header[1]) << 8) |
                          (static_cast<std::uint32_t>(header[2]) << 16) |
                          (static_cast<std::uint32_t>(header[3]) << 24);
  if (n > max_bytes) return false;
  payload.resize(n);
  return n == 0 || read_all(fd, payload.data(), n);
}

// ---- payload helpers -------------------------------------------------------

void write_race_options(JsonWriter& w, const api::RaceOptions& options) {
  const PortfolioConfig& c = options.cli();
  w.begin_object();
  w.kv("threads", c.num_threads);
  w.key("policies");
  w.begin_array();
  for (const std::string& p : c.policies) w.value(p);
  w.end_array();
  w.kv("depth", c.max_depth);
  w.kv("budget_sec", c.budget_sec);
  w.kv("seed", std::to_string(c.seed));  // 64-bit exact: as string
  w.kv("incremental", c.incremental);
  w.kv("simplify", c.simplify);
  w.kv("any_frame", options.bad_mode() == bmc::BadMode::Any);
  w.kv("glue_lbd", c.glue_lbd);
  w.kv("tier_lbd", c.tier_lbd);
  w.kv("share", c.share);
  w.kv("share_lbd", c.share_lbd);
  w.kv("share_size", c.share_size);
  w.kv("share_cap", c.share_cap);
  w.kv("share_rank", c.share_rank);
  w.kv("core_weighting", c.core_weighting);
  w.kv("preprocess", c.preprocess);
  w.kv("bve_budget", c.bve_budget);
  w.end_object();
}

api::RaceOptions parse_race_options(const JsonValue& obj) {
  api::RaceOptions o;
  if (!obj.is_object()) return o;
  const PortfolioConfig defaults;
  o.threads(static_cast<int>(obj.get_int("threads", defaults.num_threads)));
  if (const JsonValue* ps = obj.find("policies");
      ps != nullptr && ps->is_array() && !ps->items().empty()) {
    std::vector<std::string> names;
    for (const JsonValue& p : ps->items())
      if (p.is_string()) names.push_back(p.as_string());
    if (!names.empty()) o.policies(std::move(names));
  }
  o.max_depth(static_cast<int>(obj.get_int("depth", defaults.max_depth)));
  o.budget_sec(obj.get_number("budget_sec", defaults.budget_sec));
  o.seed(obj.get_uint64("seed", defaults.seed));
  o.incremental(obj.get_bool("incremental", defaults.incremental));
  o.simplify(obj.get_bool("simplify", defaults.simplify));
  if (obj.get_bool("any_frame", false)) o.bad_mode(bmc::BadMode::Any);
  o.glue_lbd(static_cast<int>(obj.get_int("glue_lbd", defaults.glue_lbd)));
  o.tier_lbd(static_cast<int>(obj.get_int("tier_lbd", defaults.tier_lbd)));
  o.share(obj.get_bool("share", defaults.share));
  o.share_lbd(static_cast<int>(obj.get_int("share_lbd", defaults.share_lbd)));
  o.share_size(
      static_cast<int>(obj.get_int("share_size", defaults.share_size)));
  o.share_cap(static_cast<int>(obj.get_int("share_cap", defaults.share_cap)));
  o.share_rank(obj.get_bool("share_rank", defaults.share_rank));
  o.core_weighting(obj.get_string("core_weighting", defaults.core_weighting));
  o.preprocess(obj.get_bool("preprocess", defaults.preprocess));
  o.bve_budget(
      static_cast<int>(obj.get_int("bve_budget", defaults.bve_budget)));
  return o;
}

namespace {

std::string bits_to_string(const std::vector<bool>& bits) {
  std::string s;
  s.reserve(bits.size());
  for (const bool b : bits) s += b ? '1' : '0';
  return s;
}

void write_trace(JsonWriter& w, const bmc::Trace& trace) {
  w.begin_object();
  w.kv("depth", trace.depth);
  w.kv("bad_frame", trace.bad_frame);
  w.kv("initial_latches", bits_to_string(trace.initial_latches));
  w.key("inputs");
  w.begin_array();
  for (const std::vector<bool>& frame : trace.inputs)
    w.value(bits_to_string(frame));
  w.end_array();
  w.end_object();
}

}  // namespace

void write_status(JsonWriter& w, const JobStatus& status) {
  w.begin_object();
  w.kv("id", status.id);
  w.kv("state", to_string(status.state));
  if (status.reject != RejectReason::None)
    w.kv("reject", to_string(status.reject));
  w.kv("priority", to_string(status.priority));
  if (!status.name.empty()) w.kv("name", status.name);
  w.kv("depths_completed", status.depths_completed);
  w.kv("events_available", status.events_available);
  w.kv("queue_sec", status.queue_sec);
  w.kv("run_sec", status.run_sec);
  if (is_terminal(status.state) && status.state != JobState::Rejected) {
    const api::CheckResult& r = status.result;
    w.key("result");
    w.begin_object();
    w.kv("verdict", api::to_string(r.status));
    w.kv("from_cache", r.from_cache);
    w.kv("counterexample_depth", r.counterexample_depth);
    w.kv("last_completed_depth", r.last_completed_depth);
    if (!r.winner_policy.empty()) w.kv("winner", r.winner_policy);
    w.kv("wall_sec", r.wall_time_sec);
    w.kv("decisions", r.total_decisions());
    w.kv("propagations", r.total_propagations());
    w.kv("conflicts", r.total_conflicts());
    w.kv("frames_encoded", r.frames_encoded);
    w.kv("clauses_exported", r.clauses_exported);
    w.kv("clauses_imported", r.clauses_imported);
    w.kv("ranks_published", r.ranks_published);
    w.kv("peak_mem_bytes", r.peak_mem_bytes);
    if (r.mem_limit_hit) w.kv("mem_limit_hit", true);
    if (r.counterexample) {
      w.key("trace");
      write_trace(w, *r.counterexample);
    }
    w.end_object();
  }
  w.end_object();
}

}  // namespace refbmc::service
