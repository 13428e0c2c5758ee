// The serving wire: length-prefixed JSON frames plus the read half the
// repo's write-only util/json.hpp never needed until a server had to
// *parse* requests.
//
// Framing — one message per frame, both directions:
//
//   +------------------+----------------------+
//   | length: 4B LE    | payload: JSON, UTF-8 |
//   +------------------+----------------------+
//
// A frame length above the cap (default 64 MiB) is a protocol error and
// closes the connection — admission control must not be defeatable by a
// length header.
//
// JsonValue — a tiny immutable JSON tree with a recursive-descent
// parser: objects, arrays, strings (incl. \uXXXX escapes), doubles,
// bools, null.  Object member order is preserved; duplicate keys keep
// the last.  Numbers are doubles — anything that must survive 64 bits
// exactly (hashes) travels as a string.
//
// Netlists travel as ASCII AIGER text inside a JSON string
// (model::write_aiger / read_aiger_string), so the wire needs no second
// model format.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "service/job_server.hpp"
#include "util/json.hpp"

namespace refbmc::service {

class JsonValue {
 public:
  enum class Kind { Null, Bool, Number, String, Array, Object };
  using Member = std::pair<std::string, JsonValue>;

  JsonValue() = default;
  static JsonValue null() { return JsonValue(); }
  static JsonValue boolean(bool b);
  static JsonValue number(double d);
  static JsonValue string(std::string s);
  static JsonValue array(std::vector<JsonValue> items);
  static JsonValue object(std::vector<Member> members);

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::Null; }
  bool is_bool() const { return kind_ == Kind::Bool; }
  bool is_number() const { return kind_ == Kind::Number; }
  bool is_string() const { return kind_ == Kind::String; }
  bool is_array() const { return kind_ == Kind::Array; }
  bool is_object() const { return kind_ == Kind::Object; }

  bool as_bool() const { return bool_; }
  double as_number() const { return number_; }
  const std::string& as_string() const { return string_; }
  const std::vector<JsonValue>& items() const { return items_; }
  const std::vector<Member>& members() const { return members_; }

  /// Object member lookup (nullptr when absent or not an object).
  const JsonValue* find(const std::string& key) const;

  // Typed member getters with defaults — the shape every handler needs.
  std::string get_string(const std::string& key,
                         const std::string& def = "") const;
  double get_number(const std::string& key, double def = 0.0) const;
  bool get_bool(const std::string& key, bool def = false) const;
  std::int64_t get_int(const std::string& key, std::int64_t def = 0) const;
  std::uint64_t get_uint64(const std::string& key,
                           std::uint64_t def = 0) const;

 private:
  Kind kind_ = Kind::Null;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<Member> members_;
};

/// Parses one JSON document (trailing garbage is an error).  Returns
/// nullopt and fills `*error` (when non-null) with position + reason.
std::optional<JsonValue> json_parse(const std::string& text,
                                    std::string* error = nullptr);

// ---- framing over a file descriptor ---------------------------------------

inline constexpr std::size_t kMaxFrameBytes = std::size_t{64} << 20;

/// Writes one length-prefixed frame; false on short write / closed peer.
bool write_frame(int fd, const std::string& payload);

/// Reads one frame into `payload`; false on EOF, error or oversized
/// length prefix.
bool read_frame(int fd, std::string& payload,
                std::size_t max_bytes = kMaxFrameBytes);

// ---- request/response payloads --------------------------------------------

/// Encodes the race options a submit carries (only the fields that
/// differ from defaults would also work, but a full dump keeps the
/// decoder trivial and the frames small anyway).
void write_race_options(JsonWriter& w, const api::RaceOptions& options);

/// Decodes an options object written by write_race_options (absent
/// members keep defaults and unknown ones, among them the retired
/// thread-count, seed and rank-sharing members, are ignored, so old
/// clients stay decodable).
api::RaceOptions parse_race_options(const JsonValue& obj);

/// Encodes a JobStatus response body (the "ok" envelope is the
/// dispatcher's business).  Traces are included for Done results.
void write_status(JsonWriter& w, const JobStatus& status);

}  // namespace refbmc::service
