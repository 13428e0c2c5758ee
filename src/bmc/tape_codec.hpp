// Compact byte encoding of ClauseTape event ranges — the space half of
// the distributed-racing roadmap item (the socket protocol will ship
// these bytes; today they back the in-memory "cold storage" mode).
//
// The tape's raw form costs 4 bytes per op plus 4 bytes per literal.
// The codec replaces that with a varint record stream:
//
//   record        encoding
//   ------------  -----------------------------------------------------
//   var run       varint 0, then varint n    (n consecutive add_var ops)
//   clause (u>0)  varint u, then u literal deltas:
//                   lit[0]: zigzag(raw[0] - prev_clause_raw[0])
//                   lit[i]: zigzag(raw[i] - raw[0])       for i >= 1
//
// where raw = Lit::index() = 2*var + sign.  Tseitin output is extremely
// local — consecutive clauses reference adjacent fresh variables and a
// clause's literals cluster around its first — so the deltas are small
// and most literals cost one byte instead of four.  Decoding is
// streaming and exact: replaying a decoded range into a sink is
// bit-identical to replaying the raw tape (test-asserted).
//
// Layering: ClauseTape uses the low-level Writer/for_each to freeze
// already-replayed prefixes (tape.hpp, cold storage); SharedTape uses
// encode_clauses/decode_clauses for its consumed per-depth delta
// caches; TapeCodec::encode/decode is the public range API and the
// future on-wire format.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "bmc/tape.hpp"

namespace refbmc::bmc {

class TapeCodec {
 public:
  /// One encoded tape range [from, upto) with its framing.
  struct EncodedRange {
    ClauseTape::Mark from;
    ClauseTape::Mark upto;
    std::vector<std::uint8_t> bytes;

    /// What the same range costs in the tape's raw vectors.
    std::size_t raw_bytes() const {
      return (upto.ops - from.ops) * sizeof(std::int32_t) +
             (upto.lits - from.lits) * sizeof(sat::Lit);
    }
  };

  /// Encodes the tape events in [from, upto).  Both marks must lie in
  /// the tape's still-raw region (freeze_prefix only moves forward, so
  /// encoding always happens before freezing).
  static EncodedRange encode(const ClauseTape& tape,
                             const ClauseTape::Mark& from,
                             const ClauseTape::Mark& upto);
  static EncodedRange encode(const ClauseTape& tape,
                             const ClauseTape::Mark& upto) {
    return encode(tape, ClauseTape::Mark{}, upto);
  }

  /// Streaming decode into any ClauseSink, translating variables through
  /// `cursor` exactly like ClauseTape::replay.  The cursor must be
  /// parked at enc.from (var_map holds enc.from.vars entries); it ends
  /// parked at enc.upto.  `origin` is the tape's full origin vector.
  static void decode(const EncodedRange& enc,
                     std::span<const VarOrigin> origin,
                     ClauseTape::Cursor& cursor, ClauseSink& out);

  // ---- low-level record stream ---------------------------------------
  /// Appends records to a byte buffer; adjacent add_var ops coalesce
  /// into one run.  Call finish() (or destroy) to flush a pending run.
  class Writer {
   public:
    explicit Writer(std::vector<std::uint8_t>& out) : out_(out) {}
    ~Writer() { finish(); }

    void add_var() { ++pending_vars_; }
    void add_vars(std::size_t run) { pending_vars_ += run; }
    void add_clause(std::span<const sat::Lit> lits);
    void finish();

   private:
    std::vector<std::uint8_t>& out_;
    std::uint32_t prev_first_ = 0;  // previous clause's first raw index
    std::size_t pending_vars_ = 0;
  };

  /// Walks an encoded stream: on_vars(n) per var run, on_clause(lits)
  /// per clause (the span is valid until the next callback).  Either
  /// callback may be empty when the stream is known to lack that record
  /// kind.
  static void for_each(
      std::span<const std::uint8_t> bytes,
      const std::function<void(std::size_t)>& on_vars,
      const std::function<void(std::span<const sat::Lit>)>& on_clause);

  /// Clause-list form (no var records) for the SharedTape caches.
  static std::vector<std::uint8_t> encode_clauses(const ClauseList& clauses);
  static void decode_clauses(
      std::span<const std::uint8_t> bytes,
      const std::function<void(std::span<const sat::Lit>)>& on_clause);

  // ---- primitives (exposed for tests) --------------------------------
  static void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v);
  static std::uint64_t get_varint(const std::uint8_t*& p,
                                  const std::uint8_t* end);
  static std::uint64_t zigzag(std::int64_t v) {
    return (static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63);
  }
  static std::int64_t unzigzag(std::uint64_t v) {
    return static_cast<std::int64_t>(v >> 1) ^
           -static_cast<std::int64_t>(v & 1);
  }
};

}  // namespace refbmc::bmc
