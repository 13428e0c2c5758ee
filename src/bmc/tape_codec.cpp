#include "bmc/tape_codec.hpp"

#include "util/assert.hpp"

namespace refbmc::bmc {

void TapeCodec::put_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

std::uint64_t TapeCodec::get_varint(const std::uint8_t*& p,
                                    const std::uint8_t* end) {
  std::uint64_t v = 0;
  int shift = 0;
  while (true) {
    REFBMC_EXPECTS_MSG(p < end && shift < 64, "truncated varint");
    const std::uint8_t byte = *p++;
    v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) return v;
    shift += 7;
  }
}

void TapeCodec::Writer::finish() {
  if (pending_vars_ == 0) return;
  put_varint(out_, 0);  // var-run marker
  put_varint(out_, pending_vars_);
  pending_vars_ = 0;
}

void TapeCodec::Writer::add_clause(std::span<const sat::Lit> lits) {
  REFBMC_EXPECTS_MSG(!lits.empty(), "codec cannot frame an empty clause");
  finish();
  put_varint(out_, lits.size());
  const auto first = static_cast<std::uint32_t>(lits[0].index());
  put_varint(out_, zigzag(static_cast<std::int64_t>(first) -
                          static_cast<std::int64_t>(prev_first_)));
  for (std::size_t i = 1; i < lits.size(); ++i)
    put_varint(out_,
               zigzag(static_cast<std::int64_t>(
                          static_cast<std::uint32_t>(lits[i].index())) -
                      static_cast<std::int64_t>(first)));
  prev_first_ = first;
}

void TapeCodec::for_each(
    std::span<const std::uint8_t> bytes,
    const std::function<void(std::size_t)>& on_vars,
    const std::function<void(std::span<const sat::Lit>)>& on_clause) {
  const std::uint8_t* p = bytes.data();
  const std::uint8_t* const end = p + bytes.size();
  std::uint32_t prev_first = 0;
  std::vector<sat::Lit> clause;
  while (p < end) {
    const std::uint64_t u = get_varint(p, end);
    if (u == 0) {
      const std::uint64_t run = get_varint(p, end);
      if (on_vars) on_vars(static_cast<std::size_t>(run));
      continue;
    }
    clause.clear();
    clause.reserve(static_cast<std::size_t>(u));
    const auto first = static_cast<std::uint32_t>(
        static_cast<std::int64_t>(prev_first) +
        unzigzag(get_varint(p, end)));
    clause.push_back(
        sat::Lit::make(static_cast<sat::Var>(first >> 1), (first & 1u) != 0));
    for (std::uint64_t i = 1; i < u; ++i) {
      const auto raw = static_cast<std::uint32_t>(
          static_cast<std::int64_t>(first) + unzigzag(get_varint(p, end)));
      clause.push_back(
          sat::Lit::make(static_cast<sat::Var>(raw >> 1), (raw & 1u) != 0));
    }
    prev_first = first;
    if (on_clause) on_clause(clause);
  }
}

TapeCodec::EncodedRange TapeCodec::encode(const ClauseTape& tape,
                                          const ClauseTape::Mark& from,
                                          const ClauseTape::Mark& upto) {
  EncodedRange enc{from, upto, {}};
  Writer w(enc.bytes);
  tape.scan(from.ops, upto.ops,
            [&](std::size_t n) { w.add_vars(n); },
            [&](std::span<const sat::Lit> lits) { w.add_clause(lits); });
  w.finish();
  return enc;
}

void TapeCodec::decode(const EncodedRange& enc,
                       std::span<const VarOrigin> origin,
                       ClauseTape::Cursor& cursor, ClauseSink& out) {
  REFBMC_EXPECTS_MSG(cursor.var_map.size() == enc.from.vars,
                     "decode requires a cursor parked at the range start");
  std::vector<sat::Lit> clause;
  for_each(
      enc.bytes,
      [&](std::size_t n) {
        for (std::size_t i = 0; i < n; ++i)
          cursor.var_map.push_back(out.add_var(origin[cursor.var_map.size()]));
      },
      [&](std::span<const sat::Lit> lits) {
        clause.clear();
        for (const sat::Lit l : lits) clause.push_back(cursor.translate(l));
        out.add_clause(clause);
      });
  cursor.op = enc.upto.ops;
  cursor.lit = enc.upto.lits;
}

std::vector<std::uint8_t> TapeCodec::encode_clauses(
    const ClauseList& clauses) {
  std::vector<std::uint8_t> bytes;
  Writer w(bytes);
  for (const std::span<const sat::Lit> c : clauses) w.add_clause(c);
  w.finish();
  return bytes;
}

void TapeCodec::decode_clauses(
    std::span<const std::uint8_t> bytes,
    const std::function<void(std::span<const sat::Lit>)>& on_clause) {
  for_each(bytes, {}, on_clause);
}

}  // namespace refbmc::bmc
