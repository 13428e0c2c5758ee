// TapeCodec: the varint/delta byte encoding of tape ranges must round-trip
// exactly — decoding an encoded range into a sink is bit-identical to
// replaying the raw tape — across randomized var/clause interleavings,
// empty ranges, and maximal variable deltas.  freeze_prefix() (cold
// storage) must be invisible to every reader.
#include "bmc/tape_codec.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "bmc/tape.hpp"
#include "model/benchgen.hpp"
#include "util/rng.hpp"

namespace refbmc::bmc {
namespace {

VarOrigin test_origin(std::size_t v) {
  return VarOrigin{model::kConstNode, -static_cast<int>(v % 7) - 1};
}

/// Records the replay stream verbatim for comparison.
struct RecordSink final : ClauseSink {
  std::vector<VarOrigin> vars;
  std::vector<std::vector<sat::Lit>> clauses;

  sat::Var add_var(const VarOrigin& origin) override {
    vars.push_back(origin);
    return static_cast<sat::Var>(vars.size() - 1);
  }
  void add_clause(std::span<const sat::Lit> lits) override {
    clauses.emplace_back(lits.begin(), lits.end());
  }
};

bool streams_equal(const RecordSink& a, const RecordSink& b) {
  if (a.vars.size() != b.vars.size() || a.clauses.size() != b.clauses.size())
    return false;
  for (std::size_t i = 0; i < a.vars.size(); ++i)
    if (a.vars[i].node != b.vars[i].node || a.vars[i].frame != b.vars[i].frame)
      return false;
  for (std::size_t i = 0; i < a.clauses.size(); ++i)
    if (a.clauses[i] != b.clauses[i]) return false;
  return true;
}

TEST(TapeCodecTest, VarintRoundTripsBoundaryValues) {
  const std::uint64_t values[] = {0,    1,    127,  128,   129,
                                  0x3fff, 0x4000, UINT32_MAX,
                                  UINT64_MAX - 1, UINT64_MAX};
  std::vector<std::uint8_t> bytes;
  for (const std::uint64_t v : values) TapeCodec::put_varint(bytes, v);
  const std::uint8_t* p = bytes.data();
  const std::uint8_t* const end = p + bytes.size();
  for (const std::uint64_t v : values)
    EXPECT_EQ(TapeCodec::get_varint(p, end), v);
  EXPECT_EQ(p, end);
}

TEST(TapeCodecTest, ZigzagRoundTripsSignedDeltas) {
  const std::int64_t values[] = {0, 1, -1, 2, -2, INT32_MAX, INT32_MIN,
                                 INT64_MAX, INT64_MIN};
  for (const std::int64_t v : values)
    EXPECT_EQ(TapeCodec::unzigzag(TapeCodec::zigzag(v)), v);
  // Small magnitudes must stay small on the wire (the compression claim).
  EXPECT_LE(TapeCodec::zigzag(-1), 2u);
  EXPECT_LE(TapeCodec::zigzag(1), 2u);
}

TEST(TapeCodecTest, EmptyRangeEncodesToNothing) {
  ClauseTape tape;
  tape.add_var(test_origin(0));
  tape.add_clause(std::vector<sat::Lit>{sat::Lit::make(0)});
  const ClauseTape::Mark m = tape.mark();
  const TapeCodec::EncodedRange enc = TapeCodec::encode(tape, m, m);
  EXPECT_TRUE(enc.bytes.empty());
  EXPECT_EQ(enc.raw_bytes(), 0u);

  ClauseTape::Cursor cursor;
  RecordSink sink;
  tape.replay(cursor, m, sink);  // park at m
  const std::size_t vars_before = cursor.var_map.size();
  TapeCodec::decode(enc, tape.origin(), cursor, sink);
  EXPECT_EQ(cursor.var_map.size(), vars_before);
  EXPECT_EQ(cursor.op, m.ops);
}

TEST(TapeCodecTest, MaxVarDeltasSurviveTheDeltaChain) {
  // First literals that jump across the whole 32-bit literal space force
  // maximal positive and negative deltas through zigzag.
  ClauseTape tape;
  const auto big = static_cast<sat::Var>((1u << 30) - 1);
  for (sat::Var v = 0; v <= 3; ++v) tape.add_var(test_origin(0));
  tape.add_clause(std::vector<sat::Lit>{sat::Lit::make(big, true)});
  tape.add_clause(std::vector<sat::Lit>{sat::Lit::make(0)});
  tape.add_clause(
      std::vector<sat::Lit>{sat::Lit::make(big), sat::Lit::make(0, true)});

  const TapeCodec::EncodedRange enc = TapeCodec::encode(tape, tape.mark());
  std::vector<std::vector<sat::Lit>> decoded;
  TapeCodec::decode_clauses(enc.bytes, [&](std::span<const sat::Lit> lits) {
    decoded.emplace_back(lits.begin(), lits.end());
  });
  ASSERT_EQ(decoded.size(), 3u);
  EXPECT_EQ(decoded[0], (std::vector<sat::Lit>{sat::Lit::make(big, true)}));
  EXPECT_EQ(decoded[1], (std::vector<sat::Lit>{sat::Lit::make(0)}));
  EXPECT_EQ(decoded[2], (std::vector<sat::Lit>{sat::Lit::make(big),
                                               sat::Lit::make(0, true)}));
}

TEST(TapeCodecTest, FuzzRandomInterleavingsRoundTripExactly) {
  // Random tapes, random split points: replaying [0, mid) raw and then
  // decoding the encoded [mid, end) must equal replaying [0, end) raw.
  Rng rng(0xC0DEC);
  for (int round = 0; round < 50; ++round) {
    ClauseTape tape;
    std::size_t num_vars = 0;
    const int events = rng.next_int(0, 120);
    for (int e = 0; e < events; ++e) {
      if (num_vars == 0 || rng.next_int(0, 3) == 0) {
        tape.add_var(test_origin(num_vars));
        ++num_vars;
        continue;
      }
      const int width = rng.next_int(1, 6);
      std::vector<sat::Lit> clause;
      for (int i = 0; i < width; ++i) {
        // Mostly-local literals with occasional far jumps, like Tseitin
        // output with strashing aliases.
        const auto v = static_cast<sat::Var>(
            rng.next_int(0, 4) == 0
                ? rng.next_int(0, static_cast<int>(num_vars) - 1)
                : static_cast<int>(num_vars) - 1 -
                      rng.next_int(0, std::min<int>(4, static_cast<int>(
                                                           num_vars) -
                                                           1)));
        clause.push_back(sat::Lit::make(v, rng.next_bool()));
      }
      tape.add_clause(clause);
    }
    const ClauseTape::Mark end = tape.mark();

    // A random interior mark (must fall on an op boundary: walk to it).
    const std::size_t mid_ops =
        static_cast<std::size_t>(rng.next_int(0, static_cast<int>(end.ops)));
    ClauseTape::Cursor probe;
    RecordSink ignore;
    ClauseTape::Mark mid{};
    {
      // Recover the full Mark at mid_ops by replaying up to it.
      std::size_t lit = 0, vars = 0, clauses = 0;
      tape.scan(0, mid_ops,
                [&](std::size_t n) { vars += n; },
                [&](std::span<const sat::Lit> lits) {
                  lit += lits.size();
                  ++clauses;
                });
      mid = ClauseTape::Mark{mid_ops, lit, vars, clauses};
    }

    RecordSink whole;
    ClauseTape::Cursor wc;
    tape.replay(wc, end, whole);

    RecordSink stitched;
    ClauseTape::Cursor sc;
    tape.replay(sc, mid, stitched);
    const TapeCodec::EncodedRange enc = TapeCodec::encode(tape, mid, end);
    TapeCodec::decode(enc, tape.origin(), sc, stitched);

    EXPECT_TRUE(streams_equal(whole, stitched)) << "round " << round;
    EXPECT_EQ(sc.op, end.ops);
    EXPECT_EQ(sc.lit, end.lits);
  }
}

TEST(TapeCodecTest, TseitinStreamCompressesAtLeastThreeTimes) {
  // The acceptance ratio on a real encoder stream: a BMC unrolling's
  // locality must make the codec at least 3x smaller than the raw tape.
  const auto bm = model::fifo_safe(4);
  SharedTape shared(bm.net, 0, {});
  shared.ensure_depth(8);
  RecordSink sink;
  ClauseTape::Cursor cursor;
  shared.replay_to(8, cursor, sink);  // materialize the stream

  ClauseTape tape;
  for (std::size_t v = 0; v < sink.vars.size(); ++v)
    tape.add_var(sink.vars[v]);
  // Interleaving vars-then-clauses only helps the var-run coder; clause
  // deltas (the bulk) are unaffected by this reordering.
  for (const auto& c : sink.clauses) tape.add_clause(c);
  const TapeCodec::EncodedRange enc = TapeCodec::encode(tape, tape.mark());
  EXPECT_GT(enc.raw_bytes(), 0u);
  EXPECT_LE(enc.bytes.size() * 3, enc.raw_bytes())
      << "encoded " << enc.bytes.size() << " raw " << enc.raw_bytes();
}

TEST(ClauseTapeColdTest, FreezePrefixIsInvisibleToReplay) {
  const auto bm = model::counter_reach(4, 6, true);
  SharedTape shared(bm.net, 0, {});
  RecordSink reference;
  {
    ClauseTape::Cursor cursor;
    shared.replay_to(5, cursor, reference);
  }

  // Same stream recorded into a standalone tape, frozen in two slices.
  ClauseTape tape;
  for (const auto& o : reference.vars) tape.add_var(o);
  std::size_t added = 0;
  ClauseTape::Mark first{};
  for (const auto& c : reference.clauses) {
    tape.add_clause(c);
    if (++added == reference.clauses.size() / 2) first = tape.mark();
  }
  const ClauseTape::Mark end = tape.mark();
  EXPECT_EQ(tape.frozen_segments(), 0u);
  tape.freeze_prefix(first);
  EXPECT_EQ(tape.frozen_segments(), 1u);
  tape.freeze_prefix(first);  // idempotent at the same mark
  EXPECT_EQ(tape.frozen_segments(), 1u);
  tape.freeze_prefix(end);
  EXPECT_EQ(tape.frozen_segments(), 2u);
  EXPECT_GT(tape.encoded_bytes(), 0u);
  EXPECT_LT(tape.encoded_bytes(), tape.raw_bytes());

  RecordSink replayed;
  ClauseTape::Cursor cursor;
  tape.replay(cursor, end, replayed);
  EXPECT_TRUE(streams_equal(reference, replayed));

  // Mid-range reads crossing the frozen/raw boundary must also agree.
  ClauseList exported;
  tape.append_clauses(ClauseTape::Mark{}, end, exported);
  ASSERT_EQ(exported.size(), reference.clauses.size());
  for (std::size_t i = 0; i < exported.size(); ++i)
    EXPECT_TRUE(std::ranges::equal(exported[i], reference.clauses[i])) << i;
}

TEST(ClauseTapeColdTest, ColdSharedTapeIsBitIdenticalToHot) {
  const auto bm = model::fifo_safe(3);
  SharedTape hot(bm.net, 0, {});
  SharedTape cold(bm.net, 0, {});
  cold.set_cold_storage(true);
  EXPECT_TRUE(cold.cold_storage());

  for (int k = 0; k <= 6; ++k) {
    RecordSink a, b;
    ClauseTape::Cursor ca, cb;
    hot.replay_to(k, ca, a);
    cold.replay_to(k, cb, b);
    EXPECT_TRUE(streams_equal(a, b)) << "depth " << k;
    EXPECT_EQ(hot.property(k), cold.property(k));
  }
  // Cold mode actually froze the superseded depths and got smaller.
  EXPECT_GT(cold.tape_encoded_bytes(), 0u);
  EXPECT_LT(cold.tape_encoded_bytes(), cold.tape_raw_bytes() / 2);
  EXPECT_EQ(hot.tape_encoded_bytes(), 0u);
  EXPECT_EQ(hot.frames_encoded(), cold.frames_encoded());
  EXPECT_LT(cold.memory_bytes(), hot.memory_bytes());
}

TEST(ClauseTapeColdTest, ColdSimplifiedAndDeltaStreamsMatchHot) {
  const auto bm = model::fifo_safe(3);
  PreprocessOptions pp;
  pp.enabled = true;
  SharedTape hot(bm.net, 0, {}, pp);
  SharedTape cold(bm.net, 0, {}, pp);
  cold.set_cold_storage(true);

  for (int k = 0; k <= 4; ++k) {
    RecordSink a, b;
    ClauseTape::Cursor ca, cb;
    hot.replay_to(k, ca, a);
    cold.replay_to(k, cb, b);
    EXPECT_TRUE(streams_equal(a, b)) << "simplified depth " << k;
    EXPECT_EQ(hot.simplified_clauses_at(k), cold.simplified_clauses_at(k));
  }
  {
    RecordSink a, b;
    ClauseTape::Cursor ca, cb;
    for (int f = 0; f <= 4; ++f) {
      hot.replay_to(f, ca, a);
      cold.replay_to(f, cb, b);
      EXPECT_TRUE(streams_equal(a, b)) << "delta depth " << f;
    }
  }
}

TEST(SharedTapeMemTest, FootprintIsChargedToTheTracker) {
  const auto bm = model::fifo_safe(3);
  MemTracker mem;
  SharedTape tape(bm.net, 0, {});
  tape.set_mem_tracker(&mem);
  EXPECT_EQ(mem.current(), 0u);
  tape.ensure_depth(5);
  EXPECT_GT(mem.current(), 0u);
  EXPECT_EQ(mem.current(), tape.memory_bytes());
  EXPECT_GE(mem.peak(), mem.current());
  tape.set_mem_tracker(nullptr);
  EXPECT_EQ(mem.current(), 0u);
}

}  // namespace
}  // namespace refbmc::bmc
