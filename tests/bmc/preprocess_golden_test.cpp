// Bit-identity of the tape preprocessing pass: an FNV-64 of every
// depth's full pass result, pinned as constants.
//
// For each model, every scratch depth 0..bound and every incremental
// delta 0..bound is hashed over what the pass hands the rest of the
// engine: the simplified clauses in replay order (mapped back to tape
// variable space), the variables the replay creates, the witness stack
// (literal, witness clauses, removed clauses) and kept set of the
// remapper, the root assignment the replayed units establish, and
// every PreprocessStats counter except the wall-clock preprocess_us.
// Any change to what the pass computes — not merely how fast — moves a
// constant.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "bmc/preprocess.hpp"
#include "bmc/tape.hpp"
#include "model/benchgen.hpp"

namespace refbmc::bmc {
namespace {

struct Fnv64 {
  std::uint64_t h = 14695981039346656037ull;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
};

/// Records the replayed stream in tape variable space.
struct TapeSpaceSink final : public ClauseSink {
  const ClauseTape::Cursor* cursor = nullptr;
  std::vector<sat::Var> created;  // tape variable of each sink variable
  std::vector<std::vector<sat::Lit>> clauses;
  sat::Var add_var(const VarOrigin&) override {
    created.push_back(sat::kVarUndef);  // resolved by resolve()
    return static_cast<sat::Var>(created.size() - 1);
  }
  void add_clause(std::span<const sat::Lit> lits) override {
    clauses.emplace_back(lits.begin(), lits.end());
  }
  /// Fills in created[] from the cursor once the replay has mapped it,
  /// and rewrites the recorded clauses from sink to tape space.
  void resolve(std::size_t first_clause) {
    for (std::size_t t = 0; t < cursor->var_map.size(); ++t) {
      const sat::Var s = cursor->var_map[t];
      if (s != sat::kVarUndef)
        created[static_cast<std::size_t>(s)] = static_cast<sat::Var>(t);
    }
    for (std::size_t i = first_clause; i < clauses.size(); ++i)
      for (sat::Lit& l : clauses[i])
        l = sat::Lit::make(created[static_cast<std::size_t>(l.var())],
                           l.negated());
  }
};

void hash_stats(Fnv64& h, const PreprocessStats& s) {
  h.add(s.vars_eliminated);
  h.add(s.pure_literals);
  h.add(s.clauses_subsumed);
  h.add(s.lits_strengthened);
  h.add(s.units_propagated);
  h.add(s.clauses_in);
  h.add(s.clauses_out);
  h.add(s.lits_in);
  h.add(s.lits_out);
}

void hash_clauses(Fnv64& h,
                  const std::vector<std::vector<sat::Lit>>& clauses) {
  std::uint64_t n = 0;
  for (const auto& c : clauses) {
    ++n;
    h.add(c.size());
    for (const sat::Lit l : c) h.add(l.index());
  }
  h.add(n);
}

void hash_remap(Fnv64& h, const VarRemapper& remap) {
  h.add(static_cast<std::uint64_t>(remap.num_vars()));
  for (int v = 0; v < remap.num_vars(); ++v)
    h.add(remap.is_kept(static_cast<sat::Var>(v)) ? 1 : 0);
  h.add(remap.num_eliminated());
  const auto hash_kit = [&](std::uint32_t first, std::uint32_t last) {
    for (std::uint32_t i = first; i < last; ++i) {
      h.add(remap.clauses()[i].size());
      for (const sat::Lit l : remap.clauses()[i]) h.add(l.index());
    }
    h.add(last - first);
  };
  for (const VarRemapper::Witness& w : remap.witnesses()) {
    h.add(w.lit.index());
    hash_kit(w.first, w.mid);
    hash_kit(w.mid, w.last);
  }
}

/// Folds the unit clauses of clauses[first..] into `root` and hashes the
/// full assignment.
void hash_root(Fnv64& h, std::vector<sat::lbool>& root, std::size_t num_vars,
               const std::vector<std::vector<sat::Lit>>& clauses,
               std::size_t first) {
  root.resize(num_vars, sat::l_Undef);
  for (std::size_t i = first; i < clauses.size(); ++i) {
    if (clauses[i].size() != 1) continue;
    const sat::Lit l = clauses[i][0];
    root[static_cast<std::size_t>(l.var())] =
        l.negated() ? sat::l_False : sat::l_True;
  }
  for (const sat::lbool v : root)
    h.add(v.is_true() ? 1 : v.is_false() ? 0 : 2);
}

std::vector<std::uint64_t> scratch_hashes(const model::Benchmark& bm) {
  PreprocessOptions po;
  po.enabled = true;
  SharedTape tape(bm.net, 0, {}, po);
  std::vector<std::uint64_t> out;
  for (int k = 0; k <= bm.suggested_bound; ++k) {
    Fnv64 h;
    TapeSpaceSink sink;
    ClauseTape::Cursor cursor;
    sink.cursor = &cursor;
    tape.replay_simplified_to(k, cursor, sink);
    sink.resolve(0);
    h.add(cursor.var_map.size());
    for (const sat::Var t : sink.created) h.add(static_cast<std::uint64_t>(t));
    hash_clauses(h, sink.clauses);
    hash_remap(h, tape.remapper_at(k));
    std::vector<sat::lbool> root;
    hash_root(h, root, cursor.var_map.size(), sink.clauses, 0);
    hash_stats(h, tape.preprocess_stats_at(k));
    out.push_back(h.h);
  }
  return out;
}

std::vector<std::uint64_t> incremental_hashes(const model::Benchmark& bm) {
  PreprocessOptions po;
  po.enabled = true;
  SharedTape tape(bm.net, 0, {}, po);
  TapeSpaceSink sink;
  ClauseTape::Cursor cursor;
  sink.cursor = &cursor;
  std::vector<sat::lbool> root;
  std::vector<std::uint64_t> out;
  for (int f = 0; f <= bm.suggested_bound; ++f) {
    Fnv64 h;
    const std::size_t first_var = sink.created.size();
    const std::size_t first_clause = sink.clauses.size();
    tape.replay_simplified_delta(f, cursor, sink);
    sink.resolve(first_clause);
    h.add(cursor.var_map.size());
    for (std::size_t s = first_var; s < sink.created.size(); ++s)
      h.add(static_cast<std::uint64_t>(sink.created[s]));
    h.add(sink.clauses.size() - first_clause);
    for (std::size_t i = first_clause; i < sink.clauses.size(); ++i) {
      h.add(sink.clauses[i].size());
      for (const sat::Lit l : sink.clauses[i]) h.add(l.index());
    }
    hash_remap(h, tape.incremental_remapper_at(f));
    hash_root(h, root, cursor.var_map.size(), sink.clauses, first_clause);
    hash_stats(h, tape.incremental_preprocess_stats_at(f));
    out.push_back(h.h);
  }
  return out;
}

std::vector<model::Benchmark> golden_models() {
  return {model::with_distractor(model::fifo_safe(3), 2, 1),
          model::with_distractor(model::fifo_safe(4), 2, 1),
          model::with_distractor(model::fifo_buggy(4), 2, 1),
          model::with_distractor(model::counter_reach(8, 12, true), 2, 1),
          model::with_distractor(model::accumulator_reach(12, 3, 70), 2, 1),
          model::with_distractor(model::arbiter_safe(6), 2, 1),
          model::with_distractor(model::arbiter_safe(7), 2, 1),
          model::with_distractor(model::needle(8, 8, 18, 9), 2, 1),
          model::with_distractor(model::peterson_safe(), 2, 1)};
}

/// Recorded from the original nested-vector simplifier; any rewrite of
/// the pass must reproduce every constant.
struct Golden {
  const char* name;
  std::vector<std::uint64_t> scratch;      // per depth 0..bound
  std::vector<std::uint64_t> incremental;  // per delta 0..bound
};

const std::vector<Golden>& golden_table() {
  static const std::vector<Golden> table{
    {"fifo3+d2",
     /*scratch*/ {
         0x7589d3a6e44a212dull, 0x12765302129a01feull, 0x418d6b88f0a84525ull,
         0x8b79d13ad10c1784ull, 0xff6f712f48a204adull, 0xbc58118097181210ull,
         0x4bfabfeedcfd22a2ull, 0x53997f2ba030c048ull, 0xcc58ab279aa8293eull,
         0x955f9ea7e6ed4a6bull, 0x9ce407aeca247a84ull},
     /*incremental*/ {
         0x7589d3a6e44a212dull, 0xa2eb3df27245ef14ull, 0x155d9bc35b463862ull,
         0xcc79b8dc97ab650eull, 0xbe9527066d1355c9ull, 0xcead488d54a91df0ull,
         0x7cb0d1b093ed897full, 0x257f0ea158053e27ull, 0x3261c43fb1aff624ull,
         0x8e9bbd5cc74572bbull, 0x8dbe61d808708018ull},
    },
    {"fifo4+d2",
     /*scratch*/ {
         0x7589d3a6e44a212dull, 0x12765302129a01feull, 0x46304223a6599a8dull,
         0xb7f1e43ab1a83e6cull, 0xab0532aa7f5e14b8ull, 0xbef0bdaec40447aeull,
         0x60dc7f14d7aeb04dull, 0x3402ee23f9015f1aull, 0xd0a2e713c6198715ull,
         0xdcc2932921df75ffull, 0x89232a46ad9ccf77ull, 0x5831bcda69433479ull,
         0x443f6acc7551a1c6ull, 0x7a45b04e3d6b00b5ull, 0xbbde994a7213803dull,
         0xf73a9e6d57c062a2ull, 0x74de81197d159f87ull, 0xe20f1ef48bf0afa6ull,
         0x59a1c188f49f154bull},
     /*incremental*/ {
         0x7589d3a6e44a212dull, 0xa2eb3df27245ef14ull, 0x6308cd728dc58363ull,
         0x083a5367009f6899ull, 0x19658139c089a5b7ull, 0xd7ef78ea6d2848ecull,
         0x883599e4441f800bull, 0x7d488f473babf090ull, 0x749f9de550bf6a2cull,
         0x396b23f47ead17dcull, 0x7db95d7db988174cull, 0x94aa83bbe34aa8d9ull,
         0x8d935ba4c6dada47ull, 0xe185b036ef44a378ull, 0x2c524eac2b2a09f4ull,
         0xd3a79b0a055e8fd5ull, 0x9fa651685c8e03c3ull, 0xb51b0b0068a3cd9dull,
         0xffc21c101e76f72aull},
    },
    {"fifobug4+d2",
     /*scratch*/ {
         0x7589d3a6e44a212dull, 0x12765302129a01feull, 0x6ef1a4ed9fb715fcull,
         0x0417255875eb5a8aull, 0x245179bef87b0e4dull, 0xb9c44efa51fed818ull,
         0x40a61335a59852dfull, 0xf5cd3e4e46ee1896ull, 0xf85b622ce8868fc4ull,
         0xa1333ae4cfb5ebb5ull, 0x28f2a7d6d69af263ull, 0xf90f2c354c0978acull,
         0x3128cddea82f3693ull, 0x06350958ef5ccfa6ull, 0x752f730c83f28351ull,
         0x0deb46e78ec9a0e6ull, 0x9d921d6ccba35b6bull, 0x3291c90af4a49729ull,
         0x57c7f5534d348740ull},
     /*incremental*/ {
         0x7589d3a6e44a212dull, 0xa2eb3df27245ef14ull, 0x097f45835fc11873ull,
         0xa56c2d8f5c1b4045ull, 0x178df88288d02bd5ull, 0xf5de634fe4646105ull,
         0x73ba73675958ef0aull, 0x4b4156280fbcb31eull, 0x90f7927bad2ebc92ull,
         0x31e4261e82cab923ull, 0x80623ccc8c63fe46ull, 0x877792f17eb43b8cull,
         0xb37972a218c569baull, 0xfed661f077021440ull, 0x474f3dcc7fd9fdcfull,
         0xe5ad619734d58f6bull, 0x61d8a5ef960b68b0ull, 0xc6c90f30fa2704b3ull,
         0x1b4f7df4e8e33643ull},
    },
    {"cnt8e_t12+d2",
     /*scratch*/ {
         0xade82abdff1bb640ull, 0xe6f41262a21bbe54ull, 0x02dedcb289cedea3ull,
         0xb5eb7ed97246732cull, 0xf922a89f5647b34eull, 0x1038492ca4bd0b91ull,
         0xc16bd04622f51fabull, 0x08f1372ef83a77d2ull, 0xcf163255502a1687ull,
         0xd0089cb3c9431fb9ull, 0x7a99b21622b6d052ull, 0xcd865ddf771914c4ull,
         0x650d86913ac839d0ull, 0xc6a86a634e8799a3ull, 0xb8b9e2fc2d3f5a7cull},
     /*incremental*/ {
         0xade82abdff1bb640ull, 0x6e5588ba8ef4d988ull, 0xceecbbb2821577b8ull,
         0xdfddb9a3861d0a55ull, 0x453106dadd825695ull, 0x0df4a8d898780ff0ull,
         0x463faceaa3802465ull, 0xda13c23dac39f8c8ull, 0x201912643ef3b1f1ull,
         0xe160dab7cefc6dbbull, 0xd8cefcfaf53739e6ull, 0xa4f0a95da6b9e578ull,
         0x72746932a31c7c7full, 0x74fd0af5738caab2ull, 0x6c4dbbec69c22845ull},
    },
    {"acc12x3_t70+d2",
     /*scratch*/ {
         0x285fe600aae82623ull, 0xfeb26e0f1bd64d35ull, 0xcc97d78b7e82e4ebull,
         0xc115cd8f9a11b013ull, 0x63f344e8a5f96959ull, 0x4fb4e060f60921f8ull,
         0x4ca8cb27ca0ef0a8ull, 0x2b7879397ac94423ull, 0xec798842a04a2ff6ull,
         0x105ce744941ecb8eull, 0x9867f4566bcc7008ull, 0xf6253738f6c5d17eull,
         0x7d2ba3d647f9a3e6ull},
     /*incremental*/ {
         0x285fe600aae82623ull, 0x93b7b60123d45a4aull, 0x3790b25685eaf6dfull,
         0x16c895a5c49619afull, 0x3fff3209605ebe7cull, 0xbbbc9a64452e98f1ull,
         0xc03d4277c7b6172full, 0x43a0621d1f10e260ull, 0xd37a64766dfbf6aaull,
         0xc23a28b21e204fddull, 0x30e20a4d69a89203ull, 0x10a6debb09e53704ull,
         0xd36578aa78681941ull},
    },
    {"arb6+d2",
     /*scratch*/ {
         0x6c6bb5ae4b2469c2ull, 0x697b80082442a8e3ull, 0xef7f54d9e7e36779ull,
         0xac074044409162bcull, 0x1d77ace6e6af4ad4ull, 0x75f3fc26eed1dc95ull,
         0x2dc31d5f82698664ull, 0x1007b0659129de15ull, 0xdc336e93460459a0ull,
         0x39acf03ffd62cc94ull, 0x78aa3d12232fa13bull},
     /*incremental*/ {
         0x6c6bb5ae4b2469c2ull, 0x51572cdd35786310ull, 0x7908a95724f7a2e4ull,
         0xcc97c27e8654561eull, 0xc7f4335c2406da41ull, 0xfafbd2815ce107a4ull,
         0xb9b4c2974d73f0ddull, 0xf4c6c7849c378bd7ull, 0x052e0e1d20979753ull,
         0x4942cd810002fb82ull, 0xbb3314cee300c4b7ull},
    },
    {"arb7+d2",
     /*scratch*/ {
         0xbd47f8fd8f01f96cull, 0x21409db470490557ull, 0x954da2585d6d8b35ull,
         0xcc9baa7f64336fb2ull, 0x1ab1c0bdffddca93ull, 0xb71dad8dd412345bull,
         0xc3c38a85571f835eull, 0xeba3155eb0107c1aull, 0xcd56d9a0b052a3b6ull,
         0xf8852359af5ac702ull, 0x7c6732e920ed6fc7ull, 0xc336ca3ca48eaa27ull},
     /*incremental*/ {
         0xbd47f8fd8f01f96cull, 0x8eda62264d1ae30aull, 0x4b86709ed302ed06ull,
         0x7f0b2be454882584ull, 0xda02b493fdb9683bull, 0x2ba6b9de79eb7a4dull,
         0xda15fdab47abdb52ull, 0x8a547ef8943c9472ull, 0xcb6b7659dc8e7ee4ull,
         0x56f920de3b5fe1b6ull, 0x83364bd76e8578bcull, 0x8661b30dfd2994c3ull},
    },
    {"needle8_8_A18_B9+d2",
     /*scratch*/ {
         0xade82abdff1bb640ull, 0xe6f41262a21bbe54ull, 0xcf8c0e9453110496ull,
         0x6d5c8968729d529bull, 0xdcbdf3b7e1b0596dull, 0xd5dec3c87f95ca26ull,
         0xf9bc866a225dea1cull, 0xddde67397d9d4ca2ull, 0x3c0601576c9cbb9full,
         0xf245cc4caf63fb0cull, 0xfc5715a265d61b64ull, 0x5640d6314577cf10ull,
         0x6a42d727c6ffab33ull, 0x3967dde3429b96c1ull, 0xfee9fdb912a510beull,
         0x9753a805bd5af5efull, 0x74c6f530ac268a47ull, 0x999aa329c2fec130ull,
         0xf86c0038de4db8e5ull, 0xfadca381812f726aull, 0xfd07f4166ffbc1f6ull,
         0xa4e54fb9e51df56full},
     /*incremental*/ {
         0xade82abdff1bb640ull, 0x6e5588ba8ef4d988ull, 0x7558c0a8d270284dull,
         0xe25b13a4fdc0a424ull, 0x5f7055668ca05c4aull, 0xf99bfa57c3171515ull,
         0xed7c475ad779fb16ull, 0x2e6e59f2a8a5fe1dull, 0x463b11b442855926ull,
         0xa8928ec79a6b0dfaull, 0xdcbc481d7c763ba2ull, 0x2793c7236c1e7608ull,
         0x259cf64e5b507bc6ull, 0x6de0136a8a129495ull, 0x4cc8f0664d7e5424ull,
         0x6c1d060926fed19dull, 0x501c31aa4259078dull, 0x8584fcd709cacee7ull,
         0xefba7ea8c031f37cull, 0xd24736848a7beaeaull, 0xf8260552eacd8f0aull,
         0xe4b064f99b3b84b2ull},
    },
    {"peterson+d2",
     /*scratch*/ {
         0xade82abdff1bb640ull, 0xb456827fa6ec31adull, 0xf56e5c925a0a7006ull,
         0x8d19ea760a4cfb92ull, 0x56dfbc5d6871135aull, 0x49c593a24ae6a5fdull,
         0xa592e7ff5edc0f9cull, 0xd53422cf1d538ca3ull, 0x5489b80ab2e4b0a2ull,
         0xb0b35ff99eef4691ull, 0xd50c4ef4a9cfd363ull, 0x777e1c573548a481ull,
         0x7c94826e97e0db09ull, 0x312a0824ff83af43ull, 0x83f9804db9506b0bull,
         0x376284ad560c6140ull, 0x26a933a4dac380faull},
     /*incremental*/ {
         0xade82abdff1bb640ull, 0x6e9fa8ad392afa89ull, 0x0a4183b1ccab1962ull,
         0x320ce496130f0dc7ull, 0x7a3d866f59110179ull, 0x75a72ffd126bd099ull,
         0x9f5d092068476a47ull, 0x154a487bc6f42beaull, 0xfc69f60bb218a6f6ull,
         0x604c7bce0dc3973aull, 0x36c245bc06ae600aull, 0xe6ae3b975e03bd5bull,
         0x34929e16f80402c8ull, 0xd3b9b4b611280042ull, 0x71ee50e513bd6131ull,
         0xec00c1fa25f3efb8ull, 0xb7b8d768c30ae741ull},
    },
  };
  return table;
}

TEST(PreprocessGoldenTest, EveryDepthMatchesTheRecordedPass) {
  const std::vector<model::Benchmark> models = golden_models();
  const std::vector<Golden>& table = golden_table();
  ASSERT_EQ(models.size(), table.size());
  for (std::size_t m = 0; m < models.size(); ++m) {
    const model::Benchmark& bm = models[m];
    ASSERT_EQ(bm.name, table[m].name);
    const std::vector<std::uint64_t> scratch = scratch_hashes(bm);
    const std::vector<std::uint64_t> incremental = incremental_hashes(bm);
    ASSERT_EQ(scratch.size(), table[m].scratch.size()) << bm.name;
    ASSERT_EQ(incremental.size(), table[m].incremental.size()) << bm.name;
    for (std::size_t k = 0; k < scratch.size(); ++k)
      EXPECT_EQ(scratch[k], table[m].scratch[k])
          << bm.name << " scratch depth " << k;
    for (std::size_t f = 0; f < incremental.size(); ++f)
      EXPECT_EQ(incremental[f], table[m].incremental[f])
          << bm.name << " incremental delta " << f;
  }
}

}  // namespace
}  // namespace refbmc::bmc
