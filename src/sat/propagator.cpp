#include "sat/propagator.hpp"

namespace refbmc::sat {

void Propagator::attach(ClauseArena& arena, ClauseRef cref) {
  const Clause c = arena.get(cref);
  REFBMC_ASSERT(c.size() >= 2);
  REFBMC_ASSERT((cref & kBinaryTag) == 0);
  if (c.size() == 2) {
    push_watcher(list(c[0]), Watcher{cref | kBinaryTag, c[1]});
    push_watcher(list(c[1]), Watcher{cref | kBinaryTag, c[0]});
    return;
  }
  push_watcher(list(c[0]), Watcher{cref, c[1]});
  push_watcher(list(c[1]), Watcher{cref, c[0]});
}

void Propagator::remove_watcher(std::vector<Watcher>& wl, ClauseRef cref) {
  for (std::size_t i = 0; i < wl.size(); ++i) {
    if (wl[i].cref() == cref) {
      wl[i] = wl.back();
      wl.pop_back();
      return;
    }
  }
  REFBMC_ASSERT_MSG(false, "watcher to detach not found");
}

void Propagator::detach(ClauseArena& arena, ClauseRef cref) {
  const Clause c = arena.get(cref);
  remove_watcher(list(c[0]), cref);
  remove_watcher(list(c[1]), cref);
}

void Propagator::on_clause_shrunk(ClauseArena& arena, ClauseRef cref) {
  const Clause c = arena.get(cref);
  if (c.size() != 2) return;  // still long: watchers on lits 0/1 are intact
  // Shrinking never touches the watched positions, so the clause is still
  // watched under ~c[0] and ~c[1]; re-tag those entries as inlined
  // binaries (the cached literal becomes the respective other literal).
  for (int side = 0; side < 2; ++side) {
    auto& wl = list(c[static_cast<std::uint32_t>(side)]);
    for (auto& w : wl) {
      if (w.cref() == cref) {
        w = Watcher{cref | kBinaryTag, c[static_cast<std::uint32_t>(1 - side)]};
        break;
      }
    }
  }
}

ClauseRef Propagator::propagate(Trail& trail, ClauseArena& arena,
                                SolverStats& stats) {
  // Counters stay in registers for the whole fixpoint; one flush at exit.
  std::uint64_t props = 0, bin_props = 0, skips = 0;
  ClauseRef confl = kClauseRefUndef;
  while (confl == kClauseRefUndef && !trail.fully_propagated()) {
    const Lit p = trail.dequeue();
    const Lit not_p = ~p;
    ++props;
    // Read (i) and write (j) cursors over the watchers of ~p: kept
    // entries are compacted down to j, moved ones go to their new
    // literal's list.  That list is never this one (a replacement is
    // never ~p: clauses hold no duplicate literals), so the cursors stay
    // valid across the push.
    std::vector<Watcher>& wl = watches_[static_cast<std::size_t>(p.index())];
    Watcher* i = wl.data();
    Watcher* j = i;
    Watcher* const end = i + wl.size();
    while (i != end) {
      const Watcher w = *i++;
      const lbool bval = trail.value(w.blocker);
      if (bval == l_True) {
        *j++ = w;
        if (!w.binary()) ++skips;
        continue;
      }
      if (w.binary()) {
        // The watcher is the whole clause: unit or conflicting, and the
        // arena is never touched.
        *j++ = w;
        if (bval == l_False) {
          confl = w.cref();
          break;
        }
        trail.assign(w.blocker, w.cref());
        ++bin_props;
        continue;
      }
      Clause c = arena.get(w.cref());
      // Ensure the false literal (~p) is at position 1.
      if (c[0] == not_p) c.swap_lits(0, 1);
      REFBMC_ASSERT(c[1] == not_p);
      const Lit first = c[0];
      if (first != w.blocker && trail.value(first) == l_True) {
        *j++ = Watcher{w.tagged, first};
        continue;
      }
      // Look for a replacement watch: the first literal not false.
      const std::uint32_t size = c.size();
      std::uint32_t k = 2;
      while (k < size && trail.value(c[k]) == l_False) ++k;
      if (k < size) {
        c.swap_lits(1, k);
        push_watcher(list(c[1]), Watcher{w.tagged, first});
        continue;
      }
      // Clause is unit or conflicting.
      *j++ = Watcher{w.tagged, first};
      if (trail.value(first) == l_False) {
        confl = w.cref();
        break;
      }
      trail.assign(first, w.cref());
    }
    if (confl != kClauseRefUndef) {
      trail.flush_queue();
      while (i != end) *j++ = *i++;
    }
    wl.resize(static_cast<std::size_t>(j - wl.data()));
  }
  stats.propagations += props;
  stats.binary_propagations += bin_props;
  stats.blocker_skips += skips;
  return confl;
}

void Propagator::relocate(
    const std::vector<std::pair<ClauseRef, ClauseRef>>& map) {
  for (auto& wl : watches_)
    for (auto& w : wl)
      w.tagged = relocate_ref(w.cref(), map) | (w.tagged & kBinaryTag);
}

std::size_t Propagator::num_binary_watches(Lit l) const {
  std::size_t n = 0;
  for (const Watcher& w : watches_[static_cast<std::size_t>(l.index())])
    if (w.binary()) ++n;
  return n;
}

std::size_t Propagator::num_long_watches(Lit l) const {
  std::size_t n = 0;
  for (const Watcher& w : watches_[static_cast<std::size_t>(l.index())])
    if (!w.binary()) ++n;
  return n;
}

}  // namespace refbmc::sat
