#include "sat/trail.hpp"

#include <algorithm>

namespace refbmc::sat {

ClauseRef relocate_ref(
    ClauseRef cref,
    const std::vector<std::pair<ClauseRef, ClauseRef>>& map) {
  const auto it = std::lower_bound(
      map.begin(), map.end(), cref,
      [](const std::pair<ClauseRef, ClauseRef>& p, ClauseRef c) {
        return p.first < c;
      });
  REFBMC_ASSERT(it != map.end() && it->first == cref);
  return it->second;
}

std::vector<lbool> Trail::assignments() const {
  std::vector<lbool> model(level_.size());
  for (std::size_t v = 0; v < model.size(); ++v)
    model[v] = value(static_cast<Var>(v));
  return model;
}

void Trail::relocate_reasons(
    const std::vector<std::pair<ClauseRef, ClauseRef>>& map) {
  for (std::size_t v = 0; v < reason_.size(); ++v) {
    if (reason_[v] != kClauseRefUndef &&
        value(static_cast<Var>(v)) != l_Undef)
      reason_[v] = relocate_ref(reason_[v], map);
    else
      reason_[v] = kClauseRefUndef;
  }
}

}  // namespace refbmc::sat
