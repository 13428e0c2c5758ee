// ResultCache: the serving layer's memo over api::check.
//
// Key = (structural netlist hash, bad index, depth bound, config
// fingerprint): two submissions with equal keys would run the exact same
// race, so the verdict, trace and per-depth counters of the first can be
// returned verbatim for the second without touching a solver.  Each
// component closes a distinct aliasing hole:
//
//   * netlist hash    — model::structural_hash, names excluded, so the
//                       same circuit resubmitted under a different label
//                       still hits;
//   * bad index       — which property;
//   * depth bound     — a `bound` verdict certifies only depths 0..k;
//   * config          — api::config_fingerprint, which embeds
//                       bmc::formula_fingerprint plus every
//                       search-affecting knob.
//
// LRU with a fixed capacity; all operations mutex-guarded (lookups from
// concurrent executor threads).  Hit/miss/eviction counters feed the
// server's metrics.
#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>

#include "api/refbmc.hpp"

namespace refbmc::service {

struct CacheKey {
  std::uint64_t netlist_hash = 0;
  std::uint64_t bad_index = 0;
  int max_depth = 0;
  std::uint64_t config = 0;

  bool operator==(const CacheKey&) const = default;
};

struct CacheKeyHash {
  std::size_t operator()(const CacheKey& k) const {
    // FNV-1a over the four words, matching the repo's other hashes.
    std::uint64_t h = 1469598103934665603ull;
    for (const std::uint64_t word :
         {k.netlist_hash, k.bad_index, static_cast<std::uint64_t>(k.max_depth),
          k.config})
      for (int byte = 0; byte < 8; ++byte) {
        h ^= (word >> (byte * 8)) & 0xff;
        h *= 1099511628211ull;
      }
    return static_cast<std::size_t>(h);
  }
};

/// Builds the cache key of a request (hashes the netlist — linear in the
/// model, trivial next to any solve).
CacheKey cache_key(const api::CheckRequest& request);

class ResultCache {
 public:
  explicit ResultCache(std::size_t capacity) : capacity_(capacity) {}

  /// Returns a copy of the cached result (marked from_cache) and
  /// promotes the entry to most-recently-used; nullopt on miss.
  std::optional<api::CheckResult> lookup(const CacheKey& key);

  /// Inserts (or refreshes) an entry, evicting the least recently used
  /// one beyond capacity.  Results that carry no verdict (ResourceLimit:
  /// cancelled / deadline / budget runs) are NOT cacheable — a rerun
  /// with more budget could do better — and are ignored.
  void insert(const CacheKey& key, const api::CheckResult& result);

  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }
  std::uint64_t hits() const;
  std::uint64_t misses() const;
  std::uint64_t evictions() const;

 private:
  using Entry = std::pair<CacheKey, api::CheckResult>;

  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::list<Entry> lru_;  // front = most recently used
  std::unordered_map<CacheKey, std::list<Entry>::iterator, CacheKeyHash>
      index_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace refbmc::service
