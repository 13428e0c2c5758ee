// MemTracker: race-wide accounting of the formula state's heap footprint,
// and the enforcement point of `--mem-ceiling`.
//
// One tracker is shared by everything that holds per-check state — the
// chunked ClauseArena (chunk allocations), ClauseTape/SharedTape (op and
// literal vectors, simplified/delta caches), the
// SharedClausePool ring, and the propagator's watcher lists.  Components
// charge deltas with add()/sub(); the solver and the engine poll
// breached() at their existing conflict/decision/depth checkpoints and
// wind down with a clean ResourceLimit verdict instead of letting the
// allocator run into the kernel's OOM killer.
//
// Accounting is always on (it is a handful of relaxed atomics per chunk
// or cache build, nowhere near any hot path), so `--mem-ceiling 0` (off)
// differs from a ceiling run only in never reporting a breach — the
// search itself is bit-identical.  peak() is monotone across the whole
// race: per-depth DepthStats::peak_bytes snapshots it at depth
// boundaries.
#pragma once

#include <atomic>
#include <cstdint>

namespace refbmc {

class MemTracker {
 public:
  MemTracker() = default;
  explicit MemTracker(std::uint64_t ceiling_bytes)
      : ceiling_(ceiling_bytes) {}

  MemTracker(const MemTracker&) = delete;
  MemTracker& operator=(const MemTracker&) = delete;

  /// 0 disables enforcement (accounting still runs).
  void set_ceiling(std::uint64_t bytes) {
    ceiling_.store(bytes, std::memory_order_relaxed);
  }
  std::uint64_t ceiling() const {
    return ceiling_.load(std::memory_order_relaxed);
  }

  void add(std::uint64_t bytes) {
    const std::uint64_t now =
        current_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    // CAS-max: peak only moves up, and stale loads just retry.
    std::uint64_t seen = peak_.load(std::memory_order_relaxed);
    while (seen < now &&
           !peak_.compare_exchange_weak(seen, now,
                                        std::memory_order_relaxed)) {
    }
  }
  void sub(std::uint64_t bytes) {
    current_.fetch_sub(bytes, std::memory_order_relaxed);
  }

  std::uint64_t current() const {
    return current_.load(std::memory_order_relaxed);
  }
  std::uint64_t peak() const { return peak_.load(std::memory_order_relaxed); }

  /// True once the tracked footprint exceeds a non-zero ceiling.  Cheap
  /// enough for the solver's conflict-boundary checkpoint.
  bool breached() const {
    const std::uint64_t cap = ceiling_.load(std::memory_order_relaxed);
    return cap != 0 && current_.load(std::memory_order_relaxed) > cap;
  }

 private:
  std::atomic<std::uint64_t> current_{0};
  std::atomic<std::uint64_t> peak_{0};
  std::atomic<std::uint64_t> ceiling_{0};
};

}  // namespace refbmc
