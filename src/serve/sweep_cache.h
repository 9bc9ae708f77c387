// Cross-request sweep cache: the serve-layer SweepMemo implementation.
//
// Sits one level below the DesignCache. The DesignCache memoizes whole
// requests (exact canonical-text match); this cache memoizes the per-item
// work *inside* a phase-1 sweep, so requests that are not byte-identical
// still share computation:
//
//   * same layer re-explored under a different min_dsp_util (auto-relax
//     retries, tuning sweeps) — exact-tier hits replay every (mapping,
//     shape) DFS verbatim;
//   * layers differing only in their H/W feature-map dimensions (the common
//     shape of a CNN's conv stack) — hint-tier entries seed the
//     branch-and-bound floor of the new sweep with the middle bounds the
//     structurally identical items solved to before.
//
// Correctness posture follows DesignCache: keys are FNV-1a hashes of the
// full (tier, context, item) texts and every hit re-verifies the stored
// texts, so a hash collision is a miss, never a wrong answer. An exact-tier
// hit is bit-identical to re-running the DFS (the context text covers every
// input the DFS reads — see sweep_context_text); hint-tier answers are
// advisory by contract and re-evaluated by the caller. Either way a warm
// cache can change only the time to a response, never its bytes.
//
// Bounded: one LRU across both tiers, `capacity` entries. Context strings
// (hundreds of bytes, shared by every item of a sweep) are interned through
// shared_ptr so each distinct context is stored once. Thread-safe; the DSE
// stores from worker threads. Hits, misses, insertions and evictions are
// counted in the metrics registry only (`sweep_cache_*`).
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/sweep_memo.h"

namespace sasynth {

class SweepCache : public SweepMemo {
 public:
  /// `capacity` bounds the total entry count across both tiers; 0 disables
  /// the cache (every lookup misses, every store is dropped).
  explicit SweepCache(std::size_t capacity);

  SweepCache(const SweepCache&) = delete;
  SweepCache& operator=(const SweepCache&) = delete;

  bool lookup_exact(const std::string& context, const std::string& item,
                    ExactResult* out) override;
  void store_exact(const std::string& context, const std::string& item,
                   const ExactResult& result) override;
  bool lookup_hint(const std::string& context, const std::string& item,
                   std::vector<std::int64_t>* hint_s) override;
  void store_hint(const std::string& context, const std::string& item,
                  const std::vector<std::int64_t>& best_s) override;

  std::size_t size() const;

 private:
  struct Entry {
    char tier = 'x';  ///< 'x' exact, 'h' hint
    std::shared_ptr<const std::string> context;
    std::string item;
    bool found_fit = false;            ///< exact tier only
    std::vector<std::int64_t> best_s;  ///< empty for exact not-found
    std::list<std::uint64_t>::iterator lru_pos;
  };

  /// Finds a verified entry (tier + texts match, not just the hash) and
  /// marks it most-recently-used. Caller holds the mutex.
  Entry* find_locked(char tier, std::uint64_t key, const std::string& context,
                     const std::string& item);
  void store_locked(char tier, std::uint64_t key, const std::string& context,
                    const std::string& item, bool found_fit,
                    const std::vector<std::int64_t>& best_s);
  std::shared_ptr<const std::string> intern_locked(const std::string& context);

  std::size_t capacity_;
  mutable std::mutex mutex_;
  std::unordered_map<std::uint64_t, Entry> entries_;
  std::list<std::uint64_t> lru_;  ///< front = most recent
  /// context text -> interned copy. Weak so evicting the last entry of a
  /// context releases its memory; expired slots are swept opportunistically.
  std::unordered_map<std::string, std::weak_ptr<const std::string>> interned_;
};

}  // namespace sasynth
