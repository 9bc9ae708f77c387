// Cross-request sweep cache: the serve-layer SweepMemo implementation.
//
// Sits one level below the DesignCache. The DesignCache memoizes whole
// requests (exact canonical-text match); this cache memoizes the per-item
// reuse DFS *inside* a phase-1 sweep, so requests that are not
// byte-identical still share computation: the same layer re-explored under
// a different min_dsp_util (auto-relax retries, tuning sweeps) replays its
// floor-free (mapping, shape) DFS results verbatim. Layers that differ only
// in their H/W dimensions share no entry — the trips are part of the key.
//
// Correctness posture follows DesignCache: keys are FNV-1a hashes of the
// full (context, item) texts and every hit re-verifies the stored texts, so
// a hash collision is a miss, never a wrong answer. A hit is bit-identical
// to re-running the DFS (the context text covers every input the DFS reads
// — see sweep_context_text), so a warm cache can change only the time to a
// response, never its bytes.
//
// Bounded: one LRU of `capacity` entries. Context strings (hundreds of
// bytes, shared by every item of a sweep) are interned through shared_ptr
// so each distinct context is stored once. Thread-safe; the DSE stores from
// worker threads. Hits, misses, insertions and evictions are counted in the
// metrics registry only (`sweep_cache_*`).
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
  /// `capacity` bounds the entry count; 0 disables the cache (every lookup
  /// misses, every store is dropped).
  explicit SweepCache(std::size_t capacity);

  SweepCache(const SweepCache&) = delete;
  SweepCache& operator=(const SweepCache&) = delete;

  bool lookup(const std::string& context, const std::string& item,
              Result* out) override;
  void store(const std::string& context, const std::string& item,
             const Result& result) override;

  std::size_t size() const;

 private:
  struct Entry {
    std::shared_ptr<const std::string> context;
    std::string item;
    Result result;
    std::list<std::uint64_t>::iterator lru_pos;
  };

  /// Marks the entry most-recently-used. Caller holds the mutex.
  void touch_locked(std::uint64_t key, Entry& entry);
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
