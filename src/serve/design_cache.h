// Persistent design cache: the memoization layer in front of the DSE.
//
// A cache entry maps the complete request tuple — rendered by
// canonical_request_text() and keyed by its FNV-1a hash (util/rng.h) — to
// the design point the DSE chose for it. Everything else in a response
// (throughput, resources, realized clock) is recomputed from the design by
// the deterministic models, so a hit is byte-identical to a fresh
// exploration.
//
// Two tiers:
//   * in-memory LRU, bounded by `capacity` entries;
//   * optional on-disk store (one `sasynth-cache v1` text file per key under
//     `dir`), which survives restarts and is shared between sasynthd and
//     sasynth_cli --design-cache.
//
// Disk loads are corruption-tolerant by construction: the file must carry
// the magic, the expected key, the full canonical request (guarding against
// hash collisions and cross-request aliasing), and a design blob that
// load_design_text() validates against the request's loop nest. Any
// mismatch — truncation, garbage, a stale entry for a different nest — is a
// miss that falls back to a fresh DSE; it never crashes and never yields a
// partially initialized design.
#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>

#include "core/design_point.h"
#include "loopnest/loop_nest.h"

namespace sasynth {

/// Lookups, hits, loads, stores and evictions are counted in the metrics
/// registry only (`cache_*`, docs/OBSERVABILITY.md), summed over every cache
/// in the process.
class DesignCache {
 public:
  /// `dir` empty means in-memory only. The directory is created on first
  /// insert; creation failure degrades to in-memory operation (logged).
  DesignCache(std::string dir, std::size_t capacity);

  DesignCache(const DesignCache&) = delete;
  DesignCache& operator=(const DesignCache&) = delete;

  /// Looks `canonical_request` up (memory first, then disk). On a hit the
  /// design — validated against `nest` — is written to `out` and the entry
  /// becomes most-recently-used. Thread-safe.
  bool lookup(const std::string& canonical_request, const LoopNest& nest,
              DesignPoint* out);

  /// Stores (or refreshes) the entry, evicting the least-recently-used
  /// in-memory entry beyond capacity and rewriting the disk file when a
  /// directory is configured. Thread-safe.
  void insert(const std::string& canonical_request, const DesignPoint& design);

  std::size_t size() const;
  const std::string& dir() const { return dir_; }

  /// Disk file of a key: <dir>/<016x key>.design.
  std::string entry_path(std::uint64_t key) const;

 private:
  struct Entry {
    std::string canonical;
    DesignPoint design;
    std::list<std::uint64_t>::iterator lru_pos;
  };

  bool load_from_disk(std::uint64_t key, const std::string& canonical_request,
                      const LoopNest& nest, DesignPoint* out);
  void store_to_disk(std::uint64_t key, const std::string& canonical_request,
                     const DesignPoint& design);
  void touch(Entry& entry, std::uint64_t key);
  void insert_locked(std::uint64_t key, const std::string& canonical_request,
                     const DesignPoint& design);

  std::string dir_;
  std::size_t capacity_;
  mutable std::mutex mutex_;
  std::unordered_map<std::uint64_t, Entry> entries_;
  std::list<std::uint64_t> lru_;  ///< front = most recent
};

}  // namespace sasynth
