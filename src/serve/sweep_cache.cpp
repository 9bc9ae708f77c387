#include "serve/sweep_cache.h"

#include "obs/metrics.h"
#include "util/rng.h"

namespace sasynth {

namespace {

/// Sweep cache metrics (docs/OBSERVABILITY.md, `sweep_cache_*` family): the
/// only count of sweep cache events, summed over every SweepCache in the
/// process. Insertions count refreshes too.
struct SweepCacheMetrics {
  obs::Counter& hits;
  obs::Counter& misses;
  obs::Counter& insertions;
  obs::Counter& evictions;
  obs::Gauge& entries;

  static SweepCacheMetrics& get() {
    static SweepCacheMetrics* m = [] {
      obs::MetricsRegistry& r = obs::MetricsRegistry::global();
      return new SweepCacheMetrics{
          r.counter("sweep_cache_exact_hits_total"),
          r.counter("sweep_cache_exact_misses_total"),
          r.counter("sweep_cache_insertions_total"),
          r.counter("sweep_cache_evictions_total"),
          r.gauge("sweep_cache_entries"),
      };
    }();
    return *m;
  }
};

/// One hash over the full key pair; the unit separator keeps (context,
/// item) splits unambiguous.
std::uint64_t key_hash(const std::string& context, const std::string& item) {
  std::string key;
  key.reserve(context.size() + 1 + item.size());
  key += context;
  key.push_back('\x1f');
  key += item;
  return fnv1a64(key);
}

}  // namespace

SweepCache::SweepCache(std::size_t capacity) : capacity_(capacity) {}

void SweepCache::touch_locked(std::uint64_t key, Entry& entry) {
  lru_.erase(entry.lru_pos);
  lru_.push_front(key);
  entry.lru_pos = lru_.begin();
}

std::shared_ptr<const std::string> SweepCache::intern_locked(
    const std::string& context) {
  auto it = interned_.find(context);
  if (it != interned_.end()) {
    if (auto held = it->second.lock()) return held;
  }
  // Opportunistic sweep of expired slots so the intern map cannot outgrow
  // the distinct contexts still referenced by live entries.
  if (interned_.size() > 8 && interned_.size() > 2 * entries_.size()) {
    for (auto sweep = interned_.begin(); sweep != interned_.end();) {
      if (sweep->second.expired()) {
        sweep = interned_.erase(sweep);
      } else {
        ++sweep;
      }
    }
  }
  auto held = std::make_shared<const std::string>(context);
  interned_[context] = held;
  return held;
}

bool SweepCache::lookup(const std::string& context, const std::string& item,
                        Result* out) {
  if (capacity_ == 0) return false;
  const std::uint64_t key = key_hash(context, item);
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(key);
  // Verify the texts, not just the hash: a collision is a miss, never a
  // wrong answer (same posture as DesignCache's canonical check).
  if (it == entries_.end() || *it->second.context != context ||
      it->second.item != item) {
    SweepCacheMetrics::get().misses.add(1);
    return false;
  }
  SweepCacheMetrics::get().hits.add(1);
  touch_locked(key, it->second);
  *out = it->second.result;
  return true;
}

void SweepCache::store(const std::string& context, const std::string& item,
                       const Result& result) {
  if (capacity_ == 0) return;
  const std::uint64_t key = key_hash(context, item);
  std::lock_guard<std::mutex> lock(mutex_);
  SweepCacheMetrics::get().insertions.add(1);
  auto [it, inserted] = entries_.try_emplace(key);
  // A refresh rewrites the entry in place — also on a hash collision:
  // latest wins, and the colliding lookup re-verifies the texts and misses.
  Entry& entry = it->second;
  entry.context = intern_locked(context);
  entry.item = item;
  entry.result = result;
  if (inserted) {
    lru_.push_front(key);
    entry.lru_pos = lru_.begin();
  } else {
    touch_locked(key, entry);
  }
  while (entries_.size() > capacity_) {
    const std::uint64_t victim = lru_.back();
    lru_.pop_back();
    entries_.erase(victim);
    SweepCacheMetrics::get().evictions.add(1);
  }
  SweepCacheMetrics::get().entries.set(
      static_cast<std::int64_t>(entries_.size()));
}

std::size_t SweepCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

}  // namespace sasynth
