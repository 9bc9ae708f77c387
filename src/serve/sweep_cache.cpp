#include "serve/sweep_cache.h"

#include "obs/metrics.h"
#include "util/rng.h"

namespace sasynth {

namespace {

/// Sweep cache metrics (docs/OBSERVABILITY.md, `sweep_cache_*` family): the
/// only count of sweep cache events, summed over every SweepCache in the
/// process. Insertions cover both tiers, refreshes included.
struct SweepCacheMetrics {
  obs::Counter& exact_hits;
  obs::Counter& exact_misses;
  obs::Counter& hint_hits;
  obs::Counter& hint_misses;
  obs::Counter& insertions;
  obs::Counter& evictions;
  obs::Gauge& entries;

  static SweepCacheMetrics& get() {
    static SweepCacheMetrics* m = [] {
      obs::MetricsRegistry& r = obs::MetricsRegistry::global();
      return new SweepCacheMetrics{
          r.counter("sweep_cache_exact_hits_total"),
          r.counter("sweep_cache_exact_misses_total"),
          r.counter("sweep_cache_hint_hits_total"),
          r.counter("sweep_cache_hint_misses_total"),
          r.counter("sweep_cache_insertions_total"),
          r.counter("sweep_cache_evictions_total"),
          r.gauge("sweep_cache_entries"),
      };
    }();
    return *m;
  }
};

/// One hash over the full key tuple. The tier byte keeps an exact and a hint
/// entry for the same texts from aliasing; the unit separator keeps
/// (context, item) splits unambiguous.
std::uint64_t key_hash(char tier, const std::string& context,
                       const std::string& item) {
  std::string key;
  key.reserve(2 + context.size() + 1 + item.size());
  key.push_back(tier);
  key.push_back('\x1f');
  key += context;
  key.push_back('\x1f');
  key += item;
  return fnv1a64(key);
}

}  // namespace

SweepCache::SweepCache(std::size_t capacity) : capacity_(capacity) {}

SweepCache::Entry* SweepCache::find_locked(char tier, std::uint64_t key,
                                           const std::string& context,
                                           const std::string& item) {
  auto it = entries_.find(key);
  if (it == entries_.end()) return nullptr;
  Entry& entry = it->second;
  // Verify the texts, not just the hash: a collision is a miss, never a
  // wrong answer (same posture as DesignCache's canonical check).
  if (entry.tier != tier || *entry.context != context || entry.item != item) {
    return nullptr;
  }
  lru_.erase(entry.lru_pos);
  lru_.push_front(key);
  entry.lru_pos = lru_.begin();
  return &entry;
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

void SweepCache::store_locked(char tier, std::uint64_t key,
                              const std::string& context,
                              const std::string& item, bool found_fit,
                              const std::vector<std::int64_t>& best_s) {
  SweepCacheMetrics::get().insertions.add(1);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    // Refresh in place (also the hash-collision case: latest wins — both
    // tiers tolerate replacement, the exact tier because the colliding
    // lookup re-verifies and misses).
    Entry& entry = it->second;
    entry.tier = tier;
    entry.context = intern_locked(context);
    entry.item = item;
    entry.found_fit = found_fit;
    entry.best_s = best_s;
    lru_.erase(entry.lru_pos);
    lru_.push_front(key);
    entry.lru_pos = lru_.begin();
    return;
  }
  Entry entry;
  entry.tier = tier;
  entry.context = intern_locked(context);
  entry.item = item;
  entry.found_fit = found_fit;
  entry.best_s = best_s;
  lru_.push_front(key);
  entry.lru_pos = lru_.begin();
  entries_.emplace(key, std::move(entry));
  while (entries_.size() > capacity_) {
    const std::uint64_t victim = lru_.back();
    lru_.pop_back();
    entries_.erase(victim);
    SweepCacheMetrics::get().evictions.add(1);
  }
  SweepCacheMetrics::get().entries.set(
      static_cast<std::int64_t>(entries_.size()));
}

bool SweepCache::lookup_exact(const std::string& context,
                              const std::string& item, ExactResult* out) {
  if (capacity_ == 0) return false;
  const std::uint64_t key = key_hash('x', context, item);
  std::lock_guard<std::mutex> lock(mutex_);
  Entry* entry = find_locked('x', key, context, item);
  if (entry == nullptr) {
    SweepCacheMetrics::get().exact_misses.add(1);
    return false;
  }
  SweepCacheMetrics::get().exact_hits.add(1);
  out->found_fit = entry->found_fit;
  out->best_s = entry->best_s;
  return true;
}

void SweepCache::store_exact(const std::string& context,
                             const std::string& item,
                             const ExactResult& result) {
  if (capacity_ == 0) return;
  const std::uint64_t key = key_hash('x', context, item);
  std::lock_guard<std::mutex> lock(mutex_);
  store_locked('x', key, context, item, result.found_fit, result.best_s);
}

bool SweepCache::lookup_hint(const std::string& context,
                             const std::string& item,
                             std::vector<std::int64_t>* hint_s) {
  if (capacity_ == 0) return false;
  const std::uint64_t key = key_hash('h', context, item);
  std::lock_guard<std::mutex> lock(mutex_);
  Entry* entry = find_locked('h', key, context, item);
  if (entry == nullptr) {
    SweepCacheMetrics::get().hint_misses.add(1);
    return false;
  }
  SweepCacheMetrics::get().hint_hits.add(1);
  *hint_s = entry->best_s;
  return true;
}

void SweepCache::store_hint(const std::string& context,
                            const std::string& item,
                            const std::vector<std::int64_t>& best_s) {
  if (capacity_ == 0) return;
  const std::uint64_t key = key_hash('h', context, item);
  std::lock_guard<std::mutex> lock(mutex_);
  store_locked('h', key, context, item, /*found_fit=*/true, best_s);
}

std::size_t SweepCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

}  // namespace sasynth
