#include "serve/design_cache.h"

#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/design_io.h"
#include "faultinject/faultinject.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/strings.h"

namespace sasynth {

namespace {
constexpr const char* kCacheMagic = "sasynth-cache v1";

/// Cache metrics (docs/OBSERVABILITY.md): the only count of cache events,
/// fed by every cache instance in the process. A miss is a probe that did
/// not hit. `stores - disk_store_failures` bounds what a fresh process can
/// possibly find on disk: a failed persist still leaves the entry in memory.
struct CacheMetrics {
  obs::Counter& probes;
  obs::Counter& hits;
  obs::Counter& disk_hits;
  obs::Counter& load_failures;
  obs::Counter& stores;
  obs::Counter& evictions;
  obs::Counter& disk_store_failures;

  static CacheMetrics& get() {
    static CacheMetrics* m = [] {
      obs::MetricsRegistry& r = obs::MetricsRegistry::global();
      return new CacheMetrics{
          r.counter("cache_probes_total"),
          r.counter("cache_hits_total"),
          r.counter("cache_disk_hits_total"),
          r.counter("cache_load_failures_total"),
          r.counter("cache_stores_total"),
          r.counter("cache_evictions_total"),
          r.counter("cache_disk_store_failures_total"),
      };
    }();
    return *m;
  }
};
}  // namespace

DesignCache::DesignCache(std::string dir, std::size_t capacity)
    : dir_(std::move(dir)), capacity_(capacity == 0 ? 1 : capacity) {}

std::string DesignCache::entry_path(std::uint64_t key) const {
  return dir_ + "/" + strformat("%016llx", static_cast<unsigned long long>(key)) +
         ".design";
}

bool DesignCache::lookup(const std::string& canonical_request,
                         const LoopNest& nest, DesignPoint* out) {
  const std::uint64_t key = fnv1a64(canonical_request);
  CacheMetrics::get().probes.add(1);
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(key);
  if (it != entries_.end() && it->second.canonical == canonical_request) {
    // Revalidate against this request's nest: a design cached for one nest
    // must never leak into another (collision through the canonical check is
    // impossible, but the nest check also guards callers passing mismatched
    // canonical/nest pairs).
    const std::string validation = it->second.design.validate(nest);
    if (validation.empty()) {
      *out = it->second.design;
      touch(it->second, key);
      CacheMetrics::get().hits.add(1);
      return true;
    }
    SA_LOG_WARN << "design cache: in-memory entry invalid for nest ("
                << validation << "), treating as miss";
  }
  if (!dir_.empty() && load_from_disk(key, canonical_request, nest, out)) {
    // Promote to memory so a hot key stops paying disk I/O.
    insert_locked(key, canonical_request, *out);
    CacheMetrics& cm = CacheMetrics::get();
    cm.hits.add(1);
    cm.disk_hits.add(1);
    return true;
  }
  return false;
}

void DesignCache::insert(const std::string& canonical_request,
                         const DesignPoint& design) {
  const std::uint64_t key = fnv1a64(canonical_request);
  std::lock_guard<std::mutex> lock(mutex_);
  insert_locked(key, canonical_request, design);
  CacheMetrics::get().stores.add(1);
  if (!dir_.empty()) store_to_disk(key, canonical_request, design);
}

void DesignCache::insert_locked(std::uint64_t key,
                                const std::string& canonical_request,
                                const DesignPoint& design) {
  const auto it = entries_.find(key);
  if (it != entries_.end()) {
    it->second.canonical = canonical_request;
    it->second.design = design;
    touch(it->second, key);
    return;
  }
  static fault::Site& evict_site = fault::site(fault::kSiteCacheEvict);
  while (entries_.size() >= capacity_) {
    if (evict_site.fire() != fault::ErrorKind::kNone) {
      // Injected eviction failure: degrade by dropping the whole memory
      // tier, as if the process had just restarted. Correctness is
      // untouched — every later lookup falls through to disk or to a fresh
      // DSE, both of which yield byte-identical responses.
      SA_LOG_WARN << "design cache: injected eviction fault, dropping all "
                  << entries_.size() << " in-memory entries";
      fault::note_degraded();
      CacheMetrics::get().evictions.add(
          static_cast<std::int64_t>(entries_.size()));
      entries_.clear();
      lru_.clear();
      break;
    }
    const std::uint64_t victim = lru_.back();
    lru_.pop_back();
    entries_.erase(victim);
    CacheMetrics::get().evictions.add(1);
  }
  lru_.push_front(key);
  entries_.emplace(key, Entry{canonical_request, design, lru_.begin()});
}

void DesignCache::touch(Entry& entry, std::uint64_t key) {
  lru_.erase(entry.lru_pos);
  lru_.push_front(key);
  entry.lru_pos = lru_.begin();
}

bool DesignCache::load_from_disk(std::uint64_t key,
                                 const std::string& canonical_request,
                                 const LoopNest& nest, DesignPoint* out) {
  obs::ScopedSpan span("cache.disk_load", "serve");
  static fault::Site& load_site = fault::site(fault::kSiteCacheLoad);
  const std::string path = entry_path(key);
  std::ifstream in(path);
  if (!in) return false;  // no entry: a plain miss, not a failure
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string text = buffer.str();

  auto reject = [&](const char* why) {
    CacheMetrics::get().load_failures.add(1);
    fault::note_degraded();
    SA_LOG_WARN << "design cache: discarding " << path << " (" << why
                << "), falling back to a fresh DSE";
    return false;
  };

  // A disk error mid-read leaves a prefix in `text`; parsing it could
  // resurrect a stale half-entry, so it is a failure, not a short file.
  if (in.bad()) return reject("read error");
  switch (load_site.fire()) {
    case fault::ErrorKind::kNone:
      break;
    case fault::ErrorKind::kCorrupt:
      // Flip bytes at the quarter points (sparing newlines, which carry the
      // framing): wherever they land — magic, key, canonical request, or
      // design blob — a validation layer below must catch it.
      for (const std::size_t at :
           {text.size() / 4, text.size() / 2, (3 * text.size()) / 4}) {
        if (at < text.size() && text[at] != '\n') text[at] ^= 0x15;
      }
      break;
    default:  // error/eintr/...: the read itself failed
      return reject("injected read error");
  }

  // Header, key, canonical request ("req " lines), then the design blob.
  const std::vector<std::string> lines = split(text, '\n');
  std::size_t i = 0;
  auto next_line = [&]() -> std::string {
    while (i < lines.size()) {
      const std::string line = trim(lines[i++]);
      if (!line.empty()) return line;
    }
    return "";
  };
  if (next_line() != kCacheMagic) return reject("bad magic");
  const std::string key_line = next_line();
  if (key_line != "key " + strformat("%016llx",
                                     static_cast<unsigned long long>(key))) {
    return reject("key mismatch");
  }
  std::string stored_canonical;
  std::size_t design_start = i;
  for (std::string line = next_line(); !line.empty(); line = next_line()) {
    if (!starts_with(line, "req ")) {
      design_start = i - 1;  // first non-req line opens the design blob
      break;
    }
    stored_canonical += line.substr(4) + "\n";
  }
  // The req-line encoding is newline-normalized, so compare against the
  // newline-terminated form of the caller's key.
  std::string want = canonical_request;
  if (!want.empty() && want.back() != '\n') want += '\n';
  if (stored_canonical != want) {
    return reject("canonical request mismatch (hash collision or stale file)");
  }
  std::string design_text;
  for (std::size_t l = design_start; l < lines.size(); ++l) {
    design_text += lines[l] + "\n";
  }
  const DesignLoadResult loaded = load_design_text(design_text, nest);
  if (!loaded.ok) return reject(loaded.error.c_str());
  *out = loaded.design;
  return true;
}

void DesignCache::store_to_disk(std::uint64_t key,
                                const std::string& canonical_request,
                                const DesignPoint& design) {
  obs::ScopedSpan span("cache.disk_store", "serve");
  static fault::Site& store_site = fault::site(fault::kSiteCacheStore);
  // Every early return below is one failed persist; the caller already
  // counted the insertion, so this is the only place that keeps the counts
  // honest about what actually reached disk. (Called under mutex_.)
  auto count_failure = [] {
    CacheMetrics::get().disk_store_failures.add(1);
    fault::note_degraded();
  };
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) {
    SA_LOG_WARN << "design cache: cannot create " << dir_ << " ("
                << ec.message() << "), running in-memory only";
    count_failure();
    return;
  }
  const fault::ErrorKind injected = store_site.fire();
  if (injected != fault::ErrorKind::kNone) {
    // ENOSPC & friends: the entry simply is not persisted. The in-memory
    // tier still has it; a later cold process re-runs the DSE — slower,
    // byte-identical.
    SA_LOG_WARN << "design cache: injected " << fault::kind_name(injected)
                << " writing " << entry_path(key) << ", entry not persisted";
    count_failure();
    return;
  }
  std::string text = std::string(kCacheMagic) + "\n";
  text += "key " +
          strformat("%016llx", static_cast<unsigned long long>(key)) + "\n";
  for (const std::string& line : split(canonical_request, '\n')) {
    if (!line.empty()) text += "req " + line + "\n";
  }
  text += save_design_text(design);

  // Write-then-rename so a concurrent reader never observes a torn entry
  // (and a crashed writer leaves at worst a stale .tmp, not a corrupt key).
  const std::string path = entry_path(key);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream outf(tmp, std::ios::trunc);
    outf << text;
    // Flush and close before judging success: a full disk often only
    // surfaces when buffered bytes hit the kernel, and renaming a
    // short-written tmp would publish a torn entry under the real key.
    outf.flush();
    outf.close();
    if (!outf) {
      SA_LOG_WARN << "design cache: cannot write " << tmp;
      count_failure();
      std::filesystem::remove(tmp, ec);
      return;
    }
  }
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    SA_LOG_WARN << "design cache: cannot rename " << tmp << " -> " << path
                << " (" << ec.message() << ")";
    count_failure();
    std::filesystem::remove(tmp, ec);
  }
}

std::size_t DesignCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

}  // namespace sasynth
