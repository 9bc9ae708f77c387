#include "faultinject/faultinject.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "obs/metrics.h"

namespace sasynth::fault {

namespace {

std::atomic<bool> g_faults_enabled{false};

/// Fault metrics (docs/OBSERVABILITY.md): faults fired by this layer and
/// graceful degradations reported by the handling sites. Handles resolved
/// once per process, in the obs style.
struct FaultMetrics {
  obs::Counter& injected;
  obs::Counter& degraded;

  static FaultMetrics& get() {
    static FaultMetrics* m = [] {
      obs::MetricsRegistry& r = obs::MetricsRegistry::global();
      return new FaultMetrics{
          r.counter("faults_injected_total"),
          r.counter("degraded_total"),
      };
    }();
    return *m;
  }
};

/// Site registry: append-only so references stay valid forever (the handles
/// contract). Guarded by its own mutex; lookups happen once per call site.
struct Registry {
  std::mutex mutex;
  std::vector<std::unique_ptr<Site>> sites;

  static Registry& get() {
    static Registry* r = new Registry;
    return *r;
  }
};

}  // namespace

const char* kind_name(ErrorKind kind) {
  switch (kind) {
    case ErrorKind::kNone: return "none";
    case ErrorKind::kShortRead: return "short_read";
    case ErrorKind::kEintr: return "eintr";
    case ErrorKind::kEpipe: return "epipe";
    case ErrorKind::kEnospc: return "enospc";
    case ErrorKind::kCorrupt: return "corrupt";
    case ErrorKind::kError: return "error";
    case ErrorKind::kStall: return "stall";
  }
  return "none";
}

bool parse_kind(const std::string& name, ErrorKind* out) {
  for (const ErrorKind kind :
       {ErrorKind::kShortRead, ErrorKind::kEintr, ErrorKind::kEpipe,
        ErrorKind::kEnospc, ErrorKind::kCorrupt, ErrorKind::kError,
        ErrorKind::kStall}) {
    if (name == kind_name(kind)) {
      *out = kind;
      return true;
    }
  }
  return false;
}

const std::vector<std::string>& known_sites() {
  static const std::vector<std::string> kSites = {
      kSiteTcpRead,    kSiteTcpWrite,     kSiteTcpAccept,   kSiteCacheLoad,
      kSiteCacheStore, kSiteCacheEvict,   kSiteSchedAdmit,  kSitePoolTask,
      kSiteDeployPlan, kSiteDeploySelect, kSiteLoopPoll,    kSiteLoopWakeup,
      kSiteShardConnect, kSiteShardRead,  kSiteShardWrite, kSiteShardProbe};
  return kSites;
}

bool faults_enabled() {
  return g_faults_enabled.load(std::memory_order_relaxed);
}

std::int64_t Site::injected() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return injected_;
}

ErrorKind Site::fire_slow() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (spec_.kind == ErrorKind::kNone) return ErrorKind::kNone;
  ++calls_;
  if (calls_ < spec_.after) return ErrorKind::kNone;
  if (spec_.count >= 0 && calls_ >= spec_.after + spec_.count) {
    return ErrorKind::kNone;  // firing window exhausted
  }
  ++injected_;
  FaultMetrics::get().injected.add(1);
  return spec_.kind;
}

Site& site(const char* name) {
  Registry& r = Registry::get();
  std::lock_guard<std::mutex> lock(r.mutex);
  for (const std::unique_ptr<Site>& s : r.sites) {
    if (s->name() == name) return *s;
  }
  r.sites.push_back(std::make_unique<Site>(name));
  return *r.sites.back();
}

void arm(const std::string& site_name, const FaultSpec& spec) {
  Site& s = site(site_name.c_str());
  {
    std::lock_guard<std::mutex> lock(s.mutex_);
    s.spec_ = spec;
    s.calls_ = 0;
    s.injected_ = 0;
  }
  if (spec.kind != ErrorKind::kNone) {
    g_faults_enabled.store(true, std::memory_order_relaxed);
  }
}

void disarm_all() {
  // Order matters: drop the flag first so new fire() calls take the free
  // path, then clear specs under each site's lock.
  g_faults_enabled.store(false, std::memory_order_relaxed);
  Registry& r = Registry::get();
  std::lock_guard<std::mutex> lock(r.mutex);
  for (const std::unique_ptr<Site>& s : r.sites) {
    std::lock_guard<std::mutex> site_lock(s->mutex_);
    s->spec_ = FaultSpec{};
    s->calls_ = 0;
    s->injected_ = 0;
  }
}

namespace {

/// Parses one "site:kind[@after][xcount]" entry.
bool parse_entry(const std::string& entry, FaultSpec* spec, std::string* name,
                 std::string* error) {
  const std::size_t colon = entry.find(':');
  if (colon == std::string::npos || colon == 0) {
    *error = "'" + entry + "': expected site:kind";
    return false;
  }
  *name = entry.substr(0, colon);
  bool known = false;
  for (const std::string& s : known_sites()) known = known || s == *name;
  if (!known) {
    *error = "'" + *name + "' is not a known fault site";
    return false;
  }
  std::string rest = entry.substr(colon + 1);

  // Split the optional suffixes off the kind, rightmost first: xCOUNT, @AFTER.
  // A marker that is present with an empty value ("error@x3", "error@2x") is
  // a typo, not an omission — reject it rather than guess.
  auto take_suffix = [&rest](char marker, std::string* value) {
    const std::size_t pos = rest.rfind(marker);
    if (pos == std::string::npos) return false;
    *value = rest.substr(pos + 1);
    rest.erase(pos);
    return true;
  };
  std::string count_text;
  std::string after_text;
  const bool has_count = take_suffix('x', &count_text);
  const bool has_after = take_suffix('@', &after_text);

  if (!parse_kind(rest, &spec->kind)) {
    *error = "'" + rest + "' is not a fault kind (short_read, eintr, epipe, "
             "enospc, corrupt, error, stall)";
    return false;
  }
  // util's parse_int64_strict sits above this library (util links it), so
  // the strict posture is restated here: whole token, no overflow — a value
  // saturated to LLONG_MAX would arm a fault that never fires.
  auto parse_positive = [](const std::string& text, std::int64_t* out) {
    if (text.empty()) return false;
    errno = 0;
    char* end = nullptr;
    const long long v = std::strtoll(text.c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || errno == ERANGE || v < 1) {
      return false;
    }
    *out = v;
    return true;
  };
  if (has_after && !parse_positive(after_text, &spec->after)) {
    *error = "'@" + after_text + "': after must be a positive integer";
    return false;
  }
  if (has_count) {
    if (count_text == "*") {
      spec->count = -1;
    } else if (!parse_positive(count_text, &spec->count)) {
      *error = "'x" + count_text + "': count must be a positive integer or *";
      return false;
    }
  }
  return true;
}

}  // namespace

bool parse_and_arm(const std::string& spec_string, std::string* error) {
  std::size_t begin = 0;
  while (begin <= spec_string.size()) {
    std::size_t comma = spec_string.find(',', begin);
    if (comma == std::string::npos) comma = spec_string.size();
    const std::string entry = spec_string.substr(begin, comma - begin);
    begin = comma + 1;
    if (entry.empty()) continue;
    FaultSpec spec;
    std::string name;
    std::string why;
    if (!parse_entry(entry, &spec, &name, &why)) {
      if (error != nullptr) *error = why;
      return false;
    }
    arm(name, spec);
  }
  return true;
}

int install_from_env() {
  const char* env = std::getenv("SASYNTH_FAULTS");
  if (env == nullptr || *env == '\0') return 0;
  int armed = 0;
  std::size_t begin = 0;
  const std::string spec_string(env);
  // Entry-at-a-time so one typo skips that entry, not the whole spec: a
  // misread fault plan must degrade the experiment, never the daemon.
  while (begin <= spec_string.size()) {
    std::size_t comma = spec_string.find(',', begin);
    if (comma == std::string::npos) comma = spec_string.size();
    const std::string entry = spec_string.substr(begin, comma - begin);
    begin = comma + 1;
    if (entry.empty()) continue;
    std::string why;
    if (parse_and_arm(entry, &why)) {
      ++armed;
    } else {
      std::fprintf(stderr, "warning: SASYNTH_FAULTS: %s (entry skipped)\n",
                   why.c_str());
    }
  }
  return armed;
}

std::int64_t injected_total() {
  Registry& r = Registry::get();
  std::lock_guard<std::mutex> lock(r.mutex);
  std::int64_t total = 0;
  for (const std::unique_ptr<Site>& s : r.sites) total += s->injected();
  return total;
}

void note_degraded() { FaultMetrics::get().degraded.add(1); }

void raise_if_armed(const char* site_name) {
  if (!faults_enabled()) return;  // the free path: no lookup, no lock
  Site& s = site(site_name);
  if (s.fire() != ErrorKind::kNone) throw FaultInjected(s.name());
}

}  // namespace sasynth::fault
