// Deterministic fault injection for the fallible I/O boundaries of the
// serving stack: TCP read/write/accept, DesignCache disk load/store/evict,
// scheduler admission, and request-task execution on the thread pool.
//
// Design rules (modeled on the obs enable-flag pattern):
//   * Zero overhead when disabled: a site check is one relaxed atomic load
//     of the global arm flag and nothing else — no lock, no allocation, no
//     string compare. The flag only turns on when a fault is armed.
//   * Sites are named and resolved once (like metrics handles): call sites
//     keep a `static Site&` reference; the registry lookup happens one time.
//   * Faults are deterministic: a spec selects the error kind, the call
//     ordinal it starts firing on, and how many times it fires. The same
//     spec against the same request stream injects the same faults.
//   * Two front doors: the `SASYNTH_FAULTS` environment spec string
//     (install_from_env(), read by sasynthd at startup) and the C++ arming
//     API used by tests/faultinject/.
//   * Every fired fault increments the obs counter `faults_injected_total`;
//     every graceful-degradation path (injected or real) reports through
//     note_degraded(), which increments `degraded_total`. Both appear in
//     `stats --format=prom|json` and --metrics-out dumps.
//
// Spec string grammar (entries comma-separated):
//
//   SASYNTH_FAULTS=site:kind[@after][xcount]
//
//   site   one of known_sites() (e.g. tcp.read, cache.store, sched.admit)
//   kind   short_read | eintr | epipe | enospc | corrupt | error | stall
//   @after first site call that fires, 1-based (default 1 = the next call)
//   xcount how many consecutive calls fire (default 1; x* = every call
//          from `after` on)
//
//   Example: SASYNTH_FAULTS=tcp.read:eintr@1x3,cache.store:enospc
//
// What a fired kind means is defined by the site that owns it (the table
// lives in docs/SERVING.md "Failure modes & degradation"); arming a kind a
// site does not implement is legal and acts like `error` there.
//
// This library sits between obs and util (util/thread_pool reports swallowed
// task exceptions through note_degraded), so it depends only on obs and the
// standard library.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

namespace sasynth::fault {

/// Error kinds a site can be armed with. Sites interpret them (a short read
/// is meaningless for an accept); unimplemented kinds degrade to kError.
enum class ErrorKind {
  kNone = 0,
  kShortRead,  ///< deliver fewer bytes than were available
  kEintr,      ///< the call fails with EINTR (retryable)
  kEpipe,      ///< write fails as if the peer vanished (EPIPE)
  kEnospc,     ///< disk write fails as if the volume filled (ENOSPC)
  kCorrupt,    ///< the bytes read are corrupted in flight
  kError,      ///< generic fatal I/O error (EIO)
  kStall,      ///< the peer goes silent (slow-loris); tcp.read/tcp.write
               ///< model it as an elapsed I/O timeout when one is armed,
               ///< a brief real delay otherwise; other sites treat it as
               ///< kError like any unimplemented kind
};

/// Canonical spec-string name of a kind ("short_read", ...); "none" for
/// kNone.
const char* kind_name(ErrorKind kind);

/// Parses a spec-string kind name. Returns false (out untouched) on an
/// unknown name.
bool parse_kind(const std::string& name, ErrorKind* out);

/// The injection surface. Tests iterate known_sites() to sweep every point;
/// call sites reference these constants so a typo cannot silently create a
/// dead site.
inline constexpr const char* kSiteTcpRead = "tcp.read";
inline constexpr const char* kSiteTcpWrite = "tcp.write";
inline constexpr const char* kSiteTcpAccept = "tcp.accept";
inline constexpr const char* kSiteCacheLoad = "cache.load";
inline constexpr const char* kSiteCacheStore = "cache.store";
inline constexpr const char* kSiteCacheEvict = "cache.evict";
inline constexpr const char* kSiteSchedAdmit = "sched.admit";
inline constexpr const char* kSitePoolTask = "pool.task";
inline constexpr const char* kSiteDeployPlan = "deploy.plan";
inline constexpr const char* kSiteDeploySelect = "deploy.select";
/// Event-loop internals (serve/event_loop.h). `loop.poll` fires per
/// epoll_wait call — any injected kind models a transient poller error
/// the loop must absorb and retry. `loop.wakeup` fires per cross-thread
/// wakeup — an injected kind models a *lost* eventfd write, which
/// the loop's bounded wait tick must recover from (a completion may be
/// delayed, never dropped). Both are swept with the others over the event
/// loop (tests/faultinject/fault_sweep_test.cpp).
inline constexpr const char* kSiteLoopPoll = "loop.poll";
inline constexpr const char* kSiteLoopWakeup = "loop.wakeup";
/// Shard-coordinator peer I/O (serve/shard.h), one site per RPC step. Any
/// injected kind fails that step, and a failed step never fails the request:
/// the coordinator re-executes the peer's item range locally (counted in
/// `shard_degraded_total` on top of the usual `degraded_total`).
inline constexpr const char* kSiteShardConnect = "shard.connect";
inline constexpr const char* kSiteShardRead = "shard.read";
inline constexpr const char* kSiteShardWrite = "shard.write";

/// Background health probe of an open-breaker peer (serve/peer_health.h).
/// Any injected kind fails the probe: the peer stays open and the next
/// probe backs off one more step — no request is ever touched.
inline constexpr const char* kSiteShardProbe = "shard.probe";

/// Every site name above, in a stable order.
const std::vector<std::string>& known_sites();

/// Global arm flag: true while at least one fault is armed. The only cost a
/// disabled site check pays is this relaxed load.
bool faults_enabled();

/// One armed fault at one site.
struct FaultSpec {
  ErrorKind kind = ErrorKind::kNone;
  std::int64_t after = 1;  ///< first firing call ordinal (1-based)
  std::int64_t count = 1;  ///< consecutive firing calls; < 0 = unlimited
};

/// A named injection point. Construction happens inside the registry; call
/// sites hold a reference from site() and call fire() on the fallible path.
class Site {
 public:
  explicit Site(std::string name) : name_(std::move(name)) {}

  Site(const Site&) = delete;
  Site& operator=(const Site&) = delete;

  /// The per-call check. Returns kNone (for free) unless a fault is armed
  /// somewhere; otherwise counts the call and returns the armed kind when
  /// this call falls in the firing window.
  ErrorKind fire() {
    if (!faults_enabled()) return ErrorKind::kNone;
    return fire_slow();
  }

  const std::string& name() const { return name_; }

  /// Faults this site has injected since the last disarm_all().
  std::int64_t injected() const;

 private:
  friend void arm(const std::string&, const FaultSpec&);
  friend void disarm_all();

  ErrorKind fire_slow();

  const std::string name_;
  mutable std::mutex mutex_;
  FaultSpec spec_;            ///< kind == kNone when disarmed
  std::int64_t calls_ = 0;    ///< fire() calls while enabled
  std::int64_t injected_ = 0; ///< calls that returned != kNone
};

/// Resolves (creating on first use) the named site. References stay valid
/// for the process lifetime; resolve once and keep the reference.
Site& site(const char* name);

/// Arms `spec` at the named site (replacing any previous spec there) and
/// turns the global flag on. Site call/injection counters reset so `after`
/// counts from the next call.
void arm(const std::string& site_name, const FaultSpec& spec);

/// Disarms every site, resets all counters, and turns the global flag off.
void disarm_all();

/// Parses a full spec string ("site:kind[@N][xM],...") and arms each entry.
/// On a malformed entry, stops, reports in `error` (may be null), and leaves
/// earlier entries armed. Empty input is a no-op success.
bool parse_and_arm(const std::string& spec_string, std::string* error);

/// Reads SASYNTH_FAULTS and arms it. Malformed entries are reported on
/// stderr and skipped — a bad spec must not take the daemon down. Returns
/// the number of armed entries.
int install_from_env();

/// Total faults injected across all sites since the last disarm_all().
std::int64_t injected_total();

/// Records one graceful degradation (fallback to fresh DSE, dropped
/// session, transient-accept retry, swallowed task error...) in the obs
/// counter `degraded_total`. Callable from any thread; no-op while metrics
/// are disabled, like every obs instrument.
void note_degraded();

/// Thrown by raise_if_armed to simulate a task body failing mid-flight.
class FaultInjected : public std::runtime_error {
 public:
  explicit FaultInjected(const std::string& site_name)
      : std::runtime_error("injected fault at " + site_name) {}
};

/// Convenience for exception-shaped sites (pool.task): throws FaultInjected
/// when the site fires, otherwise returns.
void raise_if_armed(const char* site_name);

}  // namespace sasynth::fault
