// sasynthd — synthesis-as-a-service daemon.
//
// Serves the sasynth-request v1 protocol (see docs/SERVING.md) over stdio
// (default) or a loopback TCP port, in front of a persistent DesignCache:
// a (layer, device, dtype, options) tuple that has been solved before is
// answered from the cache without re-entering the design space exploration.
//
// Usage:
//   sasynthd [options]
//     --port N            serve TCP on 127.0.0.1:N (0 = ephemeral, the
//                         chosen port is printed on stdout); default is stdio
//     --cache DIR         persistent design cache directory
//     --cache-capacity N  in-memory LRU entries (default 1024)
//     --no-cache          disable the design cache entirely
//     --sweep-cache-capacity N  incremental-DSE sweep-memo entries
//                         (default 65536; 0 disables the tier)
//     --jobs N            worker threads (0 = SASYNTH_JOBS env or all cores)
//     --queue N           admission queue bound (default 64); beyond it
//                         requests get a retry response (backpressure)
//     --default-deadline MS  deadline for requests without deadline_ms
//                         (0 = none, the default)
//     --io-timeout MS     per-read/write transport timeout for TCP sessions
//                         (default 30000; 0 = never time out)
//     --peers LIST        shard-coordinator mode: comma-separated worker
//                         daemons ("host:port,..."); phase 1 of every cache-
//                         missing request fans out over them, byte-identical
//                         to single-node (docs/SERVING.md "Sharding")
//     --shard-io-timeout MS  per connect/write/read bound on shard peer I/O
//                         (default 30000; 0 = unbounded); a slower peer's
//                         range is re-executed locally
//     --peer-failure-threshold N  consecutive peer failures that open its
//                         circuit breaker (default 3); an open peer's
//                         ranges skip the connect and run locally until a
//                         health probe re-admits it
//     --peer-probe-interval MS  background re-admission probe cadence and
//                         backoff base (default 1000; 0 = no prober)
//     --shard-hedge-ms MS hedge delay for slow peers: after MS the range is
//                         also run locally and the first result wins
//                         (default 0 = no hedging)
//     --max-connections N open TCP connection bound (0 = unlimited, the
//                         default); a client beyond it gets a retry response
//                         and an immediate close
//     --drain-timeout MS  bound on the SIGTERM/SIGINT graceful drain
//                         (default 5000)
//     --metrics-out FILE  dump the metrics registry at exit (.json = JSON,
//                         anything else = Prometheus text)
//     --trace-out FILE    record spans, write Chrome trace JSON at exit
//     --log-level NAME    debug|info|warn|error|off (default warn;
//                         unrecognized names warn and fall back to info)
//
// Metrics are always on in the daemon (the registry is the `stats
// --format=prom|json` data source); tracing only with --trace-out.
//
// Shutdown: the `shutdown` protocol command (or EOF on stdio) drains every
// accepted request, flushes responses in order, then exits. SIGTERM/SIGINT
// trigger the same drain bounded by --drain-timeout: stop accepting, finish
// in-flight work, dump observability, exit 0 (or 1 if the bound expired with
// work still in flight).
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "faultinject/faultinject.h"
#include "flag_parse.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/event_loop.h"
#include "serve/server.h"
#include "serve/tcp.h"
#include "util/logging.h"
#include "util/strings.h"

namespace {

using namespace sasynth;

void print_usage(std::FILE* out) {
  std::fprintf(out,
               "usage: sasynthd [options]\n"
               "  --port N            TCP on 127.0.0.1:N (0 = ephemeral); "
               "default stdio\n"
               "  --cache DIR         persistent design cache directory\n"
               "  --cache-capacity N  in-memory LRU entries (default 1024)\n"
               "  --no-cache          disable the design cache\n"
               "  --sweep-cache-capacity N  incremental-DSE sweep entries "
               "(default 65536; 0 = off)\n"
               "  --jobs N            worker threads (0 = SASYNTH_JOBS env or "
               "all cores)\n"
               "  --queue N           admission queue bound (default 64)\n"
               "  --default-deadline MS  deadline for requests without "
               "deadline_ms (0 = none)\n"
               "  --io-timeout MS     TCP per-read/write timeout (default "
               "30000; 0 = off)\n"
               "  --peers LIST        shard worker daemons "
               "(\"host:port,...\"); phase 1 fans\n"
               "                      out over them, byte-identical to "
               "single-node\n"
               "  --shard-io-timeout MS  per-step shard peer I/O bound "
               "(default 30000;\n"
               "                      0 = unbounded)\n"
               "  --peer-failure-threshold N  consecutive failures that open "
               "a peer's\n"
               "                      circuit breaker (default 3)\n"
               "  --peer-probe-interval MS  re-admission probe cadence / "
               "backoff base\n"
               "                      (default 1000; 0 = no prober)\n"
               "  --shard-hedge-ms MS hedge delay for slow peers (default 0 "
               "= off)\n"
               "  --max-connections N open TCP connection bound (0 = "
               "unlimited); beyond it\n"
               "                      clients get a retry response and a "
               "close\n"
               "  --drain-timeout MS  SIGTERM/SIGINT graceful drain bound "
               "(default 5000)\n"
               "  --metrics-out FILE  dump metrics at exit (.json = JSON, "
               "else Prometheus text)\n"
               "  --trace-out FILE    record spans, write Chrome trace JSON "
               "at exit\n"
               "  --log-level NAME    debug|info|warn|error|off (default "
               "warn; unrecognized\n"
               "                      names warn and fall back to info)\n");
}

[[noreturn]] void usage(const char* message = nullptr) {
  if (message != nullptr) std::fprintf(stderr, "error: %s\n\n", message);
  print_usage(stderr);
  std::exit(2);
}

/// Flushes the metrics registry / trace buffer to the --metrics-out and
/// --trace-out paths (empty = skip). Failures warn; the serve exit status is
/// not hostage to an unwritable dump path.
void dump_observability(const std::string& metrics_path,
                        const std::string& trace_path) {
  auto write_or_warn = [](const std::string& path, const std::string& text) {
    std::ofstream out(path, std::ios::trunc);
    out << text;
    if (!out) {
      std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    }
  };
  if (!metrics_path.empty()) {
    const obs::MetricsRegistry& r = obs::MetricsRegistry::global();
    write_or_warn(metrics_path, ends_with(metrics_path, ".json")
                                    ? r.to_json()
                                    : r.to_prom());
  }
  if (!trace_path.empty()) {
    write_or_warn(trace_path, obs::TraceRecorder::global().to_chrome_trace());
  }
}

/// Last signal delivered (0 = none). Written by the async handler, polled by
/// the drain watcher — the handler itself does nothing non-async-signal-safe.
std::atomic<int> g_signal{0};

void on_signal(int sig) { g_signal.store(sig); }

/// Polls g_signal (~50 ms) and runs the stdio-mode graceful drain when it
/// fires: stop reading (begin_drain), wait up to drain_timeout_ms for
/// in-flight requests, dump observability, exit. _Exit skips static
/// destructors on purpose — the session may still be parked on a dead stdin,
/// and a clean drain must not hang on it. (TCP mode drains through the event
/// loop instead; see serve_tcp.)
class DrainWatcher {
 public:
  DrainWatcher(SynthServer& server, std::int64_t drain_timeout_ms,
               std::string metrics_out, std::string trace_out)
      : thread_([&server, drain_timeout_ms,
                 metrics_out = std::move(metrics_out),
                 trace_out = std::move(trace_out), this] {
          while (!stop_.load()) {
            const int sig = g_signal.load();
            if (sig != 0) {
              std::fprintf(stderr,
                           "sasynthd: received %s, draining (up to %lld ms)\n",
                           sig == SIGTERM ? "SIGTERM" : "SIGINT",
                           static_cast<long long>(drain_timeout_ms));
              std::fflush(stderr);
              server.begin_drain();
              const bool drained =
                  server.scheduler().drain_for(drain_timeout_ms);
              dump_observability(metrics_out, trace_out);
              std::fprintf(stderr,
                           drained
                               ? "sasynthd: drained, exiting\n"
                               : "sasynthd: drain timeout with work still in "
                                 "flight, exiting\n");
              std::fflush(nullptr);
              std::_Exit(drained ? 0 : 1);
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
          }
        }) {}

  ~DrainWatcher() {
    stop_.store(true);
    thread_.join();
  }

 private:
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

int serve_stdio(SynthServer& server, std::int64_t drain_timeout_ms,
                const std::string& metrics_out, const std::string& trace_out) {
  DrainWatcher watcher(server, drain_timeout_ms, metrics_out, trace_out);
  // stdin reads through the same line framer as every other transport (and
  // fires its tcp.read fault site). No timeout: --io-timeout is TCP-only.
  FdLineReader reader(STDIN_FILENO);
  server.serve(
      [&reader](std::string* line) { return reader.read_line(line); },
      [](const std::string& response) {
        std::cout << response;
        std::cout.flush();
      });
  return 0;
}

int serve_tcp(SynthServer& server, int port, std::int64_t max_connections,
              std::int64_t drain_timeout_ms, const std::string& metrics_out,
              const std::string& trace_out) {
  EventLoopOptions loop_options;
  loop_options.port = port;
  loop_options.max_connections = max_connections;
  loop_options.drain_timeout_ms = drain_timeout_ms;
  EventLoopServer loop(server, loop_options);
  std::string error;
  if (!loop.start(&error)) {
    // One line, fatal: an operator restarting into EADDRINUSE needs the
    // reason and the errno, not a stack of log noise.
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  // On stdout (not stderr) and flushed immediately: with --port 0 the
  // kernel-chosen port IS the program's output, and wrappers scrape it.
  std::printf("sasynthd listening on 127.0.0.1:%d\n", loop.port());
  std::fflush(stdout);

  // The signal watcher only announces the drain and hands it to the loop;
  // the loop itself bounds it (drain_timeout_ms) and reports via run()'s
  // status. A second signal while draining is absorbed — the bound, not the
  // operator's patience, decides when a stuck drain gives up.
  std::atomic<bool> watcher_stop{false};
  std::thread watcher([&] {
    while (!watcher_stop.load()) {
      const int sig = g_signal.load();
      if (sig != 0) {
        std::fprintf(stderr,
                     "sasynthd: received %s, draining (up to %lld ms)\n",
                     sig == SIGTERM ? "SIGTERM" : "SIGINT",
                     static_cast<long long>(drain_timeout_ms));
        std::fflush(stderr);
        loop.request_stop();
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  });
  const int status = loop.run();
  watcher_stop.store(true);
  watcher.join();
  if (g_signal.load() != 0) {
    // The signal path owns its own exit: dump, report, _Exit. Skipping
    // static destructors is deliberate — a forced drain (status 1) leaves
    // pool workers mid-request, and exiting must not hang on them.
    dump_observability(metrics_out, trace_out);
    std::fprintf(stderr, status == 0
                             ? "sasynthd: drained, exiting\n"
                             : "sasynthd: drain timeout with work still in "
                               "flight, exiting\n");
    std::fflush(nullptr);
    std::_Exit(status);
  }
  return status;
}

}  // namespace

int main(int argc, char** argv) {
  ServeOptions options;
  options.io_timeout_ms = 30000;  // daemon default; library default stays 0
  int port = -1;                  // -1 = stdio
  std::int64_t max_connections = 0;
  std::int64_t drain_timeout_ms = 5000;
  std::string metrics_out_path;
  std::string trace_out_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next_value = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) usage((std::string(flag) + " needs a value").c_str());
      return argv[++i];
    };
    if (arg == "--port") {
      port = static_cast<int>(
          require_int_flag("--port", next_value("--port"), 0, 65535, usage));
    } else if (arg == "--cache") {
      options.cache_dir = next_value("--cache");
    } else if (arg == "--cache-capacity") {
      // Through int64 end to end (no int intermediate): capacities ≥ 2^31
      // must widen into size_t instead of wrapping.
      options.cache_capacity = static_cast<std::size_t>(
          require_int_flag("--cache-capacity", next_value("--cache-capacity"),
                           1, std::numeric_limits<std::int64_t>::max(), usage));
    } else if (arg == "--sweep-cache-capacity") {
      options.sweep_cache_capacity = static_cast<std::size_t>(require_int_flag(
          "--sweep-cache-capacity", next_value("--sweep-cache-capacity"), 0,
          std::numeric_limits<std::int64_t>::max(), usage));
    } else if (arg == "--no-cache") {
      options.cache_enabled = false;
    } else if (arg == "--jobs") {
      options.jobs = static_cast<int>(require_int_flag(
          "--jobs", next_value("--jobs"), 0, 1 << 20, usage));
    } else if (arg == "--queue") {
      options.queue_limit =
          require_int_flag("--queue", next_value("--queue"), 1,
                           std::numeric_limits<std::int64_t>::max(), usage);
    } else if (arg == "--default-deadline") {
      options.default_deadline_ms = require_int_flag(
          "--default-deadline", next_value("--default-deadline"), 0,
          std::numeric_limits<std::int64_t>::max(), usage);
    } else if (arg == "--io-timeout") {
      options.io_timeout_ms =
          require_int_flag("--io-timeout", next_value("--io-timeout"), 0,
                           std::numeric_limits<std::int64_t>::max(), usage);
    } else if (arg == "--peers") {
      const std::string error =
          parse_peer_list(next_value("--peers"), &options.shard_peers);
      if (!error.empty()) usage(error.c_str());
    } else if (arg == "--shard-io-timeout") {
      options.shard_io_timeout_ms = require_int_flag(
          "--shard-io-timeout", next_value("--shard-io-timeout"), 0,
          std::numeric_limits<std::int64_t>::max(), usage);
    } else if (arg == "--peer-failure-threshold") {
      options.shard_failure_threshold = static_cast<int>(require_int_flag(
          "--peer-failure-threshold", next_value("--peer-failure-threshold"),
          1, 1 << 20, usage));
    } else if (arg == "--peer-probe-interval") {
      options.shard_probe_interval_ms = require_int_flag(
          "--peer-probe-interval", next_value("--peer-probe-interval"), 0,
          std::numeric_limits<std::int64_t>::max(), usage);
    } else if (arg == "--shard-hedge-ms") {
      options.shard_hedge_ms = require_int_flag(
          "--shard-hedge-ms", next_value("--shard-hedge-ms"), 0,
          std::numeric_limits<std::int64_t>::max(), usage);
    } else if (arg == "--max-connections") {
      max_connections = require_int_flag(
          "--max-connections", next_value("--max-connections"), 0,
          std::numeric_limits<std::int64_t>::max(), usage);
    } else if (arg == "--drain-timeout") {
      drain_timeout_ms = require_int_flag(
          "--drain-timeout", next_value("--drain-timeout"), 0,
          std::numeric_limits<std::int64_t>::max(), usage);
    } else if (arg == "--metrics-out") {
      metrics_out_path = next_value("--metrics-out");
    } else if (arg == "--trace-out") {
      trace_out_path = next_value("--trace-out");
    } else if (arg == "--log-level") {
      // parse_log_level warns (and falls back to info) on unknown names.
      set_log_level(parse_log_level(next_value("--log-level")));
    } else if (arg == "--help" || arg == "-h") {
      // Asked-for help goes to stdout and is a success, not a usage error.
      print_usage(stdout);
      return 0;
    } else {
      usage(("unknown option " + arg).c_str());
    }
  }

  // A client that disconnects mid-response must surface as EPIPE on the
  // write (handled per-session), never as a SIGPIPE killing every other
  // session in the process.
  std::signal(SIGPIPE, SIG_IGN);
  // SIGTERM/SIGINT run the bounded graceful drain (DrainWatcher above)
  // instead of the default instant kill.
  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);

  // The registry is the data source of `stats --format=prom|json`, so the
  // daemon always collects; span recording stays opt-in (--trace-out).
  obs::set_metrics_enabled(true);
  if (!trace_out_path.empty()) obs::set_trace_enabled(true);

  // Deterministic fault injection (docs/SERVING.md, "Failure modes"): the
  // SASYNTH_FAULTS spec arms named failure sites for harness runs.
  const int armed = fault::install_from_env();
  if (armed > 0) {
    SA_LOG_WARN << "sasynthd: SASYNTH_FAULTS armed " << armed
                << " fault injection site(s)";
  }

  SynthServer server(options);
  if (!options.shard_peers.empty()) {
    SA_LOG_INFO << "sasynthd: shard coordinator over "
                << options.shard_peers.size() << " worker peer(s)";
  }
  SA_LOG_INFO << "sasynthd: jobs=" << server.scheduler().jobs()
              << " queue=" << options.queue_limit << " cache="
              << (options.cache_enabled
                      ? (options.cache_dir.empty() ? "<memory>"
                                                   : options.cache_dir.c_str())
                      : "<disabled>");
  const int status =
      port >= 0 ? serve_tcp(server, port, max_connections, drain_timeout_ms,
                            metrics_out_path, trace_out_path)
                : serve_stdio(server, drain_timeout_ms, metrics_out_path,
                              trace_out_path);
  dump_observability(metrics_out_path, trace_out_path);
  SA_LOG_INFO << "sasynthd: exiting\n";
  return status;
}
