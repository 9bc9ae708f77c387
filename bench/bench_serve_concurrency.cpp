// Event-loop concurrency benchmark: what singleflight coalescing buys a
// synthesis service under a duplicate-request storm.
//
// For each session count (1, 16, 64, 256) a fresh cold server is stood up
// behind the event-loop TCP transport, and N real TCP clients simultaneously
// send the *same* request. Per-session wall latency (connect -> full
// response) is reported as p50/p99 together with the coalesce hit rate
// (coalesced sessions / N) and the number of DSE executions the storm cost.
//
// Emits BENCH_serve_concurrency.json, one row per session count, and exits
// nonzero unless:
//   * every transcript is byte-identical to a fresh handle() of the block
//     (coalescing must never change a response byte),
//   * every storm counts at least one DSE execution (each starts cold, so a
//     zero means the count itself is broken and the next gate proves
//     nothing), and
//   * 256 concurrent duplicate cold sessions cost at most 2 DSE executions —
//     the acceptance gate for coalescing being real, not cosmetic.
// The counts are per-storm deltas of the metrics registry.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "obs/metrics.h"
#include "serve/event_loop.h"
#include "serve/server.h"
#include "serve/tcp.h"

namespace {

using namespace sasynth;

constexpr int kScales[] = {1, 16, 64, 256};
constexpr const char* kBlock =
    "sasynth-request v1\n"
    "layer 48,128,27,27,5,1,2\n"  // AlexNet conv2: a real multi-ms DSE
    "device arria10_gt1150\n"
    "end\n";

int connect_loopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

std::string read_to_eof(int fd) {
  std::string out;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return out;
    }
    out.append(chunk, static_cast<std::size_t>(n));
  }
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = p * static_cast<double>(samples.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] * (1.0 - frac) + samples[hi] * frac;
}

struct ScaleResult {
  int sessions = 0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double coalesce_rate = 0.0;
  std::int64_t dse_runs = 0;
  bool byte_identical = false;
};

ScaleResult run_scale(int sessions, const std::string& reference) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  obs::Counter& coalesced = registry.counter("serve_coalesced_total");
  obs::Counter& dse_runs = registry.counter("serve_dse_runs_total");
  const std::int64_t coalesced_before = coalesced.value();
  const std::int64_t dse_runs_before = dse_runs.value();

  ServeOptions options;
  options.jobs = 4;
  options.queue_limit = 512;  // the gate measures coalescing, not shedding
  SynthServer server(options);

  EventLoopOptions loop_options;
  EventLoopServer loop(server, loop_options);
  std::string error;
  if (!loop.start(&error)) {
    std::printf("ERROR: %s\n", error.c_str());
    return {};
  }
  std::thread loop_thread([&] { loop.run(); });

  std::vector<double> latency_ms(static_cast<std::size_t>(sessions), 0.0);
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  clients.reserve(static_cast<std::size_t>(sessions));
  for (int i = 0; i < sessions; ++i) {
    clients.emplace_back([&, i] {
      latency_ms[static_cast<std::size_t>(i)] =
          bench::timed_ms("bench.serve_concurrency_session", [&] {
            const int fd = connect_loopback(loop.port());
            if (fd < 0) {
              mismatches.fetch_add(1);
              return;
            }
            bool ok = write_all_fd(fd, kBlock);
            ::shutdown(fd, SHUT_WR);
            const std::string transcript = read_to_eof(fd);
            ::close(fd);
            if (!ok || transcript != reference) mismatches.fetch_add(1);
          });
    });
  }
  for (std::thread& t : clients) t.join();
  loop.request_stop();
  loop_thread.join();

  ScaleResult result;
  result.sessions = sessions;
  result.p50_ms = percentile(latency_ms, 0.50);
  result.p99_ms = percentile(latency_ms, 0.99);
  result.coalesce_rate =
      static_cast<double>(coalesced.value() - coalesced_before) /
      static_cast<double>(sessions);
  result.dse_runs = dse_runs.value() - dse_runs_before;
  result.byte_identical = mismatches.load() == 0;
  return result;
}

}  // namespace

int main() {
  // The gates read the registry, which records nothing while metrics are off.
  obs::set_metrics_enabled(true);

  // The reference bytes every session must receive, from a throwaway server.
  std::string reference;
  {
    SynthServer reference_server({});
    reference = reference_server.handle(kBlock);
    if (reference.rfind("sasynth-response v1 ok", 0) != 0) {
      std::printf("ERROR: reference request failed: %s\n", reference.c_str());
      return 1;
    }
  }

  std::printf("--- serve concurrency benchmark (duplicate-request storm) ---\n");
  std::vector<ScaleResult> results;
  for (const int sessions : kScales) {
    results.push_back(run_scale(sessions, reference));
    const ScaleResult& r = results.back();
    std::printf(
        "  %4d sessions: p50 %8.2f ms  p99 %8.2f ms  coalesced %.3f  "
        "dse_runs %lld  byte-identical %s\n",
        r.sessions, r.p50_ms, r.p99_ms, r.coalesce_rate,
        static_cast<long long>(r.dse_runs), r.byte_identical ? "yes" : "NO");
  }

  std::FILE* out = std::fopen("BENCH_serve_concurrency.json", "w");
  if (out != nullptr) {
    std::fprintf(out, "[\n");
    for (std::size_t i = 0; i < results.size(); ++i) {
      const ScaleResult& r = results[i];
      std::fprintf(out,
                   "  {\"sessions\": %d, \"p50_ms\": %.4f, \"p99_ms\": %.4f, "
                   "\"coalesce_rate\": %.4f, \"dse_runs\": %lld}%s\n",
                   r.sessions, r.p50_ms, r.p99_ms, r.coalesce_rate,
                   static_cast<long long>(r.dse_runs),
                   i + 1 < results.size() ? "," : "");
    }
    std::fprintf(out, "]\n");
    std::fclose(out);
    std::printf("wrote BENCH_serve_concurrency.json\n");
  }

  int status = 0;
  for (const ScaleResult& r : results) {
    if (!r.byte_identical) {
      std::printf("ERROR: %d-session storm produced a non-identical response\n",
                  r.sessions);
      status = 1;
    }
    if (r.dse_runs < 1) {
      std::printf("ERROR: %d-session storm on a cold server counted no DSE "
                  "execution\n",
                  r.sessions);
      status = 1;
    }
  }
  const ScaleResult& largest = results.back();
  // The acceptance gate: at 256 concurrent duplicates, the first session
  // leads a DSE and everyone else coalesces onto it (or hits the cache the
  // leader populated). Allowing 2 covers one benign race — a session that
  // slips in after complete() but before the flight's result is cached.
  if (largest.dse_runs > 2) {
    std::printf(
        "ERROR: %d duplicate sessions cost %lld DSE executions (expected <= "
        "2): coalescing is not working\n",
        largest.sessions, static_cast<long long>(largest.dse_runs));
    status = 1;
  }
  return status;
}
