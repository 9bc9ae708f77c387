// Serving-path benchmark: what the DesignCache buys a synthesis service.
//
// Phase 1 (cold): the AlexNet conv-layer request stream hits an empty cache,
// so every request pays a full two-phase DSE. Phase 2 (warm): N concurrent
// clients replay the same stream against the now-populated cache; every
// request must be answered from the DesignCache (hit rate 1.0) and must be
// byte-identical to its cold response.
//
// Emits BENCH_serve.json with per-phase request counts, p50/p95 latency and
// hit rate, and exits nonzero if the warm path misses the cache or is not at
// least 10x faster at the median — the acceptance gate for the cache being
// real, not cosmetic.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "nn/network.h"
#include "obs/metrics.h"
#include "serve/server.h"
#include "util/strings.h"

namespace {

using namespace sasynth;

constexpr int kClients = 4;
constexpr int kWarmRepeats = 2;  ///< per client, over the whole stream

std::vector<std::string> alexnet_request_stream() {
  std::vector<std::string> blocks;
  for (const ConvLayerDesc& layer : make_alexnet().layers) {
    blocks.push_back(strformat(
        "sasynth-request v1\n"
        "layer %lld,%lld,%lld,%lld,%lld,%lld,%lld\n"
        "device arria10_gt1150\n"
        "end\n",
        static_cast<long long>(layer.in_maps),
        static_cast<long long>(layer.out_maps),
        static_cast<long long>(layer.out_rows),
        static_cast<long long>(layer.out_cols),
        static_cast<long long>(layer.kernel),
        static_cast<long long>(layer.stride),
        static_cast<long long>(layer.groups)));
  }
  return blocks;
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

double timed_handle(SynthServer& server, const std::string& block,
                    std::string* response) {
  return bench::timed_ms("bench.serve_handle",
                         [&] { *response = server.handle(block); });
}

}  // namespace

int main() {
  const std::vector<std::string> stream = alexnet_request_stream();

  // The gates read the registry, which records nothing while metrics are
  // off; each pass is judged on its own delta.
  obs::set_metrics_enabled(true);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  obs::Counter& cache_hits = registry.counter("cache_hits_total");
  obs::Counter& dse_work = registry.counter("serve_dse_work_items_total");
  const std::int64_t hits_before = cache_hits.value();
  const std::int64_t work_before = dse_work.value();

  ServeOptions options;
  options.jobs = kClients;
  SynthServer server(options);

  // --- cold: sequential, every request is a miss -> full DSE ---
  std::printf("--- serve benchmark: cold pass (%zu AlexNet layers) ---\n",
              stream.size());
  std::vector<double> cold_ms;
  std::vector<std::string> cold_responses;
  for (const std::string& block : stream) {
    std::string response;
    cold_ms.push_back(timed_handle(server, block, &response));
    if (response.rfind("sasynth-response v1 ok", 0) != 0) {
      std::printf("ERROR: cold request failed: %s\n", response.c_str());
      return 1;
    }
    cold_responses.push_back(std::move(response));
    std::printf("  %.1f ms\n", cold_ms.back());
  }
  const std::int64_t cold_hits = cache_hits.value();
  const std::int64_t cold_dse_work = dse_work.value() - work_before;

  // --- warm: concurrent clients replay the stream, all cache hits ---
  std::printf("--- warm pass (%d clients x %d repeats) ---\n", kClients,
              kWarmRepeats);
  std::vector<double> warm_ms;
  std::mutex merge_mutex;
  bool responses_match = true;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      std::vector<double> local_ms;
      bool local_match = true;
      for (int repeat = 0; repeat < kWarmRepeats; ++repeat) {
        for (std::size_t i = 0; i < stream.size(); ++i) {
          std::string response;
          local_ms.push_back(timed_handle(server, stream[i], &response));
          local_match = local_match && response == cold_responses[i];
        }
      }
      std::lock_guard<std::mutex> lock(merge_mutex);
      warm_ms.insert(warm_ms.end(), local_ms.begin(), local_ms.end());
      responses_match = responses_match && local_match;
    });
  }
  for (std::thread& t : clients) t.join();

  const std::int64_t warm_requests =
      static_cast<std::int64_t>(kClients) * kWarmRepeats *
      static_cast<std::int64_t>(stream.size());
  const std::int64_t warm_hits = cache_hits.value() - cold_hits;
  const double warm_hit_rate = static_cast<double>(warm_hits) /
                               static_cast<double>(warm_requests);
  const bool dse_flat = dse_work.value() - work_before == cold_dse_work;

  const double cold_p50 = percentile(cold_ms, 0.50);
  const double cold_p95 = percentile(cold_ms, 0.95);
  const double warm_p50 = percentile(warm_ms, 0.50);
  const double warm_p95 = percentile(warm_ms, 0.95);

  std::printf(
      "cold: %zu requests, p50 %.2f ms, p95 %.2f ms\n"
      "warm: %lld requests, p50 %.4f ms, p95 %.4f ms, hit rate %.3f\n"
      "warm/cold p50 speedup: %.1fx; responses byte-identical: %s; "
      "DSE counters flat: %s\n",
      cold_ms.size(), cold_p50, cold_p95,
      static_cast<long long>(warm_requests), warm_p50, warm_p95, warm_hit_rate,
      warm_p50 > 0.0 ? cold_p50 / warm_p50 : 0.0,
      responses_match ? "yes" : "NO", dse_flat ? "yes" : "NO");

  std::FILE* out = std::fopen("BENCH_serve.json", "w");
  if (out != nullptr) {
    std::fprintf(
        out,
        "[\n"
        "  {\"phase\": \"cold\", \"clients\": 1, \"requests\": %zu, "
        "\"p50_ms\": %.4f, \"p95_ms\": %.4f, \"hit_rate\": 0.0},\n"
        "  {\"phase\": \"warm\", \"clients\": %d, \"requests\": %lld, "
        "\"p50_ms\": %.4f, \"p95_ms\": %.4f, \"hit_rate\": %.4f}\n"
        "]\n",
        cold_ms.size(), cold_p50, cold_p95, kClients,
        static_cast<long long>(warm_requests), warm_p50, warm_p95,
        warm_hit_rate);
    std::fclose(out);
    std::printf("wrote BENCH_serve.json\n");
  }

  if (cold_hits != hits_before || cold_dse_work <= 0) {
    // "Flat" means nothing unless the cold pass counted its DSE work.
    std::printf("ERROR: cold pass hit the cache or recorded no DSE work\n");
    return 1;
  }
  if (warm_hit_rate < 1.0 || !dse_flat) {
    std::printf("ERROR: warm pass was not fully served from the cache\n");
    return 1;
  }
  if (!responses_match) {
    std::printf("ERROR: cached responses differ from fresh ones\n");
    return 1;
  }
  if (warm_p50 * 10.0 > cold_p50) {
    std::printf("ERROR: warm p50 is not >= 10x below cold p50\n");
    return 1;
  }
  return 0;
}
