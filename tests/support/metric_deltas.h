// Serving counts live in the process-global metrics registry, not in the
// server or cache that made them, and a test binary builds many servers and
// caches in one process. A test therefore reads deltas: take a MetricDeltas
// snapshot, act, then ask what a metric gained.
//
// The snapshot is the registry's own prom rendering, so it covers every
// counter and histogram registered so far; one registered later starts at
// zero, which is its baseline.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <string>

#include "obs/metrics.h"
#include "util/strings.h"

namespace sasynth {

class MetricDeltas {
 public:
  /// Turns metrics on (instruments record nothing while they are off) and
  /// snapshots the registry.
  MetricDeltas() {
    obs::set_metrics_enabled(true);
    baseline_ = samples();
  }

  /// What counter `name` gained since the snapshot. A histogram reads as
  /// `<name>_count` (observations) or `<name>_sum`.
  std::int64_t operator()(const std::string& name) const {
    const std::map<std::string, double> now = samples();
    return std::llround(value_of(now, name) - value_of(baseline_, name));
  }

 private:
  /// Every unlabeled sample of the prom rendering: counters, gauges, and
  /// each histogram's `_count` and `_sum` (bucket lines carry labels).
  static std::map<std::string, double> samples() {
    std::map<std::string, double> out;
    for (const std::string& line :
         split(obs::MetricsRegistry::global().to_prom(""), '\n')) {
      if (line.empty() || line[0] == '#' ||
          line.find('{') != std::string::npos) {
        continue;
      }
      const std::size_t space = line.rfind(' ');
      out[line.substr(0, space)] = std::strtod(line.c_str() + space + 1, nullptr);
    }
    return out;
  }

  static double value_of(const std::map<std::string, double>& samples,
                         const std::string& name) {
    const auto it = samples.find(name);
    return it == samples.end() ? 0.0 : it->second;
  }

  std::map<std::string, double> baseline_;
};

}  // namespace sasynth
