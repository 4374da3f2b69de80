// Machine-readable benchmark records: the BENCH_*.json pipeline.
//
// micro_engine and micro_swarm emit one JSON document each (BENCH_engine
// and BENCH_swarm) with named throughput records; tools/ci_bench_gate.sh
// diffs a fresh run against the committed baseline under bench/baselines/
// and fails CI on a >20% throughput regression (warns at >5%). Record
// names are the join key, so keep them stable; add new records freely.
#pragma once

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "util/atomic_file.h"

namespace coopnet::bench {

/// One named throughput measurement. `extra` holds pre-rendered JSON
/// key/value pairs (e.g. machine-independent speedup ratios) appended to
/// the record verbatim.
struct BenchRecord {
  std::string name;
  std::uint64_t events = 0;
  double wall_s = 0.0;
  std::vector<std::pair<std::string, double>> extra;

  double events_per_sec() const {
    return wall_s > 0.0 ? static_cast<double>(events) / wall_s : 0.0;
  }
  double ns_per_event() const {
    return events > 0 ? wall_s * 1e9 / static_cast<double>(events) : 0.0;
  }
};

/// Peak resident set size of this process, in kilobytes.
inline long peak_rss_kb() {
  struct rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

/// Monotonic wall-clock seconds for timing benchmark sections.
inline double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Writes the BENCH_*.json document crash-safely (the CI gate diffs these
/// against committed baselines -- a torn artifact must be impossible).
/// `hardware_concurrency` records the measuring host's
/// std::thread::hardware_concurrency(), so a committed record carries the
/// core count its numbers were taken on. Layout:
///   {"tool": ..., "schema": 1, "hardware_concurrency": ...,
///    "peak_rss_kb": ...,
///    "results": [{"name": ..., "events": ..., "wall_s": ...,
///                 "events_per_sec": ..., "ns_per_event": ..., ...}, ...]}
inline void write_bench_json(const std::string& path, const std::string& tool,
                             const std::vector<BenchRecord>& records) {
  std::string out;
  char buf[256];
  auto append = [&out, &buf](const char* fmt, auto... args) {
    std::snprintf(buf, sizeof(buf), fmt, args...);
    out += buf;
  };
  append("{\n  \"tool\": \"%s\",\n  \"schema\": 1,\n", tool.c_str());
  append("  \"hardware_concurrency\": %u,\n",
         std::thread::hardware_concurrency());
  append("  \"peak_rss_kb\": %ld,\n  \"results\": [", peak_rss_kb());
  for (std::size_t i = 0; i < records.size(); ++i) {
    const BenchRecord& r = records[i];
    append("%s\n    {\"name\": \"%s\", \"events\": %llu, ",
           i == 0 ? "" : ",", r.name.c_str(),
           static_cast<unsigned long long>(r.events));
    append("\"wall_s\": %.6f, \"events_per_sec\": %.1f, "
           "\"ns_per_event\": %.2f",
           r.wall_s, r.events_per_sec(), r.ns_per_event());
    for (const auto& [key, value] : r.extra) {
      append(", \"%s\": %.6f", key.c_str(), value);
    }
    out += "}";
  }
  out += "\n  ]\n}\n";
  util::write_file_atomic(path, out);
}

}  // namespace coopnet::bench
