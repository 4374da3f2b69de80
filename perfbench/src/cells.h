// The benchmark's workloads and the code that runs their cells.
//
// A workload is a fixed batch of cells -- one (SwarmConfig, seed) swarm
// run each -- built only from SwarmConfig presets and public fields. A
// pass runs every cell of the batch once, single-threaded, the way a
// `--jobs 1` sweep does: set up, advance_until in fixed simulated-time
// slices, optionally snapshot at each slice boundary, build the report.
// A traced pass installs the forwarding wrappers of traced_layers.h;
// an untraced pass runs the bare strategy and RunMetrics.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/config.h"
#include "tracer.h"

namespace perfbench {

struct Workload {
  const char* name;
  std::vector<coopnet::sim::SwarmConfig> (*configs)(std::uint64_t seed);
  /// Simulated seconds per advance_until slice (and, with checkpoints,
  /// the snapshot cadence).
  double slice;
  /// Snapshot every slice to a scratch file, journal every cell outcome,
  /// and restore each cell from several of its snapshots.
  bool checkpoints;
  /// Mechanisms whose cells may legitimately end with peers unfinished.
  std::vector<coopnet::core::Algorithm> may_not_finish;
};

const std::vector<Workload>& workloads();
/// nullptr when no workload has that name.
const Workload* find_workload(std::string_view name);

struct CellResult {
  std::string mechanism;
  std::string error;  // empty when the cell ran and passed every check
  std::uint64_t events = 0;
  double setup_s = 0.0;
  double wall_s = 0.0;  // the cell span minus its set-up
  std::string report_json;
  /// Tracer totals accumulated inside the cell span, and its length.
  TraceTotals trace;
  std::int64_t span_ns = 0;

  bool ok() const { return error.empty(); }
};

struct PassResult {
  std::vector<CellResult> cells;
  Tracer tracer;
  std::vector<double> slice_ms;    // host ms per advance_until slice
  std::size_t queue_peak = 0;      // max engine().pending() at a boundary
  std::vector<double> pause_ms;    // per snapshot: save..atomic write
  std::vector<double> restore_ms;  // per restore: decode..metrics load
  std::uint64_t ckpt_bytes = 0;
  std::size_t ckpt_count = 0;

  double wall_s() const;
  double setup_s() const;
  double cell_wall_max_s() const;
  std::uint64_t events() const;
  std::size_t failed() const;
};

struct PassOptions {
  bool traced = false;
  /// Restore every checkpointed cell from several of its snapshots and
  /// check that each continuation reproduces the cell's report.
  bool verify_restores = true;
  /// Directory for snapshots and the journal (created if missing).
  std::string scratch_dir = ".";
};

PassResult run_pass(const Workload& workload, std::uint64_t seed,
                    const PassOptions& options);

/// Sets up every cell of the batch (strategy, Swarm, metrics install,
/// start) and discards it; returns the summed set-up seconds.
double time_setup(const Workload& workload, std::uint64_t seed);

/// Turns on snapshot support. Once events are stored as tags
/// unconditionally the call may go away; this then does nothing.
template <class SwarmT>
void enable_checkpoints(SwarmT& swarm) {
  if constexpr (requires { swarm.enable_checkpoints(); }) {
    swarm.enable_checkpoints();
  }
}

}  // namespace perfbench
