// In-memory span tracer for the benchmark.
//
// Spans are opened and closed around calls into coopnet's public layers
// (see traced_layers.h and cells.cpp). Each span has a layer, a start, an
// end and a parent -- the innermost span open when it started. A span's
// self time is its duration minus the durations of its direct children,
// so the self times of every span under a root add up to the root's
// duration exactly (integer nanoseconds): nothing is counted twice and
// nothing is lost.
//
// Two kinds of span:
//   * coarse spans (cells, set-up, advance_until slices, checkpoint and
//     restore steps, reports, journal appends) are few -- at most a few
//     thousand per run -- and each is logged as a SpanRecord, written out
//     with write_spans() when the run ends;
//   * fine spans (strategy and observer callbacks) number in the millions
//     per cell, so each is folded into its layer's totals when it closes
//     and never logged individually.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class Layer : std::uint8_t {
  // Coarse spans, opened by the benchmark's own loop.
  kCell,         // one cell: set-up + run + report + journal
  kSetup,        // strategy creation, Swarm ctor, metrics install, start()
  kBuild,        // Swarm constructor (inside kSetup)
  kAdvance,      // one advance_until slice: engine + swarm code
  kCheckpoint,   // one snapshot pause (parent of the four below)
  kCkptSave,     // SwarmCheckpoint::save
  kCkptMetrics,  // RunMetrics::checkpoint_save (the metrics section)
  kCkptEncode,   // encode_snapshot
  kAtomicWrite,  // util::write_file_atomic
  kReport,       // build_report + to_json
  kJournal,      // RunJournal::record
  kVerify,       // restore-and-replay check after a cell (not in wall_s)
  kRestore,      // one restore (parent of the two below)
  kCkptDecode,   // decode_snapshot
  kCkptRestore,  // start_restored + install_restored + restore + load
  kReplay,       // restored swarm running to the end
  // Fine spans, opened by the forwarding wrappers.
  kNextUpload,
  kUploadStarted,
  kDelivered,
  kMembership,  // on_peer_activated / left / departed / rejoined
  kTransferFailed,
  kObserver,  // SwarmObserver callbacks into RunMetrics
  kCount
};

inline constexpr std::size_t kLayerCount =
    static_cast<std::size_t>(Layer::kCount);

struct LayerTotals {
  std::uint64_t calls = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
};

/// Everything a Tracer has accumulated, as a value: two snapshots
/// subtract to the work done between them.
struct TraceTotals {
  std::array<LayerTotals, kLayerCount> layers{};
  /// ExchangeStrategy::accepts_delivery calls (counted, never timed).
  std::uint64_t admission_probes = 0;
  /// next_upload calls that returned no action.
  std::uint64_t idle_next_uploads = 0;

  const LayerTotals& operator[](Layer l) const {
    return layers[static_cast<std::size_t>(l)];
  }
  double self_s(Layer l) const { return (*this)[l].self_ns * 1e-9; }
  double total_s(Layer l) const { return (*this)[l].total_ns * 1e-9; }
  /// Sum of every layer's self time.
  std::int64_t self_ns_sum() const;
  TraceTotals operator-(const TraceTotals& base) const;
};

struct SpanRecord {
  Layer layer;
  std::int32_t parent;  // index into the log, -1 for a root
  std::int64_t start_ns;
  std::int64_t end_ns;
};

class Tracer {
 public:
  void open(Layer layer);
  /// Closes the innermost open span; returns its duration in ns.
  std::int64_t close();

  const TraceTotals& totals() const { return totals_; }
  TraceTotals& counters() { return totals_; }
  std::size_t depth() const { return stack_.size(); }

  /// Writes the span log as JSON lines to `path` (throws on I/O errors).
  void write_spans(const std::string& path) const;

 private:
  struct Frame {
    Layer layer;
    std::int32_t record;  // log index, -1 for fine spans
    std::int64_t start_ns;
    std::int64_t child_ns;
  };
  std::vector<Frame> stack_;
  std::vector<SpanRecord> log_;
  TraceTotals totals_;
};

/// RAII span. close() may be called early to read the duration.
class Span {
 public:
  Span(Tracer& tracer, Layer layer) : tracer_(&tracer) {
    tracer_->open(layer);
  }
  ~Span() {
    if (tracer_ != nullptr) tracer_->close();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Ends the span now; returns its duration in ns.
  std::int64_t close_ns() {
    const std::int64_t ns = tracer_->close();
    tracer_ = nullptr;
    return ns;
  }
  /// Ends the span now; returns its duration in seconds.
  double close() { return static_cast<double>(close_ns()) * 1e-9; }

 private:
  Tracer* tracer_;
};

}  // namespace perfbench
