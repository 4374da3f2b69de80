// perfbench: coopnet's benchmark.
//
//   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--scratch DIR] [--spans-out FILE]
//
// --trace 0 measures the end-to-end metrics: after one untimed warm-up
// pass it runs whole passes of the batch (untraced) until another pass
// would overrun --seconds, at least one, then times the set-up of the
// whole batch several times, and reports medians. --trace 1 runs one
// untraced and one traced pass and reports the per-layer metrics. Either
// way the last line of stdout is one JSON object: {"correct", "attempted",
// "failed", "metrics"}; the lines before it are the same metrics for
// people. Exit code 0 means the run completed, whether or not every check
// held (see "correct"); 2 means bad arguments or an error outside the
// cells.
//
// Workloads, metrics and the layer map are documented in
// perfbench/README.md.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "cells.h"
#include "core/algorithm.h"
#include "stats.h"

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 7;
  double seconds = 50.0;
  bool trace = false;
  std::string scratch = ".bench_build/scratch";
  std::string spans_out;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    const std::string value = argv[++i];
    std::size_t used = 0;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value, &used);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value, &used);
      if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds > 0");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      a.trace = value == "1";
    } else if (flag == "--scratch") {
      a.scratch = value;
    } else if (flag == "--spans-out") {
      a.spans_out = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
    if (used != 0 && used != value.size()) {
      throw std::invalid_argument("bad value for " + flag + ": " + value);
    }
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  return a;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;
};

/// Collects metrics, prints them for people, then as the JSON line.
class Report {
 public:
  void add(std::string name, double value, std::string unit,
           std::string note = "") {
    if (!std::isfinite(value)) value = 0.0;
    metrics_.push_back({std::move(name), value, std::move(unit),
                        std::move(note)});
  }
  void add_tail(const std::string& name, const std::vector<double>& samples,
                const std::string& unit) {
    const auto tail = tail_percentile(samples);
    if (!tail) {
      add(name, 0.0, unit,
          "no percentile has 10 samples beyond it (" +
              std::to_string(samples.size()) + " samples)");
      return;
    }
    add(name, tail->value, unit,
        "p" + std::to_string(tail->percentile) + " of " +
            std::to_string(tail->samples) + " samples, " +
            std::to_string(tail->beyond) + " beyond");
  }

  void print_table() const {
    for (const Metric& m : metrics_) {
      const std::string note = m.note.empty() ? "" : "  " + m.note;
      std::printf("  %-36s %16.6f %-14s%s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), note.c_str());
    }
  }

  /// The table, then the JSON line the benchmark's caller parses.
  void print(bool correct, std::size_t attempted, std::size_t failed) const {
    print_table();
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
    }
    std::printf("}}\n");
  }

 private:
  std::vector<Metric> metrics_;
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

void print_failures(const PassResult& pass, const char* label) {
  for (const CellResult& c : pass.cells) {
    if (!c.ok()) {
      std::printf("FAILED %s cell %s: %s\n", label, c.mechanism.c_str(),
                  c.error.c_str());
    }
  }
}

/// Marks as failed the cells of `pass` whose report bytes or event count
/// differ from the same cell of `reference`.
void expect_same_outputs(PassResult& pass, const PassResult& reference,
                         const char* what) {
  for (std::size_t i = 0; i < pass.cells.size(); ++i) {
    CellResult& c = pass.cells[i];
    const CellResult& ref = reference.cells[i];
    if (!c.ok() || !ref.ok()) continue;
    if (c.events != ref.events || c.report_json != ref.report_json) {
      c.error = std::string(what) + " produced a different report";
    }
  }
}

/// Checkpoint and restore figures, from an untraced pass.
void add_checkpoint_metrics(Report& out, const PassResult& pass) {
  out.add("ckpt_pause_p50_ms", median(pass.pause_ms), "ms",
          std::to_string(pass.pause_ms.size()) + " snapshots");
  out.add_tail("ckpt_pause_tail_ms", pass.pause_ms, "ms");
  out.add("restore_p50_ms", median(pass.restore_ms), "ms",
          std::to_string(pass.restore_ms.size()) + " restores");
}

int run_untraced(const Workload& w, const Args& args) {
  PassOptions options;
  options.scratch_dir = args.scratch;

  // The first pass warms caches and the heap, verifies the restores and
  // is the reference every later pass must reproduce; it is not timed.
  // Then timed passes run until another would overrun --seconds, at least
  // one, and set-up alone is timed until it has at least three samples
  // (each pass gave one) and a second's worth.
  const std::int64_t start = now_ns();
  const PassResult first = run_pass(w, args.seed, options);
  // Peak RSS is taken after the first pass: how many passes fit in
  // --seconds depends on the host's speed, and must not move it.
  const double rss_mb = peak_rss_mb();
  options.verify_restores = false;
  std::vector<PassResult> passes;
  double last_pass_s = 0.0;
  do {
    const std::int64_t pass_start = now_ns();
    passes.push_back(run_pass(w, args.seed, options));
    last_pass_s = static_cast<double>(now_ns() - pass_start) * 1e-9;
  } while (static_cast<double>(now_ns() - start) * 1e-9 + last_pass_s <=
           args.seconds);

  std::vector<double> walls, cell_max, setup_samples;
  print_failures(first, "untraced");
  std::size_t attempted = first.cells.size(), failed = first.failed();
  for (PassResult& pass : passes) {
    // A same-seed repeat must reproduce every report byte for byte.
    expect_same_outputs(pass, first, "a same-seed repeat");
    print_failures(pass, "untraced");
    walls.push_back(pass.wall_s());
    cell_max.push_back(pass.cell_wall_max_s());
    setup_samples.push_back(pass.setup_s());
    attempted += pass.cells.size();
    failed += pass.failed();
  }
  const std::int64_t setup_start = now_ns();
  while (setup_samples.size() < 3 ||
         (setup_samples.size() < 25 &&
          static_cast<double>(now_ns() - setup_start) * 1e-9 < 1.0)) {
    setup_samples.push_back(time_setup(w, args.seed));
  }
  const double wall = median(walls);

  std::printf("perfbench %s seed %llu: 1 warm-up and %zu timed pass(es), "
              "%zu set-up samples\npass wall_s:",
              w.name, static_cast<unsigned long long>(args.seed),
              passes.size(), setup_samples.size());
  for (double s : walls) std::printf(" %.3f", s);
  std::printf("\n");
  Report extra;
  if (w.checkpoints) add_checkpoint_metrics(extra, first);
  extra.add("cells_failed_frac", ratio(failed, attempted), "frac");
  std::printf("also measured (not in the JSON line):\n");
  extra.print_table();
  Report out;
  out.add("wall_s", wall, "s", "median of " + std::to_string(walls.size()));
  out.add("setup_s", median(setup_samples), "s",
          "median of " + std::to_string(setup_samples.size()));
  out.add("events_per_s", ratio(static_cast<double>(first.events()), wall),
          "1/s", std::to_string(first.events()) + " events per pass");
  out.add("peak_rss_mb", rss_mb, "MB", "after the first pass");
  out.add("cell_wall_max_s", median(cell_max), "s");
  out.print(failed == 0, attempted, failed);
  return 0;
}

void print_accounting(const PassResult& traced) {
  std::printf(
      "traced wall per cell = self times + untimed remainder (ms):\n"
      "  %-12s %9s %9s %9s %9s %9s %9s %9s %9s %9s\n",
      "cell", "wall", "sim", "next_upl", "on_*", "observer", "setup",
      "ckpt", "report", "untimed");
  for (const CellResult& c : traced.cells) {
    const TraceTotals& t = c.trace;
    auto ms = [&](std::initializer_list<Layer> layers) {
      std::int64_t ns = 0;
      for (Layer l : layers) ns += t[l].self_ns;
      return static_cast<double>(ns) * 1e-6;
    };
    const double other_strategy =
        ms({Layer::kUploadStarted, Layer::kDelivered, Layer::kMembership,
            Layer::kTransferFailed});
    const double ckpt =
        ms({Layer::kCheckpoint, Layer::kCkptSave, Layer::kCkptMetrics,
            Layer::kCkptEncode, Layer::kAtomicWrite});
    std::printf(
        "  %-12s %9.1f %9.1f %9.1f %9.1f %9.1f %9.1f %9.1f %9.1f %9.1f%s\n",
        c.mechanism.c_str(), static_cast<double>(c.span_ns) * 1e-6,
        ms({Layer::kAdvance}), ms({Layer::kNextUpload}), other_strategy,
        ms({Layer::kObserver}),
        ms({Layer::kSetup, Layer::kBuild}), ckpt,
        ms({Layer::kReport, Layer::kJournal}), ms({Layer::kCell}),
        t.self_ns_sum() == c.span_ns ? "" : "  (does not add up)");
  }
}

int run_traced(const Workload& w, const Args& args) {
  PassOptions options;
  options.scratch_dir = args.scratch;
  PassResult plain = run_pass(w, args.seed, options);
  options.traced = true;
  PassResult traced = run_pass(w, args.seed, options);
  // The wrappers must be invisible: same reports, same event counts.
  expect_same_outputs(traced, plain, "the traced run");
  print_failures(plain, "untraced");
  print_failures(traced, "traced");
  if (!args.spans_out.empty()) traced.tracer.write_spans(args.spans_out);

  const TraceTotals& t = traced.tracer.totals();
  const double events = static_cast<double>(traced.events());
  const auto calls = [&](Layer l) { return static_cast<double>(t[l].calls); };
  const double probes = static_cast<double>(t.admission_probes);

  std::printf("perfbench %s seed %llu: traced run\n", w.name,
              static_cast<unsigned long long>(args.seed));
  print_accounting(traced);

  Report out;
  out.add("strategy.next_upload.calls", calls(Layer::kNextUpload), "count");
  out.add("strategy.next_upload.self_s", t.self_s(Layer::kNextUpload), "s");
  out.add("strategy.next_upload.idle_frac",
          ratio(static_cast<double>(t.idle_next_uploads),
                calls(Layer::kNextUpload)),
          "frac");
  out.add("strategy.admission_probes", probes, "count");
  out.add("strategy.probes_per_upload",
          ratio(probes, calls(Layer::kUploadStarted)), "probes/upload");
  out.add("strategy.on_delivered.self_s", t.self_s(Layer::kDelivered), "s");
  out.add("strategy.on_upload_started.self_s",
          t.self_s(Layer::kUploadStarted), "s");
  out.add("strategy.membership.self_s", t.self_s(Layer::kMembership), "s");
  out.add("strategy.on_transfer_failed.calls", calls(Layer::kTransferFailed),
          "count");
  out.add("strategy.on_transfer_failed.self_s",
          t.self_s(Layer::kTransferFailed), "s");
  out.add("sim.events", events, "count");
  out.add("sim.self_s", t.self_s(Layer::kAdvance), "s");
  out.add("sim.self_ns_per_event",
          ratio(static_cast<double>(t[Layer::kAdvance].self_ns), events),
          "ns");
  out.add("sim.queue_peak", static_cast<double>(plain.queue_peak), "count",
          "engine().pending() at slice boundaries");
  out.add("sim.slice_ms_p50", median(plain.slice_ms), "ms",
          std::to_string(plain.slice_ms.size()) + " slices");
  out.add_tail("sim.slice_ms_tail", plain.slice_ms, "ms");
  out.add("sim.build_s", t.total_s(Layer::kBuild), "s");
  out.add("sim.ckpt_save_s", t.self_s(Layer::kCkptSave), "s");
  out.add("sim.ckpt_encode_s", t.self_s(Layer::kCkptEncode), "s");
  out.add("sim.ckpt_bytes_mean",
          ratio(static_cast<double>(traced.ckpt_bytes),
                static_cast<double>(traced.ckpt_count)),
          "bytes");
  out.add("util.atomic_write_s", t.self_s(Layer::kAtomicWrite), "s");
  out.add("sim.ckpt_decode_s", t.self_s(Layer::kCkptDecode), "s");
  out.add("sim.ckpt_restore_s", t.self_s(Layer::kCkptRestore), "s");
  out.add("metrics.observer.calls", calls(Layer::kObserver), "count");
  out.add("metrics.observer.self_s", t.self_s(Layer::kObserver), "s");
  out.add("metrics.ckpt_section_s", t.self_s(Layer::kCkptMetrics), "s");
  out.add("metrics.report_s", t.total_s(Layer::kReport), "s");
  out.add("exp.journal_append_s", t.total_s(Layer::kJournal), "s");
  add_checkpoint_metrics(out, plain);
  // Every mechanism gets its three cell metrics on every workload; a
  // mechanism the workload does not run reads 0.
  for (coopnet::core::Algorithm algo : coopnet::core::kAllAlgorithms) {
    const std::string name = coopnet::core::to_string(algo);
    double wall = 0.0, ns_per_event = 0.0, per_upload = 0.0;
    for (std::size_t i = 0; i < plain.cells.size(); ++i) {
      if (plain.cells[i].mechanism != name) continue;
      const CellResult& c = plain.cells[i];
      const TraceTotals& ct = traced.cells[i].trace;
      wall = c.wall_s;
      ns_per_event = ratio(c.wall_s * 1e9, static_cast<double>(c.events));
      per_upload = ratio(static_cast<double>(ct.admission_probes),
                         static_cast<double>(ct[Layer::kUploadStarted].calls));
    }
    out.add("cell." + name + ".wall_s", wall, "s");
    out.add("cell." + name + ".ns_per_event", ns_per_event, "ns");
    out.add("cell." + name + ".probes_per_upload", per_upload,
            "probes/upload");
  }
  out.add("trace.untimed_s", t.self_s(Layer::kCell), "s",
          "cell time outside every span");
  out.add("trace.overhead_frac", traced.wall_s() / plain.wall_s() - 1.0,
          "frac",
          "traced " + std::to_string(traced.wall_s()) + " s vs untraced " +
              std::to_string(plain.wall_s()) + " s");

  const std::size_t failed = plain.failed() + traced.failed();
  out.print(failed == 0, plain.cells.size() + traced.cells.size(), failed);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    const Workload* w = find_workload(args.workload);
    if (w == nullptr) {
      std::string names;
      for (const Workload& each : workloads()) {
        names += std::string(" ") + each.name;
      }
      throw std::invalid_argument("unknown workload '" + args.workload +
                                  "'; choose one of:" + names);
    }
    std::filesystem::create_directories(args.scratch);
    const int rc = args.trace ? run_traced(*w, args) : run_untraced(*w, args);
    std::filesystem::remove_all(args.scratch);
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
