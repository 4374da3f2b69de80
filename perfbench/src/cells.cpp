#include "cells.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "exp/journal.h"
#include "exp/supervise.h"
#include "metrics/json.h"
#include "metrics/report.h"
#include "metrics/run_metrics.h"
#include "sim/checkpoint.h"
#include "sim/faults.h"
#include "sim/swarm.h"
#include "strategy/factory.h"
#include "traced_layers.h"
#include "util/atomic_file.h"
#include "util/byteio.h"

namespace perfbench {

namespace {

using coopnet::core::Algorithm;
using coopnet::sim::SwarmConfig;
namespace exp = coopnet::exp;
namespace metrics = coopnet::metrics;
namespace sim = coopnet::sim;

/// Wall-clock seconds after which a cell counts as stalled: well inside
/// the 180 s a whole run may take.
constexpr double kCellTimeoutS = 150.0;

// The Section V sweep as users run it (micro_swarm's sweep shape): all six
// mechanisms at the paper's population, idle tails capped at 4000 s, over
// a 16 MB file (64 pieces) so that a run holds several passes.
std::vector<SwarmConfig> paper_sweep_configs(std::uint64_t seed) {
  std::vector<SwarmConfig> out;
  for (Algorithm algo : coopnet::core::kAllAlgorithms) {
    auto c = SwarmConfig::paper_scale(algo, seed);
    c.file_bytes = 16LL * 1024 * 1024;
    c.max_time = 4000.0;
    out.push_back(c);
  }
  return out;
}

// micro_swarm --peers 100000: one large BitTorrent swarm over a small file
// whose whole population arrives within 10 s, run for 120 simulated s.
std::vector<SwarmConfig> scale_swarm_configs(std::uint64_t seed) {
  auto c = SwarmConfig::paper_scale(Algorithm::kBitTorrent, seed);
  c.n_peers = 100000;
  c.file_bytes = 8LL * 1024 * 1024;
  c.graph.degree = 30;
  c.flash_crowd_window = 10.0;
  c.max_time = 120.0;
  return {c};
}

// Every mechanism but T-Chain under 5% transfer loss and moderate churn,
// over a 32 MB file. T-Chain is left out because its admission path would
// take ~3/4 of the batch and hide the checkpoint layers; paper_sweep
// covers it.
std::vector<SwarmConfig> churn_checkpoint_configs(std::uint64_t seed) {
  std::vector<SwarmConfig> out;
  for (Algorithm algo : coopnet::core::kAllAlgorithms) {
    if (algo == Algorithm::kTChain) continue;
    auto c = SwarmConfig::paper_scale(algo, seed);
    c.n_peers = 500;
    c.file_bytes = 32LL * 1024 * 1024;
    c.faults = sim::moderate_churn();
    c.faults.transfer_loss_rate = 0.05;
    c.max_time = 4000.0;
    out.push_back(c);
  }
  return out;
}

std::unique_ptr<sim::Swarm> make_swarm(const SwarmConfig& config,
                                       Tracer* fine) {
  auto strategy = coopnet::strategy::make_strategy(config.algorithm);
  if (fine != nullptr) {
    strategy = std::make_unique<TracedStrategy>(std::move(strategy), *fine);
  }
  return std::make_unique<sim::Swarm>(config, std::move(strategy));
}

/// A swarm with its RunMetrics attached (through the traced observer when
/// `fine` is set). Members are destroyed observer-first; the swarm never
/// calls its observer from its destructor.
struct LiveCell {
  std::unique_ptr<sim::Swarm> swarm;
  std::unique_ptr<metrics::RunMetrics> metrics;
  std::unique_ptr<TracedObserver> observer;

  void observe(Tracer* fine) {
    if (fine == nullptr) return;
    observer = std::make_unique<TracedObserver>(*metrics, *fine);
    swarm->set_observer(observer.get());
  }
};

/// The set-up every cell pays: strategy, Swarm, metrics install, start().
/// install() precedes start() so the sampler's events get the sequence
/// numbers they get under Swarm::run().
LiveCell set_up(const SwarmConfig& config, bool checkpoints, Tracer& tracer,
                Tracer* fine) {
  LiveCell cell;
  {
    Span build(tracer, Layer::kBuild);
    cell.swarm = make_swarm(config, fine);
  }
  if (checkpoints) enable_checkpoints(*cell.swarm);
  cell.metrics = std::make_unique<metrics::RunMetrics>();
  cell.metrics->install(*cell.swarm);
  cell.observe(fine);
  cell.swarm->start();
  return cell;
}

/// Keeps a handful of a cell's snapshot files, evenly spread over however
/// many it writes: every `stride`-th is hard-linked aside, and when kKeep
/// are held every other one is removed and the stride doubles. On disk
/// rather than in memory, they stay out of the workload's peak RSS.
struct SnapshotSample {
  static constexpr std::size_t kKeep = 8;
  std::vector<std::string> kept;
  std::size_t stride = 1;
  std::size_t seen = 0;

  SnapshotSample() = default;
  SnapshotSample(const SnapshotSample&) = delete;
  SnapshotSample& operator=(const SnapshotSample&) = delete;
  ~SnapshotSample() {
    for (const std::string& path : kept) {
      std::error_code ignored;
      std::filesystem::remove(path, ignored);
    }
  }

  /// Called after each snapshot has been written to `path`.
  void offer(const std::string& path) {
    if (seen++ % stride != 0) return;
    const std::string copy = path + "." + std::to_string(seen);
    std::error_code no_links;
    std::filesystem::create_hard_link(path, copy, no_links);
    if (no_links) std::filesystem::copy_file(path, copy);
    kept.push_back(copy);
    if (kept.size() < kKeep) return;
    for (std::size_t i = 1; i < kKeep; i += 2) std::filesystem::remove(kept[i]);
    for (std::size_t i = 1; i < kKeep / 2; ++i) {
      kept[i] = std::move(kept[2 * i]);
    }
    kept.resize(kKeep / 2);
    stride *= 2;
  }
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  if (!in) throw std::runtime_error("cannot read " + path);
  return bytes.str();
}

/// One snapshot the way exp::run_supervised_cell takes it: swarm sections,
/// the metrics section, the encoded container, an atomic file write.
void take_snapshot(LiveCell& cell, const SwarmConfig& config,
                   const std::string& path, PassResult& pass) {
  Tracer& tr = pass.tracer;
  Span pause(tr, Layer::kCheckpoint);
  std::vector<sim::SnapshotSection> sections;
  {
    Span s(tr, Layer::kCkptSave);
    sections = sim::SwarmCheckpoint::save(*cell.swarm);
  }
  {
    Span s(tr, Layer::kCkptMetrics);
    coopnet::util::ByteSink sink;
    cell.metrics->checkpoint_save(sink);
    sections.push_back({sim::kSectionMetrics, sink.take()});
  }
  std::string bytes;
  {
    Span s(tr, Layer::kCkptEncode);
    bytes = sim::encode_snapshot(config, sections);
  }
  {
    Span s(tr, Layer::kAtomicWrite);
    coopnet::util::write_file_atomic(path, bytes);
  }
  pass.pause_ms.push_back(pause.close() * 1e3);
  pass.ckpt_bytes += bytes.size();
  ++pass.ckpt_count;
}

/// Restores a fresh swarm from `bytes`, runs it to the end, and compares
/// its report with the uninterrupted cell's. "" when they match.
std::string restore_and_replay(const SwarmConfig& config,
                               const std::string& bytes,
                               const CellResult& cell, bool traced,
                               PassResult& pass) {
  Tracer& tr = pass.tracer;
  // Replayed strategy and observer calls are verification, not part of
  // the batch: they go to a throwaway tracer.
  Tracer replay_tracer;
  Tracer* fine = traced ? &replay_tracer : nullptr;
  LiveCell r;
  r.swarm = make_swarm(config, fine);
  enable_checkpoints(*r.swarm);
  r.metrics = std::make_unique<metrics::RunMetrics>();
  {
    Span restore(tr, Layer::kRestore);
    std::vector<sim::SnapshotSection> sections;
    {
      Span s(tr, Layer::kCkptDecode);
      sections = sim::decode_snapshot(config, bytes);
    }
    {
      Span s(tr, Layer::kCkptRestore);
      r.swarm->start_restored();
      r.metrics->install_restored(*r.swarm);
      r.observe(fine);
      sim::SwarmCheckpoint::restore(*r.swarm, sections);
      for (const sim::SnapshotSection& s : sections) {
        if (s.id != sim::kSectionMetrics) continue;
        coopnet::util::ByteSource src(s.payload, "metrics section");
        r.metrics->checkpoint_load(src);
        src.expect_exhausted();
      }
    }
    pass.restore_ms.push_back(restore.close() * 1e3);
  }
  {
    Span replay(tr, Layer::kReplay);
    if (!r.swarm->finished()) r.swarm->advance_until(config.max_time);
  }
  if (r.swarm->engine().events_processed() != cell.events) {
    return "restored run processed a different number of events";
  }
  if (metrics::to_json(metrics::build_report(*r.swarm, *r.metrics)) !=
      cell.report_json) {
    return "restored run's report differs from the uninterrupted run's";
  }
  return "";
}

/// Output checks that hold for any seed: eq. 1 byte conservation, the
/// goodput accounting, fault counters that match the configuration, and
/// every peer finished unless the mechanism is exempt. "" when all hold.
std::string check_report(const Workload& workload, const SwarmConfig& config,
                         const metrics::RunReport& r) {
  const sim::FaultStats& f = r.faults;
  // Eq. 1: every byte received was sent; the surplus went to receivers
  // that left mid-transfer.
  if (r.total_uploaded_bytes < r.total_downloaded_raw_bytes) {
    return "eq. 1 violated: more bytes received than uploaded";
  }
  if (f.goodput_bytes != r.total_downloaded_raw_bytes) {
    return "goodput differs from the bytes peers received";
  }
  // offered = goodput + lost + in flight at the end of the run.
  const std::int64_t lost_or_in_flight = f.offered_bytes - f.goodput_bytes;
  if (lost_or_in_flight < 0) return "goodput exceeds offered bytes";
  if (r.goodput_ratio != f.goodput_ratio()) {
    return "reported goodput ratio disagrees with the fault counters";
  }
  const std::uint64_t faults_fired =
      f.transfer_failures + f.transfer_stalls + f.uploader_vanished;
  if (config.faults.any_enabled()) {
    if (faults_fired == 0 || lost_or_in_flight == 0) {
      return "faults were configured but no transfer was lost";
    }
  } else {
    if (faults_fired + f.churn_departures + f.seeder_outages != 0) {
      return "fault counters moved in a fault-free cell";
    }
    const std::int64_t slots =
        static_cast<std::int64_t>(config.n_peers) * config.upload_slots +
        static_cast<std::int64_t>(config.seeder_count) * config.seeder_slots;
    if (lost_or_in_flight > slots * config.piece_bytes) {
      return "fault-free cell lost bytes beyond what can be in flight";
    }
  }
  // Every compliant peer finished, or left for good under churn.
  const bool exempt =
      std::find(workload.may_not_finish.begin(), workload.may_not_finish.end(),
                config.algorithm) != workload.may_not_finish.end();
  if (!exempt && r.completion_times.size() + f.churn_losses !=
                     r.compliant_population) {
    return "not every compliant peer finished (completed_fraction " +
           std::to_string(r.completed_fraction) + ")";
  }
  return "";
}

CellResult run_cell(const Workload& w, std::size_t index,
                    const SwarmConfig& config, const PassOptions& opt,
                    exp::RunJournal* journal, PassResult& pass) {
  Tracer& tr = pass.tracer;
  Tracer* fine = opt.traced ? &tr : nullptr;
  CellResult out;
  out.mechanism = coopnet::core::to_string(config.algorithm);
  const TraceTotals before = tr.totals();
  SnapshotSample snapshots;
  metrics::RunReport report;
  try {
    Span cell_span(tr, Layer::kCell);
    const std::int64_t start = now_ns();
    LiveCell cell;
    {
      Span setup(tr, Layer::kSetup);
      cell = set_up(config, w.checkpoints, tr, fine);
      out.setup_s = setup.close();
    }
    exp::Supervision supervision;
    supervision.cell_timeout = kCellTimeoutS;
    exp::CellGuard guard(cell.swarm->engine(), supervision);
    sim::Swarm& swarm = *cell.swarm;

    auto advance = [&](double deadline) {
      Span slice(tr, Layer::kAdvance);
      swarm.advance_until(deadline);
      pass.slice_ms.push_back(slice.close() * 1e3);
      pass.queue_peak = std::max(pass.queue_peak, swarm.engine().pending());
    };
    const std::string snapshot_path =
        opt.scratch_dir + "/cell" + std::to_string(index) + ".ckpt";
    double next = w.slice;
    while (!swarm.finished() && next < config.max_time) {
      advance(next);
      if (w.checkpoints && !swarm.finished()) {
        take_snapshot(cell, config, snapshot_path, pass);
        snapshots.offer(snapshot_path);
      }
      next += w.slice;
    }
    if (!swarm.finished()) advance(config.max_time);
    if (guard.status() != exp::CellOutcome::Status::kOk) {
      throw std::runtime_error("stalled: " + guard.reason());
    }
    out.events = swarm.engine().events_processed();
    {
      Span s(tr, Layer::kReport);
      report = metrics::build_report(swarm, *cell.metrics);
      out.report_json = metrics::to_json(report);
    }
    if (journal != nullptr) {
      exp::CellOutcome outcome;
      outcome.status = exp::CellOutcome::Status::kOk;
      outcome.index = index;
      outcome.seed = config.seed;
      outcome.algorithm = out.mechanism;
      outcome.wall_seconds =
          static_cast<double>(now_ns() - start) * 1e-9 - out.setup_s;
      outcome.events = out.events;
      outcome.has_report = true;
      outcome.report = report;
      outcome.report_json = out.report_json;
      Span s(tr, Layer::kJournal);
      journal->record(outcome);
    }
    out.span_ns = cell_span.close_ns();
    out.wall_s = static_cast<double>(out.span_ns) * 1e-9 - out.setup_s;
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  out.trace = tr.totals() - before;
  if (out.ok()) out.error = check_report(w, config, report);
  if (out.ok() && opt.verify_restores && !snapshots.kept.empty()) {
    // Restore from the snapshots about a quarter, half and three quarters
    // of the way through the cell.
    Span verify(tr, Layer::kVerify);
    const std::size_t n = snapshots.kept.size();
    std::vector<std::size_t> picks = {n / 4, n / 2, (3 * n) / 4};
    picks.erase(std::unique(picks.begin(), picks.end()), picks.end());
    for (std::size_t k : picks) {
      try {
        out.error = restore_and_replay(config, read_file(snapshots.kept[k]),
                                       out, opt.traced, pass);
      } catch (const std::exception& e) {
        out.error = std::string("restore failed: ") + e.what();
      }
      if (!out.ok()) {
        out.error += " (snapshot " +
                     std::to_string(k * snapshots.stride + 1) + " of " +
                     std::to_string(snapshots.seen) + ")";
        break;
      }
    }
  }
  return out;
}

}  // namespace

const std::vector<Workload>& workloads() {
  // Exempt from the every-peer-finished check: pure reciprocity, which
  // never completes a swarm (its idle tail runs to max_time), and the
  // scale cell, which stops at its 120 s horizon long before its peers
  // can finish.
  static const std::vector<Workload> all = {
      {"paper_sweep", paper_sweep_configs, 10.0, false,
       {Algorithm::kReciprocity}},
      {"scale_swarm", scale_swarm_configs, 1.0, false,
       {Algorithm::kBitTorrent}},
      {"churn_checkpoint", churn_checkpoint_configs, 20.0, true,
       {Algorithm::kReciprocity}},
  };
  return all;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

double PassResult::wall_s() const {
  double sum = 0.0;
  for (const CellResult& c : cells) sum += c.wall_s;
  return sum;
}

double PassResult::setup_s() const {
  double sum = 0.0;
  for (const CellResult& c : cells) sum += c.setup_s;
  return sum;
}

double PassResult::cell_wall_max_s() const {
  double max = 0.0;
  for (const CellResult& c : cells) max = std::max(max, c.wall_s);
  return max;
}

std::uint64_t PassResult::events() const {
  std::uint64_t sum = 0;
  for (const CellResult& c : cells) sum += c.events;
  return sum;
}

std::size_t PassResult::failed() const {
  return static_cast<std::size_t>(std::count_if(
      cells.begin(), cells.end(), [](const CellResult& c) { return !c.ok(); }));
}

PassResult run_pass(const Workload& workload, std::uint64_t seed,
                    const PassOptions& options) {
  PassResult pass;
  const std::vector<SwarmConfig> configs = workload.configs(seed);
  std::unique_ptr<exp::RunJournal> journal;
  if (workload.checkpoints) {
    std::filesystem::create_directories(options.scratch_dir);
    // Only the per-cell appends are timed, so the once-per-sweep header
    // is not written.
    journal = std::make_unique<exp::RunJournal>(
        options.scratch_dir + "/journal.jsonl",
        exp::RunJournal::Mode::kTruncate);
  }
  for (std::size_t i = 0; i < configs.size(); ++i) {
    pass.cells.push_back(
        run_cell(workload, i, configs[i], options, journal.get(), pass));
  }
  return pass;
}

double time_setup(const Workload& workload, std::uint64_t seed) {
  Tracer tracer;
  double sum = 0.0;
  for (const SwarmConfig& config : workload.configs(seed)) {
    const std::int64_t start = now_ns();
    LiveCell cell = set_up(config, workload.checkpoints, tracer, nullptr);
    sum += static_cast<double>(now_ns() - start) * 1e-9;
  }
  return sum;
}

}  // namespace perfbench
