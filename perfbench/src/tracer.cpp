#include "tracer.h"

#include <cstdio>
#include <stdexcept>

namespace perfbench {

namespace {

/// Stable span name, as written to the span log.
const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kCell: return "cell";
    case Layer::kSetup: return "setup";
    case Layer::kBuild: return "sim.build";
    case Layer::kAdvance: return "sim.advance_until";
    case Layer::kCheckpoint: return "ckpt.pause";
    case Layer::kCkptSave: return "sim.ckpt_save";
    case Layer::kCkptMetrics: return "metrics.ckpt_section";
    case Layer::kCkptEncode: return "sim.ckpt_encode";
    case Layer::kAtomicWrite: return "util.atomic_write";
    case Layer::kReport: return "metrics.report";
    case Layer::kJournal: return "exp.journal_append";
    case Layer::kVerify: return "verify";
    case Layer::kRestore: return "ckpt.restore";
    case Layer::kCkptDecode: return "sim.ckpt_decode";
    case Layer::kCkptRestore: return "sim.ckpt_restore";
    case Layer::kReplay: return "verify.replay";
    case Layer::kNextUpload: return "strategy.next_upload";
    case Layer::kUploadStarted: return "strategy.on_upload_started";
    case Layer::kDelivered: return "strategy.on_delivered";
    case Layer::kMembership: return "strategy.membership";
    case Layer::kTransferFailed: return "strategy.on_transfer_failed";
    case Layer::kObserver: return "metrics.observer";
    case Layer::kCount: break;
  }
  return "?";
}

/// Coarse spans are logged one by one; fine ones only aggregated.
bool is_logged(Layer layer) { return layer < Layer::kNextUpload; }

}  // namespace

std::int64_t TraceTotals::self_ns_sum() const {
  std::int64_t sum = 0;
  for (const LayerTotals& t : layers) sum += t.self_ns;
  return sum;
}

TraceTotals TraceTotals::operator-(const TraceTotals& base) const {
  TraceTotals d = *this;
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    d.layers[i].calls -= base.layers[i].calls;
    d.layers[i].total_ns -= base.layers[i].total_ns;
    d.layers[i].self_ns -= base.layers[i].self_ns;
  }
  d.admission_probes -= base.admission_probes;
  d.idle_next_uploads -= base.idle_next_uploads;
  return d;
}

void Tracer::open(Layer layer) {
  std::int32_t record = -1;
  if (is_logged(layer)) {
    std::int32_t parent = -1;
    for (auto it = stack_.rbegin(); it != stack_.rend(); ++it) {
      if (it->record >= 0) {
        parent = it->record;
        break;
      }
    }
    record = static_cast<std::int32_t>(log_.size());
    log_.push_back({layer, parent, 0, 0});
  }
  stack_.push_back({layer, record, now_ns(), 0});
}

std::int64_t Tracer::close() {
  const std::int64_t end = now_ns();
  const Frame f = stack_.back();
  stack_.pop_back();
  const std::int64_t dur = end - f.start_ns;
  LayerTotals& t = totals_.layers[static_cast<std::size_t>(f.layer)];
  ++t.calls;
  t.total_ns += dur;
  t.self_ns += dur - f.child_ns;
  if (!stack_.empty()) stack_.back().child_ns += dur;
  if (f.record >= 0) {
    log_[static_cast<std::size_t>(f.record)].start_ns = f.start_ns;
    log_[static_cast<std::size_t>(f.record)].end_ns = end;
  }
  return dur;
}

void Tracer::write_spans(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) throw std::runtime_error("cannot write " + path);
  for (std::size_t i = 0; i < log_.size(); ++i) {
    const SpanRecord& s = log_[i];
    std::fprintf(out,
                 "{\"id\":%zu,\"name\":\"%s\",\"parent\":%d,"
                 "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 i, layer_name(s.layer), s.parent,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    const LayerTotals& t = totals_.layers[i];
    std::fprintf(out,
                 "{\"aggregate\":\"%s\",\"calls\":%llu,\"total_ns\":%lld,"
                 "\"self_ns\":%lld}\n",
                 layer_name(static_cast<Layer>(i)),
                 static_cast<unsigned long long>(t.calls),
                 static_cast<long long>(t.total_ns),
                 static_cast<long long>(t.self_ns));
  }
  if (std::fclose(out) != 0) throw std::runtime_error("cannot write " + path);
}

}  // namespace perfbench
