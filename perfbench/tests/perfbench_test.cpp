// Tests of the benchmark's own machinery: the forwarding wrappers are
// invisible to results, the tail-percentile rule, and the sliced,
// checkpointing pass against Swarm::run().
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>

#include "cells.h"
#include "metrics/json.h"
#include "metrics/run_metrics.h"
#include "sim/checkpoint.h"
#include "sim/faults.h"
#include "sim/swarm.h"
#include "stats.h"
#include "strategy/factory.h"
#include "traced_layers.h"
#include "util/byteio.h"

namespace {

using coopnet::core::Algorithm;
using coopnet::sim::SwarmConfig;
namespace metrics = coopnet::metrics;
namespace sim = coopnet::sim;
using namespace perfbench;

SwarmConfig churn_config(Algorithm algo) {
  auto c = SwarmConfig::small(algo, 5);
  c.faults = sim::moderate_churn();
  c.faults.transfer_loss_rate = 0.05;
  c.max_time = 4000.0;
  return c;
}

std::unique_ptr<sim::ExchangeStrategy> strategy_for(Algorithm algo,
                                                    Tracer* tracer) {
  auto s = coopnet::strategy::make_strategy(algo);
  if (tracer == nullptr) return s;
  return std::make_unique<TracedStrategy>(std::move(s), *tracer);
}

/// A checkpoint-enabled swarm with RunMetrics attached, optionally through
/// the wrappers.
struct LiveRun {
  std::unique_ptr<sim::Swarm> swarm;
  metrics::RunMetrics metrics;
  std::unique_ptr<TracedObserver> observer;

  LiveRun(const SwarmConfig& c, Tracer* tracer)
      : swarm(std::make_unique<sim::Swarm>(c, strategy_for(c.algorithm,
                                                           tracer))) {
    enable_checkpoints(*swarm);
  }
  void observe(Tracer* tracer) {
    if (tracer == nullptr) return;
    observer = std::make_unique<TracedObserver>(metrics, *tracer);
    swarm->set_observer(observer.get());
  }
  std::string report() const {
    return metrics::to_json(metrics::build_report(*swarm, metrics));
  }
  std::string snapshot() const {
    auto sections = sim::SwarmCheckpoint::save(*swarm);
    coopnet::util::ByteSink sink;
    metrics.checkpoint_save(sink);
    sections.push_back({sim::kSectionMetrics, sink.take()});
    return sim::encode_snapshot(swarm->config(), sections);
  }
};

class Wrappers : public ::testing::TestWithParam<Algorithm> {};

TEST_P(Wrappers, LeaveReportsAndCheckpointsByteIdentical) {
  const SwarmConfig c = churn_config(GetParam());
  Tracer tracer;
  LiveRun bare(c, nullptr), wrapped(c, &tracer);
  bare.metrics.install(*bare.swarm);
  wrapped.metrics.install(*wrapped.swarm);
  wrapped.observe(&tracer);
  bare.swarm->start();
  wrapped.swarm->start();
  bare.swarm->advance_until(15.0);
  wrapped.swarm->advance_until(15.0);
  ASSERT_FALSE(bare.swarm->finished());
  const std::string snap = bare.snapshot();
  EXPECT_EQ(wrapped.snapshot(), snap);
  bare.swarm->advance_until(c.max_time);
  wrapped.swarm->advance_until(c.max_time);
  EXPECT_EQ(wrapped.report(), bare.report());
  EXPECT_GT(tracer.totals()[Layer::kNextUpload].calls, 0u);
  EXPECT_GT(tracer.totals()[Layer::kObserver].calls, 0u);
  EXPECT_EQ(tracer.depth(), 0u);

  // A wrapped swarm restored from the bare run's snapshot finishes the
  // run exactly as the uninterrupted bare swarm did.
  Tracer restored_tracer;
  LiveRun restored(c, &restored_tracer);
  const auto sections = sim::decode_snapshot(c, snap);
  restored.swarm->start_restored();
  restored.metrics.install_restored(*restored.swarm);
  restored.observe(&restored_tracer);
  sim::SwarmCheckpoint::restore(*restored.swarm, sections);
  for (const auto& s : sections) {
    if (s.id != sim::kSectionMetrics) continue;
    coopnet::util::ByteSource src(s.payload, "metrics section");
    restored.metrics.checkpoint_load(src);
  }
  restored.swarm->advance_until(c.max_time);
  EXPECT_EQ(restored.report(), bare.report());
  EXPECT_EQ(restored.swarm->engine().events_processed(),
            bare.swarm->engine().events_processed());
}

INSTANTIATE_TEST_SUITE_P(
    AllMechanisms, Wrappers, ::testing::ValuesIn(coopnet::core::kAllAlgorithms),
    [](const auto& info) {
      std::string name = coopnet::core::to_string(info.param);
      std::erase(name, '-');
      return name;
    });

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(TailPercentile, PicksHighestRankWithTenSamplesBeyond) {
  // 348 samples: p97 is the 338th smallest with 10 above it; p98 (the
  // 342nd) would leave only 6.
  auto t = tail_percentile(one_to(348));
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->percentile, 97);
  EXPECT_EQ(t->value, 338.0);
  EXPECT_EQ(t->samples, 348u);
  EXPECT_EQ(t->beyond, 10u);

  t = tail_percentile(one_to(1000));
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->percentile, 99);
  EXPECT_EQ(t->beyond, 10u);

  // 20 samples: only the median leaves 10 above it.
  t = tail_percentile(one_to(20));
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->percentile, 50);
  EXPECT_EQ(t->value, 10.0);
  EXPECT_EQ(t->samples, 20u);

  EXPECT_FALSE(tail_percentile(one_to(19)).has_value());
  EXPECT_FALSE(tail_percentile({}).has_value());
}

std::vector<SwarmConfig> small_clean(std::uint64_t seed) {
  std::vector<SwarmConfig> out;
  for (Algorithm a : {Algorithm::kTChain, Algorithm::kBitTorrent}) {
    auto c = SwarmConfig::small(a, seed);
    c.max_time = 4000.0;
    out.push_back(c);
  }
  return out;
}

std::vector<SwarmConfig> small_churn(std::uint64_t seed) {
  std::vector<SwarmConfig> out;
  for (Algorithm a : {Algorithm::kFairTorrent, Algorithm::kAltruism}) {
    auto c = churn_config(a);
    c.seed = seed;
    out.push_back(c);
  }
  return out;
}

std::string plain_run(const SwarmConfig& c) {
  sim::Swarm swarm(c, coopnet::strategy::make_strategy(c.algorithm));
  metrics::RunMetrics m;
  m.install(swarm);
  swarm.run();
  return metrics::to_json(metrics::build_report(swarm, m));
}

class Passes : public ::testing::Test {
 protected:
  void SetUp() override {
    options_.scratch_dir =
        (std::filesystem::temp_directory_path() / "perfbench_test").string();
  }
  void TearDown() override {
    std::filesystem::remove_all(options_.scratch_dir);
  }
  PassOptions options_;
};

TEST_F(Passes, SlicedAdvanceMatchesRun) {
  const Workload w{"small_clean", small_clean, 7.0, false, {}};
  const PassResult pass = run_pass(w, 3, options_);
  const auto configs = small_clean(3);
  ASSERT_EQ(pass.cells.size(), configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    EXPECT_TRUE(pass.cells[i].ok()) << pass.cells[i].error;
    EXPECT_EQ(pass.cells[i].report_json, plain_run(configs[i]));
  }
  EXPECT_GT(pass.slice_ms.size(), configs.size());
  EXPECT_GT(pass.queue_peak, 0u);
}

TEST_F(Passes, CheckpointedTracedPassMatchesRunAndAddsUp) {
  const Workload w{"small_churn", small_churn, 20.0, true, {}};
  const PassResult plain = run_pass(w, 4, options_);
  options_.traced = true;
  const PassResult traced = run_pass(w, 4, options_);
  const auto configs = small_churn(4);
  for (std::size_t i = 0; i < configs.size(); ++i) {
    ASSERT_TRUE(plain.cells[i].ok()) << plain.cells[i].error;
    ASSERT_TRUE(traced.cells[i].ok()) << traced.cells[i].error;
    EXPECT_EQ(plain.cells[i].report_json, plain_run(configs[i]));
    EXPECT_EQ(traced.cells[i].report_json, plain.cells[i].report_json);
    // Every nanosecond of the traced cell lands in exactly one self time.
    EXPECT_EQ(traced.cells[i].trace.self_ns_sum(), traced.cells[i].span_ns);
  }
  EXPECT_GT(plain.ckpt_count, 0u);
  EXPECT_EQ(plain.pause_ms.size(), plain.ckpt_count);
  EXPECT_FALSE(plain.restore_ms.empty());
  EXPECT_GT(traced.tracer.totals()[Layer::kTransferFailed].calls, 0u);
  EXPECT_GT(traced.tracer.totals()[Layer::kJournal].calls, 0u);
}

}  // namespace
