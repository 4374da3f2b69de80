// Forwarding wrappers that time calls into the strategy and metrics
// layers from outside. Both forward every virtual of the interface they
// wrap unchanged, so a run with them installed is byte-identical to one
// without (perfbench_test checks this for all six mechanisms, through
// checkpoint and restore too).
//
// Timed: next_upload, on_upload_started, on_delivered, the membership
// callbacks, on_transfer_failed and the observer callbacks. Counted but
// never timed: accepts_delivery, which T-Chain reaches hundreds of
// millions of times per sweep; two clock reads per probe would quadruple
// the traced run. Forwarded untimed: attach, seeder_delivers_locked, the
// checkpoint hooks and rebuild_timer, whose time stays in the enclosing
// set-up, checkpoint or restore span.
#pragma once

#include <concepts>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>

#include "sim/strategy.h"
#include "sim/swarm.h"
#include "tracer.h"

namespace perfbench {

class StrategyForwarder : public coopnet::sim::ExchangeStrategy {
 public:
  StrategyForwarder(std::unique_ptr<coopnet::sim::ExchangeStrategy> inner,
                    Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  void attach(coopnet::sim::Swarm& swarm) override { inner_->attach(swarm); }

  std::optional<coopnet::sim::UploadAction> next_upload(
      coopnet::sim::Swarm& swarm, coopnet::sim::PeerId uploader) override {
    Span span(tracer_, Layer::kNextUpload);
    auto action = inner_->next_upload(swarm, uploader);
    if (!action) ++tracer_.counters().idle_next_uploads;
    return action;
  }

  void on_upload_started(coopnet::sim::Swarm& swarm,
                         const coopnet::sim::Transfer& transfer) override {
    Span span(tracer_, Layer::kUploadStarted);
    inner_->on_upload_started(swarm, transfer);
  }

  bool accepts_delivery(const coopnet::sim::Swarm& swarm,
                        coopnet::sim::PeerId target) const override {
    ++tracer_.counters().admission_probes;
    return inner_->accepts_delivery(swarm, target);
  }

  bool seeder_delivers_locked() const override {
    return inner_->seeder_delivers_locked();
  }

  void on_delivered(coopnet::sim::Swarm& swarm,
                    const coopnet::sim::Transfer& transfer) override {
    Span span(tracer_, Layer::kDelivered);
    inner_->on_delivered(swarm, transfer);
  }

  void on_peer_activated(coopnet::sim::Swarm& swarm,
                         coopnet::sim::PeerId id) override {
    Span span(tracer_, Layer::kMembership);
    inner_->on_peer_activated(swarm, id);
  }

  void on_peer_left(coopnet::sim::Swarm& swarm,
                    coopnet::sim::PeerId id) override {
    Span span(tracer_, Layer::kMembership);
    inner_->on_peer_left(swarm, id);
  }

  void on_transfer_failed(coopnet::sim::Swarm& swarm,
                          const coopnet::sim::Transfer& transfer,
                          bool will_retry) override {
    Span span(tracer_, Layer::kTransferFailed);
    inner_->on_transfer_failed(swarm, transfer, will_retry);
  }

  void on_peer_departed(coopnet::sim::Swarm& swarm, coopnet::sim::PeerId id,
                        bool will_rejoin) override {
    Span span(tracer_, Layer::kMembership);
    inner_->on_peer_departed(swarm, id, will_rejoin);
  }

  void on_peer_rejoined(coopnet::sim::Swarm& swarm,
                        coopnet::sim::PeerId id) override {
    Span span(tracer_, Layer::kMembership);
    inner_->on_peer_rejoined(swarm, id);
  }

  void checkpoint_save(coopnet::util::ByteSink& sink) const override {
    inner_->checkpoint_save(sink);
  }

  void checkpoint_load(coopnet::util::ByteSource& src,
                       const coopnet::sim::Swarm& swarm) override {
    inner_->checkpoint_load(src, swarm);
  }

 protected:
  std::unique_ptr<coopnet::sim::ExchangeStrategy> inner_;
  Tracer& tracer_;
};

/// Strategies that schedule timers are asked to rebuild them on restore.
/// The hook exists only while events are stored as closures; it is
/// forwarded when the interface has it and dropped when it does not, so
/// the benchmark builds on both sides of that change.
template <class Base>
concept HasRebuildTimer = requires(Base& b, coopnet::sim::Swarm& s) {
  b.rebuild_timer(s, std::uint32_t{0});
};

template <class Base>
class RebuildTimerForwarder : public Base {
 public:
  using Base::Base;
};

template <class Base>
  requires HasRebuildTimer<Base>
class RebuildTimerForwarder<Base> : public Base {
 public:
  using Base::Base;
  auto rebuild_timer(coopnet::sim::Swarm& swarm, std::uint32_t sub)
      -> decltype(std::declval<Base&>().rebuild_timer(swarm, sub)) override {
    return this->inner_->rebuild_timer(swarm, sub);
  }
};

/// The strategy wrapper the traced run installs around make_strategy().
using TracedStrategy = RebuildTimerForwarder<StrategyForwarder>;

/// Forwards every SwarmObserver callback to the run's RunMetrics.
class TracedObserver : public coopnet::sim::SwarmObserver {
 public:
  TracedObserver(coopnet::sim::SwarmObserver& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  void on_transfer(const coopnet::sim::Swarm& swarm,
                   const coopnet::sim::Transfer& t) override {
    Span span(tracer_, Layer::kObserver);
    inner_.on_transfer(swarm, t);
  }
  void on_bootstrap(const coopnet::sim::Swarm& swarm,
                    coopnet::sim::ConstPeer peer) override {
    Span span(tracer_, Layer::kObserver);
    inner_.on_bootstrap(swarm, peer);
  }
  void on_finish(const coopnet::sim::Swarm& swarm,
                 coopnet::sim::ConstPeer peer) override {
    Span span(tracer_, Layer::kObserver);
    inner_.on_finish(swarm, peer);
  }

 private:
  coopnet::sim::SwarmObserver& inner_;
  Tracer& tracer_;
};

}  // namespace perfbench
