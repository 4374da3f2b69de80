// T-Chain (reciprocity/reputation hybrid, Section III-A; Shin et al. 2015).
//
// Every delivery -- including the seeder's -- arrives encrypted ("locked").
// The receiver must reciprocate before the sender releases the decryption
// key: directly back to the sender when the sender needs one of the
// receiver's pieces, otherwise indirectly by forwarding the received
// (still-encrypted) payload to a third user the sender designates. Each
// forward creates the next link of the chain; keys propagate down the chain
// as senders themselves get unlocked.
//
// Incentive consequences reproduced here:
//   * compliant peers' download rates are capped by their reciprocation
//     capacity (accepts_delivery bounds the obligation backlog), giving
//     Table I's d_i = U_i;
//   * plain free-riders never reciprocate, so their pieces never unlock --
//     zero exploitable resources (Table III);
//   * colluding free-riders exploit indirect reciprocity: when the
//     designated third party is a fellow colluder it falsely confirms
//     receipt and the sender releases the key for free (Section IV-C);
//   * at the endgame a compliant peer can be unable to reciprocate (nobody
//     needs anything); after `tchain_grace` seconds the sender releases the
//     key anyway, modeling T-Chain's key publication when a swarm drains.
//     Free-riders never receive this grace: they visibly refuse to
//     reciprocate rather than lacking the opportunity.
#pragma once

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "sim/strategy.h"

namespace coopnet::strategy {

class TChainStrategy final : public sim::ExchangeStrategy {
 public:
  void attach(sim::Swarm& swarm) override;
  std::optional<sim::UploadAction> next_upload(sim::Swarm& swarm,
                                               sim::PeerId uploader) override;
  void on_upload_started(sim::Swarm& swarm,
                         const sim::Transfer& transfer) override;
  bool accepts_delivery(const sim::Swarm& swarm,
                        sim::PeerId target) const override;
  bool seeder_delivers_locked() const override { return true; }
  void on_delivered(sim::Swarm& swarm,
                    const sim::Transfer& transfer) override;
  /// When an obligation-discharging upload is abandoned (not merely queued
  /// for retry), the duty moves back into the obligations queue so the
  /// peer can repay through another route.
  void on_transfer_failed(sim::Swarm& swarm, const sim::Transfer& transfer,
                          bool will_retry) override;

  /// Obligations currently queued at a peer (exposed for tests/metrics).
  std::size_t backlog(sim::PeerId id) const;

  // --- checkpoint (see sim/checkpoint.h) ---------------------------------
  // Serializes every mutable member: the per-peer obligation queues and
  // in-flight duties, the dense backlog mirror, the chain-link ledger and
  // its downstream index, the attach-derived limits, and the staged plan.
  // The planning scratch is not state (each next_upload call rebuilds it).
  // Timer sub 0 is the grace scan.
  void checkpoint_save(util::ByteSink& sink) const override;
  void checkpoint_load(util::ByteSource& src, const sim::Swarm& swarm) override;
  sim::SmallEventFn rebuild_timer(sim::Swarm& swarm,
                                  std::uint32_t sub) override;

 private:
  /// A reciprocation duty: `piece` arrived locked from `designator`, which
  /// suggested repaying toward `suggested_target` (kNoPeer = no hint).
  struct Obligation {
    sim::PieceId piece = sim::kNoPiece;
    sim::PeerId designator = sim::kNoPeer;
    sim::PeerId suggested_target = sim::kNoPeer;
    sim::Seconds created = 0.0;
  };

  /// One link of a chain: `receiver` holds `piece` locked, delivered by
  /// `sender`; `fulfilled` once the receiver reciprocated (or was excused).
  struct ChainLink {
    sim::PeerId sender = sim::kNoPeer;
    bool fulfilled = false;
  };

  /// An obligation being discharged by an in-flight upload. Carries the
  /// original obligation's fields so an abandoned upload (fault injection)
  /// can requeue the duty intact.
  struct InFlightDuty {
    sim::PieceId unlocks = sim::kNoPiece;
    sim::PeerId designator = sim::kNoPeer;
    sim::PeerId suggested_target = sim::kNoPeer;
  };

  struct PeerState {
    std::deque<Obligation> obligations;
    /// Obligation uploads in flight, keyed by (target, piece) of the
    /// outgoing transfer.
    std::unordered_map<std::uint64_t, InFlightDuty> in_flight;
  };

  static std::uint64_t key(sim::PeerId peer, sim::PieceId piece) {
    return (static_cast<std::uint64_t>(peer) << 32) | piece;
  }

  /// A neighbor of the planning uploader that passed admission, with its
  /// position in the uploader's neighbor list (the interest-memo index).
  struct Admissible {
    sim::PeerId id = sim::kNoPeer;
    std::uint32_t index = 0;
  };

  /// Plans the upload that would discharge `ob` for peer `p`, if any.
  std::optional<sim::UploadAction> plan_obligation(sim::Swarm& swarm,
                                                   sim::PeerId p,
                                                   const Obligation& ob);
  bool can_deliver(const sim::Swarm& swarm, sim::PeerId target,
                   sim::PieceId piece) const;
  /// The call's one admission pass: fills scratch_.admissible with the
  /// uploader's active, non-seeder neighbors that accept a delivery.
  void scan_admissible(const sim::Swarm& swarm, sim::PeerId uploader);
  /// Fills scratch_.needy with the admissible neighbors that accept an
  /// incoming transfer and need a piece from the offer lane -- exactly
  /// Swarm::needy_neighbors(uploader, include_locked_offer).
  void collect_needy(sim::Swarm& swarm, sim::PeerId uploader,
                     bool include_locked_offer);
  /// Marks the link for (receiver, piece) fulfilled and unlocks it if the
  /// sender already holds the key; cascades down the chain.
  void resolve_fulfilled(sim::Swarm& swarm, sim::PeerId receiver,
                         sim::PieceId piece);
  void try_unlock(sim::Swarm& swarm, sim::PeerId receiver,
                  sim::PieceId piece);
  void grace_scan(sim::Swarm& swarm);
  void drop_obligation(sim::PeerId p, sim::PieceId piece);

  void inc_backlog(sim::PeerId p) {
    if (p < backlog_count_.size()) ++backlog_count_[p];
  }
  void dec_backlog(sim::PeerId p) {
    if (p < backlog_count_.size()) --backlog_count_[p];
  }

  std::unordered_map<sim::PeerId, PeerState> state_;
  /// Dense mirror of obligations.size() + in_flight.size() per peer, sized
  /// by attach() and updated in step with every queue mutation. backlog()
  /// is on the admission-control hot path (called once per neighbor in each
  /// planning call's admission pass, plus once per designated target) and
  /// reads this instead of hashing into state_. Before attach() the vector
  /// is empty and backlog() falls back to the map.
  std::vector<std::uint32_t> backlog_count_;
  std::unordered_map<std::uint64_t, ChainLink> links_;  // (receiver, piece)
  /// sender -> (receiver, piece) links awaiting that sender's key.
  std::unordered_map<sim::PeerId,
                     std::vector<std::pair<sim::PeerId, sim::PieceId>>>
      downstream_;
  std::size_t max_backlog_ = 5;
  sim::Seconds grace_ = 30.0;
  /// Staged by next_upload, committed by on_upload_started.
  struct PendingPlan {
    sim::PeerId from = sim::kNoPeer;
    sim::PeerId to = sim::kNoPeer;
    sim::PieceId piece = sim::kNoPiece;
    sim::PieceId unlocks = sim::kNoPiece;  // kNoPiece = opportunistic seed
    bool valid = false;
  };
  PendingPlan pending_plan_;
  /// Planning scratch, reset by each next_upload call and kept only to
  /// reuse its buffers: not state, never checkpointed.
  struct PlanScratch {
    bool scanned = false;      // `admissible` holds this call's pass
    bool lane1_ready = false;  // `needy` holds the locked-offer lane
    std::vector<Admissible> admissible;
    std::vector<sim::PeerId> candidates;
    std::vector<sim::PeerId> needy;
    std::vector<sim::PeerId> pool;  // on_delivered's designation pool
  };
  PlanScratch scratch_;
};

}  // namespace coopnet::strategy
