// Mirrored update archive over the simulated network.
//
// The paper's server keeps old updates "at a publicly accessible place";
// at planetary scale that place is a set of replicas. The origin pushes
// each new update to every mirror over its link; receivers poll their
// mirrors through client::UpdateFetcher (over client::BasicSimnetSource)
// until the update is present. What the model surfaces (experiments
// E16/E18):
//   * availability latency — how long after the release instant a
//     receiver actually holds the update (replication + retry delay),
//   * origin offload — requests absorbed by mirrors instead of the
//     origin, the reason the passive-server design scales reads,
//   * Byzantine tolerance — mirrors are UNTRUSTED; with a FaultPlan
//     installed on the Network, a replica may serve corrupted,
//     relabelled, or garbage bytes, or none at all. Receivers survive
//     because updates self-authenticate (ê(sG,H1(T)) == ê(G,I_T)), the
//     check client/fetcher.h builds its pipeline on.
//
// Backend-generic: BasicMirroredArchive<B> replicates whichever
// backend's updates the server broadcasts. It serves bytes and never
// judges them; the receiver's trust boundary is the fetcher's.
// `MirroredArchive` is the type-1 instantiation.
#pragma once

#include <map>
#include <optional>
#include <string>

#include "core/tre.h"
#include "simnet/network.h"
#include "threshold/threshold.h"
#include "timeserver/archive.h"

namespace tre::simnet {

namespace detail {

// Fleet-wide mirrors of the per-instance counters, plus per-behaviour
// breakdown of dishonest replies (compiled out under -DTRE_METRICS=OFF).
// Shared across backends: replication traffic is replication traffic.
struct MirrorProbes {
  obs::CounterProbe publishes{"simnet.archive.publishes"};
  obs::CounterProbe replication_messages{"simnet.archive.replication_messages"};
  obs::CounterProbe origin_requests{"simnet.archive.origin_requests"};
  obs::CounterProbe mirror_requests{"simnet.archive.mirror_requests"};
  obs::CounterProbe byzantine_replies{"simnet.archive.byzantine_replies"};
  obs::CounterProbe byzantine_bitflip{"simnet.archive.byzantine.bitflip"};
  obs::CounterProbe byzantine_relabel{"simnet.archive.byzantine.relabel"};
  obs::CounterProbe byzantine_garbage{"simnet.archive.byzantine.garbage"};
  // Threshold-beacon traffic: mirrors doubling as beacon nodes serving
  // their own partial updates.
  obs::CounterProbe partial_publishes{"simnet.archive.partial_publishes"};
  obs::CounterProbe partial_requests{"simnet.archive.partial_requests"};
};

inline const MirrorProbes& mirror_probes() {
  static const MirrorProbes p;
  return p;
}

}  // namespace detail

template <class B>
class BasicMirroredArchive {
 public:
  /// Builds origin + `mirror_count` mirrors, all linked to the origin
  /// with `replication_link`. `params` sizes the garbage a Byzantine
  /// replica serves when it holds nothing to corrupt.
  BasicMirroredArchive(std::shared_ptr<const typename B::Params> params,
                       Network& net, server::Timeline& timeline,
                       size_t mirror_count, LinkSpec replication_link)
      : params_(std::move(params)),
        net_(net),
        timeline_(timeline),
        origin_(net.add_node("origin")) {
    require(params_ != nullptr, "MirroredArchive: null params");
    mirrors_.reserve(mirror_count);
    for (size_t i = 0; i < mirror_count; ++i) {
      NodeId node = net_.add_node("mirror-" + std::to_string(i));
      net_.connect(origin_, node, replication_link);
      mirrors_.push_back(Replica{node, {}, {}});
    }
  }

  NodeId origin() const { return origin_; }
  size_t mirror_count() const { return mirrors_.size(); }

  NodeId mirror_node(size_t idx) const {
    require(idx < mirrors_.size(), "MirroredArchive: bad mirror index");
    return mirrors_[idx].node;
  }

  /// Origin-side: stores locally and pushes one copy per mirror. A
  /// mirror that is crashed (per the fault plan) at the replication
  /// arrival instant misses the update until a later publish.
  void publish(const core::BasicKeyUpdate<B>& update) {
    publishes_.add();
    detail::mirror_probes().publishes.add();
    origin_archive_.put(update);
    size_t wire = update.to_bytes().size();
    for (size_t i = 0; i < mirrors_.size(); ++i) {
      replication_messages_.add();
      detail::mirror_probes().replication_messages.add();
      // Copy captured by value: the mirror stores it at arrival time.
      core::BasicKeyUpdate<B> copy = update;
      net_.send(origin_, mirrors_[i].node, wire,
                [this, i, copy = std::move(copy)] { mirrors_[i].archive.put(copy); });
    }
  }

  static constexpr size_t kOrigin = static_cast<size_t>(-1);

  /// One wire-level request/response round trip: `on_reply` receives the
  /// served bytes exactly as the replica chose to send them — honest
  /// mirrors serve `KeyUpdate::to_bytes()`, Byzantine mirrors (per the
  /// network's FaultPlan) may serve corrupted/relabelled/garbage bytes.
  /// No callback fires when the update is absent, a leg is lost, or the
  /// mirror stays silent; the CALLER owns retry timing. This is the
  /// primitive client::UpdateFetcher drives.
  void request(NodeId receiver, size_t mirror_idx, std::string tag,
               LinkSpec access_link, std::function<void(Bytes)> on_reply) {
    require(mirror_idx == kOrigin || mirror_idx < mirrors_.size(),
            "MirroredArchive: bad mirror index");
    NodeId target = node_for(mirror_idx);
    net_.connect(receiver, target, access_link);
    if (mirror_idx == kOrigin) {
      origin_requests_.add();
      detail::mirror_probes().origin_requests.add();
    } else {
      mirror_requests_.add();
      detail::mirror_probes().mirror_requests.add();
    }
    // Request leg; the replica decides its reply (if any) at arrival time.
    size_t request_bytes = tag.size();  // before the move below
    net_.send(receiver, target, request_bytes,
              [this, receiver, mirror_idx, target, tag = std::move(tag),
               on_reply = std::move(on_reply)]() mutable {
                std::optional<Bytes> reply = replica_reply(mirror_idx, tag);
                if (!reply) return;
                size_t wire = reply->size();
                net_.send(target, receiver, wire,
                          [bytes = std::move(*reply),
                           on_reply = std::move(on_reply)] { on_reply(bytes); });
              });
  }

  /// Beacon-node side: mirror `mirror_idx` doubles as node i of a t-of-n
  /// threshold beacon and stores ITS OWN partial update for later
  /// serving. There is no origin replication here — partials originate
  /// at the node that holds the share.
  void publish_partial(size_t mirror_idx,
                       threshold::BasicPartialUpdate<B> partial) {
    require(mirror_idx < mirrors_.size(), "MirroredArchive: bad mirror index");
    detail::mirror_probes().partial_publishes.add();
    mirrors_[mirror_idx].partials[partial.tag] = std::move(partial);
  }

  /// Wire-level beacon reply, synchronous (quorum collection is a bulk
  /// path — see UpdateSource::request_partial): what mirror `mirror_idx`
  /// puts on the wire for its partial on `tag`. Honest nodes serve
  /// PartialUpdate::to_bytes(); Byzantine nodes (per the network's
  /// FaultPlan) serve bit-flipped, relabelled, or garbage bytes; crashed
  /// or dropping nodes stay silent (nullopt).
  std::optional<Bytes> partial_reply(size_t mirror_idx, const std::string& tag) {
    require(mirror_idx < mirrors_.size(), "MirroredArchive: bad mirror index");
    detail::mirror_probes().partial_requests.add();
    FaultPlan* plan = net_.fault_plan();
    NodeId node = mirrors_[mirror_idx].node;
    if (plan && !plan->node_up(node, timeline_.now())) {
      return std::nullopt;  // crashed
    }
    const auto& partials = mirrors_[mirror_idx].partials;
    auto found = partials.find(tag);

    ByzantineMode mode = ByzantineMode::kHonest;
    if (plan) mode = plan->behaviour(node);
    switch (mode) {
      case ByzantineMode::kHonest:
        if (found == partials.end()) return std::nullopt;
        return found->second.to_bytes();
      case ByzantineMode::kDrop:
        return std::nullopt;
      case ByzantineMode::kBitFlip:
        if (found == partials.end()) return std::nullopt;
        count_byzantine(detail::mirror_probes().byzantine_bitflip);
        return plan->flip_one_bit(found->second.to_bytes());
      case ByzantineMode::kRelabel: {
        // Serve some OTHER tag's partial signature under the requested
        // tag — well-formed bytes that fail the pairing check.
        for (const auto& [other_tag, other] : partials) {
          if (other_tag == tag) continue;
          count_byzantine(detail::mirror_probes().byzantine_relabel);
          return threshold::BasicPartialUpdate<B>{other.index, tag, other.sig}
              .to_bytes();
        }
        if (found == partials.end()) return std::nullopt;
        count_byzantine(detail::mirror_probes().byzantine_garbage);
        return plan->garbage(found->second.to_bytes().size());
      }
      case ByzantineMode::kGarbage: {
        size_t len = found != partials.end()
                         ? found->second.to_bytes().size()
                         : 4 + tag.size() + B::gu_wire_bytes(*params_);
        count_byzantine(detail::mirror_probes().byzantine_garbage);
        return plan->garbage(len);
      }
    }
    return std::nullopt;
  }

  /// Point-in-time view over the instance registry (mirrored into
  /// obs::Registry::global() as simnet.archive.*).
  struct Stats {
    std::uint64_t publishes = 0;
    std::uint64_t replication_messages = 0;
    std::uint64_t origin_requests = 0;
    std::uint64_t mirror_requests = 0;
    std::uint64_t byzantine_replies = 0;  // dishonest bytes actually served
  };

  Stats stats() const {
    return Stats{publishes_.value(), replication_messages_.value(),
                 origin_requests_.value(), mirror_requests_.value(),
                 byzantine_replies_.value()};
  }

  /// The instance-local registry backing stats() (snapshot/export hook).
  const obs::Registry& metrics() const { return reg_; }

 private:
  struct Replica {
    NodeId node;
    server::BasicUpdateArchive<B> archive;
    // Beacon-node state: this node's own partials, keyed by tag.
    std::map<std::string, threshold::BasicPartialUpdate<B>> partials;
  };

  void count_byzantine(const obs::CounterProbe& breakdown) {
    byzantine_replies_.add();
    detail::mirror_probes().byzantine_replies.add();
    breakdown.add();
  }

  NodeId node_for(size_t mirror_idx) const {
    return mirror_idx == kOrigin ? origin_ : mirrors_[mirror_idx].node;
  }

  const server::BasicUpdateArchive<B>& archive_for(size_t mirror_idx) const {
    return mirror_idx == kOrigin ? origin_archive_ : mirrors_[mirror_idx].archive;
  }

  /// What the replica puts on the wire for `tag` (empty = stay silent).
  std::optional<Bytes> replica_reply(size_t mirror_idx, const std::string& tag) {
    const server::BasicUpdateArchive<B>& archive = archive_for(mirror_idx);
    std::optional<core::BasicKeyUpdate<B>> found = archive.find(tag);

    ByzantineMode mode = ByzantineMode::kHonest;
    FaultPlan* plan = net_.fault_plan();
    // The origin is the server's own box; only mirrors go Byzantine.
    if (plan && mirror_idx != kOrigin) mode = plan->behaviour(node_for(mirror_idx));

    switch (mode) {
      case ByzantineMode::kHonest:
        if (!found) return std::nullopt;
        return found->to_bytes();
      case ByzantineMode::kDrop:
        return std::nullopt;
      case ByzantineMode::kBitFlip:
        if (!found) return std::nullopt;  // nothing to corrupt yet
        count_byzantine(detail::mirror_probes().byzantine_bitflip);
        return plan->flip_one_bit(found->to_bytes());
      case ByzantineMode::kRelabel: {
        // Serve some OTHER archived update's signature under the requested
        // tag — a well-formed point that fails self-authentication.
        const auto& all = archive.all();
        for (auto it = all.rbegin(); it != all.rend(); ++it) {
          if (it->tag != tag) {
            count_byzantine(detail::mirror_probes().byzantine_relabel);
            return core::BasicKeyUpdate<B>{tag, it->sig}.to_bytes();
          }
        }
        if (all.empty()) return std::nullopt;
        // Only the requested update exists: degrade to garbage of honest size.
        count_byzantine(detail::mirror_probes().byzantine_garbage);
        return plan->garbage(all.front().to_bytes().size());
      }
      case ByzantineMode::kGarbage: {
        size_t len = found ? found->to_bytes().size()
                           : tag.size() + 2 + B::gu_wire_bytes(*params_);
        count_byzantine(detail::mirror_probes().byzantine_garbage);
        return plan->garbage(len);
      }
    }
    return std::nullopt;
  }

  std::shared_ptr<const typename B::Params> params_;
  Network& net_;
  server::Timeline& timeline_;
  NodeId origin_;
  server::BasicUpdateArchive<B> origin_archive_;
  std::vector<Replica> mirrors_;
  // Instance accounting in a private registry; handles resolved once
  // because registry lookup takes a lock.
  obs::Registry reg_;
  obs::Counter& publishes_ = reg_.counter("publishes");
  obs::Counter& replication_messages_ = reg_.counter("replication_messages");
  obs::Counter& origin_requests_ = reg_.counter("origin_requests");
  obs::Counter& mirror_requests_ = reg_.counter("mirror_requests");
  obs::Counter& byzantine_replies_ = reg_.counter("byzantine_replies");
};

using MirroredArchive = BasicMirroredArchive<core::Tre512Backend>;

extern template class BasicMirroredArchive<core::Tre512Backend>;

}  // namespace tre::simnet
