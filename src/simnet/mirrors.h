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
#include "obs/metrics.h"
#include "simnet/network.h"
#include "threshold/threshold.h"
#include "timeserver/archive.h"

namespace tre::simnet {

namespace detail {

// Fleet-wide totals of the per-instance Stats, plus per-behaviour
// breakdown of dishonest replies. Shared across backends: replication
// traffic is replication traffic.
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
    ++stats_.publishes;
    detail::mirror_probes().publishes.add();
    origin_archive_.put(update);
    size_t wire = update.to_bytes().size();
    for (size_t i = 0; i < mirrors_.size(); ++i) {
      ++stats_.replication_messages;
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
      ++stats_.origin_requests;
      detail::mirror_probes().origin_requests.add();
    } else {
      ++stats_.mirror_requests;
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
    std::optional<Bytes> honest;
    if (auto found = partials.find(tag); found != partials.end()) {
      honest = found->second.to_bytes();
    }
    // Relabel: some OTHER tag's partial signature under the requested
    // tag — well-formed bytes that fail the pairing check.
    auto relabelled = [&]() -> std::optional<Bytes> {
      for (const auto& [other_tag, other] : partials) {
        if (other_tag != tag) {
          return threshold::BasicPartialUpdate<B>{other.index, tag, other.sig}
              .to_bytes();
        }
      }
      return std::nullopt;
    };
    return reply_as(plan ? plan->behaviour(node) : ByzantineMode::kHonest,
                    std::move(honest), relabelled,
                    4 + tag.size() + B::gu_wire_bytes(*params_));
  }

  /// This cluster's traffic (the same events also fire the global
  /// simnet.archive.* probes).
  struct Stats {
    std::uint64_t publishes = 0;
    std::uint64_t replication_messages = 0;
    std::uint64_t origin_requests = 0;
    std::uint64_t mirror_requests = 0;
    std::uint64_t byzantine_replies = 0;  // dishonest bytes actually served
  };

  const Stats& stats() const { return stats_; }

 private:
  struct Replica {
    NodeId node;
    server::BasicUpdateArchive<B> archive;
    // Beacon-node state: this node's own partials, keyed by tag.
    std::map<std::string, threshold::BasicPartialUpdate<B>> partials;
  };

  void count_byzantine(const obs::CounterProbe& breakdown) {
    ++stats_.byzantine_replies;
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
    std::optional<Bytes> honest;
    if (std::optional<core::BasicKeyUpdate<B>> found = archive.find(tag)) {
      honest = found->to_bytes();
    }
    // Relabel: the newest OTHER archived update's signature under the
    // requested tag — a well-formed point that fails self-authentication.
    auto relabelled = [&]() -> std::optional<Bytes> {
      const auto& all = archive.all();
      for (auto it = all.rbegin(); it != all.rend(); ++it) {
        if (it->tag != tag) return core::BasicKeyUpdate<B>{tag, it->sig}.to_bytes();
      }
      return std::nullopt;
    };
    FaultPlan* plan = net_.fault_plan();
    // The origin is the server's own box; only mirrors go Byzantine.
    ByzantineMode mode = plan && mirror_idx != kOrigin
                             ? plan->behaviour(node_for(mirror_idx))
                             : ByzantineMode::kHonest;
    return reply_as(mode, std::move(honest), relabelled,
                    tag.size() + 2 + B::gu_wire_bytes(*params_));
  }

  /// The one Byzantine reply switch, shared by updates and partials: what
  /// a replica in `mode` serves given the `honest` bytes it holds (nullopt
  /// when it holds nothing for the tag), a `relabelled` source (another
  /// item's signature under the requested tag, nullopt when there is no
  /// other item), and the wire length `absent_len` of an item it lacks.
  /// Only non-honest modes draw from the fault plan.
  template <class Relabel>
  std::optional<Bytes> reply_as(ByzantineMode mode, std::optional<Bytes> honest,
                                const Relabel& relabelled, size_t absent_len) {
    FaultPlan* plan = net_.fault_plan();
    switch (mode) {
      case ByzantineMode::kHonest:
        return honest;
      case ByzantineMode::kDrop:
        return std::nullopt;
      case ByzantineMode::kBitFlip:
        if (!honest) return std::nullopt;  // nothing to corrupt yet
        count_byzantine(detail::mirror_probes().byzantine_bitflip);
        return plan->flip_one_bit(*honest);
      case ByzantineMode::kRelabel:
        if (std::optional<Bytes> other = relabelled()) {
          count_byzantine(detail::mirror_probes().byzantine_relabel);
          return other;
        }
        if (!honest) return std::nullopt;
        // Only the requested item exists: degrade to garbage of honest size.
        count_byzantine(detail::mirror_probes().byzantine_garbage);
        return plan->garbage(honest->size());
      case ByzantineMode::kGarbage:
        count_byzantine(detail::mirror_probes().byzantine_garbage);
        return plan->garbage(honest ? honest->size() : absent_len);
    }
    return std::nullopt;
  }

  std::shared_ptr<const typename B::Params> params_;
  Network& net_;
  server::Timeline& timeline_;
  NodeId origin_;
  server::BasicUpdateArchive<B> origin_archive_;
  std::vector<Replica> mirrors_;
  Stats stats_;
};

using MirroredArchive = BasicMirroredArchive<core::Tre512Backend>;

extern template class BasicMirroredArchive<core::Tre512Backend>;

}  // namespace tre::simnet
