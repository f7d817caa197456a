// Hierarchical timed release — the paper's §6 future-work design, built
// on Gentry-Silverberg HIBE (hibe/hibe.h).
//
// Time is a tree: day / hour / minute. The passive server publishes
//   * each minute's LEAF key when that minute arrives (the ordinary
//     per-instant update), and
//   * each hour's INTERNAL key — including its derivation secret — once
//     the hour has completely passed, and likewise each day's key.
//
// An internal key lets anyone derive every contained leaf, so:
//   * a receiver that missed minute updates recovers them from the next
//     completed hour/day key with local derivation — no delayed release
//     (contrast timeserver/resilient.h, which trades precision), and
//   * the public archive COMPACTS: a completed day stores 1 key instead
//     of 1440, keeping the look-up list at O(days + 24 + 60) entries.
//
// Confidentiality against the server is preserved exactly as in §5.1:
// the receiver key (a·P0, a·Q0) is an ordinary TRE user key bound to the
// HIBE root, and the session key is ê(Q_0, P_day)^{r·a}, so decryption
// needs BOTH the receiver secret and the published time key. Publishing
// an internal key releases only past instants: future siblings live
// under different node secrets.
#pragma once

#include <map>
#include <optional>

#include "hibe/hibe.h"
#include "timeserver/timeline.h"
#include "timeserver/timespec.h"

namespace tre::server {

/// (day, hour, minute) canonical-string path for `t`; shallower for
/// coarser granularities (day -> depth 1, hour -> depth 2).
hibe::IdPath time_path(const TimeSpec& t);

/// Non-escrowed hierarchical TRE (receiver-bound HIBE encryption).
class HierarchicalTre {
 public:
  explicit HierarchicalTre(std::shared_ptr<const params::GdhParams> params);

  const hibe::GsHibe& hibe() const { return hibe_; }

  /// User keys are ordinary TRE keys bound to (P0, Q0): reuse
  /// core::TreScheme::user_keygen with ServerPublicKey{P0, Q0}. The key
  /// must pass the core's receiver-key check against (P0, Q0); the
  /// ciphertext is GsHibe's under the root (P0, a·Q0).
  hibe::HibeCiphertext encrypt(ByteSpan msg, const core::UserPublicKey& user,
                               const hibe::RootPublicKey& root,
                               const TimeSpec& release,
                               tre::hashing::RandomSource& rng) const;

  /// Decrypts with the receiver secret plus the leaf (or derived-leaf)
  /// node key for the release instant: GsHibe's key product raised to a.
  Bytes decrypt(const hibe::HibeCiphertext& ct, const core::Scalar& a,
                const hibe::NodeKey& leaf) const;

 private:
  hibe::GsHibe hibe_;
  core::TreScheme scheme_;
};

/// Public archive with hierarchical compaction.
class CompactingArchive {
 public:
  /// Stores a published key; internal keys trigger compaction (an hour
  /// key evicts its minutes, a day key evicts its hours).
  void put(const hibe::NodeKey& key);

  /// Finds or derives the leaf key for `minute`: direct hit, or derived
  /// from the containing hour/day key if those periods completed.
  std::optional<hibe::NodeKey> leaf_for(const hibe::GsHibe& hibe,
                                        const ec::G1Point& p0,
                                        const TimeSpec& minute) const;

  size_t entries() const { return keys_.size(); }
  size_t stored_points() const;  // archive size proxy (group elements held)

 private:
  static std::string join(const hibe::IdPath& path);

  std::map<std::string, hibe::NodeKey> keys_;  // joined path -> key
};

/// The passive server for the hierarchy: deterministic node secrets from
/// a master seed, publication on period boundaries.
class HierarchicalTimeServer {
 public:
  HierarchicalTimeServer(std::shared_ptr<const params::GdhParams> params,
                         Timeline& timeline, tre::hashing::RandomSource& rng);

  const hibe::RootPublicKey& public_key() const { return root_pub_; }

  /// Publishes everything newly due: minute leaves that arrived, hour
  /// keys for completed hours, day keys for completed days. Returns the
  /// number of keys published.
  size_t tick();

  const CompactingArchive& archive() const { return archive_; }

  /// The key the server would publish for a node (testing/inspection);
  /// enforces the release rule (leaf: instant arrived; internal: period
  /// completed).
  hibe::NodeKey key_for(const TimeSpec& t);

  struct Stats {
    std::uint64_t leaves_published = 0;
    std::uint64_t internal_published = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  core::Scalar node_secret(const hibe::IdPath& path) const;
  hibe::NodeKey build_key(const hibe::IdPath& path) const;

  std::shared_ptr<const params::GdhParams> params_;
  hibe::GsHibe hibe_;
  Timeline& timeline_;
  Bytes master_seed_;
  hibe::RootKey root_;
  hibe::RootPublicKey root_pub_;
  CompactingArchive archive_;
  TimeSpec next_minute_;
  Stats stats_;
};

}  // namespace tre::server
