#include "timeserver/hierarchical.h"

#include "hashing/kdf.h"

namespace tre::server {

using core::Scalar;
using ec::G1Point;
using hibe::IdPath;
using hibe::NodeKey;

IdPath time_path(const TimeSpec& t) {
  require(t.granularity() != Granularity::kSecond,
          "time_path: hierarchy is day/hour/minute; use minute granularity");
  IdPath path = {TimeSpec::from_unix(t.unix_seconds(), Granularity::kDay).canonical()};
  if (t.granularity() >= Granularity::kHour) {
    path.push_back(TimeSpec::from_unix(t.unix_seconds(), Granularity::kHour).canonical());
  }
  if (t.granularity() >= Granularity::kMinute) {
    path.push_back(
        TimeSpec::from_unix(t.unix_seconds(), Granularity::kMinute).canonical());
  }
  return path;
}

// --- HierarchicalTre ---------------------------------------------------------

HierarchicalTre::HierarchicalTre(std::shared_ptr<const params::GdhParams> params)
    : hibe_(params), scheme_(params) {}

hibe::HibeCiphertext HierarchicalTre::encrypt(ByteSpan msg,
                                              const core::UserPublicKey& user,
                                              const hibe::RootPublicKey& root,
                                              const TimeSpec& release,
                                              tre::hashing::RandomSource& rng) const {
  // Receiver-key check, as in §5.1 step 1 (user key bound to (P0, Q0)).
  require(scheme_.verify_user_public_key(core::ServerPublicKey{root.p0, root.q0}, user),
          "HierarchicalTre: receiver public key fails the pairing check");
  // HIBE encryption to the receiver-bound root (P0, a·Q0):
  // K = ê(a·Q0, P_1)^r = ê(Q0, P_1)^{ra} needs the receiver's secret to
  // reproduce, so the server (and the public) cannot decrypt.
  return hibe_.encrypt(msg, time_path(release), hibe::RootPublicKey{root.p0, user.asg},
                       rng);
}

Bytes HierarchicalTre::decrypt(const hibe::HibeCiphertext& ct, const Scalar& a,
                               const NodeKey& leaf) const {
  return hibe_.unmask(ct, hibe_.key_product(ct, leaf).pow_unitary(a));
}

// --- CompactingArchive ---------------------------------------------------------

std::string CompactingArchive::join(const IdPath& path) {
  std::string out;
  for (const auto& component : path) {
    if (!out.empty()) out += '/';
    out += component;
  }
  return out;
}

void CompactingArchive::put(const NodeKey& key) {
  std::string id = join(key.path);
  keys_.insert_or_assign(id, key);
  if (!key.can_derive) return;
  // Internal key: evict everything strictly below it — each descendant
  // is now derivable locally.
  std::string prefix = id + '/';
  auto it = keys_.lower_bound(prefix);
  while (it != keys_.end() && it->first.compare(0, prefix.size(), prefix) == 0) {
    it = keys_.erase(it);
  }
}

std::optional<NodeKey> CompactingArchive::leaf_for(const hibe::GsHibe& hibe,
                                                   const G1Point& p0,
                                                   const TimeSpec& minute) const {
  IdPath path = time_path(TimeSpec::from_unix(minute.unix_seconds(), Granularity::kMinute));
  // Direct leaf.
  if (auto it = keys_.find(join(path)); it != keys_.end()) return it->second;
  const Scalar one = Scalar::from_u64(1);
  // Derive from the containing hour.
  IdPath hour_path(path.begin(), path.begin() + 2);
  if (auto it = keys_.find(join(hour_path)); it != keys_.end() && it->second.can_derive) {
    return hibe.derive_child(p0, it->second, path[2], one);
  }
  // Derive from the containing day (two hops).
  IdPath day_path(path.begin(), path.begin() + 1);
  if (auto it = keys_.find(join(day_path)); it != keys_.end() && it->second.can_derive) {
    NodeKey hour = hibe.derive_child(p0, it->second, path[1], one);
    return hibe.derive_child(p0, hour, path[2], one);
  }
  return std::nullopt;
}

size_t CompactingArchive::stored_points() const {
  size_t total = 0;
  for (const auto& [id, key] : keys_) {
    (void)id;
    total += 1 + key.q.size();
  }
  return total;
}

// --- HierarchicalTimeServer ------------------------------------------------------

HierarchicalTimeServer::HierarchicalTimeServer(
    std::shared_ptr<const params::GdhParams> params, Timeline& timeline,
    tre::hashing::RandomSource& rng)
    : params_(params),
      hibe_(params),
      timeline_(timeline),
      master_seed_(rng.bytes(32)),
      root_(hibe_.setup(rng)),
      root_pub_(hibe::GsHibe::public_of(root_)),
      next_minute_(TimeSpec::from_unix(timeline.now(), Granularity::kMinute)) {}

Scalar HierarchicalTimeServer::node_secret(const IdPath& path) const {
  wire::Writer input;
  input.raw(master_seed_);
  for (const auto& component : path) input.bytes16(component);
  Bytes wide =
      hashing::oracle_bytes("HTS-NODE", input.take(), params_->scalar_bytes() + 16);
  auto v = bigint::BigInt<2 * field::kMaxFieldLimbs>::from_bytes_be(wide);
  Scalar s = bigint::mod_wide(v, params_->group_order());
  if (s.is_zero()) s = Scalar::from_u64(1);
  return s;
}

NodeKey HierarchicalTimeServer::build_key(const IdPath& path) const {
  require(!path.empty() && path.size() <= 3, "HierarchicalTimeServer: bad path depth");
  IdPath prefix = {path[0]};
  NodeKey key = hibe_.extract_root_child(root_, path[0], node_secret(prefix));
  for (size_t i = 1; i < path.size(); ++i) {
    prefix.push_back(path[i]);
    key = hibe_.derive_child(root_.p0, key, path[i], node_secret(prefix));
  }
  return key;
}

hibe::NodeKey HierarchicalTimeServer::key_for(const TimeSpec& t) {
  IdPath path = time_path(t);
  if (path.size() == 3) {
    // Leaf: released the moment the minute arrives (the ordinary update).
    require(t.unix_seconds() <= timeline_.now(),
            "HierarchicalTimeServer: minute has not arrived");
    return build_key(path).without_derivation();
  }
  // Internal: released only after the whole period has passed, because
  // its derivation secret opens every contained instant.
  require(t.next().unix_seconds() <= timeline_.now(),
          "HierarchicalTimeServer: period has not completed");
  return build_key(path);
}

size_t HierarchicalTimeServer::tick() {
  size_t published = 0;
  while (next_minute_.unix_seconds() <= timeline_.now()) {
    IdPath path = time_path(next_minute_);
    archive_.put(build_key(path).without_derivation());
    ++stats_.leaves_published;
    ++published;

    TimeSpec following = next_minute_.next();
    // Hour completed? Publish the internal hour key (compacts minutes).
    std::int64_t hour_start =
        TimeSpec::from_unix(next_minute_.unix_seconds(), Granularity::kHour).unix_seconds();
    if (TimeSpec::from_unix(following.unix_seconds(), Granularity::kHour).unix_seconds() !=
        hour_start) {
      archive_.put(build_key(time_path(TimeSpec::from_unix(hour_start, Granularity::kHour))));
      ++stats_.internal_published;
      ++published;
      // Day completed? Publish the internal day key (compacts hours).
      std::int64_t day_start =
          TimeSpec::from_unix(next_minute_.unix_seconds(), Granularity::kDay).unix_seconds();
      if (TimeSpec::from_unix(following.unix_seconds(), Granularity::kDay).unix_seconds() !=
          day_start) {
        archive_.put(build_key(time_path(TimeSpec::from_unix(day_start, Granularity::kDay))));
        ++stats_.internal_published;
        ++published;
      }
    }
    next_minute_ = following;
  }
  return published;
}

}  // namespace tre::server
