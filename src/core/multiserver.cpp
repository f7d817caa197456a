#include "core/multiserver.h"

namespace tre::core {

using ec::G1Point;

Bytes MultiServerUserKey::to_bytes() const {
  wire::Writer w;
  w.raw(ag.to_bytes_compressed()).u16(parts.size());
  for (const auto& part : parts) w.raw(part.to_bytes_compressed());
  return w.take();
}

MultiServerUserKey MultiServerUserKey::from_bytes(const params::GdhParams& params,
                                                  ByteSpan bytes) {
  wire::Reader r(bytes);
  MultiServerUserKey key;
  key.ag = read_gh<Tre512Backend>(params, r);
  size_t n = r.u16();
  key.parts.reserve(n);
  for (size_t i = 0; i < n; ++i) key.parts.push_back(read_gh<Tre512Backend>(params, r));
  require(r.finish(), "MultiServerUserKey: trailing bytes");
  return key;
}

Bytes MultiServerCiphertext::to_bytes() const {
  wire::Writer w;
  w.u16(us.size());
  for (const auto& u : us) w.raw(u.to_bytes_compressed());
  return w.bytes16(v).take();
}

MultiServerCiphertext MultiServerCiphertext::from_bytes(const params::GdhParams& params,
                                                        ByteSpan bytes) {
  wire::Reader r(bytes);
  MultiServerCiphertext ct;
  size_t n = r.u16();
  ct.us.reserve(n);
  for (size_t i = 0; i < n; ++i) ct.us.push_back(read_gh<Tre512Backend>(params, r));
  ct.v = wire::owned(r.bytes16());
  require(r.finish(), "MultiServerCiphertext: bad body length");
  return ct;
}

MultiServerTre::MultiServerTre(std::shared_ptr<const params::GdhParams> params)
    : scheme_(std::move(params)) {}

MultiServerUserKey MultiServerTre::user_key(
    const Scalar& a, std::span<const ServerPublicKey> servers) const {
  health::ensure_operational();
  require(!servers.empty(), "MultiServerTre: no servers");
  MultiServerUserKey key;
  key.ag = scheme_.params().base.mul_secret(a);
  key.parts.reserve(servers.size());
  for (const auto& server : servers) key.parts.push_back(server.sg.mul_secret(a));
  return key;
}

bool MultiServerTre::verify_user_key(const MultiServerUserKey& user,
                                     std::span<const ServerPublicKey> servers) const {
  if (user.parts.size() != servers.size() || servers.empty()) return false;
  if (user.ag.is_infinity()) return false;
  const G1Point& base = scheme_.params().base;
  for (size_t i = 0; i < servers.size(); ++i) {
    if (user.parts[i].is_infinity()) return false;
    // ê(base, a·s_iG_i) == ê(aG, s_iG_i): both are ê(base, s_iG_i)^a.
    if (!counted_pairings_equal(base, user.parts[i], user.ag, servers[i].sg)) {
      return false;
    }
  }
  return true;
}

MultiServerCiphertext MultiServerTre::encrypt(ByteSpan msg,
                                              const MultiServerUserKey& user,
                                              std::span<const ServerPublicKey> servers,
                                              std::string_view tag,
                                              tre::hashing::RandomSource& rng) const {
  health::ensure_operational();
  require(verify_user_key(user, servers),
          "MultiServerTre encrypt: user key fails verification");
  Scalar r = params::random_scalar(scheme_.params(), rng);

  // K_new = Σ a·s_iG_i; K = ê(r·K_new, H1(T)).
  G1Point combined = G1Point::infinity(scheme_.params().ctx());
  for (const auto& part : user.parts) combined = combined + part;
  Gt k = counted_pair(combined.mul_secret(r), scheme_.hash_tag(tag));

  MultiServerCiphertext ct;
  ct.us.reserve(servers.size());
  for (const auto& server : servers) ct.us.push_back(server.g.mul_secret(r));
  ct.v = xor_bytes(msg, scheme_.mask_h2(k, msg.size()));
  return ct;
}

Bytes MultiServerTre::decrypt(const MultiServerCiphertext& ct, const Scalar& a,
                              std::span<const KeyUpdate> updates) const {
  health::ensure_operational();
  require(!ct.us.empty() && ct.us.size() == updates.size(),
          "MultiServerTre decrypt: need one update per server");
  for (const auto& update : updates) {
    require(update.tag == updates.front().tag,
            "MultiServerTre decrypt: updates disagree on the tag");
  }
  // K = Π ê(r·G_i, s_i·H1(T))^a — N Miller loops, one final exponentiation.
  std::vector<std::pair<G1Point, G1Point>> pairs;
  pairs.reserve(ct.us.size());
  for (size_t i = 0; i < ct.us.size(); ++i) {
    pairs.emplace_back(ct.us[i].mul_secret(a), updates[i].sig);
  }
  Gt k = counted_pair_product(pairs);
  return xor_bytes(ct.v, scheme_.mask_h2(k, ct.v.size()));
}

}  // namespace tre::core
