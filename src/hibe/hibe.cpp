#include "hibe/hibe.h"

#include "pairing/pairing.h"

namespace tre::hibe {

using ec::G1Point;
using pairing::Gt;

namespace {

// Collision-free path encoding: u16 length prefix per component, so
// ("ab","c") and ("a","bc") hash to different points.
Bytes encode_path(const IdPath& path, size_t depth) {
  wire::Writer w;
  w.raw("HIBE-PATH");
  for (size_t i = 0; i < depth; ++i) w.bytes16(path[i]);
  return w.take();
}

}  // namespace

Bytes NodeKey::to_bytes(const params::GdhParams& params) const {
  require(q.size() + 1 == path.size(), "NodeKey::to_bytes: malformed key");
  wire::Writer w;
  w.u8(path.size());
  for (const auto& component : path) w.bytes16(component);
  w.raw(s.to_bytes_compressed());
  for (const auto& qi : q) w.raw(qi.to_bytes_compressed());
  w.u8(can_derive ? 1 : 0);
  if (can_derive) w.raw(secret.to_bytes_be(params.scalar_bytes()));
  return w.take();
}

NodeKey NodeKey::from_bytes(const params::GdhParams& params, ByteSpan bytes) {
  using core::read_gh;
  using core::Tre512Backend;
  wire::Reader r(bytes);
  size_t depth = r.u8();
  require(depth >= 1, "NodeKey: empty path");
  NodeKey key;
  for (size_t i = 0; i < depth; ++i) key.path.push_back(r.str16());
  key.s = read_gh<Tre512Backend>(params, r);
  for (size_t i = 0; i + 1 < depth; ++i) {
    key.q.push_back(read_gh<Tre512Backend>(params, r));
  }
  std::uint8_t flag = r.u8();
  require(flag <= 1, "NodeKey: bad derivation flag");
  key.can_derive = flag == 1;
  if (key.can_derive) {
    key.secret = Scalar::from_bytes_be(r.raw(params.scalar_bytes()));
    require(!key.secret.is_zero() && key.secret < params.group_order(),
            "NodeKey: invalid derivation secret");
  }
  require(r.finish(), "NodeKey: truncated or trailing bytes");
  return key;
}

GsHibe::GsHibe(std::shared_ptr<const params::GdhParams> params)
    : params_(params), mask_(params) {
  require(params_ != nullptr, "GsHibe: null params");
}

RootKey GsHibe::setup(tre::hashing::RandomSource& rng) const {
  health::ensure_operational();
  Scalar h = params::random_scalar(*params_, rng);
  Scalar s0 = params::random_scalar(*params_, rng);
  G1Point p0 = params_->base.mul(h);
  return RootKey{s0, p0, p0.mul_secret(s0)};
}

G1Point GsHibe::path_point(const IdPath& path) const {
  require(!path.empty(), "GsHibe: empty path");
  return ec::hash_to_g1(params_->ctx(), encode_path(path, path.size()));
}

NodeKey GsHibe::extract_root_child(const RootKey& root, std::string_view id,
                                   const Scalar& child_secret) const {
  health::ensure_operational();
  require(!child_secret.is_zero(), "GsHibe: zero child secret");
  NodeKey key;
  key.path = {std::string(id)};
  key.s = path_point(key.path).mul_secret(root.s0);
  key.secret = child_secret;
  key.can_derive = true;
  return key;
}

NodeKey GsHibe::derive_child(const G1Point& p0, const NodeKey& parent,
                             std::string_view id, const Scalar& child_secret) const {
  health::ensure_operational();
  require(parent.can_derive, "GsHibe: parent key has no derivation secret");
  require(!child_secret.is_zero(), "GsHibe: zero child secret");
  NodeKey key;
  key.path = parent.path;
  key.path.emplace_back(id);
  key.s = parent.s + path_point(key.path).mul_secret(parent.secret);
  key.q = parent.q;
  key.q.push_back(p0.mul_secret(parent.secret));  // Q_t = s_t·P0
  key.secret = child_secret;
  key.can_derive = true;
  return key;
}

bool GsHibe::verify_node_key(const RootPublicKey& root, const NodeKey& key) const {
  if (key.path.empty() || key.q.size() + 1 != key.path.size()) return false;
  if (key.s.is_infinity()) return false;
  // ê(P0, S_t) == ê(Q0, P_1) · Π_{i=2..t} ê(Q_{i-1}, P_i)
  std::vector<std::pair<G1Point, G1Point>> pairs;
  pairs.emplace_back(root.p0, key.s);
  pairs.emplace_back(-root.q0, path_point(IdPath(key.path.begin(), key.path.begin() + 1)));
  for (size_t i = 2; i <= key.path.size(); ++i) {
    IdPath prefix(key.path.begin(), key.path.begin() + static_cast<long>(i));
    pairs.emplace_back(-key.q[i - 2], path_point(prefix));
  }
  return core::counted_pair_product(pairs).is_one();
}

HibeCiphertext GsHibe::encrypt(ByteSpan msg, const IdPath& path,
                               const RootPublicKey& root,
                               tre::hashing::RandomSource& rng) const {
  health::ensure_operational();
  require(!path.empty(), "GsHibe: empty path");
  Scalar r = params::random_scalar(*params_, rng);
  HibeCiphertext ct;
  ct.u0 = root.p0.mul_secret(r);
  for (size_t i = 2; i <= path.size(); ++i) {
    IdPath prefix(path.begin(), path.begin() + static_cast<long>(i));
    ct.us.push_back(path_point(prefix).mul_secret(r));
  }
  Gt g = core::counted_pair(root.q0, path_point(IdPath(path.begin(), path.begin() + 1)));
  ct.v = xor_bytes(msg, mask_.mask_h2(g.pow_unitary(r), msg.size()));
  return ct;
}

Gt GsHibe::key_product(const HibeCiphertext& ct, const NodeKey& key) const {
  health::ensure_operational();
  require(ct.us.size() + 1 == key.path.size() && key.q.size() == ct.us.size(),
          "GsHibe: ciphertext depth does not match key depth");
  // K = ê(U0, S_t) · Π ê(Q_{i-1}, U_i)^{-1}, one final exponentiation.
  std::vector<std::pair<G1Point, G1Point>> pairs;
  pairs.emplace_back(ct.u0, key.s);
  for (size_t i = 0; i < ct.us.size(); ++i) {
    pairs.emplace_back(-key.q[i], ct.us[i]);
  }
  return core::counted_pair_product(pairs);
}

Bytes GsHibe::unmask(const HibeCiphertext& ct, const Gt& k) const {
  return xor_bytes(ct.v, mask_.mask_h2(k, ct.v.size()));
}

}  // namespace tre::hibe
