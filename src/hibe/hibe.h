// Gentry-Silverberg hierarchical IBE (BasicHIDE) over the GDH group.
//
// The paper's §6 names hierarchical IBE (via [7]) as the route to
// missing-update resilience; this is the underlying HIBE, built on the
// same symmetric pairing as everything else.
//
//   root     : secret s_0, public (P_0, Q_0 = s_0·P_0)
//   identity : a path (id_1, ..., id_t); P_i = H1(id_1 / ... / id_i)
//   node key : S_t = Σ_{i=1..t} s_{i-1}·P_i  and  Q_i = s_i·P_0 (i < t),
//              where s_i is the level-i ancestor's secret
//   derive   : S_{t+1} = S_t + s_t·P_{t+1}; append Q_t = s_t·P_0
//   encrypt  : ⟨rP_0, rP_2, ..., rP_t, M ⊕ H2(ê(Q_0, P_1)^r)⟩
//   decrypt  : K = ê(U_0, S_t) · Π_{i=2..t} ê(Q_{i-1}, U_i)^{-1}
//
// Like all identity-based schemes this one is escrowed by the root; the
// timeserver/hierarchical.h wrapper removes the escrow for the TRE use
// by binding the session key to the receiver's secret exactly as §5.1
// does (K raised to the receiver's a).
#pragma once

#include <string>
#include <vector>

#include "core/tre.h"

namespace tre::hibe {

using core::Scalar;
using IdPath = std::vector<std::string>;

struct RootKey {
  Scalar s0;
  ec::G1Point p0;  // generator
  ec::G1Point q0;  // s0·P0
};

struct RootPublicKey {
  ec::G1Point p0;
  ec::G1Point q0;
};

/// Private key material of a node in the hierarchy. `secret` is the
/// node's own s_t, needed only to derive children; a key stripped of it
/// (see without_derivation()) can decrypt but not extend the hierarchy.
struct NodeKey {
  IdPath path;
  ec::G1Point s;               // S_t
  std::vector<ec::G1Point> q;  // Q_1 .. Q_{t-1}
  Scalar secret;               // s_t; zero when derivation is stripped
  bool can_derive = false;

  NodeKey without_derivation() const {
    NodeKey copy = *this;
    copy.secret = Scalar{};
    copy.can_derive = false;
    return copy;
  }

  /// Wire format (what a hierarchical archive/mirror actually serves):
  /// path components, S, the Q chain, and the derivation secret if the
  /// key carries one. Points are validated into G_1 on parse.
  Bytes to_bytes(const params::GdhParams& params) const;
  static NodeKey from_bytes(const params::GdhParams& params, ByteSpan bytes);
};

struct HibeCiphertext {
  ec::G1Point u0;               // rP_0
  std::vector<ec::G1Point> us;  // rP_2 .. rP_t
  Bytes v;
};

class GsHibe {
 public:
  explicit GsHibe(std::shared_ptr<const params::GdhParams> params);

  const params::GdhParams& params() const { return *params_; }

  RootKey setup(tre::hashing::RandomSource& rng) const;
  static RootPublicKey public_of(const RootKey& root) { return {root.p0, root.q0}; }

  /// Extracts a level-1 key directly under the root.
  NodeKey extract_root_child(const RootKey& root, std::string_view id,
                             const Scalar& child_secret) const;

  /// Derives a child key from a parent that still has its secret. Only
  /// the public generator is needed: ANYONE holding a parent key with
  /// its derivation secret can extend downward (the property the
  /// hierarchical time archive exploits — publishing a completed hour's
  /// key hands out all its minutes). The child secret may be any nonzero
  /// scalar; derived tuples remain self-consistent.
  NodeKey derive_child(const ec::G1Point& p0, const NodeKey& parent,
                       std::string_view id, const Scalar& child_secret) const;

  /// ê(root.q0, H1(id_1)) pairing check of a node key's S component:
  /// verifies S_t against the public Q chain.
  bool verify_node_key(const RootPublicKey& root, const NodeKey& key) const;

  HibeCiphertext encrypt(ByteSpan msg, const IdPath& path, const RootPublicKey& root,
                         tre::hashing::RandomSource& rng) const;

  Bytes decrypt(const HibeCiphertext& ct, const NodeKey& key) const {
    return unmask(ct, key_product(ct, key));
  }

  /// The session value K = ê(U0, S_t) · Π_{i=2..t} ê(Q_{i-1}, U_i)^{-1}
  /// of a ciphertext under a node key, and the message it unmasks (the
  /// receiver-bound time hierarchy raises K to the receiver's secret
  /// in between).
  pairing::Gt key_product(const HibeCiphertext& ct, const NodeKey& key) const;
  Bytes unmask(const HibeCiphertext& ct, const pairing::Gt& k) const;

  /// The point P_i for a path prefix (exposed for the TRE wrapper).
  ec::G1Point path_point(const IdPath& path) const;

 private:
  std::shared_ptr<const params::GdhParams> params_;
  core::TreScheme mask_;  // reused H1/H2 plumbing
};

}  // namespace tre::hibe
