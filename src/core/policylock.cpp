#include "core/policylock.h"

#include <algorithm>

#include "hashing/kdf.h"

namespace tre::core {

using ec::G1Point;

PolicyLock::PolicyLock(std::shared_ptr<const params::GdhParams> params)
    : scheme_(std::move(params)) {}

WitnessStatement PolicyLock::attest(const ServerKeyPair& witness,
                                    std::string_view c) const {
  return scheme_.issue_update(witness, c);
}

bool PolicyLock::verify_statement(const ServerPublicKey& witness,
                                  const WitnessStatement& st) const {
  return scheme_.verify_update(witness, st);
}

Ciphertext PolicyLock::lock(ByteSpan msg, const UserPublicKey& user,
                            const ServerPublicKey& witness,
                            std::string_view condition,
                            tre::hashing::RandomSource& rng) const {
  return std::get<Ciphertext>(
      scheme_.seal(Mode::kBasic, msg, user, witness, condition, rng).body);
}

Bytes PolicyLock::unlock(const Ciphertext& ct, const Scalar& a,
                         const WitnessStatement& st,
                         const ServerPublicKey& witness) const {
  return *scheme_.open(SealedCiphertext{ct}, a, st, witness);
}

G1Point PolicyLock::sum_of_hashes(std::span<const std::string> conditions) const {
  require(!conditions.empty(), "PolicyLock: no conditions");
  G1Point sum = G1Point::infinity(scheme_.params().ctx());
  for (const auto& c : conditions) sum = sum + scheme_.hash_tag(c);
  return sum;
}

Ciphertext PolicyLock::lock_all(ByteSpan msg, const UserPublicKey& user,
                                const ServerPublicKey& witness,
                                std::span<const std::string> conditions,
                                tre::hashing::RandomSource& rng) const {
  require(scheme_.verify_user_public_key(witness, user),
          "PolicyLock lock_all: receiver public key fails the pairing check");
  const G1Point h = sum_of_hashes(conditions);
  SealedCiphertext ct =
      scheme_.seal_with(Mode::kBasic, msg, witness.g, rng, [&](const Scalar& r) {
        return counted_pair(user.asg, h).pow_unitary(r);
      });
  return std::get<Ciphertext>(ct.body);
}

Bytes PolicyLock::unlock_all(const Ciphertext& ct, const Scalar& a,
                             std::span<const std::string> conditions,
                             std::span<const WitnessStatement> statements,
                             const ServerPublicKey& witness) const {
  require(conditions.size() == statements.size() && !conditions.empty(),
          "PolicyLock unlock_all: need one statement per condition");
  // Every listed condition must be attested (order-insensitive).
  for (const auto& c : conditions) {
    bool found = std::any_of(statements.begin(), statements.end(),
                             [&](const WitnessStatement& st) { return st.tag == c; });
    require(found, "PolicyLock unlock_all: missing statement for a condition");
  }
  G1Point key = G1Point::infinity(scheme_.params().ctx());
  for (const auto& st : statements) key = key + st.sig;
  return *scheme_.open_with(SealedCiphertext{ct}, witness.g, [&](const G1Point& u) {
    return counted_pair(u, key).pow_unitary(a);
  });
}

namespace {

constexpr size_t kSessionKeyBytes = 32;

Bytes wrap_mask(const Gt& k) {
  return hashing::oracle_bytes("TRE-RESK", k.to_bytes(), kSessionKeyBytes);
}

Bytes body_stream(ByteSpan session_key, size_t len) {
  return hashing::oracle_bytes("TRE-RESM", session_key, len);
}

}  // namespace

Bytes AnyCiphertext::to_bytes() const {
  wire::Writer w;
  w.raw(u.to_bytes_compressed()).u16(wraps.size());
  for (const auto& [cond, wrapped] : wraps) w.bytes16(cond).bytes16(wrapped);
  return w.bytes16(body).take();
}

AnyCiphertext AnyCiphertext::from_bytes(const params::GdhParams& params,
                                        ByteSpan bytes) {
  wire::Reader r(bytes);
  AnyCiphertext ct;
  ct.u = read_gh<Tre512Backend>(params, r);
  size_t n = r.u16();
  for (size_t i = 0; i < n && r.ok(); ++i) {
    std::string cond = r.str16();
    ct.wraps.emplace_back(std::move(cond), wire::owned(r.bytes16()));
  }
  ct.body = wire::owned(r.bytes16());
  require(r.finish(), "AnyCiphertext: truncated or trailing bytes");
  return ct;
}

AnyCiphertext PolicyLock::lock_any(ByteSpan msg, const UserPublicKey& user,
                                   const ServerPublicKey& witness,
                                   std::span<const std::string> conditions,
                                   tre::hashing::RandomSource& rng) const {
  health::ensure_operational();
  require(!conditions.empty(), "PolicyLock lock_any: no conditions");
  require(scheme_.verify_user_public_key(witness, user),
          "PolicyLock lock_any: receiver public key fails the pairing check");
  Bytes session_key = rng.bytes(kSessionKeyBytes);
  Scalar r = params::random_scalar(scheme_.params(), rng);
  ec::G1Point rasg = user.asg.mul_secret(r);

  AnyCiphertext ct;
  ct.u = witness.g.mul_secret(r);
  ct.wraps.reserve(conditions.size());
  for (const auto& c : conditions) {
    Gt k = counted_pair(rasg, scheme_.hash_tag(c));
    ct.wraps.emplace_back(c, xor_bytes(session_key, wrap_mask(k)));
  }
  ct.body = xor_bytes(msg, body_stream(session_key, msg.size()));
  return ct;
}

Bytes PolicyLock::unlock_any(const AnyCiphertext& ct, const Scalar& a,
                             const WitnessStatement& st) const {
  health::ensure_operational();
  for (const auto& [cond, wrapped] : ct.wraps) {
    if (cond != st.tag) continue;
    require(wrapped.size() == kSessionKeyBytes, "PolicyLock unlock_any: bad wrap size");
    Gt k = counted_pair(ct.u, st.sig).pow_unitary(a);
    Bytes session_key = xor_bytes(wrapped, wrap_mask(k));
    return xor_bytes(ct.body, body_stream(session_key, ct.body.size()));
  }
  throw Error("PolicyLock unlock_any: statement matches none of the conditions");
}

}  // namespace tre::core
