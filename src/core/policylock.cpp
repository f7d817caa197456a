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
  Scalar r = params::random_scalar(scheme_.params(), rng);
  G1Point u = witness.g.mul(r);
  Gt k = pairing::pair(user.asg.mul(r), sum_of_hashes(conditions));
  return Ciphertext{u, xor_bytes(msg, scheme_.mask_h2(k, msg.size()))};
}

Bytes PolicyLock::unlock_all(const Ciphertext& ct, const Scalar& a,
                             std::span<const std::string> conditions,
                             std::span<const WitnessStatement> statements) const {
  require(conditions.size() == statements.size() && !conditions.empty(),
          "PolicyLock unlock_all: need one statement per condition");
  // Every listed condition must be attested (order-insensitive).
  for (const auto& c : conditions) {
    bool found = std::any_of(statements.begin(), statements.end(),
                             [&](const WitnessStatement& st) { return st.tag == c; });
    require(found, "PolicyLock unlock_all: missing statement for a condition");
  }
  // K = ê(U, Σ s·H1(C_j))^a = ê(G, Σ H1(C_j))^{ras}.
  G1Point key = G1Point::infinity(scheme_.params().ctx());
  for (const auto& st : statements) key = key + st.sig;
  Gt k = pairing::pair(ct.u, key).pow(a);
  return xor_bytes(ct.v, scheme_.mask_h2(k, ct.v.size()));
}

namespace {

constexpr size_t kSessionKeyBytes = 32;

void put_u16(Bytes& out, size_t v) {
  require(v <= 0xffff, "serialization: length exceeds u16");
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v & 0xff));
}

size_t get_u16(ByteSpan bytes, size_t& off) {
  require(off + 2 <= bytes.size(), "deserialization: truncated length");
  size_t v = static_cast<size_t>(bytes[off]) << 8 | bytes[off + 1];
  off += 2;
  return v;
}

Bytes wrap_mask(const Gt& k) {
  return hashing::oracle_bytes("TRE-RESK", k.to_bytes(), kSessionKeyBytes);
}

Bytes body_stream(ByteSpan session_key, size_t len) {
  return hashing::oracle_bytes("TRE-RESM", session_key, len);
}

}  // namespace

Bytes AnyCiphertext::to_bytes() const {
  Bytes out = u.to_bytes_compressed();
  put_u16(out, wraps.size());
  for (const auto& [cond, wrapped] : wraps) {
    put_u16(out, cond.size());
    out.insert(out.end(), cond.begin(), cond.end());
    put_u16(out, wrapped.size());
    out.insert(out.end(), wrapped.begin(), wrapped.end());
  }
  put_u16(out, body.size());
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

AnyCiphertext AnyCiphertext::from_bytes(const params::GdhParams& params,
                                        ByteSpan bytes) {
  size_t off = 0;
  size_t point_len = params.g1_compressed_bytes();
  require(bytes.size() >= point_len, "AnyCiphertext: truncated point");
  AnyCiphertext ct;
  ct.u = ec::G1Point::from_bytes(params.ctx(), bytes.subspan(0, point_len));
  require(ct.u.in_subgroup(), "AnyCiphertext: point outside the order-q subgroup");
  off = point_len;
  size_t n = get_u16(bytes, off);
  for (size_t i = 0; i < n; ++i) {
    size_t cond_len = get_u16(bytes, off);
    require(off + cond_len <= bytes.size(), "AnyCiphertext: truncated condition");
    std::string cond(bytes.begin() + static_cast<long>(off),
                     bytes.begin() + static_cast<long>(off + cond_len));
    off += cond_len;
    size_t wrap_len = get_u16(bytes, off);
    require(off + wrap_len <= bytes.size(), "AnyCiphertext: truncated wrap");
    Bytes wrapped(bytes.begin() + static_cast<long>(off),
                  bytes.begin() + static_cast<long>(off + wrap_len));
    off += wrap_len;
    ct.wraps.emplace_back(std::move(cond), std::move(wrapped));
  }
  size_t body_len = get_u16(bytes, off);
  require(off + body_len == bytes.size(), "AnyCiphertext: bad body length");
  ct.body.assign(bytes.begin() + static_cast<long>(off), bytes.end());
  return ct;
}

AnyCiphertext PolicyLock::lock_any(ByteSpan msg, const UserPublicKey& user,
                                   const ServerPublicKey& witness,
                                   std::span<const std::string> conditions,
                                   tre::hashing::RandomSource& rng) const {
  require(!conditions.empty(), "PolicyLock lock_any: no conditions");
  require(scheme_.verify_user_public_key(witness, user),
          "PolicyLock lock_any: receiver public key fails the pairing check");
  Bytes session_key = rng.bytes(kSessionKeyBytes);
  Scalar r = params::random_scalar(scheme_.params(), rng);
  ec::G1Point rasg = user.asg.mul(r);

  AnyCiphertext ct;
  ct.u = witness.g.mul(r);
  ct.wraps.reserve(conditions.size());
  for (const auto& c : conditions) {
    Gt k = pairing::pair(rasg, scheme_.hash_tag(c));
    ct.wraps.emplace_back(c, xor_bytes(session_key, wrap_mask(k)));
  }
  ct.body = xor_bytes(msg, body_stream(session_key, msg.size()));
  return ct;
}

Bytes PolicyLock::unlock_any(const AnyCiphertext& ct, const Scalar& a,
                             const WitnessStatement& st) const {
  for (const auto& [cond, wrapped] : ct.wraps) {
    if (cond != st.tag) continue;
    require(wrapped.size() == kSessionKeyBytes, "PolicyLock unlock_any: bad wrap size");
    Gt k = pairing::pair(ct.u, st.sig).pow(a);
    Bytes session_key = xor_bytes(wrapped, wrap_mask(k));
    return xor_bytes(ct.body, body_stream(session_key, ct.body.size()));
  }
  throw Error("PolicyLock unlock_any: statement matches none of the conditions");
}

}  // namespace tre::core
