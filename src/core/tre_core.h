// Backend-generic TRE core — the paper's §5.1 construction written ONCE
// over an abstract pairing backend.
//
// The construction only assumes a Gap Diffie-Hellman group with a
// pairing, so the whole production surface (seal/open modes, the step-1
// receiver-key check, the memo caches, the batch APIs, the obs probes,
// the wire codecs) is a template over a `PairingBackend` policy
// and instantiated per curve:
//   * core::Tre512Backend  (core/backend512.h)  — the 2005-era type-1
//     supersingular curve. `core::TreScheme` is that instantiation, and
//     its outputs are bit-identical to the pre-template scheme.
//   * bls12::Bls381Backend (bls12/backend381.h) — BLS12-381, the type-3
//     curve today's deployments of this very scheme (drand/tlock) use.
//
// A backend names two source groups, because the type-3 artifacts split:
//   * Gu — the "update" group: key updates I_T = s·H1(T), the H1 image,
//     the user's certifiable anchor aG, and epoch keys. G_1 on both
//     backends (type-3 G_1 points are the SHORT ones — BLS signatures).
//   * Gh — the "header" group: the server generator G, the public keys
//     sG / a·sG, and the ciphertext header U = rG. G_1 again on the
//     symmetric curve; G_2 on BLS12-381.
// The pairing is oriented Gu × Gh -> Gt by named operations
// (pair_session, pairings_equal_{uh,hu}) so that each type-1 call site
// keeps its exact historical argument order — that is what keeps the
// 512 instantiation bit-identical (test_seal's golden vectors enforce
// it).
//
// The encrypt/decrypt surface is seal, open, open_with_epoch_key and
// open_batch (plus encrypt_batch, the basic-only batch sealer). Every
// ciphertext has one session value K = ê(asG, H1(T))^r = ê(I_T, U)^a;
// the flavours differ only in how K masks the message, so each flavour's
// seal step and its unmask-from-K step are written once. By bilinearity
// the per-message secret (r to seal, a to open) can be applied in G_T or
// on the update-group ladder first, K = ê(asG, r·H1(T)) = ê(a·I_T, U);
// each backend takes the cheaper side (kSessionPowInGt). The other two
// open routes pair the §5.3.3 epoch key a·I_T, through its cached Miller
// lines where the backend has a line engine for a fixed Gu point. The
// seal and open steps are public as seal_with and open_with:
// the §5 extensions (ID-TRE, the policy lock's conjunction) are their
// own session values over them.
//
// The backend policy (all static; `Params` is the curve context):
//   types   : Params, Gu, Gh, Gt, GhPrecomp (fixed-base engine); and,
//             where the Miller loop runs over the Gu argument (type-1),
//             PairPrecomp (the line engine for a fixed Gu point)
//   consts  : kProbePrefix (obs name prefix, e.g. "core." /
//             "core.bls381."), kAnchorIsGh (type-1: the anchor aG lives
//             in Gh and shares its comb cache, and a rebound key's
//             same-secret check is a cross pairing; type-3: it is
//             a·G1gen, and that check an equality),
//             kSessionPowInGt (seal and open apply r and a as a G_T
//             power; false: on the Gu secret ladder before the pairing)
//   scalars : random_scalar, scalar_bytes, group_order
//   hashing : hash_tag (H1 onto Gu)
//   groups  : {gu,gh}_{mul_secret,is_infinity,eq,to_bytes,from_bytes,
//             wire_bytes,multiexp}, gu_mul (public scalars),
//             gh_in_subgroup, header_base, anchor_base
//   pairing : pair_session(asg, h1t), pairings_equal_uh/hu,
//             pairings_equal_fresh_hu (h1 is one-off: not line-cached),
//             gt_pow_unitary, gt_to_bytes; and, where there is no
//             PairPrecomp, pair_fresh(gu, gh) (ê(a·I_T, U), neither side
//             line-cached)
//   precomp : make_comb; make_lines where there is a PairPrecomp
#pragma once

#include <algorithm>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <variant>
#include <vector>

#include "bigint/prime.h"
#include "common/error.h"
#include "common/health.h"
#include "field/fp.h"
#include "common/parallel.h"
#include "common/snapshot_cache.h"
#include "common/wire.h"
#include "hashing/drbg.h"
#include "hashing/kdf.h"
#include "obs/metrics.h"

namespace tre::core {

using Scalar = field::FpInt;  // value in [1, q); both backends share it

/// The ciphertext flavours behind one API. kBasic is the §5.1 scheme
/// verbatim (malleable, CPA only); kFo and kReact are the paper's two
/// CCA transforms. kHybrid is the defense-in-depth envelope (payload key
/// sealed under TRE *and* an RSW time-lock puzzle); its encoding lives
/// in timelock/hybrid.h — here it only reserves the wire byte. Values
/// are the wire header byte — fixed forever.
enum class Mode : std::uint8_t { kBasic = 1, kFo = 2, kReact = 3, kHybrid = 4 };

inline const char* mode_name(Mode m) {
  switch (m) {
    case Mode::kBasic: return "basic";
    case Mode::kFo: return "fo";
    case Mode::kReact: return "react";
    case Mode::kHybrid: return "hybrid";
  }
  return "unknown";
}

/// Whether seal() performs the paper's step-1 pairing check on the
/// receiver public key. The check proves asg is really a·(sG), i.e. the
/// receiver cannot decrypt without the server's update.
enum class KeyCheck { kVerify, kSkip };

namespace detail {

inline constexpr size_t kSigmaBytes = 32;  // FO commitment / REACT witness size
inline constexpr size_t kMacBytes = 32;

// Bound on each memoization map. The live working set is tiny (a few
// generators, one tag and one update per epoch), so the bound only guards
// against unbounded growth under adversarial tag floods; wholesale
// clearing on overflow is good enough.
inline constexpr size_t kMaxCacheEntries = 1024;

// Hot-path probe handles, resolved once per process PER BACKEND: the
// backend's kProbePrefix labels the instruments, so the type-1 scheme
// keeps its documented "core.*" names while BLS12-381 reports under
// "core.bls381.*" (docs/OBSERVABILITY.md lists both catalogs).
template <class B>
struct SchemeProbes {
  static std::string n(const char* suffix) {
    return std::string(B::kProbePrefix) + suffix;
  }

  obs::CounterProbe pairings{n("pairings")};
  obs::CounterProbe mul_fixed{n("mul.fixed_base")};
  obs::CounterProbe mul_comb{n("mul.comb")};
  obs::CounterProbe mul_varying{n("mul.varying_base")};
  obs::CounterProbe tag_hit{n("cache.tags.hit")};
  obs::CounterProbe tag_miss{n("cache.tags.miss")};
  obs::CounterProbe comb_hit{n("cache.combs.hit")};
  obs::CounterProbe comb_miss{n("cache.combs.miss")};
  obs::CounterProbe keycheck_hit{n("cache.key_checks.hit")};
  obs::CounterProbe keycheck_miss{n("cache.key_checks.miss")};
  obs::CounterProbe pairbase_hit{n("cache.pair_bases.hit")};
  obs::CounterProbe pairbase_miss{n("cache.pair_bases.miss")};
  obs::CounterProbe lines_hit{n("cache.lines.hit")};
  obs::CounterProbe lines_miss{n("cache.lines.miss")};
  obs::CounterProbe seals{n("seals")};
  obs::CounterProbe opens{n("opens")};
  obs::CounterProbe updates_issued{n("updates_issued")};
  obs::CounterProbe updates_verified{n("updates_verified")};
  // Multi-exponentiation engine: invocations and total points folded.
  obs::CounterProbe multiexp_calls{n("multiexp.calls")};
  obs::CounterProbe multiexp_points{n("multiexp.points")};
  // Randomized batch verification: per-update accept/reject outcomes and
  // the number of RLC splits taken while attributing failures.
  obs::CounterProbe batch_accepted{n("batch_verify.accepted")};
  obs::CounterProbe batch_rejected{n("batch_verify.rejected")};
  obs::CounterProbe batch_bisections{n("batch_verify.bisections")};
  obs::HistogramProbe encrypt_ns{n("encrypt_ns")};
  obs::HistogramProbe decrypt_ns{n("decrypt_ns")};
  obs::HistogramProbe issue_update_ns{n("issue_update_ns")};
  obs::HistogramProbe verify_update_ns{n("verify_update_ns")};
  obs::HistogramProbe batch_verify_ns{n("batch_verify_ns")};
  // Nanoseconds spent blocked on a CONTENDED cache write lock (hits never
  // lock). count == number of contended acquisitions; stays 0 when the
  // snapshot substrate keeps writers out of each other's way.
  obs::HistogramProbe cache_lock_wait_ns{n("cache.lock_wait_ns")};

  static const SchemeProbes& get() {
    static const SchemeProbes p;
    return p;
  }
};

/// B::PairPrecomp, or void for a backend without a line engine for a
/// fixed Gu point (BLS12-381 prepares its lines on the G_2 side).
template <class B>
struct LinesOf {
  using type = void;
};
template <class B>
  requires requires { typename B::PairPrecomp; }
struct LinesOf<B> {
  using type = typename B::PairPrecomp;
};

template <class B>
SnapshotCacheOptions cache_options() {
  SnapshotCacheOptions opt;
  opt.max_entries = kMaxCacheEntries;
  opt.lock_wait_ns = +[](std::uint64_t ns) {
    SchemeProbes<B>::get().cache_lock_wait_ns.record(ns);
  };
  return opt;
}

/// The random-linear-combination (RLC) bisection behind every batch
/// check: update signatures, threshold partials and FO re-encryption
/// checks. Over items [0, n), each fold of two or more items draws fresh
/// scalars cᵢ ∈ [0, 2^rlc_bits) from `rng` and asks `holds(lo, hi, c)`
/// whether the combined equation over [lo, hi) holds; a failed fold
/// counts one bisection and splits in half, lower half first. A size-1
/// leaf runs `leaf(i)`, the caller's exact single-item check, so
/// attribution is exact and a lone item draws nothing.
template <class Holds, class Leaf>
void rlc_bisect(size_t n, tre::hashing::RandomSource& rng, unsigned rlc_bits,
                const obs::CounterProbe& bisections, Holds&& holds, Leaf&& leaf) {
  const size_t scalar_len = (rlc_bits + 7) / 8;
  auto check = [&](auto&& self, size_t lo, size_t hi) -> void {
    const size_t m = hi - lo;
    if (m == 0) return;
    if (m == 1) {
      leaf(lo);
      return;
    }
    std::vector<Scalar> c;
    c.reserve(m);
    Bytes buf = rng.bytes(m * scalar_len);
    for (size_t i = 0; i < m; ++i) {
      std::span<std::uint8_t> chunk(buf.data() + i * scalar_len, scalar_len);
      if (rlc_bits % 8 != 0) {
        chunk[0] &= static_cast<std::uint8_t>((1u << (rlc_bits % 8)) - 1);
      }
      c.push_back(Scalar::from_bytes_be(chunk));
    }
    if (holds(lo, hi, std::span<const Scalar>(c))) return;
    bisections.add();
    const size_t mid = lo + m / 2;
    self(self, lo, mid);
    self(self, mid, hi);
  };
  check(check, 0, n);
}

}  // namespace detail

/// Reads one fixed-width point of the update group (read_gh: the header
/// group). The backend's from_bytes validates curve and subgroup membership
/// (small-subgroup hardening), so every deserialized protocol point is in
/// the prime-order group.
template <class B>
typename B::Gu read_gu(const typename B::Params& params, wire::Reader& r) {
  ByteSpan raw = r.raw(B::gu_wire_bytes(params));
  require(r.ok(), "deserialization: truncated point");
  return B::gu_from_bytes(params, raw);
}

template <class B>
typename B::Gh read_gh(const typename B::Params& params, wire::Reader& r) {
  ByteSpan raw = r.raw(B::gh_wire_bytes(params));
  require(r.ok(), "deserialization: truncated point");
  return B::gh_from_bytes(params, raw);
}

template <class B>
struct BasicServerPublicKey {
  typename B::Gh g;   // G, server-chosen generator of the header group
  typename B::Gh sg;  // s·G

  Bytes to_bytes() const {
    return concat({B::gh_to_bytes(g), B::gh_to_bytes(sg)});
  }
  static BasicServerPublicKey from_bytes(const typename B::Params& params,
                                         ByteSpan bytes) {
    wire::Reader r(bytes);
    BasicServerPublicKey pk{read_gh<B>(params, r), read_gh<B>(params, r)};
    require(r.finish(), "ServerPublicKey: trailing bytes");
    return pk;
  }
  friend bool operator==(const BasicServerPublicKey& a,
                         const BasicServerPublicKey& b) {
    return B::gh_eq(a.g, b.g) && B::gh_eq(a.sg, b.sg);
  }
};

template <class B>
struct BasicServerKeyPair {
  Scalar s;
  BasicServerPublicKey<B> pub;
};

template <class B>
struct BasicUserPublicKey {
  typename B::Gu ag;   // a·G (type-1) / a·G1gen (type-3): the CA anchor
  typename B::Gh asg;  // a·s·G

  Bytes to_bytes() const {
    return concat({B::gu_to_bytes(ag), B::gh_to_bytes(asg)});
  }
  static BasicUserPublicKey from_bytes(const typename B::Params& params,
                                       ByteSpan bytes) {
    wire::Reader r(bytes);
    BasicUserPublicKey pk{read_gu<B>(params, r), read_gh<B>(params, r)};
    require(r.finish(), "UserPublicKey: trailing bytes");
    return pk;
  }
  friend bool operator==(const BasicUserPublicKey& a, const BasicUserPublicKey& b) {
    return B::gu_eq(a.ag, b.ag) && B::gh_eq(a.asg, b.asg);
  }
};

template <class B>
struct BasicUserKeyPair {
  Scalar a;
  BasicUserPublicKey<B> pub;
};

/// The server's entire per-instant output: identical for every receiver.
template <class B>
struct BasicKeyUpdate {
  std::string tag;     // the signed time / condition string T
  typename B::Gu sig;  // s·H1(T)

  /// Wire format: u16 tag length || tag || compressed point. This is what
  /// the scalability experiment (E3) counts as "bytes broadcast".
  Bytes to_bytes() const {
    return wire::Writer().bytes16(tag).raw(B::gu_to_bytes(sig)).take();
  }
  /// Throws tre::Error on malformed input. Bytes from untrusted sources
  /// go through wire::try_parse; a parsed update is still unauthenticated
  /// until verify_update. Point widths and curve equations differ per
  /// backend, so bytes from the wrong backend fail here (tested).
  static BasicKeyUpdate from_bytes(const typename B::Params& params, ByteSpan bytes) {
    wire::Reader r(bytes);
    std::string tag = r.str16();
    typename B::Gu sig = read_gu<B>(params, r);
    require(r.finish(), "KeyUpdate: trailing bytes");
    return BasicKeyUpdate{std::move(tag), sig};
  }
  friend bool operator==(const BasicKeyUpdate& a, const BasicKeyUpdate& b) {
    return a.tag == b.tag && B::gu_eq(a.sig, b.sig);
  }
};

/// §5.1 ciphertext ⟨U, V⟩ = ⟨rG, M ⊕ H2(K)⟩.
template <class B>
struct BasicCiphertext {
  typename B::Gh u;
  Bytes v;

  Bytes to_bytes() const {
    return wire::Writer().raw(B::gh_to_bytes(u)).bytes16(v).take();
  }
  static BasicCiphertext from_bytes(const typename B::Params& params, ByteSpan bytes) {
    wire::Reader r(bytes);
    typename B::Gh u = read_gh<B>(params, r);
    ByteSpan v = r.bytes16();
    require(r.finish(), "Ciphertext: truncated or trailing bytes");
    return BasicCiphertext{u, wire::owned(v)};
  }
};

/// Fujisaki-Okamoto ciphertext: U = rG with r = H3(σ, M),
/// c_sigma = σ ⊕ H2(K), c_msg = M ⊕ H4(σ).
template <class B>
struct BasicFoCiphertext {
  typename B::Gh u;
  Bytes c_sigma;
  Bytes c_msg;

  Bytes to_bytes() const {
    return wire::Writer().raw(B::gh_to_bytes(u)).bytes16(c_sigma).bytes16(c_msg).take();
  }
  static BasicFoCiphertext from_bytes(const typename B::Params& params,
                                      ByteSpan bytes) {
    wire::Reader r(bytes);
    typename B::Gh u = read_gh<B>(params, r);
    ByteSpan c_sigma = r.bytes16();
    ByteSpan c_msg = r.bytes16();
    require(r.finish(), "FoCiphertext: truncated or trailing bytes");
    return BasicFoCiphertext{u, wire::owned(c_sigma), wire::owned(c_msg)};
  }
};

/// REACT ciphertext: c_r = R ⊕ H2(K), c_msg = M ⊕ G(R),
/// mac = H5(R, M, U, c_r, c_msg).
template <class B>
struct BasicReactCiphertext {
  typename B::Gh u;
  Bytes c_r;
  Bytes c_msg;
  Bytes mac;

  Bytes to_bytes() const {
    return wire::Writer()
        .raw(B::gh_to_bytes(u))
        .bytes16(c_r)
        .bytes16(c_msg)
        .bytes16(mac)
        .take();
  }
  static BasicReactCiphertext from_bytes(const typename B::Params& params,
                                         ByteSpan bytes) {
    wire::Reader r(bytes);
    typename B::Gh u = read_gh<B>(params, r);
    ByteSpan c_r = r.bytes16();
    ByteSpan c_msg = r.bytes16();
    ByteSpan mac = r.bytes16();
    require(r.finish(), "ReactCiphertext: truncated or trailing bytes");
    return BasicReactCiphertext{u, wire::owned(c_r), wire::owned(c_msg),
                                wire::owned(mac)};
  }
};

/// Mode-tagged ciphertext: any flavour under ONE wire format (a 1-byte
/// mode header followed by the flavour's own encoding). seal() produces
/// it and the open routes consume it; the payload after the mode byte is
/// the flavour struct's own to_bytes() (tre_cli's per-flavour file kinds
/// store exactly that payload).
template <class B>
struct BasicSealedCiphertext {
  std::variant<BasicCiphertext<B>, BasicFoCiphertext<B>, BasicReactCiphertext<B>> body;

  Mode mode() const { return static_cast<Mode>(body.index() + 1); }

  Bytes to_bytes() const {
    return wire::Writer()
        .u8(static_cast<std::uint8_t>(mode()))
        .raw(std::visit([](const auto& ct) { return ct.to_bytes(); }, body))
        .take();
  }
  static BasicSealedCiphertext from_bytes(const typename B::Params& params,
                                          ByteSpan bytes) {
    wire::Reader r(bytes);
    const std::uint8_t mode = r.u8();
    ByteSpan payload = r.rest();
    require(r.ok(), "SealedCiphertext: empty input");
    switch (mode) {
      case static_cast<std::uint8_t>(Mode::kBasic):
        return BasicSealedCiphertext{BasicCiphertext<B>::from_bytes(params, payload)};
      case static_cast<std::uint8_t>(Mode::kFo):
        return BasicSealedCiphertext{BasicFoCiphertext<B>::from_bytes(params, payload)};
      case static_cast<std::uint8_t>(Mode::kReact):
        return BasicSealedCiphertext{
            BasicReactCiphertext<B>::from_bytes(params, payload)};
      case static_cast<std::uint8_t>(Mode::kHybrid):
        throw Error(
            "SealedCiphertext: hybrid envelope — parse with "
            "timelock::BasicHybridEnvelope::from_bytes");
      default:
        throw Error("SealedCiphertext: unknown mode byte");
    }
  }
};

/// §5.3.3 per-epoch decryption key a·I_T, derived on a safe device so the
/// long-term secret a never reaches the decryption device. Compromise of
/// one epoch key reveals nothing about other epochs (CDH).
template <class B>
struct BasicEpochKey {
  std::string tag;
  typename B::Gu d;  // a·s·H1(T)
};

template <class B>
class BasicTreScheme {
 public:
  using Backend = B;
  using Gt = typename B::Gt;

  explicit BasicTreScheme(std::shared_ptr<const typename B::Params> params)
      : params_(std::move(params)), cache_(std::make_shared<Cache>()) {
    require(params_ != nullptr, "TreScheme: null params");
  }

  const typename B::Params& params() const { return *params_; }

  // --- Key generation -------------------------------------------------------

  /// Picks a random generator G and secret s (the server alone controls
  /// its generator, mitigating the §5.1-point-6 rogue-generator concern
  /// from the *user's* side: senders may additionally avoid G == H1(T)).
  BasicServerKeyPair<B> server_keygen(tre::hashing::RandomSource& rng) const {
    health::ensure_operational();
    // G = h·base for random h is a uniform generator of the order-q subgroup.
    Scalar h = B::random_scalar(*params_, rng);
    Scalar s = B::random_scalar(*params_, rng);
    typename B::Gh g = mul_fixed_base(B::header_base(*params_), h);
    return BasicServerKeyPair<B>{s,
                                 BasicServerPublicKey<B>{g, mul_varying_gh(g, s)}};
  }

  BasicUserKeyPair<B> user_keygen(const BasicServerPublicKey<B>& server,
                                  tre::hashing::RandomSource& rng) const {
    health::ensure_operational();
    Scalar a = B::random_scalar(*params_, rng);
    return BasicUserKeyPair<B>{
        a, BasicUserPublicKey<B>{mul_anchor(server, a),
                                 mul_fixed_base(server.sg, a)}};
  }

  /// Paper §5.1: the secret may be derived from a human-memorable password
  /// through a good hash. Deterministic per (password, server key).
  BasicUserKeyPair<B> user_keygen_from_password(const BasicServerPublicKey<B>& server,
                                                std::string_view password) const {
    health::ensure_operational();
    // Domain-separate by the server key so one password yields unrelated
    // secrets under different servers.
    Bytes input = concat({tre::to_bytes(password), server.to_bytes()});
    Scalar a = hash_to_scalar("TRE-PWKDF", input);
    return BasicUserKeyPair<B>{
        a, BasicUserPublicKey<B>{mul_anchor(server, a),
                                 mul_fixed_base(server.sg, a)}};
  }

  /// Structural validation of a server key (on-curve, order-q, not O).
  bool verify_server_public_key(const BasicServerPublicKey<B>& server) const {
    return !B::gh_is_infinity(server.g) && !B::gh_is_infinity(server.sg) &&
           B::gh_in_subgroup(*params_, server.g) &&
           B::gh_in_subgroup(*params_, server.sg);
  }

  /// The encryptor's check: ê(aG, sG) == ê(G, asG) (paper Encryption #1;
  /// on a type-3 backend the anchor side reads ê(A1, S) == ê(G1gen, A2)).
  bool verify_user_public_key(const BasicServerPublicKey<B>& server,
                              const BasicUserPublicKey<B>& user) const {
    if (B::gu_is_infinity(user.ag) || B::gh_is_infinity(user.asg)) return false;
    probes().pairings.add(2);
    return B::pairings_equal_uh(*params_, user.ag, server.sg,
                                B::anchor_base(*params_, server.g), user.asg);
  }

  // --- Time-bound key updates -----------------------------------------------

  /// I_T = s·H1(T). Stateless: any tag, past or future, any order.
  BasicKeyUpdate<B> issue_update(const BasicServerKeyPair<B>& server,
                                 std::string_view tag) const {
    health::ensure_operational();
    obs::Span span(probes().issue_update_ns);
    probes().updates_issued.add();
    return BasicKeyUpdate<B>{std::string(tag),
                             mul_varying_gu(hash_tag(tag), server.s)};
  }

  /// Bulk issuance: one update per tag, fanned out on the persistent
  /// worker pool (`threads` = 0 picks hardware_concurrency, 1 runs
  /// serially on the caller). Each update is identical to
  /// issue_update(server, tags[i]).
  std::vector<BasicKeyUpdate<B>> issue_updates(const BasicServerKeyPair<B>& server,
                                               std::span<const std::string> tags,
                                               unsigned threads = 0) const {
    std::vector<BasicKeyUpdate<B>> out(tags.size());
    tre::parallel_for(
        tags.size(), [&](size_t i) { out[i] = issue_update(server, tags[i]); },
        threads);
    return out;
  }

  /// Self-authentication check ê(sG, H1(T)) == ê(G, I_T).
  bool verify_update(const BasicServerPublicKey<B>& server,
                     const BasicKeyUpdate<B>& update) const {
    if (B::gu_is_infinity(update.sig)) return false;
    obs::Span span(probes().verify_update_ns);
    probes().updates_verified.add();
    probes().pairings.add(2);
    return B::pairings_equal_hu(*params_, server.sg, hash_tag(update.tag),
                                server.g, update.sig);
  }

  /// Randomized batch verification: folds N self-authentication checks
  /// into ONE size-2 pairing equation via a random linear combination.
  /// With fresh scalars cᵢ ∈ [0, 2^rlc_bits) from `rng`,
  ///
  ///   ê(sG, Σᵢ cᵢ·H1(Tᵢ)) == ê(G, Σᵢ cᵢ·I_{Tᵢ})
  ///
  /// holds for honest updates by bilinearity, and a batch hiding any
  /// forged update survives with probability ≤ 2^-rlc_bits per check
  /// (cᵢ must annihilate the forgery's offset mod the group order).
  /// Both Σ sides run through the Pippenger engine (B::gu_multiexp), so
  /// the batch costs 2 multi-exps + 2 pairings instead of 2N pairings.
  ///
  /// Returns the sorted indices of updates that FAILED (empty == all N
  /// verified). On an RLC mismatch the batch bisects with fresh scalars
  /// per sub-batch; size-1 leaves fall back to plain verify_update, so
  /// attribution is exact and the single-item path stays bit-identical
  /// to per-item verification. `rlc_bits` below the default 128 weakens
  /// soundness and exists for the statistical soundness smoke test.
  std::vector<size_t> verify_updates_batch(
      const BasicServerPublicKey<B>& server,
      std::span<const BasicKeyUpdate<B>> updates,
      tre::hashing::RandomSource& rng, unsigned rlc_bits = 128,
      unsigned threads = 0) const {
    std::vector<size_t> bad;
    if (updates.empty()) return bad;
    require(rlc_bits >= 1 && rlc_bits <= 256,
            "verify_updates_batch: rlc_bits out of range");
    obs::Span span(probes().batch_verify_ns);

    // Screen out infinity signatures up front: verify_update rejects
    // them without a pairing, and an infinity point would vanish from
    // the RLC regardless of its scalar. The survivors enter the RLC
    // with their H1(Tᵢ) hashed once (memoized via the tag cache).
    std::vector<size_t> live;
    std::vector<typename B::Gu> h1;
    live.reserve(updates.size());
    h1.reserve(updates.size());
    for (size_t i = 0; i < updates.size(); ++i) {
      if (B::gu_is_infinity(updates[i].sig)) {
        bad.push_back(i);
        continue;
      }
      live.push_back(i);
      h1.push_back(hash_tag(updates[i].tag));
    }

    // One RLC check over live[lo, hi): two Gu multi-exps + one size-2
    // pairing comparison.
    auto holds = [&](size_t lo, size_t hi, std::span<const Scalar> c) {
      const size_t n = hi - lo;
      std::vector<typename B::Gu> sigs;
      sigs.reserve(n);
      for (size_t k = lo; k < hi; ++k) sigs.push_back(updates[live[k]].sig);
      probes().multiexp_calls.add(2);
      probes().multiexp_points.add(2 * n);
      typename B::Gu p = B::gu_multiexp(
          *params_, std::span<const typename B::Gu>(h1).subspan(lo, n), c, threads);
      typename B::Gu q =
          B::gu_multiexp(*params_, std::span<const typename B::Gu>(sigs), c, threads);
      probes().pairings.add(2);
      return B::pairings_equal_hu(*params_, server.sg, p, server.g, q);
    };
    detail::rlc_bisect(live.size(), rng, rlc_bits, probes().batch_bisections, holds,
                       [&](size_t k) {
                         if (!verify_update(server, updates[live[k]])) {
                           bad.push_back(live[k]);
                         }
                       });

    std::sort(bad.begin(), bad.end());
    probes().batch_rejected.add(bad.size());
    probes().batch_accepted.add(updates.size() - bad.size());
    return bad;
  }

  // --- Seal and open ------------------------------------------------------------

  /// Seals `msg` for `user` under the release tag, in any flavour:
  /// seal_with over the server generator with K = ê(asG, H1(T))^r.
  BasicSealedCiphertext<B> seal(Mode mode, ByteSpan msg,
                                const BasicUserPublicKey<B>& user,
                                const BasicServerPublicKey<B>& server,
                                std::string_view tag, tre::hashing::RandomSource& rng,
                                KeyCheck check = KeyCheck::kVerify) const {
    if (check == KeyCheck::kVerify) {
      require(checked_user_key(server, user),
              "TRE seal: receiver public key fails the pairing check");
    }
    return seal_with(mode, msg, server.g, rng, [&](const Scalar& r) {
      if constexpr (B::kSessionPowInGt) {
        // The base pairing is memoized per (receiver, tag), so a repeat
        // seal pays only the G_T power.
        return B::gt_pow_unitary(*params_, pair_base(user.asg, tag, hash_tag(tag)), r);
      } else {
        // K = ê(asG, r·H1(T)): the secret ladder, then one pairing on
        // asG's cached lines.
        probes().pairings.add();
        return B::pair_session(*params_, user.asg, mul_varying_gu(hash_tag(tag), r));
      }
    });
  }

  /// The flavour step every seal runs, gated, counted and timed. Every
  /// flavour sends U = r·g through the comb cache and masks the message
  /// with the session value K = session(r); they differ in how r is
  /// drawn (FO: r = H3(σ, M); basic and REACT: at random) and in how K
  /// masks the message (the ciphertext structs above). seal passes
  /// K = ê(asG, H1(T))^r; the §5 extensions pass their own K.
  template <class Session>
  BasicSealedCiphertext<B> seal_with(Mode mode, ByteSpan msg, const typename B::Gh& g,
                                     tre::hashing::RandomSource& rng,
                                     Session&& session) const {
    if (mode == Mode::kHybrid) {
      throw Error("seal: hybrid envelopes are built by timelock::seal_hybrid");
    }
    require(mode == Mode::kBasic || mode == Mode::kFo || mode == Mode::kReact,
            "seal: unknown mode");
    health::ensure_operational();
    obs::Span span(probes().encrypt_ns);
    probes().seals.add();
    // FO's σ or REACT's R is drawn before r, as the golden vectors fix.
    Bytes nonce;
    Scalar r;
    if (mode == Mode::kFo) {
      nonce = rng.bytes(detail::kSigmaBytes);
      // r = H3(σ, M): opening re-derives it, making the scheme
      // plaintext-aware (CCA in the ROM per Fujisaki-Okamoto).
      r = hash_to_scalar("TRE-H3", concat({nonce, msg}));
    } else {
      if (mode == Mode::kReact) nonce = rng.bytes(detail::kSigmaBytes);
      r = B::random_scalar(*params_, rng);
    }
    typename B::Gh u = mul_fixed_base(g, r);
    Gt k = session(r);

    if (mode == Mode::kBasic) {
      return {BasicCiphertext<B>{u, xor_bytes(msg, mask_h2(k, msg.size()))}};
    }
    Bytes c_nonce = xor_bytes(nonce, mask_h2(k, detail::kSigmaBytes));
    if (mode == Mode::kFo) {
      Bytes c_msg = xor_bytes(msg, hashing::oracle_bytes("TRE-H4", nonce, msg.size()));
      return {BasicFoCiphertext<B>{u, std::move(c_nonce), std::move(c_msg)}};
    }
    Bytes c_msg = xor_bytes(msg, hashing::oracle_bytes("TRE-G", nonce, msg.size()));
    Bytes mac = hashing::oracle_bytes(
        "TRE-H5", concat({nonce, msg, B::gh_to_bytes(u), c_nonce, c_msg}),
        detail::kMacBytes);
    return {BasicReactCiphertext<B>{u, std::move(c_nonce), std::move(c_msg),
                                    std::move(mac)}};
  }

  /// Opens any flavour with the receiver's secret and the epoch's update:
  /// K = ê(I_T, U)^a. nullopt on tampering (kFo/kReact) — kBasic has no
  /// integrity, so its result is always engaged but only meaningful for
  /// matching inputs. `server` is needed by the FO re-encryption check.
  std::optional<Bytes> open(const BasicSealedCiphertext<B>& ct, const Scalar& a,
                            const BasicKeyUpdate<B>& update,
                            const BasicServerPublicKey<B>& server) const {
    return open_with(ct, server.g, [&](const typename B::Gh& u) {
      if constexpr (B::kSessionPowInGt) {
        return B::gt_pow_unitary(*params_, pair_fixed(update.sig, u), a);
      } else {
        // K = ê(a·I_T, U): the secret ladder, then one pairing.
        return pair_fixed(mul_varying_gu(update.sig, a), u);
      }
    });
  }

  /// Batch-opens N same-tag ciphertexts for one receiver through the
  /// multi-exp engine. Two batch effects:
  ///   * The epoch key d = a·I_T is derived ONCE and each K = ê(d, U)
  ///     pairs as in open_with_epoch_key; bilinearity makes it equal
  ///     open()'s K, so open()'s per-item secret work (a G_T power, or a
  ///     ladder where !kSessionPowInGt) disappears.
  ///   * FO re-encryption checks fold into one RLC equation
  ///     (Σᵢ cᵢ·rᵢ)·G == Σᵢ cᵢ·Uᵢ — one comb multiply + one Gh
  ///     multi-exp instead of N comb multiplies — with bisection
  ///     attributing tampered items exactly (size-1 leaves re-check
  ///     individually, so attribution never convicts an honest item).
  /// Returns one slot per ciphertext: nullopt where integrity failed
  /// (kFo/kReact); honest siblings of a tampered item still open.
  std::vector<std::optional<Bytes>> open_batch(
      std::span<const BasicSealedCiphertext<B>> cts, const Scalar& a,
      const BasicKeyUpdate<B>& update, const BasicServerPublicKey<B>& server,
      tre::hashing::RandomSource& rng, unsigned rlc_bits = 128,
      unsigned threads = 0) const {
    health::ensure_operational();
    std::vector<std::optional<Bytes>> out(cts.size());
    if (cts.empty()) return out;
    require(rlc_bits >= 1 && rlc_bits <= 256, "open_batch: rlc_bits out of range");
    probes().opens.add(cts.size());
    const BasicEpochKey<B> epoch = derive_epoch_key(a, update);

    // Per-item unmasking fans out on the pool; FO items defer their
    // re-encryption checks so those can fold into one RLC equation.
    std::vector<Scalar> fo_r(cts.size());
    std::vector<std::uint8_t> is_fo(cts.size(), 0);
    auto epoch_key_of = [&](const typename B::Gh& u) { return pair_fixed(epoch.d, u); };
    tre::parallel_for(
        cts.size(),
        [&](size_t i) {
          auto defer = [&](const Scalar& r, const typename B::Gh&) {
            fo_r[i] = r;
            is_fo[i] = 1;
            return true;  // provisional until the RLC passes
          };
          out[i] = unmask(cts[i], epoch_key_of, defer);
        },
        threads);

    // One RLC re-encryption check over every FO item that unmasked.
    std::vector<size_t> fo_idx;
    for (size_t i = 0; i < cts.size(); ++i) {
      if (is_fo[i]) fo_idx.push_back(i);
    }
    const field::FpCtx* fq = B::scalar_field(*params_);
    auto header_of = [&](size_t k) -> const typename B::Gh& {
      return std::get<BasicFoCiphertext<B>>(cts[fo_idx[k]].body).u;
    };
    auto holds = [&](size_t lo, size_t hi, std::span<const Scalar> c) {
      const size_t n = hi - lo;
      field::Fp rho = field::Fp::zero(fq);
      std::vector<typename B::Gh> us;
      us.reserve(n);
      for (size_t k = 0; k < n; ++k) {
        rho = rho + field::Fp::from_int(fq, c[k]) *
                        field::Fp::from_int(fq, fo_r[fo_idx[lo + k]]);
        us.push_back(header_of(lo + k));
      }
      probes().multiexp_calls.add();
      probes().multiexp_points.add(n);
      typename B::Gh rhs =
          B::gh_multiexp(*params_, std::span<const typename B::Gh>(us), c, threads);
      return B::gh_eq(mul_fixed_base(server.g, rho.to_int()), rhs);
    };
    detail::rlc_bisect(fo_idx.size(), rng, rlc_bits, probes().batch_bisections, holds,
                       [&](size_t k) {
                         if (!reencrypts(server.g, fo_r[fo_idx[k]], header_of(k))) {
                           out[fo_idx[k]].reset();
                         }
                       });
    return out;
  }

  /// Seals every message under ONE tag for one receiver in the basic
  /// flavour, paying the receiver-key pairing check, tag hash, and base
  /// pairing once for the whole batch; per-message work drops to one
  /// fixed-base comb multiply and one G_T exponentiation. With `threads`
  /// != 1 the per-message work fans out on the persistent worker pool
  /// (0 = hardware_concurrency). Output is bit-identical to sequential
  /// seal(Mode::kBasic, ...) bodies drawing the same randomness.
  std::vector<BasicCiphertext<B>> encrypt_batch(
      std::span<const Bytes> msgs, const BasicUserPublicKey<B>& user,
      const BasicServerPublicKey<B>& server, std::string_view tag,
      tre::hashing::RandomSource& rng, KeyCheck check = KeyCheck::kVerify,
      unsigned threads = 0) const {
    health::ensure_operational();
    if (check == KeyCheck::kVerify) {
      require(checked_user_key(server, user),
              "TRE encrypt_batch: receiver public key fails the pairing check");
    }
    std::vector<BasicCiphertext<B>> out(msgs.size());
    if (msgs.empty()) return out;

    // All randomness is drawn up front, in order, so the batch produces
    // exactly the ciphertexts |msgs| sequential seals would.
    std::vector<Scalar> rs;
    rs.reserve(msgs.size());
    for (size_t i = 0; i < msgs.size(); ++i) {
      rs.push_back(B::random_scalar(*params_, rng));
    }

    const typename B::Gu h1t = hash_tag(tag);
    const Gt base = pair_base(user.asg, tag, h1t);  // one pairing for the batch
    auto comb = comb_for(server.g);
    tre::parallel_for(
        msgs.size(),
        [&](size_t i) {
          typename B::Gh u =
              comb ? comb->mul_secret(rs[i]) : mul_fixed_base(server.g, rs[i]);
          Gt k = B::gt_pow_unitary(*params_, base, rs[i]);
          out[i] = BasicCiphertext<B>{u, xor_bytes(msgs[i], mask_h2(k, msgs[i].size()))};
        },
        threads);
    return out;
  }

  // --- §5.3.3 key insulation ----------------------------------------------------

  /// Safe-device step: combine the long-term secret with a fresh update.
  BasicEpochKey<B> derive_epoch_key(const Scalar& a,
                                    const BasicKeyUpdate<B>& update) const {
    health::ensure_operational();
    // a·I_T = a·s·H1(T): all the secret material a ciphertext for tag T
    // needs, and useless for any other tag (CDH). The paper's §5.3.3 text
    // writes the epoch key as aH1(T_i); only a·(s·H1(T_i)) closes the
    // decryption equation — see DESIGN.md for the fidelity note.
    return BasicEpochKey<B>{update.tag, mul_varying_gu(update.sig, a)};
  }

  /// Insecure-device step: opens any flavour with only the epoch key,
  /// K = ê(a·I_T, U) (pair_fixed). Same results as open() with the update
  /// the key was derived from.
  std::optional<Bytes> open_with_epoch_key(const BasicSealedCiphertext<B>& ct,
                                           const BasicEpochKey<B>& key,
                                           const BasicServerPublicKey<B>& server) const {
    return open_with(ct, server.g,
                     [&](const typename B::Gh& u) { return pair_fixed(key.d, u); });
  }

  /// The open step every open route runs, gated, counted and timed:
  /// `key_of(U)` supplies the session value K, which open, the epoch-key
  /// route and the §5 extensions reach in different ways. `g` is the
  /// header generator, which FO's re-encryption check reads.
  template <class KeyOf>
  std::optional<Bytes> open_with(const BasicSealedCiphertext<B>& ct,
                                 const typename B::Gh& g, KeyOf&& key_of) const {
    health::ensure_operational();
    obs::Span span(probes().decrypt_ns);
    probes().opens.add();
    return unmask(ct, key_of, [&](const Scalar& r, const typename B::Gh& u) {
      return reencrypts(g, r, u);
    });
  }

  // --- §5.3.4 time-server change --------------------------------------------------

  /// Produces the user's public key under a new server without touching
  /// the CA: (a·G', a·s'·G'). On a type-3 backend the anchor a·G1gen is
  /// server-independent, so only the asg half actually changes.
  BasicUserPublicKey<B> rebind_user_key(const Scalar& a,
                                        const BasicServerPublicKey<B>& new_server) const {
    health::ensure_operational();
    return BasicUserPublicKey<B>{mul_anchor(new_server, a),
                                 mul_fixed_base(new_server.sg, a)};
  }

  /// Anyone can check a rebound key against the aG certified under the
  /// *old* server (no re-certification, paper §5.3.4):
  ///   (1) ê(a·G', G_old) == ê(a·G_old, G')  — same secret a (where the
  ///       anchor is a·G1gen, not a multiple of the server generator
  ///       (!kAnchorIsGh), it is the same point: an equality check);
  ///   (2) ê(a·G', s'G') == ê(G', a·s'G')    — well-formed under s'.
  bool verify_rebound_key(const typename B::Gu& certified_ag,
                          const typename B::Gh& old_generator,
                          const BasicServerPublicKey<B>& new_server,
                          const BasicUserPublicKey<B>& candidate) const {
    if (B::gu_is_infinity(candidate.ag) || B::gh_is_infinity(candidate.asg)) {
      return false;
    }
    // (1) Same secret a as in the certified key.
    if constexpr (B::kAnchorIsGh) {
      probes().pairings.add(2);
      if (!B::pairings_equal_uh(*params_, candidate.ag, old_generator, certified_ag,
                                new_server.g)) {
        return false;
      }
    } else if (!B::gu_eq(candidate.ag, certified_ag)) {
      return false;
    }
    // (2) Well-formed under the new server key.
    return verify_user_public_key(new_server, candidate);
  }

  // --- Shared internals (used by the multi-server and policy variants) ---

  /// H1 onto G_u with the scheme's domain separation, memoized per tag.
  typename B::Gu hash_tag(std::string_view tag) const {
    if (auto hit = cache_->tags.find(tag)) {
      probes().tag_hit.add();
      return *hit;
    }
    probes().tag_miss.add();
    typename B::Gu h = B::hash_tag(*params_, tre::to_bytes(tag));
    cache_->tags.insert(tag, h);
    return h;
  }

  /// Mask bytes H2(K) of a given length.
  Bytes mask_h2(const Gt& k, size_t len) const {
    return hashing::oracle_bytes("TRE-H2", B::gt_to_bytes(*params_, k), len);
  }

  /// Random-oracle hash to a nonzero scalar in Z_q (H3-style oracles).
  Scalar hash_to_scalar(std::string_view label, ByteSpan input) const {
    // Oversample by 16 bytes so the mod-q bias is negligible; map 0 -> 1.
    Bytes wide =
        hashing::oracle_bytes(label, input, B::scalar_bytes(*params_) + 16);
    auto v = bigint::BigInt<2 * field::kMaxFieldLimbs>::from_bytes_be(wide);
    Scalar r = bigint::mod_wide(v, B::group_order(*params_));
    if (r.is_zero()) r = Scalar::from_u64(1);
    return r;
  }

 private:
  static const detail::SchemeProbes<B>& probes() {
    return detail::SchemeProbes<B>::get();
  }

  static std::string point_key_gu(const typename B::Gu& p) {
    Bytes b = B::gu_to_bytes(p);
    return std::string(b.begin(), b.end());
  }
  static std::string point_key_gh(const typename B::Gh& p) {
    Bytes b = B::gh_to_bytes(p);
    return std::string(b.begin(), b.end());
  }

  // Memoized precomputation, shared by copies of the scheme (the scheme is
  // a value type; the cache is an implementation detail keyed only on
  // public data, so sharing it across copies is safe and desirable).
  // Each map is a read-mostly SnapshotCache: hits are lock-free snapshot
  // reads (no shared writes), misses publish copy-on-write under striped
  // locks. Bounded and cleared wholesale on overflow — the working sets
  // (a handful of generators, one tag per epoch, one update per epoch)
  // are tiny, so eviction policy does not matter.
  struct Cache {
    Cache()
        : tags(detail::cache_options<B>()),
          good_keys(detail::cache_options<B>()),
          combs(detail::cache_options<B>()),
          pair_bases(detail::cache_options<B>()),
          lines(detail::cache_options<B>()) {}

    SnapshotCache<typename B::Gu> tags;  // tag -> H1(T)
    SnapshotCache<char> good_keys;       // verified (server, user) keys (presence set)
    SnapshotCache<std::shared_ptr<const typename B::GhPrecomp>> combs;
    SnapshotCache<Gt> pair_bases;  // asg || tag -> ê(asG, H1(T))
    // Unused where the backend has no PairPrecomp.
    SnapshotCache<std::shared_ptr<const typename detail::LinesOf<B>::type>> lines;
  };

  /// Comb table for a long-lived generator, memoized per base; nullptr
  /// for the point at infinity.
  std::shared_ptr<const typename B::GhPrecomp> comb_for(const typename B::Gh& base) const {
    if (B::gh_is_infinity(base)) return nullptr;
    const std::string key = point_key_gh(base);
    if (auto hit = cache_->combs.find(key)) {
      probes().comb_hit.add();
      return *hit;
    }
    probes().comb_miss.add();
    auto comb = B::make_comb(*params_, base);
    cache_->combs.insert(key, comb);
    return comb;
  }

  /// base·k for secret k where base is a long-lived generator (params
  /// base, server G / sG): fixed-pattern comb walk.
  typename B::Gh mul_fixed_base(const typename B::Gh& base, const Scalar& k) const {
    if (auto comb = comb_for(base)) {
      probes().mul_comb.add();
      return comb->mul_secret(k);
    }
    probes().mul_fixed.add();
    return B::gh_mul_secret(*params_, base, k);
  }

  /// base·k for secret k where base varies call to call (a fresh server
  /// generator): constant-pattern fixed-window ladder.
  typename B::Gh mul_varying_gh(const typename B::Gh& base, const Scalar& k) const {
    // A comb table costs hundreds of additions to build; for a base seen
    // once the fixed-window ladder wins.
    probes().mul_varying.add();
    return B::gh_mul_secret(*params_, base, k);
  }

  /// Same, for the update group (H1(T), update signatures, the type-3
  /// anchor).
  typename B::Gu mul_varying_gu(const typename B::Gu& base, const Scalar& k) const {
    probes().mul_varying.add();
    return B::gu_mul_secret(*params_, base, k);
  }

  /// The user's certifiable anchor a·(anchor base). On type-1 the anchor
  /// base IS the server generator, so this shares the Gh comb cache (and
  /// its probe counts) with every other fixed-base multiply; on type-3 it
  /// is the context's G_1 generator, multiplied on the secret-scalar
  /// ladder because a is the user's long-term secret.
  typename B::Gu mul_anchor(const BasicServerPublicKey<B>& server,
                            const Scalar& a) const {
    if constexpr (B::kAnchorIsGh) {
      return mul_fixed_base(server.g, a);
    } else {
      return mul_varying_gu(B::anchor_base(*params_, server.g), a);
    }
  }

  /// verify_user_public_key with positive results memoized.
  bool checked_user_key(const BasicServerPublicKey<B>& server,
                        const BasicUserPublicKey<B>& user) const {
    Bytes sk = server.to_bytes();
    Bytes uk = user.to_bytes();
    std::string key(sk.begin(), sk.end());
    key.append(uk.begin(), uk.end());
    if (cache_->good_keys.contains(key)) {
      probes().keycheck_hit.add();
      return true;
    }
    probes().keycheck_miss.add();
    // Only successful checks are memoized: a failure must stay a failure
    // even if a good key with the same bytes is later verified (impossible,
    // but cheap to keep trivially true).
    if (!verify_user_public_key(server, user)) return false;
    cache_->good_keys.insert(key, char{1});
    return true;
  }

  /// ê(asG, H1(T)) with the result memoized per (asg, tag); the per-message
  /// encryption key is then base^r (encrypt_batch, and seal where
  /// kSessionPowInGt).
  Gt pair_base(const typename B::Gh& asg, std::string_view tag,
               const typename B::Gu& h1t) const {
    std::string key = point_key_gh(asg);  // fixed length, so asg||tag is unambiguous
    key.append(tag);
    if (auto hit = cache_->pair_bases.find(key)) {
      probes().pairbase_hit.add();
      return *hit;
    }
    probes().pairbase_miss.add();
    probes().pairings.add();
    Gt base = B::pair_session(*params_, asg, h1t);
    cache_->pair_bases.insert(key, base);
    return base;
  }

  /// ê(fixed, u) for an update signature or epoch key `fixed`, which
  /// recurs across every ciphertext of an epoch: through fixed's cached
  /// Miller lines where the backend has a line engine for it, else fresh.
  Gt pair_fixed(const typename B::Gu& fixed, const typename B::Gh& u) const {
    probes().pairings.add();
    using Lines = typename detail::LinesOf<B>::type;
    if constexpr (std::is_void_v<Lines>) {
      return B::pair_fresh(*params_, fixed, u);
    } else {
      const std::string key = point_key_gu(fixed);
      std::shared_ptr<const Lines> lines;
      if (auto hit = cache_->lines.find(key)) {
        probes().lines_hit.add();
        lines = *hit;
      } else {
        probes().lines_miss.add();
        lines = B::make_lines(*params_, fixed);
        cache_->lines.insert(key, lines);
      }
      return lines->pair(u);
    }
  }

  /// FO's re-encryption check U == H3(σ, M)·G, through the same comb
  /// table as sealing.
  bool reencrypts(const typename B::Gh& g, const Scalar& r,
                  const typename B::Gh& u) const {
    return B::gh_eq(mul_fixed_base(g, r), u);
  }

  /// Each flavour's unmask step, written once: `key_of(U)` supplies the
  /// session value K, which the open routes reach in different ways.
  /// Malformed FO/REACT bodies return nullopt before K is formed, and a
  /// REACT body whose MAC fails returns nullopt. An FO body hands
  /// r = H3(σ, M) and U to `fo_check`, the re-encryption check, and
  /// returns nullopt when it fails.
  template <class KeyOf, class FoCheck>
  std::optional<Bytes> unmask(const BasicSealedCiphertext<B>& ct, KeyOf&& key_of,
                              FoCheck&& fo_check) const {
    return std::visit(
        [&](const auto& body) -> std::optional<Bytes> {
          using T = std::decay_t<decltype(body)>;
          if constexpr (std::is_same_v<T, BasicCiphertext<B>>) {
            return xor_bytes(body.v, mask_h2(key_of(body.u), body.v.size()));
          } else if constexpr (std::is_same_v<T, BasicFoCiphertext<B>>) {
            if (body.c_sigma.size() != detail::kSigmaBytes) return std::nullopt;
            Bytes sigma =
                xor_bytes(body.c_sigma, mask_h2(key_of(body.u), detail::kSigmaBytes));
            Bytes msg = xor_bytes(
                body.c_msg, hashing::oracle_bytes("TRE-H4", sigma, body.c_msg.size()));
            if (!fo_check(hash_to_scalar("TRE-H3", concat({sigma, msg})), body.u)) {
              return std::nullopt;
            }
            return msg;
          } else {
            if (body.c_r.size() != detail::kSigmaBytes ||
                body.mac.size() != detail::kMacBytes) {
              return std::nullopt;
            }
            Bytes witness =
                xor_bytes(body.c_r, mask_h2(key_of(body.u), detail::kSigmaBytes));
            Bytes msg = xor_bytes(
                body.c_msg, hashing::oracle_bytes("TRE-G", witness, body.c_msg.size()));
            Bytes mac = hashing::oracle_bytes(
                "TRE-H5",
                concat({witness, msg, B::gh_to_bytes(body.u), body.c_r, body.c_msg}),
                detail::kMacBytes);
            if (!ct_equal(mac, body.mac)) return std::nullopt;
            return msg;
          }
        },
        ct.body);
  }

  std::shared_ptr<const typename B::Params> params_;
  std::shared_ptr<Cache> cache_;
};

}  // namespace tre::core
