// Backend-generic k-of-n threshold time server.
//
// §5.3.5 distributes trust so that a receiver must corrupt ALL N servers
// — but decryption then also needs all N updates, so one crashed server
// halts every release. This layer provides the complementary k-of-n
// design (the architecture later deployed by drand/tlock): a master
// secret s is Shamir-shared across n beacon nodes; each publishes a
// PARTIAL update s_i·H1(T); any k valid partials Lagrange-combine into
// the ordinary update s·H1(T).
//
// The combined update verifies against the ordinary group key (G, sG),
// so everything else in the library — encryption, CCA transforms, key
// insulation, archives — runs unchanged on top. Corruption resistance is
// k-1 nodes; liveness tolerates n-k failures.
//
// One BasicThresholdScheme<B> is instantiated over the same
// PairingBackend policies as the generic TRE core, on tre-512 and on
// BLS12-381 alike. Artifact placement follows the core scheme:
// share commitments s_i·G live in the header group Gh (next to sG),
// partial updates s_i·H1(T) in the update group Gu.
//
// Setup comes in two flavours:
//   * dealer setup here (a trusted dealer samples the polynomial and
//     then forgets it) — the honest baseline tests and benches use;
//   * Pedersen-style distributed key generation (threshold/dkg.h),
//     which removes the dealer without changing any type below.
//
// The Lagrange combination Σᵢ λᵢ·sigᵢ IS a multi-exponentiation, so
// combining routes through B::gu_multiexp (bucketed Pippenger, signed
// digits when they win); batch verification of n partials folds into
// ONE size-2 pairing equation by random linear combination, with
// bisection attribution of the Byzantine subset — the same machinery
// the core scheme uses for verify_updates_batch.
#pragma once

#include <algorithm>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/health.h"
#include "core/tre_core.h"
#include "core/wipe.h"

namespace tre::threshold {

using core::Scalar;

struct ThresholdConfig {
  size_t n;  // beacon nodes
  size_t k;  // required partials, 1 <= k <= n
};

/// One node's secret share s_i = f(i).
template <class B>
struct BasicServerShare {
  size_t index = 0;  // 1..n (the Shamir evaluation point)
  Scalar share;

  /// SECRET wire format: u16 index || fixed-width big-endian scalar.
  /// For key files only — never goes over the network.
  Bytes to_bytes(const typename B::Params& params) const {
    Bytes out;
    core::detail::put_u16(out, index);
    Bytes s = share.to_bytes_be(B::scalar_bytes(params));
    out.insert(out.end(), s.begin(), s.end());
    return out;
  }
  static BasicServerShare from_bytes(const typename B::Params& params,
                                     ByteSpan bytes) {
    size_t off = 0;
    size_t index = core::detail::get_u16(bytes, off);
    Bytes s = core::detail::get_exact(bytes, off, B::scalar_bytes(params),
                                      "ServerShare: truncated scalar");
    core::detail::expect_consumed(bytes, off, "ServerShare: trailing bytes");
    return BasicServerShare{index, Scalar::from_bytes_be(s)};
  }
};

/// Public material: the group key users bind to, plus per-node share
/// commitments for partial-update verification.
template <class B>
struct BasicThresholdKey {
  ThresholdConfig config{0, 0};
  core::BasicServerPublicKey<B> group;       // (G, s·G)
  std::vector<typename B::Gh> pub_shares;    // s_i·G, index i-1

  /// The group key IS an ordinary server public key: everything built on
  /// the basic scheme (encrypt, archives, fetchers) binds to this.
  core::BasicServerPublicKey<B> as_server_public_key() const { return group; }

  /// Wire format: u16 n || u16 k || group (G, s·G) || n share
  /// commitments — all points fixed-width compressed.
  Bytes to_bytes() const {
    Bytes out;
    core::detail::put_u16(out, config.n);
    core::detail::put_u16(out, config.k);
    Bytes g = group.to_bytes();
    out.insert(out.end(), g.begin(), g.end());
    for (const typename B::Gh& ps : pub_shares) {
      Bytes w = B::gh_to_bytes(ps);
      out.insert(out.end(), w.begin(), w.end());
    }
    return out;
  }
  static BasicThresholdKey from_bytes(const typename B::Params& params,
                                      ByteSpan bytes) {
    size_t off = 0;
    BasicThresholdKey key;
    key.config.n = core::detail::get_u16(bytes, off);
    key.config.k = core::detail::get_u16(bytes, off);
    require(key.config.k >= 1 && key.config.k <= key.config.n,
            "ThresholdKey: need 1 <= k <= n");
    key.group.g = core::detail::get_gh<B>(params, bytes, off);
    key.group.sg = core::detail::get_gh<B>(params, bytes, off);
    key.pub_shares.reserve(key.config.n);
    for (size_t i = 0; i < key.config.n; ++i) {
      key.pub_shares.push_back(core::detail::get_gh<B>(params, bytes, off));
    }
    core::detail::expect_consumed(bytes, off, "ThresholdKey: trailing bytes");
    return key;
  }
};

/// s_i·H1(T), broadcast by node i at instant T.
template <class B>
struct BasicPartialUpdate {
  size_t index = 0;
  std::string tag;
  typename B::Gu sig;

  /// Wire format: u16 index || u16 tag length || tag || compressed point
  /// — the payload a beacon node serves and a threshold fetcher collects.
  Bytes to_bytes() const {
    Bytes out;
    core::detail::put_u16(out, index);
    core::detail::put_u16(out, tag.size());
    Bytes tag_bytes = tre::to_bytes(tag);
    out.insert(out.end(), tag_bytes.begin(), tag_bytes.end());
    Bytes sig_bytes = B::gu_to_bytes(sig);
    out.insert(out.end(), sig_bytes.begin(), sig_bytes.end());
    return out;
  }
  static BasicPartialUpdate from_bytes(const typename B::Params& params,
                                       ByteSpan bytes) {
    size_t off = 0;
    size_t index = core::detail::get_u16(bytes, off);
    size_t tag_len = core::detail::get_u16(bytes, off);
    Bytes tag_bytes =
        core::detail::get_exact(bytes, off, tag_len, "PartialUpdate: truncated tag");
    typename B::Gu sig = core::detail::get_gu<B>(params, bytes, off);
    core::detail::expect_consumed(bytes, off, "PartialUpdate: trailing bytes");
    return BasicPartialUpdate{index,
                              std::string(tag_bytes.begin(), tag_bytes.end()), sig};
  }

  /// Non-throwing parse for bytes from UNTRUSTED sources (mirrors, the
  /// wire): nullopt on any malformed/truncated/off-curve input. A
  /// returned partial is well-formed but NOT authenticated — callers
  /// must still pass it through verify_partial / verify_partials_batch.
  static std::optional<BasicPartialUpdate> try_from_bytes(
      const typename B::Params& params, ByteSpan bytes) {
    try {
      return from_bytes(params, bytes);
    } catch (const Error&) {
      return std::nullopt;
    }
  }

  friend bool operator==(const BasicPartialUpdate& a, const BasicPartialUpdate& b) {
    return a.index == b.index && a.tag == b.tag && B::gu_eq(a.sig, b.sig);
  }
};

namespace detail {

/// Threshold-layer probe handles, resolved once per process per backend,
/// under "<prefix>threshold.*" (docs/OBSERVABILITY.md).
template <class B>
struct ThresholdProbes {
  static std::string n(const char* suffix) {
    return std::string(B::kProbePrefix) + "threshold." + suffix;
  }

  obs::CounterProbe setups{n("setups")};
  obs::CounterProbe partials_issued{n("partials.issued")};
  obs::CounterProbe partials_verified{n("partials.verified")};
  obs::CounterProbe partials_rejected{n("partials.rejected")};
  obs::CounterProbe combines{n("combines")};
  obs::CounterProbe batch_bisections{n("batch.bisections")};
  obs::CounterProbe multiexp_calls{n("multiexp.calls")};
  obs::CounterProbe multiexp_points{n("multiexp.points")};
  obs::CounterProbe dkg_runs{n("dkg.runs")};
  obs::CounterProbe dkg_complaints{n("dkg.complaints")};
  obs::HistogramProbe combine_ns{n("combine_ns")};
  obs::HistogramProbe batch_verify_ns{n("batch_verify_ns")};

  static const ThresholdProbes& get() {
    static const ThresholdProbes p;
    return p;
  }
};

/// Evaluates f(x) = Σₘ coeffs[m]·xᵐ at x = point by Horner, over the
/// backend's scalar field.
inline field::Fp horner_eval(const field::FpCtx* fq,
                             std::span<const Scalar> coeffs, size_t point) {
  field::Fp x = field::Fp::from_u64(fq, point);
  field::Fp acc = field::Fp::from_int(fq, coeffs.back());
  for (size_t m = coeffs.size() - 1; m-- > 0;) {
    acc = acc * x + field::Fp::from_int(fq, coeffs[m]);
  }
  return acc;
}

}  // namespace detail

/// Lagrange coefficients at zero for the evaluation points `indices`
/// (distinct, 1-based): λᵢ = Πⱼ≠ᵢ xⱼ·(xⱼ - xᵢ)⁻¹ mod q. Exposed for the
/// benches and for anyone combining in the exponent by hand.
template <class B>
std::vector<Scalar> lagrange_at_zero(const typename B::Params& params,
                                     std::span<const size_t> indices) {
  const field::FpCtx* fq = B::scalar_field(params);
  std::vector<Scalar> out;
  out.reserve(indices.size());
  for (size_t i = 0; i < indices.size(); ++i) {
    field::Fp num = field::Fp::one(fq);
    field::Fp den = field::Fp::one(fq);
    field::Fp xi = field::Fp::from_u64(fq, indices[i]);
    for (size_t j = 0; j < indices.size(); ++j) {
      if (j == i) continue;
      field::Fp xj = field::Fp::from_u64(fq, indices[j]);
      num = num * xj;
      den = den * (xj - xi);
    }
    out.push_back((num * den.inverse()).to_int());
  }
  return out;
}

/// The backend-generic threshold scheme. Wraps a BasicTreScheme (for the
/// cached H1 and the pairing plumbing) and adds share issuance,
/// partial-update verification (single, and RLC-batched with Byzantine
/// attribution) and Lagrange aggregation.
template <class B>
class BasicThresholdScheme {
 public:
  using Backend = B;

  explicit BasicThresholdScheme(std::shared_ptr<const typename B::Params> params)
      : scheme_(std::move(params)) {}

  const typename B::Params& params() const { return scheme_.params(); }
  const core::BasicTreScheme<B>& scheme() const { return scheme_; }

  /// Dealer setup: samples s and a degree-(k-1) polynomial, returns the
  /// public key material and the n secret shares. The group generator is
  /// the backend's fixed header base (the drand layout); a DKG
  /// (threshold/dkg.h) produces the same types without the dealer.
  std::pair<BasicThresholdKey<B>, std::vector<BasicServerShare<B>>> setup(
      ThresholdConfig config, tre::hashing::RandomSource& rng) const {
    health::ensure_operational();
    require(config.k >= 1 && config.k <= config.n, "threshold: need 1 <= k <= n");
    require(config.n <= kMaxNodes, "threshold: too many nodes");
    probes().setups.add();
    const typename B::Params& p = params();
    const field::FpCtx* fq = B::scalar_field(p);

    // f(x) = s + c_1 x + ... + c_{k-1} x^{k-1}, coefficients mod q.
    std::vector<Scalar> coeffs;
    coeffs.reserve(config.k);
    for (size_t m = 0; m < config.k; ++m) coeffs.push_back(B::random_scalar(p, rng));

    BasicThresholdKey<B> key;
    key.config = config;
    key.group.g = B::header_base(p);
    key.group.sg = B::gh_mul_secret(p, key.group.g, coeffs[0]);

    std::vector<BasicServerShare<B>> shares;
    shares.reserve(config.n);
    key.pub_shares.reserve(config.n);
    for (size_t i = 1; i <= config.n; ++i) {
      Scalar si = detail::horner_eval(fq, coeffs, i).to_int();
      key.pub_shares.push_back(B::gh_mul_secret(p, key.group.g, si));
      shares.push_back(BasicServerShare<B>{i, si});
    }
    for (Scalar& c : coeffs) core::wipe(c);  // the dealer forgets f
    return {std::move(key), std::move(shares)};
  }

  BasicPartialUpdate<B> issue_partial(const BasicServerShare<B>& share,
                                      std::string_view tag) const {
    health::ensure_operational();
    require(share.index >= 1, "threshold: share index must be >= 1");
    probes().partials_issued.add();
    return BasicPartialUpdate<B>{
        share.index, std::string(tag),
        B::gu_mul_secret(params(), scheme_.hash_tag(tag), share.share)};
  }

  /// BLS check of one partial against its share commitment:
  /// ê(s_i·G, H1(T)) == ê(G, sig).
  bool verify_partial(const BasicThresholdKey<B>& key,
                      const BasicPartialUpdate<B>& partial) const {
    if (partial.index < 1 || partial.index > key.pub_shares.size()) return false;
    if (B::gu_is_infinity(partial.sig)) return false;
    probes().partials_verified.add();
    pairings_probe().add(2);
    return B::pairings_equal_hu(params(), key.pub_shares[partial.index - 1],
                                scheme_.hash_tag(partial.tag), key.group.g,
                                partial.sig);
  }

  /// Randomized batch verification with Byzantine ATTRIBUTION: folds N
  /// partial checks into one size-2 pairing equation,
  ///
  ///   ê(Σᵢ cᵢ·(s_i·G), H1(T)) == ê(G, Σᵢ cᵢ·sigᵢ),
  ///
  /// with fresh cᵢ ∈ [0, 2^rlc_bits); on failure, bisects to the exact
  /// guilty subset (each leaf re-checked individually, so an honest
  /// partial is never blamed). Returns the sorted positions (into
  /// `partials`) that fail; empty means all accepted. Partials must
  /// share one tag — mismatched tags and out-of-range indices are
  /// reported as bad without touching the pairing.
  std::vector<size_t> verify_partials_batch(const BasicThresholdKey<B>& key,
                                            std::span<const BasicPartialUpdate<B>> partials,
                                            tre::hashing::RandomSource& rng,
                                            unsigned rlc_bits = 128,
                                            unsigned threads = 0) const {
    std::vector<size_t> bad;
    if (partials.empty()) return bad;
    obs::Span span(probes().batch_verify_ns);
    require(rlc_bits >= 1 && rlc_bits <= 256, "threshold: rlc_bits out of range");

    const typename B::Params& p = params();
    const std::string& tag = partials[0].tag;
    std::vector<size_t> live;  // structurally sound, subject to the RLC check
    live.reserve(partials.size());
    for (size_t i = 0; i < partials.size(); ++i) {
      const BasicPartialUpdate<B>& pu = partials[i];
      if (pu.tag != tag || pu.index < 1 || pu.index > key.pub_shares.size() ||
          B::gu_is_infinity(pu.sig)) {
        bad.push_back(i);
      } else {
        live.push_back(i);
      }
    }
    if (live.empty()) {
      probes().partials_rejected.add(bad.size());
      return bad;
    }

    const typename B::Gu h1t = scheme_.hash_tag(tag);
    // One RLC equation over live[lo, hi): two multi-exps + one size-2
    // pairing check.
    auto holds = [&](size_t lo, size_t hi, std::span<const Scalar> c) {
      const size_t n = hi - lo;
      std::vector<typename B::Gh> commits;
      std::vector<typename B::Gu> sigs;
      commits.reserve(n);
      sigs.reserve(n);
      for (size_t k = 0; k < n; ++k) {
        const BasicPartialUpdate<B>& pu = partials[live[lo + k]];
        commits.push_back(key.pub_shares[pu.index - 1]);
        sigs.push_back(pu.sig);
      }
      probes().multiexp_calls.add(2);
      probes().multiexp_points.add(2 * n);
      typename B::Gh folded_commit = B::gh_multiexp(p, commits, c, threads);
      typename B::Gu folded_sig = B::gu_multiexp(p, sigs, c, threads);
      pairings_probe().add(2);
      return B::pairings_equal_hu(p, folded_commit, h1t, key.group.g, folded_sig);
    };
    core::detail::rlc_bisect(live.size(), rng, rlc_bits, probes().batch_bisections, holds,
                             [&](size_t k) {
                               if (!verify_partial(key, partials[live[k]])) {
                                 bad.push_back(live[k]);
                               }
                             });

    std::sort(bad.begin(), bad.end());
    probes().partials_rejected.add(bad.size());
    return bad;
  }

  /// Lagrange-combines >= k partials (distinct indices, same tag) into
  /// the ordinary s·H1(T) update — one Gu multi-exponentiation with the
  /// λᵢ as scalars. Throws on malformed input sets; the caller should
  /// verify first (an unverified bad partial yields an update that fails
  /// verify_update()).
  core::BasicKeyUpdate<B> combine(const BasicThresholdKey<B>& key,
                                  std::span<const BasicPartialUpdate<B>> partials,
                                  unsigned threads = 0) const {
    require(partials.size() >= key.config.k,
            "threshold: not enough partial updates");
    obs::Span span(probes().combine_ns);

    // First k distinct, in-range, same-tag partials.
    std::vector<size_t> indices;
    std::vector<typename B::Gu> sigs;
    indices.reserve(key.config.k);
    sigs.reserve(key.config.k);
    for (const BasicPartialUpdate<B>& pu : partials) {
      if (indices.size() == key.config.k) break;
      require(pu.tag == partials[0].tag, "threshold: mixed tags in combine");
      require(pu.index >= 1 && pu.index <= key.config.n,
              "threshold: partial index out of range");
      require(std::find(indices.begin(), indices.end(), pu.index) == indices.end(),
              "threshold: duplicate partial index");
      indices.push_back(pu.index);
      sigs.push_back(pu.sig);
    }
    require(indices.size() == key.config.k, "threshold: not enough partial updates");

    std::vector<Scalar> lambdas = lagrange_at_zero<B>(params(), indices);
    probes().combines.add();
    probes().multiexp_calls.add();
    probes().multiexp_points.add(sigs.size());
    return core::BasicKeyUpdate<B>{
        partials[0].tag, B::gu_multiexp(params(), sigs, lambdas, threads)};
  }

  /// Verify-then-combine with typed errors: batch-verifies `partials`,
  /// drops the Byzantine subset, and combines k good ones. Returns
  /// Errc::kInsufficientPartials when fewer than k distinct valid
  /// partials survive; the aggregated update additionally passes a
  /// sanity verify_update against the group key (belt and braces — a
  /// combination of verified partials cannot fail it). `bad_out`, when
  /// non-null, receives the sorted positions of rejected partials for
  /// caller-side attribution.
  Result<core::BasicKeyUpdate<B>> try_combine(
      const BasicThresholdKey<B>& key,
      std::span<const BasicPartialUpdate<B>> partials,
      tre::hashing::RandomSource& rng, std::vector<size_t>* bad_out = nullptr,
      unsigned rlc_bits = 128, unsigned threads = 0) const {
    std::vector<size_t> bad = verify_partials_batch(key, partials, rng, rlc_bits, threads);
    if (bad_out != nullptr) *bad_out = bad;

    std::vector<BasicPartialUpdate<B>> good;
    std::vector<size_t> seen;
    good.reserve(partials.size());
    {
      size_t b = 0;
      for (size_t i = 0; i < partials.size(); ++i) {
        if (b < bad.size() && bad[b] == i) {
          ++b;
          continue;
        }
        if (std::find(seen.begin(), seen.end(), partials[i].index) != seen.end()) {
          continue;  // duplicate honest index: keep the first
        }
        seen.push_back(partials[i].index);
        good.push_back(partials[i]);
      }
    }
    if (good.size() < key.config.k) return Errc::kInsufficientPartials;

    core::BasicKeyUpdate<B> update = combine(key, good, threads);
    if (!scheme_.verify_update(key.group, update)) return Errc::kBadPartial;
    return update;
  }

  /// Recovers the master secret from >= k shares — a test/escrow utility
  /// (a production deployment never reassembles s).
  Scalar recover_secret(const BasicThresholdKey<B>& key,
                        std::span<const BasicServerShare<B>> shares) const {
    require(shares.size() >= key.config.k, "threshold: not enough shares");
    const field::FpCtx* fq = B::scalar_field(params());
    std::vector<size_t> indices;
    indices.reserve(key.config.k);
    for (size_t i = 0; i < key.config.k; ++i) {
      require(shares[i].index >= 1 && shares[i].index <= key.config.n,
              "threshold: share index out of range");
      require(std::find(indices.begin(), indices.end(), shares[i].index) ==
                  indices.end(),
              "threshold: duplicate share index");
      indices.push_back(shares[i].index);
    }
    std::vector<Scalar> lambdas = lagrange_at_zero<B>(params(), indices);
    field::Fp acc = field::Fp::zero(fq);
    for (size_t i = 0; i < key.config.k; ++i) {
      acc = acc + field::Fp::from_int(fq, shares[i].share) *
                      field::Fp::from_int(fq, lambdas[i]);
    }
    return acc.to_int();
  }

  /// Wire-format bound on n (u16 index field; far above any real beacon).
  static constexpr size_t kMaxNodes = 4096;

 private:
  static const detail::ThresholdProbes<B>& probes() {
    return detail::ThresholdProbes<B>::get();
  }
  // Pairings have no threshold-local name: they ride the core scheme's
  // counter so OBSERVABILITY's pairing totals stay whole-process truthful.
  static const obs::CounterProbe& pairings_probe() {
    return core::detail::SchemeProbes<B>::get().pairings;
  }

  core::BasicTreScheme<B> scheme_;
};

/// Best-effort scrubbing of threshold secret/key material (same caveats
/// as core/wipe.h).
template <class B>
void wipe(BasicServerShare<B>& share) {
  core::wipe(share.share);
  share.index = 0;
}

template <class B>
void wipe(BasicThresholdKey<B>& key) {
  key.group = core::BasicServerPublicKey<B>{};
  for (typename B::Gh& p : key.pub_shares) p = typename B::Gh{};
  key.pub_shares.clear();
  key.config = ThresholdConfig{0, 0};
}

}  // namespace tre::threshold
