// Pedersen-style (joint-Feldman) distributed key generation.
//
// Removes the trusted dealer from threshold setup: every node acts as a
// dealer of its own random degree-(k-1) polynomial f_i, broadcasts the
// Feldman commitment C_{i,m} = c_{i,m}·G to each coefficient, and sends
// f_i(j) privately to node j. Node j checks each deal against the
// dealer's commitment,
//
//   f_i(j)·G  ==  Σₘ jᵐ·C_{i,m}            (one Gh multi-exponentiation),
//
// and broadcasts a COMPLAINT against any dealer whose deal fails. A
// complained-against dealer must justify by revealing the deal; a
// justification that still fails the same public check disqualifies the
// dealer. The surviving dealers form QUAL; the shared secret is
// s = Σ_{i∈QUAL} f_i(0) (never materialized anywhere), node j's share is
// s_j = Σ_{i∈QUAL} f_i(j), and all public material — group key sG and
// share commitments s_j·G — is computable by ANYONE from the broadcast
// commitments alone. The output types are exactly the dealer-based
// BasicThresholdKey / BasicServerShare, so everything downstream
// (partials, aggregation, fetchers) is oblivious to how setup ran.
//
// |QUAL| < k aborts with Errc::kDkgComplaint: fewer honest dealers than
// the reconstruction threshold means the run cannot guarantee an
// unbiased secret.
//
// The message structs carry wire codecs (a broadcast channel is assumed
// authenticated, as usual for DKG); run_dkg() drives the rounds
// in-process — over simnet in the tests, with a tamper hook standing in
// for a Byzantine dealer's network behaviour.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "threshold/threshold.h"

namespace tre::threshold {

/// Round-1 broadcast: dealer i's Feldman commitment to its polynomial.
template <class B>
struct DkgCommitment {
  size_t dealer = 0;                     // 1..n
  std::vector<typename B::Gh> coeffs;    // C_{i,m} = c_{i,m}·G, m = 0..k-1

  Bytes to_bytes() const {
    wire::Writer w;
    w.u16(dealer).u16(coeffs.size());
    for (const typename B::Gh& c : coeffs) w.raw(B::gh_to_bytes(c));
    return w.take();
  }
  static DkgCommitment from_bytes(const typename B::Params& params, ByteSpan bytes) {
    wire::Reader r(bytes);
    DkgCommitment c;
    c.dealer = r.u16();
    size_t k = r.u16();
    c.coeffs.reserve(k);
    for (size_t m = 0; m < k; ++m) c.coeffs.push_back(core::read_gh<B>(params, r));
    require(r.finish(), "DkgCommitment: trailing bytes");
    return c;
  }
};

/// Round-2 broadcast: node `accuser` could not verify dealer `dealer`'s
/// private deal against the public commitment.
struct DkgComplaint {
  size_t accuser = 0;
  size_t dealer = 0;
};

/// The public Feldman check, usable by any observer (in particular when
/// adjudicating a complaint against a revealed deal):
/// deal·G == Σₘ recipientᵐ·C_{dealer,m}.
template <class B>
bool dkg_check_deal(const typename B::Params& params, const ThresholdConfig& config,
                    size_t recipient, const DkgCommitment<B>& commitment,
                    const Scalar& deal) {
  if (commitment.coeffs.size() != config.k) return false;
  if (recipient < 1 || recipient > config.n) return false;
  const field::FpCtx* fq = B::scalar_field(params);
  std::vector<Scalar> powers;
  powers.reserve(config.k);
  field::Fp x = field::Fp::from_u64(fq, recipient);
  field::Fp xm = field::Fp::one(fq);
  for (size_t m = 0; m < config.k; ++m) {
    powers.push_back(xm.to_int());
    xm = xm * x;
  }
  detail::ThresholdProbes<B>::get().multiexp_calls.add();
  detail::ThresholdProbes<B>::get().multiexp_points.add(config.k);
  typename B::Gh rhs = B::gh_multiexp(params, commitment.coeffs, powers, 1);
  typename B::Gh lhs = B::gh_mul_secret(params, B::header_base(params), deal);
  return B::gh_eq(lhs, rhs);
}

/// One DKG participant: holds its own secret polynomial plus the deals
/// and commitments accepted from other dealers.
template <class B>
class DkgNode {
 public:
  DkgNode(std::shared_ptr<const typename B::Params> params, ThresholdConfig config,
          size_t index, tre::hashing::RandomSource& rng)
      : params_(std::move(params)), config_(config), index_(index) {
    health::ensure_operational();
    require(params_ != nullptr, "dkg: null params");
    require(config.k >= 1 && config.k <= config.n, "dkg: need 1 <= k <= n");
    require(index >= 1 && index <= config.n, "dkg: node index out of range");
    const typename B::Params& p = *params_;
    coeffs_.reserve(config.k);
    commitment_.dealer = index;
    commitment_.coeffs.reserve(config.k);
    for (size_t m = 0; m < config.k; ++m) {
      coeffs_.push_back(B::random_scalar(p, rng));
      commitment_.coeffs.push_back(
          B::gh_mul_secret(p, B::header_base(p), coeffs_[m]));
    }
    received_deals_.assign(config.n + 1, Scalar{});
    have_deal_.assign(config.n + 1, false);
  }

  size_t index() const { return index_; }
  const DkgCommitment<B>& commitment() const { return commitment_; }

  /// The private deal f_i(recipient) this node sends as a dealer.
  Scalar deal_for(size_t recipient) const {
    require(recipient >= 1 && recipient <= config_.n,
            "dkg: deal recipient out of range");
    return detail::horner_eval(B::scalar_field(*params_), coeffs_, recipient)
        .to_int();
  }

  /// Ingests dealer's commitment + the deal addressed to THIS node.
  /// Returns false — i.e. "file a complaint" — when the Feldman check
  /// fails; a later justified deal may be re-submitted through here.
  bool receive(const DkgCommitment<B>& commitment, const Scalar& deal) {
    if (commitment.dealer < 1 || commitment.dealer > config_.n) return false;
    if (!dkg_check_deal<B>(*params_, config_, index_, commitment, deal)) {
      return false;
    }
    received_deals_[commitment.dealer] = deal;
    have_deal_[commitment.dealer] = true;
    return true;
  }

  /// Round 3: this node's share of the group secret, s_j = Σ_{i∈QUAL} f_i(j).
  /// (A node deals to itself too, so its own index may appear in `qual`.)
  BasicServerShare<B> finalize(std::span<const size_t> qual) const {
    const field::FpCtx* fq = B::scalar_field(*params_);
    field::Fp acc = field::Fp::zero(fq);
    for (size_t dealer : qual) {
      require(dealer >= 1 && dealer <= config_.n && have_deal_[dealer],
              "dkg: finalize over a dealer with no accepted deal");
      acc = acc + field::Fp::from_int(fq, received_deals_[dealer]);
    }
    return BasicServerShare<B>{index_, acc.to_int()};
  }

 private:
  std::shared_ptr<const typename B::Params> params_;
  ThresholdConfig config_;
  size_t index_;
  std::vector<Scalar> coeffs_;        // this node's f_i
  DkgCommitment<B> commitment_;       // C_{i,m} = c_{i,m}·G
  std::vector<Scalar> received_deals_;  // index = dealer, 1-based
  std::vector<bool> have_deal_;
};

/// Derives ALL public threshold material from the qualified dealers'
/// broadcast commitments — no secret input: group key
/// sG = Σ_{i∈QUAL} C_{i,0}, share commitment
/// s_j·G = Σ_{i∈QUAL} Σₘ jᵐ·C_{i,m} (one Gh multi-exp per node).
template <class B>
BasicThresholdKey<B> dkg_public_key(const typename B::Params& params,
                                    ThresholdConfig config,
                                    std::span<const DkgCommitment<B>> qual_commitments) {
  require(!qual_commitments.empty(), "dkg: empty qualified set");
  const field::FpCtx* fq = B::scalar_field(params);
  const Scalar one = field::Fp::one(fq).to_int();

  BasicThresholdKey<B> key;
  key.config = config;
  key.group.g = B::header_base(params);

  std::vector<typename B::Gh> constant_terms;
  constant_terms.reserve(qual_commitments.size());
  std::vector<Scalar> ones(qual_commitments.size(), one);
  for (const DkgCommitment<B>& c : qual_commitments) {
    require(c.coeffs.size() == config.k, "dkg: commitment degree mismatch");
    constant_terms.push_back(c.coeffs[0]);
  }
  key.group.sg = B::gh_multiexp(params, constant_terms, ones, 1);

  std::vector<typename B::Gh> all_coeffs;
  all_coeffs.reserve(qual_commitments.size() * config.k);
  for (const DkgCommitment<B>& c : qual_commitments) {
    all_coeffs.insert(all_coeffs.end(), c.coeffs.begin(), c.coeffs.end());
  }
  key.pub_shares.reserve(config.n);
  for (size_t j = 1; j <= config.n; ++j) {
    std::vector<Scalar> scalars;
    scalars.reserve(all_coeffs.size());
    field::Fp x = field::Fp::from_u64(fq, j);
    for (size_t i = 0; i < qual_commitments.size(); ++i) {
      field::Fp xm = field::Fp::one(fq);
      for (size_t m = 0; m < config.k; ++m) {
        scalars.push_back(xm.to_int());
        xm = xm * x;
      }
    }
    detail::ThresholdProbes<B>::get().multiexp_calls.add();
    detail::ThresholdProbes<B>::get().multiexp_points.add(all_coeffs.size());
    key.pub_shares.push_back(B::gh_multiexp(params, all_coeffs, scalars, 1));
  }
  return key;
}

/// Everything a completed run produces. `complaints` lists the UPHELD
/// complaints (the disqualifying ones) for caller-side attribution.
template <class B>
struct DkgResult {
  BasicThresholdKey<B> key;
  std::vector<BasicServerShare<B>> shares;  // one per node, index order
  std::vector<size_t> qualified;            // QUAL, ascending dealer indices
  std::vector<DkgComplaint> complaints;     // upheld only
};

/// Test/fault hook: mutate dealer→recipient deal values in flight.
/// Called for the round-1 private send (`justification` false) and again
/// for the dealer's public justification after a complaint
/// (`justification` true) — a dealer that is Byzantine rather than
/// merely unlucky corrupts both, and is disqualified.
using DkgTamper =
    std::function<void(size_t dealer, size_t recipient, bool justification,
                       Scalar& value)>;

/// Drives a full joint-Feldman run in-process: commitments, private
/// deals, complaint round, justifications, finalization. Aborts with
/// Errc::kDkgComplaint when fewer than k dealers survive.
template <class B>
Result<DkgResult<B>> run_dkg(std::shared_ptr<const typename B::Params> params,
                             ThresholdConfig config,
                             tre::hashing::RandomSource& rng,
                             const DkgTamper& tamper = nullptr) {
  require(params != nullptr, "dkg: null params");
  require(config.k >= 1 && config.k <= config.n, "dkg: need 1 <= k <= n");
  require(config.n <= BasicThresholdScheme<B>::kMaxNodes, "dkg: too many nodes");
  detail::ThresholdProbes<B>::get().dkg_runs.add();

  std::vector<DkgNode<B>> nodes;
  nodes.reserve(config.n);
  for (size_t i = 1; i <= config.n; ++i) {
    nodes.emplace_back(params, config, i, rng);
  }

  // Rounds 1+2: every dealer sends f_i(j) to every node; Feldman
  // failures become complaints.
  std::vector<DkgComplaint> pending;
  for (size_t i = 1; i <= config.n; ++i) {
    for (size_t j = 1; j <= config.n; ++j) {
      Scalar deal = nodes[i - 1].deal_for(j);
      if (tamper) tamper(i, j, /*justification=*/false, deal);
      if (!nodes[j - 1].receive(nodes[i - 1].commitment(), deal)) {
        pending.push_back(DkgComplaint{j, i});
      }
    }
  }

  // Justification round: a complained-against dealer reveals the deal
  // publicly; everyone re-runs the same check. A still-failing reveal
  // disqualifies the dealer; a passing one is adopted by the accuser.
  std::vector<bool> disqualified(config.n + 1, false);
  std::vector<DkgComplaint> upheld;
  for (const DkgComplaint& c : pending) {
    if (disqualified[c.dealer]) continue;
    Scalar revealed = nodes[c.dealer - 1].deal_for(c.accuser);
    if (tamper) tamper(c.dealer, c.accuser, /*justification=*/true, revealed);
    if (dkg_check_deal<B>(*params, config, c.accuser,
                          nodes[c.dealer - 1].commitment(), revealed)) {
      bool ok = nodes[c.accuser - 1].receive(nodes[c.dealer - 1].commitment(),
                                             revealed);
      require(ok, "dkg: adjudicated deal rejected by accuser");
    } else {
      disqualified[c.dealer] = true;
      upheld.push_back(c);
      detail::ThresholdProbes<B>::get().dkg_complaints.add();
    }
  }

  DkgResult<B> out;
  out.complaints = std::move(upheld);
  for (size_t i = 1; i <= config.n; ++i) {
    if (!disqualified[i]) out.qualified.push_back(i);
  }
  if (out.qualified.size() < config.k) return Errc::kDkgComplaint;

  std::vector<DkgCommitment<B>> qual_commitments;
  qual_commitments.reserve(out.qualified.size());
  for (size_t i : out.qualified) {
    qual_commitments.push_back(nodes[i - 1].commitment());
  }
  out.key = dkg_public_key<B>(*params, config, qual_commitments);
  out.shares.reserve(config.n);
  for (size_t j = 1; j <= config.n; ++j) {
    out.shares.push_back(nodes[j - 1].finalize(out.qualified));
  }
  return out;
}

}  // namespace tre::threshold
