#include "pairing/pairing.h"

namespace tre::pairing {

using ec::CurveCtx;
using ec::G1Point;
using field::Fp;
using field::Fp2;
using field::FpInt;

namespace {

MillerValue neutral(const field::FpCtx* fp) {
  return MillerValue{Fp2::one(fp), Fp2::one(fp)};
}

// Evaluation point φ(Q) split into its precomputed pieces.
struct DistortedQ {
  Fp2 x;  // ζ·x_Q ∈ F_p2
  Fp y;   // y_Q ∈ F_p
};

}  // namespace

Gt gt_identity(const CurveCtx* curve) { return Fp2::one(curve->fp.get()); }

// ---------------------------------------------------------------------------
// Jacobian (inversion-free) Miller loop.
//
// V = (X : Y : Z), x_V = X/Z^2, y_V = Y/Z^3. Every line/vertical value is
// multiplied through by its F_p* denominator, which the final
// exponentiation annihilates.
//
// The loop is factored into per-pair doubling/addition steps driven by a
// shared accumulator: miller_loop_multi squares f once per bit of q and
// folds every pair's line values into it, so a product of n pairings costs
// one set of accumulator squarings instead of n (pair_product,
// pairings_equal, and the multi-server/threshold paths all hit this).

namespace {

// Per-pair Miller state: the evaluation point pieces and the running V.
struct PairMillerState {
  DistortedQ dq;
  Fp xp, yp;  // P affine
  Fp X, Y, Z;
  bool v_infinity = false;
};

void miller_double_step(PairMillerState& st, Fp2& f_num, Fp2& f_den,
                        [[maybe_unused]] const field::FpCtx* fp) {
  if (st.v_infinity) return;
  if (st.Y.is_zero()) {
    // 2-torsion: tangent is the vertical x - x_V, scaled by Z^2.
    f_num = f_num * (st.dq.x.scale(st.Z.squared()) - Fp2::from_fp(st.X));
    st.v_infinity = true;
    return;
  }
  // Doubling with tangent-line evaluation (a = 0 curve).
  Fp A = st.X.squared();         // X^2
  Fp B = st.Y.squared();         // Y^2
  Fp C = B.squared();            // Y^4
  Fp Z2 = st.Z.squared();
  Fp D = (st.X + B).squared() - A - C;
  D = D + D;                     // 4XY^2
  Fp E = A + A + A;              // 3X^2
  Fp X3 = E.squared() - (D + D);
  Fp C8 = C + C;
  C8 = C8 + C8;
  C8 = C8 + C8;                  // 8Y^4
  Fp Y3 = E * (D - X3) - C8;
  Fp Z3 = (st.Y * st.Z).doubled();  // 2YZ

  // Tangent at V evaluated at (x, y), cleared by 2YZ^3:
  //   L = Z3·Z2·y − 2B + 3A·X − (3A·Z2)·x
  Fp scalar_part = Z3 * Z2 * st.dq.y - (B + B) + E * st.X;
  Fp2 line = Fp2::from_fp(scalar_part) - st.dq.x.scale(E * Z2);
  f_num = f_num * line;

  st.X = X3;
  st.Y = Y3;
  st.Z = Z3;
  if (st.Z.is_zero()) {
    st.v_infinity = true;  // doubled into infinity (adversarial input)
  } else {
    // Vertical at 2V, cleared by Z3^2: Z3^2·x − X3.
    f_den = f_den * (st.dq.x.scale(st.Z.squared()) - Fp2::from_fp(st.X));
  }
}

void miller_add_step(PairMillerState& st, Fp2& f_num, Fp2& f_den,
                     const field::FpCtx* fp) {
  if (st.v_infinity) return;
  // Mixed addition V + P with line evaluation.
  Fp Z2 = st.Z.squared();
  Fp U2 = st.xp * Z2;          // x_P lifted
  Fp S2 = st.yp * Z2 * st.Z;   // y_P lifted
  if (U2 == st.X) {
    if (S2 == st.Y) {
      // V == P (only reachable on adversarial low-order inputs):
      // fall back to the affine tangent — inversions are fine on
      // this cold path.
      Fp xv = st.X * Z2.inverse();
      Fp yv = st.Y * (Z2 * st.Z).inverse();
      Fp lambda =
          (xv.squared() + xv.squared() + xv.squared()) * (yv + yv).inverse();
      Fp2 line = (Fp2::from_fp(st.dq.y) - Fp2::from_fp(yv)) -
                 (st.dq.x - Fp2::from_fp(xv)).scale(lambda);
      f_num = f_num * line;
      Fp x_new = lambda.squared() - xv - xv;
      Fp y_new = lambda * (xv - x_new) - yv;
      st.X = x_new;
      st.Y = y_new;
      st.Z = Fp::one(fp);
      f_den = f_den * (st.dq.x - Fp2::from_fp(st.X));
    } else {
      // V == -P: vertical through P; V + P = O. The final addition.
      f_num = f_num * (st.dq.x - Fp2::from_fp(st.xp));
      st.v_infinity = true;
    }
  } else {
    Fp H = U2 - st.X;
    Fp RR = S2 - st.Y;
    Fp H2 = H.squared();
    Fp H3 = H2 * H;
    Fp XH2 = st.X * H2;
    Fp X3 = RR.squared() - H3 - (XH2 + XH2);
    Fp Y3 = RR * (XH2 - X3) - st.Y * H3;
    Fp Z3 = st.Z * H;

    // Line through V and P evaluated at (x, y), cleared by Z3:
    //   L = Z3·(y − y_P) − RR·(x − x_P)
    Fp scalar_part = Z3 * (st.dq.y - st.yp) + RR * st.xp;
    Fp2 line = Fp2::from_fp(scalar_part) - st.dq.x.scale(RR);
    f_num = f_num * line;

    st.X = X3;
    st.Y = Y3;
    st.Z = Z3;
    if (st.Z.is_zero()) {
      st.v_infinity = true;
    } else {
      f_den = f_den * (st.dq.x.scale(st.Z.squared()) - Fp2::from_fp(st.X));
    }
  }
}

}  // namespace

MillerValue miller_loop_multi(std::span<const std::pair<G1Point, G1Point>> pairs) {
  require(!pairs.empty(), "miller_loop_multi: empty input");
  const CurveCtx* curve = pairs.front().first.curve();
  require(curve != nullptr, "miller_loop_multi: null curve");
  const field::FpCtx* fp = curve->fp.get();

  // Per-worker scratch: the verification paths (pairings_equal,
  // pair_product) run inside pool workers and receiver threads, so the
  // state vector is thread-local and reused — after a thread's first
  // call the Miller loop performs no heap allocation. Safe because the
  // function never re-enters itself on the same thread (no callbacks).
  thread_local std::vector<PairMillerState> states;
  states.clear();
  states.reserve(pairs.size());
  for (const auto& [p, q] : pairs) {
    require(p.curve() == curve && q.curve() == curve,
            "miller_loop_multi: curve mismatch");
    if (p.is_infinity() || q.is_infinity()) continue;  // neutral contribution
    PairMillerState st;
    st.dq = DistortedQ{curve->zeta.scale(q.x()), q.y()};
    st.xp = p.x();
    st.yp = p.y();
    st.X = st.xp;
    st.Y = st.yp;
    st.Z = Fp::one(fp);
    states.push_back(st);
  }
  if (states.empty()) return neutral(fp);

  Fp2 f_num = Fp2::one(fp);
  Fp2 f_den = Fp2::one(fp);
  const FpInt& order = curve->q;
  for (size_t i = order.bit_length() - 1; i-- > 0;) {
    f_num = f_num.squared();
    f_den = f_den.squared();
    for (PairMillerState& st : states) miller_double_step(st, f_num, f_den, fp);
    if (order.bit(i)) {
      for (PairMillerState& st : states) miller_add_step(st, f_num, f_den, fp);
    }
  }

  require(!f_num.is_zero() && !f_den.is_zero(),
          "miller_loop_multi: degenerate value (inputs outside G_1?)");
  return MillerValue{f_num, f_den};
}

MillerValue miller_loop(const G1Point& p, const G1Point& q) {
  require(p.curve() != nullptr && p.curve() == q.curve(), "miller_loop: curve mismatch");
  if (p.is_infinity() || q.is_infinity()) return neutral(p.curve()->fp.get());
  const std::pair<G1Point, G1Point> one_pair[] = {{p, q}};
  return miller_loop_multi(one_pair);
}

Gt final_exponentiation(const CurveCtx* curve, const MillerValue& f) {
  // f^((p-1)·(p+1)/q). z^p = conj(z) on F_p2, so (num/den)^(p-1)
  // = (conj(num)·den) / (conj(den)·num) — still only one inversion.
  Fp2 a = f.num.conjugate() * f.den;
  Fp2 b = f.den.conjugate() * f.num;
  Fp2 g = a * b.inverse();
  // g = h^(p-1) has norm g·conj(g) = h^(p^2-1) = 1, so the long cofactor
  // exponentiation runs on the unitary (free-inversion wNAF) path.
  return g.pow_unitary(curve->cofactor);
}

Gt pair(const G1Point& p, const G1Point& q) {
  require(p.curve() != nullptr && p.curve() == q.curve(), "pair: curve mismatch");
  if (p.is_infinity() || q.is_infinity()) return gt_identity(p.curve());
  return final_exponentiation(p.curve(), miller_loop(p, q));
}

Gt pair_product(std::span<const std::pair<G1Point, G1Point>> pairs) {
  require(!pairs.empty(), "pair_product: empty input");
  const CurveCtx* curve = pairs.front().first.curve();
  require(curve != nullptr, "pair_product: null curve");
  // One shared Miller loop (accumulator squared once per bit for the whole
  // product) and one shared final exponentiation.
  return final_exponentiation(curve, miller_loop_multi(pairs));
}

bool pairings_equal(const G1Point& a1, const G1Point& a2, const G1Point& b1,
                    const G1Point& b2) {
  const CurveCtx* curve = a1.curve();
  require(curve != nullptr, "pairings_equal: null curve");
  // ê(a1,a2)·ê(b1,b2)^{-1} == 1: one shared Miller loop, one shared final
  // exponentiation. Degenerate inputs (infinity) fall back to two plain
  // pairings.
  if (a1.is_infinity() || a2.is_infinity() || b1.is_infinity() || b2.is_infinity()) {
    return pair(a1, a2) == pair(b1, b2);
  }
  const std::pair<G1Point, G1Point> pairs[] = {{a1, a2}, {b1, -b2}};
  return final_exponentiation(curve, miller_loop_multi(pairs)).is_one();
}

// ---------------------------------------------------------------------------
// Precomputed Miller loop (fixed first argument).
//
// Replays the affine loop of pair_affine once on P, storing each step's
// line (slope + point) and vertical x-coordinate. pair(Q) then evaluates
// the stored lines at φ(Q): ~2 base-field multiplications per line value
// instead of full Jacobian point arithmetic.

MillerPrecomp::MillerPrecomp(const ec::G1Point& p) : p_(p) {
  const CurveCtx* curve = p.curve();
  require(curve != nullptr, "MillerPrecomp: null curve");
  if (p.is_infinity()) {
    degenerate_ = true;
    return;
  }
  const Fp xp = p.x();
  const Fp yp = p.y();
  Fp xv = xp, yv = yp;
  bool v_infinity = false;

  const FpInt& order = curve->q;
  steps_.reserve(2 * order.bit_length());

  auto tangent_step = [&] {
    if (yv.is_zero()) {
      steps_.push_back(Step{StepKind::kVertical, Fp{}, xv, Fp{}, Fp{}});
      v_infinity = true;
      return;
    }
    Fp x2 = xv.squared();
    Fp lambda = (x2 + x2 + x2) * (yv + yv).inverse();
    Fp x_new = lambda.squared() - xv - xv;
    Fp y_new = lambda * (xv - x_new) - yv;
    steps_.push_back(Step{StepKind::kLine, lambda, xv, yv, x_new});
    xv = x_new;
    yv = y_new;
  };

  for (size_t i = order.bit_length() - 1; i-- > 0;) {
    steps_.push_back(Step{StepKind::kSquare, Fp{}, Fp{}, Fp{}, Fp{}});
    if (!v_infinity) tangent_step();
    if (order.bit(i) && !v_infinity) {
      if (xv == xp) {
        if (yv == yp) {
          tangent_step();  // V == P: tangent (adversarial low-order input)
        } else {
          // V == -P: vertical through P; the loop's final addition.
          steps_.push_back(Step{StepKind::kVertical, Fp{}, xv, Fp{}, Fp{}});
          v_infinity = true;
        }
      } else {
        Fp lambda = (yp - yv) * (xp - xv).inverse();
        Fp x_new = lambda.squared() - xv - xp;
        Fp y_new = lambda * (xv - x_new) - yv;
        steps_.push_back(Step{StepKind::kLine, lambda, xv, yv, x_new});
        xv = x_new;
        yv = y_new;
      }
    }
  }
}

MillerValue MillerPrecomp::miller(const ec::G1Point& q) const {
  const CurveCtx* curve = p_.curve();
  const field::FpCtx* fp = curve->fp.get();
  if (degenerate_) return miller_loop(p_, q);
  require(q.curve() == curve, "MillerPrecomp: curve mismatch");
  if (q.is_infinity()) return neutral(fp);

  const Fp2 qx = curve->zeta.scale(q.x());
  const Fp2 qy = Fp2::from_fp(q.y());

  Fp2 f_num = Fp2::one(fp);
  Fp2 f_den = Fp2::one(fp);
  for (const Step& s : steps_) {
    switch (s.kind) {
      case StepKind::kSquare:
        f_num = f_num.squared();
        f_den = f_den.squared();
        break;
      case StepKind::kLine:
        f_num = f_num * ((qy - Fp2::from_fp(s.y)) - (qx - Fp2::from_fp(s.x)).scale(s.lambda));
        f_den = f_den * (qx - Fp2::from_fp(s.x_after));
        break;
      case StepKind::kVertical:
        f_num = f_num * (qx - Fp2::from_fp(s.x));
        break;
    }
  }
  require(!f_num.is_zero() && !f_den.is_zero(),
          "MillerPrecomp: degenerate value (inputs outside G_1?)");
  return MillerValue{f_num, f_den};
}

Gt MillerPrecomp::pair(const ec::G1Point& q) const {
  const CurveCtx* curve = p_.curve();
  if (degenerate_) return tre::pairing::pair(p_, q);
  if (q.is_infinity()) return gt_identity(curve);
  return final_exponentiation(curve, miller(q));
}

// ---------------------------------------------------------------------------
// Reference affine implementation (kept verbatim from the first version;
// the test suite asserts pair() == pair_affine() on random inputs).

namespace {

struct Accumulator {
  Fp2 num;
  Fp2 den;

  void square() {
    num = num.squared();
    den = den.squared();
  }
  void mul_num(const Fp2& v) { num = num * v; }
  void mul_den(const Fp2& v) { den = den * v; }
};

}  // namespace

Gt pair_affine(const G1Point& p, const G1Point& q) {
  require(p.curve() != nullptr && p.curve() == q.curve(), "pair_affine: curve mismatch");
  const CurveCtx* curve = p.curve();
  const field::FpCtx* fp = curve->fp.get();
  if (p.is_infinity() || q.is_infinity()) return gt_identity(curve);

  const Fp2 qx = curve->zeta.scale(q.x());
  const Fp2 qy = Fp2::from_fp(q.y());

  Accumulator acc{Fp2::one(fp), Fp2::one(fp)};
  Fp xv = p.x();
  Fp yv = p.y();
  bool v_infinity = false;

  const Fp xp = p.x();
  const Fp yp = p.y();
  const FpInt& order = curve->q;

  auto line_through = [&](const Fp& lx, const Fp& ly, const Fp& lambda) {
    return (qy - Fp2::from_fp(ly)) - (qx - Fp2::from_fp(lx)).scale(lambda);
  };
  auto vertical_at = [&](const Fp& lx) { return qx - Fp2::from_fp(lx); };

  for (size_t i = order.bit_length() - 1; i-- > 0;) {
    acc.square();
    if (!v_infinity) {
      if (yv.is_zero()) {
        acc.mul_num(vertical_at(xv));
        v_infinity = true;
      } else {
        Fp x2 = xv.squared();
        Fp lambda = (x2 + x2 + x2) * (yv + yv).inverse();
        acc.mul_num(line_through(xv, yv, lambda));
        Fp x_new = lambda.squared() - xv - xv;
        Fp y_new = lambda * (xv - x_new) - yv;
        xv = x_new;
        yv = y_new;
        acc.mul_den(vertical_at(xv));
      }
    }
    if (order.bit(i) && !v_infinity) {
      if (xv == xp) {
        if (yv == yp) {
          Fp x2 = xv.squared();
          Fp lambda = (x2 + x2 + x2) * (yv + yv).inverse();
          acc.mul_num(line_through(xv, yv, lambda));
          Fp x_new = lambda.squared() - xv - xv;
          Fp y_new = lambda * (xv - x_new) - yv;
          xv = x_new;
          yv = y_new;
          acc.mul_den(vertical_at(xv));
        } else {
          acc.mul_num(vertical_at(xv));
          v_infinity = true;
        }
      } else {
        Fp lambda = (yp - yv) * (xp - xv).inverse();
        acc.mul_num(line_through(xv, yv, lambda));
        Fp x_new = lambda.squared() - xv - xp;
        Fp y_new = lambda * (xv - x_new) - yv;
        xv = x_new;
        yv = y_new;
        acc.mul_den(vertical_at(xv));
      }
    }
  }

  require(!acc.num.is_zero() && !acc.den.is_zero(),
          "pair_affine: degenerate Miller value (inputs outside G_1?)");
  Fp2 f = acc.num * acc.den.inverse();
  Fp2 g = f.conjugate() * f.inverse();
  return g.pow(curve->cofactor);
}

}  // namespace tre::pairing
