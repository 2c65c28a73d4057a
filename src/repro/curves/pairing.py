"""Optimal-ate pairings for ALT-BN128 and BLS12-381.

Groth16 verification is a product-of-pairings check; this module makes it
real for the two curves with standard parameters. The Miller loop runs
in two halves:

* **line building** — the loop's point doublings/additions and line
  slopes depend only on the G2 argument Q, so they run on the twist
  over Fq2, and each line's slope and constant term are embedded into
  Fq12 by the twist rule (D-twist: times w, w^2, w^3; M-twist: divided
  by them);
* **replay** — the lines are evaluated at the G1 argument P and folded
  into the Fq12 accumulator (a line has five nonzero coefficients, so
  each fold is a sparse product).

The field maps are exact, so the Miller value is bit-identical to the
textbook loop over the twisted point in E(Fq12). The accumulator is
raised to (q^12 - 1)/r in a split final exponentiation: the easy part
(q^6 - 1)(q^2 + 1) is two Frobenius maps and one inversion, and the
hard part (q^4 - q^2 + 1)/r, written as four base-q digits, is one
joint square-and-multiply over the Frobenius images of its base.

Batch verification needs two things beyond the plain pairing:

* a **multi-pairing** API (:class:`MillerAccumulator`) that multiplies
  many Miller values together and pays the final exponentiation once;
* **fixed-argument precomputation** (:meth:`PairingEngine.prepare_g2`):
  for a G2 point that never changes (a verifying key's beta/gamma/
  delta) the lines are built once and replayed against any G1
  argument — a fresh :meth:`PairingEngine.miller_loop` is exactly
  "build, then replay", so the two agree bit for bit.

Every pairing entry point takes an optional
:class:`~repro.ff.opcount.OpCounter` and counts ``miller_loop`` /
``final_exp`` / ``g2_precomp`` ops, so callers can machine-check
pairing economics (a batch of N proofs must cost exactly N+3 Miller
loops and 1 final exponentiation) instead of trusting a docstring.
``miller_loop``, ``miller_prepared`` and ``final_exponentiate`` never
call one another, so wrapping them (as a profiler does) counts each
once.

The MNT4753 surrogate curve is supersingular (embedding degree 2) and
has no Fq12 tower; its Groth16 path runs a real reduced Tate pairing
over Fq2 instead (:mod:`repro.curves.tate`), which implements the same
accumulator/prepare interface.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.curves.params import BLS_FQ2, BN128_FQ2
from repro.errors import CurveError
from repro.ff.extension import ExtElement, ExtensionField
from repro.ff.params import ALT_BN128_R, BLS12_381_R

__all__ = ["PairingEngine", "PreparedG2", "MillerAccumulator",
           "bn128_pairing", "bls12_381_pairing"]

Point = Optional[Tuple[ExtElement, ExtElement]]


def _count(counter, op: str, n: int = 1) -> None:
    if counter is not None:
        counter.count(op, n)


@dataclass(frozen=True)
class PreparedG2:
    """Fixed-argument precomputation for one G2 point: the ordered lines
    of its Miller loop, replayable against any G1 point. The step
    format belongs to the engine that built it."""

    engine_name: str
    steps: Tuple[tuple, ...]


class MillerAccumulator:
    """Multi-pairing accumulator: many Miller loops, one final
    exponentiation.

    This is how real verifiers batch product-of-pairings checks — the
    Miller values are multiplied in the target field's unreduced form,
    and the (expensive) final exponentiation is applied once to the
    product. Works with any engine exposing ``unity`` /
    ``miller_pair`` / ``miller_prepared`` / ``final_exponentiate``
    (the optimal-ate engines here and the MNT Tate engine).

    Pairs with an infinity component contribute the identity and cost
    no Miller loop.
    """

    def __init__(self, engine, counter=None):
        self.engine = engine
        self.counter = counter
        self._acc = engine.unity

    def accumulate(self, g1_point, g2_point) -> "MillerAccumulator":
        """Fold e(P, Q)'s Miller value into the product (one loop)."""
        if g1_point is not None and g2_point is not None:
            self._acc = self._acc * self.engine.miller_pair(
                g1_point, g2_point, counter=self.counter)
        return self

    def accumulate_prepared(self, g1_point,
                            prepared: PreparedG2) -> "MillerAccumulator":
        """Fold e(P, Q_fixed) via Q's precomputed lines (one replay,
        counted as one Miller loop — it is one, minus the point maths)."""
        if g1_point is not None:
            self._acc = self._acc * self.engine.miller_prepared(
                g1_point, prepared, counter=self.counter)
        return self

    def result(self):
        """The reduced product: final-exponentiated accumulator."""
        return self.engine.final_exponentiate(self._acc,
                                              counter=self.counter)

    def is_one(self) -> bool:
        """True iff the accumulated pairing product is the identity."""
        return self.result() == self.engine.unity


class MultiPairingEngine:
    """What the optimal-ate and Tate engines share: product checks
    through :class:`MillerAccumulator`, and the per-engine cache of
    prepared G2 lines.

    A subclass sets ``name`` and ``unity`` and provides
    ``_lines(g2_point)`` (the Miller loop's lines over a G2 point, the
    format its ``miller_prepared`` replays) plus the public
    ``miller_pair`` / ``miller_prepared`` / ``final_exponentiate``.
    """

    name: str

    def __init__(self):
        # fixed-argument line caches, keyed by the G2 point's Fq2
        # coordinates (a verifying key's beta/gamma/delta land here once
        # and are replayed for every verify under that key)
        self._prepared: dict = {}
        self._prepared_lock = threading.Lock()

    def accumulator(self, counter=None) -> MillerAccumulator:
        """A fresh multi-pairing accumulator over this engine."""
        return MillerAccumulator(self, counter=counter)

    def pairing_product_is_one(self, pairs, counter=None) -> bool:
        """Check prod e(P_i, Q_i) == 1 with one shared final
        exponentiation (how real verifiers batch the Groth16 check)."""
        acc = self.accumulator(counter=counter)
        for g1_point, g2_point in pairs:
            acc.accumulate(g1_point, g2_point)
        return acc.is_one()

    def prepare_g2(self, g2_point, counter=None) -> PreparedG2:
        """Build (and cache) the Miller-loop lines of a fixed G2 point.

        Cached per engine keyed by Q's affine Fq2 coordinates — a
        verifying key's beta/gamma/delta are prepared once and reused
        by every verify under that key (``g2_precomp`` counts actual
        builds, so reuse is checkable).
        """
        if g2_point is None:
            raise CurveError("cannot prepare the point at infinity")
        key = (g2_point[0], g2_point[1])
        with self._prepared_lock:
            prepared = self._prepared.get(key)
        if prepared is not None:
            return prepared
        _count(counter, "g2_precomp")
        prepared = PreparedG2(self.name, self._lines(g2_point))
        with self._prepared_lock:
            return self._prepared.setdefault(key, prepared)

    def _check_prepared(self, prepared: PreparedG2) -> None:
        if prepared.engine_name != self.name:
            raise CurveError(
                f"prepared lines are for {prepared.engine_name}, "
                f"engine is {self.name}"
            )


@dataclass(frozen=True)
class _PairingParams:
    name: str
    fq2: ExtensionField
    curve_order: int
    fq12_modulus_coeffs: Tuple[int, ...]
    # i in Fq2 embeds into Fq12 as (w^6 - twist_shift).
    twist_shift: int
    ate_loop_count: int
    log_ate_loop_count: int
    # BN curves need two extra Frobenius line steps; BLS curves do not.
    bn_final_steps: bool
    # D-twist (BN: b2 = b/xi) untwists by *multiplying* with w^2/w^3;
    # M-twist (BLS: b2 = b*xi) untwists by *dividing*.
    m_twist: bool


_BN128 = _PairingParams(
    name="ALT-BN128",
    fq2=BN128_FQ2,
    curve_order=ALT_BN128_R.modulus,
    fq12_modulus_coeffs=(82, 0, 0, 0, 0, 0, -18, 0, 0, 0, 0, 0),
    twist_shift=9,
    ate_loop_count=29793968203157093288,
    log_ate_loop_count=63,
    bn_final_steps=True,
    m_twist=False,
)

_BLS12_381 = _PairingParams(
    name="BLS12-381",
    fq2=BLS_FQ2,
    curve_order=BLS12_381_R.modulus,
    fq12_modulus_coeffs=(2, 0, 0, 0, 0, 0, -2, 0, 0, 0, 0, 0),
    twist_shift=1,
    ate_loop_count=15132376222941642752,
    log_ate_loop_count=62,
    bn_final_steps=False,
    m_twist=True,
)


class PairingEngine(MultiPairingEngine):
    """Miller loop + final exponentiation for one curve family."""

    def __init__(self, params: _PairingParams):
        super().__init__()
        self.params = params
        self.name = params.name
        q = params.fq2.base.modulus
        r = params.curve_order
        self.fq12 = ExtensionField(params.fq2.base,
                                   list(params.fq12_modulus_coeffs),
                                   name=f"{params.name}.Fq12")
        w = self.fq12.element([0, 1] + [0] * 10)
        w_k = [self.fq12.one, w, w * w, w * w * w]
        if params.m_twist:
            w_k = [x.inverse() for x in w_k]
        # the twist rule: a G2 coordinate of weight k (slope 1, x 2,
        # y 3) embeds as iota(a) * w^k, or iota(a) / w^k on an M-twist
        self._w_k = w_k
        if params.bn_final_steps:
            # pi(x, y) on the (BN, D-type) twist: x^q = conj(x) *
            # xi^((q-1)/3) and y^q = conj(y) * xi^((q-1)/2), xi = w^6
            xi = params.fq2.element([params.twist_shift, 1])
            self._frob_x = xi ** ((q - 1) // 3)
            self._frob_y = xi ** ((q - 1) // 2)
        # hard part (q^4 - q^2 + 1)/r in base q: at each bit position,
        # the mask of digits with that bit set (top bit first)
        hard = (q ** 4 - q ** 2 + 1) // r
        digits = [(hard // q ** i) % q for i in range(4)]
        width = max(d.bit_length() for d in digits)
        self._hard_masks = tuple(
            sum(((d >> bit) & 1) << i for i, d in enumerate(digits))
            for bit in range(width - 1, -1, -1))

    # -- the Miller loop ----------------------------------------------------------

    def _embed(self, a: ExtElement, k: int) -> ExtElement:
        """iota(a) * w^(+-k): an Fq2 value of twist weight k in Fq12,
        with i = w^6 - s, so a + b i = (a - s b) + b w^6."""
        a0, a1 = a.coeffs
        q = self.fq12.base.modulus
        c = [0] * 12
        c[0], c[6] = (a0 - self.params.twist_shift * a1) % q, a1
        return ExtElement(self.fq12, tuple(c)) * self._w_k[k]

    def _step(self, r_pt: Point, t_pt: Point) -> Tuple[tuple, Point]:
        """The line through r_pt and t_pt (the tangent when equal) and
        the sum r_pt + t_pt, on the twist. The line is ``(slope,
        const)`` embedded in Fq12, evaluating at P as slope * x_P +
        const - y_P, or ``(None, x)`` for the vertical x_P - x."""
        if r_pt is None:
            raise CurveError("Miller loop reached the point at infinity")
        x1, y1 = r_pt
        x2, y2 = t_pt
        if x1 != x2:
            lam = (y2 - y1) / (x2 - x1)
        elif y1 == y2:
            lam = x1 * x1 * 3 / (y1 * 2)
        else:
            return (None, self._embed(x1, 2)), None
        x3 = lam * lam - x1 - x2
        line = (self._embed(lam, 1), self._embed(y1 - lam * x1, 3))
        return line, (x3, lam * (x1 - x3) - y1)

    def _lines(self, q_pt: Point) -> Tuple[tuple, ...]:
        """The Miller loop's lines over G2 point Q: ``(kind, slope,
        const)`` per step, kind ``"sm"`` (doubling: square, then
        multiply) or ``"m"`` (addition / Frobenius: multiply)."""
        prm = self.params
        steps: List[tuple] = []
        r_pt = q_pt
        for i in range(prm.log_ate_loop_count, -1, -1):
            line, r_pt = self._step(r_pt, r_pt)
            steps.append(("sm",) + line)
            if prm.ate_loop_count & (1 << i):
                line, r_pt = self._step(r_pt, q_pt)
                steps.append(("m",) + line)
        if prm.bn_final_steps:
            q1 = (q_pt[0].conjugate() * self._frob_x,
                  q_pt[1].conjugate() * self._frob_y)
            nq2 = (q1[0].conjugate() * self._frob_x,
                   -(q1[1].conjugate() * self._frob_y))
            line, r_pt = self._step(r_pt, q1)
            steps.append(("m",) + line)
            line, _ = self._step(r_pt, nq2)
            steps.append(("m",) + line)
        return tuple(steps)

    def _replay(self, steps, g1_point) -> ExtElement:
        """Fold the lines, evaluated at G1 point P, into the Miller
        value."""
        xp, yp = g1_point
        fq12 = self.fq12
        q = fq12.base.modulus
        f = fq12.one
        for kind, slope, const in steps:
            if slope is None:
                line = fq12.from_base(xp) - const
            else:
                c = [(s * xp + k) % q
                     for s, k in zip(slope.coeffs, const.coeffs)]
                c[0] = (c[0] - yp) % q
                line = ExtElement(fq12, tuple(c))
            f = f * f * line if kind == "sm" else f * line
        return f

    def miller_loop(self, q_pt: Point, p_pt, counter=None) -> ExtElement:
        """The Miller value of G2 point Q (Fq2 coords) at G1 point P
        (int coords): Q's lines, built fresh, replayed at P."""
        if q_pt is None or p_pt is None:
            return self.fq12.one
        _count(counter, "miller_loop")
        return self._replay(self._lines(q_pt), p_pt)

    def miller_prepared(self, g1_point, prepared: PreparedG2,
                        counter=None) -> ExtElement:
        """Replay a prepared G2's lines at a G1 point: the same Miller
        value :meth:`miller_loop` produces, without the point maths."""
        self._check_prepared(prepared)
        if g1_point is None:
            return self.fq12.one
        _count(counter, "miller_loop")
        return self._replay(prepared.steps, g1_point)

    def miller_pair(self, g1_point, g2_point, counter=None) -> ExtElement:
        """The Miller value of one (G1, G2) pair — accumulator hook."""
        return self.miller_loop(g2_point, g1_point, counter=counter)

    # -- final exponentiation ----------------------------------------------------

    def final_exponentiate(self, f: ExtElement, counter=None) -> ExtElement:
        """f^((q^12 - 1)/r), split as (q^6 - 1)(q^2 + 1) times
        (q^4 - q^2 + 1)/r, with the same value as the direct power."""
        _count(counter, "final_exp")
        g = f.frobenius(6) * f.inverse()
        g = g.frobenius(2) * g
        # prod_i (g^(q^i))^(d_i) by one joint square-and-multiply over
        # the 15 nonempty products of g, g^q, g^(q^2), g^(q^3)
        bases = [g, g.frobenius(1), g.frobenius(2), g.frobenius(3)]
        table = [self.fq12.one] * 16
        for mask in range(1, 16):
            low = mask & -mask
            table[mask] = (bases[low.bit_length() - 1] if mask == low
                           else table[mask ^ low] * table[low])
        acc = self.fq12.one
        for mask in self._hard_masks:
            acc = acc * acc
            if mask:
                acc = acc * table[mask]
        return acc

    # -- pairing -------------------------------------------------------------------

    def pairing(self, g1_point, g2_point, counter=None) -> ExtElement:
        """e(P, Q) with P in G1 (int coords) and Q in G2 (Fq2 coords)."""
        if g1_point is None or g2_point is None:
            return self.fq12.one
        f = self.miller_loop(g2_point, g1_point, counter=counter)
        return self.final_exponentiate(f, counter=counter)

    @property
    def unity(self) -> ExtElement:
        """The identity of the pairing target group (Fq12's one)."""
        return self.fq12.one


_ENGINES = {}


def _engine(params: _PairingParams) -> PairingEngine:
    if params.name not in _ENGINES:
        _ENGINES[params.name] = PairingEngine(params)
    return _ENGINES[params.name]


def bn128_pairing() -> PairingEngine:
    """The ALT-BN128 pairing engine (cached)."""
    return _engine(_BN128)


def bls12_381_pairing() -> PairingEngine:
    """The BLS12-381 pairing engine (cached)."""
    return _engine(_BLS12_381)
