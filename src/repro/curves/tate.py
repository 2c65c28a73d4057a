"""Reduced Tate pairing for the MNT4753-surrogate curve.

The surrogate (repro.ff.params) is supersingular — y^2 = x^3 + x over
F_q with q = 3 (mod 4) — hence has embedding degree 2: all r-torsion
pairs into mu_r inside Fq2. G1 lives in E(F_q) and our G2 in the twist
component of E(Fq2), which are independent order-r subgroups, so the
reduced Tate pairing

    e(P, Q) = f_{r,P}(Q) ^ ((q^2 - 1) / r)

is non-degenerate on G1 x G2 (validated by tests). This gives the
753-bit curve a *real* pairing-based Groth16 verification path — no
trapdoor shortcuts — completing the substitution story of DESIGN.md.

The Miller loop is the textbook affine version (r has ~750 bits, so
~1100 line evaluations, one Fq2 inversion each), split like the
optimal-ate engines' loop: the loop point's doublings/additions build
the lines — slope, constant term and vertical-correction abscissa per
step — and a replay evaluates them at the other argument, keeping
numerator and denominator apart until one final division. A fresh loop
is "build, then replay", so it is bit-identical to a prepared replay.

Batched verification uses the same :class:`MillerAccumulator` /
``prepare_g2`` interface as the optimal-ate engines
(:mod:`repro.curves.pairing`), with one twist: the accumulator's
pairing runs the Miller loop **over the G2 argument** and evaluates at
the (embedded) G1 point — ``t'(P, Q) = f_{r,Q}(P)^((q^2-1)/r)`` — so a
verifying key's fixed beta/gamma/delta own the loop's point arithmetic
and their ~1100 line coefficients precompute once per key.  ``t'`` is
the reduced Tate pairing with the roles swapped: still bilinear in
both arguments and non-degenerate on G2 x G1 (asserted by tests), and
a product-of-pairings check only needs *some* non-degenerate bilinear
pairing applied uniformly to every term — accept/reject is identical
to the unswapped orientation.  Every product check
(``pairing_product_is_one``, single and batched Groth16 verification)
uses the swapped orientation; the plain :meth:`MntTatePairing.pairing`
keeps the historical f_{r,P}(Q) orientation so its values are
unchanged.

The final exponent (q^2 - 1)/r is only ~760 bits, so it stays a plain
square-and-multiply.

Every entry point takes an optional OpCounter counting ``miller_loop``
/ ``final_exp`` / ``g2_precomp``, mirroring the ate engines, so batch
pairing economics are machine-checked on this curve too.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.curves.pairing import MultiPairingEngine, PreparedG2, _count
from repro.curves.params import MNT_FQ2, mnt4753_g2_ready
from repro.errors import CurveError
from repro.ff.extension import ExtElement
from repro.ff.params import MNT4753_Q, MNT4753_R

__all__ = ["MntTatePairing", "mnt4753_pairing"]

Fq2Point = Optional[Tuple[ExtElement, ExtElement]]


class MntTatePairing(MultiPairingEngine):
    """Reduced Tate pairing on the supersingular 753-bit surrogate."""

    name = "MNT4753"

    def __init__(self):
        super().__init__()
        self.field = MNT_FQ2
        self.q = MNT4753_Q.modulus
        self.r = MNT4753_R.modulus
        self.group = mnt4753_g2_ready()  # curve over Fq2 (a = 1)
        self._a = self.group.a
        self._final_exp = (self.q * self.q - 1) // self.r

    # -- embeddings ----------------------------------------------------------

    def embed_g1(self, p) -> Fq2Point:
        """Lift a G1 point (int coordinates) into E(Fq2)."""
        if p is None:
            return None
        return (self.field.element([p[0], 0]), self.field.element([p[1], 0]))

    # -- Miller machinery ------------------------------------------------------

    def _step(self, p1: Fq2Point, p2: Fq2Point) -> Tuple[tuple, Fq2Point]:
        """The line through p1 and p2 (the tangent when equal) and the
        sum p1 + p2. The line is ``(slope, const)``, evaluating at T as
        y_T - slope * x_T + const, or ``(None, x)`` for the vertical
        x_T - x."""
        if p1 is None:
            raise CurveError("Miller loop reached the point at infinity")
        x1, y1 = p1
        x2, y2 = p2
        if x1 != x2:
            lam = (y2 - y1) / (x2 - x1)
        elif y1 == y2 and y1:
            lam = (x1 * x1 * 3 + self._a) / (y1 * 2)
        else:
            return (None, x1), None
        x3 = lam * lam - x1 - x2
        return (lam, lam * x1 - y1), (x3, lam * (x1 - x3) - y1)

    def _lines(self, p: Fq2Point) -> Tuple[tuple, ...]:
        """The lines of f_{r,P}: ``(kind, slope, const, den_x)`` per
        step, kind ``"d"`` (doubling) or ``"a"`` (addition), ``den_x``
        the abscissa of the new point (its vertical line divides f), or
        ``None`` once the sum is the point at infinity."""
        steps: List[tuple] = []
        r_pt = p
        for bit in bin(self.r)[3:]:  # skip leading 1
            line, r_pt = self._step(r_pt, r_pt)
            steps.append(("d",) + line + (None if r_pt is None else r_pt[0],))
            if bit == "1":
                line, r_pt = self._step(r_pt, p)
                steps.append(("a",) + line
                             + (None if r_pt is None else r_pt[0],))
        return tuple(steps)

    def _replay(self, steps, t: Fq2Point) -> ExtElement:
        """f_{r,P}(T) from P's lines, numerator and denominator
        accumulated separately (one inversion at the end)."""
        xt, yt = t
        f_num = self.field.one
        f_den = self.field.one
        for kind, slope, const, den_x in steps:
            line = (xt - const) if slope is None else yt - slope * xt + const
            if kind == "d":
                f_num = f_num * f_num * line
                f_den = f_den * f_den
            else:
                f_num = f_num * line
            if den_x is not None:
                f_den = f_den * (xt - den_x)
        return f_num / f_den

    def miller_loop(self, p: Fq2Point, q: Fq2Point,
                    counter=None) -> ExtElement:
        """f_{r,P}(Q) by the double-and-add Miller loop: P's lines,
        built fresh, replayed at Q."""
        if p is None or q is None:
            return self.field.one
        if p == q:
            raise CurveError("Tate Miller loop needs distinct P, Q")
        _count(counter, "miller_loop")
        return self._replay(self._lines(p), q)

    # -- the pairing -----------------------------------------------------------------

    def pairing(self, g1_point, g2_point, counter=None) -> ExtElement:
        """e(P, Q): P in G1 (int coords), Q in G2 (Fq2 coords)."""
        if g1_point is None or g2_point is None:
            return self.field.one
        f = self.miller_loop(self.embed_g1(g1_point), g2_point,
                             counter=counter)
        return self.final_exponentiate(f, counter=counter)

    def final_exponentiate(self, f: ExtElement, counter=None) -> ExtElement:
        _count(counter, "final_exp")
        return f ** self._final_exp

    # -- multi-pairing / fixed-argument interface -----------------------------------

    @property
    def unity(self) -> ExtElement:
        """The identity of the pairing target group (Fq2's one)."""
        return self.field.one

    def miller_pair(self, g1_point, g2_point, counter=None) -> ExtElement:
        """Swapped-orientation Miller value f_{r,Q}(P) — the loop runs
        over Q, so fixed-G2 terms can be precomputed (accumulator
        hook)."""
        if g1_point is None or g2_point is None:
            return self.field.one
        return self.miller_loop(g2_point, self.embed_g1(g1_point),
                                counter=counter)

    def miller_prepared(self, g1_point, prepared: PreparedG2,
                        counter=None) -> ExtElement:
        """Replay a prepared G2's swapped-orientation loop at a G1
        point: bit-identical to ``miller_loop(Q, embed(P))``."""
        self._check_prepared(prepared)
        if g1_point is None:
            return self.field.one
        _count(counter, "miller_loop")
        return self._replay(prepared.steps, self.embed_g1(g1_point))


_ENGINE = None


def mnt4753_pairing() -> MntTatePairing:
    """The cached MNT4753-surrogate Tate pairing engine."""
    global _ENGINE
    if _ENGINE is None:
        _ENGINE = MntTatePairing()
    return _ENGINE
