"""Polynomial extension fields F_q[x]/(f) for pairing towers.

Pairing-based verification (Groth16's three-pairing check) needs the full
extension tower of the target curve: Fq2 for G2 coordinates and Fq12 for
the Miller-loop accumulator. This module implements a generic polynomial
quotient-ring field, parameterised by the base prime field and the
coefficients of the (monic) reduction polynomial — the same construction
py_ecc and arkworks use:

* ALT-BN128: Fq2 = Fq[i]/(i^2 + 1), Fq12 = Fq[w]/(w^12 - 18 w^6 + 82)
* BLS12-381: Fq2 = Fq[i]/(i^2 + 1), Fq12 = Fq[w]/(w^12 - 2 w^6 + 2)

Verification cost lives here, so the arithmetic is shaped by what the
pairing needs: quadratic fields ``x^2 = -c`` multiply and invert in
closed form; higher degrees skip zero coefficients (Miller-loop lines
are sparse) and reduce each output coefficient once; and the Frobenius
map ``x -> x^(q^k)``, being F_q-linear, is a precomputed matrix-vector
product instead of an exponentiation.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.errors import FieldError
from repro.ff.primefield import PrimeField

__all__ = ["ExtensionField", "ExtElement"]


class ExtensionField:
    """F_q[x] / (x^d + c_{d-1} x^{d-1} + ... + c_0).

    ``modulus_coeffs`` gives (c_0, ..., c_{d-1}) — the low-order
    coefficients of the monic reduction polynomial, as ints mod q.
    """

    def __init__(self, base: PrimeField, modulus_coeffs: Sequence[int],
                 name: str = "F_q^d"):
        if not modulus_coeffs:
            raise FieldError("extension degree must be >= 1")
        self.base = base
        self.degree = len(modulus_coeffs)
        self.modulus_coeffs = tuple(c % base.modulus for c in modulus_coeffs)
        self.name = name
        p = base.modulus
        signed = [c if c <= p // 2 else c - p for c in self.modulus_coeffs]
        # x^d = -sum c_j x^j, with each nonzero c_j kept as its signed
        # representative: the pairing moduli have small coefficients, so
        # reducing a product multiplies by small ints.
        self._reduction = tuple((j, c) for j, c in enumerate(signed) if c)
        # x^2 = -c0: closed-form multiplication and norm-based inverse.
        self._quad_c0 = (signed[0] if self.degree == 2 and not signed[1]
                         else None)
        # k -> images of the basis powers x^j under x -> x^(q^k), as
        # sparse rows of (i, coeff); built on first use.
        self._frobenius_rows: dict = {}

    # -- constructors ----------------------------------------------------------

    def element(self, coeffs: Sequence[int]) -> "ExtElement":
        if len(coeffs) != self.degree:
            raise FieldError(
                f"{self.name} element needs {self.degree} coefficients, "
                f"got {len(coeffs)}"
            )
        return ExtElement(self, tuple(c % self.base.modulus for c in coeffs))

    def from_base(self, value: int) -> "ExtElement":
        coeffs = [value % self.base.modulus] + [0] * (self.degree - 1)
        return ExtElement(self, tuple(coeffs))

    def frobenius_rows(self, k: int) -> Tuple[Tuple[Tuple[int, int], ...], ...]:
        """The matrix of x -> x^(q^k): row j lists the nonzero
        coefficients of (x^j)^(q^k). Built once per k from one
        exponentiation x^q (k = 1) or by composing with smaller k."""
        k %= self.degree
        rows = self._frobenius_rows.get(k)
        if rows is None:
            basis = [0] * self.degree
            basis[min(1, self.degree - 1)] = 1   # x, or 1 when d = 1
            x = self.element(basis)
            if k == 0:
                image = x
            elif k == 1:
                image = x ** self.base.modulus
            else:
                image = x.frobenius(k - 1).frobenius(1)
            power, powers = self.one, []
            for _ in range(self.degree):
                powers.append(power)
                power = power * image
            rows = tuple(tuple((i, c) for i, c in enumerate(pw.coeffs) if c)
                         for pw in powers)
            rows = self._frobenius_rows.setdefault(k, rows)
        return rows

    @property
    def zero(self) -> "ExtElement":
        return ExtElement(self, (0,) * self.degree)

    @property
    def one(self) -> "ExtElement":
        return self.from_base(1)

    def __eq__(self, other):
        return (
            isinstance(other, ExtensionField)
            and self.base.modulus == other.base.modulus
            and self.modulus_coeffs == other.modulus_coeffs
        )

    def __hash__(self):
        return hash((self.base.modulus, self.modulus_coeffs))

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"ExtensionField({self.name}, degree {self.degree})"


class ExtElement:
    """An element of an :class:`ExtensionField`, stored as a coefficient
    tuple (low-order first). Immutable."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: ExtensionField, coeffs: Tuple[int, ...]):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("ExtElement is immutable")

    def _check(self, other: "ExtElement") -> None:
        if self.field is not other.field and self.field != other.field:
            raise FieldError("cannot mix elements of different extension fields")

    # -- ring operations ---------------------------------------------------------

    def __add__(self, other: "ExtElement") -> "ExtElement":
        self._check(other)
        p = self.field.base.modulus
        return ExtElement(
            self.field,
            tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs)),
        )

    def __sub__(self, other: "ExtElement") -> "ExtElement":
        self._check(other)
        p = self.field.base.modulus
        return ExtElement(
            self.field,
            tuple((a - b) % p for a, b in zip(self.coeffs, other.coeffs)),
        )

    def __neg__(self) -> "ExtElement":
        p = self.field.base.modulus
        return ExtElement(self.field, tuple((-a) % p for a in self.coeffs))

    def scale(self, k: int) -> "ExtElement":
        p = self.field.base.modulus
        k %= p
        return ExtElement(self.field, tuple(a * k % p for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        self._check(other)
        field = self.field
        p = field.base.modulus
        c0 = field._quad_c0
        if c0 is not None:
            # (a0 + a1 x)(b0 + b1 x) with x^2 = -c0, Karatsuba style.
            a0, a1 = self.coeffs
            b0, b1 = other.coeffs
            t0, t1 = a0 * b0, a1 * b1
            return ExtElement(field, ((t0 - c0 * t1) % p,
                                      ((a0 + a1) * (b0 + b1) - t0 - t1) % p))
        d = field.degree
        # Schoolbook over the nonzero coefficients, unreduced...
        theirs = [(j, b) for j, b in enumerate(other.coeffs) if b]
        prod: List[int] = [0] * (2 * d - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in theirs:
                    prod[i + j] += a * b
        # ...then reduction by the monic modulus, and one % p per output.
        for k in range(2 * d - 2, d - 1, -1):
            top = prod[k]
            if top:
                for j, c in field._reduction:
                    prod[k - d + j] -= top * c
        return ExtElement(field, tuple(c % p for c in prod[:d]))

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "ExtElement":
        if e < 0:
            return self.inverse() ** (-e)
        result = self.field.one
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def inverse(self) -> "ExtElement":
        """Multiplicative inverse: conjugate over the norm on quadratic
        fields ``x^2 = -c0``, else extended-Euclid inversion of
        polynomials over F_q (the classic FQP.inv algorithm used by
        py_ecc and friends)."""
        if not self:
            raise FieldError("zero has no inverse")
        p = self.field.base.modulus
        c0 = self.field._quad_c0
        if c0 is not None:
            a0, a1 = self.coeffs
            n_inv = pow((a0 * a0 + c0 * a1 * a1) % p, -1, p)
            return ExtElement(self.field, (a0 * n_inv % p, -a1 * n_inv % p))
        d = self.field.degree

        def deg(poly: List[int]) -> int:
            for i in range(len(poly) - 1, -1, -1):
                if poly[i]:
                    return i
            return 0

        def poly_rounded_div(a: List[int], b: List[int]) -> List[int]:
            dega, degb = deg(a), deg(b)
            temp = list(a)
            out = [0] * (dega - degb + 1)
            b_lead_inv = pow(b[degb], -1, p)
            for i in range(dega - degb, -1, -1):
                out[i] = temp[degb + i] * b_lead_inv % p
                for c in range(degb + 1):
                    temp[c + i] = (temp[c + i] - out[i] * b[c]) % p
            return out

        lm, hm = [1] + [0] * d, [0] * (d + 1)
        low = list(self.coeffs) + [0]
        high = list(self.field.modulus_coeffs) + [1]
        while deg(low):
            quotient = poly_rounded_div(high, low)
            quotient += [0] * (d + 1 - len(quotient))
            nm = list(hm)
            new = list(high)
            for i in range(d + 1):
                for j in range(d + 1 - i):
                    nm[i + j] = (nm[i + j] - lm[i] * quotient[j]) % p
                    new[i + j] = (new[i + j] - low[i] * quotient[j]) % p
            lm, low, hm, high = nm, new, lm, low
        inv_c = pow(low[0], -1, p)
        return ExtElement(self.field, tuple(c * inv_c % p for c in lm[:d]))

    def __truediv__(self, other: "ExtElement") -> "ExtElement":
        return self * other.inverse()

    # -- structure ----------------------------------------------------------------

    def frobenius(self, k: int = 1) -> "ExtElement":
        """x -> x^(q^k), as one product with the field's precomputed
        Frobenius matrix (:meth:`ExtensionField.frobenius_rows`)."""
        p = self.field.base.modulus
        out = [0] * self.field.degree
        for a, row in zip(self.coeffs, self.field.frobenius_rows(k)):
            if a:
                for i, c in row:
                    out[i] += a * c
        return ExtElement(self.field, tuple(c % p for c in out))

    def conjugate(self) -> "ExtElement":
        """Degree-2 conjugation (a + bi -> a - bi). Only valid on
        quadratic extensions."""
        if self.field.degree != 2:
            raise FieldError("conjugate is defined on quadratic extensions only")
        p = self.field.base.modulus
        return ExtElement(self.field, (self.coeffs[0], (-self.coeffs[1]) % p))

    def __eq__(self, other):
        if not isinstance(other, ExtElement):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __bool__(self):
        return any(self.coeffs)

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"ExtElement({list(self.coeffs)} in {self.field.name})"
