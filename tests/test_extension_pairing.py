"""Extension-field tower and pairing tests (Groth16's verification
substrate)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FieldError
from repro.ff import ALT_BN128_Q, ExtensionField, PrimeField
from repro.curves import (
    bls12_381_g1,
    bls12_381_g2,
    bls12_381_pairing,
    bn128_g1,
    bn128_g2,
    bn128_pairing,
    mnt4753_g1,
    mnt4753_g2_ready,
    mnt4753_pairing,
)
from repro.curves.params import BLS_FQ2, BN128_FQ2, MNT_FQ2

F13 = PrimeField(13, name="F_13")
# F_13[x]/(x^2 + 1): -1 is a non-residue mod 13? 5^2=25=12=-1, so it IS a
# residue; use x^2 - 2 instead (2 is a non-residue mod 13).
F169 = ExtensionField(F13, [-2, 0], name="F_169")


class TestExtensionFieldSmall:
    def test_add_sub(self):
        a = F169.element([3, 4])
        b = F169.element([10, 12])
        assert (a + b).coeffs == (0, 3)
        assert (a - b).coeffs == (6, 5)

    def test_mul_reduction(self):
        # (x)(x) = x^2 = 2 in F_13[x]/(x^2-2).
        x = F169.element([0, 1])
        assert (x * x).coeffs == (2, 0)

    def test_scalar_mul(self):
        a = F169.element([3, 4])
        assert (a * 2).coeffs == (6, 8)
        assert (2 * a).coeffs == (6, 8)
        assert a.scale(13).coeffs == (0, 0)

    def test_inverse_all_nonzero_elements(self):
        one = F169.one
        for c0 in range(13):
            for c1 in range(13):
                if c0 == c1 == 0:
                    continue
                a = F169.element([c0, c1])
                assert a * a.inverse() == one

    def test_zero_inverse_raises(self):
        with pytest.raises(FieldError):
            F169.zero.inverse()

    def test_pow(self):
        a = F169.element([3, 4])
        assert a ** 0 == F169.one
        assert a ** 1 == a
        assert a ** 5 == a * a * a * a * a
        assert a ** (-2) == (a * a).inverse()

    def test_field_order_exponent(self):
        # |F_169^*| = 168; Lagrange.
        a = F169.element([3, 4])
        assert a ** 168 == F169.one

    def test_conjugate(self):
        a = F169.element([3, 4])
        assert a.conjugate().coeffs == (3, 9)
        # Norm a * conj(a) lands in the base field.
        assert (a * a.conjugate()).coeffs[1] == 0

    def test_wrong_coeff_count_rejected(self):
        with pytest.raises(FieldError):
            F169.element([1, 2, 3])

    def test_cross_field_mix_rejected(self):
        other = ExtensionField(F13, [-2, 0, 0], name="F_13^3")
        with pytest.raises(FieldError):
            _ = F169.element([1, 2]) + other.element([1, 2, 3])


@settings(max_examples=50, deadline=None)
@given(
    c=st.tuples(*[st.integers(min_value=0, max_value=12)] * 2),
    d=st.tuples(*[st.integers(min_value=0, max_value=12)] * 2),
    e=st.tuples(*[st.integers(min_value=0, max_value=12)] * 2),
)
def test_extension_ring_axioms_property(c, d, e):
    a, b, g = F169.element(list(c)), F169.element(list(d)), F169.element(list(e))
    assert a * b == b * a
    assert (a * b) * g == a * (b * g)
    assert a * (b + g) == a * b + a * g


class TestFq12Tower:
    def test_bn128_fq12_inverse(self):
        eng = bn128_pairing()
        rng = random.Random(0)
        a = eng.fq12.element([rng.randrange(ALT_BN128_Q.modulus) for _ in range(12)])
        assert a * a.inverse() == eng.fq12.one

    def test_embedding_consistency(self):
        """i = w^6 - 9 in the BN128 tower: embedding Fq2 elements through
        the twist must respect multiplication."""
        eng = bn128_pairing()
        w6 = eng.fq12.element([0] * 6 + [1] + [0] * 5)
        i_embed = w6 - eng.fq12.from_base(9)
        assert i_embed * i_embed == eng.fq12.from_base(-1)

    def test_bls_embedding_consistency(self):
        eng = bls12_381_pairing()
        w6 = eng.fq12.element([0] * 6 + [1] + [0] * 5)
        i_embed = w6 - eng.fq12.from_base(1)
        assert i_embed * i_embed == eng.fq12.from_base(-1)


class TestBn128Pairing:
    """BN254 pairing — full bilinearity battery (fast enough to run)."""

    @pytest.fixture(scope="class")
    def base(self):
        eng = bn128_pairing()
        e = eng.pairing(bn128_g1.generator, bn128_g2.generator)
        return eng, e

    def test_nondegenerate(self, base):
        eng, e = base
        assert e != eng.fq12.one

    def test_bilinear_left(self, base):
        eng, e = base
        p2 = bn128_g1.scalar_mul(2, bn128_g1.generator)
        assert eng.pairing(p2, bn128_g2.generator) == e * e

    def test_bilinear_right(self, base):
        eng, e = base
        q3 = bn128_g2.scalar_mul(3, bn128_g2.generator)
        assert eng.pairing(bn128_g1.generator, q3) == e ** 3

    def test_bilinear_both(self, base):
        eng, e = base
        p5 = bn128_g1.scalar_mul(5, bn128_g1.generator)
        q7 = bn128_g2.scalar_mul(7, bn128_g2.generator)
        assert eng.pairing(p5, q7) == e ** 35

    def test_negation(self, base):
        eng, e = base
        pneg = bn128_g1.neg(bn128_g1.generator)
        assert eng.pairing(pneg, bn128_g2.generator) == e.inverse()

    def test_infinity_pairs_to_one(self, base):
        eng, _ = base
        assert eng.pairing(None, bn128_g2.generator) == eng.fq12.one
        assert eng.pairing(bn128_g1.generator, None) == eng.fq12.one

    def test_pairing_product_check(self, base):
        """e(P, Q) * e(-P, Q) == 1 via the batched product check."""
        eng, _ = base
        pairs = [
            (bn128_g1.generator, bn128_g2.generator),
            (bn128_g1.neg(bn128_g1.generator), bn128_g2.generator),
        ]
        assert eng.pairing_product_is_one(pairs)

    def test_pairing_product_check_rejects(self, base):
        eng, _ = base
        pairs = [
            (bn128_g1.generator, bn128_g2.generator),
            (bn128_g1.generator, bn128_g2.generator),
        ]
        assert not eng.pairing_product_is_one(pairs)


@pytest.mark.slow
class TestBls12381Pairing:
    """BLS12-381 pairing — one bilinearity check (slower field)."""

    def test_bilinearity(self):
        eng = bls12_381_pairing()
        e = eng.pairing(bls12_381_g1.generator, bls12_381_g2.generator)
        assert e != eng.fq12.one
        p2 = bls12_381_g1.scalar_mul(2, bls12_381_g1.generator)
        assert eng.pairing(p2, bls12_381_g2.generator) == e * e


# -- fast arithmetic against slow references kept here -----------------------------

QUADRATIC_FIELDS = [F169, BN128_FQ2, BLS_FQ2, MNT_FQ2]
ATE_ENGINES = [
    pytest.param(bn128_pairing, bn128_g1, bn128_g2, id="ALT-BN128"),
    pytest.param(bls12_381_pairing, bls12_381_g1, bls12_381_g2,
                 id="BLS12-381"),
]


def _schoolbook(a, b):
    """Reference product: schoolbook with a % p after every partial
    product, then reduction by the monic modulus."""
    field = a.field
    d, p, mc = field.degree, field.base.modulus, field.modulus_coeffs
    prod = [0] * (2 * d - 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            prod[i + j] = (prod[i + j] + x * y) % p
    for k in range(2 * d - 2, d - 1, -1):
        top, prod[k] = prod[k], 0
        for j in range(d):
            prod[k - d + j] = (prod[k - d + j] - top * mc[j]) % p
    return tuple(prod[:d])


def _euclid_inverse(a):
    """Reference inverse: the same element in a twin field with the
    quadratic closed form switched off, so ``inverse`` runs extended
    Euclid."""
    twin = ExtensionField(a.field.base, a.field.modulus_coeffs)
    twin._quad_c0 = None
    return twin.element(list(a.coeffs)).inverse().coeffs


@pytest.mark.parametrize("field", QUADRATIC_FIELDS, ids=lambda f: f.name)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_quadratic_closed_form_matches_reference(field, data):
    p = field.base.modulus
    coeff = st.one_of(st.sampled_from([0, 1, p - 1]),
                      st.integers(min_value=0, max_value=p - 1))
    a = field.element([data.draw(coeff), data.draw(coeff)])
    b = field.element([data.draw(coeff), data.draw(coeff)])
    imaginary = field.element([0, data.draw(coeff)])
    for x, y in ((a, b), (imaginary, b), (a, imaginary),
                 (imaginary, imaginary)):
        assert (x * y).coeffs == _schoolbook(x, y)
    for x in (a, b, imaginary):
        if x:
            assert x.inverse().coeffs == _euclid_inverse(x)
        else:
            with pytest.raises(FieldError):
                x.inverse()


@pytest.mark.parametrize("factory,g1,g2", ATE_ENGINES)
def test_fq12_mul_matches_schoolbook(factory, g1, g2):
    fq12 = factory().fq12
    p = fq12.base.modulus
    rng = random.Random(3)
    for density in (12, 5, 1):
        for _ in range(5):
            c = [0] * 12
            for i in rng.sample(range(12), density):
                c[i] = rng.choice([1, p - 1, rng.randrange(p)])
            a = fq12.element(c)
            b = fq12.element([rng.randrange(p) for _ in range(12)])
            assert (a * b).coeffs == _schoolbook(a, b)
            assert (b * a).coeffs == _schoolbook(b, a)


@pytest.mark.parametrize("factory,g1,g2", ATE_ENGINES)
def test_fq12_frobenius_matches_power(factory, g1, g2):
    fq12 = factory().fq12
    q = fq12.base.modulus
    rng = random.Random(4)
    x = fq12.element([rng.randrange(q) for _ in range(12)])
    for k in (1, 2, 3, 6):
        assert x.frobenius(k) == x ** (q ** k)
    assert x.frobenius(12) == x


@pytest.mark.parametrize("field", QUADRATIC_FIELDS, ids=lambda f: f.name)
def test_fq2_frobenius_is_conjugation(field):
    q = field.base.modulus
    rng = random.Random(5)
    for x in (field.element([rng.randrange(q), rng.randrange(q)]),
              field.element([0, 1]), field.one):
        assert x.frobenius(1) == x ** q == x.conjugate()


@pytest.mark.parametrize("factory,g1,g2", ATE_ENGINES)
def test_split_final_exponentiation_matches_direct_power(factory, g1, g2):
    eng = factory()
    q = eng.fq12.base.modulus
    exponent = (q ** 12 - 1) // eng.params.curve_order
    rng = random.Random(6)
    values = [eng.fq12.element([rng.randrange(q) for _ in range(12)])
              for _ in range(2)]
    values.append(eng.miller_loop(g2.scalar_mul(3, g2.generator),
                                  g1.scalar_mul(5, g1.generator)))
    for f in values:
        assert eng.final_exponentiate(f) == f ** exponent


def _textbook_miller(eng, q_pt, p_pt):
    """Reference Miller loop over the twisted point in E(Fq12): every
    slope and sum computed in Fq12, Frobenius by exponentiation."""
    fq12, prm = eng.fq12, eng.params
    w = fq12.element([0, 1] + [0] * 10)

    def untwist(a, k):
        a0, a1 = a.coeffs
        e = fq12.element([a0 - prm.twist_shift * a1] + [0] * 5 + [a1]
                         + [0] * 5)
        return e / w ** k if prm.m_twist else e * w ** k

    big_q = (untwist(q_pt[0], 2), untwist(q_pt[1], 3))
    xp, yp = fq12.from_base(p_pt[0]), fq12.from_base(p_pt[1])

    def line_and_sum(r, t):
        (x1, y1), (x2, y2) = r, t
        if x1 != x2:
            lam = (y2 - y1) / (x2 - x1)
        elif y1 == y2:
            lam = x1 * x1 * 3 / (y1 * 2)
        else:
            return xp - x1, None
        x3 = lam * lam - x1 - x2
        return lam * (xp - x1) - (yp - y1), (x3, lam * (x1 - x3) - y1)

    f, r = fq12.one, big_q
    for i in range(prm.log_ate_loop_count, -1, -1):
        line, r = line_and_sum(r, r)
        f = f * f * line
        if prm.ate_loop_count >> i & 1:
            line, r = line_and_sum(r, big_q)
            f = f * line
    if prm.bn_final_steps:
        q = fq12.base.modulus
        q1 = (big_q[0] ** q, big_q[1] ** q)
        nq2 = (q1[0] ** q, -(q1[1] ** q))
        line, r = line_and_sum(r, q1)
        f = f * line
        line, _ = line_and_sum(r, nq2)
        f = f * line
    return f


@pytest.mark.parametrize("factory,g1,g2", ATE_ENGINES)
def test_twist_side_miller_loop_matches_textbook(factory, g1, g2):
    eng = factory()
    q_pt = g2.scalar_mul(7, g2.generator)
    p_pt = g1.scalar_mul(11, g1.generator)
    assert eng.miller_loop(q_pt, p_pt) == _textbook_miller(eng, q_pt, p_pt)


@pytest.mark.parametrize("factory,g1,g2", ATE_ENGINES + [
    pytest.param(mnt4753_pairing, mnt4753_g1, None, id="MNT4753")])
def test_fresh_miller_loop_equals_prepared_replay(factory, g1, g2):
    eng = factory()
    g2 = g2 or mnt4753_g2_ready()
    q_pt = g2.scalar_mul(13, g2.generator)
    p_pt = g1.scalar_mul(17, g1.generator)
    # the loop runs over Q; the Tate engine evaluates at P lifted to Fq2
    embed = getattr(eng, "embed_g1", lambda p: p)
    fresh = eng.miller_loop(q_pt, embed(p_pt))
    assert fresh == eng.miller_pair(p_pt, q_pt)
    assert fresh == eng.miller_prepared(p_pt, eng.prepare_g2(q_pt))
