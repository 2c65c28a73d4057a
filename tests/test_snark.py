"""Tests for the zkSNARK layer: R1CS, QAP, Groth16 setup/prove/verify."""

import random

import pytest

from repro.circuits import CircuitBuilder
from repro.curves import CURVES
from repro.errors import CircuitError, ProofError
from repro.ff import ALT_BN128_R
from repro.snark import (
    Groth16Prover,
    Groth16Verifier,
    R1CS,
    TrapdoorChecker,
    setup,
)

CURVE = CURVES["ALT-BN128"]
F = CURVE.fr


def product_circuit():
    """x * y = out (public), x + y = s (public)."""
    r1cs = R1CS(field=F, n_public=2)
    x = r1cs.new_variable()
    y = r1cs.new_variable()
    r1cs.add_constraint({x: 1}, {y: 1}, {1: 1})
    r1cs.add_constraint({x: 1, y: 1}, {0: 1}, {2: 1})
    assignment = [1, 6 * 7, 6 + 7, 6, 7]
    return r1cs, assignment


@pytest.fixture(scope="module")
def keys_and_circuit():
    r1cs, assignment = product_circuit()
    keys = setup(r1cs, CURVE, random.Random(42))
    return r1cs, assignment, keys


class TestR1CS:
    def test_satisfaction(self):
        r1cs, assignment = product_circuit()
        assert r1cs.is_satisfied(assignment)
        bad = list(assignment)
        bad[1] = 43
        assert not r1cs.is_satisfied(bad)

    def test_assignment_shape_checked(self):
        r1cs, assignment = product_circuit()
        with pytest.raises(CircuitError):
            r1cs.is_satisfied(assignment[:-1])
        with pytest.raises(CircuitError):
            r1cs.is_satisfied([0] + assignment[1:])

    def test_unknown_variable_rejected(self):
        r1cs = R1CS(field=F, n_public=0)
        with pytest.raises(CircuitError):
            r1cs.add_constraint({99: 1}, {0: 1}, {0: 1})

    def test_domain_size_power_of_two(self):
        r1cs, _ = product_circuit()
        assert r1cs.domain_size() == 2
        for _ in range(3):
            r1cs.add_constraint({0: 0}, {0: 0}, {0: 0})
        assert r1cs.domain_size() == 8

    def test_abc_evaluations(self):
        r1cs, assignment = product_circuit()
        a, b, c = r1cs.abc_evaluations(assignment)
        # Constraint 0: x * y = out.
        assert a[0] == 6 and b[0] == 7 and c[0] == 42
        # Constraint 1: (x + y) * 1 = s.
        assert a[1] == 13 and b[1] == 1 and c[1] == 13
        # Pointwise satisfaction on the domain.
        p = F.modulus
        assert all(ai * bi % p == ci for ai, bi, ci in zip(a, b, c))

    def test_lagrange_values_sum_to_one(self):
        """sum_i L_i(tau) = 1 for any tau (partition of unity)."""
        r1cs, _ = product_circuit()
        tau = 0xABCDEF
        lagrange = r1cs._lagrange_at(tau, 8)
        assert sum(lagrange) % F.modulus == 1

    def test_lagrange_on_domain_point(self):
        """L_i at a domain point omega^j is the Kronecker delta."""
        r1cs, _ = product_circuit()
        omega = F.root_of_unity(8)
        lagrange = r1cs._lagrange_at(pow(omega, 3, F.modulus), 8)
        assert lagrange[3] == 1
        assert all(v == 0 for i, v in enumerate(lagrange) if i != 3)

    def test_variable_polynomials_interpolate(self):
        """u_j(omega^i) must equal A_i[j] (column interpolation)."""
        r1cs, _ = product_circuit()
        omega = F.root_of_unity(r1cs.domain_size())
        x_var = 3
        u, v, w = r1cs.variable_polynomials_at(pow(omega, 0, F.modulus))
        assert u[x_var] == 1  # A_0[x] = 1
        u, v, w = r1cs.variable_polynomials_at(pow(omega, 1, F.modulus))
        assert u[x_var] == 1  # A_1[x] = 1
        assert v[x_var] == 0  # B_1[x] = 0


class TestSetup:
    def test_key_shapes(self, keys_and_circuit):
        r1cs, _, keys = keys_and_circuit
        pk, vk = keys.proving_key, keys.verifying_key
        assert len(pk.a_query) == r1cs.n_variables
        assert len(pk.b_g2_query) == r1cs.n_variables
        assert len(pk.c_query) == r1cs.n_variables - 1 - r1cs.n_public
        assert len(pk.h_query) == r1cs.domain_size() - 1
        assert len(vk.ic) == 1 + r1cs.n_public

    def test_key_points_on_curve(self, keys_and_circuit):
        _, _, keys = keys_and_circuit
        g1, g2 = CURVE.g1, CURVE.g2
        pk = keys.proving_key
        for p in pk.a_query + pk.b_g1_query + pk.c_query + pk.h_query:
            assert g1.is_on_curve(p)
        for p in pk.b_g2_query:
            assert g2.is_on_curve(p)

    def test_a_query_encodes_u_at_tau(self, keys_and_circuit):
        """White-box: a_query[j] must equal u_j(tau) * G1."""
        r1cs, _, keys = keys_and_circuit
        u, _, _ = r1cs.variable_polynomials_at(keys.trapdoor.tau)
        g1 = CURVE.g1
        for j, point in enumerate(keys.proving_key.a_query):
            assert point == g1.scalar_mul(u[j], g1.generator)

    def test_wrong_field_rejected(self):
        r1cs = R1CS(field=CURVES["BLS12-381"].fr, n_public=0)
        r1cs.add_constraint({0: 1}, {0: 1}, {0: 1})
        with pytest.raises(ProofError):
            setup(r1cs, CURVE, random.Random(0))


class TestProveVerify:
    def test_honest_proof_verifies(self, keys_and_circuit):
        r1cs, assignment, keys = keys_and_circuit
        prover = Groth16Prover(r1cs, keys.proving_key, CURVE)
        proof = prover.prove(assignment, random.Random(1))
        verifier = Groth16Verifier(keys.verifying_key, CURVE)
        assert verifier.verify(proof, assignment[1:3])

    def test_unsatisfying_assignment_rejected_by_prover(self, keys_and_circuit):
        r1cs, assignment, keys = keys_and_circuit
        prover = Groth16Prover(r1cs, keys.proving_key, CURVE)
        bad = list(assignment)
        bad[3] = 5  # x no longer matches
        with pytest.raises(ProofError):
            prover.prove(bad)

    def test_wrong_public_input_rejected(self, keys_and_circuit):
        r1cs, assignment, keys = keys_and_circuit
        prover = Groth16Prover(r1cs, keys.proving_key, CURVE)
        proof = prover.prove(assignment, random.Random(2))
        verifier = Groth16Verifier(keys.verifying_key, CURVE)
        assert not verifier.verify(proof, [43, 13])

    def test_tampered_proof_rejected(self, keys_and_circuit):
        r1cs, assignment, keys = keys_and_circuit
        prover = Groth16Prover(r1cs, keys.proving_key, CURVE)
        proof = prover.prove(assignment, random.Random(3))
        verifier = Groth16Verifier(keys.verifying_key, CURVE)
        g1 = CURVE.g1
        tampered = type(proof)(
            a=g1.add(proof.a, g1.generator), b=proof.b, c=proof.c
        )
        assert not verifier.verify(tampered, assignment[1:3])

    def test_single_verify_pairing_economics(self, keys_and_circuit):
        """One verify is 4 Miller loops (one fresh, three replays of the
        key's prepared G2 lines) and 1 final exponentiation; the lines
        are built lazily on the first verify under a key, then reused."""
        from repro.ff.opcount import OpCounter

        r1cs, assignment, _ = keys_and_circuit
        keys = setup(r1cs, CURVE, random.Random(4242))  # a key no test saw
        proof = Groth16Prover(r1cs, keys.proving_key, CURVE).prove(
            assignment, random.Random(4))
        verifier = Groth16Verifier(keys.verifying_key, CURVE)
        g1 = CURVE.g1
        forged = type(proof)(a=g1.add(proof.a, g1.generator), b=proof.b,
                             c=proof.c)
        for candidate, verdict, builds in ((proof, True, 3), (proof, True, 0),
                                           (forged, False, 0)):
            counter = OpCounter()
            assert verifier.verify(candidate, assignment[1:3],
                                   counter=counter) is verdict
            assert counter.total("miller_loop") == 4
            assert counter.total("final_exp") == 1
            assert counter.total("g2_precomp") == builds

    def test_off_curve_proof_rejected(self, keys_and_circuit):
        r1cs, assignment, keys = keys_and_circuit
        prover = Groth16Prover(r1cs, keys.proving_key, CURVE)
        proof = prover.prove(assignment, random.Random(4))
        verifier = Groth16Verifier(keys.verifying_key, CURVE)
        fake = type(proof)(a=(1234, 5678), b=proof.b, c=proof.c)
        assert not verifier.verify(fake, assignment[1:3])

    def test_infinity_proof_rejected(self, keys_and_circuit):
        r1cs, assignment, keys = keys_and_circuit
        prover = Groth16Prover(r1cs, keys.proving_key, CURVE)
        proof = prover.prove(assignment, random.Random(5))
        verifier = Groth16Verifier(keys.verifying_key, CURVE)
        assert not verifier.verify(
            type(proof)(a=None, b=proof.b, c=proof.c), assignment[1:3]
        )

    def test_zero_knowledge_randomisation(self, keys_and_circuit):
        """Two proofs of the same statement must differ (the r, s
        masks), yet both verify."""
        r1cs, assignment, keys = keys_and_circuit
        prover = Groth16Prover(r1cs, keys.proving_key, CURVE)
        p1 = prover.prove(assignment, random.Random(6))
        p2 = prover.prove(assignment, random.Random(7))
        assert p1.a != p2.a and p1.c != p2.c
        verifier = Groth16Verifier(keys.verifying_key, CURVE)
        assert verifier.verify(p1, assignment[1:3])
        assert verifier.verify(p2, assignment[1:3])

    def test_wrong_public_count_raises(self, keys_and_circuit):
        r1cs, assignment, keys = keys_and_circuit
        prover = Groth16Prover(r1cs, keys.proving_key, CURVE)
        proof = prover.prove(assignment, random.Random(8))
        verifier = Groth16Verifier(keys.verifying_key, CURVE)
        with pytest.raises(ProofError):
            verifier.verify(proof, [42])

    def test_proof_is_succinct(self, keys_and_circuit):
        r1cs, assignment, keys = keys_and_circuit
        prover = Groth16Prover(r1cs, keys.proving_key, CURVE)
        proof = prover.prove(assignment, random.Random(9))
        # §2.1: proof sizes < 1 KB regardless of circuit complexity.
        assert proof.size_bytes(CURVE) < 1024


class TestTrapdoorChecker:
    def test_accepts_satisfying(self, keys_and_circuit):
        r1cs, assignment, keys = keys_and_circuit
        checker = TrapdoorChecker(r1cs, keys.trapdoor, CURVE)
        assert checker.qap_satisfied_at_tau(assignment)

    def test_rejects_unsatisfying(self, keys_and_circuit):
        r1cs, assignment, keys = keys_and_circuit
        checker = TrapdoorChecker(r1cs, keys.trapdoor, CURVE)
        bad = list(assignment)
        bad[3] = 999
        assert not checker.qap_satisfied_at_tau(bad)


class TestProverWithBuilder:
    def test_builder_circuit_roundtrip(self):
        builder = CircuitBuilder(F, n_public=1)
        a = builder.witness(9)
        cube = builder.pow_const(a, 3)
        pub = builder.set_public(builder.value(cube))
        builder.assert_equal(cube, pub)
        r1cs = builder.build()
        keys = setup(r1cs, CURVE, random.Random(10))
        prover = Groth16Prover(r1cs, keys.proving_key, CURVE)
        proof = prover.prove(builder.assignment, random.Random(11))
        verifier = Groth16Verifier(keys.verifying_key, CURVE)
        assert verifier.verify(proof, [729])
        assert not verifier.verify(proof, [730])
