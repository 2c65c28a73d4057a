"""Cost-model autotuner: search determinism, disk round-trip, and the
certifier gate every tuned profile must clear."""

import random

import pytest

from repro.backend.autotune import (
    WINDOW_RANGE,
    KernelAutotuner,
    TunedProfile,
    TuningError,
)
from repro.curves import CURVES


@pytest.fixture()
def private_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
    return tmp_path


def test_msm_search_beats_or_matches_defaults(private_cache):
    """The joint (k, M) search must never model slower than the
    profiler default it replaces."""
    from repro.backend.autotune import _native_point_muls
    from repro.gpusim import V100
    from repro.msm.gzkp import GzkpMsm

    curve = CURVES["ALT-BN128"]
    engine = GzkpMsm(curve.g1, curve.fr.bits, V100)
    tuner = KernelAutotuner(persist=False)
    n = 512
    cfg = tuner.msm_config(engine, n)
    assert cfg.window in WINDOW_RANGE
    # the profiler default fixes M = _interval_for(n, k); the joint
    # search includes every such point, so it can only improve --
    # replayed under the same point-op pricing the search used
    pm = _native_point_muls(engine)
    default_best = min(
        V100.time_of(engine._plan_with_cfg(
            n, engine._make_config(n, k, engine._interval_for(n, k)),
            None, point_muls=pm))
        for k in WINDOW_RANGE
    )
    tuned = V100.time_of(engine._plan_with_cfg(n, cfg, None, point_muls=pm))
    assert tuned <= default_best + 1e-12


def test_profile_search_is_deterministic(private_cache):
    curve = CURVES["ALT-BN128"]
    a = KernelAutotuner(persist=False).profile(curve, 256)
    b = KernelAutotuner(persist=False).profile(curve, 256)
    assert (a.g1_window, a.g1_interval, a.g2_window, a.g2_interval) == \
        (b.g1_window, b.g1_interval, b.g2_window, b.g2_interval)
    assert a.source == b.source == "search"
    # the profile carries the compiled kernels' machine-checked
    # certificates, all passing
    assert isinstance(a, TunedProfile)
    assert set(a.certificate) == {"native-mont", "native-jacobian"}
    assert all(c["ok"] for c in a.certificate.values())


def test_profile_disk_round_trip(private_cache):
    curve = CURVES["BLS12-381"]
    fresh = KernelAutotuner().profile(curve, 256)
    assert fresh.source == "search"
    reloaded = KernelAutotuner().profile(curve, 256)
    assert reloaded.source == "disk"
    assert (reloaded.g1_window, reloaded.g1_interval,
            reloaded.g2_window, reloaded.g2_interval) == \
        (fresh.g1_window, fresh.g1_interval,
         fresh.g2_window, fresh.g2_interval)


def test_tampered_profile_is_resought(private_cache):
    """A profile edited to an out-of-range window fails revalidation
    and triggers a fresh search — never a blind trust of disk state."""
    import json
    import os

    curve = CURVES["ALT-BN128"]
    tuner = KernelAutotuner()
    prof = tuner.profile(curve, 256)
    path = tuner._profile_path(curve.name, 256, prof.device)
    payload = json.loads(open(path).read())
    payload["g1_window"] = 99  # outside WINDOW_RANGE
    with open(path, "w") as fh:
        json.dump(payload, fh)
    reloaded = KernelAutotuner().profile(curve, 256)
    assert reloaded.source == "search"
    assert reloaded.g1_window == prof.g1_window
    assert os.path.exists(path)


def test_profile_with_carry_cadence_is_resought(private_cache):
    """A version-1 profile on disk (it still carries the retired
    ``clean_every`` cadence) is searched again instead of loaded, and
    never crashes the tuner."""
    import json

    curve = CURVES["ALT-BN128"]
    tuner = KernelAutotuner()
    prof = tuner.profile(curve, 256)
    path = tuner._profile_path(curve.name, 256, prof.device)
    payload = json.loads(open(path).read())
    payload.update(version=1, clean_every=12)
    with open(path, "w") as fh:
        json.dump(payload, fh)
    reloaded = KernelAutotuner().profile(curve, 256)
    assert reloaded.source == "search"
    assert reloaded.g1_window == prof.g1_window
    assert "clean_every" not in json.loads(open(path).read())


def test_uncertifiable_modulus_raises(private_cache):
    tuner = KernelAutotuner(persist=False)
    with pytest.raises(TuningError, match="native-mont"):
        tuner.certify((1 << 64) - 2, "even")  # no n0inv exists


def test_autotuned_proof_is_byte_identical(private_cache):
    """Tuning changes throughput knobs only: an autotuned prover and a
    default prover emit the same group elements with identical masks."""
    from repro.circuits import merkle_tree_circuit
    from repro.snark import setup
    from repro.snark.gzkp_prover import make_gzkp_prover

    curve = CURVES["ALT-BN128"]
    r1cs, assignment = merkle_tree_circuit(curve.fr, depth=2, seed=31)
    keys = setup(r1cs, curve, random.Random(31))
    plain = make_gzkp_prover(r1cs, keys.proving_key, curve,
                             msm_window=6, msm_interval=3)
    tuned = make_gzkp_prover(r1cs, keys.proving_key, curve,
                             autotune=True)
    assert tuned.tuner is not None
    p_plain = plain._prove_with_masks(assignment, 12345, 67890)
    p_tuned = tuned._prove_with_masks(assignment, 12345, 67890)
    assert (p_plain.a, p_plain.b, p_plain.c) == \
        (p_tuned.a, p_tuned.b, p_tuned.c)
