"""Limb-bound certifier: the dfp and native kernel certificates."""

import pytest

from repro.analysis.bounds import (
    certify_all,
    certify_dfp,
    certify_modulus,
    certify_native_mont,
)
from repro.analysis.report import AnalysisReport
from repro.ff.params import BASE_FIELDS, SCALAR_FIELDS

ALL_FIELDS = sorted(
    {f.modulus for f in list(SCALAR_FIELDS.values())
     + list(BASE_FIELDS.values())}
)
BN254_R = SCALAR_FIELDS["ALT-BN128"].modulus


def test_certify_all_passes_at_head():
    certs = certify_all()
    # 3 families x 6 distinct moduli (Fr + Fq of three curves)
    assert len(certs) == 18
    assert {c.family for c in certs} == {"dfp", "native-mont",
                                         "native-jacobian"}
    bad = [(c.family, c.modulus_name, [v.name for v in c.violations()])
           for c in certs if not c.ok]
    assert bad == []


@pytest.mark.parametrize("modulus", ALL_FIELDS)
def test_every_family_certifies(modulus):
    for cert in certify_modulus("m", modulus):
        assert cert.ok, [v.name for v in cert.violations()]
        assert cert.checks, "empty certificate proves nothing"


def test_native_mont_certificate_mirrors_loader_gate():
    from repro.backend import native

    cert = certify_native_mont("ALT-BN128.Fr", BN254_R)
    assert cert.ok
    assert cert.family == "native-mont"
    # The certificate's width cap must agree with the loader's actual
    # MAX_WORDS gate (get_native_field refuses w > MAX_WORDS - 2).
    assert cert.params["max_words"] == native.MAX_WORDS
    width = cert.check("cios/scratch-width")
    assert width is not None
    assert width.limit == native.MAX_WORDS - 1


def test_native_mont_rejects_even_and_oversized_moduli():
    # An even modulus has no n0inv: structural violation.
    cert = certify_native_mont("even", (1 << 64) - 2)
    assert not cert.ok
    assert "cios/odd-modulus" in {v.name for v in cert.violations()}
    # A modulus wider than the scratch gate fails the width check —
    # exactly the inputs get_native_field refuses at runtime.
    huge = (1 << (64 * 31)) - 3
    cert = certify_native_mont("huge", huge)
    assert not cert.ok
    assert "cios/scratch-width" in {v.name for v in cert.violations()}


def test_dfp_certificate_structure():
    cert = certify_dfp("ALT-BN128.Fr", BN254_R)
    assert cert.ok
    w = cert.witnesses["two_product"]
    assert w["limb"] == (1 << 52) - 1
    assert w["magnitude"] == w["limb"] * w["limb"]


def test_report_json_round_trips():
    import json

    report = AnalysisReport(certificates=certify_modulus("m", BN254_R))
    data = json.loads(report.to_json())
    assert data["ok"] is True
    assert len(data["certificates"]) == 3
    for cert in data["certificates"]:
        for check in cert["checks"]:
            assert check["bound"] < check["limit"]
