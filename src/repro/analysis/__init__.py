"""Kernel-safety static analysis: limb-bound certifier + repo lints.

Import-light on purpose: the kernels themselves import
:func:`repro.analysis.declass.declassify` (``repro.backend.base``,
``repro.msm.windows``, the service worker), so this package must not
import backend modules at import time (the certifier imports
``repro.ff.params`` lazily).

Entry points:

* ``python -m repro.analysis [paths...]`` — run both engines.
* :func:`repro.analysis.bounds.certify_all` — certificates for every
  registered modulus and kernel family.
* :func:`repro.analysis.lint.run_lint` — rule findings for a file set.
"""
