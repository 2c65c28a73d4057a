"""NativeBackend: the runtime-compiled C kernels as a compute backend.

Every batch op here dispatches to :mod:`repro.backend.native` — CIOS
Montgomery word kernels for NTT sweeps and pointwise products, the
fused Jacobian point kernels and the segmented batch-affine bucket tree
of :mod:`repro.backend.native_curve` for the MSM hot path — plus a
vectorized numpy scalar front end (:meth:`NativeBackend.digits_matrix`)
and a log-depth bucket reduction with analytic op counts.

Wherever the compiled kernels cannot serve an operand (a modulus wider
than the kernels' scratch, an unsupported coordinate field, a batch too
small to pay for conversion) the op runs the inherited scalar
:class:`~repro.backend.base.ComputeBackend` method instead. When the
kernels cannot load at all, :func:`repro.backend.get_backend` hands out
the ``python`` backend for the name ``native``. All results are
bit-identical to :class:`~repro.backend.pybackend.PythonBackend` and
op-count totals match — enforced by the cross-backend equality tests.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as _np

from repro.analysis.declass import declassify
from repro.backend import coverage as _coverage
from repro.backend import native_curve as _nc
from repro.backend.base import ComputeBackend
from repro.backend.native import get_native_field

__all__ = ["NativeBackend"]


class NativeBackend(ComputeBackend):
    """The compiled-kernel floor; overrides the ops where batching
    pays. NTT sweeps and pointwise products run as native word-row
    kernels; curve ops route to :mod:`repro.backend.native_curve` (fused
    Jacobian kernels with scalar-patched special lanes, and the
    segmented batch-affine bucket tree). Small batches, moduli the
    kernels cannot serve and unsupported coordinate fields fall back to
    the inherited scalar loops."""

    name = "native"
    fuses_ntt_sweeps = True

    # -- fused NTT sweeps -------------------------------------------------------

    def ntt(self, field, values: Sequence[int], omega: Optional[int] = None,
            counter=None) -> List[int]:
        n = len(values)
        if n < 2:
            return super().ntt(field, values, omega, counter)
        nf = get_native_field(field.modulus)
        if nf is None:
            _coverage.note("ntt", "fallback")
            return super().ntt(field, values, omega, counter)
        if n & (n - 1):
            # Match the reference's error pathway for bad sizes.
            from repro.ntt.reference import _check_size

            _check_size(n)
        a = [v % field.modulus for v in values]
        if omega is None:
            omega = field.root_of_unity(n)
        if counter is not None:
            # Identical totals to the scalar sweep's per-iteration counts.
            log_n = n.bit_length() - 1
            counter.count("butterfly", (n // 2) * log_n)
            counter.count("fr_mul", (n // 2) * log_n)
            counter.count("fr_add", n * log_n)
        # Native Stockham sweep over the shared twiddle table, canonical
        # ints out — the counts above already cover it.
        _coverage.note("ntt", "native")
        return nf.ntt_ints(field, a, omega)

    def intt(self, field, values: Sequence[int], counter=None) -> List[int]:
        """Inverse sweep; the 1/N scale runs through :meth:`vscale`
        (native broadcast mul when available) with the reference's
        fr_mul count."""
        a = self.ntt(field, values,
                     omega=field.inv_root_of_unity(len(values)),
                     counter=counter)
        n = len(a)
        if counter is not None:
            counter.count("fr_mul", n)
        return self.vscale(field, a, field.inv(n))

    # -- batch field arithmetic -------------------------------------------------

    def vmul_powers(self, field, xs: Sequence[int], g: int) -> List[int]:
        """Coset scaling without the serial Python dependency: raw rows
        times the cached Montgomery power ladder g^i — one CIOS mul per
        element, the ladder built by one sequential C sweep. Residues
        match the scalar accumulator loop exactly."""
        if len(xs) >= 2:
            p = field.modulus
            nf = get_native_field(p)
            if nf is not None:
                _coverage.note("pointwise", "native")
                return nf.vmul_powers_ints([x % p for x in xs], g % p)
            _coverage.note("pointwise", "fallback")
        return super().vmul_powers(field, xs, g)

    def vmul(self, field, xs: Sequence[int], ys: Sequence[int]) -> List[int]:
        """Two batched CIOS muls (x*y*R^-1, then fold by R^2) with no
        per-element Python arithmetic."""
        if not xs:
            return []
        p = field.modulus
        nf = get_native_field(p)
        if nf is None:
            _coverage.note("pointwise", "fallback")
            return super().vmul(field, xs, ys)
        _coverage.note("pointwise", "native")
        return nf.vmul_ints([x % p for x in xs], [y % p for y in ys])

    def vscale(self, field, xs: Sequence[int], k: int) -> List[int]:
        """Whole-vector scale by one constant: a broadcast native mul
        against the Montgomery row of k when the kernels are loaded
        (the inverse NTT's 1/N scale and the quotient's z_inv scale),
        scalar loop otherwise."""
        if len(xs) >= 2:
            nf = get_native_field(field.modulus)
            if nf is not None:
                p = field.modulus
                _coverage.note("pointwise", "native")
                return nf.vscale_ints([x % p for x in xs], k)
            _coverage.note("pointwise", "fallback")
        return super().vscale(field, xs, k)

    # -- scalar front-end -------------------------------------------------------

    @declassify("MSM scalar front-end (vectorized): digit matrices "
                "feed bucket routing, GZKP's public workload shape "
                "(Figure 6)")
    def digits_matrix(self, scalars: Sequence[int], scalar_bits: int,
                      window: int) -> "_np.ndarray":
        """All windows of all scalars at once: the scalar vector becomes
        one little-endian 32-bit word matrix, and each window column is
        two word lanes shifted and masked — no per-(scalar, window)
        Python loop. Returns an ``(n, windows)`` int64 array whose rows
        equal :func:`repro.msm.windows.scalar_digits` exactly."""
        from repro.msm.windows import num_windows

        w = num_windows(scalar_bits, window)
        n = len(scalars)
        if n == 0:
            return _np.zeros((0, w), dtype=_np.int64)
        if window > 30:
            # Two 32-bit word lanes cover any window <= 30 without
            # overflowing int64; wider windows take the scalar loop.
            return _np.array(super().digits_matrix(scalars, scalar_bits,
                                                   window), dtype=_np.int64)
        # Cover every bit any window reads (the top window may reach
        # past scalar_bits), plus one guard word for the two-lane reads.
        w32 = (max(scalar_bits, w * window) + 31) // 32
        try:
            buf = b"".join(s.to_bytes(4 * w32, "little") for s in scalars)
        except OverflowError:
            # Negative (raises MsmError downstream) or oversized
            # scalars: delegate to the exact scalar path.
            return _np.array(super().digits_matrix(scalars, scalar_bits,
                                                   window), dtype=_np.int64)
        words = _np.frombuffer(buf, dtype="<u4").reshape(n, w32)
        words = _np.concatenate(
            [words.astype(_np.int64),
             _np.zeros((n, 1), dtype=_np.int64)], axis=1,
        )
        mask = (1 << window) - 1
        out = _np.empty((n, w), dtype=_np.int64)
        for t in range(w):
            wi, r = divmod(t * window, 32)
            acc = words[:, wi] >> r
            if r + window > 32:
                acc = acc | (words[:, wi + 1] << (32 - r))
            _np.bitwise_and(acc, mask, out=out[:, t])
        return out

    # -- batch curve ops --------------------------------------------------------

    def batch_jdouble(self, group, points: Sequence) -> List:
        if len(points) >= _nc.MIN_VECTOR_LANES:
            return _nc.batch_jdouble(group, points)
        return super().batch_jdouble(group, points)

    def batch_jadd(self, group, ps: Sequence, qs: Sequence) -> List:
        if len(ps) >= _nc.MIN_VECTOR_LANES:
            return _nc.batch_jadd(group, ps, qs)
        return super().batch_jadd(group, ps, qs)

    def batch_jmixed_add(self, group, ps: Sequence, qs: Sequence) -> List:
        if len(ps) >= _nc.MIN_VECTOR_LANES:
            return _nc.batch_jmixed_add(group, ps, qs)
        return super().batch_jmixed_add(group, ps, qs)

    def accumulate_buckets(self, group, buckets: List, entries) -> List:
        out = _nc.accumulate_buckets_segmented(group, buckets, entries)
        if out is None:  # too small / unsupported field / no native kernels
            return super().accumulate_buckets(group, buckets, entries)
        _coverage.note("jacobian", "native")
        return out

    def bucket_reduce(self, group, buckets: Sequence):
        """Log-depth batched suffix scan: suffix sums via Hillis-Steele
        rounds of :meth:`batch_jadd`, then a log-depth tree sum — the
        parallel-prefix structure of §4.1's final step, with each round
        one SoA batch call instead of a serial 2-PADD-per-bucket chain.

        Count contract (see the base method): the scan performs more
        jadds than the ordered fold, so counting is detached from the
        group during the batched rounds and the fold's exact
        data-dependent PADD total — derivable from the bucket infinity
        mask alone, outside the documented discrete-log-rare collision
        window — is emitted analytically, keeping python/native op
        totals identical."""
        m = len(buckets)
        if m < _nc.MIN_VECTOR_LANES or not _nc.supports_group(group):
            # the scan does ~m log m jadds: only worth it on the kernels
            return super().bucket_reduce(group, buckets)

        counter = group.counter
        if counter is not None:
            # The ordered fold counts one padd per jadd whose operands
            # are both finite; running/total go (and stay) finite as
            # soon as they absorb the first finite bucket. One formal
            # equality exists: right after the first finite bucket, if
            # the next bucket is empty, total == running (both equal
            # that bucket) and jadd routes to jdouble — the only
            # mask-determined pdbl in the fold.
            padds = pdbl = 0
            seen = 0
            first = None
            for t, b in enumerate(reversed(buckets)):
                finite = not group.jis_infinity(b)
                if finite:
                    seen += 1
                    if first is None:
                        first = t
                    elif seen > 1:
                        padds += 1          # running-chain add
                if first is not None and t > first:
                    padds += 1              # total-chain event
                    if t == first + 1 and not finite:
                        pdbl += 1           # equality -> jdouble
            if padds:
                counter.count("padd", padds)
            if pdbl:
                counter.count("pdbl", pdbl)
            group.counter = None
        try:
            # suffix[j] = buckets[j] + ... + buckets[m-1]: a prefix scan
            # over the reversed array, log2(m) batched rounds.
            suffix = list(reversed(buckets))
            distance = 1
            while distance < m:
                merged = self.batch_jadd(group, suffix[distance:],
                                         suffix[:m - distance])
                suffix[distance:] = merged
                distance <<= 1
            # total = sum of all suffix sums, as a log-depth tree.
            values = suffix
            while len(values) > 1:
                half = len(values) // 2
                paired = self.batch_jadd(group, values[0:2 * half:2],
                                         values[1:2 * half:2])
                if len(values) % 2:
                    paired.append(values[-1])
                values = paired
            return values[0]
        finally:
            if counter is not None:
                group.counter = counter
