"""Fixed reference computations, timed alongside each workload.

The CPU speed of a shared virtual machine drifts by tens of percent over
minutes with the load its host carries, and CPU time drifts with it.  The
benchmark divides the CPU time of a call by that of a reference
computation, measured again and again in the same run, which gives a cost
that stays put when the whole machine speeds up or slows down.

Kinds of work drift by different amounts, so each workload is paired with
the computation most like its own: ``mixed`` for many small calls
(small LAPACK eigensolves, numpy work vectorized over a few thousand
samples, and plain Python arithmetic), ``lapack`` for large Hermitian
eigensolves.  Both call numpy only, never rosen_bkerr, so no change to the
library can change them.
"""

from __future__ import annotations

from time import thread_time

import numpy as np

_RNG = np.random.default_rng(20240703)
_SMALL = _RNG.standard_normal((8, 8)) + 1j * _RNG.standard_normal((8, 8))
_SMALL = _SMALL + _SMALL.conj().T
_SAMPLES = _RNG.standard_normal((2000, 4)) + 1j * _RNG.standard_normal((2000, 4))
_FORM = _RNG.standard_normal((4, 4)) + 1j * _RNG.standard_normal((4, 4))
_FORM = _FORM + _FORM.conj().T
_LARGE = _RNG.standard_normal((100, 100)) + 1j * _RNG.standard_normal((100, 100))
_LARGE = _LARGE + _LARGE.conj().T
ROUNDS = 20
LARGE_ROUNDS = 3
# The CPU milliseconds ``mixed`` takes on the 2-core machine the benchmark
# was built on, when quiet: set-up times are scaled to this speed.
MIXED_NOMINAL_MS = 5.0


def mixed() -> float:
    """CPU milliseconds, in the calling thread, of the mixed computation."""
    start = thread_time()
    acc = 0.0
    for _ in range(ROUNDS):
        _, vecs = np.linalg.eigh(_SMALL)
        x = vecs[:, 0]
        acc += float(np.real(np.vdot(x, _SMALL @ x)))
        q = np.einsum("ij,jk,ik->i", _SAMPLES.conj(), _FORM, _SAMPLES).real
        acc += float(q.min())
        for k in range(200):
            acc += (k * 0.5) / (1.0 + acc * 1e-9)
    if not np.isfinite(acc):
        raise RuntimeError("reference computation gave a non-finite value")
    return (thread_time() - start) * 1e3


def lapack() -> float:
    """CPU milliseconds, in the calling thread, of eigensolves of order 100."""
    start = thread_time()
    for _ in range(LARGE_ROUNDS):
        w, _ = np.linalg.eigh(_LARGE)
    if not np.isfinite(w).all():
        raise RuntimeError("reference computation gave a non-finite value")
    return (thread_time() - start) * 1e3
