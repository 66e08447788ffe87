"""The pattern lattice: a relation between backward errors that needs no
sampling and no reference value.

A pattern P contained in a pattern Q leaves fewer blocks free, and the zero
perturbation of Q's extra blocks keeps every perturbation feasible for P
feasible for Q.  So eta_Q <= eta_P, and Q infeasible implies P infeasible.
Both are checked on all 50 pairs of a pattern inside another, at
well-scaled shifts, on generated small systems and on one system at each
benchmark ladder size."""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from rosen_bkerr.backward_error import all_patterns, backward_error
from support import random_system

PATTERNS = all_patterns()
PAIRS = [(p, q) for p in PATTERNS for q in PATTERNS if set(p.letters) < set(q.letters)]
# eta_Q may exceed eta_P by this relative rounding at most
_RTOL = 1e-8
# a shift is well scaled when sigma_min(S(lam)) exceeds this multiple of
# ||S(lam)||_1, as in the acceptance corpus; closer to an eigenvalue the
# Gram-based routes lose accuracy (ROADMAP item 3)
_WELL_SCALED = 1e-6


def test_the_lattice_has_fifty_pairs():
    assert len(PATTERNS) == 15 and len(PAIRS) == 50


def _check_lattice(system, lam):
    results = {p.letters: backward_error(system, lam, p) for p in PATTERNS}
    for small, large in PAIRS:
        sub, sup = results[small.letters], results[large.letters]
        if sup.infeasibility_witness is not None:
            assert sub.infeasibility_witness is not None, (small.letters, large.letters)
        assert sup.eta <= sub.eta * (1.0 + _RTOL), (small.letters, sub.eta, large.letters, sup.eta)


@st.composite
def _systems(draw):
    """A complex-normal system of shape up to (8, 12, 2) and a
    complex-normal shift, both from one seeded generator."""
    r, n, d = draw(st.integers(1, 8)), draw(st.integers(1, 12)), draw(st.integers(0, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    system = random_system(rng, r, n, d)
    return system, complex(rng.standard_normal(), rng.standard_normal())


@settings(
    derandomize=True,
    database=None,
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(_systems())
def test_adding_blocks_never_raises_eta(case):
    system, lam = case
    s = system.evaluate(lam)
    assume(np.linalg.svd(s, compute_uv=False)[-1] > _WELL_SCALED * np.abs(s).sum(axis=0).max())
    _check_lattice(system, lam)


@pytest.mark.parametrize("shape", [(20, 30, 2), (60, 60, 2), (10, 100, 1)])
def test_adding_blocks_never_raises_eta_at_ladder_sizes(shape):
    rng = np.random.default_rng([500, *shape])
    system = random_system(rng, *shape)
    lam = complex(rng.standard_normal(), rng.standard_normal())
    _check_lattice(system, lam)
