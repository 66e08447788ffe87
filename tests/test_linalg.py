"""Kernel-level tests: eigen/pencil solvers against congruence and sampling
oracles, null spaces against SVD ranks, and the minimal-map contract."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from rosen_bkerr import linalg


def test_hermitian_part_measures_asymmetry():
    h2 = linalg.hermitian_part([[1.0, 2.0], [0.0, 5.0]])
    assert np.allclose(h2, [[1.0, 1.0], [1.0, 5.0]])


def test_as_complex_matrix_rejects_bad_input():
    with pytest.raises(ValueError):
        linalg.as_complex_matrix([1.0, 2.0])
    with pytest.raises(ValueError):
        linalg.as_complex_matrix([[np.nan, 0.0], [0.0, 1.0]])


def test_fix_phase_makes_leading_entry_real():
    v = np.array([0.3 - 0.1j, -0.8j, 0.2])
    out = linalg.fix_phase(v)
    j = int(np.argmax(np.abs(out)))
    assert out[j].imag == pytest.approx(0.0, abs=1e-15)
    assert out[j].real > 0
    assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(v), rel=1e-14)


def test_normalize_zero_raises():
    with pytest.raises(ValueError):
        linalg.normalize(np.zeros(3))


def test_definite_pencil_identity_rhs():
    value, vec = linalg.definite_pencil_smallest(np.diag([2.0, 6.0]), np.eye(2))
    assert value == pytest.approx(2.0, abs=1e-14)
    assert abs(vec[0]) == pytest.approx(1.0, abs=1e-12)


def test_definite_pencil_diagonal():
    # ratios are 4/2 = 2 and 9/3 = 3
    value, vec = linalg.definite_pencil_smallest(np.diag([4.0, 9.0]), np.diag([2.0, 3.0]))
    assert value == pytest.approx(2.0, abs=1e-14)
    assert abs(vec[0]) == pytest.approx(1.0, abs=1e-12)


def test_definite_pencil_matches_congruence_oracle():
    rng = np.random.default_rng(3)
    for _ in range(5):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        m = a + a.conj().T
        l = np.tril(rng.standard_normal((4, 4)))
        np.fill_diagonal(l, np.abs(l.diagonal()) + 1.0)
        n = l @ l.conj().T
        linv = np.linalg.inv(l)
        oracle = np.linalg.eigvalsh(linv @ m @ linv.conj().T)[0]
        value, vec = linalg.definite_pencil_smallest(m, n)
        assert value == pytest.approx(float(oracle), abs=1e-10)
        resid = m @ vec - value * (n @ vec)
        assert np.linalg.norm(resid) < 1e-9 * (linalg.norm1(m) + linalg.norm1(n))


def test_definite_pencil_rejects_singular_rhs():
    with pytest.raises(linalg.NotPositiveDefiniteError):
        linalg.definite_pencil_smallest(np.eye(2), np.diag([1.0, 0.0]))


def test_semidefinite_pencil_couples_through_nullspace():
    # N = diag(1, 0); minimizing over the free second coordinate gives the
    # Schur complement 2 - 1*1 = 1, not the naive projected value 2
    m = np.array([[2.0, 1.0], [1.0, 1.0]])
    n = np.diag([1.0, 0.0])
    value, y = linalg.semidefinite_pencil_smallest(m, n)
    assert value == pytest.approx(1.0, abs=1e-12)
    resid = m @ y - value * (n @ y)
    assert np.linalg.norm(resid) < 1e-12


def test_semidefinite_pencil_below_all_sampled_quotients():
    rng = np.random.default_rng(11)
    g = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    f = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    m = f.conj().T @ f  # positive definite, so the quotient is bounded below
    n = g @ g.conj().T  # rank 3 PSD
    value, y = linalg.semidefinite_pencil_smallest(m, n)
    den = float(np.real(np.vdot(y, n @ y)))
    num = float(np.real(np.vdot(y, m @ y)))
    assert num / den == pytest.approx(value, rel=1e-10, abs=1e-10)
    X = rng.standard_normal((5, 10000)) + 1j * rng.standard_normal((5, 10000))
    nums = np.real(np.einsum("ij,ij->j", X.conj(), m @ X))
    dens = np.real(np.einsum("ij,ij->j", X.conj(), n @ X))
    ok = dens > 1e-12
    assert np.all(nums[ok] / dens[ok] >= value - 1e-8)


def test_semidefinite_pencil_definite_rhs_delegates():
    rng = np.random.default_rng(12)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    m = a + a.conj().T
    n = np.eye(4) * 2.0
    v1, _ = linalg.semidefinite_pencil_smallest(m, n)
    v2, _ = linalg.definite_pencil_smallest(m, n)
    assert v1 == pytest.approx(v2, abs=1e-12)


def test_semidefinite_pencil_unbounded_reports():
    # numerator vanishing on null(N) makes the quotient unbounded below
    m = np.diag([1.0, 0.0])
    n = np.diag([1.0, 0.0])
    with pytest.raises(linalg.NotPositiveDefiniteError):
        linalg.semidefinite_pencil_smallest(m, n)


@pytest.mark.parametrize("n", [np.zeros((0, 0)), np.zeros((2, 2)), np.diag([1e-11, 5e-11])])
def test_semidefinite_pencil_zero_rhs_is_its_own_error(n):
    # no eigenvalue above threshold(1e-10, ||N||_1) = 1e-10: numerically zero
    with pytest.raises(linalg.ZeroPencilError, match="numerically zero"):
        linalg.semidefinite_pencil_smallest(np.eye(n.shape[0]), n)


@pytest.mark.parametrize("n", [3, 8, 30])
@pytest.mark.parametrize("kernel", ["definite", "semidefinite"])
def test_pencil_value_is_the_quotient_its_vector_attains(kernel, n):
    # N = Q diag(1 .. 1e-8) Q* has condition number 1e8; the semidefinite
    # kernel gets its rank-(n-1) truncation, so the Schur path runs.  On
    # these inputs the Cholesky-reduced eigenvalue sits up to about 3e-6
    # (relative) away from v*Mv / v*Nv, which callers rebuild eta from.
    solve = getattr(linalg, f"{kernel}_pencil_smallest")
    spectrum = np.logspace(0, -8, n)
    if kernel == "semidefinite":
        spectrum[-1] = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        m = g @ g.conj().T
        nmat = (q * spectrum) @ q.conj().T
        value, v = solve(m, nmat)
        attained = np.real(np.vdot(v, m @ v)) / np.real(np.vdot(v, nmat @ v))
        assert abs(value - attained) <= 1e-12 * abs(value), (seed, value, attained)


def test_psd_nullspace_explicit_kernel():
    basis = linalg.psd_nullspace(np.diag([0.0, 0.0, 5.0]))
    assert basis.shape == (3, 2)
    proj = basis @ basis.conj().T
    assert np.allclose(proj, np.diag([1.0, 1.0, 0.0]), atol=1e-12)


def test_psd_nullspace_nonsingular_is_empty():
    assert linalg.psd_nullspace(np.eye(3)).shape == (3, 0)


def test_psd_nullspace_matches_svd_rank():
    # Gram matrix of a wide row block: nullity = columns - rank
    rng = np.random.default_rng(21)
    c = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    p = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    row = np.hstack([c, p])
    g2 = row.conj().T @ row
    rank = int(np.sum(np.linalg.svd(row, compute_uv=False) > 1e-10))
    basis = linalg.psd_nullspace(g2)
    assert basis.shape == (6, 6 - rank)
    assert np.linalg.norm(g2 @ basis) < 6 * 1e-10 * max(1.0, linalg.norm1(g2))


def test_psd_nullspace_rejects_indefinite():
    with pytest.raises(linalg.IndefiniteMatrixError):
        linalg.psd_nullspace(np.diag([-1.0, 1.0]))


def test_min_frobenius_map_unit_direction():
    d = linalg.min_frobenius_map([1.0, 0.0], [2.0])
    assert np.allclose(d, [[2.0, 0.0]])
    assert np.linalg.norm(d) == pytest.approx(2.0)


def test_min_frobenius_map_zero_zero():
    assert np.all(linalg.min_frobenius_map(np.zeros(2), np.zeros(3)) == 0)


def test_min_frobenius_map_infeasible():
    with pytest.raises(linalg.InfeasibleMapError):
        linalg.min_frobenius_map(np.zeros(2), [1.0])


@pytest.mark.parametrize("size", [2, 17, 200])
def test_min_frobenius_map_contract(size):
    rng = np.random.default_rng(size)
    x = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    b = rng.standard_normal(size // 2 + 1) + 1j * rng.standard_normal(size // 2 + 1)
    d = linalg.min_frobenius_map(x, b)
    assert np.linalg.norm(d @ x - b) < 1e-12 * np.linalg.norm(b)
    assert np.linalg.norm(d) == pytest.approx(
        np.linalg.norm(b) / np.linalg.norm(x), rel=1e-12
    )


def test_min_frobenius_map_minimality():
    # any other feasible map is D + E with E x = 0, and ||D + E||^2 splits
    rng = np.random.default_rng(5)
    x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    b = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    d = linalg.min_frobenius_map(x, b)
    for _ in range(20):
        e = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        e = e - np.outer(e @ x, x.conj()) / np.real(np.vdot(x, x))
        alt = d + e
        assert np.linalg.norm(alt @ x - b) < 1e-12
        assert np.linalg.norm(alt) >= np.linalg.norm(d) - 1e-12


def test_smallest_singular_value_closed_form():
    # singular values of [[1,1],[0,1]] solve s^4 - 3 s^2 + 1 = 0
    expected = math.sqrt((3.0 - math.sqrt(5.0)) / 2.0)
    assert linalg.smallest_singular_value([[1.0, 1.0], [0.0, 1.0]]) == pytest.approx(
        expected, rel=1e-14
    )


def test_smallest_singular_value_random_matches_svd():
    rng = np.random.default_rng(8)
    m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    assert linalg.smallest_singular_value(m) == pytest.approx(
        float(np.linalg.svd(m, compute_uv=False)[-1]), rel=1e-12
    )


def test_norm1_conventions():
    assert linalg.norm1(np.zeros((0, 0))) == 0.0
    assert linalg.norm1(np.array([[1.0, -2.0], [3.0, 4.0]])) == 6.0


def test_threshold_is_flat_below_scale_one_and_linear_above():
    for scale in (0.0, 1e-300, 0.5, 1.0):
        assert linalg.threshold(1e-12, scale) == 1e-12
    for scale in (1.0, 3.0, 1e6, 1e300):
        assert linalg.threshold(1e-12, scale) == 1e-12 * scale


def _number(node):
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return node.value
    return None


def _is_floor(node) -> bool:
    """A call max(1, s), or max(c, c * s) with the same number c twice."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
        return False
    if node.func.id != "max" or len(node.args) != 2:
        return False
    c, s = _number(node.args[0]), node.args[1]
    if c is None:
        return False
    product = isinstance(s, ast.BinOp) and isinstance(s.op, ast.Mult)
    return c == 1 or (product and c in (_number(s.left), _number(s.right)))


def test_threshold_is_the_only_floor_in_the_package():
    found = []
    for path in sorted(Path(linalg.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = {
            id(n)
            for rule in tree.body
            if path.name == "linalg.py" and getattr(rule, "name", None) == "threshold"
            for n in ast.walk(rule)
        }
        found += [
            f"{path.name}:{n.lineno}"
            for n in ast.walk(tree)
            if _is_floor(n) and id(n) not in allowed
        ]
    assert not found, f"floors outside linalg.threshold: {found}"
