import threading

import numpy as np
import pytest

from anop.errors import NotSelfAdjoint
from anop.jacobi import JACOBI_MAX_N, diagonal_pairs, sym_eigen


def test_identity_multiplicity():
    pairs = sym_eigen(np.eye(3), 1e-10)
    assert [round(w, 12) for w, _ in pairs] == [1.0, 1.0, 1.0]


def test_flip_eigenvalues():
    pairs = sym_eigen(np.array([[0.0, 1.0], [1.0, 0.0]]), 1e-10)
    assert np.allclose([w for w, _ in pairs], [1.0, -1.0])


def test_example1_corner_values():
    corner = np.diag([4.0, 2.0, 1.0])
    pairs = sym_eigen(corner, 1e-10)
    assert [w for w, _ in pairs] == [4.0, 2.0, 1.0]


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_diagonal_pairs_are_sym_eigen_of_the_diagonal():
    # ties, zeros, negatives and close values, complex input as the summaries
    # pass it; bit for bit, up to the Jacobi limit
    rng = np.random.default_rng(5)
    for n in (0, 1, 2, 7, JACOBI_MAX_N):
        d = rng.choice([0.0, 2.0, -1.0, 1 / 3, 1 / 3 + 1e-13, 1e12], n)
        want = sym_eigen(np.diag(d).astype(complex), 1e-12)
        got = diagonal_pairs(d)
        assert [(w, v.dtype, v.tobytes()) for w, v in got] == \
            [(w, v.dtype, v.tobytes()) for w, v in want]
    assert diagonal_pairs(np.ones(JACOBI_MAX_N + 1)) is None
    assert diagonal_pairs([1.0, 1e308]) is None


def test_residuals_and_orthogonality_up_to_64():
    rng = np.random.default_rng(11)
    tol = 1e-10
    for n in (2, 5, 16, 33, 64):
        a = rng.standard_normal((n, n))
        a = a + a.T
        pairs = sym_eigen(a, tol)
        v = np.column_stack([p[1] for p in pairs])
        w = np.array([p[0] for p in pairs])
        scale = np.linalg.norm(a, 2)
        for k in range(n):
            assert np.linalg.norm(a @ v[:, k] - w[k] * v[:, k]) <= 10 * tol * scale
        assert np.linalg.norm(v.conj().T @ v - np.eye(n)) <= 10 * tol


def test_complex_hermitian():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    a = a + a.conj().T
    pairs = sym_eigen(a, 1e-10)
    assert len(pairs) == 8
    wref = np.sort(np.linalg.eigvalsh(a))[::-1]
    assert np.allclose([w for w, _ in pairs], wref, atol=1e-8)


def test_deterministic_ordering():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((12, 12))
    a = a + a.T
    p1 = sym_eigen(a.copy(), 1e-10)
    p2 = sym_eigen(a.copy(), 1e-10)
    for (w1, v1), (w2, v2) in zip(p1, p2):
        assert w1 == w2 and np.array_equal(v1, v2)


def test_rejects_non_self_adjoint():
    with pytest.raises(NotSelfAdjoint):
        sym_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]), 1e-10)


def _refused_in_time(m):
    """Whether sym_eigen raises NotSelfAdjoint on m within 10 s; a daemon
    thread keeps a hang from stalling the suite."""
    raised = []

    def run():
        try:
            sym_eigen(m, 1e-10)
        except NotSelfAdjoint as exc:
            raised.append(exc)

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(10)
    assert not worker.is_alive(), "sym_eigen still running after 10 s"
    return bool(raised)


def test_rejects_nan_entry():
    # a NaN must not reach the eigenvalue-cluster loop of the complex path,
    # which never advances on NaN
    assert _refused_in_time(
        np.array([[1.0, complex(np.nan, 1.0)], [complex(np.nan, -1.0), 2.0]]))


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_rejects_an_overflowing_symmetrisation():
    # finite entries past half the float range overflow in m + m*, whose
    # NaN imaginary parts would reach the same loop
    assert _refused_in_time(np.diag([9.5e307, 1.0, 1.0]))
