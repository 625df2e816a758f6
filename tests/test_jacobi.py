import threading

import numpy as np
import pytest

from anop.errors import NotSelfAdjoint
from anop.jacobi import sym_eigen


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


def test_rejects_nan_entry():
    # a NaN must not reach the eigenvalue-cluster loop of the complex path,
    # which never advances on NaN; a daemon thread keeps a hang from
    # stalling the suite
    m = np.array([[1.0, complex(np.nan, 1.0)], [complex(np.nan, -1.0), 2.0]])
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
    assert raised
