"""Shared fixtures and helpers: small deterministic saddle systems used as
oracles across the suite."""

import os
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import saddlekit
from saddlekit import dense, precond, spectral, system
from saddlekit.dense import require_spd
from saddlekit.system import assemble


def random_system(rng, n=12, m=8, p=5, spd_shift=0.5):
    """A validated random system: SPD A, full-row-rank B (m x n) and
    C (p x m)."""
    M = rng.standard_normal((n, n))
    A = M @ M.T + spd_shift * n * np.eye(n)
    B = rng.standard_normal((m, n))
    C = rng.standard_normal((p, m))
    return assemble(sp.csr_matrix(A), sp.csr_matrix(B), sp.csr_matrix(C))


def bd_blocks(sysv):
    """A, S = B A^-1 B^T and X = C S^-1 C^T, formed densely."""
    A, B, C = (M.toarray() for M in (sysv.A, sysv.B, sysv.C))
    S = B @ np.linalg.solve(A, B.T)
    return A, S, C @ np.linalg.solve(S, C.T)


def iteration_matrix_radius(sys, precond):
    """rho(I - P^{-1} A) by densifying the preconditioned operator."""
    PA = precond.apply(sys.matrix.toarray())
    return float(np.max(np.abs(sla.eigvals(np.eye(sys.size) - PA))))


def cli_env(**extra):
    """The environment of a ``python -m saddlekit`` subprocess that imports
    this checkout's package."""
    src = str(Path(saddlekit.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **extra}


def count_factors(monkeypatch, matrix):
    """(LUs of ``matrix``, factors of A): two lists that grow by the
    arguments of each sparse LU of the coefficient matrix ``matrix`` and of
    each ``require_spd`` of A that the package makes, wherever it makes
    them.  LUs of P and factors of the shifts are not counted."""
    lus, a_factors = [], []

    def lu(M, *args, **kwargs):
        if M.shape == matrix.shape and abs(M - matrix).max() == 0:
            lus.append(M)
        return spla.splu(M, *args, **kwargs)

    def spd(M, what):
        if what == "A":
            a_factors.append(M)
        return require_spd(M, what)

    monkeypatch.setattr(dense, "splu", lu)
    for module in (system, precond, spectral):
        monkeypatch.setattr(module, "require_spd", spd)
    return lus, a_factors


def arpack_fails(*args, **kwargs):
    """Stand-in for an ARPACK routine that runs out of iterations."""
    raise spla.ArpackNoConvergence("no convergence", [], [])


def random_spd(rng, k, shift=1.0):
    M = rng.standard_normal((k, k))
    return M @ M.T + shift * k * np.eye(k)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def small_system():
    return random_system(np.random.default_rng(7))


@pytest.fixture(scope="session")
def tiny_example():
    from saddlekit.problems import example1
    return example1(3)
