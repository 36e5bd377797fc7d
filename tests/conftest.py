"""Shared fixtures and helpers: small deterministic saddle systems used as
oracles across the suite."""

import numpy as np
import pytest
import scipy.sparse as sp

from saddlekit.dense import eig_general
from saddlekit.system import assemble, to_dense


def random_system(rng, n=12, m=8, p=5, spd_shift=0.5):
    """A validated random system: SPD A, full-row-rank B (m x n) and
    C (p x m)."""
    M = rng.standard_normal((n, n))
    A = M @ M.T + spd_shift * n * np.eye(n)
    B = rng.standard_normal((m, n))
    C = rng.standard_normal((p, m))
    return assemble(sp.csr_matrix(A), sp.csr_matrix(B), sp.csr_matrix(C))


def iteration_matrix_radius(sys, precond):
    """rho(I - P^{-1} A) by densifying the preconditioned operator."""
    PA = precond.apply(to_dense(sys))
    return float(np.max(np.abs(eig_general(np.eye(sys.size) - PA))))


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
