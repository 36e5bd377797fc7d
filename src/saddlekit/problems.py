"""Deterministic test-problem generators, shift presets, and the noise
perturbation used in the sensitivity study.

The generated family is built from three l x l factors,

    G = (l+1)^2 * tridiag(-1, 2, -1)
    F = (l+1)   * tridiag(0, 1, -1)
    E = diag(1, l+1, 2l+1, ..., l^2-l+1)

through Kronecker products:

    A = blockdiag(I (x) G + G (x) I,  I (x) G + G (x) I)   (2l^2 x 2l^2)
    B = [ I (x) F,  F (x) I ]                              (l^2  x 2l^2)
    C = E (x) F                                            (l^2  x l^2)

so the assembled saddle matrix has order 4l^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import mmio
from .precond import GssConfig
from .system import SaddlePointSystem, assemble


def example1(l: int) -> SaddlePointSystem:
    """The Kronecker-structured generated problem of order 4 l^2."""
    if l < 2:
        raise ValueError("l must be at least 2")
    # CSR throughout: scipy's default formats here cost extra conversions
    G = (l + 1) ** 2 * sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(l, l),
                                format="csr")
    F = (l + 1) * sp.diags([0.0, 1.0, -1.0], [-1, 0, 1], shape=(l, l),
                           format="csr")
    E = sp.diags(np.arange(l, dtype=np.float64) * l + 1.0, format="csr")
    I = sp.identity(l, format="csr")

    T = sp.kron(I, G, format="csr") + sp.kron(G, I, format="csr")
    A = sp.block_diag([T, T], format="csr")
    B = sp.hstack([sp.kron(I, F, format="csr"), sp.kron(F, I, format="csr")],
                  format="csr")
    C = sp.kron(E, F, format="csr")
    return assemble(A, B, C)


def case_preset(case: str, sys: SaddlePointSystem, s: float,
                lambda3_coef: float = None) -> GssConfig:
    """The two shift presets used throughout the experiments.

    Case I:  L1 = I,  L2 = I,  L3 = 0.001 I
    Case II: L1 = A,  L2 = I,  L3 = 0.001 C C^T

    ``lambda3_coef`` overrides the 0.001 coefficient (some parameter-strategy
    runs use 1e-4 instead).
    """
    case = case.upper().replace("CASE", "").strip()
    if case not in ("I", "II"):
        raise ValueError("case must be 'I' or 'II'")
    coef = 0.001 if lambda3_coef is None else float(lambda3_coef)
    if case == "I":
        return GssConfig(1.0, 1.0, coef, s=float(s))
    return GssConfig(sys.A, 1.0, coef * (sys.C @ sys.C.T), s=float(s))


@dataclass(frozen=True)
class NoiseSpec:
    """Noise applied to the coupling blocks: the delta entries are
    scale * percentage * std(block) * standard normal draws."""

    percentage: float
    scale: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        if self.percentage < 0:
            raise ValueError("percentage must be nonnegative")


def perturb(sys: SaddlePointSystem, noise: NoiseSpec) -> SaddlePointSystem:
    """B' = B + dB, C' = C + dC with dX = scale * percentage * std(X) * randn;
    std is the population standard deviation over all densified entries and
    the normal draws come from a seeded 64-bit generator, so the result is
    bit-reproducible.  A is unchanged."""
    if noise.percentage == 0.0:
        return sys
    rng = np.random.default_rng(noise.seed)
    Bd = sys.B.toarray()
    Cd = sys.C.toarray()
    dB = noise.scale * noise.percentage * Bd.std() * rng.standard_normal(Bd.shape)
    dC = noise.scale * noise.percentage * Cd.std() * rng.standard_normal(Cd.shape)
    return assemble(sys.A, Bd + dB, Cd + dC)


def load_external(path_a, path_b, path_c, shift_a: float = 0.0) -> SaddlePointSystem:
    """Assemble a system from three Matrix Market files; ``shift_a`` adds a
    diagonal shift (typically 0.001) to enforce positive definiteness of the
    leading block."""
    A = mmio.read_matrix_market(path_a)
    B = mmio.read_matrix_market(path_b)
    C = mmio.read_matrix_market(path_c)
    if shift_a:
        A = A + shift_a * sp.identity(A.shape[0], format="csr")
    return assemble(A, B, C)
