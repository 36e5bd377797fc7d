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

so the assembled saddle matrix has order 4l^2.  ``example1`` writes each
block straight from its stencil on the l x l grid, row i = a*l + b, and the
result equals the Kronecker definition above bit for bit.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import mmio
from .precond import GssConfig
from .system import SaddlePointSystem, assemble, require_densifiable

NOISE_SCALE = 1e-4  # the noise model's factor on percentage * std(block)


def _csr(shape, taps) -> sp.csr_matrix:
    """The CSR matrix with value v at (i, j) for every tap (i, j, v): i and
    j are index arrays, v a scalar or an array like them."""
    rows = np.concatenate([i for i, _, _ in taps])
    cols = np.concatenate([j for _, j, _ in taps])
    vals = np.concatenate([np.broadcast_to(v, i.shape) for i, _, v in taps])
    return sp.csr_matrix((vals, (rows, cols)), shape=shape)


def example1(l: int) -> SaddlePointSystem:
    """The Kronecker-structured generated problem of order 4 l^2."""
    l = operator.index(l)
    if l < 2:
        raise ValueError("l must be at least 2")
    n = l * l
    i = np.arange(n)
    a, b = np.divmod(i, l)
    h = l + 1.0
    # rows with a grid neighbour at (a-1, b), (a, b-1), (a, b+1), (a+1, b)
    up, left, right, down = i[a > 0], i[b > 0], i[b < l - 1], i[a < l - 1]

    T = [(up, up - l, -h * h), (left, left - 1, -h * h), (i, i, 4 * h * h),
         (right, right + 1, -h * h), (down, down + l, -h * h)]
    A = _csr((2 * n, 2 * n), T + [(r + n, c + n, v) for r, c, v in T])
    B = _csr((n, 2 * n), [(i, i, h), (right, right + 1, -h),
                          (i, n + i, h), (down, n + down + l, -h)])
    e = a * l + 1.0  # E[a, a], C's factor on grid row a
    C = _csr((n, n), [(i, i, e * h), (right, right + 1, -e[right] * h)])
    return assemble(A, B, C)


def case_operands(case: str, sys: SaddlePointSystem):
    """The operands (P, Q, W) of the two shift cases: (1, 1, 1) for Case I
    and (A, 1, C C^T) for Case II."""
    case = case.upper().replace("CASE", "").strip()
    if case not in ("I", "II"):
        raise ValueError("case must be 'I' or 'II'")
    if case == "I":
        return 1.0, 1.0, 1.0
    return sys.A, 1.0, sys.C @ sys.C.T


def case_preset(case: str, sys: SaddlePointSystem, s: float,
                lambda3_coef: float = None) -> GssConfig:
    """The two shift presets used throughout the experiments,
    (L1, L2, L3) = (P, Q, 0.001 W) from ``case_operands``:

    Case I:  L1 = I,  L2 = I,  L3 = 0.001 I
    Case II: L1 = A,  L2 = I,  L3 = 0.001 C C^T

    ``lambda3_coef`` overrides the 0.001 coefficient (some parameter-strategy
    runs use 1e-4 instead).  A coefficient <= 0 is rejected here, by name,
    since 0 * C C^T or -C C^T would only fail later as a singular or
    indefinite L3; NaN and inf are left to ``GssConfig``'s finiteness check.
    """
    P, Q, W = case_operands(case, sys)
    coef = 0.001 if lambda3_coef is None else float(lambda3_coef)
    if coef <= 0:
        raise ValueError("lambda3 must be positive and finite")
    return GssConfig(P, Q, coef * W, s=float(s))


@dataclass(frozen=True)
class NoiseSpec:
    """Noise applied to the coupling blocks: the delta entries are
    NOISE_SCALE * percentage * std(block) * standard normal draws."""

    percentage: float
    seed: int = 0

    def __post_init__(self):
        if self.percentage < 0:
            raise ValueError("percentage must be nonnegative")


def perturb(sys: SaddlePointSystem, noise: NoiseSpec) -> SaddlePointSystem:
    """B' = B + dB, C' = C + dC with dX as ``NoiseSpec`` states; std is the
    population standard deviation over all densified entries (so a system
    above the densification guard is refused), and seeded 64-bit normal
    draws make the result bit-reproducible.  A is unchanged."""
    if noise.percentage == 0.0:
        return sys
    require_densifiable(sys)
    rng = np.random.default_rng(noise.seed)
    Bd = sys.B.toarray()
    Cd = sys.C.toarray()
    dB = NOISE_SCALE * noise.percentage * Bd.std() * rng.standard_normal(Bd.shape)
    dC = NOISE_SCALE * noise.percentage * Cd.std() * rng.standard_normal(Cd.shape)
    return assemble(sys.A, Bd + dB, Cd + dC)


def load_external(path_a, path_b, path_c, shift_a: float = 0.0) -> SaddlePointSystem:
    """Assemble a system from three Matrix Market files; ``shift_a`` adds a
    diagonal shift (typically 0.001) to enforce positive definiteness of the
    leading block."""
    A, B, C = map(mmio.read_matrix_market, (path_a, path_b, path_c))
    if shift_a:
        A = A + shift_a * sp.identity(A.shape[0], format="csr")
    return assemble(A, B, C)
