"""Generated test problems, shift presets, and the coupling-block noise."""

import numpy as np
import pytest

from saddlekit.precond import operand_sparse
from saddlekit.problems import NoiseSpec, case_preset, example1, perturb
from saddlekit.system import validate


def same(X, Y):
    """Exact equality of two canonical CSR blocks."""
    return (X.shape == Y.shape and np.array_equal(X.indptr, Y.indptr)
            and np.array_equal(X.indices, Y.indices)
            and np.array_equal(X.data, Y.data))


def test_example1_structure():
    sysv = example1(4)
    assert (sysv.n, sysv.m, sysv.p) == (32, 16, 16)
    assert sysv.size == 4 * 16
    rep = validate(sysv)
    assert rep.ok


def test_example1_block_values():
    l = 3
    sysv = example1(l)
    h2 = (l + 1) ** 2
    G = h2 * (2 * np.eye(l) - np.eye(l, k=1) - np.eye(l, k=-1))
    F = (l + 1) * (np.eye(l) - np.eye(l, k=1))
    E = np.diag(np.arange(l) * l + 1.0)
    T = np.kron(np.eye(l), G) + np.kron(G, np.eye(l))
    import scipy.linalg as sla
    assert np.allclose(sysv.A.toarray(), sla.block_diag(T, T), atol=0.0)
    assert np.allclose(sysv.B.toarray(),
                       np.hstack([np.kron(np.eye(l), F), np.kron(F, np.eye(l))]),
                       atol=0.0)
    assert np.allclose(sysv.C.toarray(), np.kron(E, F), atol=0.0)


def test_example1_square_nonsingular_c():
    sysv = example1(4)
    C = sysv.C.toarray()
    assert C.shape == (16, 16)
    assert abs(np.linalg.det(C)) > 0


def test_example1_deterministic():
    a = example1(3)
    b = example1(3)
    assert same(a.A, b.A) and same(a.B, b.B) and same(a.C, b.C)


def test_example1_rejects_tiny_l():
    with pytest.raises(ValueError):
        example1(1)


def test_case_presets():
    sysv = example1(3)
    cfg1 = case_preset("I", sysv, s=12.0)
    assert cfg1.lambda1 == 1.0 and cfg1.lambda2 == 1.0
    assert cfg1.lambda3 == pytest.approx(0.001)
    assert cfg1.s == 12.0 and cfg1.is_pess

    cfg2 = case_preset("II", sysv, s=13.0)
    assert cfg2.lambda1 is sysv.A
    CCt = sysv.C.toarray() @ sysv.C.toarray().T
    assert np.allclose(operand_sparse(cfg2.lambda3, sysv.p).toarray(), 0.001 * CCt)

    cfg3 = case_preset("case ii", sysv, s=13.0, lambda3_coef=1e-4)
    assert np.allclose(operand_sparse(cfg3.lambda3, sysv.p).toarray(),
                       1e-4 * CCt)

    with pytest.raises(ValueError):
        case_preset("III", sysv, s=1.0)


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec(percentage=-1.0)


def test_perturb_zero_is_identity():
    sysv = example1(3)
    assert perturb(sysv, NoiseSpec(0.0)) is sysv


def test_perturb_touches_only_coupling_blocks():
    sysv = example1(3)
    pert = perturb(sysv, NoiseSpec(10.0))
    assert same(pert.A, sysv.A)
    assert not same(pert.B, sysv.B) and not same(pert.C, sysv.C)
    assert validate(pert).ok


def test_perturb_deterministic_and_linear():
    sysv = example1(3)
    a = perturb(sysv, NoiseSpec(5.0, seed=3))
    b = perturb(sysv, NoiseSpec(5.0, seed=3))
    assert same(a.B, b.B) and same(a.C, b.C)
    # delta scales linearly with the percentage
    d5 = perturb(sysv, NoiseSpec(5.0)).B.toarray() - sysv.B.toarray()
    d10 = perturb(sysv, NoiseSpec(10.0)).B.toarray() - sysv.B.toarray()
    assert np.allclose(d10, 2.0 * d5, rtol=1e-12)


def test_perturb_magnitude():
    sysv = example1(3)
    noise = NoiseSpec(20.0, scale=1e-4)
    dB = perturb(sysv, noise).B.toarray() - sysv.B.toarray()
    # entries are scale * percentage * std(B) * N(0,1): tiny vs the block
    assert np.abs(dB).max() < 1e-2 * np.abs(sysv.B.toarray()).max()
    assert np.abs(dB).max() > 0


def test_load_external_round_trip(tmp_path):
    from saddlekit.mmio import write_matrix_market
    from saddlekit.problems import load_external

    sysv = example1(3)
    pa, pb, pc = (tmp_path / f"{k}.mtx" for k in "abc")
    write_matrix_market(sysv.A, pa)
    write_matrix_market(sysv.B, pb)
    write_matrix_market(sysv.C, pc)
    back = load_external(pa, pb, pc)
    assert same(back.A, sysv.A) and same(back.B, sysv.B) and same(back.C, sysv.C)

    shifted = load_external(pa, pb, pc, shift_a=0.001)
    assert np.allclose(shifted.A.toarray(),
                       sysv.A.toarray() + 0.001 * np.eye(sysv.n))
