"""Block system assembly, operator application, and validation."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from saddlekit.mmio import write_matrix_market
from saddlekit.precond import build_bd
from saddlekit.problems import case_preset, example1, load_external
from saddlekit.spectral import (condition_number, scalar_extremes,
                                shift_spectrum)
from saddlekit.system import (BlockVector, SaddlePointSystem, assemble,
                              operator_apply, rhs_for_ones, validate)

from conftest import count_factors, random_system


def dense_operator(sys):
    """Independent oracle: explicitly assembled [[A,Bt,0],[-B,0,-Ct],[0,C,0]]."""
    A, B, C = sys.A.toarray(), sys.B.toarray(), sys.C.toarray()
    n, m, p = sys.n, sys.m, sys.p
    M = np.zeros((n + m + p, n + m + p))
    M[:n, :n] = A
    M[:n, n:n + m] = B.T
    M[n:n + m, :n] = -B
    M[n:n + m, n + m:] = -C.T
    M[n + m:, n:n + m] = C
    return M


def test_assemble_shapes(small_system):
    assert small_system.size == small_system.n + small_system.m + small_system.p


def test_assemble_canonicalises_blocks(tmp_path):
    """Stored zeros are dropped and duplicate entries summed on the way in."""
    l = 3
    ref = example1(l)
    # C = E (x) F with the zero subdiagonal of F = (l+1) tridiag(0, 1, -1) stored
    k = np.arange(l)
    F = sp.coo_matrix(((l + 1) * np.r_[np.zeros(l - 1), np.ones(l), -np.ones(l - 1)],
                       (np.r_[k[1:], k, k[:-1]], np.r_[k[:-1], k, k[1:]])),
                      shape=(l, l))
    E = sp.diags(k * l + 1.0)
    C = sp.kron(E, F, format="csr")
    assert C.nnz > np.count_nonzero(C.toarray())
    got = assemble(ref.A, ref.B, C).C
    assert got.dtype == np.float64 and got.has_canonical_format
    assert np.array_equal(got.indptr, ref.C.indptr)
    assert np.array_equal(got.indices, ref.C.indices)
    assert np.array_equal(got.data, ref.C.data)
    assert got.nnz == np.count_nonzero(C.toarray())

    # a CSR C, then a Matrix Market C file, listing its first entry as two halves
    R = ref.C
    half = R.data[0] / 2
    dup = sp.csr_matrix((np.r_[half, half, R.data[1:]],
                         np.r_[R.indices[0], R.indices],
                         np.r_[0, R.indptr[1:] + 1]), shape=R.shape)
    assert not dup.has_canonical_format
    got = assemble(ref.A, ref.B, dup).C
    assert np.array_equal(got.indices, R.indices)
    assert np.array_equal(got.data, R.data)

    coo = R.tocoo()
    entries = [f"{i + 1} {j + 1} {v:.17g}" for i, j, v in
               zip(coo.row, coo.col, coo.data)]
    entries[0] = f"{coo.row[0] + 1} {coo.col[0] + 1} {coo.data[0] / 2:.17g}"
    entries.append(entries[0])
    paths = [tmp_path / f"{name}.mtx" for name in "ABC"]
    write_matrix_market(ref.A, paths[0])
    write_matrix_market(ref.B, paths[1])
    paths[2].write_text("%%MatrixMarket matrix coordinate real general\n"
                        f"{l * l} {l * l} {len(entries)}\n"
                        + "\n".join(entries) + "\n")
    back = load_external(*paths).C
    assert np.array_equal(back.indptr, R.indptr)
    assert np.array_equal(back.indices, R.indices)
    assert np.array_equal(back.data, R.data)


def test_assemble_rejects_shape_mismatch(rng):
    A = sp.csr_matrix(np.eye(4))
    B = sp.csr_matrix(rng.standard_normal((3, 4)))
    C_bad = sp.csr_matrix(rng.standard_normal((2, 4)))  # needs 3 cols
    with pytest.raises(ValueError):
        assemble(A, B, C_bad)


def test_assemble_rejects_asymmetric_a(rng):
    A = np.eye(4)
    A[0, 1] = 0.5
    with pytest.raises(ValueError):
        assemble(sp.csr_matrix(A),
                 sp.csr_matrix(rng.standard_normal((2, 4))),
                 sp.csr_matrix(rng.standard_normal((2, 2))))


@pytest.mark.parametrize("name", ["A", "B", "C"])
def test_assemble_rejects_empty_block(name):
    n, m, p = (0 if name == k else d for k, d in zip("ABC", (4, 2, 1)))
    blocks = [sp.identity(n), sp.csr_matrix(np.eye(m, n)),
              sp.csr_matrix(np.ones((p, m)))]
    with pytest.raises(ValueError, match=f"^{name} is empty"):
        assemble(*blocks)


@pytest.mark.parametrize("name", ["A", "B", "C"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_assemble_rejects_non_finite_entries(name, bad):
    blocks = {"A": np.eye(4), "B": np.eye(2, 4), "C": np.ones((1, 2))}
    blocks[name][0, 0] = bad
    with pytest.raises(ValueError, match=f"^{name} has non-finite entries"):
        assemble(*(sp.csr_matrix(M) for M in blocks.values()))


def test_operator_apply_matches_dense(small_system, rng):
    M = dense_operator(small_system)
    u = rng.standard_normal(small_system.size)
    assert np.allclose(operator_apply(small_system, u), M @ u, atol=1e-12)
    U = rng.standard_normal((small_system.size, 3))
    assert np.allclose(operator_apply(small_system, U), M @ U, atol=1e-12)


def test_matrix_matches_oracle(small_system):
    assert np.allclose(small_system.matrix.toarray(),
                       dense_operator(small_system), atol=0.0)


def test_rhs_for_ones(small_system):
    d = rhs_for_ones(small_system)
    assert isinstance(d, BlockVector)
    want = dense_operator(small_system) @ np.ones(small_system.size)
    n, m = small_system.n, small_system.m
    assert [v.size for v in (d.x, d.y, d.z)] == [n, m, small_system.p]
    assert np.allclose(d.x, want[:n])
    assert np.allclose(d.y, want[n:n + m])
    assert np.allclose(d.z, want[n + m:])
    assert np.array_equal(d.to_array(), np.r_[d.x, d.y, d.z])


def test_validate_full_passes(small_system):
    rep = validate(small_system)
    assert rep.ok
    assert rep.spd_ok and rep.b_full_rank and rep.c_full_rank


def test_validate_detects_rank_deficiency(rng):
    sysv = random_system(rng)
    Cd = sysv.C.toarray()
    Cd[-1] = Cd[0]  # duplicate a row
    bad = SaddlePointSystem(sysv.A, sysv.B, sp.csr_matrix(Cd))
    rep = validate(bad)
    assert not rep.c_full_rank
    assert not rep.ok
    assert any("C" in msg for msg in rep.messages)


def test_readers_share_the_system_factors(monkeypatch):
    # each factor is made once, when first read, and kept by its system
    sysv = example1(3)
    lus, a_factors = count_factors(monkeypatch, sysv.matrix)
    cfg = case_preset("II", sysv, s=13.0)
    build_bd(sysv)
    condition_number(sysv)
    shift_spectrum(sysv, cfg)
    scalar_extremes(sysv, cfg)
    assert validate(sysv).ok
    assert len(a_factors) == 1 and len(lus) == 1


def lu_nnz(sysv, order):
    """Entries of a SuperLU factor of the coefficient matrix on ``order``."""
    return spla.splu(sysv.matrix.tocsc(), permc_spec=order).nnz


def test_matrix_lu_orders_a_square_c_by_minimum_degree():
    """p == m: 13,797 entries against COLAMD's 23,087 for example1(12)."""
    sysv = example1(12)
    assert sysv.p == sysv.m
    assert sysv.matrix_lu.nnz < lu_nnz(sysv, "COLAMD")


def test_matrix_lu_keeps_colamd_when_c_has_fewer_rows():
    """p < m: C's every other row, where a minimum-degree order would store
    more entries than COLAMD."""
    ref = example1(12)
    sysv = assemble(ref.A, ref.B, ref.C[::2])
    assert sysv.p < sysv.m
    assert sysv.matrix_lu.nnz == lu_nnz(sysv, "COLAMD")
    assert sysv.matrix_lu.nnz < lu_nnz(sysv, "MMD_AT_PLUS_A")


def test_validate_detects_indefinite_a(rng):
    sysv = random_system(rng)
    Ad = sysv.A.toarray()
    Ad -= 2 * np.linalg.eigvalsh(Ad)[-1] * np.eye(sysv.n)
    bad = SaddlePointSystem(sp.csr_matrix(Ad), sysv.B, sysv.C)
    rep = validate(bad)
    assert not rep.spd_ok
    assert not rep.ok
