"""Block system assembly, operator application, and validation."""

import numpy as np
import pytest
import scipy.sparse as sp

from saddlekit.mmio import write_matrix_market
from saddlekit.problems import example1, load_external
from saddlekit.system import (BlockVector, SaddlePointSystem, assemble,
                              operator_apply, rhs_for_ones, to_dense, validate)

from conftest import random_system


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


def test_block_vector_round_trip(rng):
    u = rng.standard_normal(10)
    bv = BlockVector.from_array(u, 5, 3, 2)
    assert len(bv) == 10
    assert np.array_equal(bv.to_array(), u)
    assert np.array_equal(bv.x, u[:5])
    assert np.array_equal(bv.y, u[5:8])
    assert np.array_equal(bv.z, u[8:])


def test_assemble_shapes(small_system):
    assert small_system.size == small_system.n + small_system.m + small_system.p
    bv = small_system.split(np.arange(small_system.size, dtype=float))
    assert bv.x.size == small_system.n
    assert bv.z.size == small_system.p


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


def test_operator_apply_matches_dense(small_system, rng):
    M = dense_operator(small_system)
    u = rng.standard_normal(small_system.size)
    assert np.allclose(operator_apply(small_system, u), M @ u, atol=1e-12)
    U = rng.standard_normal((small_system.size, 3))
    assert np.allclose(operator_apply(small_system, U), M @ U, atol=1e-12)


def test_to_dense_matches_oracle(small_system):
    assert np.allclose(to_dense(small_system), dense_operator(small_system),
                       atol=0.0)


def test_rhs_for_ones(small_system):
    d = rhs_for_ones(small_system)
    assert isinstance(d, BlockVector)
    assert np.allclose(d.to_array(),
                       dense_operator(small_system) @ np.ones(small_system.size))


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


def test_validate_detects_indefinite_a(rng):
    sysv = random_system(rng)
    Ad = sysv.A.toarray()
    Ad -= 2 * np.linalg.eigvalsh(Ad)[-1] * np.eye(sysv.n)
    bad = SaddlePointSystem(sp.csr_matrix(Ad), sysv.B, sysv.C)
    rep = validate(bad)
    assert not rep.spd_ok
    assert not rep.ok
