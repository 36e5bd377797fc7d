"""Spectral localization machinery: extremes vs brute-force oracles, the
unit-disk / real-interval / non-real checks on randomized systems, and the
report serialization."""

import json
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from saddlekit import spectral, system
from saddlekit.dense import ConvergenceFailure, NotPositiveDefinite, Singular
from saddlekit.precond import (KINDS, build, build_bd, gss_matrix,
                               make_config)
from saddlekit.problems import case_operands, case_preset, example1
from saddlekit.spectral import (BoundReport, InapplicableBound, analyze,
                                check_pess_nonreal, check_real_interval,
                                check_unit_disk, condition_number,
                                lpess_bound_values, lpess_bounds,
                                pess_nonreal_bounds,
                                pess_real_interval, preconditioned_spectrum,
                                ScalarExtremes, scalar_extremes,
                                shift_spectrum, write_eigenvalue_csv)
from saddlekit.mmio import write_json
from saddlekit.system import assemble

from conftest import (all_kind_configs, arpack_fails, bd_blocks,
                      count_factors, random_system)


def pess_cfg(s, lam3=0.001):
    return make_config("pess", lambda1=1.0, lambda2=1.0, lambda3=lam3, s=s)


def lpess_cfg(s, lam3=0.001):
    return make_config("lpess", lambda2=1.0, lambda3=lam3, s=s)


# -- spectrum computation -------------------------------------------------


def test_exact_inverse_gives_all_ones(small_system):
    M = small_system.matrix.toarray()
    spec = preconditioned_spectrum(small_system,
                                   lambda r: np.linalg.solve(M, r))
    assert np.allclose(spec, 1.0, atol=1e-8)


def test_spectrum_matches_dense_oracle(small_system):
    cfg = pess_cfg(2.0)
    P = build(small_system, cfg)
    spec = preconditioned_spectrum(small_system, P)
    Pd = gss_matrix(small_system, cfg).toarray()
    ref = np.linalg.eigvals(np.linalg.solve(Pd, small_system.matrix.toarray()))
    assert np.allclose(np.sort_complex(spec),
                       np.sort_complex(ref), atol=1e-8)


@pytest.mark.parametrize("cfg", [
    pess_cfg(2.0), make_config("egss", alpha=0.5, beta=1.0, gamma=0.01),
    lpess_cfg(2.0), make_config("rss", alpha=0.5),
    make_config("rpgss", beta=1.0, gamma=0.01)],
    ids=["pess", "egss", "lpess", "rss", "rpgss"])
def test_analyze_maps_the_shift_spectrum_forward(small_system, cfg,
                                                 monkeypatch):
    """``analyze`` returns lambda = 1/(s + nu) over nu = eig(A^{-1} Sigma),
    behind n entries of exactly 1/s when L1 is dropped: the same set as
    eig(P^{-1} A) either way round, and with L1 kept the non-real check
    reads every lambda with its own mu = 1/nu.  rss's s = 1/2 puts its n
    entries 1/s = 2 on the unit circle, the unit disk's only violations."""
    seen = {}
    check = spectral._nonreal_disjunction

    def spy(nonreal, mu, b, s):
        seen.update(nonreal=nonreal, mu=mu)
        return check(nonreal, mu, b, s)

    monkeypatch.setattr(spectral, "_nonreal_disjunction", spy)
    spec, _, reports = analyze(small_system, cfg)
    ref = preconditioned_spectrum(small_system, build(small_system, cfg))
    assert spec.shape == ref.shape
    d = np.abs(spec[:, None] - ref[None, :])
    assert np.all(d.min(axis=1) <= 1e-10 * np.abs(spec))
    assert np.all(d.min(axis=0) <= 1e-10 * np.abs(ref))
    nu = shift_spectrum(small_system, cfg)
    if not cfg.is_pess:
        assert np.count_nonzero(spec == 1.0 / cfg.s) == small_system.n
        assert nu.size == small_system.m + small_system.p and not seen
    else:
        nonreal = np.abs(spec.imag) > 1e-8
        assert nonreal.any()
        assert np.array_equal(seen["nonreal"], spec[nonreal])
        np.testing.assert_allclose(seen["mu"], 1.0 / nu[nonreal], rtol=1e-12)
    disk, *rest = reports
    assert all(r.holds for r in rest)
    on_circle = cfg.s == 0.5 and not cfg.is_pess
    assert disk.holds != on_circle
    assert [v for v, _ in disk.violations] == (
        [2.0] * small_system.n if on_circle else [])


def test_unpreconditioned_spectrum(small_system):
    spec = preconditioned_spectrum(small_system)
    assert spec.dtype == np.complex128 and spec.shape == (small_system.size,)
    ref = np.linalg.eigvals(small_system.matrix.toarray())
    assert np.allclose(np.sort_complex(spec),
                       np.sort_complex(ref), atol=1e-8)


# -- blocked densification ------------------------------------------------


def hausdorff(x, y):
    """Largest distance from a point of either set to the nearest point of
    the other."""
    d = np.abs(x[:, None] - y[None, :])
    return max(d.min(axis=1).max(), d.min(axis=0).max())


@pytest.mark.parametrize("kind", ["none", "gss", "bd", "callable"])
def test_blocked_spectrum_matches_dense_oracle(kind):
    """100 unknowns: one block of 64 columns and a ragged one of 36."""
    sysv = example1(5)
    if kind == "none":
        P, Pd = None, np.eye(sysv.size)
    elif kind == "bd":
        P = build_bd(sysv)
        Pd = sla.block_diag(*bd_blocks(sysv))
    else:
        cfg = case_preset("II", sysv, s=12.0)
        P, Pd = build(sysv, cfg), gss_matrix(sysv, cfg).toarray()
    widths = []
    if kind == "callable":
        def P(R):
            widths.append(R.shape[1])
            return np.linalg.solve(Pd, R)
    spec = preconditioned_spectrum(sysv, P)
    ref = np.linalg.eigvals(np.linalg.solve(Pd, sysv.matrix.toarray()))
    assert spec.shape == ref.shape
    assert hausdorff(spec, ref) <= 1e-10 * np.abs(ref).max()
    if kind == "callable":
        assert widths == [64, 36]


def test_blocked_spectrum_memory_peak():
    """P^{-1} A is the one N x N array held: the traced peak stays below
    1.5 of its 8 N^2 bytes (dense A, a solve copy and eig's copy beside it
    came to about 2)."""
    sysv = example1(12)
    P = build(sysv, case_preset("II", sysv, s=12.0))
    tracemalloc.start()
    try:
        preconditioned_spectrum(sysv, P)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 8 * sysv.size ** 2


def not_reached(*args):
    raise AssertionError("work started above the densification guard")


def test_densification_guard_comes_before_any_work(monkeypatch):
    sysv = example1(36)  # 5184 unknowns, above system.DENSIFY_LIMIT

    monkeypatch.setattr(spectral, "scalar_extremes", not_reached)
    msg = "system size 5184 exceeds densification guard 5000"
    with pytest.raises(ValueError, match=msg):
        analyze(sysv, case_preset("II", sysv, s=12.0))
    with pytest.raises(ValueError, match=msg):
        preconditioned_spectrum(sysv, not_reached)


def test_densification_guard_reads_the_order_of_the_shift_eig(monkeypatch):
    """A dropped L1 leaves an (m+p) eig: with the guard between m+p = 32 and
    N = 64, lpess is analyzed and pess is refused with N in the message."""
    sysv = example1(4)
    monkeypatch.setattr(system, "DENSIFY_LIMIT", 40)
    spec, _, reports = analyze(sysv, lpess_cfg(12.0))
    assert spec.size == sysv.size and len(reports) == 2
    msg = "^system size 64 exceeds densification guard 40$"
    with pytest.raises(ValueError, match=msg):
        analyze(sysv, pess_cfg(12.0))
    monkeypatch.setattr(system, "DENSIFY_LIMIT", 31)
    with pytest.raises(ValueError, match="^dense block order 32 exceeds"):
        analyze(sysv, lpess_cfg(12.0))


@pytest.mark.parametrize("kind", ["pess", "lpess"])
def test_refusal_above_the_guard_makes_no_factor(monkeypatch, kind):
    # the guard reads the order of the dense array before either spectrum
    # makes the coefficient matrix's LU or A's factor
    sysv = example1(4)
    lus, a_factors = count_factors(monkeypatch, sysv.matrix)
    monkeypatch.setattr(system, "DENSIFY_LIMIT", 31)
    cfg = pess_cfg(12.0) if kind == "pess" else lpess_cfg(12.0)
    with pytest.raises(ValueError, match="exceeds densification guard 31$"):
        analyze(sysv, cfg)
    with pytest.raises(ValueError, match="^system size 64 exceeds"):
        preconditioned_spectrum(sysv)
    assert lus == [] and a_factors == []


def test_scalar_extremes_refuses_above_the_guard(monkeypatch):
    """With L1 kept the dense A is n x n, without it the largest dense array
    is the m x m Schur complement: a guard between m = 16 and n = 32 refuses
    pess before any work and lets lpess through."""
    sysv = example1(4)
    monkeypatch.setattr(system, "DENSIFY_LIMIT", 20)
    msg = "^dense block order 32 exceeds densification guard 20$"
    with monkeypatch.context() as m, pytest.raises(ValueError, match=msg):
        m.setattr(spectral, "require_spd", not_reached)
        scalar_extremes(sysv, case_preset("II", sysv, s=12.0))
    ex = scalar_extremes(sysv, lpess_cfg(12.0))
    assert ex.xi_max is None and ex.vartheta_max > 0


# -- scalar extremes vs brute force ---------------------------------------


def test_scalar_extremes_oracle(small_system):
    cfg = make_config("pess", lambda1=2.0, lambda2=3.0, lambda3=0.5, s=1.0)
    ex = scalar_extremes(small_system, cfg)
    A = small_system.A.toarray()
    B = small_system.B.toarray()
    C = small_system.C.toarray()
    xi = np.linalg.eigvalsh(A) / 2.0
    assert ex.xi_min == pytest.approx(xi[0], rel=1e-9)
    assert ex.xi_max == pytest.approx(xi[-1], rel=1e-9)
    eta = np.linalg.eigvalsh(B @ B.T / 2.0) / 3.0
    assert ex.eta_min == pytest.approx(eta[0], rel=1e-9, abs=1e-12)
    assert ex.eta_max == pytest.approx(eta[-1], rel=1e-9)
    theta = np.linalg.eigvalsh(C.T @ C / 0.5) / 3.0
    assert ex.theta_tilde_max == pytest.approx(theta[-1], rel=1e-9)
    vth = np.linalg.eigvalsh(B @ np.linalg.solve(A, B.T)) / 3.0
    assert ex.vartheta_min == pytest.approx(vth[0], rel=1e-9)
    assert ex.vartheta_max == pytest.approx(vth[-1], rel=1e-9)
    tt = np.linalg.eigvalsh(C @ C.T / 3.0) / 0.5
    assert ex.theta_tilde_min == pytest.approx(tt[0], rel=1e-9)
    assert ex.theta_tilde_max == pytest.approx(tt[-1], rel=1e-9)


@pytest.mark.parametrize("kind", ["pess", "lpess"])
def test_scalar_extremes_oracle_matrix_shifts(small_system, kind):
    # the Case II operands L1 = A, L2 = I, L3 = 0.001 C C^T: every pencil
    # but (., L2) has a matrix T; the reference is the unsymmetric
    # eigenproblem T^{-1} S on explicitly formed S
    L1, L2, L3 = case_operands("II", small_system)
    params = {"lambda2": L2, "lambda3": 0.001 * L3, "s": 1.0}
    if kind == "pess":
        params["lambda1"] = L1
    ex = scalar_extremes(small_system, make_config(kind, **params))
    A = small_system.A.toarray()
    B = small_system.B.toarray()
    C = small_system.C.toarray()
    lam3 = 0.001 * C @ C.T

    def pencil(S, T):
        return np.sort(np.linalg.eigvals(np.linalg.solve(T, S)).real)

    I_m = np.eye(small_system.m)
    if kind == "pess":
        xi = pencil(A, A)
        assert (ex.xi_min, ex.xi_max) == pytest.approx((xi[0], xi[-1]),
                                                       rel=1e-9)
        eta = pencil(B @ np.linalg.solve(A, B.T), I_m)
        assert (ex.eta_min, ex.eta_max) == pytest.approx((eta[0], eta[-1]),
                                                         rel=1e-9)
    else:
        assert ex.xi_max is None and ex.eta_min is None
    theta = pencil(C.T @ np.linalg.solve(lam3, C), I_m)
    assert ex.theta_tilde_max == pytest.approx(theta[-1], rel=1e-9)
    vth = pencil(B @ np.linalg.solve(A, B.T), I_m)
    assert (ex.vartheta_min, ex.vartheta_max) == pytest.approx(
        (vth[0], vth[-1]), rel=1e-9)
    tt = pencil(C @ C.T, lam3)
    assert (ex.theta_tilde_min, ex.theta_tilde_max) == pytest.approx(
        (tt[0], tt[-1]), rel=1e-9)


def test_dropped_shift_extremes_are_none(small_system):
    ex = scalar_extremes(small_system, lpess_cfg(2.0))
    assert ex.xi_max is None and ex.eta_min is None
    assert ex.vartheta_min is not None
    with pytest.raises(InapplicableBound):
        pess_real_interval(ex, 2.0)
    with pytest.raises(InapplicableBound):
        pess_nonreal_bounds(ex, 2.0)


def test_scalar_extremes_rejects_bad_dense_shifts(small_system):
    # each shift is checked before it reaches the generalized eigensolver
    indefinite = np.diag(np.r_[-1.0, np.ones(small_system.n - 1)])
    cfg = make_config("pess", lambda1=indefinite, lambda2=1.0, lambda3=0.5,
                      s=1.0)
    with pytest.raises(NotPositiveDefinite):
        scalar_extremes(small_system, cfg)
    asymmetric = np.eye(small_system.m)
    asymmetric[0, 1] = 0.5
    cfg = make_config("pess", lambda1=1.0, lambda2=asymmetric, lambda3=0.5,
                      s=1.0)
    with pytest.raises(ValueError):
        scalar_extremes(small_system, cfg)


# -- bound formulas --------------------------------------------------------


def test_mu_transform_inverse(small_system, monkeypatch):
    """check_pess_nonreal reads mu = lambda / (1 - s lambda), the inverse
    of lambda = mu / (1 + s mu): on P^{-1} A's spectrum it agrees with the
    mu = 1/nu that ``analyze`` passes, and a non-real lambda within
    ``MU_GUARD`` of the pole 1/s is a ValueError (possible only for s below
    1e-4: a non-real lambda has |Im lambda| > 1e-8)."""
    cfg = pess_cfg(2.0)
    seen = []
    check = spectral._nonreal_disjunction

    def spy(nonreal, mu, b, s):
        seen.append((nonreal, mu))
        return check(nonreal, mu, b, s)

    monkeypatch.setattr(spectral, "_nonreal_disjunction", spy)
    spec, ex, _ = analyze(small_system, cfg)
    check_pess_nonreal(spec, ex, cfg.s)
    (lam, mu_nu), (same, mu) = seen
    assert lam.size and np.array_equal(same, lam)
    np.testing.assert_allclose(mu, mu_nu, rtol=1e-10)
    np.testing.assert_allclose(mu / (1 + cfg.s * mu), lam, rtol=1e-12)
    with pytest.raises(ValueError, match="^eigenvalue too close to 1/s"):
        check_pess_nonreal(np.array([1e5 + 2e-8j]), ex, 1e-5)


def test_lpess_bound_values_formulas():
    ex = ScalarExtremes(vartheta_min=0.1, vartheta_max=1.0,
                        theta_tilde_min=0.5, theta_tilde_max=2.0)
    s = 4.0
    b = lpess_bound_values(ex, s)
    assert b["real_upper"] == pytest.approx(1.0 / 5.0)
    assert b["real_lower"] == pytest.approx(min(0.1 / 1.4, 0.5 / 3.0))
    assert b["mod_lower"] == pytest.approx(0.1 / 2.4)
    assert b["mod_upper"] == pytest.approx(np.sqrt(2.0 / (1 + 0.4 + 32.0)))
    assert b["annulus_lower"] == pytest.approx(1 / (4 * (1 + 4 * np.sqrt(2))))
    assert b["annulus_upper"] == pytest.approx(2 / (4 * 2.4))
    # the non-cluster real upper endpoint never reaches the cluster at 1/s
    assert b["real_upper"] < b["real_upper_with_cluster"] == pytest.approx(0.25)


# -- localization checks on randomized systems ------------------------------


@pytest.mark.parametrize("seed", range(20))
def test_localization_on_random_systems(seed):
    """Unit disk + positive real parts + real interval + non-real
    disjunction, all for s >= 1/2."""
    rng = np.random.default_rng(500 + seed)
    sysv = random_system(rng, n=10, m=6, p=4)
    s = [0.5, 1.0, 2.0, 5.0][seed % 4]
    cfg = pess_cfg(s)
    P = build(sysv, cfg)
    spec = preconditioned_spectrum(sysv, P)
    ex = scalar_extremes(sysv, cfg)

    disk = check_unit_disk(spec, s)
    assert disk.holds, disk.violations
    # positivity: every eigenvalue has positive real part
    assert np.all(spec.real > 0)
    ri = check_real_interval(spec, ex, s)
    assert ri.holds, ri.violations
    nr = check_pess_nonreal(spec, ex, s)
    assert nr.holds, nr.violations
    assert ri.metadata["count_real"] + nr.metadata["count_nonreal"] == len(spec)


@pytest.mark.parametrize("seed", range(10))
def test_lpess_localization_on_random_systems(seed):
    rng = np.random.default_rng(900 + seed)
    sysv = random_system(rng, n=10, m=6, p=4)
    s = [1.0, 2.0, 4.0][seed % 3]
    cfg = lpess_cfg(s)
    spec = preconditioned_spectrum(sysv, build(sysv, cfg))
    ex = scalar_extremes(sysv, cfg)
    rep = lpess_bounds(spec, ex, s, sysv.n)
    assert rep.holds, (rep.violations, rep.metadata)
    assert rep.metadata["multiplicity"] >= sysv.n
    assert rep.metadata["theta_tilde_convention"]


@pytest.fixture(scope="module")
def example6():
    return example1(6)


@pytest.mark.parametrize("case", ["I", "II"])
@pytest.mark.parametrize("kind,s", [
    *((k, s) for k in ("pess", "lpess") for s in (0.3, 1.0, 13.0)),
    ("ss", None), ("rss", None), ("egss", None), ("rpgss", None)])
def test_unit_disk_holds_exactly_above_s_critical(kind, s, case, example6):
    # 1/(s + nu) lies in the unit disk around 1 iff s > 1/2 - min Re nu; a
    # dropped L1 adds nu = 0, so its threshold is at least 1/2.  The
    # half-shift kinds keep their own s and the CLI's default coefficients.
    P, Q, W = case_operands(case, example6)
    cfg = make_config(kind, lambda1=P, lambda2=Q, lambda3=0.001 * W, s=s,
                      alpha=0.1, beta=1.0, gamma=0.001, P=P, Q=Q, W=W)
    disk = analyze(example6, cfg)[2][0]
    assert disk.theorem == "unit-disk"
    assert disk.holds == (cfg.s > disk.metadata["s_critical"])
    assert cfg.is_pess or disk.metadata["s_critical"] >= 0.5


# -- planted violations ------------------------------------------------------


def assert_only_violation(rep, planted):
    """The check fails and reports exactly ``planted``, outside by a
    positive margin."""
    assert not rep.holds
    assert [v for v, _ in rep.violations] == [planted]
    assert rep.violations[0][1] > 0


@pytest.fixture(scope="module")
def pess_case(small_system):
    s = 2.0
    cfg = pess_cfg(s)
    spec = preconditioned_spectrum(small_system, build(small_system, cfg))
    return spec, scalar_extremes(small_system, cfg), s


@pytest.fixture(scope="module")
def lpess_case(small_system):
    s = 2.0
    cfg = lpess_cfg(s)
    spec = preconditioned_spectrum(small_system, build(small_system, cfg))
    return spec, scalar_extremes(small_system, cfg), s


def test_unit_disk_planted_violation(pess_case):
    spec, _, s = pess_case
    assert check_unit_disk(spec, s).holds
    rep = check_unit_disk(np.r_[spec, 2.5], s)
    assert_only_violation(rep, 2.5)
    assert rep.violations[0][1] == pytest.approx(0.5)


def test_real_interval_planted_violations(pess_case):
    spec, ex, s = pess_case
    assert check_real_interval(spec, ex, s).holds
    hi = pess_real_interval(ex, s)[1]
    rep = check_real_interval(np.r_[spec, hi + 0.1], ex, s)
    assert_only_violation(rep, hi + 0.1)
    assert rep.violations[0][1] == pytest.approx(0.1)
    # the lower endpoint 0 is open
    rep = check_real_interval(np.r_[spec, -0.25], ex, s)
    assert_only_violation(rep, -0.25)
    assert rep.violations[0][1] == pytest.approx(0.25)


def test_pess_nonreal_planted_violation(pess_case):
    spec, ex, s = pess_case
    base = check_pess_nonreal(spec, ex, s)
    assert base.holds
    planted = 3.0 + 3.0j
    rep = check_pess_nonreal(np.r_[spec, planted], ex, s)
    assert_only_violation(rep, planted)
    assert rep.metadata["count_nonreal"] == base.metadata["count_nonreal"] + 1
    assert rep.metadata["branches"] == base.metadata["branches"]


def test_lpess_planted_violations(lpess_case, small_system):
    spec, ex, s = lpess_case
    n = small_system.n
    assert lpess_bounds(spec, ex, s, n).holds
    b = lpess_bound_values(ex, s)
    for planted in (b["real_upper"] + 0.05, 2.0 + 2.0j):
        rep = lpess_bounds(np.r_[spec, planted], ex, s, n)
        assert_only_violation(rep, planted)
        assert rep.metadata["multiplicity"] >= n


def test_lpess_cluster_too_small(lpess_case, small_system):
    spec, ex, s = lpess_case
    n = small_system.n
    rest = spec[np.abs(spec - 1.0 / s) > 1e-6]
    rep = lpess_bounds(np.r_[rest, np.full(n - 1, 1.0 / s)], ex, s, n)
    assert rep.metadata["multiplicity"] == n - 1
    assert not rep.holds and rep.violations == ()


# -- condition number --------------------------------------------------------


@pytest.mark.parametrize("kind", KINDS)
def test_condition_number_oracle(kind, small_system):
    """kappa(P^-1 A) for every kind, those that drop L1 included."""
    M = small_system.matrix.toarray()
    assert condition_number(small_system) == pytest.approx(
        np.linalg.cond(M, 2), rel=1e-10)
    cfg = all_kind_configs(small_system)[kind]
    P = build(small_system, cfg)
    PM = np.linalg.solve(gss_matrix(small_system, cfg).toarray(), M)
    assert condition_number(small_system, P) == pytest.approx(
        np.linalg.cond(PM, 2), rel=1e-10)
    # preconditioning improves conditioning here
    assert condition_number(small_system, P) < condition_number(small_system)


def test_condition_number_deterministic():
    l8 = example1(8)
    P = build(l8, case_preset("II", l8, s=10.0))
    assert condition_number(l8, P) == condition_number(l8, P)


def test_condition_number_singular():
    # the second row of B and the second column of C are zero, so the
    # coefficient matrix has a zero row
    sysv = assemble(sp.identity(3), sp.csr_matrix([[1.0, 0, 0], [0, 0, 0]]),
                    sp.csr_matrix([[1.0, 0]]))
    with pytest.raises(Singular):
        condition_number(sysv)


def test_condition_number_arpack_failure(small_system, monkeypatch):
    monkeypatch.setattr(spla, "svds", arpack_fails)
    with pytest.raises(ConvergenceFailure):
        condition_number(small_system)


# -- serialization -----------------------------------------------------------


def test_report_json_encodes_complex_only(tmp_path):
    # a planted violation: its complex eigenvalue is written as re/im
    rep = check_unit_disk(np.array([0.5 + 0.1j, 3.0 + 1.0j]), 1.0)
    path = tmp_path / "reports.json"
    write_json([rep], path)
    (loaded,) = json.loads(path.read_text())
    assert loaded["holds"] is False
    assert loaded["violations"][0][0] == {"re": 3.0, "im": 1.0}
    bad = BoundReport("unit-disk", {}, True, (), {"tags": {"x"}})
    with pytest.raises(TypeError):
        write_json([bad], path)


def test_report_round_trip(small_system, tmp_path):
    cfg = pess_cfg(2.0)
    spec = preconditioned_spectrum(small_system, build(small_system, cfg))
    ex = scalar_extremes(small_system, cfg)
    reports = [check_unit_disk(spec, 2.0), check_real_interval(spec, ex, 2.0)]
    path = tmp_path / "reports.json"
    write_json(reports, path)
    loaded = json.loads(path.read_text())
    assert len(loaded) == 2
    assert [(d["theorem"], d["holds"]) for d in loaded] == [
        (r.theorem, r.holds) for r in reports]
    assert loaded[1]["bounds"]["upper"] == pytest.approx(
        pess_real_interval(ex, 2.0)[1])

    csv_path = tmp_path / "eigs.csv"
    write_eigenvalue_csv(spec, csv_path)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "re,im,classification"
    assert len(lines) == 1 + len(spec)
    assert all(ln.endswith(("real", "nonreal")) for ln in lines[1:])
