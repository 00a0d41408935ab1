"""Flux-basis eigensolver: harmonic limit, presets, and lambda scoring."""

from dataclasses import replace

import numpy as np
import pytest

from squidqed.constants import HBAR, PHI0, TWO_PI
from squidqed.squid import (FluxGrid, LevelStructure, ResolutionError,
                            SquidParams, build_potential,
                            harmonic_scale_element, lambda_check, load_preset,
                            preset_path, solve)
from squidqed.squid import (_WINDOW_FLOORS, _doubled_grid_energies,
                            _solve_grid, _tridiagonal, _window_levels)


def make_structure(omega_10, omega_20, e02, e12, params):
    """Hand-built three-level structure for lambda_check edge cases."""
    energies = HBAR * np.array([0.0, omega_10, omega_20])
    scale = harmonic_scale_element(params)
    elements = np.array([
        [params.Phi_x, 0.3 * scale, e02],
        [0.3 * scale, params.Phi_x, e12],
        [e02, e12, params.Phi_x],
    ])
    return LevelStructure(energies, elements, omega_10, omega_20,
                          omega_20 - omega_10, params=params)


def test_params_validation_and_derived():
    with pytest.raises(ValueError):
        SquidParams(C=0.0, L=1e-10, Ic=0.0, Phi_x=0.0)
    with pytest.raises(ValueError):
        SquidParams(C=1e-14, L=1e-10, Ic=-1e-6, Phi_x=0.0)
    p = SquidParams(C=2.6e-14, L=6.5e-11, Ic=6.4e-6, Phi_x=0.4998 * PHI0)
    assert p.E_J == pytest.approx(6.4e-6 * PHI0 / TWO_PI)
    assert p.beta_L == pytest.approx(TWO_PI * 6.5e-11 * 6.4e-6 / PHI0)
    assert p.beta_L > 1.0  # hysteretic double-well regime
    assert p.omega_lc == pytest.approx(1.0 / np.sqrt(6.5e-11 * 2.6e-14))


def test_flux_grid():
    with pytest.raises(ValueError):
        FluxGrid(0.0, 1e-15, 100)  # even
    with pytest.raises(ValueError):
        FluxGrid(0.0, 1e-15, 63)  # too few
    g = FluxGrid(0.5 * PHI0, 0.2 * PHI0, 101)
    vals = g.values()
    assert vals.size == 101
    assert vals[50] == pytest.approx(0.5 * PHI0)
    assert np.diff(vals).max() == pytest.approx(g.step)
    fine = g.doubled()
    assert fine.points == 201
    assert fine.step == pytest.approx(g.step / 2)


def test_build_potential_harmonic_minimum():
    p = SquidParams(C=4e-14, L=1e-10, Ic=0.0, Phi_x=0.5 * PHI0)
    g = FluxGrid(0.5 * PHI0, 0.2 * PHI0, 257)
    v = build_potential(p, g)
    assert np.argmin(v) == 128  # grid center == Phi_x
    assert v[128] == pytest.approx(0.0, abs=1e-40)


def test_harmonic_spectrum_and_elements():
    # Ic = 0 makes the loop an exact LC oscillator: uniform level spacing
    # hbar/sqrt(LC), <n|Phi|n> = Phi_x, and the 0-1 element equals the
    # closed-form oscillator length scale.
    p, g = load_preset("harmonic")
    ls = solve(p, g, n_levels=3)
    spacing = np.diff(ls.energies)
    assert spacing[0] == pytest.approx(HBAR * p.omega_lc, rel=1e-6)
    assert spacing[1] == pytest.approx(spacing[0], rel=1e-5)
    scale = harmonic_scale_element(p)
    assert abs(ls.flux_elements[0, 1]) == pytest.approx(scale, rel=1e-5)
    assert abs(ls.flux_elements[1, 2]) == pytest.approx(np.sqrt(2) * scale,
                                                       rel=1e-5)
    assert ls.flux_elements[0, 0] == pytest.approx(p.Phi_x, rel=1e-9)
    assert abs(ls.flux_elements[0, 2]) < 1e-4 * scale  # parity-forbidden


def test_harmonic_convergence_is_second_order():
    # central-difference stencil: transition-energy error drops ~4x per
    # grid doubling
    p, _ = load_preset("harmonic")
    exact = HBAR * p.omega_lc
    errs = []
    for points in (129, 257, 513):
        g = FluxGrid(0.5 * PHI0, 0.2 * PHI0, points)
        ls = solve(p, g, n_levels=2, check_convergence=False)
        errs.append(abs((ls.energies[1] - ls.energies[0]) - exact))
    r1 = errs[0] / errs[1]
    r2 = errs[1] / errs[2]
    assert 3.0 < r1 < 5.0
    assert 3.0 < r2 < 5.0


def test_double_well_preset_lambda_ok():
    p, g = load_preset("ref15_like")
    ls = solve(p, g)
    assert ls.omega_10 / TWO_PI == pytest.approx(7.0356707e9, rel=1e-5)
    assert ls.omega_20 / TWO_PI == pytest.approx(79.0790651e9, rel=1e-5)
    assert ls.omega_20 == pytest.approx(ls.omega_10 + ls.omega_21, rel=1e-12)
    report = lambda_check(ls)
    assert report
    assert report.reasons == ()
    assert report.ratio_20 > 5.0 and report.ratio_21 > 5.0


def test_narrow_grid_raises():
    p, _ = load_preset("harmonic")
    tight = FluxGrid(0.5 * PHI0, 0.02 * PHI0, 257)
    with pytest.raises(ResolutionError, match="edge potential"):
        solve(p, tight)


def test_coarse_grid_raises():
    p, g = load_preset("ref15_like")
    coarse = FluxGrid(g.center, g.half_width, 101)
    with pytest.raises(ResolutionError, match="doubling"):
        solve(p, coarse)


def test_solve_argument_validation():
    p, g = load_preset("harmonic")
    with pytest.raises(ValueError):
        solve(p, g, n_levels=0)
    with pytest.raises(ValueError):
        solve(p, g, n_levels=9)


def test_level_structure_invariants():
    p, _ = load_preset("harmonic")
    w10, w20 = 1.0e9, 10.0e9
    with pytest.raises(ValueError, match="ascending"):
        make_structure(-1.0e9, w20, 1e-17, 1e-17, p)
    with pytest.raises(ValueError, match="omega_20"):
        LevelStructure(HBAR * np.array([0.0, w10, w20]), np.zeros((3, 3)),
                       w10, w20, w20)  # omega_21 inconsistent
    with pytest.raises(ValueError, match="symmetric"):
        el = np.zeros((3, 3))
        el[0, 2] = 1e-17
        LevelStructure(HBAR * np.array([0.0, w10, w20]), el,
                       w10, w20, w20 - w10)


def test_lambda_check_failures():
    p, _ = load_preset("harmonic")
    scale = harmonic_scale_element(p)
    # ratio below threshold
    low = make_structure(20.0e9, 60.0e9, 0.2 * scale, 0.2 * scale, p)
    rep = lambda_check(low)
    assert not rep
    assert any("omega_20/omega_10" in r for r in rep.reasons)
    # dark transitions
    dark = make_structure(1.0e9, 10.0e9, 0.0, 0.0, p)
    rep = lambda_check(dark)
    assert not rep
    assert "dark 0<->2 transition" in rep.reasons
    assert "dark 1<->2 transition" in rep.reasons
    # needs provenance
    bare = LevelStructure(HBAR * np.array([0.0, 1.0e9, 10.0e9]),
                          np.zeros((3, 3)), 1.0e9, 10.0e9, 9.0e9)
    with pytest.raises(ValueError, match="provenance"):
        lambda_check(bare)


def test_preset_lookup():
    assert preset_path("harmonic").name == "harmonic.json"
    with pytest.raises(FileNotFoundError, match="available"):
        preset_path("no_such_preset")


def _check_inputs():
    """Presets at their own bias, at mirrored biases 0.5 +- u, at exactly
    Phi_0 / 2, and on a 101-point grid far from convergence."""
    for name in ("ref15_like", "harmonic"):
        p, g = load_preset(name)
        yield f"{name} preset", p, g
        yield f"{name} half", replace(p, Phi_x=0.5 * PHI0), g
        for u in (1e-6, 1e-5, 2e-4, 9.8e-3):
            for bias in (0.5 + u, 0.5 - u):
                yield f"{name} {bias}", replace(p, Phi_x=bias * PHI0), g
        yield f"{name} 101", p, FluxGrid(g.center, g.half_width, 101)


def _fine_reference(p, g, n_levels=3):
    """Doubled-grid tridiagonal, its resolution floor, the index-mode
    eigenvalues on it, and the check's window half-width at rtol 1e-6."""
    from scipy.linalg import eigvalsh_tridiagonal

    coarse = _solve_grid(p, g, n_levels)[0]
    diag, off, _ = _tridiagonal(p, g.doubled())
    floor = np.finfo(float).eps * np.max(np.abs(diag))
    index = eigvalsh_tridiagonal(diag, off, select="i",
                                 select_range=(0, n_levels - 1))
    half = max(1e-6 * (coarse[-1] - coarse[0]), _WINDOW_FLOORS * floor)
    return coarse, diag, off, floor, index, half


@pytest.fixture
def search_modes(monkeypatch):
    """Record every eigenvalue-only tridiagonal search as "count" (a value
    range searched with a tolerance as wide as the range), "window" (a value
    range at full resolution) or "index"."""
    import scipy.linalg

    modes = []
    real = scipy.linalg.eigvalsh_tridiagonal

    def spy(*args, **kwargs):
        if kwargs["select"] == "i":
            modes.append("index")
        else:
            modes.append("count" if kwargs.get("tol") else "window")
        return real(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigvalsh_tridiagonal", spy)
    return modes


def _index_mode_decision(p, g, n_levels, rtol):
    """Whether the check should raise, judged on the full index-mode solve
    of the doubled grid with eigenvectors (the check's original reference),
    and that solve's eigenvalues."""
    coarse = _solve_grid(p, g, n_levels)[0]
    ref_fine = _solve_grid(p, g.doubled(), n_levels)[0]
    ref_tr = ref_fine[1:] - ref_fine[0]
    ref_shift = np.max(np.abs(coarse[1:] - coarse[0] - ref_tr) / ref_tr)
    return ref_shift > rtol, coarse, ref_fine


def _assert_decides(p, g, n_levels, rtol, raises):
    if raises:
        with pytest.raises(ResolutionError, match="doubling"):
            solve(p, g, n_levels, check_rtol=rtol)
    else:
        solve(p, g, n_levels, check_rtol=rtol)


def test_doubled_grid_check_decides_like_the_index_mode_solve(search_modes):
    rtol = 1e-6
    for label, p, g in _check_inputs():
        raises, coarse, ref_fine = _index_mode_decision(p, g, 3, rtol)
        ref_tr = ref_fine[1:] - ref_fine[0]
        search_modes.clear()
        fine, _ = _doubled_grid_energies(p, g, coarse, rtol)
        np.testing.assert_allclose(fine[1:] - fine[0], ref_tr, rtol=1e-7,
                                   err_msg=label)
        # a count, then the windows, and at most one index search, last
        assert search_modes[0] in ("count", "index"), label
        assert "index" not in search_modes[:-1], label
        if label == "ref15_like preset":
            # no index search when converged
            assert search_modes == ["count"] + ["window"] * 3
        if label.endswith("101"):
            assert search_modes[-1] == "index", label  # the fallback ran
        if search_modes[-1] == "index":
            np.testing.assert_array_equal(fine, ref_fine, err_msg=label)
        _assert_decides(p, g, 3, rtol, raises)


def test_each_window_holds_one_value_near_the_index_mode_value():
    from scipy.linalg import eigvalsh_tridiagonal

    for label, p, g in _check_inputs():
        coarse, diag, off, floor, index, half = _fine_reference(p, g)
        found = [eigvalsh_tridiagonal(diag, off, select="v",
                                      select_range=(c - half, c + half))
                 for c in coarse]
        if label.endswith("101"):
            # far from convergence every fine level leaves its window
            assert [f.size for f in found] == [0, 0, 0], label
            assert _window_levels(diag, off, coarse, half) is None, label
            continue
        assert [f.size for f in found] == [1, 1, 1], label
        levels = _window_levels(diag, off, coarse, half)
        assert np.array_equal(levels, np.concatenate(found)), label
        assert np.max(np.abs(levels - index)) <= 2.0 * floor, label


def test_a_window_miss_falls_back_to_the_index_mode_search(monkeypatch,
                                                            search_modes):
    import squidqed.squid as squid

    real = squid._window_levels
    monkeypatch.setattr(squid, "_window_levels",
                        lambda diag, off, centers, half:
                        real(diag, off, centers, 0.0))
    rtol = 1e-6
    for label, p, g in _check_inputs():
        if label.endswith(("preset", "0.5098", "101")):
            raises, coarse, ref_fine = _index_mode_decision(p, g, 3, rtol)
            search_modes.clear()
            fine, _ = _doubled_grid_energies(p, g, coarse, rtol)
            assert search_modes[-1] == "index", label
            np.testing.assert_array_equal(fine, ref_fine, err_msg=label)
            _assert_decides(p, g, 3, rtol, raises)


@pytest.mark.parametrize("name", ["ref15_like", "harmonic"])
@pytest.mark.parametrize("n_levels", [2, 5, 8])
@pytest.mark.parametrize("points", [None, 2001])
def test_level_counts_decide_like_the_index_mode_solve(name, n_levels,
                                                       points):
    p, g = load_preset(name)
    if points is not None:  # too coarse: the check raises
        g = FluxGrid(g.center, g.half_width, points)
    rtol = 1e-6
    raises, coarse, ref_fine = _index_mode_decision(p, g, n_levels, rtol)
    fine, _ = _doubled_grid_energies(p, g, coarse, rtol)
    ref_tr = ref_fine[1:] - ref_fine[0]
    np.testing.assert_allclose(fine[1:] - fine[0], ref_tr, rtol=1e-7)
    _assert_decides(p, g, n_levels, rtol, raises)


def test_overlapping_windows_are_never_certified():
    # two windows around level 1 each hold it alone, and the count up to the
    # top edge finds two values (levels 0 and 1); only disjointness stops
    # level 1 from being returned twice
    p, g = load_preset("ref15_like")
    _, diag, off, _, index, half = _fine_reference(p, g)
    centers = index[1] + np.array([-0.5, 0.5]) * half
    assert _window_levels(diag, off, centers, half) is None


def test_converged_check_makes_one_lapack_call_per_level_and_one_count(
        monkeypatch):
    # every LAPACK routine the tridiagonal eigensolvers fetch is counted,
    # so an index-mode or wide value search creeping back would show
    import scipy.linalg._decomp as decomp

    calls = []
    real = decomp.get_lapack_funcs

    def fetch(names, arrays=(), *args, **kwargs):
        def counted(func):
            def call(*a, **k):
                calls.append((func.__name__, *a[2:5], a[7]))
                return func(*a, **k)
            return call
        return tuple(counted(f) for f in real(names, arrays, *args, **kwargs))

    p, g = load_preset("ref15_like")
    for n_levels in (2, 3, 5):
        coarse, _, _, _, _, half = _fine_reference(p, g, n_levels)
        monkeypatch.setattr(decomp, "get_lapack_funcs", fetch)
        calls.clear()
        _doubled_grid_energies(p, g, coarse, 1e-6)
        monkeypatch.undo()
        assert len(calls) <= n_levels + 1, calls
        # stebz(d, e, select, vl, vu, ..., tol): select 1 searches by value
        # (2 by index); only the count may search more than one window,
        # 2 * half wide up to the rounding of its edges
        for name, select, vl, vu, tol in calls:
            assert name.endswith("stebz") and select == 1, calls
            assert tol > 0 or vu - vl < 2.01 * half, calls
        assert sum(tol > 0 for *_, tol in calls) == 1, calls


@pytest.mark.parametrize("rtol", [float("nan"), float("inf"), 0.0, -1e-6])
def test_solve_refuses_a_check_rtol_that_is_not_finite_and_positive(rtol):
    p, g = load_preset("harmonic")
    with pytest.raises(ValueError, match="check_rtol"):
        solve(p, g, check_rtol=rtol)


def test_symmetric_point_refusal_names_the_resolution_floor():
    p, g = load_preset("ref15_like")
    at_half = replace(p, Phi_x=0.5 * PHI0)
    with pytest.raises(ResolutionError, match="doubling") as info:
        solve(at_half, g)
    assert "resolution floor" in str(info.value)
    assert "increase points" not in str(info.value)
    # a grid that is merely too coarse still gets the old advice
    with pytest.raises(ResolutionError, match="increase points"):
        solve(p, FluxGrid(g.center, g.half_width, 101))


def test_convergence_check_never_changes_the_result():
    for name in ("ref15_like", "harmonic"):
        p, g = load_preset(name)
        checked = solve(p, g, check_convergence=True)
        unchecked = solve(p, g, check_convergence=False)
        assert np.array_equal(checked.energies, unchecked.energies)
        assert np.array_equal(checked.flux_elements, unchecked.flux_elements)
        for attr in ("omega_10", "omega_20", "omega_21"):
            assert getattr(checked, attr) == getattr(unchecked, attr)
