"""Flux-basis eigensolver: harmonic limit, presets, and lambda scoring."""

import json
import re
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

from squidqed.constants import HBAR, PHI0, TWO_PI
from squidqed.squid import (FluxGrid, LevelStructure, ResolutionError,
                            SquidParams, build_potential,
                            harmonic_scale_element, lambda_check, load_preset,
                            preset_path, solve)
from squidqed.squid import (_STURM_SLOP, _doubled_grid_energies,
                            _normalize, _predicted_pairs, _solve_grid,
                            _tridiagonal)


def make_structure(omega_10, omega_20, e02, e12, params):
    """Hand-built three-level structure for lambda_check edge cases."""
    energies = HBAR * np.array([0.0, omega_10, omega_20])
    scale = harmonic_scale_element(params)
    elements = np.array([
        [params.Phi_x, 0.3 * scale, e02],
        [0.3 * scale, params.Phi_x, e12],
        [e02, e12, params.Phi_x],
    ])
    return LevelStructure(energies, elements, params=params)


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
    for bad in (65.0, 101.0, True, "65"):
        with pytest.raises(ValueError, match="points must be an int, got"):
            FluxGrid(0.0, 1e-15, bad)
    assert FluxGrid(0.0, 1e-15, np.int64(65)).values().size == 65
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
    for n_levels in (3.0, True, "3"):
        with pytest.raises(ValueError, match="n_levels must be an int"):
            solve(p, g, n_levels=n_levels)
    assert solve(p, g, n_levels=np.int64(3)).n_levels == 3


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
@pytest.mark.parametrize("name", ["C", "L", "Ic", "Phi_x"])
def test_params_refuse_a_non_finite_value_by_name(name, value):
    p, _ = load_preset("ref15_like")
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        replace(p, **{name: value})


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
@pytest.mark.parametrize("name", ["center", "half_width"])
def test_grid_refuses_a_non_finite_value_by_name(name, value):
    _, g = load_preset("ref15_like")
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        replace(g, **{name: value})


@pytest.mark.parametrize("check", [True, False])
def test_coincident_levels_are_refused_by_name(check):
    # a deeper double well at the symmetric point: the 0-1 tunnel splitting
    # falls below the resolution floor and the two lowest levels coincide
    import warnings

    p, g = load_preset("ref15_like")
    deep = replace(p, Ic=8e-6, Phi_x=0.5 * PHI0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ResolutionError,
                           match="levels 0 and 1 coincide") as info:
            solve(deep, g, check_convergence=check)
    assert "resolution floor" in str(info.value)


def test_level_structure_invariants():
    p, _ = load_preset("harmonic")
    w10, w20 = 1.0e9, 10.0e9
    with pytest.raises(ValueError, match="ascending"):
        make_structure(-1.0e9, w20, 1e-17, 1e-17, p)
    # the transitions are derived from the energies and cannot be passed,
    # neither by position nor by keyword
    with pytest.raises(TypeError):
        LevelStructure(HBAR * np.array([0.0, w10, w20]), np.zeros((3, 3)),
                       w10, w20, w20 - w10)
    with pytest.raises(TypeError, match="omega_20"):
        LevelStructure(HBAR * np.array([0.0, w10, w20]), np.zeros((3, 3)),
                       omega_20=w20)
    with pytest.raises(ValueError, match="symmetric"):
        el = np.zeros((3, 3))
        el[0, 2] = 1e-17
        LevelStructure(HBAR * np.array([0.0, w10, w20]), el)


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
                          np.zeros((3, 3)))
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


def _half_width(rho, floor, rtol):
    """The certificate's window half-width h around predictions rho."""
    return max(16.0 * floor, rtol * np.min(rho[1:] - rho[0]) / 8.0)


def _spy_lapack(monkeypatch, wrap):
    """Hand the solver, in place of each routine ``name`` of the module
    ``squid._lapack()`` returns, ``wrap(name, routine)``."""
    import squidqed.squid as squid

    real = squid._lapack()

    class Spied:
        def __getattr__(self, name):
            return wrap(name, getattr(real, name))

    spied = Spied()
    monkeypatch.setattr(squid, "_lapack", lambda: spied)


@pytest.fixture
def search_modes(monkeypatch):
    """Record every eigenvalue-only tridiagonal search as "count" (a value
    range searched with a tolerance as wide as the range), "window" (a value
    range at full resolution) or "index"."""
    modes = []

    def wrap(name, func):
        def spy(*a, **k):
            # stebz(d, e, select, vl, vu, il, iu, tol, order): order "E"
            # returns values only, select 2 searches by index
            if name == "dstebz" and a[8] == "E":
                if a[2] == 2:
                    modes.append("index")
                else:
                    modes.append("count" if a[7] else "window")
            return func(*a, **k)
        return spy

    _spy_lapack(monkeypatch, wrap)
    return modes


def _bisected(p, g, n_levels):
    """The full index-mode solve of one grid (bisection, then inverse
    iteration on the whole grid), normalized as `_solve_grid` normalizes:
    the reference the predicted solve falls back to bit for bit."""
    from scipy.linalg import eigh_tridiagonal

    diag, off = _tridiagonal(p, g)[:2]
    energies, vecs = eigh_tridiagonal(diag, off, select="i",
                                      select_range=(0, n_levels - 1))
    _normalize(vecs, g.step)
    return energies, vecs


def _index_mode_decision(p, g, n_levels, rtol):
    """Whether the check should raise, judged on the full index-mode solve
    of the doubled grid with eigenvectors (the check's original reference),
    the coarse eigenpairs, and that solve's eigenvalues."""
    coarse, vecs = _solve_grid(p, g, n_levels)[:2]
    ref_fine = _bisected(p, g.doubled(), n_levels)[0]
    ref_tr = ref_fine[1:] - ref_fine[0]
    ref_shift = np.max(np.abs(coarse[1:] - coarse[0] - ref_tr) / ref_tr)
    return ref_shift > rtol, coarse, vecs, ref_fine


def _assert_decides(p, g, n_levels, rtol, raises):
    if raises:
        with pytest.raises(ResolutionError, match="doubling"):
            solve(p, g, n_levels, check_rtol=rtol)
    else:
        solve(p, g, n_levels, check_rtol=rtol)


def _assert_sound(p, g, n_levels, rtol, modes, label=""):
    """Run the check and hold it to the index-mode solve; return whether the
    Sturm counts alone certified a pass.

    The transitions agree with the index-mode ones to 1e-7 relative.  A
    certified pass makes n_levels + 1 counts and nothing else, keeps every
    level within the certified bound of the index-mode value, and happens
    only where the index mode passes.  Otherwise one index search, last,
    returns the index-mode values exactly.  Either way `solve` decides as
    the index mode does."""
    raises, coarse, vecs, ref_fine = _index_mode_decision(p, g, n_levels,
                                                          rtol)
    modes.clear()
    fine, floor = _doubled_grid_energies(p, g, coarse, vecs, rtol)
    np.testing.assert_allclose(fine[1:] - fine[0], ref_fine[1:] - ref_fine[0],
                               rtol=1e-7, err_msg=label)
    certified = "index" not in modes
    if certified:
        assert modes == ["count"] * (n_levels + 1), label
        assert not raises, label
        bound = (_half_width(fine, floor, rtol)
                 + (2.0 * _STURM_SLOP + 1.0) * floor)
        assert np.max(np.abs(fine - ref_fine)) <= bound, label
    else:
        assert modes[-1] == "index", label
        assert set(modes[:-1]) <= {"count"}, label
        np.testing.assert_array_equal(fine, ref_fine, err_msg=label)
    _assert_decides(p, g, n_levels, rtol, raises)
    return certified


def test_doubled_grid_check_decides_like_the_index_mode_solve(search_modes):
    certified = {label for label, p, g in _check_inputs()
                 if _assert_sound(p, g, 3, 1e-6, search_modes, label)}
    # converged grids away from the symmetric point pass on counts alone;
    # the far-from-converged grids never do
    for name in ("ref15_like", "harmonic"):
        assert f"{name} preset" in certified
        assert f"{name} 101" not in certified
        for bias in (0.5002, 0.4998, 0.5098, 0.4902):
            assert f"{name} {bias}" in certified


@pytest.mark.parametrize("name", ["ref15_like", "harmonic"])
@pytest.mark.parametrize("n_levels", [2, 5, 8])
@pytest.mark.parametrize("points", [None, 2001])
def test_level_counts_decide_like_the_index_mode_solve(search_modes, name,
                                                       n_levels, points):
    p, g = load_preset(name)
    if points is not None:  # too coarse: the check raises
        g = FluxGrid(g.center, g.half_width, points)
    certified = _assert_sound(p, g, n_levels, 1e-6, search_modes)
    assert certified or points is not None


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_predictions_moved_by_three_half_widths_fall_back(monkeypatch,
                                                          search_modes, sign):
    # every window then misses its level, so the counts refuse to certify
    # and the index mode decides as it would alone; run on the inputs whose
    # unmoved predictions certify
    import squidqed.squid as squid

    rtol = 1e-6
    real = squid._rayleigh_levels

    def moved(diag, off, vecs):
        rho = real(diag, off, vecs)
        floor = np.finfo(float).eps * np.max(np.abs(diag))
        return rho + sign * 3.0 * _half_width(rho, floor, rtol)

    monkeypatch.setattr(squid, "_rayleigh_levels", moved)
    for label, p, g in _check_inputs():
        if not label.endswith(("preset", "0.5002", "0.4998", "0.5098",
                               "0.4902")):
            continue
        raises, coarse, vecs, ref_fine = _index_mode_decision(p, g, 3, rtol)
        search_modes.clear()
        fine, _ = _doubled_grid_energies(p, g, coarse, vecs, rtol)
        assert search_modes[0] == "count", label  # the counts refused
        assert search_modes[-1] == "index", label
        np.testing.assert_array_equal(fine, ref_fine, err_msg=label)
        _assert_decides(p, g, 3, rtol, raises)


def _check_lapack_calls(monkeypatch, p, g, n_levels):
    """Every LAPACK routine the solver calls while the check runs, as
    (name, select, vl, vu, tol) for ``stebz``."""
    calls = []

    def counted(name, func):
        def call(*a, **k):
            calls.append((name, *a[2:5], a[7]))
            return func(*a, **k)
        return call

    coarse, vecs = _solve_grid(p, g, n_levels)[:2]
    _spy_lapack(monkeypatch, counted)
    _doubled_grid_energies(p, g, coarse, vecs, 1e-6)
    monkeypatch.undo()
    return calls


def test_converged_check_makes_one_lapack_call_per_level_and_one_count(
        monkeypatch):
    # every LAPACK routine the solver calls is counted, so an index-mode
    # search or a bisecting value search creeping back would show
    p, g = load_preset("ref15_like")
    for n_levels in (2, 3, 5):
        calls = _check_lapack_calls(monkeypatch, p, g, n_levels)
        # stebz(d, e, select, vl, vu, ..., tol): select 1 searches by value
        # (2 by index); a tolerance as wide as the range stops it after the
        # Sturm counts at the two ends
        assert len(calls) == n_levels + 1, calls
        for name, select, vl, vu, tol in calls:
            assert name.endswith("stebz") and select == 1, calls
            assert tol >= vu - vl > 0, calls


@pytest.mark.parametrize("bias", [0.5, 0.5 - 1e-5, 0.5 + 1e-6])
def test_a_check_the_counts_refuse_searches_values_only(monkeypatch, bias):
    # near the symmetric point the counts cannot certify, and the search
    # that decides is one bisection by index that computes no eigenvectors
    p, g = load_preset("ref15_like")
    calls = _check_lapack_calls(monkeypatch, replace(p, Phi_x=bias * PHI0),
                                g, 3)
    assert [name[-5:] for name, *_ in calls] == ["stebz"] * len(calls), calls
    assert calls[-1][1] == 2, calls  # select 2: by index
    assert all(select == 1 for _, select, *_ in calls[:-1]), calls


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


def _assert_bisected(p, g, n_levels, label=""):
    energies, vecs = _solve_grid(p, g, n_levels)[:2]
    want_energies, want_vecs = _bisected(p, g, n_levels)
    np.testing.assert_array_equal(energies, want_energies, err_msg=label)
    np.testing.assert_array_equal(vecs, want_vecs, err_msg=label)


def _extended_rayleigh_quotients(p, g, vecs):
    """Rayleigh quotients of the columns of ``vecs`` on the grid's
    tridiagonal, in extended precision, with the kinetic part as a sum of
    squared differences (zero beyond the ends)."""
    wide = np.longdouble
    diag, off = _tridiagonal(p, g)[:2]
    kin = wide(-off[0])
    pot = diag.astype(wide) - 2 * kin
    out = []
    for x in vecs.T.astype(wide):
        dx = np.diff(x, prepend=wide(0), append=wide(0))
        out.append((pot @ (x * x) + kin * (dx @ dx)) / (x @ x))
    return np.array(out)


@pytest.mark.parametrize("u", [2e-4, 1e-3, 5e-3, 9.8e-3])
@pytest.mark.parametrize("name", ["ref15_like", "harmonic"])
def test_predicted_solve_is_certified_and_accurate(name, u):
    # off the symmetric point the prediction certifies; its transitions are
    # those of its own vectors in extended precision, its levels lie within
    # two floors of the full bisection, and mirrored biases agree on
    # |<0|Phi|2>| (a solve that keeps inverse iteration's vectors from a
    # loosely bisected shift misses this by 4.6e-6 at u = 4.685e-3)
    p, g = load_preset(name)
    pairs = []
    for bias in (0.5 + u, 0.5 - u):
        q = replace(p, Phi_x=bias * PHI0)
        diag, off, _, floor = _tridiagonal(q, g)
        assert _predicted_pairs(q, g, diag, off, floor, 3) is not None, bias
        energies, vecs = _solve_grid(q, g, 3)[:2]
        exact = _extended_rayleigh_quotients(q, g, vecs)
        np.testing.assert_allclose(energies[1:] - energies[0],
                                   (exact[1:] - exact[0]).astype(float),
                                   rtol=1e-11, atol=0, err_msg=str(bias))
        bisected = _bisected(q, g, 3)[0]
        assert np.max(np.abs(energies - bisected)) <= 2.0 * floor, bias
        pairs.append(solve(q, g))
    a, b = (abs(ls.flux_elements[0, 2]) for ls in pairs)
    assert abs(a - b) <= 1e-8 * harmonic_scale_element(p)


@pytest.mark.parametrize("sign", [1, -1])
def test_flux_elements_hold_at_the_level_2_3_avoided_crossing(sign):
    # at u = 4.686e-3 .. 4.698e-3 levels 2 and 3 close to ~6.3e6 floors;
    # the certificate bounds levels, not eigenvectors, so only the coarse
    # grid's step keeps the predicted elements within 3.4e-9 of the largest
    # element of a 4-level bisection (16x coarser certifies too, 5.1e-8 off)
    p, g = load_preset("ref15_like")
    phi = g.values()
    for u in np.arange(4.686e-3, 4.6981e-3, 2e-6):
        q = replace(p, Phi_x=(0.5 + sign * u) * PHI0)
        vecs = _bisected(q, g, 4)[1][:, :3]
        want = np.array([[np.trapezoid(vecs[:, i] * phi * vecs[:, j],
                                       dx=g.step) for j in range(3)]
                         for i in range(3)])
        got = solve(q, g).flux_elements
        assert np.max(np.abs(got - want)) <= 1e-8 * np.max(np.abs(want)), u


@pytest.mark.parametrize("label, bias, ic", [
    ("half", 0.5, None), ("u = 1e-6", 0.5 - 1e-6, None),
    ("u = -1e-6", 0.5 + 1e-6, None), ("u = 1e-5", 0.5 - 1e-5, None),
    ("u = -1e-5", 0.5 + 1e-5, None), ("deep well", 0.5, 8e-6)])
def test_near_the_floor_the_solve_is_the_full_bisection(label, bias, ic):
    # a smallest transition below 2^26 resolution floors goes to the full
    # bisection, on the shipped grid and on the doubled one, so every result
    # near the symmetric point stands
    p, g = load_preset("ref15_like")
    p = replace(p, Phi_x=bias * PHI0, Ic=p.Ic if ic is None else ic)
    for grid in (g, g.doubled()):
        for n_levels in (2, 3):
            _assert_bisected(p, grid, n_levels, label)


def test_a_corrupted_prolongation_falls_back_to_the_full_bisection(
        monkeypatch):
    # midpoints shifted by 1/200 of the grid give shifts too far off for
    # inverse iteration, so the full bisection decides
    import squidqed.squid as squid

    real = squid._prolong
    monkeypatch.setattr(squid, "_prolong",
                        lambda v: np.roll(real(v), (2 * v.size - 1) // 200))
    for name in ("ref15_like", "harmonic"):
        p, g = load_preset(name)
        diag, off, _, floor = _tridiagonal(p, g)
        assert _predicted_pairs(p, g, diag, off, floor, 3) is None, name
        _assert_bisected(p, g, 3, name)


def test_shifts_at_the_wrong_levels_fail_the_certificate(monkeypatch):
    # shifts at levels 1..n converge cleanly, to the wrong levels; the
    # intervals are disjoint, but the Sturm count below the top one finds
    # n + 1 eigenvalues, so the certificate refuses
    import itertools

    import squidqed.squid as squid

    counts = []
    real_count = squid._count

    def count(*args):
        counts.append(real_count(*args))
        return counts[-1]

    monkeypatch.setattr(squid, "_count", count)
    for name in ("ref15_like", "harmonic"):
        p, g = load_preset(name)
        levels = itertools.cycle(_bisected(p, g, 4)[0][1:])
        monkeypatch.setattr(squid, "_rayleigh_quotient",
                            lambda pot, kin, x: next(levels))
        counts.clear()
        diag, off, _, floor = _tridiagonal(p, g)
        assert _predicted_pairs(p, g, diag, off, floor, 3) is None, name
        assert counts == [4], name
        _assert_bisected(p, g, 3, name)


def test_shifts_not_strictly_increasing_take_the_bisection(monkeypatch):
    # stein needs its shifts ascending: equal predicted shifts give up
    # before any fine-grid LAPACK call, and the grid takes the full
    # index-mode bisection bit for bit
    import squidqed.squid as squid

    calls = []

    def constant(pot, kin, x):
        calls.append(x.size)
        return 1.0

    for name in ("ref15_like", "harmonic"):
        p, g = load_preset(name)
        diag, off, _, floor = _tridiagonal(p, g)
        coarse_points = squid._coarse_grid(g)[0].points

        def no_lapack(routine, func):
            def call(*a, **k):
                # only the coarse grid's eigenpairs may be solved
                if len(a[0]) != coarse_points:
                    raise AssertionError(
                        "no fine-grid LAPACK routine may be called")
                return func(*a, **k)
            return call

        calls.clear()
        with monkeypatch.context() as m:
            m.setattr(squid, "_rayleigh_quotient", constant)
            _spy_lapack(m, no_lapack)
            assert _predicted_pairs(p, g, diag, off, floor, 3) is None, name
        assert calls == [g.points] * 3, name
        with monkeypatch.context() as m:
            m.setattr(squid, "_rayleigh_quotient", constant)
            energies, vecs = _solve_grid(p, g, 3)[:2]
        want_energies, want_vecs = _bisected(p, g, 3)
        np.testing.assert_array_equal(energies, want_energies, err_msg=name)
        np.testing.assert_array_equal(vecs, want_vecs, err_msg=name)


def test_a_predicted_solve_makes_one_fine_inverse_iteration_and_one_count(
        monkeypatch):
    # every LAPACK routine the solver calls is counted: on the full grid
    # only one inverse iteration (stein) and one two-ended Sturm count
    # (stebz by value with a tolerance as wide as its range) may run, so a
    # bisection of the full grid creeping back would show
    calls = []

    def counted(name, func):
        def call(*a, **k):
            calls.append((name, np.shape(a[0]) if a else (), a))
            return func(*a, **k)
        return call

    p, g = load_preset("ref15_like")
    coarse = ((g.points - 1) // 8 + 1,)
    for n_levels in (2, 3, 5):
        _spy_lapack(monkeypatch, counted)
        calls.clear()
        _solve_grid(p, g, n_levels)
        monkeypatch.undo()
        # the Rayleigh-Ritz step's dense n x n solve is the only other work
        long = [(name[-5:], shape, a) for name, shape, a in calls
                if shape not in ((), (n_levels, n_levels))]
        assert [(name, shape) for name, shape, _ in long] == [
            ("stebz", coarse), ("stein", coarse), ("stein", (g.points,)),
            ("stebz", (g.points,))], calls
        # stebz(d, e, select, vl, vu, il, iu, tol, order): select 2 is by
        # index, 1 by value
        assert long[0][2][2] == 2
        select, vl, vu, tol = (long[3][2][i] for i in (2, 3, 4, 7))
        assert select == 1 and tol >= vu - vl > 0


def _transition_cases():
    """Both presets, and ref15_like across the benchmark sweep's biases
    Phi_x = (0.5 +- u) Phi_0, u from 2e-4 to 9.8e-3."""
    cases = [("harmonic", *load_preset("harmonic"))]
    p, g = load_preset("ref15_like")
    cases.append(("ref15_like", p, g))
    for u in (2e-4, 4.69e-3, 9.8e-3):
        for sign in (1, -1):
            cases.append((f"u = {sign * u}",
                          replace(p, Phi_x=(0.5 + sign * u) * PHI0), g))
    return cases


def test_transitions_are_the_energy_differences_bit_for_bit():
    for label, p, g in _transition_cases():
        for n_levels in (2, 3):
            ls = solve(p, g, n_levels, check_convergence=False)
            e = ls.energies
            want = {"omega_10": (e[1] - e[0]) / HBAR,
                    "omega_20": (e[2] - e[0]) / HBAR if n_levels > 2 else 0.0,
                    "omega_21": (e[2] - e[1]) / HBAR if n_levels > 2 else 0.0}
            for name, value in want.items():
                got = getattr(ls, name)
                assert type(got) is float, (label, name)
                assert got == float(value), (label, n_levels, name)


def _write_preset(directory, name, drop=(), extra=None):
    data = json.loads(preset_path("harmonic").read_text())
    for key in drop:
        del data[key]
    data.update(extra or {})
    (directory / f"{name}.json").write_text(json.dumps(data))


_NOT_FINITE = ("loop Hamiltonian is not finite on the grid: C, L, Ic, Phi_x "
               "or the grid step overflow it")


@pytest.mark.parametrize("case, reason", [
    ("half_width zero", "half_width must be positive"),
    ("half_width negative", "half_width must be positive"),
    ("preset unknown key", "unknown keys in preset extra.json: bias"),
    ("preset missing key",
     "preset short.json missing keys: C_farad, grid_points"),
    ("lambda_check two levels", "lambda_check needs at least 3 levels"),
    ("non-square elements",
     "flux_elements must be square, one row per level"),
    # finite parameters whose Hamiltonian is not: 2 C step^2 underflows to
    # 0, and (Phi - Phi_x)^2 overflows
    ("capacitance underflow", _NOT_FINITE),
    ("bias overflow", _NOT_FINITE),
])
def test_squid_refusals_are_named(tmp_path, monkeypatch, case, reason):
    import squidqed.squid as squid

    p, g = load_preset("ref15_like")
    _write_preset(tmp_path, "extra", extra={"bias": 0.5})
    _write_preset(tmp_path, "short", drop=("C_farad", "grid_points"))
    monkeypatch.setattr(squid, "PRESET_DIR", tmp_path)
    energies = HBAR * np.array([0.0, 1.0e9, 10.0e9])
    refusals = {
        "half_width zero": lambda: FluxGrid(0.5 * PHI0, 0.0, 101),
        "half_width negative": lambda: FluxGrid(0.5 * PHI0, -0.1 * PHI0,
                                                101),
        "preset unknown key": lambda: load_preset("extra"),
        "preset missing key": lambda: load_preset("short"),
        "lambda_check two levels": lambda: lambda_check(LevelStructure(
            energies[:2], np.zeros((2, 2)))),
        "non-square elements": lambda: LevelStructure(energies,
                                                      np.zeros((3, 2))),
        "capacitance underflow": lambda: solve(replace(p, C=1e-300), g),
        "bias overflow": lambda: solve(replace(p, Phi_x=1e170 * PHI0), g),
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused without a numpy warning
        with pytest.raises(ValueError, match=f"^{re.escape(reason)}$"):
            refusals[case]()


@pytest.mark.parametrize("routine", ["stein", "syev"])
def test_a_failing_lapack_routine_falls_back_to_the_full_bisection(
        monkeypatch, routine):
    # the routine the predicted solve calls itself reports info != 0, so
    # the prediction is dropped and the full bisection decides, bit for bit
    failed = []

    def failing(name, func):
        def call(*a, **k):
            # the coarse grid's and the bisection's own calls run as usual
            if (not name.endswith(routine)
                    or sys._getframe(1).f_code.co_name != "_predicted_pairs"):
                return func(*a, **k)
            failed.append(routine)
            return (*func(*a, **k)[:-1], 1)
        return call

    _spy_lapack(monkeypatch, failing)
    for name in ("ref15_like", "harmonic"):
        p, g = load_preset(name)
        diag, off, _, floor = _tridiagonal(p, g)
        failed.clear()
        assert _predicted_pairs(p, g, diag, off, floor, 3) is None, name
        assert failed == [routine], (name, failed)
        _assert_bisected(p, g, 3, name)


#: Solves whose bits the LAPACK loader must not move: both presets, and each
#: at Phi_x = (0.5 - 1e-5) Phi_0, which takes the full bisection.
_LOADER_CASES = """
from dataclasses import replace

from squidqed.constants import PHI0
from squidqed.squid import ResolutionError, load_preset, solve


def loader_results():
    out = []
    for name in ("ref15_like", "harmonic"):
        p, g = load_preset(name)
        for q in (p, replace(p, Phi_x=(0.5 - 1e-5) * PHI0)):
            try:
                ls = solve(q, g)
            except ResolutionError as exc:
                out.append(str(exc))
            else:
                out.append(ls.energies.tobytes().hex()
                           + ls.flux_elements.tobytes().hex())
    return out
"""


def _loader_results():
    space = {}
    exec(_LOADER_CASES, space)
    return space["loader_results"]()


def _fresh_python(code):
    """Run ``code`` after the loader cases in a fresh interpreter and return
    its last line of output, read as JSON."""
    proc = subprocess.run([sys.executable, "-c", _LOADER_CASES + code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_a_fresh_spectrum_loads_only_the_lapack_extension(tmp_path):
    # neither scipy.linalg's package nor OpenSSL, and the solves give the
    # bits of this process, where scipy.linalg is loaded first
    import scipy.linalg  # noqa: F401

    code = (
        "import json, sys\n"
        "from squidqed.cli import main\n"
        f"out = {str(tmp_path)!r}\n"
        "for name in ('ref15_like', 'harmonic'):\n"
        "    cfg = f'{out}/{name}.json'\n"
        "    with open(cfg, 'w') as f:\n"
        "        json.dump({'preset': name}, f)\n"
        "    assert main(['spectrum', '--config', cfg,\n"
        "                 '--out', f'{out}/{name}']) == 0\n"
        "results = loader_results()\n"
        "loaded = [m for m in ('scipy.linalg', '_hashlib')\n"
        "          if m in sys.modules]\n"
        "print(json.dumps([loaded, 'scipy.linalg._flapack' in sys.modules,\n"
        "                  results]))\n")
    loaded, extension, results = _fresh_python(code)
    assert loaded == []
    assert extension
    assert results == _loader_results()


def test_scipy_linalg_imported_after_a_solve_shares_the_extension():
    code = ("import json, sys\n"
            "import squidqed.squid as squid\n"
            "loader_results()\n"
            "import scipy.linalg\n"
            "print(json.dumps([\n"
            "    scipy.linalg.lapack.dstebz is squid._lapack().dstebz,\n"
            "    sys.modules['scipy.linalg._flapack'] is squid._lapack()]))\n")
    assert _fresh_python(code) == [True, True]


def test_an_unfindable_extension_falls_back_to_scipy_linalg_lapack(
        monkeypatch):
    import importlib.machinery

    import scipy.linalg.lapack

    import squidqed.squid as squid

    want = _loader_results()
    real = importlib.machinery.PathFinder.find_spec

    def find_spec(name, path=None, target=None):
        if name == "scipy.linalg._flapack":
            return None
        return real(name, path, target)

    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
    monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec",
                        staticmethod(find_spec))
    squid._lapack.cache_clear()
    try:
        assert squid._lapack() is scipy.linalg.lapack
        assert _loader_results() == want
    finally:
        squid._lapack.cache_clear()
