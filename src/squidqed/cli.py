"""Command-line front end.

Four subcommands — spectrum, gate, scan, feasibility — each reading an
optional flat JSON config (every physical key carries a unit suffix, e.g.
``gamma_radps``, ``t_r_s``; unknown keys, keys the chosen gate backend
or scan kind never reads, and ``--backend`` outside ``gate`` are rejected)
and writing delimited text files into the output directory.  Data files are
deterministic: identical config gives byte-identical bytes, every column
header names its units, and the only header line carries the producing
command and a hash of the effective config (CPython's built-in SHA-256, so
no run loads OpenSSL's libcrypto).  Run metadata that may vary (wall time,
failed scan points, failed reduction conditions, a ``gamma_radps`` the
cavity backend ignored) goes to a separate run.log.
Scans run in the calling process; ``--workers`` is accepted for
compatibility only.

Importing this module loads only the standard library and ``constants``;
each subcommand imports what it computes when it runs:

- ``spectrum``: the loop solver ``squid``, and through it numpy and
  ``scipy.linalg``;
- ``gate``: ``protocols``, ``verify``, ``hilbert``, ``hamiltonians`` and
  ``feasibility`` (and through them numpy and ``dynamics``);
- ``scan``: ``verify`` and ``hamiltonians`` (and through them numpy,
  ``protocols``, ``hilbert`` and ``dynamics``);
- ``feasibility``: ``feasibility`` alone, with no numpy; ``protocols`` too
  when the gate time is derived from rates.

No command but ``spectrum`` loads the solver or ``scipy.linalg``.

``gate`` runs the computational inputs of a schedule as one block (for
``transfer``, those with loop b in |0>), and its states file and every
check read that block.

Exit codes: 0 success, 1 physics-check failure (failed truth table or
dispersive condition, a fidelity below its bound or NaN, solver resolution
error, all scan points failed), 2 usage or config error, or an input the
library refuses by name before any data file is written: a rate whose
step length or total gate time is not finite, a feasibility budget whose
derived quantity is not finite and positive.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from typing import TYPE_CHECKING

# CPython's built-in SHA-256, the one hashlib itself falls back to: hashlib
# would load OpenSSL's libcrypto into every run only to hash the header
try:
    from _sha2 import sha256 as _sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256 as _sha256

from .constants import HBAR, TWO_PI

if TYPE_CHECKING:
    from .protocols import ExecutionParams

__all__ = ["main"]

_PLANCK = TWO_PI * HBAR

#: CLI schedule names (the entangling preparation is addressed as
#: "entangle") mapped onto the shipped schedule builders.
_GATE_NAMES = {"entangle": "entanglement", "cps": "cps", "swap": "swap",
               "transfer": "transfer"}


class ConfigError(Exception):
    """Bad config content; maps to exit code 2."""


def _number(key, what="finite number", accept=lambda x: True):
    """Validator for a finite JSON number that fits a float (JSON integers
    may not); ``what`` names the rule, ``accept`` checks what it adds."""
    def check(v):
        if (not isinstance(v, (int, float)) or isinstance(v, bool)
                or not abs(v) <= sys.float_info.max or not accept(v)):
            raise ConfigError(f"config key '{key}' must be a {what}")
        return float(v)
    return check


def _positive(key):
    return _number(key, "finite positive number", lambda x: x > 0)


def _positive_int(key, minimum=1):
    def check(v):
        if not isinstance(v, int) or isinstance(v, bool) or v < minimum:
            raise ConfigError(f"config key '{key}' must be an integer "
                              f">= {minimum}")
        return v
    return check


def _string_choice(key, choices):
    def check(v):
        if v not in choices:
            raise ConfigError(f"config key '{key}' must be one of "
                              f"{sorted(choices)}")
        return v
    return check


def _ratio_grid(key):
    def check(v):
        if not isinstance(v, list):
            raise ConfigError(f"config key '{key}' must be a list of ratios")
        if len(v) == 0:
            raise ConfigError(f"config key '{key}' must not be empty")
        out = []
        for x in v:
            if not isinstance(x, (int, float)) or isinstance(x, bool) \
                    or not 0 < x < 1:
                raise ConfigError(f"config key '{key}' entries must be "
                                  f"numbers strictly between 0 and 1")
            out.append(float(x))
        return out
    return check


_SPECTRUM_SCHEMA = {
    "preset": _string_choice("preset", ("ref15_like", "harmonic")),
    "n_levels": _positive_int("n_levels"),
    "C_farad": _positive("C_farad"),
    "L_henry": _positive("L_henry"),
    "Ic_ampere": _number("Ic_ampere", "finite non-negative number",
                         lambda x: x >= 0),
    "Phix_over_Phi0": _number("Phix_over_Phi0"),
    "grid_points": _positive_int("grid_points", minimum=64),
    "grid_halfwidth_over_Phi0": _positive("grid_halfwidth_over_Phi0"),
}

_GATE_SCHEMA = {
    "schedule": _string_choice("schedule", tuple(_GATE_NAMES)),
    "gamma_radps": _positive("gamma_radps"),
    "rabi_radps": _positive("rabi_radps"),
    "g02_radps": _positive("g02_radps"),
    "detuning_radps": _positive("detuning_radps"),
    "fock_cutoff": _positive_int("fock_cutoff", minimum=2),
}

#: Gate config keys that only the cavity backend reads.
_CAVITY_KEYS = ("g02_radps", "detuning_radps", "fock_cutoff")

_SCAN_SCHEMA = {
    "scan_kind": _string_choice("scan_kind", ("rwa", "dispersive")),
    "grid": _ratio_grid("grid"),
    "g02_radps": _positive("g02_radps"),
    "detuning_radps": _positive("detuning_radps"),
    "fock_cutoff": _positive_int("fock_cutoff", minimum=2),
}

_FEASIBILITY_SCHEMA = {
    "q_factor": _positive("q_factor"),
    "nu_hz": _positive("nu_hz"),
    "t_op_s": _positive("t_op_s"),
    "t_r_s": _positive("t_r_s"),
    "margin": _positive("margin"),
    "gamma_radps": _positive("gamma_radps"),
    "rabi_radps": _positive("rabi_radps"),
}


def _validate(cfg: dict, schema: dict, command: str) -> dict:
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a flat JSON object")
    out = {}
    for key, value in cfg.items():
        if key not in schema:
            raise ConfigError(f"unknown config key '{key}' for command "
                              f"'{command}'")
        out[key] = schema[key](value)
    return out


def _given(cfg: dict, **keys) -> dict:
    """Keyword arguments from the config keys the user gave (``keys`` maps
    argument name to config key); the library fills in the rest."""
    return {arg: cfg[key] for arg, key in keys.items() if key in cfg}


def _refuse_unread(cfg: dict, keys, where: str) -> None:
    """Refuse given config keys that the chosen path never reads."""
    for key in cfg:
        if key in keys:
            raise ConfigError(f"config key '{key}' is not read by {where}")


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc


def _config_hash(command: str, backend: str | None, cfg: dict) -> str:
    canonical = json.dumps({"command": command, "backend": backend,
                            "config": cfg}, sort_keys=True,
                           separators=(",", ":"))
    return _sha256(canonical.encode()).hexdigest()[:12]


def _header(command: str, backend: str | None, cfg: dict) -> str:
    return f"# cmd={command} config_sha256={_config_hash(command, backend, cfg)}\n"


def _write(out_dir: str, name: str, text: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, name), "w", encoding="utf-8",
              newline="\n") as fh:
        fh.write(text)


def _fmt(x: float) -> str:
    return f"{x:.12e}"


def _backend_params(args, cfg: dict) -> tuple[str, ExecutionParams]:
    """Map the CLI backend name onto (protocols backend, params)."""
    from .protocols import ExecutionParams

    rabi = cfg.get("rabi_radps", 100.0)
    if args.backend != "cavity":
        _refuse_unread(cfg, _CAVITY_KEYS, f"gate --backend {args.backend}")
        return ("analytic" if args.backend == "analytic" else "hamiltonian",
                ExecutionParams(rabi=rabi, **_given(cfg, gamma="gamma_radps")))
    return "hamiltonian", ExecutionParams(
        rabi=rabi, explicit_cavity=True, **_given(
            cfg, g02="g02_radps", detuning="detuning_radps",
            fock_cutoff="fock_cutoff"))


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

def cmd_spectrum(args, raw_cfg: dict) -> int:
    # the loop solver and scipy.linalg load only for this command
    from .squid import (PRESET_KEYS, ResolutionError, lambda_check,
                        load_preset, params_from_keys, solve)

    cfg = _validate(raw_cfg, _SPECTRUM_SCHEMA, "spectrum")
    inline_keys = set(PRESET_KEYS)
    given_inline = inline_keys & set(cfg)
    if "preset" in cfg and given_inline:
        raise ConfigError("give either 'preset' or inline loop parameters, "
                          "not both")
    if given_inline and given_inline != inline_keys:
        missing = sorted(inline_keys - given_inline)
        raise ConfigError(f"inline loop parameters incomplete; missing "
                          f"{missing}")

    if given_inline:
        params, grid = params_from_keys(cfg)
    else:
        params, grid = load_preset(cfg.get("preset", "ref15_like"))

    try:
        ls = solve(params, grid, **_given(cfg, n_levels="n_levels"))
    except ResolutionError as exc:
        print(f"spectrum: {exc}", file=sys.stderr)
        return 1

    head = _header("spectrum", None, cfg)

    lines = [head,
             "level_index,energy_joule,energy_over_h_ghz,"
             "spacing_to_next_over_h_ghz\n"]
    for k, e in enumerate(ls.energies):
        if k + 1 < ls.n_levels:
            spacing = _fmt((ls.energies[k + 1] - e) / _PLANCK / 1e9)
        else:
            spacing = "nan"
        lines.append(f"{k},{_fmt(e)},{_fmt(e / _PLANCK / 1e9)},{spacing}\n")
    _write(args.out, "spectrum_levels.csv", "".join(lines))

    lines = [head, "level_i,level_j,flux_element_weber\n"]
    for i in range(ls.n_levels):
        for j in range(i, ls.n_levels):
            lines.append(f"{i},{j},{_fmt(ls.flux_elements[i, j])}\n")
    _write(args.out, "spectrum_elements.csv", "".join(lines))

    report = lambda_check(ls) if ls.n_levels >= 3 else None
    lines = [head]
    lines.append(f"omega_10_radps {_fmt(ls.omega_10)}\n")
    lines.append(f"omega_20_radps {_fmt(ls.omega_20)}\n")
    lines.append(f"omega_21_radps {_fmt(ls.omega_21)}\n")
    lines.append(f"omega_10_over_2pi_ghz {_fmt(ls.omega_10 / TWO_PI / 1e9)}\n")
    lines.append(f"omega_20_over_2pi_ghz {_fmt(ls.omega_20 / TWO_PI / 1e9)}\n")
    lines.append(f"omega_21_over_2pi_ghz {_fmt(ls.omega_21 / TWO_PI / 1e9)}\n")
    if report is not None:
        lines.append(f"lambda_config {'ok' if report.ok else 'not-ok'}\n")
        for reason in report.reasons:
            lines.append(f"lambda_reason {reason}\n")
    _write(args.out, "spectrum_summary.txt", "".join(lines))
    return 0


# ---------------------------------------------------------------------------
# gate
# ---------------------------------------------------------------------------

def cmd_gate(args, raw_cfg: dict) -> int:
    import numpy as np

    from .feasibility import gate_time_estimate
    from .hamiltonians import CONDITION_RATIO_MAX
    from .hilbert import StateVector, fidelity_up_to_global_phase
    from .protocols import SCHEDULE_BUILDERS, _run_block
    from .verify import (_BASIS, _BASIS_ROWS, _COMP, _compare_truth_table,
                         _loop_amplitudes, _run_photon_peaks, concurrence,
                         gate_fidelity, truth_table_cps, truth_table_swap,
                         truth_table_transfer)

    truth_tables = {"cps": truth_table_cps, "swap": truth_table_swap,
                    "transfer": truth_table_transfer}
    cfg = _validate(raw_cfg, _GATE_SCHEMA, "gate")
    name = cfg.get("schedule", "cps")
    schedule = SCHEDULE_BUILDERS[_GATE_NAMES[name]]()
    backend, params = _backend_params(args, cfg)
    head = _header("gate", args.backend, cfg)
    exact_backend = args.backend in ("analytic", "dispersive")
    if args.backend == "cavity" and "gamma_radps" in cfg:
        args.run_log.append(f"ignored_key "
                            f"gamma_radps={_fmt(cfg['gamma_radps'])} "
                            f"used_gamma_radps={_fmt(params.gamma)}")
    # refuses rates that make a step length overflow before any file is
    # written
    t_gate = gate_time_estimate(params.gamma, schedule, params.rabi)

    # one block of the computational inputs (transfer needs loop b in |0>):
    # its per-step states go to the states file, and every check below
    # reads the same runs, rows in `_BASIS` order like the truth tables
    rows = [k for k, (_, ab) in enumerate(_BASIS)
            if name != "transfer" or ab[1] == 0]
    runs = _run_block(schedule, _BASIS_ROWS[rows], backend, params)
    loops = _loop_amplitudes(runs)
    lines = [head,
             "input_label,step_index,loop_a_level,loop_b_level,"
             "amplitude_real_dimensionless,amplitude_imag_dimensionless\n"]
    for r, trail in zip(rows, loops):
        for k, state in enumerate(trail[1:]):
            for idx, amp in enumerate(state):
                if abs(amp) < 1e-14:
                    continue
                lines.append(f"{_BASIS[r][0]},{k + 1},{idx // 3},{idx % 3},"
                             f"{_fmt(amp.real)},{_fmt(amp.imag)}\n")
    _write(args.out, "gate_states.csv", "".join(lines))

    failures: list[str] = []
    summary = [head,
               f"schedule {name}\n",
               f"backend {args.backend}\n"]

    if name in truth_tables and exact_backend:
        chk = _compare_truth_table(truth_tables[name](), loops)
        summary.append(f"truth_table {'pass' if chk.ok else 'FAIL'}\n")
        summary.append(f"truth_table_max_deviation_dimensionless "
                       f"{_fmt(chk.max_deviation)}\n")
        if not chk.ok:
            failures.extend(chk.failures)

    # exact backends reach the ideal to roundoff; the cavity model may lose
    # the leading single-channel leakage 4 (g02/detuning)^2 to photons,
    # which bounds nothing unless g02/detuning is small
    limit = 1e-9 if exact_backend else 4.0 * params.gamma / params.detuning
    ratio = params.g02 / params.detuning
    if not exact_backend and ratio >= CONDITION_RATIO_MAX:
        failures.append(f"dispersive condition g02/detuning = {ratio!r} "
                        f"not below {CONDITION_RATIO_MAX}")

    if schedule.ideal_unitary is not None:
        tol = 1e-8 if exact_backend else 1.0
        fid = gate_fidelity(loops[:, -1, _COMP].T,
                            schedule.ideal_unitary, unitarity_tol=tol)
        summary.append(f"gate_fidelity_dimensionless {_fmt(fid)}\n")
        if not fid >= 1.0 - limit:  # NaN fails too
            failures.append(f"gate fidelity {fid!r} below 1 - {limit:.3e}")

    if schedule.target_state is not None:
        amps = loops[0, -1]  # |00>
        final = StateVector(amps / np.linalg.norm(amps), (3, 3))
        fid = fidelity_up_to_global_phase(final, schedule.target_state)
        conc = concurrence(final, support_tol=1e-6)
        summary.append(f"target_state_fidelity_dimensionless {_fmt(fid)}\n")
        summary.append(f"concurrence_dimensionless {_fmt(conc)}\n")
        if not fid >= 1.0 - limit:
            failures.append(f"target state fidelity {fid!r} below "
                            f"1 - {limit:.3e}")
        if exact_backend and not abs(conc - 1.0) <= 1e-9:
            failures.append(f"concurrence {conc!r} is not 1")

    if args.backend == "cavity":
        peak_n, peak_top = _run_photon_peaks(schedule, params, runs)
        summary.append(f"peak_photon_population_dimensionless "
                       f"{_fmt(peak_n)}\n")
        summary.append(f"top_fock_population_dimensionless "
                       f"{_fmt(peak_top)}\n")

    summary.append(f"total_gate_time_s {_fmt(t_gate)}\n")
    summary.append(f"physics_checks {'pass' if not failures else 'FAIL'}\n")
    for f in failures:
        summary.append(f"failure {f}\n")
    _write(args.out, "gate_summary.txt", "".join(summary))
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

def _scan_point(point, ratio: float, kwargs: dict) -> dict:
    """One scan point, run in the calling process."""
    import numpy as np

    try:
        return {"parameter": ratio, **point(ratio, **kwargs)}
    except (ValueError, np.linalg.LinAlgError) as exc:
        # a physics or input failure costs one point; programming errors
        # propagate
        return {"parameter": ratio, "failed": f"{type(exc).__name__}: {exc}"}


def cmd_scan(args, raw_cfg: dict) -> int:
    from .hamiltonians import CONDITION_RATIO_MAX
    from .verify import (DEFAULT_DISPERSIVE_RATIOS, DEFAULT_RWA_RATIOS,
                         dispersive_error_point, rwa_error_point)

    cfg = _validate(raw_cfg, _SCAN_SCHEMA, "scan")
    kind = cfg.get("scan_kind", "dispersive")
    if kind == "dispersive":
        # the grid sets g02/detuning at detuning 1
        _refuse_unread(cfg, ("g02_radps", "detuning_radps"),
                       "scan_kind 'dispersive'")
    default_grid = list(DEFAULT_RWA_RATIOS if kind == "rwa"
                        else DEFAULT_DISPERSIVE_RATIOS)
    grid = sorted(cfg.get("grid", default_grid), reverse=True)
    kwargs = _given(cfg, g02="g02_radps", detuning="detuning_radps",
                    fock_cutoff="fock_cutoff")
    if "detuning" in kwargs:
        # scan rwa's key is omega_c - omega_20, the library's is its negative
        kwargs["detuning"] = -kwargs["detuning"]
    point = rwa_error_point if kind == "rwa" else dispersive_error_point
    rows = [_scan_point(point, r, kwargs) for r in grid]

    has_fid = kind == "dispersive"
    head = _header("scan", None, cfg)
    lines = [head]
    cols = ("parameter_dimensionless,error_dimensionless,"
            "peak_photon_population_dimensionless,fock_violation_bool")
    if has_fid:
        cols += ",gate_fidelity_dimensionless"
    lines.append(cols + "\n")
    good = [r for r in rows if "failed" not in r]
    for r in rows:
        if "failed" in r:
            lines.append(f"{_fmt(r['parameter'])},nan,nan,nan"
                         + (",nan" if has_fid else "") + "\n")
        else:
            row = (f"{_fmt(r['parameter'])},{_fmt(r['error'])},"
                   f"{_fmt(r['peak'])},{str(r['violation']).lower()}")
            if has_fid:
                row += f",{_fmt(r['gate_fidelity'])}"
            lines.append(row + "\n")

    errs = [r["error"] for r in good]
    monotone = all(errs[k] > errs[k + 1] for k in range(len(errs) - 1))
    lines.append(f"# monotone={'pass' if monotone and len(good) == len(rows) else 'fail'}\n")
    for r in rows:
        if "failed" in r:
            lines.append(f"# point {_fmt(r['parameter'])} failed: "
                         f"{r['failed']}\n")
            args.run_log.append(f"failed_point parameter="
                                f"{_fmt(r['parameter'])} reason={r['failed']}")
        elif not r["condition_ok"]:
            args.run_log.append(f"condition_failed parameter="
                                f"{_fmt(r['parameter'])} ratio="
                                f"{_fmt(r['condition_ratio'])} threshold="
                                f"{_fmt(CONDITION_RATIO_MAX)}")
    _write(args.out, "scan.csv", "".join(lines))
    return 0 if good else 1


# ---------------------------------------------------------------------------
# feasibility
# ---------------------------------------------------------------------------

def cmd_feasibility(args, raw_cfg: dict) -> int:
    from .feasibility import FeasibilityInput, assess, gate_time_estimate

    cfg = _validate(raw_cfg, _FEASIBILITY_SCHEMA, "feasibility")
    t_r = cfg.get("t_r_s", 1.0e-6)
    t_op = cfg.get("t_op_s")
    if t_op is not None:
        # the gate time is given, so no rate can set it
        _refuse_unread(cfg, ("gamma_radps", "rabi_radps"),
                       "feasibility with 't_op_s'")
        t_op_source = "explicit"
    elif "gamma_radps" in cfg or "rabi_radps" in cfg:
        # gate time omitted but rates given: estimate from the
        # controlled-phase schedule, which only this branch builds
        from .protocols import SCHEDULE_BUILDERS

        gamma = cfg.get("gamma_radps", math.pi / 1.0e-8)
        rabi = cfg.get("rabi_radps", TWO_PI * 1.0e9)
        t_op = gate_time_estimate(gamma, SCHEDULE_BUILDERS["cps"](), rabi)
        t_op_source = "derived-from-cps"
    else:
        t_op = 0.01 * t_r
        t_op_source = "default"
    f = FeasibilityInput(q_factor=cfg.get("q_factor", 1.0e8),
                         nu=cfg.get("nu_hz", 80.1e9),
                         t_op=t_op, t_r=t_r)
    report = assess(f, **_given(cfg, margin="margin"))

    lines = [_header("feasibility", None, cfg)]
    lines.append(f"q_factor                   {_fmt(f.q_factor)}\n")
    lines.append(f"nu_hz                      {_fmt(f.nu)}\n")
    lines.append(f"t_op_s                     {_fmt(f.t_op)}\n")
    lines.append(f"t_op_source                {t_op_source}\n")
    lines.append(f"t_r_s                      {_fmt(f.t_r)}\n")
    for ln in report.lines():
        lines.append(ln + "\n")
    _write(args.out, "feasibility.txt", "".join(lines))
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="squidqed",
        description="Cavity-mediated loop-qubit gate simulator")
    parser.add_argument("command",
                        choices=("spectrum", "gate", "scan", "feasibility"))
    parser.add_argument("--config", default=None,
                        help="flat JSON config file with unit-suffixed keys")
    parser.add_argument("--out", default=".",
                        help="output directory for data files")
    parser.add_argument("--workers", type=int, default=None,
                        help="accepted for compatibility only; scans run "
                             "in the calling process")
    parser.add_argument("--backend", default=None,
                        choices=("analytic", "dispersive", "cavity"),
                        help="gate execution backend (default analytic); "
                             "other commands refuse it")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.workers is not None and args.workers < 1:
        print("--workers must be at least 1", file=sys.stderr)
        return 2

    handler = {"spectrum": cmd_spectrum, "gate": cmd_gate,
               "scan": cmd_scan, "feasibility": cmd_feasibility}[args.command]
    args.run_log = []  # lines a handler adds to run.log
    start = time.time()
    try:
        if args.command == "gate":
            args.backend = args.backend or "analytic"
        elif args.backend is not None:
            raise ConfigError(f"option '--backend' is not read by "
                              f"'{args.command}'")
        raw_cfg = _load_config(args.config)
        code = handler(args, raw_cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    # run metadata lives apart from the deterministic data files
    head = (f"command={args.command} "
            + (f"backend={args.backend} " if args.backend else "")
            + f"elapsed_s={time.time() - start:.3f}")
    _write(args.out, "run.log",
           "".join(ln + "\n" for ln in [head, *args.run_log]))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
