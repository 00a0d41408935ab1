"""Command-line interface: file outputs, determinism, exit codes."""

import json
import subprocess
import sys

import pytest

from squidqed.cli import main


def run_cli(tmp_path, command, config=None, extra=()):
    tmp_path.mkdir(parents=True, exist_ok=True)
    argv = [command, "--out", str(tmp_path)]
    if config is not None:
        cfg_file = tmp_path / "config.json"
        cfg_file.write_text(json.dumps(config))
        argv += ["--config", str(cfg_file)]
    argv += list(extra)
    return main(argv)


def grab(tmp_path, name):
    return (tmp_path / name).read_text()


def summary_value(text, key):
    for line in text.splitlines():
        if line.startswith(key + " "):
            return line.split()[1]
    raise KeyError(key)


def test_spectrum_preset(tmp_path):
    assert run_cli(tmp_path, "spectrum", {"preset": "ref15_like"}) == 0
    levels = grab(tmp_path, "spectrum_levels.csv")
    assert levels.startswith("# cmd=spectrum config_sha256=")
    assert len(levels.strip().splitlines()) == 5  # header + columns + 3 rows
    summary = grab(tmp_path, "spectrum_summary.txt")
    f10 = float(summary_value(summary, "omega_10_over_2pi_ghz"))
    f20 = float(summary_value(summary, "omega_20_over_2pi_ghz"))
    assert f10 == pytest.approx(7.0356707, rel=1e-5)
    assert f20 == pytest.approx(79.0790651, rel=1e-5)
    assert "lambda_config ok" in summary
    elements = grab(tmp_path, "spectrum_elements.csv")
    assert len(elements.strip().splitlines()) == 8  # upper triangle of 3x3


def test_spectrum_harmonic_fails_lambda(tmp_path):
    assert run_cli(tmp_path, "spectrum", {"preset": "harmonic"}) == 0
    summary = grab(tmp_path, "spectrum_summary.txt")
    assert "lambda_config not-ok" in summary
    assert "lambda_reason" in summary


def test_spectrum_inline_narrow_grid_fails(tmp_path, capsys):
    cfg = {"C_farad": 4e-14, "L_henry": 1e-10, "Ic_ampere": 0.0,
           "Phix_over_Phi0": 0.5, "grid_points": 257,
           "grid_halfwidth_over_Phi0": 0.02}
    assert run_cli(tmp_path, "spectrum", cfg) == 1
    assert "edge potential" in capsys.readouterr().err


def test_spectrum_inline_coincident_levels_fail(tmp_path, capsys):
    # at the symmetric bias of a deeper well the two lowest levels coincide
    # on the grid: a resolution failure (exit 1), not invalid input
    cfg = {"C_farad": 2.6e-14, "L_henry": 6.5e-11, "Ic_ampere": 8e-6,
           "Phix_over_Phi0": 0.5, "grid_points": 16001,
           "grid_halfwidth_over_Phi0": 0.35}
    assert run_cli(tmp_path, "spectrum", cfg) == 1
    err = capsys.readouterr().err
    assert "levels 0 and 1 coincide" in err
    assert "resolution floor" in err
    assert not (tmp_path / "spectrum_levels.csv").exists()


@pytest.mark.parametrize("key, value", [("C_farad", 1e-300),
                                        ("Phix_over_Phi0", 1e170)])
def test_spectrum_refuses_a_hamiltonian_that_is_not_finite(tmp_path, capsys,
                                                           key, value):
    # finite inputs whose loop Hamiltonian overflows on the grid are
    # invalid input (exit 2), refused before LAPACK and any data file
    import warnings

    from squidqed.squid import preset_path

    cfg = json.loads(preset_path("ref15_like").read_text())
    del cfg["note"]
    cfg[key] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(tmp_path, "spectrum", cfg) == 2
    assert capsys.readouterr().err == (
        "invalid input: loop Hamiltonian is not finite on the grid: C, L, "
        "Ic, Phi_x or the grid step overflow it\n")
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


def test_spectrum_rejects_mixed_config(tmp_path, capsys):
    cfg = {"preset": "harmonic", "C_farad": 4e-14}
    assert run_cli(tmp_path, "spectrum", cfg) == 2
    assert "not both" in capsys.readouterr().err


def test_gate_cps_analytic(tmp_path):
    assert run_cli(tmp_path, "gate", {"schedule": "cps"}) == 0
    summary = grab(tmp_path, "gate_summary.txt")
    assert "schedule cps" in summary
    assert "truth_table pass" in summary
    assert float(summary_value(summary, "gate_fidelity_dimensionless")) \
        == pytest.approx(1.0, abs=1e-12)
    assert "physics_checks pass" in summary
    states = grab(tmp_path, "gate_states.csv")
    # 4 inputs x 3 steps, one amplitude each for this diagonal gate
    assert len(states.strip().splitlines()) == 2 + 12


def test_gate_entangle(tmp_path):
    assert run_cli(tmp_path, "gate", {"schedule": "entangle"}) == 0
    summary = grab(tmp_path, "gate_summary.txt")
    fid = float(summary_value(summary, "target_state_fidelity_dimensionless"))
    conc = float(summary_value(summary, "concurrence_dimensionless"))
    assert fid == pytest.approx(1.0, abs=1e-9)
    assert conc == pytest.approx(1.0, abs=1e-9)


def test_gate_transfer_skips_occupied_b_inputs(tmp_path):
    assert run_cli(tmp_path, "gate", {"schedule": "transfer"}) == 0
    states = grab(tmp_path, "gate_states.csv")
    labels = {ln.split(",")[0] for ln in states.strip().splitlines()[2:]}
    assert labels == {"|00>", "|10>"}


def test_gate_swap_cavity_backend(tmp_path):
    code = run_cli(tmp_path, "gate", {"schedule": "swap"},
                   extra=["--backend", "cavity"])
    assert code == 0
    summary = grab(tmp_path, "gate_summary.txt")
    assert "backend cavity" in summary
    fid = float(summary_value(summary, "gate_fidelity_dimensionless"))
    assert fid > 0.99  # reduction error only
    peak = float(summary_value(summary,
                               "peak_photon_population_dimensionless"))
    # both-qubits-excited input drives two exchange channels: the virtual
    # occupancy lands near 2% at the default g/Delta = 0.05 working point
    assert peak == pytest.approx(1.9995e-2, rel=1e-3)
    top = float(summary_value(summary, "top_fock_population_dimensionless"))
    assert top < 1e-6
    assert "physics_checks pass" in summary


def test_gate_dispersive_backend_matches_analytic(tmp_path):
    a_dir, d_dir = tmp_path / "a", tmp_path / "d"
    assert run_cli(a_dir, "gate", {"schedule": "swap"}) == 0
    assert run_cli(d_dir, "gate", {"schedule": "swap"},
                   extra=["--backend", "dispersive"]) == 0
    # identical physics up to roundoff in the exponentials
    a_states = grab(a_dir, "gate_states.csv").splitlines()[2:]
    d_states = grab(d_dir, "gate_states.csv").splitlines()[2:]
    assert len(a_states) == len(d_states)
    for ln_a, ln_d in zip(a_states, d_states):
        fa, fd = ln_a.split(","), ln_d.split(",")
        assert fa[:4] == fd[:4]
        assert float(fa[4]) == pytest.approx(float(fd[4]), abs=1e-12)
        assert float(fa[5]) == pytest.approx(float(fd[5]), abs=1e-12)
    assert "truth_table pass" in grab(d_dir, "gate_summary.txt")


def test_gate_outputs_deterministic(tmp_path):
    r1, r2 = tmp_path / "r1", tmp_path / "r2"
    for d in (r1, r2):
        assert run_cli(d, "gate", {"schedule": "cps"}) == 0
    assert grab(r1, "gate_states.csv") == grab(r2, "gate_states.csv")
    assert grab(r1, "gate_summary.txt") == grab(r2, "gate_summary.txt")


def test_scan_dispersive(tmp_path):
    cfg = {"scan_kind": "dispersive", "grid": [0.1, 0.05]}
    assert run_cli(tmp_path, "scan", cfg, extra=["--workers", "1"]) == 0
    scan = grab(tmp_path, "scan.csv")
    lines = scan.strip().splitlines()
    assert lines[1].endswith("gate_fidelity_dimensionless")
    assert len(lines) == 2 + 2 + 1  # header, columns, 2 points, footer
    assert lines[-1] == "# monotone=pass"
    first = lines[2].split(",")
    assert float(first[0]) == pytest.approx(0.1)
    assert float(first[1]) == pytest.approx(3.917514e-3, rel=1e-5)
    assert first[3] == "false"


def test_scan_worker_count_does_not_change_output(tmp_path):
    cfg = {"scan_kind": "dispersive", "grid": [0.1, 0.05]}
    s1, s2 = tmp_path / "w1", tmp_path / "w2"
    assert run_cli(s1, "scan", cfg, extra=["--workers", "1"]) == 0
    assert run_cli(s2, "scan", cfg, extra=["--workers", "2"]) == 0
    assert grab(s1, "scan.csv") == grab(s2, "scan.csv")


def test_scan_rwa(tmp_path):
    cfg = {"scan_kind": "rwa", "grid": [0.02, 0.01]}
    assert run_cli(tmp_path, "scan", cfg, extra=["--workers", "1"]) == 0
    lines = grab(tmp_path, "scan.csv").strip().splitlines()
    assert "gate_fidelity" not in lines[1]
    assert lines[-1] == "# monotone=pass"
    errs = [float(ln.split(",")[1]) for ln in lines[2:4]]
    assert errs[0] > errs[1]
    assert all(e < 1e-3 for e in errs)


def test_scan_point_reports_physics_errors_and_raises_bugs(tmp_path,
                                                          monkeypatch):
    import squidqed.verify as verify

    def refuse(*args, **kwargs):
        raise ValueError("refused on purpose")

    cfg = {"scan_kind": "rwa", "grid": [0.02, 0.01]}
    monkeypatch.setattr(verify, "rwa_error_point", refuse)
    assert run_cli(tmp_path, "scan", cfg, extra=["--workers", "1"]) == 1
    lines = grab(tmp_path, "scan.csv").strip().splitlines()
    assert ("# point 2.000000000000e-02 failed: "
            "ValueError: refused on purpose") in lines

    def broken(*args, **kwargs):
        raise TypeError("a programming error")

    monkeypatch.setattr(verify, "rwa_error_point", broken)
    with pytest.raises(TypeError, match="programming error"):
        run_cli(tmp_path / "bug", "scan", cfg, extra=["--workers", "1"])


def test_feasibility_default(tmp_path):
    assert run_cli(tmp_path, "feasibility") == 0
    text = grab(tmp_path, "feasibility.txt")
    assert summary_value(text, "t_op_source") == "default"
    assert float(summary_value(text, "q_min")) == pytest.approx(
        5032.831431050849, rel=1e-6)
    assert summary_value(text, "verdict") == "pass"
    assert float(summary_value(text, "margin_achieved")) > 1e4


def test_feasibility_derived_gate_time(tmp_path):
    import math
    cfg = {"gamma_radps": math.pi / 1.0e-8}
    assert run_cli(tmp_path, "feasibility", cfg) == 0
    text = grab(tmp_path, "feasibility.txt")
    assert summary_value(text, "t_op_source") == "derived-from-cps"
    assert float(summary_value(text, "t_op_s")) == pytest.approx(1.1e-8)


def test_feasibility_failing_cavity(tmp_path):
    cfg = {"q_factor": 1.0e4}
    assert run_cli(tmp_path, "feasibility", cfg) == 0  # reported, not an error
    assert summary_value(grab(tmp_path, "feasibility.txt"),
                         "verdict") == "FAIL"


def test_unknown_config_key(tmp_path, capsys):
    assert run_cli(tmp_path, "gate", {"schedule": "cps", "qbits": 3}) == 2
    err = capsys.readouterr().err
    assert "qbits" in err


def test_bad_json_config(tmp_path, capsys):
    cfg_file = tmp_path / "broken.json"
    cfg_file.write_text("{not json")
    assert main(["gate", "--out", str(tmp_path),
                 "--config", str(cfg_file)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_bad_grid_entry(tmp_path, capsys):
    assert run_cli(tmp_path, "scan", {"grid": [1.5]}) == 2
    assert "between 0 and 1" in capsys.readouterr().err


def test_bad_worker_count(tmp_path, capsys):
    assert run_cli(tmp_path, "feasibility", extra=["--workers", "0"]) == 2
    assert "--workers" in capsys.readouterr().err


def test_run_log_written(tmp_path):
    assert run_cli(tmp_path, "feasibility") == 0
    log = grab(tmp_path, "run.log")
    assert log.startswith("command=feasibility")
    assert "elapsed_s=" in log


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "squidqed", "feasibility",
         "--out", str(tmp_path)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert (tmp_path / "feasibility.txt").exists()


#: The module that only `spectrum` needs: the loop solver.
SPECTRUM_ONLY = ("squidqed.squid",)

#: Modules no command loads: OpenSSL's libcrypto (loaded by hashlib) and
#: scipy.linalg's package, whose LAPACK extension the solver loads alone.
NO_COMMAND = ("_hashlib", "scipy.linalg")


def test_cli_import_defers_scipy_linalg_to_the_solver(tmp_path):
    code = ("import sys\n"
            "from squidqed.cli import main\n"
            f"for name in {SPECTRUM_ONLY + NO_COMMAND!r}:\n"
            "    assert name not in sys.modules, name\n"
            f"assert main(['spectrum', '--out', {str(tmp_path)!r}]) == 0\n"
            "for name in ('squidqed.squid', 'scipy.linalg._flapack'):\n"
            "    assert name in sys.modules, name\n"
            f"for name in {NO_COMMAND!r}:\n"
            "    assert name not in sys.modules, name\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def loaded_after(*runs):
    """Names in ``sys.modules`` of a fresh interpreter that imports the CLI
    and makes each `main` call in ``runs``, each of which must exit 0."""
    code = ("import json, sys\n"
            "from squidqed.cli import main\n"
            f"for argv in {runs!r}:\n"
            "    assert main(argv) == 0, argv\n"
            "print(json.dumps(sorted(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def package_modules(names):
    return {n for n in names if n.startswith("squidqed.")}


#: The gate and scan stack, which `spectrum` never runs.
GATE_STACK = ("squidqed.protocols", "squidqed.verify",
              "squidqed.hamiltonians", "squidqed.hilbert",
              "squidqed.dynamics", "squidqed.feasibility")


def test_cli_import_loads_no_numpy_and_no_library_module():
    loaded = loaded_after()
    assert "numpy" not in loaded
    assert package_modules(loaded) == {"squidqed.cli", "squidqed.constants"}


def test_feasibility_loads_protocols_only_to_derive_the_gate_time(tmp_path):
    loaded = loaded_after(["feasibility", "--out", str(tmp_path / "f")])
    assert "numpy" not in loaded
    assert package_modules(loaded) == {"squidqed.cli", "squidqed.constants",
                                       "squidqed.feasibility"}
    cfg = tmp_path / "rates.json"
    cfg.write_text(json.dumps({"gamma_radps": 3.0e8}))
    loaded = loaded_after(["feasibility", "--config", str(cfg),
                           "--out", str(tmp_path / "r")])
    assert "squidqed.protocols" in loaded
    assert "squidqed.verify" not in loaded


def test_spectrum_loads_the_solver_and_no_gate_stack(tmp_path):
    loaded = loaded_after(["spectrum", "--out", str(tmp_path)])
    assert {"squidqed.squid", "numpy"} <= loaded
    assert not loaded & set(GATE_STACK + NO_COMMAND)


def test_scan_and_gate_load_neither_the_solver_nor_scipy_linalg(tmp_path):
    rwa = tmp_path / "rwa.json"
    rwa.write_text(json.dumps({"scan_kind": "rwa", "grid": [0.02]}))
    loaded = loaded_after(["scan", "--out", str(tmp_path / "scan")],
                          ["scan", "--config", str(rwa),
                           "--out", str(tmp_path / "rwa")],
                          ["gate", "--out", str(tmp_path / "gate")],
                          ["gate", "--backend", "cavity",
                           "--out", str(tmp_path / "cavity")])
    assert {"squidqed.verify", "squidqed.protocols"} <= loaded
    assert not loaded & {"squidqed.squid", "scipy.linalg"}
    # no scipy module at all: both commands run on numpy alone
    assert not {n for n in loaded if n.partition(".")[0] == "scipy"}


def test_gate_and_feasibility_load_neither_openssl_nor_the_solver(tmp_path):
    code = ("import sys\n"
            "from squidqed.cli import main\n"
            f"assert main(['gate', '--backend', 'cavity', '--out', "
            f"{str(tmp_path / 'gate')!r}]) == 0\n"
            f"assert main(['feasibility', '--out', "
            f"{str(tmp_path / 'feas')!r}]) == 0\n"
            f"for name in {SPECTRUM_ONLY + NO_COMMAND!r}:\n"
            "    assert name not in sys.modules, name\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("command,backend,cfg", [
    ("feasibility", None, {}),
    ("gate", "cavity", {"schedule": "swap", "g02_radps": 0.05,
                        "fock_cutoff": 8}),
    ("scan", None, {"scan_kind": "rwa", "grid": [0.3, 0.05, 0.015],
                    "detuning_radps": 1.5e10}),
    ("spectrum", None, {"C_farad": 2.6e-14, "L_henry": 6.5e-11,
                        "Ic_ampere": 6.4e-6, "Phix_over_Phi0": 0.4998,
                        "grid_points": 16001,
                        "grid_halfwidth_over_Phi0": 0.35}),
])
def test_config_hash_is_hashlib_sha256(command, backend, cfg):
    import hashlib

    from squidqed.cli import _config_hash

    canonical = json.dumps({"command": command, "backend": backend,
                            "config": cfg}, sort_keys=True,
                           separators=(",", ":")).encode()
    assert _config_hash(command, backend, cfg) == \
        hashlib.sha256(canonical).hexdigest()[:12]


def test_config_hash_falls_back_to_hashlib():
    # where neither built-in SHA-256 module can be imported, the header
    # hash comes from hashlib, and the header is the same
    from squidqed.cli import _header

    code = ("import sys\n"
            "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
            "import hashlib\n"
            "from squidqed import cli\n"
            "assert cli._sha256 is hashlib.sha256\n"
            "print(cli._header('gate', 'analytic', {'schedule': 'cps'}),"
            " end='')\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == _header("gate", "analytic", {"schedule": "cps"})


def test_cli_import_loads_no_process_pool():
    code = ("import sys\n"
            "import squidqed.cli\n"
            "assert 'concurrent.futures.process' not in sys.modules\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_scan_failures_are_written_to_run_log(tmp_path, monkeypatch):
    import squidqed.verify as verify

    real = verify.rwa_error_point

    def refuse_the_finest(ratio, *args, **kwargs):
        if ratio < 0.015:
            raise ValueError("refused on purpose")
        return real(ratio, *args, **kwargs)

    cfg = {"scan_kind": "rwa", "grid": [0.02, 0.01]}
    monkeypatch.setattr(verify, "rwa_error_point", refuse_the_finest)
    assert run_cli(tmp_path, "scan", cfg, extra=["--workers", "1"]) == 0
    log = grab(tmp_path, "run.log").splitlines()
    assert log[0].startswith("command=scan")
    assert log[1:] == ["failed_point parameter=1.000000000000e-02 "
                       "reason=ValueError: refused on purpose"]
    assert ("# point 1.000000000000e-02 failed: "
            "ValueError: refused on purpose") in grab(tmp_path, "scan.csv")


def test_run_log_has_one_line_when_no_point_fails(tmp_path):
    # 0.05: inside the dispersive condition (0.1 fails it, see below)
    cfg = {"scan_kind": "dispersive", "grid": [0.05]}
    assert run_cli(tmp_path, "scan", cfg, extra=["--workers", "1"]) == 0
    assert len(grab(tmp_path, "run.log").splitlines()) == 1


def test_dispersive_condition_failures_agree_with_the_cavity_gate(tmp_path):
    scan = tmp_path / "scan"
    assert run_cli(scan, "scan", {}) == 0
    assert grab(scan, "run.log").splitlines()[1:] == [
        "condition_failed parameter=1.000000000000e-01 "
        "ratio=1.000000000000e-01 threshold=1.000000000000e-01"]
    assert "failed" not in grab(scan, "scan.csv")
    # the cavity gate fails at the scan's flagged point and passes at the
    # next one
    for ratio, code in ((0.1, 1), (0.05, 0)):
        gate = tmp_path / f"gate{ratio}"
        cfg = {"schedule": "cps", "g02_radps": ratio, "detuning_radps": 1.0}
        assert run_cli(gate, "gate", cfg,
                       extra=["--backend", "cavity"]) == code
        failed = "failure dispersive condition" in grab(gate,
                                                        "gate_summary.txt")
        assert failed == (code == 1)


def test_rwa_condition_failures_are_written_to_run_log(tmp_path):
    cfg = {"scan_kind": "rwa", "grid": [0.5, 0.02]}
    assert run_cli(tmp_path, "scan", cfg, extra=["--workers", "1"]) == 0
    log = grab(tmp_path, "run.log").splitlines()
    assert log[0].startswith("command=scan")
    assert log[1:] == ["condition_failed parameter=5.000000000000e-01 "
                       "ratio=5.000000000000e-01 threshold=1.000000000000e-01"]
    lines = grab(tmp_path, "scan.csv").strip().splitlines()
    assert len(lines) == 2 + 2 + 1
    assert not any("failed" in ln for ln in lines)

    default = tmp_path / "default"
    assert run_cli(default, "scan", {"scan_kind": "rwa"}) == 0
    assert len(grab(default, "run.log").splitlines()) == 1


def test_rwa_scan_runs_in_process_without_scipy_or_a_pool(tmp_path):
    cfg = tmp_path / "rwa.json"
    cfg.write_text(json.dumps({"scan_kind": "rwa"}))
    out1, out2 = tmp_path / "w1", tmp_path / "w2"
    absent = SPECTRUM_ONLY + NO_COMMAND + ("concurrent.futures.process",)
    code = ("import sys\n"
            "from squidqed.cli import main\n"
            f"assert main(['scan', '--config', {str(cfg)!r}, "
            f"'--out', {str(out2)!r}, '--workers', '2']) == 0\n"
            f"for name in {absent!r}:\n"
            "    assert name not in sys.modules, name\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert main(["scan", "--config", str(cfg), "--out", str(out1),
                 "--workers", "1"]) == 0
    assert grab(out1, "scan.csv") == grab(out2, "scan.csv")


def test_cavity_gate_samples_photons_once(tmp_path, monkeypatch):
    import squidqed.verify as verify

    blocks = []
    real = verify._sampled_photon_peaks

    def counted(phases, forms, vecs):
        blocks.append(vecs.shape)
        return real(phases, forms, vecs)

    monkeypatch.setattr(verify, "_sampled_photon_peaks", counted)
    assert run_cli(tmp_path, "gate", {"schedule": "cps"},
                   extra=["--backend", "cavity"]) == 0
    assert blocks == [(36, 4)]


_SCHEDULES = ("cps", "swap", "transfer", "entangle")
_BACKENDS = ("analytic", "dispersive", "cavity")


@pytest.mark.parametrize("backend", _BACKENDS)
@pytest.mark.parametrize("schedule", _SCHEDULES)
def test_gate_runs_each_input_once(tmp_path, monkeypatch, schedule, backend):
    import squidqed.protocols as protocols
    import squidqed.verify as verify

    blocks = []
    real = protocols._run_block

    def counted(sched, inputs, *args):
        blocks.append(len(inputs))
        return real(sched, inputs, *args)

    # cmd_gate takes _run_block from protocols when it runs
    for module in (protocols, verify):
        monkeypatch.setattr(module, "_run_block", counted)
    assert run_cli(tmp_path, "gate", {"schedule": schedule},
                   extra=["--backend", backend]) == 0
    # one block; transfer runs the inputs with loop b in |0>
    assert blocks == [2 if schedule == "transfer" else 4]
    if schedule == "entangle" and backend != "cavity":
        summary = grab(tmp_path, "gate_summary.txt")
        assert summary_value(summary, "concurrence_dimensionless") == \
            "1.000000000000e+00"


def _moved(got: dict, stored: dict) -> str:
    """One line per key whose digests moved, old -> new."""
    return "".join(f"\n  {key!r}: {stored[key]!r} -> {got.get(key)!r}"
                   for key in stored if got.get(key) != stored[key])


#: SHA-256 of (gate_states.csv, gate_summary.txt) for each schedule and
#: backend at the default config, plus the cavity runs at Fock cutoff 8
#: (keys "schedule backend [fock_cutoff]"); the guard below prints the
#: keys that moved, old -> new.
_GATE_DIGESTS = {
    "cps analytic": (
        "15400e91f52852f2346423f42318123df2d65af23e134a1ee300c2d5624d5e45",
        "d9d06157ca14bb62815f19e6d7302c9a34390fa67be36be9c5d06a014501582f"),
    "cps dispersive": (
        "25f0a2c206e6d43f23d05157d1bd76b1e35df7f41ed07aac484b45729b5ae5e1",
        "bcbe5f5daf66a88218183942532aee772b611b1a0ce002906020c9d8f9b27912"),
    "cps cavity": (
        "52d2e09918bce77c32fc70c5383d38bc49bf448fd3aaf505ac335b5e7d311b53",
        "a553f08fe2104c031205765c12b84835bd6a78230b05997a06bc385705ff925d"),
    "swap analytic": (
        "62609a7a76eacd9fd77c760ab46356828501d47f24b102d10537fc158703a561",
        "b5be39ff995a05a77017ef15ec0fc68d4e4d92467ea22888ff7d127fdb616260"),
    "swap dispersive": (
        "d6645741b2992385942c99e3b6bf2aec3913f0e97e9cfc919a7bf15b8f9d0f4b",
        "121205fe3a8a564f132c719b39e8362b9314962295765cad96bfad0694984d7e"),
    "swap cavity": (
        "0ff9a75b8269d1445fbdc3248b63bf72b3fbe1ca4f44701c37f8c8e3230551e6",
        "443b0d95f0ffaa5a2442b4527631b33a869d06d6e6cdcb2f1798a5e9abb1e3ae"),
    "transfer analytic": (
        "6c0838f2f92842c24838c45cbdadff04956ce40be09dc3adb63137d7f9bd2ce1",
        "fecd899bb046456647eb02b7f3053817ab938dfa4210c04149627ddd66f50714"),
    "transfer dispersive": (
        "fb8421386187f5c7afc905468e309c47fafad0354887eef4b44586d59fdfa80c",
        "fd2106a5a26cd43af0a6d633f65c238332f793ccb93ebed35a15a2403508ed2f"),
    "transfer cavity": (
        "ddea45ba64a5954c7b711a9950a7025d6d222bbbafd63673e5b0bb26882a3634",
        "e57118139db4a0133b599cb064d7d7dd3fd74b7d1bbe4c8cdf418d043d5257d8"),
    "entangle analytic": (
        "bee5035843575427edd98ac3ac38dcdd81e3f993f39e64c1b38a89f47063bd59",
        "4344f9ed491705e1da4c1d2cea4e84e6dc718a20d3e465cfdc88c7d638425fd3"),
    "entangle dispersive": (
        "ac171fe1c29edd5dceb0e20d96ac64256e58068d5e50a39a89aec2904e21e3f2",
        "be6396f1cbefed9c382fafe6e561621f9101f3da3eb20564f7aa53f6f73fdbe9"),
    "entangle cavity": (
        "044a5efe51e7ba2faec1fa293f6cff2fd3369297aadb65f079f9edde2d42b03d",
        "05a9c86226d25867d22a9362ef6bd56a32307734795941e4be527f9b1d175d70"),
    "cps cavity 8": (
        "a6117d1e96286ee4c7616f2667afa467b16c2110a593bbe40fbda7b07d5e4085",
        "416602ca2ff63de33963f9f1530d605c107fef47086ce2f8e8d8095c76736f28"),
    "swap cavity 8": (
        "6d9c9b45577802721ca22149bef7adccc56769d1231838d57ce3fcb23c835d3e",
        "5ea377ca42a19ffd16a05980008e426fa8a6cf2fc41562d651566620f7801b4b"),
    "transfer cavity 8": (
        "c55725cac3ca153da464fcf033d924a10fbca6b9c1e74dffe2bfd7d6390f290d",
        "fd2f9cfad7e76c638b0dd3b4c1e87ee5dbe1822a50cc17a2d4ea61c0d7fbfcb6"),
    "entangle cavity 8": (
        "10475e03423dcb39b53c084dc479a5d899eba17f4ece779d8e73f51178827551",
        "0bc9c09bd5f70d4c91aa5d3210bfaac02d002c0fc6510b8440bb2e26a9eed68b"),
}


def test_gate_outputs_are_byte_stable(tmp_path):
    import hashlib

    got = {}
    for key in _GATE_DIGESTS:
        schedule, backend, *cutoff = key.split()
        cfg = {"schedule": schedule}
        if cutoff:
            cfg["fock_cutoff"] = int(cutoff[0])
        out = tmp_path / key.replace(" ", "_")
        assert run_cli(out, "gate", cfg, extra=["--backend", backend]) == 0
        got[key] = tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()
                         for name in ("gate_states.csv", "gate_summary.txt"))
    assert got == _GATE_DIGESTS, \
        f"gate outputs moved:{_moved(got, _GATE_DIGESTS)}"


#: SHA-256 of scan.csv for rotating-wave scans: the default grid, and a
#: grid reaching past the reduction condition at Fock cutoff 6.
_RWA_SCAN_DIGESTS = {
    "default": (
        {"scan_kind": "rwa"},
        "963b32fecbd8289085af0dd66fb95f098b1e01f1be5baed09c3464062dd10f4f"),
    "coarse grid, fock 6": (
        {"scan_kind": "rwa", "grid": [0.3, 0.05, 0.015], "fock_cutoff": 6},
        "48b25801c283155490ec8f334b9bed57866cfc95b3d01c02cd5aad1c9184e111"),
}


def test_rwa_scan_outputs_are_byte_stable(tmp_path):
    import hashlib

    got = {}
    for k, (key, (cfg, _)) in enumerate(_RWA_SCAN_DIGESTS.items()):
        out = tmp_path / str(k)
        assert run_cli(out, "scan", cfg) == 0
        got[key] = hashlib.sha256((out / "scan.csv").read_bytes()).hexdigest()
    want = {key: digest for key, (_, digest) in _RWA_SCAN_DIGESTS.items()}
    assert got == want, \
        f"rotating-wave scan outputs moved:{_moved(got, want)}"


@pytest.mark.parametrize("fock_cutoff", [4, 8])
@pytest.mark.parametrize("schedule", _SCHEDULES)
def test_cavity_gate_reads_no_population_in_an_unreachable_top_level(
        tmp_path, schedule, fock_cutoff):
    # the inputs hold at most two excitations (photons plus loops in |2>),
    # which the exchange conserves and the pulses never raise past two, so
    # the top Fock level is out of reach and its population is exactly 0
    assert run_cli(tmp_path, "gate", {"schedule": schedule,
                                      "fock_cutoff": fock_cutoff},
                   extra=["--backend", "cavity"]) == 0
    summary = grab(tmp_path, "gate_summary.txt")
    assert float(summary_value(summary,
                               "top_fock_population_dimensionless")) == 0.0
    assert float(summary_value(summary,
                               "peak_photon_population_dimensionless")) > 0.0


def test_cavity_entangle_reaches_the_target(tmp_path):
    assert run_cli(tmp_path, "gate", {"schedule": "entangle"},
                   extra=["--backend", "cavity"]) == 0
    summary = grab(tmp_path, "gate_summary.txt")
    fid = float(summary_value(summary, "target_state_fidelity_dimensionless"))
    # held to 1 - 4 (g02/detuning)^2 = 0.99 at the default working point
    assert 1.0 - fid < 1e-4
    assert "physics_checks pass" in summary


def test_cavity_gate_fails_on_the_opposite_dispersive_sign(tmp_path,
                                                          monkeypatch):
    import numpy as np

    import squidqed.protocols as protocols

    def opposite_sign(params, t):
        # H' = +Delta n_hat + V in the frame e^{+i Delta n_hat t}: the
        # backend with gamma -> -gamma
        n = params.fock_cutoff
        w, v = protocols._cavity_eigensystem(params.g02, -params.detuning, n)
        core = (v * np.exp(-1j * w * t)) @ v.conj().T
        frame = np.exp(1j * params.detuning * np.arange(n) * t)
        return np.kron(np.ones(9), frame)[:, None] * core

    monkeypatch.setattr(protocols, "_cavity_dispersive_unitary",
                        opposite_sign)
    # the shipped schedule is shared, so its propagators may already sit in
    # the per-schedule cache: empty it
    protocols._schedule_unitaries.cache_clear()
    try:
        assert run_cli(tmp_path, "gate", {"schedule": "entangle"},
                       extra=["--backend", "cavity"]) == 1
    finally:
        protocols._schedule_unitaries.cache_clear()
    summary = grab(tmp_path, "gate_summary.txt")
    assert "physics_checks FAIL" in summary
    # the bound is 1 - 4 (g02/detuning)^2 at g02/detuning = 0.05
    assert any(ln.startswith("failure target state fidelity ")
               and ln.endswith(" below 1 - 1.000e-02")
               for ln in summary.splitlines()), summary


@pytest.mark.parametrize("schedule, g02", [("cps", 3.0), ("entangle", 0.9),
                                           ("swap", 0.1)])
def test_cavity_gate_fails_outside_the_dispersive_regime(tmp_path, schedule,
                                                         g02):
    # at g02/detuning >= 1/2 the leakage limit 4 (g02/detuning)^2 bounds
    # nothing, so the regime itself is checked; the files are still written
    assert run_cli(tmp_path, "gate", {"schedule": schedule, "g02_radps": g02,
                                      "detuning_radps": 1.0},
                   extra=["--backend", "cavity"]) == 1
    summary = grab(tmp_path, "gate_summary.txt").splitlines()
    assert "physics_checks FAIL" in summary
    assert (f"failure dispersive condition g02/detuning = {g02!r} not below "
            f"0.1") in summary
    assert grab(tmp_path, "gate_states.csv").count("\n") > 2


@pytest.mark.parametrize("command", ["spectrum", "scan", "feasibility"])
@pytest.mark.parametrize("backend", ["analytic", "cavity"])
def test_backend_is_refused_where_it_is_not_read(tmp_path, capsys, command,
                                                 backend):
    assert run_cli(tmp_path, command, {}, extra=["--backend", backend]) == 2
    assert (f"option '--backend' is not read by '{command}'"
            in capsys.readouterr().err)
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


def test_cavity_gate_logs_an_ignored_gamma(tmp_path):
    rates = {"schedule": "cps", "g02_radps": 0.1, "detuning_radps": 2.0}
    given = tmp_path / "given"
    assert run_cli(given, "gate", dict(rates, gamma_radps=1.7),
                   extra=["--backend", "cavity"]) == 0
    log = grab(given, "run.log").splitlines()
    assert log[0].startswith("command=gate backend=cavity")
    # gamma = g02^2 / detuning = 0.01 / 2
    assert log[1:] == ["ignored_key gamma_radps=1.700000000000e+00 "
                       "used_gamma_radps=5.000000000000e-03"]

    plain = tmp_path / "plain"
    assert run_cli(plain, "gate", rates, extra=["--backend", "cavity"]) == 0
    assert len(grab(plain, "run.log").splitlines()) == 1
    # the key changes the header's config hash and nothing else
    for name in ("gate_states.csv", "gate_summary.txt"):
        assert (grab(given, name).splitlines()[1:]
                == grab(plain, name).splitlines()[1:])


def test_cavity_gate_ignores_a_vanishing_gamma(tmp_path):
    # the cavity backend derives gamma, so a rate that would make the
    # dispersive wait overflow is logged and changes no data line
    given, plain = tmp_path / "given", tmp_path / "plain"
    assert run_cli(given, "gate", {"gamma_radps": 5e-324},
                   extra=["--backend", "cavity"]) == 0
    assert run_cli(plain, "gate", {}, extra=["--backend", "cavity"]) == 0
    for name in ("gate_states.csv", "gate_summary.txt"):
        assert (grab(given, name).splitlines()[1:]
                == grab(plain, name).splitlines()[1:])


@pytest.mark.parametrize("backend, cfg, reason", [
    ("analytic", {"gamma_radps": 5e-324}, "dispersive segment length"),
    ("dispersive", {"gamma_radps": 5e-324}, "dispersive segment length"),
    ("analytic", {"rabi_radps": 5e-324}, "rotation length"),
    ("dispersive", {"rabi_radps": 5e-324}, "rotation length"),
    ("cavity", {"rabi_radps": 5e-324}, "rotation length"),
])
def test_gate_refuses_rates_whose_step_lengths_overflow(tmp_path, capsys,
                                                        backend, cfg, reason):
    assert run_cli(tmp_path, "gate", cfg, extra=["--backend", backend]) == 2
    assert reason in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


@pytest.mark.parametrize("cfg, name", [
    ({"nu_hz": 1e-10, "t_op_s": 5e-324}, "q_min"),
    ({"q_factor": 1e300, "nu_hz": 1e-300, "t_r_s": 1e-300, "t_op_s": 1e300},
     "T_c"),
])
def test_feasibility_refuses_a_budget_that_overflows(tmp_path, capsys, cfg,
                                                     name):
    assert run_cli(tmp_path, "feasibility", cfg) == 2
    assert f"derived {name} = " in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


#: SHA-256 of the data files of spectrum, feasibility and the dispersive
#: scan at fixed configs, keyed by a label; the guard below prints the
#: keys that moved, old -> new.
_DATA_DIGESTS = {
    "spectrum ref15_like": (
        "spectrum", {"preset": "ref15_like"},
        ("2ad39b529e0899605fa6c8c3cf5c6acba1c345908c44b3f6cb1ca4d1ec7a8079",
         "3f019c8565de5ca36f84a095b427e6d726d75f66745f16eb9b42b49f64e91044",
         "df87cdc22a5d99ef10a914170b20af0131bcca7cf8d8d9f5631698f56287fe1a")),
    "spectrum harmonic": (
        "spectrum", {"preset": "harmonic"},
        ("be6abf84bfa711cb08544977f534d2af9baf78d15da1da299495689817892544",
         "e08d0e020f0ba55c3be02a338c9fb5e233140db9a738378d5d54ec49ef345079",
         "efbbafd48264269c4b3e153bc090c46e8b0c2e5d47c5a998c73e41d03cf088e1")),
    "feasibility default": (
        "feasibility", {},
        ("2fcd49acf3f401e133a368c075d5864edb32324aa1e7f072d4cb4c182ab9412c",)),
    "feasibility derived": (
        "feasibility", {"gamma_radps": 314159265.0, "rabi_radps": 6.0e9},
        ("2a6fcca7778dd54466dd8fc3dfc63263438bf018f460035b346ba4de751e32e6",)),
    "scan dispersive": (
        "scan", {"scan_kind": "dispersive"},
        ("1de4789a14b7862281c2f3a7cdbc15e95f4d0c42cd56ec91601cace8b3b5d599",)),
}

_DATA_FILES = {
    "spectrum": ("spectrum_levels.csv", "spectrum_elements.csv",
                 "spectrum_summary.txt"),
    "feasibility": ("feasibility.txt",),
    "scan": ("scan.csv",),
}


def test_data_outputs_are_byte_stable(tmp_path):
    import hashlib

    got = {}
    for k, (key, (command, cfg, _)) in enumerate(_DATA_DIGESTS.items()):
        out = tmp_path / str(k)
        assert run_cli(out, command, cfg) == 0
        got[key] = tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()
                         for name in _DATA_FILES[command])
    want = {key: digests for key, (_, _, digests) in _DATA_DIGESTS.items()}
    assert got == want, f"data outputs moved:{_moved(got, want)}"


@pytest.mark.xfail(strict=True, reason="ROADMAP item 20: the full-grid "
                   "`stein` solve and its dot products give other bits at "
                   "one and two BLAS threads")
def test_spectrum_data_files_do_not_depend_on_the_blas_thread_count(
        tmp_path):
    import os

    files = {}
    for preset in ("ref15_like", "harmonic"):
        cfg = tmp_path / f"{preset}.json"
        cfg.write_text(json.dumps({"preset": preset}))
        for threads in ("1", "2"):
            out = tmp_path / f"{preset}-{threads}"
            proc = subprocess.run(
                [sys.executable, "-m", "squidqed", "spectrum", "--out",
                 str(out), "--config", str(cfg)],
                capture_output=True, text=True,
                env={**os.environ, "OPENBLAS_NUM_THREADS": threads})
            assert proc.returncode == 0, proc.stderr
            files[preset, threads] = {name: (out / name).read_bytes()
                                      for name in _DATA_FILES["spectrum"]}
    moved = [f"{preset} {name}" for preset in ("ref15_like", "harmonic")
             for name in _DATA_FILES["spectrum"]
             if files[preset, "1"][name] != files[preset, "2"][name]]
    assert moved == [], f"data files differ at 1 and 2 BLAS threads: {moved}"


def test_spectrum_inline_keys_match_the_preset(tmp_path):
    from squidqed.squid import PRESET_DIR

    inline = json.loads((PRESET_DIR / "ref15_like.json").read_text())
    inline.pop("note", None)
    preset, given = tmp_path / "preset", tmp_path / "inline"
    assert run_cli(preset, "spectrum", {"preset": "ref15_like"}) == 0
    assert run_cli(given, "spectrum", inline) == 0
    # the config hash on the header line differs; every data row agrees
    for name in _DATA_FILES["spectrum"]:
        assert (grab(given, name).splitlines()[1:]
                == grab(preset, name).splitlines()[1:])


_UNREAD_KEYS = ([("gate", backend, key) for backend in ("analytic",
                                                        "dispersive")
                 for key in ("g02_radps", "detuning_radps", "fock_cutoff")]
                + [("scan", None, key)
                   for key in ("g02_radps", "detuning_radps")])


@pytest.mark.parametrize("command, backend, key", _UNREAD_KEYS)
def test_keys_the_path_never_reads_are_refused(tmp_path, capsys, command,
                                               backend, key):
    if command == "gate":
        cfg, extra = {"schedule": "cps"}, ["--backend", backend]
        where = f"gate --backend {backend}"
    else:
        cfg, extra = {"scan_kind": "dispersive"}, []
        where = "scan_kind 'dispersive'"
    cfg[key] = 6 if key == "fock_cutoff" else 0.1
    assert run_cli(tmp_path, command, cfg, extra=extra) == 2
    assert (f"config key '{key}' is not read by {where}"
            in capsys.readouterr().err)
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


def _schema_keys():
    import squidqed.cli as cli
    return [(command, key) for command, schema in (
        ("spectrum", cli._SPECTRUM_SCHEMA), ("gate", cli._GATE_SCHEMA),
        ("scan", cli._SCAN_SCHEMA), ("feasibility", cli._FEASIBILITY_SCHEMA))
        for key in schema]


@pytest.mark.parametrize("command, key", _schema_keys())
def test_non_finite_numbers_are_refused(tmp_path, capsys, command, key):
    for k, bad in enumerate((float("nan"), float("inf"), -float("inf"))):
        out = tmp_path / str(k)
        assert run_cli(out, command, {key: bad}) == 2, bad
        assert f"config key '{key}' must be" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == ["config.json"]


def test_grid_entries_and_huge_integers_are_refused(tmp_path, capsys):
    assert run_cli(tmp_path / "grid", "scan", {"grid": [0.1, float("nan")]}) \
        == 2
    # a JSON integer too large for a float
    assert run_cli(tmp_path / "huge", "feasibility", {"margin": 10 ** 400}) \
        == 2
    assert "config key 'margin' must be" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["gamma_radps", "rabi_radps"])
def test_feasibility_with_a_gate_time_refuses_rates(tmp_path, capsys, key):
    assert run_cli(tmp_path, "feasibility", {"t_op_s": 1e-8, key: 1e9}) == 2
    assert (f"config key '{key}' is not read by feasibility with 't_op_s'"
            in capsys.readouterr().err)
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


@pytest.mark.parametrize("cfg, reason", [
    ({"detuning_radps": 1e308},
     "carrier omega_c = detuning / ratio is not finite"),
    ({"g02_radps": 1e-320}, "probe time pi/|g_02| is not finite"),
])
def test_rwa_points_that_overflow_are_recorded_failures(tmp_path, cfg,
                                                       reason):
    cfg = dict(cfg, scan_kind="rwa", grid=[0.02])
    assert run_cli(tmp_path, "scan", cfg) == 1
    assert (f"# point 2.000000000000e-02 failed: ValueError: {reason}"
            in grab(tmp_path, "scan.csv").splitlines())
    assert grab(tmp_path, "run.log").splitlines()[1:] == [
        f"failed_point parameter=2.000000000000e-02 reason=ValueError: "
        f"{reason}"]


@pytest.mark.parametrize("cfg, kind, want", [
    ({"scan_kind": "rwa"}, "rwa", {}),
    ({"scan_kind": "rwa", "g02_radps": 2.0e7}, "rwa", {"g02": 2.0e7}),
    # the key is omega_c - omega_20; the library takes omega_20 - omega_c
    ({"scan_kind": "rwa", "detuning_radps": 3e8, "fock_cutoff": 5}, "rwa",
     {"detuning": -3e8, "fock_cutoff": 5}),
    ({}, "dispersive", {}),
    ({"fock_cutoff": 6}, "dispersive", {"fock_cutoff": 6}),
])
def test_scan_points_take_only_the_given_keys(tmp_path, monkeypatch, cfg,
                                              kind, want):
    import squidqed.verify as verify

    name = f"{kind}_error_point"
    calls, real = [], getattr(verify, name)

    def recorded(ratio, **kwargs):
        calls.append(kwargs)
        return real(ratio, **kwargs)

    # cmd_scan takes the point functions from verify when it runs
    monkeypatch.setattr(verify, name, recorded)
    assert run_cli(tmp_path, "scan", dict(cfg, grid=[0.05])) == 0
    assert calls == [want]


def test_gate_and_spectrum_take_library_defaults(tmp_path, monkeypatch):
    import squidqed.protocols as protocols
    import squidqed.squid as squid
    import squidqed.verify as verify
    from squidqed.protocols import ExecutionParams

    seen = []
    real_run_block, real_solve = protocols._run_block, squid.solve

    def run_block(sched, inputs, backend, params):
        seen.append(params)
        return real_run_block(sched, inputs, backend, params)

    def solve(params, grid, **kwargs):
        seen.append(kwargs)
        return real_solve(params, grid, **kwargs)

    # cmd_gate and cmd_spectrum import the library when they run
    for module in (protocols, verify):
        monkeypatch.setattr(module, "_run_block", run_block)
    monkeypatch.setattr(squid, "solve", solve)
    assert run_cli(tmp_path / "a", "gate", {}) == 0
    assert run_cli(tmp_path / "c", "gate", {}, extra=["--backend",
                                                     "cavity"]) == 0
    assert run_cli(tmp_path / "s", "spectrum", {}) == 0
    # the CLI's own default is the Rabi rate, which the library leaves at 1
    assert seen == [ExecutionParams(rabi=100.0),
                    ExecutionParams(rabi=100.0, explicit_cavity=True), {}]


@pytest.mark.parametrize("command, cfg, extra, code", [
    ("feasibility", {}, [], 0),
    ("gate", {"schedule": "cps"}, ["--backend", "cavity"], 0),
    ("spectrum", {"preset": "harmonic"}, [], 0),
    ("scan", {"scan_kind": "rwa", "grid": [0.02],
              "detuning_radps": 1e308}, [], 1),
])
def test_a_rerun_into_the_same_directory_writes_the_same_bytes(
        tmp_path, command, cfg, extra, code):
    # the second run overwrites the first run's files with the same bytes
    # and exits the same way
    out = tmp_path / "out"
    assert run_cli(out, command, cfg, extra=extra) == code
    first = {p.name: p.read_bytes() for p in out.iterdir()
             if p.name not in ("config.json", "run.log")}
    assert first
    assert run_cli(out, command, cfg, extra=extra) == code
    assert {p.name: p.read_bytes() for p in out.iterdir()
            if p.name not in ("config.json", "run.log")} == first


def test_gate_refuses_a_fock_cutoff_above_the_dense_cap_before_writing(
        tmp_path, capsys, monkeypatch):
    # the cap is read when the check runs, so a lowered cap stands in for
    # a config whose (9 fock_cutoff)^2 arrays would take gigabytes
    import squidqed.hilbert as hilbert

    monkeypatch.setattr(hilbert, "MAX_TOTAL_DIM", 40)
    assert run_cli(tmp_path, "gate", {"fock_cutoff": 8},
                   extra=["--backend", "cavity"]) == 2
    assert ("invalid input: total dimension 72 exceeds the dense-storage cap "
            "40") in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


@pytest.mark.parametrize("kind, fock_cutoff, dim", [("dispersive", 8, 72),
                                                    ("rwa", 16, 48)])
def test_scan_points_above_the_dense_cap_fail_one_by_one(
        tmp_path, monkeypatch, kind, fock_cutoff, dim):
    import squidqed.hilbert as hilbert

    monkeypatch.setattr(hilbert, "MAX_TOTAL_DIM", 40)
    assert run_cli(tmp_path, "scan", {"scan_kind": kind,
                                      "fock_cutoff": fock_cutoff}) == 1
    reason = f"CapacityError: total dimension {dim} exceeds the " \
             "dense-storage cap 40"
    failed = [ln for ln in grab(tmp_path, "scan.csv").splitlines()
              if ln.startswith("# point ")]
    assert len(failed) == 3 and all(ln.endswith(f"failed: {reason}")
                                    for ln in failed), failed
    assert grab(tmp_path, "run.log").count(f"reason={reason}\n") == 3


#: Rows of each shipped truth table that a 0.9 pi first pulse bends.
_BENT_ROWS = {"cps": ("|10>", "|11>"), "swap": ("|10>", "|11>"),
              "transfer": ("|10>",)}


def _expected_failures(schedule, backend, n_steps):
    """Patterns of the failure lines a corrupted first pulse must give:
    the truth table and the concurrence on the exact backends, each
    fidelity against its bound, and on the cavity backend the declared
    rows' fidelity of a table with no ideal unitary."""
    exact = backend != "cavity"
    limit = "1.000e-09" if exact else "1.000e-02"
    out = []
    if exact and schedule in _BENT_ROWS:
        out += [rf"{schedule} row \{row[:-1]}> step {k}: deviation "
                r"1\.564e-01" for row in _BENT_ROWS[schedule]
                for k in range(1, n_steps + 1)]
    if schedule in ("cps", "swap"):
        out.append(rf"gate fidelity 0\.98\d+ below 1 - {limit}")
    if schedule == "transfer" and not exact:
        out.append(rf"truth table fidelity 0\.98\d+ below 1 - {limit}")
    if schedule == "entangle":
        out.append(rf"target state fidelity 0\.97\d+ below 1 - {limit}")
        if exact:
            out.append(r"concurrence 0\.97\d+ is not 1")
    return out


@pytest.mark.parametrize("schedule, backend", [
    (s, b) for s in _SCHEDULES for b in _BACKENDS])
def test_gate_physics_failures_exit_1_and_still_write(tmp_path, monkeypatch,
                                                     schedule, backend):
    # the shipped schedule with its first pulse at 0.9 pi, keeping the
    # declared ideal unitary or target state; the truth table stays the
    # shipped one, so every check must fail by name
    import dataclasses
    import re

    import squidqed.protocols as protocols
    from squidqed.verify import corrupt_first_pulse

    key = {"entangle": "entanglement"}.get(schedule, schedule)
    shipped = protocols.SCHEDULE_BUILDERS[key]()
    bent = dataclasses.replace(corrupt_first_pulse(shipped),
                               ideal_unitary=shipped.ideal_unitary,
                               target_state=shipped.target_state)
    monkeypatch.setitem(protocols.SCHEDULE_BUILDERS, key, lambda: bent)
    assert run_cli(tmp_path, "gate", {"schedule": schedule},
                   extra=["--backend", backend]) == 1
    summary = grab(tmp_path, "gate_summary.txt").splitlines()
    assert "physics_checks FAIL" in summary
    if schedule in _BENT_ROWS and backend != "cavity":
        assert "truth_table FAIL" in summary
    failures = [ln[len("failure "):] for ln in summary
                if ln.startswith("failure ")]
    expected = _expected_failures(schedule, backend, len(shipped.steps))
    assert len(failures) == len(expected), failures
    for line, pattern in zip(failures, expected):
        assert re.fullmatch(pattern, line), (line, pattern)
    assert grab(tmp_path, "gate_states.csv").count("\n") > 2


@pytest.mark.parametrize("command, config, reason", [
    ("scan", {"grid": []}, "config key 'grid' must not be empty\n"),
    ("gate", [1, 2], "config must be a flat JSON object\n"),
    ("spectrum", {"C_farad": 2.6e-14},
     "inline loop parameters incomplete; missing ['Ic_ampere', 'L_henry', "
     "'Phix_over_Phi0', 'grid_halfwidth_over_Phi0', 'grid_points']\n"),
    # no config: a --config path that cannot be read
    ("feasibility", None, "cannot read config file: "),
])
def test_config_refusals_are_named(tmp_path, capsys, command, config,
                                   reason):
    if config is None:
        code = main([command, "--out", str(tmp_path),
                     "--config", str(tmp_path / "no_such.json")])
    else:
        code = run_cli(tmp_path, command, config)
    assert code == 2
    assert capsys.readouterr().err.startswith(f"config error: {reason}")
    assert [p.name for p in tmp_path.iterdir()] == (
        [] if config is None else ["config.json"])


@pytest.mark.parametrize("backend", _BACKENDS)
def test_gate_entangle_leaking_to_level_2_exits_1_and_still_writes(
        tmp_path, monkeypatch, backend):
    # the last pulse step bent to 0.9 pi leaves population on level 2;
    # the run is judged by its bounds, like every other failed check
    import dataclasses
    import re
    from fractions import Fraction

    import squidqed.protocols as protocols

    shipped = protocols.SCHEDULE_BUILDERS["entanglement"]()
    last = shipped.steps[-1]
    bent_last = protocols.AraStep(tuple(
        protocols.PulseAction(a.target, a.levels,
                              a.theta_over_pi * Fraction(9, 10))
        for a in last.actions))
    bent = dataclasses.replace(shipped,
                               steps=shipped.steps[:-1] + (bent_last,))
    monkeypatch.setitem(protocols.SCHEDULE_BUILDERS, "entanglement",
                        lambda: bent)
    assert run_cli(tmp_path, "gate", {"schedule": "entangle"},
                   extra=["--backend", backend]) == 1
    summary = grab(tmp_path, "gate_summary.txt").splitlines()
    assert "physics_checks FAIL" in summary
    failures = [ln[len("failure "):] for ln in summary
                if ln.startswith("failure ")]
    assert re.fullmatch(r"target state fidelity 0\.97\d+ below 1 - "
                        r"1\.000e-0[29]", failures[0]), failures
    if backend == "cavity":
        assert len(failures) == 1, failures
    else:
        assert len(failures) == 2, failures
        assert re.fullmatch(r"concurrence 0\.97\d+ is not 1", failures[1])
    # the states file shows the leak: a loop on level 2 after the last step
    rows = [ln.split(",") for ln in
            grab(tmp_path, "gate_states.csv").splitlines()[2:]]
    assert any(r[1] == str(len(bent.steps)) and "2" in r[2:4] for r in rows)
