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
    import squidqed.cli as cli

    def refuse(*args, **kwargs):
        raise ValueError("refused on purpose")

    cfg = {"scan_kind": "rwa", "grid": [0.02, 0.01]}
    monkeypatch.setattr(cli, "rwa_error_scan", refuse)
    assert run_cli(tmp_path, "scan", cfg, extra=["--workers", "1"]) == 1
    lines = grab(tmp_path, "scan.csv").strip().splitlines()
    assert ("# point 2.000000000000e-02 failed: "
            "ValueError: refused on purpose") in lines

    def broken(*args, **kwargs):
        raise TypeError("a programming error")

    monkeypatch.setattr(cli, "rwa_error_scan", broken)
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


def test_cli_import_defers_scipy_linalg_to_the_solver(tmp_path):
    code = ("import sys\n"
            "from squidqed.cli import main\n"
            "assert 'scipy.linalg' not in sys.modules\n"
            f"assert main(['spectrum', '--out', {str(tmp_path)!r}]) == 0\n"
            "assert 'scipy.linalg' in sys.modules\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_cli_import_loads_no_process_pool():
    code = ("import sys\n"
            "import squidqed.cli\n"
            "assert 'concurrent.futures.process' not in sys.modules\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_scan_failures_are_written_to_run_log(tmp_path, monkeypatch):
    import squidqed.cli as cli

    real = cli.rwa_error_scan

    def refuse_the_finest(ratios, *args, **kwargs):
        if ratios[0] < 0.015:
            raise ValueError("refused on purpose")
        return real(ratios, *args, **kwargs)

    cfg = {"scan_kind": "rwa", "grid": [0.02, 0.01]}
    monkeypatch.setattr(cli, "rwa_error_scan", refuse_the_finest)
    assert run_cli(tmp_path, "scan", cfg, extra=["--workers", "1"]) == 0
    log = grab(tmp_path, "run.log").splitlines()
    assert log[0].startswith("command=scan")
    assert log[1:] == ["failed_point parameter=1.000000000000e-02 "
                       "reason=ValueError: refused on purpose"]
    assert ("# point 1.000000000000e-02 failed: "
            "ValueError: refused on purpose") in grab(tmp_path, "scan.csv")


def test_run_log_has_one_line_when_no_point_fails(tmp_path):
    cfg = {"scan_kind": "dispersive", "grid": [0.1]}
    assert run_cli(tmp_path, "scan", cfg, extra=["--workers", "1"]) == 0
    assert len(grab(tmp_path, "run.log").splitlines()) == 1


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
    code = ("import sys\n"
            "from squidqed.cli import main\n"
            f"assert main(['scan', '--config', {str(cfg)!r}, "
            f"'--out', {str(out2)!r}, '--workers', '2']) == 0\n"
            "for name in ('scipy.linalg', 'concurrent.futures.process'):\n"
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

    def counted(w, v, vecs, *args):
        blocks.append(vecs.shape)
        return real(w, v, vecs, *args)

    monkeypatch.setattr(verify, "_sampled_photon_peaks", counted)
    assert run_cli(tmp_path, "gate", {"schedule": "cps"},
                   extra=["--backend", "cavity"]) == 0
    assert blocks == [(36, 4)]


_SCHEDULES = ("cps", "swap", "transfer", "entangle")
_BACKENDS = ("analytic", "dispersive", "cavity")


@pytest.mark.parametrize("backend", _BACKENDS)
@pytest.mark.parametrize("schedule", _SCHEDULES)
def test_gate_runs_each_input_once(tmp_path, monkeypatch, schedule, backend):
    import squidqed.cli as cli
    import squidqed.verify as verify

    runs = []
    real = cli.execute

    def counted(sched, psi, *args, **kwargs):
        runs.append(kwargs.get("record_intermediate", False))
        return real(sched, psi, *args, **kwargs)

    for module in (cli, verify):
        monkeypatch.setattr(module, "execute", counted)
    assert run_cli(tmp_path, "gate", {"schedule": schedule},
                   extra=["--backend", backend]) == 0
    # the states loop only; transfer runs the inputs with loop b in |0>
    assert runs == [True] * (2 if schedule == "transfer" else 4)
    if schedule == "entangle" and backend != "cavity":
        summary = grab(tmp_path, "gate_summary.txt")
        assert summary_value(summary, "concurrence_dimensionless") == \
            "1.000000000000e+00"


#: SHA-256 of (gate_states.csv, gate_summary.txt) for each schedule and
#: backend at the default config, plus the cavity runs at Fock cutoff 8
#: (keys "schedule backend [fock_cutoff]"); the guard below prints new
#: literals.
_GATE_DIGESTS = {
    "cps analytic": (
        "15400e91f52852f2346423f42318123df2d65af23e134a1ee300c2d5624d5e45",
        "d9d06157ca14bb62815f19e6d7302c9a34390fa67be36be9c5d06a014501582f"),
    "cps dispersive": (
        "25f0a2c206e6d43f23d05157d1bd76b1e35df7f41ed07aac484b45729b5ae5e1",
        "bcbe5f5daf66a88218183942532aee772b611b1a0ce002906020c9d8f9b27912"),
    "cps cavity": (
        "af09c9e6f523d9861d684ce709ef1b9e21e3cf249b58798328dafd50fac0ee1e",
        "e78c68f7133ed8ab43665052112bb1452b241bc33e96e9e3b3f4b904d64ba10b"),
    "swap analytic": (
        "62609a7a76eacd9fd77c760ab46356828501d47f24b102d10537fc158703a561",
        "b5be39ff995a05a77017ef15ec0fc68d4e4d92467ea22888ff7d127fdb616260"),
    "swap dispersive": (
        "d6645741b2992385942c99e3b6bf2aec3913f0e97e9cfc919a7bf15b8f9d0f4b",
        "121205fe3a8a564f132c719b39e8362b9314962295765cad96bfad0694984d7e"),
    "swap cavity": (
        "b28ad46a164e026b78d3a9ce691cf5aea937cca4d6d08c7c1cf5cb18a6701079",
        "d3915d1a69a017f6b1aa19cf535fb276fe0f7d31685d6f622ca5048527b223db"),
    "transfer analytic": (
        "6c0838f2f92842c24838c45cbdadff04956ce40be09dc3adb63137d7f9bd2ce1",
        "fecd899bb046456647eb02b7f3053817ab938dfa4210c04149627ddd66f50714"),
    "transfer dispersive": (
        "fb8421386187f5c7afc905468e309c47fafad0354887eef4b44586d59fdfa80c",
        "fd2106a5a26cd43af0a6d633f65c238332f793ccb93ebed35a15a2403508ed2f"),
    "transfer cavity": (
        "5d1cc96d9073ab9cdcf300a495484defac697d4eb22aea10b144f7d09f07546a",
        "df8fbfcc5dc0a9faff8247a1559bd0b3415c3c3858ce85d0e96e338d422da8a2"),
    "entangle analytic": (
        "bee5035843575427edd98ac3ac38dcdd81e3f993f39e64c1b38a89f47063bd59",
        "4344f9ed491705e1da4c1d2cea4e84e6dc718a20d3e465cfdc88c7d638425fd3"),
    "entangle dispersive": (
        "ac171fe1c29edd5dceb0e20d96ac64256e58068d5e50a39a89aec2904e21e3f2",
        "be6396f1cbefed9c382fafe6e561621f9101f3da3eb20564f7aa53f6f73fdbe9"),
    "entangle cavity": (
        "5bcc53a15e139773b2b08c7d013000879d767414c6e7e26871752f3f02cccc82",
        "615386108b0ac2ab6257a8c5ddb2406419517b99ae27d9951989189aed9b2690"),
    "cps cavity 8": (
        "6a702b260108c16637af49f2595b80961f38792f2077bc50803a024b5aa11313",
        "4ba66e0e52d91da15af9f7e1ac04f3af1410caaa97d2b6fb03f6d1d9b761d819"),
    "swap cavity 8": (
        "94416beb37d85141f0ff6d6eb6265b92f445130ce44d44bcbc16ca1e3a6bc40b",
        "0d859e52cb36e1ba128c295140f3de8408e1fcf97cbe28c5add865f172328a2a"),
    "transfer cavity 8": (
        "d236461b1714e218b35ea126e64416aa97b716c48a63be198ccd5f3f23d5486b",
        "b57d37be3e7dbf01d91b97f101a737d1ce226dad1e44b1a42a5eb6b9e77d9e29"),
    "entangle cavity 8": (
        "bbbab8435b43137dce8755b76e03c6eed86aa8be98acdf189720adaef1283053",
        "7eb0dc07f36b37ea9fd02af11c00a712bdd98fde9bf396aef2855dae2d8aa263"),
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
    assert got == _GATE_DIGESTS, f"gate outputs moved; store {got!r}"


#: SHA-256 of scan.csv for rotating-wave scans: the default grid, and a
#: grid reaching past the reduction condition at Fock cutoff 6.
_RWA_SCAN_DIGESTS = {
    "default": (
        {"scan_kind": "rwa"},
        "609193e51b18f06e8568c818a5e2921f1706ec784bf2532bfdfe2143c81ac2b1"),
    "coarse grid, fock 6": (
        {"scan_kind": "rwa", "grid": [0.3, 0.05, 0.015], "fock_cutoff": 6},
        "d5c59d53f01a38cdfe58700e05ad51f698995a8cd5f5d3817b3a71cae0d65f3e"),
}


def test_rwa_scan_outputs_are_byte_stable(tmp_path):
    import hashlib

    got = {}
    for k, (key, (cfg, _)) in enumerate(_RWA_SCAN_DIGESTS.items()):
        out = tmp_path / str(k)
        assert run_cli(out, "scan", cfg) == 0
        got[key] = hashlib.sha256((out / "scan.csv").read_bytes()).hexdigest()
    want = {key: digest for key, (_, digest) in _RWA_SCAN_DIGESTS.items()}
    assert got == want, f"rotating-wave scan outputs moved; store {got!r}"


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
    protocols._step_unitary.cache_clear()
    try:
        assert run_cli(tmp_path, "gate", {"schedule": "entangle"},
                       extra=["--backend", "cavity"]) == 1
    finally:
        protocols._step_unitary.cache_clear()
    summary = grab(tmp_path, "gate_summary.txt")
    assert "physics_checks FAIL" in summary
    # the bound is 1 - 4 (g02/detuning)^2 at g02/detuning = 0.05
    assert any(ln.startswith("failure target state fidelity ")
               and ln.endswith(" below 1 - 1.000e-02")
               for ln in summary.splitlines()), summary


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
