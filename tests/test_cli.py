import dataclasses
import importlib
import importlib.util
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from planar3b import cli, potentials, scattering
from planar3b.errors import ConfigError
from planar3b.potentials import Branch


def run_cli(args, env_extra=None, cwd=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "planar3b.cli", *args],
        capture_output=True, text=True, env=env, cwd=cwd,
    )


# ------------------------------------------------------------- config parsing

def test_default_config_round_trip(tmp_path):
    cfg = cli.default_config()
    assert cfg.twobody.a0 == 10.0 and cfg.twobody.a1 == 100.0
    assert cfg.nu0_value == cfg.masses.nu0


def test_load_config_file(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(
        "[masses]\nm = 1.0\nM = 40.0\n"
        "[twobody]\na0 = 8.0\na1 = 200.0\n"
        "[wkb]\ntheta = 0.5\nphase_mode = full\n"
        "[sweep]\nr_min = 2.0\nr_max = 30.0\npoints = 50\nlog = true\n"
        "[output]\ndir = somewhere\n"
    )
    cfg = cli.load_config(str(path))
    assert cfg.masses.M == 40.0
    assert cfg.twobody.a0 == 8.0 and cfg.twobody.a1 == pytest.approx(200.0)
    assert cfg.wkb.theta == 0.5 and cfg.wkb.phase_mode == "full"
    assert cfg.sweep.points == 50
    assert cfg.output_dir == "somewhere"


def test_load_config_missing_file():
    with pytest.raises(ConfigError):
        cli.load_config("/nonexistent/path.ini")


def test_load_config_invalid_values(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[twobody]\na0 = -3.0\n")
    with pytest.raises(ConfigError):
        cli.load_config(str(path))


@pytest.mark.parametrize("sweep, named", [
    ("r_max = inf", "r_max = inf"), ("r_min = nan", "r_min = nan"),
    ("r_min = 0.0", "r_min = 0.0"), ("r_min = 5.0\nr_max = 2.0", "r_min = 5.0"),
    ("points = 1", "at least 2 points"),
], ids=["inf", "nan", "zero", "reversed", "one-point"])
@pytest.mark.parametrize("command", ["potentials", "spectrum", "resonances",
                                     "wavefunction", "validate"])
def test_bad_sweep_section_exit_2(tmp_path, capsys, sweep, named, command):
    # [sweep] is checked when the INI is read, so every command stops with
    # a configuration error, even one that never sweeps
    ini = tmp_path / "sweep.ini"
    ini.write_text(f"[sweep]\n{sweep}\n")
    with pytest.raises(ConfigError, match=re.escape(named)):
        cli.load_config(str(ini))
    args = [command, "--config", str(ini)]
    if command != "validate":
        args += ["--output", str(tmp_path / "out")]
    assert cli.main(args) == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_config_hash_stable():
    assert cli.default_config().config_hash() == cli.default_config().config_hash()
    other = cli.default_config()
    other.nu0 = 77.0
    assert other.config_hash() != cli.default_config().config_hash()


# ------------------------------------------------------------- CSV writer

# the text that the row-wise writer of earlier versions produced for these
# columns (value by value; the commands passed numpy bools through bool())
_GOLDEN_CSV = """# golden
list_float,array_float,bool,numpy_bool,int,int_array,branch
,,true,false,0,-3,s+
,-0,false,true,-7,-2,II-
-0,4.9406564584124654e-324,true,false,9223372036854775808,-1,I0
4.9406564584124654e-324,-inf,true,false,42,0,asym
inf,1e+308,false,true,1,1,s-
1e+308,0.10000000000000001,false,true,100000000000000000000,2,II+
0.10000000000000001,0.10000000000000001,true,false,-1,3,I-
0.10000000000000001,0.33333333333333331,false,true,3,4,II0
"""


def test_write_csv_golden_text(tmp_path):
    path = tmp_path / "new" / "golden.csv"
    cli._write_csv(str(path), "# golden", {
        "list_float": [None, math.nan, -0.0, 5e-324, math.inf, 1e308, 0.1, np.float64(0.1)],
        "array_float": np.array([np.nan, -0.0, 5e-324, -np.inf, 1e308, 0.1, 0.1, 1 / 3]),
        "bool": [True, False, True, True, False, False, True, False],
        "numpy_bool": np.array([False, True, False, False, True, True, False, True]),
        "int": [0, -7, 2 ** 63, np.int64(42), 1, 10 ** 20, -1, 3],
        "int_array": np.arange(-3, 5),
        "branch": ["s+", "II-", "I0", "asym", "s-", "II+", "I-", "II0"],
    })
    assert path.read_bytes() == _GOLDEN_CSV.encode()


def test_write_csv_without_rows(tmp_path):
    path = tmp_path / "empty.csv"
    cli._write_csv(str(path), "# empty", {"R": np.array([]), "V": []})
    assert path.read_bytes() == b"# empty\nR,V\n"


# ------------------------------------------------------------- commands

def test_cmd_potentials_outputs(tmp_path):
    cfg = cli.default_config()
    cfg.output_dir = str(tmp_path)
    curves = cli.cmd_potentials(cfg, [Branch.SWAVE_PLUS, Branch.PWAVE_I_ZERO])
    assert set(curves) == {Branch.SWAVE_PLUS, Branch.PWAVE_I_ZERO}
    text = (tmp_path / "potential_s_plus.csv").read_text().splitlines()
    assert text[0].startswith("# planar3b 0.1.") and "potentials" in text[0]
    assert text[1] == "R,V,branch,converged,residual"
    assert len(text) == 2 + 400


def test_cmd_potentials_unconverged_rows_empty(tmp_path):
    cfg = cli.default_config()
    cfg.output_dir = str(tmp_path)
    cfg.sweep = cli.SweepConfig(r_min=0.5, r_max=3.0, points=7, log=False)
    cli.cmd_potentials(cfg, [Branch.SWAVE_MINUS])
    rows = (tmp_path / "potential_s_minus.csv").read_text().splitlines()[2:]
    first = rows[0].split(",")
    assert first[1] == "" and first[3] == "false" and first[4] == ""
    last = rows[-1].split(",")
    assert last[3] == "true" and float(last[1]) < 0


def test_pwave_II_sweeps_without_dimer_pole(tmp_path, capsys):
    # at a1 = 5 < 2e T1 has no pole, but branch II still has roots; the
    # sweep needs no dimer pole, so both II curves are written
    ini = tmp_path / "a1_5.ini"
    ini.write_text("[twobody]\na0 = 10\na1 = 5\n")
    out = tmp_path / "out"
    assert cli.main(["potentials", "--config", str(ini), "--branch", "II+,II-",
                     "--output", str(out)]) == 0, capsys.readouterr().err
    params = cli.load_config(str(ini)).twobody
    rows = [line.split(",") for line in
            (out / "potential_II_plus.csv").read_text().splitlines()[2:]]
    assert len(rows) == 400 and all(row[3] == "true" for row in rows)
    for row in rows:
        root = potentials.solve_pwave_II(float(row[0]), params, +1)
        assert root.converged
        assert math.sqrt(-2.0 * float(row[1])) == pytest.approx(root.xi, rel=1e-12)
    assert (out / "potential_II_minus.csv").exists()


def test_cmd_spectrum_summary(tmp_path):
    cfg = cli.default_config()
    cfg.output_dir = str(tmp_path)
    spec = cli.cmd_spectrum(cfg, 12, mass_ratio=0.1)
    lines = (tmp_path / "spectrum.csv").read_text().splitlines()
    assert lines[1].startswith("# nu0 = 10.5")
    assert lines[2].startswith("# fit E0_fit=")
    assert lines[3] == "n,rho_n,E_n,ratio_next"
    nu0 = 10.5
    rows = [line.split(",") for line in lines[4:]]
    assert rows[-1][3] == ""  # no next level for the last row
    n3 = float(rows[2][0])
    ratio3 = float(rows[2][3])
    want = math.exp(-math.pi**2 * (n3 + 0.5) / nu0) * (n3 / (n3 + 1.0)) ** 2
    assert ratio3 == pytest.approx(want, rel=1e-12)


def test_full_phase_spectrum_keeps_every_level(tmp_path):
    # at the default nu0 = 10.5 and R_max = 1e150, levels 28-30 lie at
    # ln rho = 184-212, below the cap at 345
    cfg = cli.default_config()
    cfg.wkb = dataclasses.replace(cfg.wkb, phase_mode="full")
    cfg.output_dir = str(tmp_path)
    cli.cmd_spectrum(cfg, 30)
    lines = (tmp_path / "spectrum.csv").read_text().splitlines()
    assert [int(line.split(",")[0]) for line in lines[4:]] == list(range(1, 31))


def test_cmd_resonances_with_cross_section(tmp_path, capsys):
    cfg = cli.default_config()
    cfg.nu0 = 100.0
    cfg.output_dir = str(tmp_path)
    table = cli.cmd_resonances(cfg, 5, k=0.1)
    lines = (tmp_path / "resonances.csv").read_text().splitlines()
    assert lines[1] == "n,a1_n_exact,a1_n_asymptotic,A0_midpoint,sigma0_at_k,kR1_at_k"
    row = lines[2].split(",")
    assert float(row[1]) == pytest.approx(2.0 * math.exp(math.pi**2 * 2.25 / 200.0), rel=1e-12)
    assert float(row[4]) > 0
    kr1 = [float(line.split(",")[5]) for line in lines[2:]]
    assert kr1 == [0.1 * scattering.r1_range(r.a1_exact) for r in table.rows]
    # rows 3, 4 and 5 have k R1 >= 0.1: one summary line, not one per row
    assert [r.n for r, v in zip(table.rows, kr1) if v >= 0.1] == [3, 4, 5]
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("warning:")
    assert "3 of 5 rows" in err[0] and "n = 3" in err[0]


def test_cmd_resonances_k_r1_empty_where_a1_overflows(tmp_path, capsys):
    # at nu0 = 0.5 the resonance a1 of n = 8, 9 and 10 overflows
    cfg = cli.default_config()
    cfg.nu0 = 0.5
    cfg.output_dir = str(tmp_path)
    table = cli.cmd_resonances(cfg, 10, k=1e-4)
    lines = (tmp_path / "resonances.csv").read_text().splitlines()
    cells = [line.split(",")[5] for line in lines[2:]]
    assert [c == "" for c in cells] == [not math.isfinite(r.a1_exact) for r in table.rows]
    assert cells.count("") == 3
    assert len(capsys.readouterr().err.splitlines()) == 1


def test_cli_wavefunction_II_beyond_doubles_exit_2(tmp_path, capsys):
    # kappa R ~ 750 at the default parameters: K1 underflows to 0, which
    # was a ZeroDivisionError traceback (exit 1); branch I runs there
    out = tmp_path / "out"
    assert cli.main(["wavefunction", "--branch", "II", "--separation", "12600",
                     "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "kappa R" in err
    assert not out.exists()
    assert cli.main(["wavefunction", "--separation", "12600", "--output", str(out)]) == 0


@pytest.mark.parametrize("args", [["potentials", "--branch", "II+"],
                                  ["wavefunction", "--branch", "II"]])
def test_cli_a0_whose_half_underflows_exit_2(tmp_path, capsys, args):
    # at the smallest double a0/2 rounds to 0, and branch II's ln(a0/2) was
    # a math domain error traceback (exit 1)
    ini = tmp_path / "tiny_a0.ini"
    ini.write_text("[twobody]\na0 = 5e-324\n")
    out = tmp_path / "out"
    assert cli.main([*args, "--config", str(ini), "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "a0 = 5e-324" in err
    assert not out.exists()


def test_cmd_wavefunction(tmp_path):
    cfg = cli.default_config()
    cfg.output_dir = str(tmp_path)
    root = cli.cmd_wavefunction(cfg, "I", +1, 10.0, 12.0, 11)
    lines = (tmp_path / "wavefunction_I_plus.csv").read_text().splitlines()
    assert lines[2] == "x,y,psi"
    assert len(lines) == 3 + 11 * 11
    assert root.converged


# ------------------------------------------------------------- subprocess level

def test_cli_exit_codes_and_env(tmp_path):
    out = tmp_path / "envdir"
    r = run_cli(["potentials", "--branch", "s+"], env_extra={"PLANAR3B_OUTPUT": str(out)})
    assert r.returncode == 0, r.stderr
    assert (out / "potential_s_plus.csv").exists()

    r = run_cli(["potentials", "--branch", "bogus", "--output", str(tmp_path)])
    assert r.returncode == 2
    assert "unknown branch" in r.stderr

    r = run_cli(["--version"])
    assert r.returncode == 0 and "planar3b" in r.stdout


def test_default_potentials_loads_no_optional_numpy_modules(tmp_path):
    # numpy.ma and numpy.polynomial are loaded lazily and cost about 1-2 MB
    # of resident memory; the default sweep needs neither
    code = ("import sys\n"
            "from planar3b import cli\n"
            f"assert cli.main(['potentials', '--output', {str(tmp_path)!r}]) == 0\n"
            "print(sorted(m for m in ('numpy.ma', 'numpy.polynomial') if m in sys.modules))")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"


def test_cli_byte_identical_outputs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out, jobs in ((a, "1"), (b, "2")):
        r = run_cli(["potentials", "--branch", "s+,I0", "--output", str(out),
                     "--jobs", jobs])
        assert r.returncode == 0, r.stderr
    for name in ("potential_s_plus.csv", "potential_I0.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_cli_jobs_writes_empty_stderr(tmp_path):
    # --jobs is accepted and ignored: both runs take the same in-process
    # array solve, and the extra-root counts are logged at INFO, so a
    # default run writes nothing to stderr
    stderr = []
    for jobs in ("1", "2"):
        r = run_cli(["potentials", "--branch", "s+,I+,II+,II-", "--output",
                     str(tmp_path / jobs), "--jobs", jobs])
        assert r.returncode == 0, r.stderr
        stderr.append(r.stderr)
    assert stderr == ["", ""]


def test_cli_nan_config_values_exit_2(tmp_path):
    # NaN fails the dataclass validators, so load_config reports a
    # configuration error instead of a solver failure or a silent run
    ini = tmp_path / "a1_nan.ini"
    ini.write_text("[twobody]\na1 = nan\n")
    r = run_cli(["potentials", "--branch", "I+", "--config", str(ini),
                 "--output", str(tmp_path / "a1")])
    assert r.returncode == 2, r.stderr
    assert "invalid configuration" in r.stderr

    ini = tmp_path / "theta_nan.ini"
    ini.write_text("[wkb]\ntheta = nan\n")
    out = tmp_path / "theta"
    r = run_cli(["spectrum", "--config", str(ini), "--output", str(out)])
    assert r.returncode == 2, r.stderr
    assert not (out / "spectrum.csv").exists()


@pytest.mark.parametrize("args", [
    ["spectrum", "--mass-ratio", "0"],
    ["spectrum", "--mass-ratio", "inf"],
    ["resonances", "--k", "nan"],
    ["resonances", "--k", "inf"],
    ["wavefunction", "--grid-size", "-2"],
    ["wavefunction", "--grid-size", "0"],
    ["wavefunction", "--grid-size", "1"],
    # too few levels for the spectrum fit, an empty resonance table, a grid
    # without width
    ["spectrum", "--n-max", "2"],
    ["resonances", "--n-max", "0"],
    ["wavefunction", "--extent", "nan"],
    ["wavefunction", "--extent", "inf"],
    ["wavefunction", "--extent", "0"],
    ["wavefunction", "--extent", "-15"],
])
def test_cli_bad_flag_values_exit_2(tmp_path, capsys, args):
    # out-of-domain flag values are configuration errors: exit 2, a one-line
    # message that names the flag and no traceback, never a crash or a
    # silent run
    assert cli.main([*args, "--output", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and args[1] in err and "Traceback" not in err
    assert not any(tmp_path.iterdir())


def test_cli_bad_k_without_finite_A0_exit_2(tmp_path, capsys):
    # at nu0 = 0.01 every A0 overflows, so no row calls cross_section
    ini = tmp_path / "tiny_nu0.ini"
    ini.write_text("[model]\nnu0 = 0.01\n")
    out = tmp_path / "out"
    assert cli.main(["resonances", "--config", str(ini), "--k", "nan",
                     "--output", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("nu0", ["nan", "inf"])
def test_cli_bad_model_nu0_exit_2(tmp_path, capsys, nu0):
    # an unusable nu0 is a config error that names the key, neither a run
    # with empty a1 columns (nan) nor an error about a1 = 2 (inf)
    ini = tmp_path / "bad_nu0.ini"
    ini.write_text(f"[model]\nnu0 = {nu0}\n")
    out = tmp_path / "out"
    assert cli.main(["resonances", "--config", str(ini), "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "nu0" in err and "Traceback" not in err
    assert not out.exists()


def test_cli_validate_coarse_phase_rule(monkeypatch, capsys):
    # on an 8-node rule the full phase and Phi no longer meet the closed
    # form to 2e-10, and the phi chain check fails
    from planar3b import wkb

    nodes, weights = np.polynomial.legendre.leggauss(8)
    monkeypatch.setattr(wkb, "_phase_rule", lambda: (0.5 * (nodes + 1.0), 0.5 * weights))
    assert cli.main(["validate", "--only", "wkb"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith("phi_correction") and "FAIL" in line for line in lines)
    assert any(line.startswith("spectrum_law") and "PASS" in line for line in lines)


def test_cli_infinite_quad_tol_exit_2(tmp_path):
    # the retired Phi tolerance is an unknown key, whatever its value
    ini = tmp_path / "inf_tol.ini"
    ini.write_text("[wkb]\nquad_tol = inf\n")
    r = run_cli(["validate", "--config", str(ini), "--only", "wkb"])
    assert r.returncode == 2, r.stdout + r.stderr
    assert "unknown key 'quad_tol' in [wkb]" in r.stderr


@pytest.mark.parametrize("text, named", [
    ("[twobody]\na_0 = 5.0\n", "unknown key 'a_0' in [twobody]"),
    ("[wbk]\ntheta = 0.5\n", "unknown section [wbk]"),
    ("[wkb]\nR_inner = 2.0\n", "unknown key 'R_inner' in [wkb]"),
    ("[DEFAULT]\na0 = 5.0\n", "unknown key 'a0' in [DEFAULT]"),
    ("[twobody]\na1 = 50\na1_inv = 0.0\n", "sets both a1 and a1_inv"),
], ids=["key", "section", "key-case", "default-section", "a1-and-a1_inv"])
def test_load_config_rejects_unknown_names(tmp_path, capsys, text, named):
    # a misspelt section or key would otherwise run with the defaults, and
    # a1_inv would silently override a1
    ini = tmp_path / "typo.ini"
    ini.write_text(text)
    with pytest.raises(ConfigError, match=re.escape(named)):
        cli.load_config(str(ini))
    out = tmp_path / "out"
    assert cli.main(["spectrum", "--config", str(ini), "--output", str(out)]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text", ["a0 = 5.0\n", "[wkb]\ntheta = 0.1\ntheta = 0.2\n"],
                         ids=["no-section", "repeated-key"])
def test_malformed_config_exit_2(tmp_path, capsys, text):
    ini = tmp_path / "malformed.ini"
    ini.write_text(text)
    assert cli.main(["spectrum", "--config", str(ini), "--output", str(tmp_path)]) == 2
    assert "malformed config file" in capsys.readouterr().err


def test_readme_ini_example_loads(tmp_path):
    # the README's INI block names only keys that load_config reads, so a
    # retired key cannot stay in the docs
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```ini\n(.*?)```", readme, flags=re.S)
    assert len(blocks) == 1
    ini = tmp_path / "readme.ini"
    ini.write_text(blocks[0])
    cfg = cli.load_config(str(ini))
    assert cfg.nu0_value == 500.0 and cfg.output_dir == "out"


def test_cli_full_mode_spectrum_deterministic(tmp_path):
    ini = tmp_path / "full.ini"
    ini.write_text("[model]\nnu0 = 200.0\n[wkb]\ntheta = 0.3\nphase_mode = full\n")
    csvs = []
    for run in ("a", "b"):
        out = tmp_path / run
        r = run_cli(["spectrum", "--config", str(ini), "--output", str(out)])
        assert r.returncode == 0, r.stderr
        csvs.append((out / "spectrum.csv").read_bytes())
    assert csvs[0] == csvs[1]


def test_cli_validate_only_specfun():
    r = run_cli(["validate", "--only", "specfun"])
    assert r.returncode == 0, r.stdout + r.stderr
    assert "specfun_oracle" in r.stdout
    assert "swave_branches" not in r.stdout


def test_cli_validate_unknown_module():
    r = run_cli(["validate", "--only", "nonsense"])
    assert r.returncode == 2


def test_cli_spectrum_too_few_levels(tmp_path):
    # an R_max cap tight enough to strangle the spectrum -> solver failure (3)
    ini = tmp_path / "cap.ini"
    ini.write_text("[model]\nnu0 = 2.0\n[wkb]\nr_max = 10.0\n")
    r = run_cli(["spectrum", "--config", str(ini), "--output", str(tmp_path)])
    assert r.returncode == 3
    assert "solver failure" in r.stderr


def test_spectrum_slope_invariant_under_theta(tmp_path):
    # shifting the short-range phase moves every rho_n but leaves the fitted
    # Gaussian-cutoff slope within the acceptance band (on the n = 5..25
    # regression window of the spectrum-law criterion)
    from planar3b import wkb

    cfg = cli.default_config()
    cfg.nu0 = 500.0
    cfg.output_dir = str(tmp_path)
    slopes, rhos = [], []
    for theta in (-math.pi / 2, 0.0, math.pi / 2):
        cfg.wkb = cli.WkbConfig(theta=theta)
        spec = cli.cmd_spectrum(cfg, 25)
        rhos.append(spec.levels[9][1])
        window = wkb.quantize_spectrum((5, 25), 500.0, cfg.wkb)
        slopes.append(window.slope_fit)
    theory = -math.pi**2 / (2.0 * 500.0)
    assert all(abs(s / theory - 1.0) < 0.02 for s in slopes)
    # larger theta shrinks (pi n - theta)^2, so rho_n decreases with theta
    assert rhos[0] > rhos[1] > rhos[2]


# ------------------------------------------------------------- benchmark hooks

def test_wkb_r_max_past_overflow_exit_2(tmp_path, capsys):
    # past R_max = e^354.89 ~ 1.34e154 the spectrum crashed: an
    # OverflowError at r_max = inf, levels with E_n = -0.0 dividing the
    # ratio_next column at r_max = 1e308
    for r_max in ("inf", "1e308"):
        ini = tmp_path / f"r_max_{r_max}.ini"
        ini.write_text(f"[model]\nnu0 = 1.5\n[wkb]\nr_max = {r_max}\n")
        out = tmp_path / r_max
        assert cli.main(["spectrum", "--config", str(ini), "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "R_max" in err and "Traceback" not in err
        assert not out.exists()


def test_benchmark_wrapped_names_resolve():
    # perfbench/layers.py wraps these module attributes in traced runs and
    # reports the metrics of a missing one as null, so each must exist
    path = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
    spec = importlib.util.spec_from_file_location("perfbench_layers", path)
    layers = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = layers
    try:
        spec.loader.exec_module(layers)
    finally:
        del sys.modules[spec.name]
    names = [*layers.INNER, *layers.OUTER]
    names += [("specfun", f"bessel_{key}") for key in "kjy"]
    assert len(names) > 20
    missing = [f"{mod}.{attr}" for mod, attr in names
               if not callable(getattr(importlib.import_module(f"planar3b.{mod}"), attr, None))]
    assert not missing
