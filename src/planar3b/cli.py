"""Command-line front end: parameter sweeps to CSV and the validation suite.

Subcommands: ``potentials``, ``spectrum``, ``resonances``, ``wavefunction``,
``validate``.  Configuration is a plain INI file (section headers, key =
value); every key has a default, and the defaults reproduce the reference
potential-curve parameters (a0 = 10 r1, a1 = 100 r1^2).  Output is
deterministic: identical configuration yields byte-identical CSV files, each
carrying a header comment ``# planar3b <version> <command> <config-hash>``.

Exit codes: 0 ok, 1 validation failure, 2 configuration error, 3 solver
failure.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__, potentials, scattering, wkb
from .errors import ConfigError, DomainError, NoRealRootError
from .potentials import Branch
from .twobody import MassConfig, TwoBodyParams
from .wkb import WkbConfig


@dataclass
class SweepConfig:
    r_min: float = 0.02
    r_max: float = 60.0
    points: int = 400
    log: bool = True

    def __post_init__(self):
        if self.points < 2:
            raise ConfigError(f"sweep needs at least 2 points, got {self.points}")
        if not 0.0 < self.r_min < self.r_max < math.inf:  # NaN fails too
            raise ConfigError("sweep needs 0 < r_min < r_max < inf, got "
                              f"r_min = {self.r_min}, r_max = {self.r_max}")

    def grid(self) -> np.ndarray:
        if self.log:
            return np.logspace(math.log10(self.r_min), math.log10(self.r_max), self.points)
        return np.linspace(self.r_min, self.r_max, self.points)


#: default sweep windows per branch family (s-wave in a0 units, rest in r1)
_S_SWEEP = SweepConfig(r_min=0.02, r_max=6.0, points=400, log=True)
_P_SWEEP = SweepConfig(r_min=1.2, r_max=60.0, points=400, log=True)


@dataclass
class RunConfig:
    masses: MassConfig = field(default_factory=lambda: MassConfig(m=1.0, M=10.0))
    nu0: float | None = None  # explicit override of the mass-derived value
    twobody: TwoBodyParams = field(default_factory=lambda: TwoBodyParams.from_a1(a0=10.0, a1=100.0))
    wkb: WkbConfig = field(default_factory=WkbConfig)
    sweep: SweepConfig | None = None  # None: per-branch figure defaults
    output_dir: str = "."

    @property
    def nu0_value(self) -> float:
        return self.masses.nu0 if self.nu0 is None else self.nu0

    def canonical_text(self) -> str:
        items = [
            ("masses.m", self.masses.m),
            ("masses.M", self.masses.M),
            ("model.nu0", self.nu0_value),
            ("twobody.a0", self.twobody.a0),
            ("twobody.a1_inv", self.twobody.a1_inv),
            ("twobody.r0", self.twobody.r0),
            ("wkb.theta", self.wkb.theta),
            ("wkb.r_inner", self.wkb.R_inner),
            ("wkb.phase_mode", self.wkb.phase_mode),
            ("wkb.r_max", self.wkb.R_max),
            ("sweep", None if self.sweep is None else
             (self.sweep.r_min, self.sweep.r_max, self.sweep.points, self.sweep.log)),
        ]
        return "\n".join(f"{k}={v!r}" for k, v in items)

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()[:12]


def default_config() -> RunConfig:
    return RunConfig()


#: every INI key that load_config reads, by section
_INI_KEYS = {
    "masses": ("m", "M"),
    "model": ("nu0",),
    "twobody": ("a0", "a1", "a1_inv", "r0"),
    "wkb": ("theta", "r_inner", "phase_mode", "r_max"),
    "sweep": ("r_min", "r_max", "points", "log"),
    "output": ("dir",),
}


def load_config(path: str | None) -> RunConfig:
    """The run configuration of an INI file (the defaults for None); a
    section or key outside _INI_KEYS is a ConfigError, not ignored, and so
    is [twobody] with both a1 and a1_inv."""
    cfg = default_config()
    if path is None:
        return cfg
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.optionxform = str  # [masses] carries both m and M
    try:
        read = parser.read(path)
    except configparser.Error as exc:  # no section header, a repeated key
        raise ConfigError(f"malformed config file {path!r}: {exc}") from exc
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    for name, section in parser.items():  # [DEFAULT] first, which knows no key
        if name not in _INI_KEYS and name != parser.default_section:
            raise ConfigError(f"unknown section [{name}] in {path}")
        for key in section:
            if key not in _INI_KEYS.get(name, ()):
                raise ConfigError(f"unknown key {key!r} in [{name}] of {path}")
    if parser.has_option("twobody", "a1") and parser.has_option("twobody", "a1_inv"):
        raise ConfigError(f"[twobody] of {path} sets both a1 and a1_inv; give one of them")
    try:
        if parser.has_section("masses"):
            cfg.masses = MassConfig(
                m=parser.getfloat("masses", "m", fallback=1.0),
                M=parser.getfloat("masses", "M", fallback=10.0),
            )
        if parser.has_option("model", "nu0"):
            cfg.nu0 = parser.getfloat("model", "nu0")
            if not 0.0 < cfg.nu0 < math.inf:  # NaN fails too
                raise DomainError(f"[model] nu0 must be positive and finite, got {cfg.nu0}")
        if parser.has_section("twobody"):
            a0 = parser.getfloat("twobody", "a0", fallback=10.0)
            r0 = parser.getfloat("twobody", "r0", fallback=1.25)
            if parser.has_option("twobody", "a1_inv"):
                cfg.twobody = TwoBodyParams(a0=a0, a1_inv=parser.getfloat("twobody", "a1_inv"), r0=r0)
            else:
                a1 = parser.getfloat("twobody", "a1", fallback=100.0)
                cfg.twobody = TwoBodyParams.from_a1(a0=a0, a1=a1, r0=r0)
        if parser.has_section("wkb"):
            cfg.wkb = WkbConfig(
                theta=parser.getfloat("wkb", "theta", fallback=0.0),
                R_inner=parser.getfloat("wkb", "r_inner", fallback=1.0),
                phase_mode=parser.get("wkb", "phase_mode", fallback="approx"),
                R_max=parser.getfloat("wkb", "r_max", fallback=1e150),
            )
        if parser.has_section("sweep"):
            cfg.sweep = SweepConfig(
                r_min=parser.getfloat("sweep", "r_min", fallback=0.02),
                r_max=parser.getfloat("sweep", "r_max", fallback=60.0),
                points=parser.getint("sweep", "points", fallback=400),
                log=parser.getboolean("sweep", "log", fallback=True),
            )
        if parser.has_option("output", "dir"):
            cfg.output_dir = parser.get("output", "dir")
    except (ValueError, DomainError) as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc
    return cfg


# ----------------------------------------------------------------- CSV output

def _cells(values) -> list:
    """The CSV text of one column: "" for None and NaN, true/false for
    booleans, floats with 17 significant digits, anything else by str().
    A numpy array is converted once with .tolist(), so its elements arrive
    as Python floats, ints and bools."""
    if isinstance(values, np.ndarray):
        values = values.tolist()
    return ["" if v is None or v != v
            else ("true" if v else "false") if isinstance(v, bool)
            else format(v, ".17g") if isinstance(v, float)
            else str(v)
            for v in values]


def _fmt(value) -> str:
    """One value as _cells writes it, for the header lines."""
    return _cells((value,))[0]


def _write_csv(path, header_comment, columns):
    """Write the {name: values} columns (all of one length) under the
    header comment, with one join over the formatted columns."""
    rows = map(",".join, zip(*map(_cells, columns.values())))
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join([header_comment, ",".join(columns), *rows, ""]))


def _header(cfg, command):
    return f"# planar3b {__version__} {command} {cfg.config_hash()}"


# ----------------------------------------------------------------- potentials

def _branch_params(cfg, branch):
    params = cfg.twobody
    if branch in potentials.ZERO_BRANCHES and params.a1_inv != 0.0:
        params = potentials.resonance_params(params)
    return params


def _sweep_for_branch(cfg, branch):
    if cfg.sweep is not None:
        return cfg.sweep
    return _S_SWEEP if branch in potentials.S_BRANCHES else _P_SWEEP


def cmd_potentials(cfg: RunConfig, branches):
    """Sweep the requested branches; returns {branch: PotentialCurve} and
    writes one CSV per branch.

    The branches that share a grid are solved by one
    ``potentials.sweep_branches`` call.  A point is counted toward the
    solver-failure rate only when it lies in the window where the branch has
    a solution at all; NoRealRoot rows outside it are expected and simply
    emitted unconverged.
    """
    sweeps = [_sweep_for_branch(cfg, branch) for branch in branches]
    curves, r_cells = {}, {}
    for sweep in {id(s): s for s in sweeps}.values():
        jobs = [(branch, _branch_params(cfg, branch))
                for branch, s in zip(branches, sweeps) if s is sweep]
        grid = sweep.grid()
        curves.update(potentials.sweep_branches(jobs, grid))
        cells = _cells(grid)  # the R column of every branch on this grid
        r_cells.update((branch, cells) for branch, _ in jobs)
    failures = total = 0
    for branch in branches:
        curve = curves[branch]
        lo, hi = potentials.branch_existence(branch, _branch_params(cfg, branch))
        expected = (curve.R_grid >= lo) & (curve.R_grid <= hi)
        total += int(np.sum(expected))
        failures += int(np.sum(expected & ~curve.converged))
        tag = branch.value.replace("+", "_plus").replace("-", "_minus")
        ok = curve.converged
        _write_csv(
            os.path.join(cfg.output_dir, f"potential_{tag}.csv"),
            _header(cfg, "potentials"),
            {"R": r_cells[branch], "V": np.where(ok, curve.V, math.nan),
             "branch": [branch.value] * ok.size, "converged": ok,
             "residual": np.where(ok, curve.residual, math.nan)},
        )
    if total and failures / total > 0.5:
        raise RuntimeError(f"solver failure rate {failures}/{total} exceeds 50%")
    return curves


# ----------------------------------------------------------------- spectrum

def cmd_spectrum(cfg: RunConfig, n_max: int, mass_ratio: float | None = None):
    """Spectrum CSV with the neighbor-ratio column plus a fit summary."""
    if n_max < 3:
        raise ConfigError(f"--n-max must be at least 3, the levels the fit needs, got {n_max}")
    if mass_ratio is not None:
        if not 0 < mass_ratio < math.inf:
            raise ConfigError(f"--mass-ratio must be finite and positive, got {mass_ratio!r}")
        nu0 = (1.0 + 2.0 / mass_ratio) / 2.0  # nu0 = (m + 2M)/(2m)
    else:
        nu0 = cfg.nu0_value
    spec = wkb.quantize_spectrum((1, n_max), nu0, cfg.wkb)
    if len(spec.levels) < 3:
        raise RuntimeError(f"only {len(spec.levels)} levels found below the cap")
    n, rho, e = zip(*spec.levels)
    rel_err = abs(spec.slope_fit / spec.slope_theory - 1.0)
    header = (
        _header(cfg, "spectrum")
        + f"\n# nu0 = {_fmt(nu0)}"
        + f"\n# fit E0_fit={_fmt(spec.E0_fit)},slope={_fmt(spec.slope_fit)},"
        + f"slope_theory={_fmt(spec.slope_theory)},rel_err={_fmt(rel_err)}"
    )
    _write_csv(
        os.path.join(cfg.output_dir, "spectrum.csv"),
        header,
        {"n": n, "rho_n": rho, "E_n": e,
         "ratio_next": [e1 / e0 for e0, e1 in zip(e, e[1:])] + [None]},
    )
    return spec


# ----------------------------------------------------------------- resonances

def cmd_resonances(cfg: RunConfig, n_max: int, k: float | None = None):
    if n_max < 1:
        raise ConfigError(f"--n-max must be at least 1, got {n_max}")
    if k is not None and not 0 < k < math.inf:
        # checked here too: rows whose A0 overflows never reach cross_section
        raise ConfigError(f"--k must be finite and positive, got {k!r}")
    nu0 = cfg.nu0_value
    table = scattering.resonance_positions((1, n_max), nu0)
    rows = table.rows
    columns = {"n": [row.n for row in rows],
               "a1_n_exact": [row.a1_exact for row in rows],
               "a1_n_asymptotic": [row.a1_asymptotic for row in rows],
               "A0_midpoint": [row.A0_midpoint for row in rows]}
    if k is not None:
        sigma = []
        for row in rows:
            sigma.append(
                scattering.cross_section(k, row.A0_midpoint)
                if math.isfinite(row.A0_midpoint)
                else None
            )
            if math.isfinite(row.a1_exact):
                r1 = scattering.r1_range(row.a1_exact)
                if k * r1 >= 0.1:
                    print(
                        f"warning: k R1 = {k * r1:.3g} >= 0.1 at n = {row.n}; "
                        "the low-energy cross-section form is unreliable there",
                        file=sys.stderr,
                    )
        columns["sigma0_at_k"] = sigma
    _write_csv(
        os.path.join(cfg.output_dir, "resonances.csv"),
        _header(cfg, "resonances"),
        columns,
    )
    return table


# ----------------------------------------------------------------- wavefunction

def cmd_wavefunction(cfg: RunConfig, branch: str, sign: int, separation: float,
                     extent: float, grid_size: int):
    if grid_size < 2:
        raise ConfigError(f"--grid-size must be at least 2, got {grid_size}")
    if not 0 < extent < math.inf:
        raise ConfigError(f"--extent must be finite and positive, got {extent!r}")
    params = cfg.twobody
    if branch == "I":
        root = potentials.solve_pwave_I(separation, params, sign)
    else:
        root = potentials.solve_pwave_II(separation, params, sign)
    axis = np.linspace(-extent, extent, grid_size)
    xs, ys = np.meshgrid(axis, axis, indexing="ij")
    pts = np.column_stack([xs.ravel(), ys.ravel()])
    vals = potentials.light_wavefunction(branch, sign, root.xi, separation, pts, params)
    name = f"wavefunction_{branch}{'_plus' if sign > 0 else '_minus'}.csv"
    _write_csv(
        os.path.join(cfg.output_dir, name),
        _header(cfg, "wavefunction") + f"\n# kappa = {_fmt(root.xi)} at R = {_fmt(separation)}",
        {"x": pts[:, 0], "y": pts[:, 1], "psi": vals},
    )
    return root


# ----------------------------------------------------------------- validate

def cmd_validate(cfg: RunConfig, only: str | None = None) -> int:
    from . import validation

    results = validation.run_checks(cfg, only=only)
    if not results:
        print(f"no checks matched module filter {only!r}")
        return 2
    width = max(len(r.name) for r in results)
    failures = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  [{r.module:>12}]  {status}  {r.detail}")
        failures += 0 if r.passed else 1
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return 0 if failures == 0 else 1


# ----------------------------------------------------------------- entry point

def _parse_branches(text):
    wanted = []
    by_value = {b.value: b for b in Branch}
    for tag in text.split(","):
        tag = tag.strip()
        if tag not in by_value:
            raise ConfigError(
                f"unknown branch {tag!r}; choose from {sorted(by_value)}"
            )
        wanted.append(by_value[tag])
    return wanted


def build_parser():
    parser = argparse.ArgumentParser(
        prog="planar3b",
        description="Effective potentials and bound states of the planar "
        "heavy-heavy-light three-body problem near a p-wave resonance",
    )
    parser.add_argument("--version", action="version", version=f"planar3b {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="INI configuration file")
        p.add_argument("--output", help="output directory (default from config)")

    p = sub.add_parser("potentials", help="sweep effective-potential branches to CSV")
    common(p)
    p.add_argument("--branch", default="s+,s-,I+,I-,II+,II-",
                   help="comma list of branch tags (s+, s-, I+, I-, I0, II+, II-, II0, asym)")
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted for compatibility and ignored: the branches on "
                        "one grid are one array solve in this process")

    p = sub.add_parser("spectrum", help="quasi-Coulomb spectrum to CSV")
    common(p)
    p.add_argument("--n-max", type=int, default=30)
    p.add_argument("--mass-ratio", type=float, default=None,
                   help="light-to-heavy mass ratio m/M (overrides config masses)")

    p = sub.add_parser("resonances", help="atom-molecule resonance table to CSV")
    common(p)
    p.add_argument("--n-max", type=int, default=10)
    p.add_argument("--k", type=float, default=None,
                   help="incident momentum for a cross-section column")

    p = sub.add_parser("wavefunction", help="light-particle wavefunction on a grid")
    common(p)
    p.add_argument("--branch", choices=("I", "II"), default="I")
    p.add_argument("--sign", choices=("+", "-"), default="+")
    p.add_argument("--separation", type=float, default=10.0, help="heavy-pair distance R")
    p.add_argument("--extent", type=float, default=15.0, help="half-width of the grid")
    p.add_argument("--grid-size", type=int, default=41)

    p = sub.add_parser("validate", help="run the acceptance checks")
    common(p)
    p.add_argument("--only", default=None,
                   help="restrict to one module (specfun, potentials, wkb, "
                        "radial_oracle, scattering, cli_io)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        out = os.environ.get("PLANAR3B_OUTPUT")
        if args.output is not None:
            out = args.output
        if out is not None:
            cfg.output_dir = out
        if args.command == "potentials":
            cmd_potentials(cfg, _parse_branches(args.branch))
            return 0
        if args.command == "spectrum":
            cmd_spectrum(cfg, args.n_max, mass_ratio=args.mass_ratio)
            return 0
        if args.command == "resonances":
            cmd_resonances(cfg, args.n_max, k=args.k)
            return 0
        if args.command == "wavefunction":
            sign = +1 if args.sign == "+" else -1
            cmd_wavefunction(cfg, args.branch, sign, args.separation,
                             args.extent, args.grid_size)
            return 0
        if args.command == "validate":
            return cmd_validate(cfg, only=args.only)
    except (DomainError, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, NoRealRootError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    return 2


if __name__ == "__main__":
    sys.exit(main())
