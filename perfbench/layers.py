"""Per-layer tracing for traced benchmark runs (`--trace 1`).

Wrappers are installed from the benchmark's side on the module attributes
through which one planar3b module calls another, and on the public entry
points of potentials, wkb, radial and cli.  Because each module looks those
names up at call time, calls made inside the package pass through the
wrappers too.  Measured runs (`--trace 0`) install nothing.

* Inner boundaries (Bessel functions, scan, Brent, quadrature, Numerov
  sweep: about 10^6 calls per curves round) keep aggregated calls, function
  evaluations and seconds.
* Outer boundaries (entry points) record spans with parent ids, from which a
  layer's self time is its span minus its child spans.

A wrapped name that a later version of the program no longer has is marked
absent; every metric that needs it is then reported with value null.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

# (module, attribute) -> (counter key, what else to count):
# "evals" counts points at which the function passed as the first argument
# is evaluated (an array argument counts each of its elements),
# "steps" adds the length of the first argument (grid points of a sweep).
INNER = {
    ("potentials", "bessel_k"): ("k", None),
    ("potentials", "scan_sign_changes"): ("scan", "evals"),
    ("potentials", "brent"): ("brent_p", "evals"),
    ("potentials", "t_matrix"): ("tmat", None),
    ("wkb", "adaptive_simpson"): ("simpson", "evals"),
    ("wkb", "brent"): ("brent_w", "evals"),
    ("wkb", "wkb_phase_langer"): ("phase", None),
    ("radial", "ridders"): ("ridders", "evals"),
    ("radial", "bessel_j"): ("j", None),
    ("radial", "bessel_y"): ("y", None),
    ("radial", "_numerov_sweep"): ("numerov", "steps"),
}

OUTER = (
    ("potentials", "solve_swave"), ("potentials", "solve_pwave_I"),
    ("potentials", "solve_pwave_II"), ("potentials", "sweep_branch"),
    ("potentials", "determinant_residual"),
    ("wkb", "quantize_spectrum"),
    ("radial", "bound_states_numerov"), ("radial", "count_negative_levels"),
    ("radial", "zero_energy_exact"),
    ("cli", "main"), ("cli", "cmd_potentials"),
)

SOLVERS = ("potentials.solve_swave", "potentials.solve_pwave_I", "potentials.solve_pwave_II")


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    args: tuple
    start: float = 0.0
    end: float = 0.0
    result: object = None
    error: BaseException | None = None
    inner: dict = field(default_factory=lambda: defaultdict(int))

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Installs the wrappers on `modules` (name -> module) and collects one
    round of counts and spans at a time."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.saved = []
        self.absent = set()
        self.reset()

    def reset(self):
        self.calls = defaultdict(int)
        self.work = defaultdict(int)
        self.seconds = defaultdict(float)
        self.spans = []
        self.stack = []

    def take(self):
        """The round's (calls, work, seconds, spans); starts a new round."""
        data = (self.calls, self.work, self.seconds, self.spans)
        self.reset()
        return data

    def install(self):
        for (mod, attr), (key, extra) in INNER.items():
            self._patch(mod, attr, lambda fn, key=key, extra=extra: self._inner(key, extra, fn))
        for mod, attr in OUTER:
            self._patch(mod, attr, lambda fn, name=f"{mod}.{attr}": self._outer(name, fn))

    def uninstall(self):
        for module, attr, fn in reversed(self.saved):
            setattr(module, attr, fn)
        self.saved.clear()

    def _patch(self, mod, attr, make):
        module = self.modules[mod]
        fn = getattr(module, attr, None)
        if fn is None:
            self.absent.add(f"{mod}.{attr}")
            return
        self.saved.append((module, attr, fn))
        setattr(module, attr, make(fn))

    def _inner(self, key, extra, fn):
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if extra == "evals":
                f, box = args[0], [0]

                def counted(x):
                    box[0] += np.size(x)
                    return f(x)
                args = (counted,) + args[1:]
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds[key] += clock() - t0
                self.calls[key] += 1
                if extra == "evals":
                    self.work[key] += box[0]
                elif extra == "steps":
                    self.work[key] += len(args[0])
                if self.stack:
                    self.stack[-1].inner[key] += 1

        return wrapper

    def _outer(self, name, fn):
        def wrapper(*args, **kwargs):
            parent = self.stack[-1].id if self.stack else None
            span = Span(len(self.spans), parent, name, args)
            self.spans.append(span)
            self.stack.append(span)
            span.start = time.perf_counter()
            try:
                span.result = fn(*args, **kwargs)
                return span.result
            except Exception as exc:
                span.error = exc
                raise
            finally:
                span.end = time.perf_counter()
                self.stack.pop()

        return wrapper


# ------------------------------------------------------------ metrics

def _ratio(a, b):
    return a / b if b else 0.0


def _solver_branch(span):
    """Branch tag and R of a top-level solver span (positional arguments)."""
    if span.name == "potentials.solve_swave":
        R, sign = span.args[:2]
        return ("s+" if sign > 0 else "s-"), R, None
    R, params, sign = span.args[:3]
    family = "I" if span.name.endswith("_I") else "II"
    return family + ("+" if sign > 0 else "-"), R, params


def round_metrics(data, potentials, csv_bytes: int) -> dict:
    """Per-layer metrics of one traced round (everything but the Bessel
    micro-benchmark and the tracing overhead)."""
    calls, work, secs, spans = data
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    children = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            children[s.parent] += s.seconds

    def total(name):
        return sum(s.seconds for s in by_name[name])

    solves = [s for n in SOLVERS for s in by_name[n]]
    roots = [s for s in solves if s.error is None]
    multi = sum(1 for s in roots if s.result.n_roots > 1)
    unconverged = 0
    for s in by_name["potentials.sweep_branch"]:
        branch, params, _ = s.args[:3]
        lo, hi = potentials.branch_existence(branch, params)
        curve = s.result
        inside = (curve.R_grid >= lo) & (curve.R_grid <= hi)
        unconverged += int((inside & ~curve.converged).sum())
    for s in solves:
        if s.parent is None and (s.error is not None or not s.result.converged):
            tag, R, params = _solver_branch(s)
            branch = potentials.Branch(tag)
            lo, hi = potentials.branch_existence(branch, params)
            unconverged += lo <= R <= hi

    levels = sum(len(s.result.energies) for s in by_name["radial.bound_states_numerov"]
                 if s.error is None)
    eig_shots = sum(s.inner["numerov"] for s in by_name["radial.bound_states_numerov"])
    ze_points = sum(len(s.args[0]) for s in by_name["radial.zero_energy_exact"])
    cli_spans = by_name["cli.main"] + by_name["cli.cmd_potentials"]
    return {
        "specfun.k_calls": calls["k"],
        "specfun.k_s": secs["k"],
        "specfun.jy_calls": calls["j"] + calls["y"],
        "specfun.jy_s": secs["j"] + secs["y"],
        "numerics.scan_calls": calls["scan"],
        "numerics.scan_evals": work["scan"],
        "numerics.scan_s": secs["scan"],
        "numerics.brent_calls": calls["brent_p"] + calls["brent_w"],
        "numerics.brent_evals": work["brent_p"] + work["brent_w"],
        "twobody.t_matrix_calls": calls["tmat"],
        "potentials.roots": len(roots),
        "potentials.scan_evals_per_root": _ratio(work["scan"], len(roots)),
        "potentials.brent_evals_per_root": _ratio(work["brent_p"], len(roots)),
        "potentials.k_calls_per_root": _ratio(calls["k"], len(roots)),
        "potentials.sweep_s": total("potentials.sweep_branch"),
        "numerics.ridders_calls": calls["ridders"],
        "numerics.ridders_evals": work["ridders"],
        "radial.shots": calls["numerov"],
        "radial.shots_per_level": _ratio(eig_shots, levels),
        "radial.numerov_steps": work["numerov"],
        "radial.us_per_step": 1e6 * _ratio(secs["numerov"], work["numerov"]),
        "radial.eigensolve_s": total("radial.bound_states_numerov"),
        "numerics.simpson_calls": calls["simpson"],
        "numerics.simpson_evals": work["simpson"],
        "wkb.phase_calls": calls["phase"],
        "wkb.evals_per_phase": _ratio(work["simpson"], calls["phase"]),
        "wkb.quantize_s": total("wkb.quantize_spectrum"),
        "radial.zero_energy_s": total("radial.zero_energy_exact"),
        "radial.zero_energy_us_per_point": 1e6 * _ratio(total("radial.zero_energy_exact"),
                                                        ze_points),
        "cli.command_s": total("cli.main"),
        "cli.overhead_s": sum(s.seconds - children[s.id] for s in cli_spans),
        "cli.csv_bytes": csv_bytes,
        "potentials.multi_root_points": multi,
        "potentials.unconverged_in_window": unconverged,
    }


K = ("potentials.bessel_k",)
JY = ("radial.bessel_j", "radial.bessel_y")
SCAN = ("potentials.scan_sign_changes",)
BRENT = ("potentials.brent",)
SWEEP = ("potentials.sweep_branch",)
NUMEROV = ("radial._numerov_sweep",)
EIG = ("radial.bound_states_numerov",)
SIMPSON = ("wkb.adaptive_simpson",)
PHASE = ("wkb.wkb_phase_langer",)
ZERO = ("radial.zero_energy_exact",)
CLI = ("cli.main", "cli.cmd_potentials")

#: (name, unit, better, wrapped names it needs); a metric is reported as
#: null when one of the names it needs is absent
PER_LAYER = (
    ("specfun.k_calls", "count", "lower", K),
    ("specfun.k_s", "s", "lower", K),
    ("specfun.k_us.small", "us", "lower", ()),
    ("specfun.k_us.mid", "us", "lower", ()),
    ("specfun.k_us.large", "us", "lower", ()),
    ("specfun.jy_calls", "count", "lower", JY),
    ("specfun.jy_s", "s", "lower", JY),
    ("specfun.j_us.small", "us", "lower", ()),
    ("specfun.j_us.mid", "us", "lower", ()),
    ("specfun.j_us.large", "us", "lower", ()),
    ("specfun.y_us.small", "us", "lower", ()),
    ("specfun.y_us.mid", "us", "lower", ()),
    ("specfun.y_us.large", "us", "lower", ()),
    ("numerics.scan_calls", "count", "lower", SCAN),
    ("numerics.scan_evals", "count", "lower", SCAN),
    ("numerics.scan_s", "s", "lower", SCAN),
    ("numerics.brent_calls", "count", "lower", BRENT + ("wkb.brent",)),
    ("numerics.brent_evals", "count", "lower", BRENT + ("wkb.brent",)),
    ("twobody.t_matrix_calls", "count", "lower", ("potentials.t_matrix",)),
    ("potentials.roots", "count", "higher", SOLVERS),
    ("potentials.scan_evals_per_root", "evals/root", "lower", SOLVERS + SCAN),
    ("potentials.brent_evals_per_root", "evals/root", "lower", SOLVERS + BRENT),
    ("potentials.k_calls_per_root", "calls/root", "lower", SOLVERS + K),
    ("potentials.sweep_s", "s", "lower", SWEEP),
    ("numerics.ridders_calls", "count", "lower", ("radial.ridders",)),
    ("numerics.ridders_evals", "count", "lower", ("radial.ridders",)),
    ("radial.shots", "count", "lower", NUMEROV),
    ("radial.shots_per_level", "shots/level", "lower", NUMEROV + EIG),
    ("radial.numerov_steps", "count", "lower", NUMEROV),
    ("radial.us_per_step", "us", "lower", NUMEROV),
    ("radial.eigensolve_s", "s", "lower", EIG),
    ("numerics.simpson_calls", "count", "lower", SIMPSON),
    ("numerics.simpson_evals", "count", "lower", SIMPSON),
    ("wkb.phase_calls", "count", "lower", PHASE),
    ("wkb.evals_per_phase", "evals/phase", "lower", PHASE + SIMPSON),
    ("wkb.quantize_s", "s", "lower", ("wkb.quantize_spectrum",)),
    ("radial.zero_energy_s", "s", "lower", ZERO),
    ("radial.zero_energy_us_per_point", "us", "lower", ZERO),
    ("cli.command_s", "s", "lower", CLI),
    ("cli.overhead_s", "s", "lower", CLI + SWEEP),
    ("cli.csv_bytes", "B", "lower", ()),
    ("potentials.multi_root_points", "count", "lower", SOLVERS),
    ("potentials.unconverged_in_window", "count", "lower", SOLVERS + SWEEP),
    ("trace.overhead_ratio", "ratio", "lower", ()),
)


def median_metrics(rounds: list, absent: set) -> dict:
    """Median over rounds of each round metric (counts repeat exactly);
    null for a metric whose wrapped names are absent."""
    needs = {name: set(n) for name, _, _, n in PER_LAYER}
    return {name: None if needs[name] & absent else statistics.median(r[name] for r in rounds)
            for name in rounds[0]}


# ------------------------------------------------------------ Bessel ranges

#: fixed arguments per range: K splits at 2 and 16, J and Y at 6 and 16
K_RANGES = {"small": (0.05, 2.0), "mid": (2.2, 15.8), "large": (16.0, 60.0)}
JY_RANGES = {"small": (0.2, 6.0), "mid": (6.2, 15.8), "large": (16.0, 60.0)}


def bessel_us(specfun, passes: int = 7, n: int = 64) -> dict:
    """Microseconds per call of orders 0 and 1 of K, J and Y on each range,
    median of `passes` timed passes over the same n arguments."""
    out = {}
    for fname, key, ranges in (("bessel_k", "k", K_RANGES), ("bessel_j", "j", JY_RANGES),
                               ("bessel_y", "y", JY_RANGES)):
        fn = getattr(specfun, fname, None)
        for label, (lo, hi) in ranges.items():
            metric = f"specfun.{key}_us.{label}"
            if fn is None:
                out[metric] = None
                continue
            xs = [lo + (hi - lo) * i / (n - 1) for i in range(n)]
            times = []
            for _ in range(passes):
                t0 = time.perf_counter()
                for x in xs:
                    fn(0, x)
                    fn(1, x)
                times.append(time.perf_counter() - t0)
            out[metric] = 1e6 * statistics.median(times) / (2 * n)
    return out
