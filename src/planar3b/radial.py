"""Numerov integration of the heavy-pair radial problem: the independent
check on the WKB spectrum.

Everything is integrated in the logarithmic coordinate x = ln(R/r1), where
the radial equation takes the form chi'' + Q(x) chi = 0 with

    Q(x) = eps e^{2x} + nu0 W(x),      eps = nu0 * E,

W(x) = -e^{2x} V(e^x) (equal to 1/x for the shared asymptotic potential) and
no first-derivative term, so the fourth-order Numerov recurrence applies
directly.  Eigenvalues come from hard-wall shooting.  The outward
integration is truncated once the solution has grown by e^35 inside the
classically forbidden region, which shifts eigenvalues by ~e^-70 and keeps
the recurrence inside double range (this also makes the levels independent
of the outer wall position once the wall clears the turning point).  Every
shot runs to its own truncation point, and its node count includes the
cell there, so the count steps from k to k + 1 where the last value
changes sign (node counting as in Johnson, J. Chem. Phys. 67 (1977) 4086).

Each level is found by Cooley's energy correction (Math. Comp. 15 (1961)
363).  A correction shot sweeps outward from the wall to the outer turning
point m and inward from the truncation point (where chi = 0) back to m,
scales the inward part to meet the outward one, and turns the Numerov
residual of the matched function at m into a first-order energy step.  The
steps converge quadratically, and the level is eps plus the first step of
at most 1e-10 |eps|.  The matched function's node count labels every step:
it must read k for level k.  The corrections start at the level's
full-phase WKB energy, level n = k + 1 of ``quantize_spectrum`` with the
inner wall at the window's start, which on a window from r1 lies within
1e-5 to 1e-3 of the level; a level then takes about 3 correction shots,
and a 2-level solve at the benchmark's (nu0, a1) 6 of them.  A level
without a usable seed (WKB fails or drops the level, and always in
``bound_states_1d``), or whose steps read another count or leave the
energy range, falls back to a node-count bracket: shots step toward level
k from the seed (1e-3 of it first, 1 from the top of the range) and
doubling, until the count changes side of k.  The corrections then restart
from the bracket's midpoint and stay inside it; a step that would leave
it, or reads another count, narrows it by Johnson's count (the matched
node count, plus one where the correction is negative, is the number of
levels below eps) and the next shot is its midpoint, so the bracket needs
no bisection on plain-shot counts of its own.  The zero-energy shot that
counts the levels of the window runs over the whole grid; it is taken only
for such a fallback, since levels 0..k-1 found with their own counts below
the top are all there by Sturm's theorem.  From R = e the seeds are
15-320% off, and levels there go through the bracket: on 120 random
windows from R = e a level takes about 10 plain shots and 6 corrections.

A window that starts at R = r1 puts the hard wall on the 1/x singularity of
Q at x = 0.  There the shot starts from the regular series
chi = x - (g/2) x^2 + (g^2/12 - eps/6) x^3 + ... (g = nu0 times the 1/x
residue of W), and the first Numerov step takes the limit
(h^2/12)(Q chi)(0) = (h^2/12) g chi'(0) in place of chi0 (1 + h^2 Q0/12)
(Blatt, J. Comput. Phys. 1 (1967) 382).  Without that term the levels
converge only as O(h^2); with it the scheme is fourth order again, and at
nu0 = 200 the default step h = 8e-4 puts the deepest level within 5e-7
relative of its h -> 0 limit.  Above nu0 = 250 the default step is 0.2/nu0,
which keeps h^2 Q ~ nu0 h at the first grid point below the Numerov
criterion 0.25.  A start at a regular point (an inner wall
above r1, `numerov_integrate`, `bound_states_1d`) keeps the plain
recurrence.

The recurrence runs over plain Python float lists: ``_numerov_sweep``
converts h and its start values (y0, y1 and the first step's qy0) with
float() before the loop, since a numpy scalar there (a grid step, a wall
strength or a WKB-seeded energy) would carry numpy scalar arithmetic into
every step.  On the benchmark's spectra shots that took a step from
0.5-0.8 us to 0.25-0.3 us (2-CPU VM, Python 3.11, numpy 2.4).  The rare
renormalisations against overflow are replayed on the array afterwards and
nodes are counted with numpy, so the values are bit for bit those of a
step-by-step array loop.  The truncation point is found by summing the
forbidden action only as far as the cap, and the matching point is where
that forbidden run begins (``_ShootingProblem._cap_index``).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, StepSizeError
# perfbench/layers.py traces radial.ridders (numerics.ridders_* metrics);
# the name stays bound until the counters module of ROADMAP item 2 lands
from .numerics import ridders  # noqa: F401
from .specfun import bessel_j, bessel_y
from .wkb import WkbConfig, langer_w, quantize_spectrum

_FORBIDDEN_ACTION_CAP = 35.0
_CAP_PIECE = 1024
_RENORM_LIMIT = 1e250
_STEP_LIMIT = 60
_CORRECTION_LIMIT = 60


@dataclass
class WavefunctionSample:
    grid: np.ndarray
    values: np.ndarray
    node_count: int
    norm_const: float


@dataclass
class BoundStates:
    """Eigenvalues (ascending, natural units), their node counts, and whether
    all requested levels were found."""

    energies: list
    nodes: list
    complete: bool


def _check_finite(name, value, *, positive=False):
    if not math.isfinite(value) or (positive and value <= 0.0):
        kind = "finite and positive" if positive else "finite"
        raise DomainError(f"{name} must be {kind}, got {value!r}")


def _numerov_sweep(q, h, y0, y1, *, qy0=None):
    """Numerov recurrence for chi'' + q chi = 0 on a uniform grid.

    qy0 is the limit of q chi at the first point for a start on a 1/x
    singularity, where q[0] is not finite; it replaces y0 (1 + h^2 q[0]/12)
    in the first step.  Returns (values, node_count, scale_log) where values
    may have been rescaled by exp(-scale_log) along the way to avoid
    overflow (sign structure, and therefore nodes, are unaffected).

    h, y0, y1 and qy0 go through float() here, whatever the caller passes,
    so every step is Python float arithmetic.  The shrink factors
    are stored doubled, 2 (1 - 5t): doubling is exact, so ya * (2 s) rounds
    the same real number as (2 ya) * s and the step needs one multiply less.
    """
    h, y0, y1 = float(h), float(y0), float(y1)
    t = (h * h / 12.0) * np.asarray(q, dtype=float)
    shrink2 = (2.0 * (1.0 - 5.0 * t)).tolist()
    grow = (1.0 + t).tolist()
    yb = y0
    if qy0 is not None:  # the first step's yb * grow[0] is then (h^2/12) qy0
        yb, grow[0] = 1.0, (h * h / 12.0) * float(qy0)
    ys = [y0, y1]
    append = ys.append
    renorms = []
    ya = y1
    for s2, gb, gc in zip(shrink2[1:-1], grow[:-2], grow[2:]):
        yc = (ya * s2 - yb * gb) / gc
        yb, ya = ya, yc
        if yc > _RENORM_LIMIT or yc < -_RENORM_LIMIT:
            f = abs(yc)
            yb /= f
            ya /= f
            renorms.append((len(ys), f))
        append(ya)
    y = np.array(ys, dtype=float)
    # a pair counts as the recurrence saw it: before later renormalisations,
    # but after the one made at its own second point
    with np.errstate(over="ignore"):
        cross = y[1:-1] * y[2:] < 0.0
    for i, f in renorms:
        cross[i - 2] = (y[i - 1] / f) * y[i] < 0.0
    for i, f in renorms:
        y[:i] /= f
    nodes = int(np.count_nonzero(cross)) + int(y[0] * y[1] < 0.0)
    return y, nodes, sum((math.log(f) for _, f in renorms), 0.0)


def numerov_integrate(potential, E: float, grid, bc, *, nu0: float) -> WavefunctionSample:
    """Fourth-order Numerov solution of the log-coordinate radial equation.

    grid must be uniform in x = ln R; bc supplies the first two values.  The
    local step criterion h^2 |Q| < 0.25 is enforced (StepSizeError).
    """
    _check_finite("E", E)
    _check_finite("nu0", nu0, positive=True)
    _check_finite("bc[0]", bc[0])
    _check_finite("bc[1]", bc[1])
    x = np.asarray(grid, dtype=float)
    if len(x) < 3:
        raise DomainError("grid must have at least 3 points")
    h = x[1] - x[0]
    if not np.allclose(np.diff(x), h, rtol=1e-9, atol=0.0):
        raise DomainError("grid must be uniform in x")
    w = langer_w(potential)
    eps = nu0 * E
    q = np.array([eps * math.exp(2.0 * xi) for xi in x.tolist()]) + nu0 * w(x)
    if np.max(h * h * np.abs(q)) > 0.25:
        raise StepSizeError(
            f"step h = {h:g} too coarse: max h^2|Q| = {np.max(h*h*np.abs(q)):.3g}"
        )
    y, nodes, _ = _numerov_sweep(q, h, bc[0], bc[1])
    norm = math.sqrt(np.trapezoid(y * y * np.exp(2.0 * x), x))
    return WavefunctionSample(grid=x, values=y, node_count=nodes, norm_const=norm)


def zero_energy_exact(x_grid, nu0: float, A: float, B: float) -> WavefunctionSample:
    """Exact zero-energy solution of chi'' + (nu0/x) chi = 0:

    chi0(x) = sqrt(x) [A J1(2 sqrt(nu0 x)) + B Y1(2 sqrt(nu0 x))],

    with J1 and Y1 each taken in one array call over the whole grid.  This is
    the only many-point use of J/Y, which is why ``specfun`` gives them one
    array loop (on K's tables: power series for z <= 4, Gauss-Legendre
    quadrature below z = 16, Hankel expansion above) and no scalar one.
    """
    _check_finite("nu0", nu0, positive=True)
    _check_finite("A", A)
    _check_finite("B", B)
    x = np.asarray(x_grid, dtype=float)
    if not np.all(np.isfinite(x) & (x > 0)):
        raise DomainError("zero_energy_exact needs finite x > 0")
    z = 2.0 * np.sqrt(nu0 * x)
    vals = np.sqrt(x) * (A * bessel_j(1, z) + B * bessel_y(1, z))
    nodes = int(np.sum(vals[:-1] * vals[1:] < 0.0))
    norm = math.sqrt(np.trapezoid(vals * vals * np.exp(2.0 * x), x))
    return WavefunctionSample(grid=x, values=vals, node_count=nodes, norm_const=norm)


def _start(wall, eps, h):
    """y1 and the first step's qy0 (see _numerov_sweep) of a shot from y0 = 0.

    A regular start takes y1 = h.  On a g/x wall (wall = g) the shot follows
    the regular solution y = x - (g/2) x^2 + (g^2/12 - eps/6) x^3 + ... of
    y'' + (eps + g/x) y = 0, for which (q y)(0) = g.
    """
    if wall is None:
        return h, None
    return h * (1.0 - 0.5 * wall * h + (wall * wall / 12.0 - eps / 6.0) * h * h), wall


class _ShootingProblem:
    """Hard-wall shooting on a fixed x grid for Q(x; eps) = eps w(x) + v(x).

    w = dQ/deps is e^{2x} for the Langer problem and 1 for
    ``bound_states_1d``.  wall is the strength g of a g/x singularity of Q
    at x[0], or None for a regular start.  Every plain shot (``shoot``)
    runs to the cap index of its own forbidden action and is memoized by
    eps; correction shots (``correct``) are not memoized.
    """

    def __init__(self, x, w, v, wall=None):
        self.x = x
        self.h = float(x[1] - x[0])
        self.w = w
        self.v = v
        self.wall = wall
        self.shots = {}

    def _cap_index(self, q):
        """(m, cap): the outer turning point m and the first index past which
        the forbidden-region action exceeds the cap.

        The action sums sqrt(-q) h over a run of negative q and starts again
        from zero on the next run.  A run is summed in pieces of _CAP_PIECE
        points, each starting from the running total carried into its first
        element, and the sum stops at the piece that crosses the cap.
        np.cumsum adds in order, so the sums and the index are bit for bit
        those of one cumsum over the whole run, which is often several times
        longer than the stretch before the cap.  m is the first index of
        the run that holds the cap (the last index of the grid when no run
        reaches it), or cap - 1 when q is not negative there.
        """
        neg = q < 0.0
        bounds = [0, *(np.flatnonzero(neg[1:] != neg[:-1]) + 1).tolist(), len(q)]
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            if not neg[lo]:
                continue
            total = 0.0
            for a in range(lo, hi, _CAP_PIECE):
                action = np.sqrt(-q[a:min(a + _CAP_PIECE, hi)]) * self.h
                action[0] += total
                np.cumsum(action, out=action)
                total = float(action[-1])
                if total > _FORBIDDEN_ACTION_CAP:
                    cap = a + int(np.searchsorted(action, _FORBIDDEN_ACTION_CAP, side="right"))
                    return lo, cap
        cap = len(q) - 1
        return (bounds[-2] if neg[cap] else cap - 1), cap

    def shoot(self, eps):
        """(nodes, values) of the shot at eps up to its cap index.

        The node count is ``_numerov_sweep``'s, the cell at the cap
        included.  Q rises with eps, so the cap index does too: a shot's
        values reach the cap index of every lower energy.
        """
        shot = self.shots.get(eps)
        if shot is None:
            q = eps * self.w + self.v
            end = max(self._cap_index(q)[1], 3)
            y1, qy0 = _start(self.wall, eps, self.h)
            y, nodes, _ = _numerov_sweep(q[: end + 1], self.h, 0.0, y1, qy0=qy0)
            shot = self.shots[eps] = nodes, y
        return shot

    def correct(self, eps):
        """(nodes, delta) of Cooley's matched shot at eps.

        An outward sweep from the wall to the turning point m and an inward
        one from the cap index (y = 0 there) back to m, scaled to meet at m,
        give the matched function y and its node count.  With
        Y = (1 + h^2 Q/12) y, the Numerov residual at m,
        R_m = Y_{m+1} - 2 Y_m + Y_{m-1} + h^2 Q_m y_m, vanishes at a level,
        and delta = -y_m R_m / (h^2 sum w y^2) is the first-order energy
        correction (Cooley, Math. Comp. 15 (1961) 363).
        """
        q = eps * self.w + self.v
        m, end = self._cap_index(q)
        end = max(end, 3)
        m = min(max(m, 2), end - 1)
        y1, qy0 = _start(self.wall, eps, self.h)
        out, n_out, _ = _numerov_sweep(q[: m + 1], self.h, 0.0, y1, qy0=qy0)
        inw, n_in, _ = _numerov_sweep(q[end:m - 1:-1], self.h, 0.0, self.h)
        y = np.concatenate((out, (out[-1] / inw[-1]) * inw[-2::-1]))
        t = (self.h * self.h / 12.0) * q[m - 1:m + 2]
        ym = y[m]
        r = (1.0 + t[2]) * y[m + 1] + (1.0 + t[0]) * y[m - 1] - (2.0 - 10.0 * t[1]) * ym
        norm = float(np.dot(self.w[: end + 1], y * y))
        return n_out + n_in, -float(ym * r) / (self.h * self.h * norm)


def _bracket(shoot, k, start, step, eps_hi):
    """Bracket (lo, hi) of level k: the count reads at most k at lo and
    more than k at hi.

    Steps from start toward level k, by step first and each next step twice
    the last, until the count changes side of k (a step up stops at eps_hi,
    above level k).  The bracket may hold other levels too; ``_settle``
    narrows it by Johnson's count.
    """
    up = shoot(start)[0] <= k
    near = start
    for _ in range(_STEP_LIMIT):
        far = min(near + step, eps_hi) if up else near - step
        if (shoot(far)[0] <= k) != up:
            return (near, far) if up else (far, near)
        near, step = far, 2.0 * step
    raise ConvergenceError(f"level {k} not bracketed in {_STEP_LIMIT} steps from {start:g}")


def _settle(correct, k, eps, rtol, lo, hi, bracketed):
    """Level k by Cooley corrections from eps, stopping once a correction
    is at most rtol |eps| and returning eps plus that correction.

    Every step must read k nodes and stay inside (lo, hi).  From a seed
    (bracketed False, hi = eps_hi) a step that does not returns None, and
    so does the iteration cap.  Inside a count bracket such a step narrows
    the bracket by Johnson's count (nodes, plus one where the correction is
    negative, is the number of levels below eps) and the next shot is its
    midpoint; a settled step with another count breaks the node theorem.
    """
    for _ in range(_CORRECTION_LIMIT):
        nodes, delta = correct(eps)
        settled = abs(delta) <= rtol * abs(eps)  # NaN is not
        if nodes == k and settled:
            return eps + delta
        if nodes == k and lo < eps + delta < hi:
            eps += delta
        elif not bracketed:
            return None
        elif settled:
            raise ConvergenceError(f"node theorem violated: level {k} converged with {nodes} nodes")
        else:
            if nodes + (delta < 0.0) <= k:
                lo = eps
            else:
                hi = eps
            eps = 0.5 * (lo + hi)
    if bracketed:
        raise ConvergenceError(f"level {k} not settled in {_CORRECTION_LIMIT} corrections")
    return None


def _eigensolve(problem: _ShootingProblem, k_levels: int, *, eps_hi=0.0, rtol=1e-10,
                seeds=()):
    """Hard-wall levels below eps_hi by Cooley's matched-shot correction
    (``_ShootingProblem.correct``), with the node-count bracket as its
    safeguard.

    Only eigenvalues below eps_hi are reported (eps_hi = 0 restricts to
    bound states of the radial problem).  Level k (k nodes) is corrected
    from seeds[k] until a correction is at most rtol |eps| (``_settle``);
    on a window from r1 full-phase WKB seeds take about 3 correction shots
    per level.  A level with no usable seed (none, NaN, or not below
    eps_hi), or whose corrections read a count other than k, leave eps_hi
    or settle at or above it, is bracketed by ``_bracket`` from its seed,
    first step 1e-3 |seed|, or from eps_hi, first step 1, and corrected
    again from the bracket's midpoint inside it, where ``_settle`` narrows
    the bracket by Johnson's count until a correction stays in it.  The
    shot at eps_hi, which counts the levels below it, is taken only then;
    when every requested level settles below eps_hi with its own count,
    Sturm's theorem already says they are all there.

    Raises ConvergenceError when a level is not bracketed, does not settle
    or breaks the node theorem.
    """
    total = None
    energies = []
    for k in range(k_levels):
        start = seeds[k] if k < len(seeds) else math.nan
        step = 1e-3 * abs(start)
        eps_k = None
        if start < eps_hi:  # NaN fails
            eps_k = _settle(problem.correct, k, start, rtol, -math.inf, eps_hi, False)
            if eps_k is not None and not eps_k < eps_hi:
                eps_k = None
        else:
            start, step = eps_hi, 1.0
        if eps_k is None:
            if total is None:
                total = problem.shoot(eps_hi)[0]
            if k >= total:
                break
            lo, hi = _bracket(problem.shoot, k, start, step, eps_hi)
            eps_k = _settle(problem.correct, k, 0.5 * (lo + hi), rtol, lo, hi, True)
        energies.append(eps_k)
    return BoundStates(energies=energies, nodes=list(range(len(energies))),
                       complete=len(energies) == k_levels)


def _uniform_grid(x_lo, x_hi, h):
    _check_finite("h", h, positive=True)
    if x_hi <= x_lo:
        raise DomainError("empty radial window")
    n = max(int(math.ceil((x_hi - x_lo) / h)) + 1, 8)
    return np.linspace(x_lo, x_hi, n)


def _langer_setup(potential, nu0, window, h):
    """Grid in x = ln R, nu0 W(x) on it, and the strength g of the g/x
    singularity of Q at the first point (None unless the window starts at
    R = r1).

    The default step (h = None) is min(8e-4, 0.2/nu0): near the wall
    h^2 Q ~ nu0 h, which then stays below the Numerov criterion 0.25.
    """
    _check_finite("nu0", nu0, positive=True)
    if h is None:
        h = min(8e-4, 0.2 / nu0)
    _check_finite("window[0]", window[0])
    _check_finite("window[1]", window[1])
    if window[0] < 1.0:
        raise DomainError("radial window must start at R >= r1 = 1")
    if window[1] <= window[0]:
        raise DomainError("empty radial window")
    x = _uniform_grid(math.log(window[0]), math.log(window[1]), h)
    w = langer_w(potential)
    wx = np.zeros_like(x)
    inside = x > 0.0
    wx[inside] = w(x[inside])
    wall = float(nu0 * x[1] * wx[1]) if x[0] == 0.0 else None  # x W(x) -> residue
    return x, nu0 * wx, wall


def _numerov_problem(potential, nu0, window, h):
    """The shooting problem of ``bound_states_numerov`` in eps = nu0 E."""
    x, vx, wall = _langer_setup(potential, nu0, window, h)
    return _ShootingProblem(x, np.exp(2.0 * x), vx, wall)


def _check_levels(k_levels):
    if isinstance(k_levels, bool) or not isinstance(k_levels, numbers.Integral) or k_levels < 1:
        raise DomainError(f"k_levels must be an integer >= 1, got {k_levels!r}")


def _wkb_seeds(potential, nu0, window, k_levels):
    """eps = nu0 E of the full-phase WKB levels n = 1..k_levels with the
    inner wall at window[0] (level n seeds node count n - 1); the levels WKB
    drops are missing, and none are given when it fails."""
    cfg = WkbConfig(phase_mode="full", R_inner=window[0])
    try:
        spec = quantize_spectrum((1, k_levels), nu0, cfg, potential)
    except (DomainError, ConvergenceError):
        return []
    return [nu0 * e for _, _, e in spec.levels]


def bound_states_numerov(potential, nu0: float, window, k_levels: int,
                         *, h: float | None = None) -> BoundStates:
    """Hard-wall eigenvalues of the heavy-pair problem on an R window.

    Returns up to k_levels energies in units hbar^2/(mu r1^2), ascending.
    If the window supports fewer negative-energy levels the result carries
    complete=False.  Each level is bracketed from its full-phase WKB energy
    (``_wkb_seeds``) by ``_eigensolve``.
    Raises DomainError unless k_levels is an integer >= 1.
    """
    _check_levels(k_levels)
    problem = _numerov_problem(potential, nu0, window, h)
    res = _eigensolve(problem, k_levels, seeds=_wkb_seeds(potential, nu0, window, k_levels))
    return BoundStates(
        energies=[e / nu0 for e in res.energies], nodes=res.nodes, complete=res.complete
    )


def count_negative_levels(potential, nu0: float, window, *, h: float | None = None) -> int:
    """Number of E < 0 hard-wall levels: node count of the zero-energy shot."""
    return _numerov_problem(potential, nu0, window, h).shoot(0.0)[0]


def bound_states_1d(u_of_x, window, k_levels: int, *, h: float = 1e-3) -> BoundStates:
    """Plain 1D hard-wall problem chi'' + (E - U(x)) chi = 0 (solver self-test),
    solved by ``_eigensolve`` without seeds."""
    _check_levels(k_levels)
    _check_finite("window[0]", window[0])
    _check_finite("window[1]", window[1])
    x = _uniform_grid(window[0], window[1], h)
    u = np.array([u_of_x(xi) for xi in x])
    problem = _ShootingProblem(x, np.ones_like(x), -u)
    eps_hi = 1.0
    for _ in range(200):
        if problem.shoot(eps_hi)[0] >= k_levels:
            break
        eps_hi *= 2.0
    return _eigensolve(problem, k_levels, eps_hi=eps_hi)
