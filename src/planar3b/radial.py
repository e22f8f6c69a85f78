"""Numerov integration of the heavy-pair radial problem: the independent
check on the WKB spectrum.

Everything is integrated in the logarithmic coordinate x = ln(R/r1), where
the radial equation takes the form chi'' + Q(x) chi = 0 with

    Q(x) = eps e^{2x} + nu0 W(x),      eps = nu0 * E,

W(x) = -e^{2x} V(e^x) (equal to 1/x for the shared asymptotic potential) and
no first-derivative term, so the fourth-order Numerov recurrence applies
directly.  Eigenvalues come from hard-wall shooting.  A shot is truncated
once the solution has grown by e^35 inside the classically forbidden
region, which shifts eigenvalues by ~e^-70 and keeps the recurrence inside
double range (this also makes the levels independent of the outer wall
position once the wall clears the turning point).

Every shot is Cooley's matched shot (Math. Comp. 15 (1961) 363): it sweeps
outward from the wall to the outer turning point m and inward from the
truncation point (where chi = 0) back to m, scales the inward part to meet
the outward one, and turns the Numerov residual of the matched function at
m into a first-order energy step delta.  Its count, the matched function's
nodes plus one where delta < 0, is the number of levels below the shot's
energy (Johnson, J. Chem. Phys. 67 (1977) 4086).  Level k is one search
inside a bracket from level k - 1 (level 0: the floor -max(v/w), below
which Q <= 0 everywhere) to the top of the range.  Each shot narrows the
bracket by its count; a step that reads k nodes and lands inside it is
taken, otherwise the next shot is the bracket's midpoint, or the top while
no shot has tested it.  The level is eps plus the first k-node step of at
most 1e-10 |eps|.  The search starts at the level's full-phase WKB energy,
level n = k + 1 of ``quantize_spectrum`` with the inner wall at the
window's start.  On 120 random windows from r1 (nu0 5-300, a1 30-3000) the
seeds lie within 1e-5 to 1e-3 of the levels and a level takes 3.2 shots;
from R = e they are 15-320% off and a level takes 10.0.  The level count
of a window is the count of one shot at eps = 0.

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

The recurrence runs in Henrici's summed form (*Discrete Variable Methods
in Ordinary Differential Equations*, 1962, 6.4).  With t = h^2 Q/12,
Y = (1 + t) chi and d = 12 t/(1 + t), Numerov's recurrence reads
Y[n+1] - 2 Y[n] + Y[n-1] = -d[n] Y[n], and ``_numerov_sweep`` carries the
first difference D = Y[n+1] - Y[n] from step to step (D -= d[n] Y[n];
Y += D), taking chi = Y/(1 + t) once, as one array expression.  The direct
form 2 (1 - 5t) chi[n] - (1 + t) chi[n-1] rounds two terms of the size of
chi whose difference is the step's small change; the summed form keeps
that change in D and rounds only the small terms added to D and Y.  So it
keeps digits at fine steps: the shallow level 1 at (nu0, a1) =
(6.71, 29.56) stays within 1.4e-12 from h = 8e-4 to 2.5e-5, where the
direct form drifted by 8e-10 and at h = 2.5e-5 broke the node theorem.
The steps are Python float arithmetic on lists: h and the start values
(y0, y1 and the first step's qy0) go through float() first, since a numpy
scalar there (a grid step, a wall strength or a WKB-seeded energy) would
carry numpy scalar arithmetic into every step.  The loop makes no overflow
test.  A sweep whose |Y| passes 1e250 anywhere (or is not finite) is run
again with a renormalisation at each such step; those are replayed on the
array afterwards and nodes are counted with numpy, so the values are bit
for bit those of a step-by-step renormalising loop.  On the traced
benchmark's spectra shots (seed 3) a step takes 0.13-0.17 us, against
0.21-0.25 us for the direct form (2-CPU VM, Python 3.11, numpy 2.4).

The truncation point is found by summing the forbidden action only as far
as the cap, and the matching point is where that forbidden run begins
(``_ShootingProblem._cap_index``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, StepSizeError
# perfbench/layers.py traces radial.ridders (numerics.ridders_* metrics),
# which nothing here calls; the name stays bound until the harness change
# of ROADMAP item 1 removes it
from .numerics import ridders  # noqa: F401
from .specfun import bessel_j, bessel_y
from .wkb import _X_MAX, WkbConfig, _check_index, langer_w, quantize_spectrum

_FORBIDDEN_ACTION_CAP = 35.0
_CAP_PIECE = 1024
_RENORM_LIMIT = 1e250
_CORRECTION_LIMIT = 60
#: a level settles once a Cooley correction is at most this times |eps|
_SETTLE_RTOL = 1e-10


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


def _check_x_range(x_hi):
    if x_hi > _X_MAX:
        raise DomainError(f"x = ln R = {x_hi:g} is past {_X_MAX:.6g}, where e^(2x) overflows")


def _check_finite(name, value, *, positive=False):
    if not math.isfinite(value) or (positive and value <= 0.0):
        kind = "finite and positive" if positive else "finite"
        raise DomainError(f"{name} must be {kind}, got {value!r}")


def _guarded_sweep(d, big0, big1):
    """The summed steps of ``_numerov_sweep`` with a renormalisation wherever
    |Y| passes _RENORM_LIMIT: Y and D are divided by f = |Y|, and (index, f)
    is recorded.  Returns (Y list, renormalisations)."""
    big, diff = big1, big1 - big0
    bigs, renorms = [big0, big1], []
    for dn in d:
        diff -= dn * big
        big += diff
        if big > _RENORM_LIMIT or big < -_RENORM_LIMIT:
            f = abs(big)
            big /= f
            diff /= f
            renorms.append((len(bigs), f))
        bigs.append(big)
    return bigs, renorms


def _numerov_sweep(q, h, y0, y1, *, qy0=None):
    """Numerov recurrence for chi'' + q chi = 0 on a uniform grid, in
    Henrici's summed form.

    With t = h^2 q/12, Y = (1 + t) y and d = 12 t/(1 + t), the recurrence
    Y[n+1] - 2 Y[n] + Y[n-1] = -d[n] Y[n] is run on the first difference
    D = Y[n+1] - Y[n]: each step is D -= d[n] Y[n]; Y[n+1] = Y[n] + D.
    The values are y = Y/(1 + t), except y[0] = y0 and y[1] = y1.

    qy0 is the limit of q chi at the first point for a start on a 1/x
    singularity; it replaces y0 (1 + h^2 q[0]/12), so Y[0] = (h^2/12) qy0.
    Returns (values, node_count) where values may have been rescaled along
    the way to avoid overflow (sign structure, and therefore nodes, are
    unaffected).  h, y0, y1 and qy0 go through float() here, whatever the
    caller passes, so every step is Python float arithmetic.

    The steps run without an overflow test; a sweep whose |Y| passes
    _RENORM_LIMIT (or is not finite) is run again by ``_guarded_sweep``, so
    the result is that of a step-by-step renormalised loop.
    """
    h, y0, y1 = float(h), float(y0), float(y1)
    t = (h * h / 12.0) * np.asarray(q, dtype=float)
    grow = 1.0 + t
    d = (12.0 * t[1:-1] / grow[1:-1]).tolist()
    big0 = (h * h / 12.0) * float(qy0) if qy0 is not None else y0 * float(grow[0])
    big1 = y1 * float(grow[1])
    big, diff = big1, big1 - big0
    bigs = [big0, big1]
    append = bigs.append
    for dn in d:
        diff -= dn * big
        big += diff
        append(big)
    y = np.array(bigs, dtype=float)
    renorms = []
    if not np.max(np.abs(y)) <= _RENORM_LIMIT:  # NaN fails too
        bigs, renorms = _guarded_sweep(d, big0, big1)
        y = np.array(bigs, dtype=float)
    y /= grow
    y[:2] = y0, y1
    # a pair counts as the recurrence saw it: before later renormalisations,
    # but after the one made at its own second point
    with np.errstate(over="ignore"):
        cross = y[1:-1] * y[2:] < 0.0
    for i, f in renorms:
        cross[i - 2] = (y[i - 1] / f) * y[i] < 0.0
    for i, f in renorms:
        y[:i] /= f
    nodes = int(np.count_nonzero(cross)) + int(y[0] * y[1] < 0.0)
    return y, nodes


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
    _check_x_range(x.max())
    w = langer_w(potential)
    eps = nu0 * E
    q = np.array([eps * math.exp(2.0 * xi) for xi in x.tolist()]) + nu0 * w(x)
    if np.max(h * h * np.abs(q)) > 0.25:
        raise StepSizeError(
            f"step h = {h:g} too coarse: max h^2|Q| = {np.max(h*h*np.abs(q)):.3g}"
        )
    y, nodes = _numerov_sweep(q, h, bc[0], bc[1])
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
    at x[0], or None for a regular start.  Every shot is Cooley's matched
    shot (``correct``).
    """

    def __init__(self, x, w, v, wall=None):
        self.x = x
        self.h = float(x[1] - x[0])
        self.w = w
        self.v = v
        self.wall = wall

    @property
    def floor(self):
        """-max(v/w) past the wall: Q <= 0 everywhere there, so no level lies below."""
        return -float(np.max(self.v[1:] / self.w[1:]))

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
        out, n_out = _numerov_sweep(q[: m + 1], self.h, 0.0, y1, qy0=qy0)
        inw, n_in = _numerov_sweep(q[end:m - 1:-1], self.h, 0.0, self.h)
        y = np.concatenate((out, (out[-1] / inw[-1]) * inw[-2::-1]))
        t = (self.h * self.h / 12.0) * q[m - 1:m + 2]
        ym = y[m]
        r = (1.0 + t[2]) * y[m + 1] + (1.0 + t[0]) * y[m - 1] - (2.0 - 10.0 * t[1]) * ym
        norm = float(np.dot(self.w[: end + 1], y * y))
        return n_out + n_in, -float(ym * r) / (self.h * self.h * norm)

    def count(self, eps):
        """Johnson's count nodes + (delta < 0) of the shot at eps: the number
        of levels below eps (J. Chem. Phys. 67 (1977) 4086)."""
        nodes, delta = self.correct(eps)
        return nodes + (delta < 0.0)


def _eigensolve(problem: _ShootingProblem, k_levels: int, *, eps_hi=0.0, seeds=()):
    """Hard-wall levels below eps_hi, each by one search of matched shots
    (``_ShootingProblem.correct``) inside a bracket (lo, hi).

    Level k's bracket runs from level k - 1 (from problem.floor for level
    0) to eps_hi, and its first shot is seeds[k] if that lies inside, else
    eps_hi.  A shot whose count (see ``_ShootingProblem.count``) is at most
    k moves lo to it, any other hi.  The next shot is the step eps + delta
    if the shot read k nodes and the step lands inside the bracket, else
    eps_hi while no shot has tested it, else the bracket's midpoint.  A
    level settles at eps + delta once a k-node step is at most
    _SETTLE_RTOL |eps|; a count of at most k at eps_hi ends the search with
    complete=False.

    Raises ConvergenceError when a bracket closes to adjacent doubles (the
    node theorem is violated) or a level does not settle in
    _CORRECTION_LIMIT shots.
    """
    energies = []
    lo = problem.floor
    for k in range(k_levels):
        hi, tested = eps_hi, False
        eps = seeds[k] if k < len(seeds) and lo < seeds[k] < hi else eps_hi  # NaN fails
        for _ in range(_CORRECTION_LIMIT):
            nodes, delta = problem.correct(eps)
            below = nodes + (delta < 0.0) <= k
            if below and eps == eps_hi:
                return BoundStates(energies=energies, nodes=list(range(k)), complete=False)
            if nodes == k and abs(delta) <= _SETTLE_RTOL * abs(eps):  # NaN is not
                break
            if below:
                lo = eps
            else:
                hi, tested = eps, True
            step = eps + delta
            if nodes == k and lo < step < hi:
                eps = step
            elif not tested:
                eps = eps_hi
            else:
                eps = 0.5 * (lo + hi)
                if not lo < eps < hi:
                    raise ConvergenceError(f"node theorem violated: level {k} has no "
                                           f"{k}-node shot between {lo!r} and {hi!r}")
        else:
            raise ConvergenceError(f"level {k} not settled in {_CORRECTION_LIMIT} corrections")
        lo = eps + delta
        energies.append(lo)
    return BoundStates(energies=energies, nodes=list(range(k_levels)), complete=True)


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
    h^2 Q ~ nu0 h, which then stays below the Numerov criterion 0.25.  The
    window must end below R = e^_X_MAX ~ 1.34e154, where e^{2x} overflows.
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
    _check_x_range(math.log(window[1]))
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


def _wkb_seeds(potential, nu0, window, k_levels):
    """eps = nu0 E of the full-phase WKB levels n = 1..k_levels with the
    inner wall at window[0] (level n seeds node count n - 1), from the one
    Newton solve of ``quantize_spectrum`` (about five array phases); the
    levels WKB drops are missing, and none are given when it fails."""
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
    complete=False.  ``_eigensolve`` finds each level by one search of
    matched shots from its full-phase WKB energy (``_wkb_seeds``).
    Raises DomainError unless k_levels is an integer >= 1.
    """
    _check_index(k_levels, "k_levels")
    problem = _numerov_problem(potential, nu0, window, h)
    res = _eigensolve(problem, k_levels, seeds=_wkb_seeds(potential, nu0, window, k_levels))
    return BoundStates(
        energies=[e / nu0 for e in res.energies], nodes=res.nodes, complete=res.complete
    )


def count_negative_levels(potential, nu0: float, window, *, h: float | None = None) -> int:
    """Number of E < 0 hard-wall levels: the count of the matched shot at
    E = 0 (``_ShootingProblem.count``)."""
    return _numerov_problem(potential, nu0, window, h).count(0.0)


def bound_states_1d(u_of_x, window, k_levels: int, *, h: float = 1e-3) -> BoundStates:
    """Plain 1D hard-wall problem chi'' + (E - U(x)) chi = 0 (solver self-test),
    solved by ``_eigensolve`` without seeds."""
    _check_index(k_levels, "k_levels")
    _check_finite("window[0]", window[0])
    _check_finite("window[1]", window[1])
    x = _uniform_grid(window[0], window[1], h)
    u = np.array([u_of_x(xi) for xi in x])
    problem = _ShootingProblem(x, np.ones_like(x), -u)
    eps_hi = 1.0
    for _ in range(200):
        if problem.count(eps_hi) >= k_levels:
            break
        eps_hi *= 2.0
    return _eigensolve(problem, k_levels, eps_hi=eps_hi)
