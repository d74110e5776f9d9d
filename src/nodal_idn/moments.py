"""Cauchy moments, fiber recovery via Newton identities, window sweeps.

The moment of order m at xi is the contour integral

    M_m(xi) = (1/2*pi*i) int_gamma f1^m (f2 - xi)^(-1) df2

which equals the fiber power sum sum_j h_j(xi)^m plus a polynomial part;
test curves live in the bounded regime where the polynomial part vanishes.
``MomentEngine.check_bounded_regime`` asserts that on every window, against
a polynomial fit to the moments at far-field probes where the fiber is
empty (Delves & Lyness, Math. Comp. 1967).  Power sums are converted to
roots through Newton's identities and one batched Aberth iteration on the
monic polynomial they give; only the rows where it does not converge take
companion-matrix eigenvalues, so each row's roots depend on its own power
sums alone, whatever batch it comes in.  Newton steps, whose Jacobian is
diag(1..p) V(h), fit the roots to the power sums, and the form quotients
dU_ell / dF2 at the fiber points h solve V(h) g = theta-weighted moments,
both by the O(p^2) Vandermonde solve of Bjorck & Pereyra (Math. Comp. 24,
1970).  A window sweep round makes one root recovery, snake match and
quotient solve per sheet count; its kernel calls stay per window, so each
window uses the disc it would use alone.

The kernel is the periodic trapezoid rule (1/iN) sum_k w_k f1_k^m /
(f2_k - xi), for the weight row w = df2 or w = theta_ell dgamma.  Summed
directly it costs O(N) per point, and it is trusted only at points xi
with |xi - f2_k| at least 6 grid spacings of |df2_k| for every sample k.
On a disc D(c, r) with d = min_k |f2_k - c| > r the same sum is a Taylor
series in u = (xi - c) / r, a local expansion in the sense of Greengard &
Rokhlin (J. Comput. Phys. 73, 1987), with the coefficients

    C[w, m, j] = (1/iN) sum_k w_k f1_k^m (f2_k - c)^(-1) (r / (f2_k - c))^j

for j < J: one product of the integrand rows with J powers of the Cauchy
factor, after which a point costs O(rows J) and no N-wide work.  With
rho = r / d the dropped tail is at most (1/N) sum_k |w_k f1_k^m| rho^J /
(d (1 - rho)).  J is the smallest order with rho^J <= eps (1 - rho), which
keeps the tail below the round-off of the direct sum; a disc with no such
J <= 64 gets no expansion.  A disc is used only when |f2_k - c| - r
exceeds the near threshold of every sample k, which implies the pointwise
test at every point of the disc.  Each engine keeps its expansions per
weight set.  A batch that lies in a kept disc whose orders cover it is
evaluated from that disc.  Otherwise a batch of at least J points builds a
disc about its bounding-box centre, of radius max(batch radius, d / 4):
there the build costs no more than the direct call it replaces.  Any other
batch takes the direct sum with its pointwise check.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import jsonio
from .dirichlet import DNDatum
from .errors import FiberError, ModelError, MomentError
from .model import BoundaryCurve
from .spectral import fourier_derivative

CURVE_SCHEMA = "nodal-idn/curve/1"
WINDOW_GRID_N = 9               # window grid points per axis
MAX_MOMENT_ORDER = 32
SHEET_INTEGRALITY_TOL = 1e-4
BRANCH_SEPARATION_FLOOR = 1e-4
VANDERMONDE_CONDITION_LIMIT = 1e10
POWER_SUM_TOL = 1e-6
DOUBLE_EPS = float(np.finfo(float).eps)
# a double root moves by O(sqrt(eps)) under round-off of its power sums, so
# real parts of fiber points closer than this are not ordered by the data
FIBER_ORDER_TOL = float(np.sqrt(DOUBLE_EPS))
MAX_EXPANSION_ORDER = 64
DISC_REACH = 0.25           # a new disc's radius is at least this share of d
DIRECT_BLOCK = 1 << 17      # Cauchy factors per block of a direct sum (2 MB)
NEAR_SPACINGS = 6.0         # grid spacings of |df2| that plain quadrature keeps
ROOT_BLOCK = 512            # path points per kernel call and root recovery
MAX_HALVINGS = 6            # halving levels of an unsafe continuation step
ABERTH_STEPS = 20           # Aberth steps before a row falls back
ABERTH_TOL = 1e-10          # relative step at which an Aberth row stops
ABERTH_START_ANGLE = 0.4    # turns the start circle off symmetric fibers
UNSAFE_STEP = ("continuation step exceeds half the root separation: "
               "decrease grid step")


def truncation_order(rho: float) -> int | None:
    """The smallest J <= MAX_EXPANSION_ORDER with rho^J <= eps (1 - rho),
    where rho = radius / d: past J the Taylor tail of the Cauchy factor is
    below the round-off of the direct sum.  None if no such J exists."""
    for order in range(1, MAX_EXPANSION_ORDER + 1):
        if rho ** order <= DOUBLE_EPS * (1.0 - rho):
            return order
    return None


MIN_EXPANSION_ORDER = truncation_order(DISC_REACH)


@dataclass
class LocalExpansion:
    """The kernel on the disc |xi - center| <= radius as a Taylor series.

    ``coeffs[w, m, j]`` = (1/iN) sum_k w_k f1_k^m (f2_k - c)^-1
    (r / (f2_k - c))^j for orders m = 0..top and j < J, so the kernel at xi
    is sum_j coeffs[w, m, j] u^j with u = (xi - c) / r, |u| <= 1.
    """

    center: complex
    radius: float
    coeffs: np.ndarray          # (weights, top + 1, J)

    def holds(self, top: int, xi: np.ndarray) -> bool:
        """Do the disc and the orders 0..top cover the request?"""
        return (top < self.coeffs.shape[1]
                and bool(np.all(np.abs(xi - self.center) <= self.radius)))

    def __call__(self, orders: np.ndarray, xi: np.ndarray) -> np.ndarray:
        """The kernel at every xi for the given orders, from the
        coefficients alone; shape (weights, len(orders), len(xi))."""
        u = (xi - self.center) / self.radius
        coeffs = self.coeffs[:, orders]
        powers = np.vander(u, coeffs.shape[-1], increasing=True).T
        out = coeffs.reshape(-1, coeffs.shape[-1]) @ powers
        return out.reshape(len(coeffs), orders.size, xi.size)


class MomentEngine:
    """Moment integrals for a fixed projection (f1, f2) and the theta rows."""

    def __init__(self, curve: BoundaryCurve, f1: np.ndarray, f2: np.ndarray,
                 theta: np.ndarray | None = None):
        self.curve = curve
        self.f1 = np.asarray(f1, dtype=complex)
        self.f2 = np.asarray(f2, dtype=complex)
        self.df2 = fourier_derivative(self.f2)
        self.theta = theta
        # |xi - f2| below this, pointwise, puts the pole of (f2 - xi)^(-1)
        # within NEAR_SPACINGS grid spacings of the parameter line
        self._near = NEAR_SPACINGS * 2 * np.pi / curve.n * np.abs(self.df2)
        self._dgamma = curve.derivatives
        self._powers = np.empty((0, self.f1.size), dtype=complex)
        self._far_fits = {}
        self._expansions = {}       # weight rows -> [LocalExpansion]

    @staticmethod
    def from_datum(datum: DNDatum) -> "MomentEngine":
        return MomentEngine(datum.curve, datum.f[0], datum.f[1], datum.theta)

    def moments(self, orders, xi) -> np.ndarray:
        """M_m(xi) for every m in orders; returns shape (len(orders), len(xi))."""
        return self._kernel(None, orders, xi)[0]

    def theta_moments(self, ells, orders, xi) -> np.ndarray:
        """A_m(xi) = (1/2*pi*i) int f1^m (f2-xi)^(-1) theta_ell for every ell
        in ells; returns shape (len(ells), len(orders), len(xi))."""
        if self.theta is None:
            raise MomentError("no theta rows attached to this projection")
        return self._kernel(tuple(ells), orders, xi)

    def _kernel(self, ells, orders, xi) -> np.ndarray:
        """(1/2*pi*i) int f1^m w (f2-xi)^(-1) for each weight row w (the df2
        row for ``ells`` None, else theta_ell dgamma), order m and point xi.
        A batch inside the disc of a local expansion is evaluated from its
        Taylor coefficients, any other batch directly.  Returns shape
        (len(weights), len(orders), len(xi))."""
        orders = np.asarray(list(orders), dtype=int)
        if np.any(orders > MAX_MOMENT_ORDER):
            raise MomentError(f"moment order exceeds {MAX_MOMENT_ORDER}")
        xi = np.atleast_1d(np.asarray(xi, dtype=complex))
        expansion = self._expansion_for(ells, orders, xi)
        if expansion is not None:
            return expansion(orders, xi)
        return self._direct(ells, orders, xi)

    def _direct(self, ells, orders: np.ndarray, xi: np.ndarray) -> np.ndarray:
        """The kernel as the powers of f1 times the Cauchy matrix, one
        product per block of points, each block holding at most
        DIRECT_BLOCK Cauchy factors so that memory stays O(N) per call.
        Plain quadrature is trusted only when the pole of (f2 - xi)^(-1)
        stays several grid spacings away from the parameter line; the
        first block with a point that does not raises."""
        rows = self._rows(ells, orders)
        out = np.empty((len(rows), xi.size), dtype=complex)
        step = max(1, DIRECT_BLOCK // self.curve.n)
        for start in range(0, xi.size, step):
            block = slice(start, start + step)
            shift = self.f2[:, None] - xi[None, block]
            if np.any(np.abs(shift) < self._near[:, None]):
                raise MomentError("on-curve evaluation: xi too close to "
                                  "f2(gamma)")
            out[:, block] = rows @ np.divide(1.0, shift, out=shift)
        out /= 1j * self.curve.n
        return out.reshape(-1, orders.size, xi.size)

    def _rows(self, ells, orders: np.ndarray) -> np.ndarray:
        """The integrand rows w f1^m, weight-major: (weights * orders, N)."""
        weights = self.df2[None, :] if ells is None \
            else self.theta[list(ells)] * self._dgamma
        rows = weights[:, None, :] * self._f1_powers(orders)[None, :, :]
        return rows.reshape(-1, self.curve.n)

    def _f1_powers(self, orders: np.ndarray) -> np.ndarray:
        """Rows f1^m for m in orders, from a table of f1^0, f1^1, ... that
        is kept and grows by the rows up to the highest order asked."""
        have = len(self._powers)
        top = int(orders.max(initial=0))
        if have <= top:
            grown = self.f1[None, :] ** np.arange(have, top + 1)[:, None]
            self._powers = np.concatenate([self._powers, grown])
        return self._powers[orders]

    def local_expansion(self, ells, top: int, center: complex,
                        radius: float) -> "LocalExpansion | None":
        """The Taylor expansion of the kernel rows ``ells`` (None: the df2
        row), orders 0..top, on the disc D(center, radius): one product of
        the integrand rows with J powers of the Cauchy factor.

        None where the disc is not clear of the curve, that is where
        |f2_k - center| - radius <= the near threshold of some sample k, or
        where no truncation order J <= MAX_EXPANSION_ORDER bounds the tail.
        """
        shift = self.f2 - center
        gap = np.abs(shift)
        if not np.all(gap - radius > self._near):
            return None
        order = truncation_order(radius / float(np.min(gap)))
        if order is None:
            return None
        orders = np.arange(top + 1)
        cauchy = np.vander(radius / shift, order, increasing=True)
        cauchy /= shift[:, None]
        coeffs = self._rows(ells, orders) @ cauchy / (1j * self.curve.n)
        return LocalExpansion(complex(center), float(radius),
                              coeffs.reshape(-1, top + 1, order))

    def _expansion_for(self, ells, orders: np.ndarray, xi: np.ndarray):
        """A cached expansion of the rows ``ells`` whose disc holds every xi
        and whose orders cover the request.  Failing that, a new one on the
        disc about the batch's bounding-box centre c of radius
        max(batch radius, d/4), d = min_k |f2_k - c|, built only when the
        batch has at least J points: the build then costs no more than one
        direct call.  Else None."""
        top = int(orders.max(initial=0))
        cached = self._expansions.setdefault(ells, [])
        for expansion in cached:
            if expansion.holds(top, xi):
                return expansion
        if xi.size < MIN_EXPANSION_ORDER:
            return None
        center = 0.5 * complex(xi.real.min() + xi.real.max(),
                               xi.imag.min() + xi.imag.max())
        distance = float(np.min(np.abs(self.f2 - center)))
        radius = max(float(np.max(np.abs(xi - center))), DISC_REACH * distance)
        order = truncation_order(radius / distance) if distance > 0 else None
        if order is None or xi.size < order:
            return None
        expansion = self.local_expansion(ells, top, center, radius)
        if expansion is not None:
            cached.append(expansion)
        return expansion

    def far_probe_points(self, count: int) -> np.ndarray:
        center = complex(np.mean(self.f2))
        radius = 4.0 * float(np.max(np.abs(self.f2 - center)))
        ang = 2 * np.pi * (np.arange(count) + 0.37) / count
        return center + radius * np.exp(1j * ang)

    def check_bounded_regime(self, sums: np.ndarray) -> float:
        """Assert that window moments ``sums`` (points, K), orders 1..K on
        the last axis, are fiber power sums: the polynomial part of each
        order must vanish against 1e-6 times the window's largest moment
        of that order (or 1).

        The polynomial part of M_m is the degree-m least-squares fit to M_m
        on K + 3 far probes, where the fiber is empty; it is fitted once
        per K.  Returns the far-field residual, the largest |M_m| on the
        probes.
        """
        k = sums.shape[-1]
        if k not in self._far_fits:
            far = self.far_probe_points(k + 3)
            rows = self.moments(range(1, k + 1), far)
            unit = far / np.max(np.abs(far))
            fit = [np.max(np.abs(np.linalg.lstsq(
                       np.vander(unit, m + 1, increasing=True), rows[m - 1],
                       rcond=None)[0])) for m in range(1, k + 1)]
            self._far_fits[k] = np.array(fit), float(np.max(np.abs(rows)))
        fit, residual = self._far_fits[k]
        scale = np.maximum(1.0, np.max(np.abs(sums), axis=0))
        if np.any(fit > 1e-6 * scale):
            raise MomentError("polynomial part does not vanish: not in the "
                              "bounded-curve regime")
        return residual


def window_grid(center: complex, radius: float, grid_n: int) -> tuple[np.ndarray, tuple]:
    """Square grid inscribed in the window disk, row-major flattened."""
    half = radius / np.sqrt(2.0)
    axis = np.linspace(-half, half, grid_n)
    gx, gy = np.meshgrid(axis, axis, indexing="ij")
    return (center + gx + 1j * gy).ravel(), (grid_n, grid_n)


def integral_sheet_count(m0: np.ndarray) -> int | None:
    """The fiber cardinality p >= 0 if every M_0 given is that integer to
    SHEET_INTEGRALITY_TOL, else None (one sample names the candidate)."""
    p = round(m0.flat[0].real) if np.isfinite(m0.flat[0]) else -1
    if p >= 0 and np.max(np.abs(m0 - p)) < SHEET_INTEGRALITY_TOL:
        return p
    return None


def newton_power_sums_to_coefficients(power_sums: np.ndarray) -> np.ndarray:
    """Elementary symmetric e_1..e_p from power sums S_1..S_p (last axis)."""
    s = np.asarray(power_sums, dtype=complex)
    # (-1)^(i-1) S_i; moving the sign from e to S is exact
    signed = np.moveaxis(s * (-1) ** np.arange(s.shape[-1]), -1, 0)
    e = [np.ones(s.shape[:-1], dtype=complex)]
    for k in range(1, len(signed) + 1):
        acc = 0.0 + 0.0j
        for i in range(1, k + 1):
            acc = acc + e[k - i] * signed[i - 1]
        e.append(acc / k)
    return np.stack(e[1:], axis=-1)


def companion_roots(coeffs: np.ndarray) -> np.ndarray:
    """All roots of sum_k coeffs[k] z^k, as companion-matrix eigenvalues."""
    return np.roots(np.asarray(coeffs, dtype=complex)[::-1]).astype(complex)


def roots_from_power_sums(power_sums: np.ndarray,
                          clustered: bool = False) -> np.ndarray:
    """Monic-polynomial roots whose power sums are the given S_1..S_p.

    Batched over leading axes, and each row of a batch is recovered from
    its own power sums alone: no other row, and no batch size, changes a
    bit of its roots.  The Aberth iteration runs on the monic polynomial of
    Newton's identities (``_aberth``), and the stacked eigenvalue solve on
    companion matrices built as ``np.roots`` builds them takes the rows
    where it did not converge or left a value that is not finite.
    ``clustered`` sends every row to the eigensolve at once, for callers
    whose roots cluster by construction (a discriminant census, a
    monodromy cycle), where the iteration converges slowly.  A row whose
    constant coefficient is exactly zero goes through ``np.roots``, which
    deflates the zero roots.
    """
    shape = np.shape(power_sums)
    s = np.asarray(power_sums, dtype=complex).reshape(-1, shape[-1])
    p = s.shape[-1]
    # z^p - e1 z^(p-1) + e2 z^(p-2) - ... ; descending coefficients after 1
    desc = (-1) ** np.arange(1, p + 1) * newton_power_sums_to_coefficients(s)
    if clustered:
        roots, converged = np.empty_like(desc), np.zeros(len(desc), bool)
    else:
        roots, converged = _aberth(desc, s)
    zero = desc[:, -1] == 0
    rows = np.flatnonzero(~converged & ~zero)
    if rows.size:
        companion = np.zeros((rows.size, p, p), dtype=complex)
        companion[:, 1:, :-1] = np.eye(p - 1)
        companion[:, 0, :] = -desc[rows] / (1.0 + 0.0j)  # over the leading 1
        roots[rows] = np.linalg.eigvals(companion)
    for row in np.flatnonzero(zero):
        roots[row] = companion_roots(np.r_[desc[row, ::-1], 1.0])
    return roots.reshape(shape)


def _aberth(desc: np.ndarray, power_sums: np.ndarray):
    """The Aberth-Ehrlich iteration (Aberth, Math. Comp. 1973; Bini, Numer.
    Algorithms 1996) on z^p + desc[b, 0] z^(p-1) + ... + desc[b, p-1] for
    every row b at once.  Row b starts from p points on the circle about
    its centroid S_1/p of radius |S_2/p - (S_1/p)^2|^(1/2), and each root
    takes the step P/(P' - P sum_(j != i) 1/(z_i - z_j)).  A row stops once
    every step is at most ABERTH_TOL times its largest root, or when a
    step or root is not finite; the others go on, for ABERTH_STEPS steps in
    all.  Returns the roots (B, p) and the mask of the rows that converged.
    """
    count, p = desc.shape
    centre = power_sums[:, :1] / p
    spread = power_sums[:, 1:2] / p - centre ** 2 if p > 1 else 0.0 * centre
    angles = 2 * np.pi * np.arange(p) / p + ABERTH_START_ANGLE
    roots = centre + np.sqrt(np.abs(spread)) * np.exp(1j * angles)
    converged = np.zeros(count, dtype=bool)
    live = np.arange(count)
    z, coeffs = roots, desc
    diagonal = np.arange(p)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(ABERTH_STEPS):
            value, slope = z + coeffs[:, :1], np.ones_like(z)
            for k in range(1, p):                   # Horner for P and P'
                slope = slope * z + value
                value = value * z + coeffs[:, k, None]
            gaps = z[:, :, None] - z[:, None, :]
            gaps[:, diagonal, diagonal] = np.inf    # no pull of z_i on itself
            step = value / (slope - value * (1 / gaps).sum(axis=2))
            z = z - step
            size, scale = np.abs(step).max(axis=1), np.abs(z).max(axis=1)
            done = (size <= ABERTH_TOL * scale) & (scale < np.inf)
            going = ~done & np.isfinite(size)
            if going.all():
                continue
            finished = live[done]
            converged[finished] = True
            roots[finished] = z[done]
            live, z, coeffs = live[going], z[going], coeffs[going]
            if not live.size:
                break
    return roots, converged


def _power_sum_defect(roots: np.ndarray, power_sums: np.ndarray) -> np.ndarray:
    """(sum_j h_j^m - S_m) for m = 1..S.shape[-1], in extended precision.

    The powers are running products in ``clongdouble``, so the defect of
    roots that fit the power sums is not lost to the rounding of h^m.
    Batched over leading axes.
    """
    h = power = np.asarray(roots, dtype=np.clongdouble)
    sums = []
    for _ in range(power_sums.shape[-1]):
        sums.append(power.sum(axis=-1))
        power = power * h
    return np.stack(sums, axis=-1) - power_sums


def _refine_roots(roots: np.ndarray, power_sums: np.ndarray) -> np.ndarray:
    """Up to two Newton steps on h -> (sum_j h_j^m)_{m<=p} against S_1..S_p,
    for each row of roots (B, p) and power sums (B, p).

    The roots of ``roots_from_power_sums``, from the Aberth iteration or
    its companion-eigenvalue fallback, carry the rounding of the
    Newton-identity coefficients; these steps fit the roots to the power
    sums themselves.
    Roots and defect are kept in extended precision and only the Jacobian
    solve is done in double (iterative refinement), so the roots converge
    to the exact roots of the given sums rather than stalling at the
    double-precision rounding of the clustered high powers.  A row stops
    once its step falls below the double resolution of every root, when a
    step would not lower its defect (a near-singular Jacobian, roots about
    to collide, cannot throw the roots off), or when two of its roots
    coincide; the other rows go on.

    This needs a long double wider than double (``np.finfo(np.longdouble)
    .nmant > 52``): the 80-bit x87 format on x86-64, IEEE quad on aarch64
    and ppc64le Linux. Where long double is double (MSVC builds, Apple
    arm64) the steps are plain double steps, which can stall about 2e-7
    from the exact roots of clustered fibers.
    """
    orders = np.arange(1, roots.shape[-1] + 1)
    roots = np.array(roots, dtype=np.clongdouble)
    defect = _power_sum_defect(roots, power_sums)
    live = np.ones(len(roots), dtype=bool)
    for _ in range(2):
        h = roots.astype(complex)
        # the Jacobian is diag(orders) V(h), V the Vandermonde matrix of h
        step = _vandermonde_solve(h, defect.astype(complex) / orders)
        solved = np.all(np.isfinite(step), axis=1)
        step[~solved] = 0
        live &= solved & ~np.all(np.abs(step) <= DOUBLE_EPS * np.abs(h), axis=1)
        if not live.any():
            break
        trial = roots - step
        trial_defect = _power_sum_defect(trial, power_sums)
        live &= (np.max(np.abs(trial_defect), axis=1)
                 < np.max(np.abs(defect), axis=1))
        roots[live], defect[live] = trial[live], trial_defect[live]
    return roots.astype(complex)


def _vandermonde_solve(roots: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """The x with sum_j h_j^m x_j = rhs[..., m], m < p, for the roots h of
    shape (..., p); ``rhs`` may carry extra leading axes.  The primal
    algorithm of Bjorck & Pereyra (Math. Comp. 24, 1970; Golub & Van Loan,
    Matrix Computations, Alg. 4.6.2) applies V^-1 as 2(p - 1) bidiagonal
    factors, each one array operation over the batch: O(p^2) per system.
    A system with two equal roots gets non-finite values, without warning."""
    h, x = np.asarray(roots), np.array(rhs, dtype=complex)
    p = h.shape[-1]
    with np.errstate(all="ignore"):
        for k in range(p - 1):
            x[..., k + 1:] -= h[..., k, None] * x[..., k:-1]
        for k in range(p - 2, -1, -1):
            x[..., k + 1:] /= h[..., k + 1:] - h[..., :p - k - 1]
            x[..., k:-1] -= x[..., k + 1:]
    return x


def match_rows(previous: np.ndarray, new: np.ndarray):
    """Match each row of ``new`` (B, p) to the same row of ``previous`` by
    nearest neighbor: the sheet rule of continuation, window stitching and
    monodromy.  Returns the index map
    (``new[b, choice[b, j]]`` is the root nearest to ``previous[b, j]``)
    and the mask of the unsafe rows, where some matched root's move is not
    below half its minimum separation at the previous point (a NaN root is
    unsafe).

    A safe row is a permutation.  If predecessors j != k both claimed root
    r with moves below half their separations, then |prev_j - prev_k| <=
    |r - prev_j| + |r - prev_k| < (sep_j + sep_k)/2 <= |prev_j - prev_k|,
    which is impossible."""
    choice = np.empty(previous.shape, dtype=int)
    unsafe = np.zeros(len(previous), dtype=bool)
    for j in range(previous.shape[1]):      # memory O(B p), not O(B p^2)
        # inf - inf is NaN, which the rule below already counts unsafe
        with np.errstate(invalid="ignore"):
            move = np.abs(previous[:, j, None] - new)
            gaps = np.abs(previous[:, j, None] - previous)
        choice[:, j] = np.argmin(move, axis=1)
        gaps[:, j] = np.inf
        unsafe |= ~(np.min(move, axis=1) < 0.5 * np.min(gaps, axis=1))
    return choice, unsafe


def compose_steps(choice: np.ndarray) -> np.ndarray:
    """The step maps ``choice`` (L, ..., p) composed along a path: step i
    takes sheet j of point i - 1 to ``choice[i, ..., j]``, and row i of the
    result takes the sheets of point 0 to point i.  A prefix scan (Hillis &
    Steele, CACM 29, 1986) in log2(L) array steps; after width w, row i
    composes steps i - 2w + 1 .. i."""
    width = 1
    while width < len(choice):
        head = np.take_along_axis(choice[width:], choice[:-width], axis=-1)
        choice = np.concatenate([choice[:width], head])
        width *= 2
    return choice


def min_separations(roots: np.ndarray) -> np.ndarray:
    """The distance from each root to the nearest other root of its row
    (last axis); inf for a root alone in its row."""
    seps = np.abs(roots[..., :, None] - roots[..., None, :])
    p = roots.shape[-1]
    seps[..., np.arange(p), np.arange(p)] = np.inf
    return np.min(seps, axis=-1, initial=np.inf)


def sort_fibers(roots: np.ndarray) -> np.ndarray:
    """The roots of each row (last axis) by ascending real part, where real
    parts within FIBER_ORDER_TOL * max(1, max |h|) of their neighbour count
    as equal and the imaginary part decides.  The two points of a conjugate
    pair, whose real parts differ by round-off, so keep their order."""
    roots = np.asarray(roots)
    by_real = np.take_along_axis(roots, np.argsort(roots.real, axis=-1), -1)
    scale = np.maximum(1.0, np.max(np.abs(roots), axis=-1, keepdims=True))
    steps = np.diff(by_real.real, axis=-1, prepend=-np.inf)
    groups = np.cumsum(steps > FIBER_ORDER_TOL * scale, axis=-1)
    order = np.lexsort((by_real.imag, groups), axis=-1)
    return np.take_along_axis(by_real, order, -1)


def _fiber_roots(sums: np.ndarray, p: int):
    """The roots of each row of power sums (B, >= p), unordered, from
    S_1..S_p, and per row None where they pass the check against
    S_1..S_2p, else the message naming the first order at fault.  The
    check is of unmatched roots, which a collision would duplicate."""
    roots = _refine_roots(roots_from_power_sums(sums[:, :p]), sums[:, :p])
    check = sums[:, :2 * p]
    defect = np.abs(_power_sum_defect(roots, check))
    bad = defect > POWER_SUM_TOL * np.maximum(1.0, np.abs(check))
    faults = np.full(len(sums), None, dtype=object)
    for row in np.flatnonzero(np.any(bad, axis=1)):
        k = int(np.argmax(bad[row]))
        faults[row] = (f"power-sum consistency failed at order {k + 1}: "
                       f"{defect[row, k]:.3e}")
    return roots, faults


def recover_fibers(power_sums: np.ndarray, p: int,
                   previous: np.ndarray | None = None) -> np.ndarray:
    """Fiber roots h_1..h_p from power sums, continuation-ordered.

    ``power_sums`` holds S_1, S_2, ... on its last axis and may carry
    leading batch axes; the roots come from S_1..S_p and are checked
    against S_1..S_2p, and an empty fiber (p = 0) has none.  Without
    ``previous`` the roots of a row are ordered by ``sort_fibers``, with it
    they follow its same row.  A FiberError names the first row at fault:
    the message of its failed check, or else UNSAFE_STEP for its unsafe
    match.
    """
    s = np.asarray(power_sums, dtype=complex)
    shape = s.shape[:-1] + (p,)
    if p < 1:
        return np.zeros(shape, dtype=complex)
    s = s.reshape(-1, s.shape[-1])
    roots, faults = _fiber_roots(s, p)
    if previous is None:
        matched, unsafe = sort_fibers(roots), np.zeros(len(s), dtype=bool)
    else:
        choice, unsafe = match_rows(
            np.asarray(previous, dtype=complex).reshape(-1, p), roots)
        matched = np.take_along_axis(roots, choice, axis=1)
    failed = unsafe | faults.astype(bool)
    if failed.any():
        raise FiberError(faults[np.argmax(failed)] or UNSAFE_STEP)
    return matched.reshape(shape)


def recover_form_quotient(engine: MomentEngine, xi, roots) -> np.ndarray:
    """Values g[ell, b, j] = dU_ell/dF2 at the fiber points roots[b] above xi[b].

    Solves the Vandermonde systems sum_j h_j^m g_j = A_m(xi), m = 0..p-1,
    for every point and all three potentials at once; shape (3, B, p).
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=complex))
    roots = np.asarray(roots, dtype=complex).reshape(xi.size, -1)
    p = roots.shape[1]
    if p == 0:
        return np.zeros((3, xi.size, 0), dtype=complex)
    a = engine.theta_moments(range(3), range(p), xi)        # (3, p, B)
    g, refused = _solve_quotients(roots[None], a[:, :, None])
    if refused[0]:
        raise FiberError("near branch point: move xi")
    return g[:, 0]


def _solve_quotients(roots: np.ndarray, a: np.ndarray):
    """Solve sum_j h_j^m g_j = a[ell, m, w, b], m < p, at the roots[w, b]
    (W, B, p) of W groups in one call; returns g (3, W, B, p) and the mask
    of the groups refused as near a branch point, where g is no solution:
    some root separation is below 1e-6, or some system's
    ``_condition_bound`` exceeds VANDERMONDE_CONDITION_LIMIT."""
    refused = np.min(min_separations(roots), axis=(1, 2)) < 1e-6
    refused |= (np.max(_condition_bound(roots), axis=1)
                > VANDERMONDE_CONDITION_LIMIT)
    return _vandermonde_solve(roots, np.moveaxis(a, 1, -1)), refused


def _condition_bound(roots: np.ndarray) -> np.ndarray:
    """p ||V||_inf ||V^-1||_inf >= cond_2(V), V[m, j] = h_j^m, per row of
    roots (..., p), by Gautschi's bound (Numer. Math. 4, 1962) ||V^-1||_inf
    <= max_j prod_(k != j) (1 + |h_k|) / |h_j - h_k|; inf for equal roots.
    ||V||_inf is at m = 0 or p - 1, as sum_j |h_j|^m is convex in m."""
    p, size = roots.shape[-1], np.abs(roots)
    gaps = np.abs(roots[..., :, None] - roots[..., None, :])
    gaps[..., np.arange(p), np.arange(p)] = 1 + size    # the k = j factor 1
    with np.errstate(divide="ignore", over="ignore"):
        inverse = np.max(np.prod((1 + size[..., None, :]) / gaps, -1), -1)
        return p * np.maximum(p, np.sum(size ** (p - 1), -1)) * inverse


@dataclass
class FiberWindow:
    """Recovered fibers and form quotients over one window grid."""

    center: complex
    radius: float
    grid: np.ndarray
    grid_shape: tuple
    p: int
    roots: np.ndarray           # (grid, p)
    quotients: np.ndarray       # (3, grid, p)
    min_root_separation: float
    relocated_from: complex | None = None

    def to_json(self) -> dict:
        return {
            "center": jsonio.encode_complex(self.center),
            "radius": self.radius,
            "grid_shape": list(self.grid_shape),
            "grid": jsonio.encode_complex_array(self.grid),
            "p": self.p,
            "roots": jsonio.encode_complex_array(self.roots),
            "quotients": jsonio.encode_complex_array(self.quotients),
            "min_root_separation": self.min_root_separation,
            "relocated_from": (jsonio.encode_complex(self.relocated_from)
                               if self.relocated_from is not None else None),
        }

    @staticmethod
    def from_json(doc: dict) -> "FiberWindow":
        """The window of a curve file; ModelError where a key is missing
        or mistyped, or an array does not fit grid_shape and p."""
        try:
            shape, p = tuple(doc["grid_shape"]), int(doc["p"])
            if p < 0 or min(shape) < 1:
                raise ValueError(f"bad sizes grid_shape {list(shape)}, p {p}")
            g = int(np.prod(shape))
            grid = jsonio.decode_complex_array(doc["grid"]).reshape(g)
            roots = jsonio.decode_complex_array(doc["roots"]).reshape(g, p)
            quot = jsonio.decode_complex_array(doc["quotients"]).reshape(3, g, p)
            reloc = doc.get("relocated_from")
            return FiberWindow(
                jsonio.decode_complex(doc["center"]), float(doc["radius"]), grid,
                shape, p, roots, quot, float(doc["min_root_separation"]),
                jsonio.decode_complex(reloc) if reloc else None)
        except (KeyError, TypeError, ValueError) as exc:
            raise ModelError(f"malformed fiber window: {exc}") from None


def analyze_window(engine: MomentEngine, center: complex, radius: float,
                   grid_n: int) -> FiberWindow:
    """Full per-window pipeline: grid, sheet count p from M_0, the moments
    M_1..M_2p, fibers, quotients.  ``_analyze_windows`` for one window;
    raises the error that rules the window out."""
    outcome, = _analyze_windows(engine, [center], radius, grid_n)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _analyze_windows(engine: MomentEngine, centers, radius: float,
                     grid_n: int) -> list:
    """Per centre its FiberWindow, or the first error that rules it out: a
    MomentError of its kernel calls or an ambiguous M_0; the power-sum
    fault of its first row at fault in grid order; an unsafe snake step;
    with theta rows, a quotient solve that ``_solve_quotients`` refuses.
    The kernel calls stay per window, so that each window uses the disc it
    would use alone; root recovery, the snake match and the quotient solve
    run once per sheet count."""
    outcomes, sums = [], {}
    for center in centers:
        grid, shape = window_grid(center, radius, grid_n)
        try:
            p = integral_sheet_count(engine.moments([0], grid)[0])
            if p is None:
                raise MomentError("sheet count ambiguous: move window")
            if p:
                rows = engine.moments(range(1, 2 * p + 1), grid).T
                engine.check_bounded_regime(rows)
                sums.setdefault(p, []).append((len(outcomes), rows))
        except MomentError as exc:
            outcomes.append(exc)
            continue
        outcomes.append(FiberWindow(
            center, radius, grid, shape, p, np.zeros((grid.size, p), complex),
            np.zeros((3, grid.size, p), complex), np.inf))
    # a row-major snake through the grid, by adjacent steps only
    snake = np.arange(grid_n ** 2).reshape(grid_n, grid_n)
    snake[1::2] = snake[1::2, ::-1]
    snake = snake.ravel()
    for p, group in sums.items():
        at, rows = zip(*group)
        roots, faults = _fiber_roots(np.concatenate(rows), p)
        for k, fault in zip(at, faults.reshape(len(at), -1)):
            if any(fault):
                outcomes[k] = FiberError(next(filter(None, fault)))
        live = [isinstance(outcomes[k], FiberWindow) for k in at]
        at = [k for k in at if isinstance(outcomes[k], FiberWindow)]
        unordered = sort_fibers(roots.reshape(len(live), -1, p)[live][:, snake])
        # nearest-neighbour matching does not depend on how the previous
        # row is ordered, so every step is matched at once and maps composed
        choice, unsafe = match_rows(unordered[:, :-1].reshape(-1, p),
                                    unordered[:, 1:].reshape(-1, p))
        steps = choice.reshape(len(at), snake.size - 1, p).swapaxes(0, 1)
        start = np.broadcast_to(np.arange(p), (1, len(at), p))
        orders = compose_steps(np.concatenate([start, steps])).swapaxes(0, 1)
        ordered = np.empty_like(unordered)
        ordered[:, snake] = np.take_along_axis(unordered, orders, axis=2)
        seps = np.min(min_separations(unordered), axis=(1, 2))
        # not halved: sweep_windows re-centres a window its grid cannot match
        unsafe = unsafe.reshape(len(at), snake.size - 1).any(axis=1)
        for k, window_roots, sep, bad in zip(at, ordered, seps, unsafe):
            outcomes[k].roots = window_roots
            outcomes[k].min_root_separation = float(sep)
            if bad:
                outcomes[k] = FiberError(UNSAFE_STEP)
        at = [k for k in at if isinstance(outcomes[k], FiberWindow)]
        if engine.theta is None or not at:
            continue
        a = np.stack([engine.theta_moments(range(3), range(p), outcomes[k].grid)
                      for k in at], axis=2)                  # (3, p, W, grid)
        quotients, refused = _solve_quotients(
            np.stack([outcomes[k].roots for k in at]), a)
        for k, window, bad in zip(at, quotients.swapaxes(0, 1), refused):
            outcomes[k].quotients = window
            if bad:
                outcomes[k] = FiberError("near branch point: move xi")
    return outcomes


@dataclass
class WindowPlan:
    centers: list
    radius: float
    grid_n: int = WINDOW_GRID_N

    def to_json(self) -> dict:
        return {"centers": jsonio.encode_complex_array(np.array(self.centers)),
                "radius": self.radius, "grid_n": self.grid_n}


@dataclass
class ReconstructedCurve:
    """Stitched fiber windows with sheet correspondences and provenance."""

    windows: list
    permutations: list          # sigma[k] maps window k sheets -> window k+1
    failures: list              # (center, message)
    notes: list = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "schema": CURVE_SCHEMA,
            "windows": [w.to_json() for w in self.windows],
            "permutations": [list(map(int, s)) for s in self.permutations],
            "failures": [[jsonio.encode_complex(c), msg] for c, msg in self.failures],
            "notes": list(self.notes),
        }

    @staticmethod
    def from_json(doc: dict) -> "ReconstructedCurve":
        """The curve of a file; ModelError where its layout is at fault."""
        jsonio.require_schema(doc, CURVE_SCHEMA)
        try:
            return ReconstructedCurve(
                [FiberWindow.from_json(w) for w in doc["windows"]],
                [np.array(s, dtype=int) for s in doc["permutations"]],
                [(jsonio.decode_complex(c), msg) for c, msg in doc["failures"]],
                list(doc.get("notes", [])))
        except (KeyError, TypeError, ValueError) as exc:
            raise ModelError(f"malformed curve file: {exc}") from None


def sweep_windows(engine: MomentEngine, plan: WindowPlan) -> ReconstructedCurve:
    """Run the window pipeline over the plan, re-centering near branch
    points: up to three rounds, each over every window still pending."""
    centers = [complex(c) for c in plan.centers]
    attempts, outcomes = list(centers), [None] * len(centers)
    pending = list(range(len(centers)))
    for attempt in range(3):
        if attempt > 0:
            for k in pending:
                attempts[k] = attempts[k] + plan.radius * 0.5 * (0.6 + 0.8j)
        results = _analyze_windows(engine, [attempts[k] for k in pending],
                                   plan.radius, plan.grid_n)
        retry = []
        for k, outcome in zip(pending, results):
            if isinstance(outcome, MomentError):
                # off the valid region entirely: re-centering will not help
                outcomes[k] = (attempts[k], str(outcome))
            elif isinstance(outcome, FiberError):
                # continuation collapse: typical branch-point straddle
                outcomes[k] = (centers[k], str(outcome))
                retry.append(k)
            elif outcome.min_root_separation >= BRANCH_SEPARATION_FLOOR:
                if attempts[k] != centers[k]:
                    outcome.relocated_from = centers[k]
                outcomes[k] = outcome
            else:
                outcomes[k] = (centers[k], "root separation collapsed")
                retry.append(k)
        pending = retry
    windows = [w for w in outcomes if isinstance(w, FiberWindow)]
    failures = [f for f in outcomes if isinstance(f, tuple)]
    notes = [f"window at {w.relocated_from} re-centered to {w.center} "
             "(branch-point straddle)" for w in windows
             if w.relocated_from is not None]
    if len(failures) > len(plan.centers) // 2:
        raise FiberError(f"more than half of the windows failed: {failures}")

    pairs = list(zip(windows[:-1], windows[1:]))
    # a ring through an empty fiber has no monodromy to report
    ring = len(windows) > 2 and all(w.p == windows[0].p > 0 for w in windows)
    closing = [(windows[-1], windows[0])] if ring else []
    permutations = _stitch_pairs(pairs + closing)
    if ring:
        comp = compose_steps(np.array(permutations))[-1]
        permutations.pop()
        if not np.array_equal(comp, np.arange(windows[0].p)):
            notes.append("ring monodromy: closing the window chain permutes "
                         f"sheets as {comp.tolist()}")
    return ReconstructedCurve(windows, permutations, failures, notes)


def _stitch_pairs(pairs: list) -> list:
    """Sheet correspondences between overlapping windows (a, b) by
    proximity at their closest grid points, one match per sheet count;
    the first pair at fault raises its FiberError."""
    maps, errors, ends = [], [], {}
    for k, (a, b) in enumerate(pairs):
        maps.append(np.arange(min(a.p, b.p)))
        errors.append(a.p and b.p and a.p != b.p and (
            f"sheet count changes between windows at {a.center} ({a.p}) "
            f"and {b.center} ({b.p})"))
        if a.p == b.p > 0:
            dist = np.abs(a.grid[:, None] - b.grid[None, :])
            ia, ib = np.unravel_index(int(np.argmin(dist)), dist.shape)
            ends.setdefault(a.p, []).append((k, a.roots[ia], b.roots[ib]))
    for group in ends.values():
        at, previous, new = zip(*group)
        sigma, unsafe = match_rows(np.array(previous), np.array(new))
        for k, row, bad in zip(at, sigma, unsafe):
            maps[k] = row
            errors[k] = bad and ("stitching between windows exceeds half "
                                 "the root separation: refine plan")
    for error in filter(None, errors):
        raise FiberError(error)
    return maps


def continue_fibers(engine: MomentEngine, p: int, paths: np.ndarray,
                    start_xi: np.ndarray, start_roots: np.ndarray) -> np.ndarray:
    """Track the p fiber roots along B paths of L points each, all at once.

    ``paths`` is (B, L); path b starts from the point ``start_xi[b]``,
    where its roots are ``start_roots[b]``.  The roots at a point come from
    its power sums alone, so those of all points are found together.
    Nearest-neighbour matching does not depend on the order of the
    previous roots, so every step is matched at once and the index maps
    compose along each path.  Unsafe steps (``match_rows``) are halved,
    recursively and together, up to MAX_HALVINGS times.
    Returns (B, L, p).  The first failure raises: the kernel's refusal or
    the power-sum fault of the first block at fault, in point-major order,
    or else a step still unsafe after the last halving.
    """
    # point-major, so that the two ends of every step are views
    paths = np.asarray(paths, dtype=complex).T
    length, count = paths.shape
    xi = np.concatenate([np.reshape(start_xi, (1, count)), paths]).ravel()
    found = _fibers_at(engine, p, xi[count:])
    roots = np.concatenate([np.reshape(start_roots, (count, p)), found])
    choice = _match_steps(engine, p, xi[:-count], roots[:-count], xi[count:],
                          found, MAX_HALVINGS)
    choice = compose_steps(choice.reshape(length, count, p))
    tracks = np.take_along_axis(found.reshape(length, count, p), choice, axis=2)
    return tracks.transpose(1, 0, 2).copy()


def _fibers_at(engine: MomentEngine, p: int, xi: np.ndarray) -> np.ndarray:
    """The roots at every point xi (K,), unordered, shape (K, p), from
    ROOT_BLOCK points per kernel call and root recovery.  The kernel's
    refusal of a block raises, and so does the power-sum fault of the
    first row at fault in a block."""
    roots = np.empty((xi.size, p), dtype=complex)
    for start in range(0, xi.size, ROOT_BLOCK):
        block = slice(start, start + ROOT_BLOCK)
        sums = engine.moments(range(1, 2 * p + 1), xi[block])
        roots[block], faults = _fiber_roots(sums.T, p)
        if any(faults):
            raise FiberError(next(filter(None, faults)))
    return roots


def _match_steps(engine: MomentEngine, p: int, xi_from: np.ndarray,
                 roots_from: np.ndarray, xi_to: np.ndarray,
                 roots_to: np.ndarray, budget: int) -> np.ndarray:
    """The index map of each step (K, p): ``roots_to[k, choice[k, j]]``
    continues ``roots_from[k, j]``.  The midpoints of all unsafe steps are
    solved in one batch, both halves of every such step recurse in one
    call with budget - 1, and the maps of the halves compose.  An unsafe
    step with no budget left raises UNSAFE_STEP."""
    choice, unsafe = match_rows(roots_from, roots_to)
    halved = np.flatnonzero(unsafe)
    if not halved.size:
        return choice
    if budget <= 0:
        raise FiberError(UNSAFE_STEP)
    mid = 0.5 * (xi_from[halved] + xi_to[halved])
    mid_roots = _fibers_at(engine, p, mid)
    halves = _match_steps(
        engine, p, np.concatenate([xi_from[halved], mid]),
        np.concatenate([roots_from[halved], mid_roots]),
        np.concatenate([mid, xi_to[halved]]),
        np.concatenate([mid_roots, roots_to[halved]]), budget - 1)
    first, second = np.split(halves, 2)
    choice[halved] = np.take_along_axis(second, first, axis=1)
    return choice
