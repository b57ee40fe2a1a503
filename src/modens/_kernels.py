"""Numeric kernels: component and mixture CDFs, quantiles by one bracketed
root-finder, and the envelope solver for extreme mixture quantiles.

Component families are encoded as integers (``GAUSSIAN=0``, ``CAUCHY=1``)
and an ensemble of m members as parallel sequences ``fam``, ``loc`` and
``scale``.  The Gaussian quantile is the standard library's
``statistics.NormalDist().inv_cdf``; Cauchy quantiles are closed-form.

Two kernels run the one solver described below.  The scalar kernel (every
``*_s`` and ``*_k`` function) is ``math`` code on one ensemble: a single
row is small, and numpy's per-call overhead would dominate it, so the
single-row API stays on it.  The row-lockstep kernel (:func:`interval_rows`)
solves both ends of n rows that share their member families as one batch
of 2n problems in numpy, and drops each problem from the batch once it
has converged.  It takes the scalar kernel's steps from the same
brackets, but it sums the mixture masses with numpy rather than
``math.fsum``, so its endpoints agree with :func:`interval_k` within tol
rather than bit for bit; each row's endpoints depend on that row alone.

Extreme quantiles.  Fix q.  Over weights w in [lower, upper]^m with mean 1,
the mixture mass F_w(q) = m^-1 sum_j w_j F_j(q) is a linear program in w.
Its minimum puts ``upper`` on the members with the smallest masses F_j(q),
``lower`` on those with the largest, and one fractional weight between
them that keeps the mean at 1.  That rank pattern depends only on
(lower, upper, m) (:func:`rank_pattern`), so the minimum is the envelope

    G(q) = m^-1 sum_k p_k * sort(F_j(q))_k,

which is nondecreasing in q, and max_w F_w^{-1}(beta) = G^{-1}(beta).  The
reversed pattern gives max_w F_w(q) and with it min_w F_w^{-1}(beta).  This
is the threshold structure of sharp marginal-sensitivity weights (Tan 2006;
Dorn & Guo, quantile balancing).  Both envelopes are inverted by the same
root-finder as a plain mixture quantile: Chandrupatla's interpolation step
kept inside ITP's bisection-rate radius, to within tol/2 of the crossing.

Brackets.  Weights that are nonnegative with mean 1 make any mixture mass
m^-1 sum_j w_j F_j(q) a convex combination of the member CDFs, zero
weights included; an envelope is one too, of the sorted member CDFs.  So
every solve, envelope or plain mixture, starts between the smallest and
the largest member quantile Q_j(beta), padded by max(tol/2, 2 ulp)
against rounding in Q_j (which also opens the bracket of identical
members).  One routine, :func:`_tail_quantile`, runs all of them.

Upper tails.  Near beta = 1 the CDF F_j = 1 - S_j is a multiple of
ulp(1), which resolves a quantile at 1 - 1e-6 only to about 4e-5 * scale
in a Cauchy tail.  So for beta > 1/2 every solver works on survival
masses instead.  In both kernels a tail is a sign, and sign -1 gives
S_j(q) = F_std((q - l)*(-1)/s) (:func:`component_mass_s`,
:func:`signed_masses`): 1 - G(q) is the reversed pattern applied to the
ascending S_j, its target is the tail mass 1 - beta (exact for
beta >= 1/2), and the bracket is the members' points l - s*Q_std(1 - beta)
(:func:`component_point_s` at sign -1).  :func:`interval_k` passes alpha/2
itself as the upper tail mass.  Conversely, y lies in the interval iff
both envelope masses at y reach alpha/2, so the budgets at which it does
follow in closed form from the member masses at y (:func:`critical_budgets`).
"""

from __future__ import annotations

import math
from operator import mul
from statistics import NormalDist

import numpy as np

GAUSSIAN = 0
CAUCHY = 1

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# The ITP projection closes a bracket in n_max steps, which stays below this
# cap for any finite bracket and tol above the floating-point spacing.
_MAX_STEPS = 200
_MAX_WIDEN = 60


# Standard normal quantile: Wichura's AS241 (1988), within 1e-15 relative
# of scipy's ndtri from p = 1e-300 up to 1 - 1e-6.
norm_ppf = NormalDist().inv_cdf


def cauchy_cdf(z):
    # atan identities keep the tails accurate far from the location.
    if z < -1.0:
        return math.atan(-1.0 / z) / math.pi
    if z > 1.0:
        return 1.0 - math.atan(1.0 / z) / math.pi
    return 0.5 + math.atan(z) / math.pi


def cauchy_ppf(p):
    if p < 0.25:
        return -1.0 / math.tan(math.pi * p)
    if p > 0.75:
        return 1.0 / math.tan(math.pi * (1.0 - p))
    return math.tan(math.pi * (p - 0.5))


def component_mass_s(fam, loc, scale, y, sign=1.0):
    """F_std((y - loc)*sign/scale): the lower-tail mass F(y) at sign 1 and,
    both families being symmetric, the survival mass S(y) at sign -1, which
    keeps upper-tail masses accurate where 1 - F(y) would round to ulp(1)."""
    z = (y - loc) * sign / scale
    if fam == GAUSSIAN:
        return 0.5 * math.erfc(-z / _SQRT2)
    return cauchy_cdf(z)


def component_point_s(fam, loc, scale, p, sign=1.0):
    """loc + sign*scale*Q_std(p): the point with lower-tail mass p at sign 1
    and, by symmetry, upper-tail mass p at sign -1; Gaussians use
    ``NormalDist().inv_cdf``."""
    return loc + sign * scale * (norm_ppf(p) if fam == GAUSSIAN else cauchy_ppf(p))


def component_pdf_s(fam, loc, scale, y):
    z = (y - loc) / scale
    if fam == GAUSSIAN:
        return _INV_SQRT_2PI * math.exp(-0.5 * z * z) / scale
    return 1.0 / (math.pi * scale * (1.0 + z * z))


def mixture_pdf_k(fam, loc, scale, w, y):
    acc = 0.0
    for f, l, s, w_j in zip(fam, loc, scale, w):
        acc += w_j * component_pdf_s(f, l, s, y)
    return acc / len(fam)


def _halvings(width, tol):
    """ceil(log2(width / tol)), from the mantissas and exponents of width
    and tol, so that a quotient beyond the float range still has a size.
    The mantissa ratio is scaled into [1, 2), where log2 keeps its full
    relative precision near 1, the one place where rounding could move the
    ceil; where the quotient is a finite float, the count matched log2 of
    the quotient on every width near a power of two that the tests try."""
    mw, ew = math.frexp(width)
    mt, et = math.frexp(tol)
    ratio = mw / mt
    if ratio < 1.0:
        return math.ceil(math.log2(2.0 * ratio) + (ew - et - 1))
    return math.ceil(math.log2(ratio) + (ew - et))


def _bracketed_quantile(cdf, lo, hi, beta, tol):
    """The beta-crossing of a nondecreasing ``cdf``, to within tol/2,
    starting from the caller's bracket [lo, hi].

    Callers pass a bracket that straddles beta in exact arithmetic: the
    members' own quantiles at beta, between which any mixture with
    nonnegative mean-1 weights crosses, because its CDF is a convex
    combination of theirs (of the sorted ones, for an envelope).  Upper
    tails come as the negated survival mass against the negated tail
    mass, which keeps ``cdf`` nondecreasing and the tie rule below.
    Geometric widening about the bracket's centre backs that up against
    floating-point edge cases.

    Inside it, each step takes Chandrupatla's (1997) point: inverse
    quadratic interpolation through the last three points when they pass
    his smoothness test, else the midpoint.  The point is kept tol/2
    inside the bracket and projected into ITP's radius around the
    midpoint (Oliveira & Takahashi 2020), so no solve takes more than
    n_max = ceil(log2(W0/tol)) + 2 steps inside a bracket of width W0: two
    more than bisection.  ``cdf(x) < beta`` moves the lower end.  The loop
    stops at width <= tol and returns the midpoint, within tol/2 of the
    crossing.  Where tol is below the floating-point spacing of the
    bracket's ends (Cauchy ends near 1e300 at a tiny alpha), every step is
    the midpoint and the loop stops once the ends are adjacent floats: the
    result is the crossing to within that spacing.  Midpoints are taken as
    0.5*lo + 0.5*hi, halves first, so that ends beyond half the largest
    float keep a finite midpoint; away from the subnormal range that is
    the same float as 0.5*(lo + hi) wherever the latter is finite.
    """
    flo = cdf(lo)
    fhi = cdf(hi)
    widened = 0
    while (flo > beta or fhi < beta) and widened < _MAX_WIDEN:
        half = hi - lo
        center = 0.5 * lo + 0.5 * hi
        lo = center - half
        hi = center + half
        flo = cdf(lo)
        fhi = cdf(hi)
        widened += 1
    if flo > beta or fhi < beta:
        raise RuntimeError("mixture quantile bracket failed to straddle beta")
    # residuals f = cdf - beta; x1 is the newest point, x2 the other end of
    # the bracket and x3 the end that x1 replaced
    flo -= beta
    fhi -= beta
    x1, f1, x2, f2 = lo, flo, hi, fhi
    half_tol = 0.5 * tol
    n_max = _halvings(hi - lo, tol) + 2
    t = 0.5
    for j in range(_MAX_STEPS):
        width = hi - lo
        if width <= tol:
            break
        mid = 0.5 * lo + 0.5 * hi
        if mid <= lo or mid >= hi:  # floating-point spacing ran out
            break
        x = x1 + t * (x2 - x1)
        x = min(max(x, lo + half_tol), hi - half_tol)
        # the radius holds back two ulps of the bracket's larger end per
        # remaining halving: once the bound is tight, rounding of the later
        # midpoints would otherwise leave the bracket an ulp wider than tol
        # after n_max steps.  Where two ulps exceed tol/2 the step is the
        # midpoint; clamping that term at 0 keeps its scaling in range.
        r = math.ldexp(max(half_tol - 2.0 * math.ulp(max(-lo, hi)), 0.0), n_max - j) - 0.5 * width
        x = min(max(x, mid - r), mid + r) if r > 0.0 else mid
        if not lo < x < hi:
            x = mid
        fx = cdf(x) - beta
        if fx < 0.0:
            x3, f3 = lo, flo
            lo, flo = x, fx
            x2, f2 = hi, fhi
        else:
            x3, f3 = hi, fhi
            hi, fhi = x, fx
            x2, f2 = lo, flo
        x1, f1 = x, fx
        t = 0.5
        if f3 != f2:
            xi = (x1 - x2) / (x3 - x2)
            phi = (f1 - f2) / (f3 - f2)
            if phi * phi < xi and (1.0 - phi) * (1.0 - phi) < 1.0 - xi:
                t = (f1 / (f2 - f1) * f3 / (f2 - f3)
                     + (x3 - x1) / (x2 - x1) * f1 / (f3 - f1) * f2 / (f3 - f2))
    else:
        if hi - lo > tol:
            raise RuntimeError("mixture quantile bracket still open after "
                               f"{_MAX_STEPS} steps")
    return 0.5 * lo + 0.5 * hi


def rank_pattern(lower, upper, m):
    """Weights by ascending rank of member mass that minimise the mixture
    mass: k = floor(m(1-lower)/(upper-lower)) entries at ``upper``, one
    fractional entry that keeps the mean at 1, the rest at ``lower``."""
    span = upper - lower
    k = m if span <= 0.0 else min(int(m * (1.0 - lower) / span), m)
    if k == m:
        return [upper] * m
    frac = min(max(m - k * upper - (m - k - 1) * lower, lower), upper)
    return [upper] * k + [frac] + [lower] * (m - k - 1)


def _pattern(lower, upper, m, maximize):
    # the reversed pattern maximises the mass, which gives the minimum quantile
    p = rank_pattern(lower, upper, m)
    return p if maximize else p[::-1]


def _member_bracket(points, tol):
    # a mixture with nonnegative mean-1 weights is a convex combination of
    # the member masses (the sorted ones, for an envelope), so it crosses
    # its target between the members' own crossings; the pad covers their
    # rounding and opens the bracket of identical members
    lo = min(points)
    hi = max(points)
    return (lo - max(0.5 * tol, 2.0 * math.ulp(lo)),
            hi + max(0.5 * tol, 2.0 * math.ulp(hi)))


def weighted_mass(weights, masses):
    """m^-1 sum_j weights_j * masses_j: the mixture mass of member masses
    lined up with their weights (ascending, under a rank pattern)."""
    return math.fsum(map(mul, weights, masses)) / len(weights)


def _tail_quantile(members, weights, order, mass, tol, sign):
    """Where the mixture's tail mass m^-1 sum_k weights_k * order(masses)_k
    reaches ``mass``: the lower-tail masses F_j(q) rising through it at
    ``sign`` 1, or the survival masses S_j(q) falling through it at ``sign``
    -1, solved as their negation rising through -mass so that the
    root-finder's tie rule still leaves the lower end below the crossing.
    ``order`` lines the member masses up with ``weights``: ``sorted`` for a
    rank pattern, ``list`` (member order) for a plain mixture.  The bracket
    is the members' own points with that tail mass."""
    points = [component_point_s(f, l, s, mass, sign) for f, l, s in members]
    lo, hi = _member_bracket(points, tol)
    if not math.isfinite(hi - lo):
        raise ValueError(f"the members' quantiles at tail mass {mass!r} are out of "
                         "floating-point range")

    def signed_mass(q):
        masses = [component_mass_s(f, l, s, q, sign) for f, l, s in members]
        return sign * weighted_mass(weights, order(masses))

    return _bracketed_quantile(signed_mass, lo, hi, sign * mass, tol)


def mixture_quantile_k(fam, loc, scale, w, beta, tol):
    """beta-quantile of the mixture with nonnegative weights ``w`` of mean
    1, in member order; for beta > 1/2 the solve runs on the mixture's
    upper-tail mass 1 - beta."""
    members = list(zip(fam, loc, scale))
    if beta <= 0.5:
        return _tail_quantile(members, w, list, beta, tol, 1.0)
    return _tail_quantile(members, w, list, 1.0 - beta, tol, -1.0)


def extreme_quantile_k(fam, loc, scale, lower, upper, beta, tol, maximize):
    """Largest (``maximize``) or smallest beta-quantile of the mixture over
    weights in [lower, upper] with mean 1: the beta-crossing of the
    envelope G(q) = m^-1 sum_k p_k * sort(F_j(q))_k, or for beta > 1/2 the
    (1-beta)-crossing of 1 - G(q) = m^-1 sum_k p_{m-1-k} * sort(S_j(q))_k."""
    p = _pattern(lower, upper, len(fam), maximize)
    members = list(zip(fam, loc, scale))
    if beta <= 0.5:
        return _tail_quantile(members, p, sorted, beta, tol, 1.0)
    return _tail_quantile(members, p[::-1], sorted, 1.0 - beta, tol, -1.0)


def rank_weights_k(fam, loc, scale, lower, upper, q, maximize):
    """The weights attaining the envelope at q: the rank pattern placed by
    the stable ascending order of the member masses F_j(q)."""
    m = len(fam)
    p = _pattern(lower, upper, m, maximize)
    masses = [component_mass_s(f, l, s, q) for f, l, s in zip(fam, loc, scale)]
    w = [0.0] * m
    for rank, j in enumerate(sorted(range(m), key=masses.__getitem__)):
        w[j] = p[rank]
    return w


def interval_k(fam, loc, scale, lower, upper, alpha, tol):
    """(min quantile(alpha/2), max quantile(1-alpha/2)) of one ensemble.
    Both ends invert the largest tail mass over the weights, lower and
    upper, at the tail mass alpha/2 itself.  Raises ValueError naming
    alpha where the members' alpha/2 points, or the width of the bracket
    between them, are not finite floats."""
    p = rank_pattern(lower, upper, len(fam))[::-1]
    members = list(zip(fam, loc, scale))
    try:
        lo = _tail_quantile(members, p, sorted, alpha / 2.0, tol, 1.0)
        hi = _tail_quantile(members, p, sorted, alpha / 2.0, tol, -1.0)
    except ValueError as exc:
        raise ValueError(f"alpha={alpha!r}: {exc}") from None
    if lo > hi:  # identical degenerate setups can cross by solver noise
        lo = hi = 0.5 * lo + 0.5 * hi
    return lo, hi


# ---------------------------------------------------- row-lockstep kernel

def _cauchy_cdf_array(z):
    # cauchy_cdf's atan identities, without dividing by z where |z| <= 1
    far = np.abs(z) > 1.0
    inv = np.divide(1.0, z, out=np.zeros_like(z), where=far)
    below = z < -1.0
    a = np.arctan(np.where(below, -inv, np.where(far, inv, z))) / math.pi
    return np.where(below, a, np.where(far, 1.0 - a, 0.5 + a))


def signed_masses(fam, locs, scales, x, sign):
    """Member tail masses of (k, m) ensembles at the points x (k,), by the
    formula of ``component_mass_s``: the lower-tail masses F_j(x) where
    ``sign`` is 1 and the survival masses S_j(x) where it is -1.  Column j
    is in family ``fam[j]``; Gaussian masses are ``math.erfc``'s, element
    by element."""
    # a far end over a tiny scale overflows z to +-inf: mass 0 or 1, exactly
    with np.errstate(over="ignore"):
        z = (x[:, None] - locs) * np.reshape(sign, (-1, 1)) / scales
    gauss = fam == GAUSSIAN
    if not gauss.any():
        return _cauchy_cdf_array(z)
    out = np.empty_like(z)
    w = -z[:, gauss] / _SQRT2
    out[:, gauss] = 0.5 * np.fromiter(map(math.erfc, w.ravel().tolist()), np.float64,
                                      w.size).reshape(w.shape)
    out[:, ~gauss] = _cauchy_cdf_array(z[:, ~gauss])
    return out


def rank_pattern_rows(lowers, uppers, m):
    """:func:`rank_pattern` of each row's bounds, as an (n, m) matrix."""
    span = uppers - lowers
    k = np.minimum(np.floor(np.divide(m * (1.0 - lowers), span, out=np.full_like(span, m),
                                      where=span > 0.0)), m)
    frac = np.minimum(np.maximum(m - k * uppers - (m - k - 1) * lowers, lowers), uppers)
    rank = np.arange(m)
    k = k[:, None]
    return np.where(rank < k, uppers[:, None],
                    np.where(rank == k, frac[:, None], lowers[:, None]))


def critical_budgets(masses, e, half):
    """The smallest MSM budget gamma >= 1 at which each row's largest tail
    mass over the weights reaches ``half`` (+inf where none does), from its
    ascending member masses (n, m) and clamped propensity ``e`` (n,).

    k = floor(m/(gamma+1)) members take the upper bound whatever e, so on
    each of the floor(m/2)+1 stretches of [1, inf) where k is fixed,
    gamma*(mass - half) = a*gamma^2 + b*gamma + c with a = (1-e)(T - k*c_f)/m,
    b = e*mean + (1-e)*c_f - half and c = (1-e)(B - (m-k-1)*c_f)/m: c_f is
    the fractional member's mass, T the sum of the k above it and B of
    those below, so a >= 0 >= c.  Within a stretch the mass reaches half
    at its left end, at the larger root or never; it is nondecreasing in
    gamma, so the earliest over the stretches is the budget."""
    n, m = masses.shape
    k = np.arange(m // 2 + 1)
    zero = np.zeros((n, 1))
    above = np.concatenate([zero, np.cumsum(masses[:, ::-1], axis=1)], axis=1)[:, k]
    below = np.concatenate([zero, np.cumsum(masses, axis=1)], axis=1)[:, m - k - 1]
    frac = masses[:, m - k - 1]
    free = (1.0 - e)[:, None]
    # cumsum differences round: clamp to the signs the sorted masses give
    a = free * np.maximum(above - k * frac, 0.0) / m
    c = free * np.minimum(below - (m - k - 1) * frac, 0.0) / m
    b = (e * masses.mean(axis=1))[:, None] + free * frac - half
    left = np.maximum(m / (k + 1.0) - 1.0, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        right = np.where(k > 0, m / k - 1.0, np.inf)
        # sqrt(b^2 - 4ac) without squaring, which underflows at tiny alpha
        sq = np.hypot(b, 2.0 * np.sqrt(a) * np.sqrt(-c))
        root = np.where(b >= 0.0, -2.0 * c / (b + sq), (sq - b) / (2.0 * a))
    reached = np.where(root < right, root, np.inf)
    return np.where((a * left + b) * left + c >= 0.0, left, reached).min(axis=1)


def _halvings_rows(width, tol):
    """:func:`_halvings` of each element, as int64."""
    mw, ew = np.frexp(width)
    mt, et = np.frexp(tol)
    ratio = mw / mt
    below = ratio < 1.0
    return np.ceil(np.log2(np.where(below, 2.0 * ratio, ratio))
                   + (ew.astype(np.int64) - et - below)).astype(np.int64)


def interval_rows(fam, locs, scales, lowers, uppers, alpha, tol):
    """:func:`interval_k` for each row of the (n, m) member ``locs`` and
    ``scales`` (families ``fam`` shared by all rows) under the row's
    bounds and tolerance ``tol[i]``, both ends of every row solved in
    lockstep.

    The lower ends and the upper ends, the latter as negated survival
    masses as in :func:`_tail_quantile`, are 2n problems of one root-finder
    loop: :func:`_bracketed_quantile`'s widening, Chandrupatla step, ITP
    radius, tie rule and stop, applied to arrays.  A problem leaves the
    arrays once its bracket has closed, so late steps touch only the
    problems still open."""
    n, m = locs.shape
    half = alpha / 2.0
    # member points with tail mass alpha/2: l + s*z below, l - s*z above
    z = np.where(fam == GAUSSIAN, norm_ppf(half), cauchy_ppf(half))
    tol = np.concatenate([tol, tol])
    with np.errstate(over="ignore", invalid="ignore"):
        points = np.concatenate([locs + scales * z, locs - scales * z])
        lo = points.min(axis=1)
        hi = points.max(axis=1)
        lo = lo - np.maximum(0.5 * tol, 2.0 * np.spacing(np.abs(lo)))
        hi = hi + np.maximum(0.5 * tol, 2.0 * np.spacing(np.abs(hi)))
        solvable = np.isfinite(hi - lo).all()
    if not solvable:
        raise ValueError(f"alpha={alpha!r}: the members' quantiles at tail mass {half!r} "
                         "are out of floating-point range")
    weights = rank_pattern_rows(lowers, uppers, m)[:, ::-1]
    weights = np.concatenate([weights, weights])
    locs = np.concatenate([locs, locs])
    scales = np.concatenate([scales, scales])
    sign = np.repeat([1.0, -1.0], n)
    beta = sign * half

    def mass(x, rows=slice(None)):
        masses = signed_masses(fam, locs[rows], scales[rows], x, sign[rows])
        return sign[rows] * (weights[rows] * np.sort(masses, axis=1)).sum(axis=1) / m

    flo = mass(lo)
    fhi = mass(hi)
    for _ in range(_MAX_WIDEN):
        open_ = np.flatnonzero((flo > beta) | (fhi < beta))
        if open_.size == 0:
            break
        width = hi[open_] - lo[open_]
        center = 0.5 * lo[open_] + 0.5 * hi[open_]
        lo[open_] = center - width
        hi[open_] = center + width
        flo[open_] = mass(lo[open_], open_)
        fhi[open_] = mass(hi[open_], open_)
    if np.any((flo > beta) | (fhi < beta)):
        raise RuntimeError("mixture quantile bracket failed to straddle beta")

    out = np.empty(2 * n)
    rows = np.arange(2 * n)
    flo = flo - beta
    fhi = fhi - beta
    x1, f1, x2, f2 = lo, flo, hi, fhi
    n_max = _halvings_rows(hi - lo, tol) + 2
    t = np.full(2 * n, 0.5)
    for j in range(_MAX_STEPS):
        width = hi - lo
        mid = 0.5 * lo + 0.5 * hi
        closed = (width <= tol) | (mid <= lo) | (mid >= hi)
        if closed.any():
            out[rows[closed]] = mid[closed]
            keep = ~closed
            (rows, lo, hi, flo, fhi, x1, f1, x2, f2, t, tol, n_max, width, mid,
             locs, scales, weights, sign, beta) = (
                a[keep] for a in (rows, lo, hi, flo, fhi, x1, f1, x2, f2, t, tol, n_max,
                                  width, mid, locs, scales, weights, sign, beta))
            if rows.size == 0:
                break
        half_tol = 0.5 * tol
        x = x1 + t * (x2 - x1)
        x = np.minimum(np.maximum(x, lo + half_tol), hi - half_tol)
        r = np.ldexp(np.maximum(half_tol - 2.0 * np.spacing(np.maximum(-lo, hi)), 0.0),
                     n_max - j) - 0.5 * width
        x = np.where(r > 0.0, np.minimum(np.maximum(x, mid - r), mid + r), mid)
        x = np.where((lo < x) & (x < hi), x, mid)
        fx = mass(x) - beta
        left = fx < 0.0
        x3 = np.where(left, lo, hi)
        f3 = np.where(left, flo, fhi)
        x2 = np.where(left, hi, lo)
        f2 = np.where(left, fhi, flo)
        lo = np.where(left, x, lo)
        flo = np.where(left, fx, flo)
        hi = np.where(left, hi, x)
        fhi = np.where(left, fhi, fx)
        x1, f1 = x, fx
        # every row takes the formula; rows that fail the test (f3 == f2
        # among them) discard its inf or NaN and take the midpoint
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            xi = (x1 - x2) / (x3 - x2)
            phi = (f1 - f2) / (f3 - f2)
            iqi = (f3 != f2) & (phi * phi < xi) & ((1.0 - phi) * (1.0 - phi) < 1.0 - xi)
            t = np.where(iqi, f1 / (f2 - f1) * f3 / (f2 - f3)
                         + (x3 - x1) / (x2 - x1) * f1 / (f3 - f1) * f2 / (f3 - f2), 0.5)
    else:
        if np.any(hi - lo > tol):
            raise RuntimeError("mixture quantile bracket still open after "
                               f"{_MAX_STEPS} steps")
        out[rows] = 0.5 * lo + 0.5 * hi
    lo_end, hi_end = out[:n], out[n:]
    crossed = lo_end > hi_end   # identical degenerate setups can cross by solver noise
    lo_end[crossed] = hi_end[crossed] = 0.5 * lo_end[crossed] + 0.5 * hi_end[crossed]
    return lo_end, hi_end
