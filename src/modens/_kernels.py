"""Numeric kernels: component and mixture CDFs, quantiles by one bracketed
root-finder, and the envelope solver for extreme mixture quantiles.

Component families are encoded as integers (``GAUSSIAN=0``, ``CAUCHY=1``)
and an ensemble of m members as parallel sequences ``fam``, ``loc`` and
``scale``.  Everything is scalar ``math`` code: per call the ensembles are
small, and numpy's per-call overhead would dominate.  The Gaussian quantile
is the standard library's ``statistics.NormalDist().inv_cdf``; Cauchy
quantiles are closed-form.

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
masses S_j(q) = F_std((l - q)/s) instead: 1 - G(q) is the reversed
pattern applied to the ascending S_j, its target is the tail mass
1 - beta (exact for beta >= 1/2), and the bracket is the members'
inverse-survival points.  :func:`interval_k` passes alpha/2 itself as the
upper tail mass.  Conversely, whether an outcome y lies in the interval
follows from the two envelope masses at y alone (:func:`covered_k`).
"""

from __future__ import annotations

import math
from operator import mul
from statistics import NormalDist

GAUSSIAN = 0
CAUCHY = 1

_SQRT2 = math.sqrt(2.0)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
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


def component_cdf_s(fam, loc, scale, y):
    z = (y - loc) / scale
    if fam == GAUSSIAN:
        return 0.5 * math.erfc(-z / _SQRT2)
    return cauchy_cdf(z)


def component_sf_s(fam, loc, scale, y):
    # both families are symmetric: S(y) = F_std((loc - y)/scale), which keeps
    # upper-tail masses accurate where 1 - F(y) would round to ulp(1)
    z = (loc - y) / scale
    if fam == GAUSSIAN:
        return 0.5 * math.erfc(-z / _SQRT2)
    return cauchy_cdf(z)


def component_ppf_s(fam, loc, scale, p):
    """The point with lower-tail mass p; Gaussians use ``NormalDist().inv_cdf``."""
    if fam == GAUSSIAN:
        return loc + scale * norm_ppf(p)
    return loc + scale * cauchy_ppf(p)


def component_isf_s(fam, loc, scale, p):
    """The point with upper-tail mass p, by symmetry of the family;
    Gaussians use ``NormalDist().inv_cdf``."""
    if fam == GAUSSIAN:
        return loc - scale * norm_ppf(p)
    return loc - scale * cauchy_ppf(p)


def component_pdf_s(fam, loc, scale, y):
    z = (y - loc) / scale
    if fam == GAUSSIAN:
        return _INV_SQRT_2PI * math.exp(-0.5 * z * z) / scale
    return 1.0 / (math.pi * scale * (1.0 + z * z))


def component_logpdf_s(fam, loc, scale, y):
    z = (y - loc) / scale
    if fam == GAUSSIAN:
        return -0.5 * z * z - math.log(scale) - _LOG_SQRT_2PI
    return -math.log(math.pi * scale) - math.log1p(z * z)


def mixture_pdf_k(fam, loc, scale, w, y):
    acc = 0.0
    for f, l, s, w_j in zip(fam, loc, scale, w):
        acc += w_j * component_pdf_s(f, l, s, y)
    return acc / len(fam)


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
    crossing.
    """
    flo = cdf(lo)
    fhi = cdf(hi)
    widened = 0
    while (flo > beta or fhi < beta) and widened < _MAX_WIDEN:
        half = hi - lo
        center = 0.5 * (lo + hi)
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
    n_max = math.ceil(math.log2((hi - lo) / tol)) + 2
    t = 0.5
    for j in range(_MAX_STEPS):
        width = hi - lo
        if width <= tol:
            break
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:  # floating-point spacing ran out
            break
        x = x1 + t * (x2 - x1)
        x = min(max(x, lo + half_tol), hi - half_tol)
        # the radius holds back two ulps of the bracket's larger end per
        # remaining halving: once the bound is tight, rounding of the later
        # midpoints would otherwise leave the bracket an ulp wider than tol
        # after n_max steps
        r = math.ldexp(half_tol - 2.0 * math.ulp(max(-lo, hi)), n_max - j) - 0.5 * width
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
    return 0.5 * (lo + hi)


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


def _tail_quantile(members, weights, order, mass, tol, upper):
    """Where the mixture's tail mass m^-1 sum_k weights_k * order(masses)_k
    reaches ``mass``: the lower-tail masses F_j(q) rising through it, or
    (``upper``) the survival masses S_j(q) falling through it, solved as
    their negation rising through -mass so that the root-finder's tie rule
    still leaves the lower end below the crossing.  ``order`` lines the
    member masses up with ``weights``: ``sorted`` for a rank pattern,
    ``list`` (member order) for a plain mixture.  The bracket is the
    members' own points with that tail mass."""
    if upper:
        point, tail, sign = component_isf_s, component_sf_s, -1.0
    else:
        point, tail, sign = component_ppf_s, component_cdf_s, 1.0
    lo, hi = _member_bracket([point(f, l, s, mass) for f, l, s in members], tol)

    def signed_mass(q):
        return sign * weighted_mass(weights, order([tail(f, l, s, q) for f, l, s in members]))

    return _bracketed_quantile(signed_mass, lo, hi, sign * mass, tol)


def mixture_quantile_k(fam, loc, scale, w, beta, tol):
    """beta-quantile of the mixture with nonnegative weights ``w`` of mean
    1, in member order; for beta > 1/2 the solve runs on the mixture's
    upper-tail mass 1 - beta."""
    members = list(zip(fam, loc, scale))
    if beta <= 0.5:
        return _tail_quantile(members, w, list, beta, tol, upper=False)
    return _tail_quantile(members, w, list, 1.0 - beta, tol, upper=True)


def extreme_quantile_k(fam, loc, scale, lower, upper, beta, tol, maximize):
    """Largest (``maximize``) or smallest beta-quantile of the mixture over
    weights in [lower, upper] with mean 1: the beta-crossing of the
    envelope G(q) = m^-1 sum_k p_k * sort(F_j(q))_k, or for beta > 1/2 the
    (1-beta)-crossing of 1 - G(q) = m^-1 sum_k p_{m-1-k} * sort(S_j(q))_k."""
    p = _pattern(lower, upper, len(fam), maximize)
    members = list(zip(fam, loc, scale))
    if beta <= 0.5:
        return _tail_quantile(members, p, sorted, beta, tol, upper=False)
    return _tail_quantile(members, p[::-1], sorted, 1.0 - beta, tol, upper=True)


def covered_k(masses, sf_masses, lower, upper, alpha):
    """Whether an outcome lies in ``interval_k``'s interval, decided from
    its ascending member masses F_j(y) and S_j(y) = 1 - F_j(y) without
    solving the interval: the largest lower-tail mass over the weights
    reaches alpha/2 (the outcome is at or above the min alpha/2-quantile)
    and so does the largest upper-tail mass (at or below the max
    (1-alpha/2)-quantile).  These are the masses and targets the solver
    inverts, so the two agree unless the outcome lies within the solver's
    tol/2 of an endpoint."""
    p = rank_pattern(lower, upper, len(masses))[::-1]
    half = alpha / 2.0
    return weighted_mass(p, masses) >= half and weighted_mass(p, sf_masses) >= half


def rank_weights_k(fam, loc, scale, lower, upper, q, maximize):
    """The weights attaining the envelope at q: the rank pattern placed by
    the stable ascending order of the member masses F_j(q)."""
    m = len(fam)
    p = _pattern(lower, upper, m, maximize)
    masses = [component_cdf_s(f, l, s, q) for f, l, s in zip(fam, loc, scale)]
    w = [0.0] * m
    for rank, j in enumerate(sorted(range(m), key=masses.__getitem__)):
        w[j] = p[rank]
    return w


def interval_k(fam, loc, scale, lower, upper, alpha, tol):
    """(min quantile(alpha/2), max quantile(1-alpha/2)) of one ensemble.
    Both ends invert the largest tail mass over the weights, lower and
    upper, at the tail mass alpha/2 itself."""
    p = rank_pattern(lower, upper, len(fam))[::-1]
    members = list(zip(fam, loc, scale))
    lo = _tail_quantile(members, p, sorted, alpha / 2.0, tol, upper=False)
    hi = _tail_quantile(members, p, sorted, alpha / 2.0, tol, upper=True)
    if lo > hi:  # identical degenerate setups can cross by solver noise
        lo = hi = 0.5 * (lo + hi)
    return lo, hi
