"""The bracketed root-finder behind every mixture and envelope quantile.

Each solve is checked three ways: the certificate G(q - tol/2) < beta <=
G(q + tol/2) on the function the solver inverted, the scipy oracle on the
mixture with the weights that attain the envelope at q, and the evaluation
budget n_max = ceil(log2(W0/tol)) + 2 of the steps inside the initial
bracket [x0, x0 + W0] (the solver's first two evaluations).
"""

import math
import types

import numpy as np
import pytest

from modens import (PROPENSITY_CLAMP, ComponentDistribution, Family, SensitivityConfig,
                    default_quantile_tol, modulated_intervals_batch, msm_bounds,
                    msm_bounds_arrays)
from modens import _kernels as K
from modens.dist import QUANTILE_TOL_REL, pack_components

import oracles

G = Family.GAUSSIAN
C = Family.CAUCHY


def g(loc, scale=1.0):
    return ComponentDistribution(G, loc, scale)


def c(loc, scale=1.0):
    return ComponentDistribution(C, loc, scale)


class Recorder:
    """Wraps ``_kernels._bracketed_quantile`` so that every solve keeps the
    function it inverted, the points it evaluated and its answer."""

    def __init__(self, monkeypatch):
        self.solves = []
        solve = K._bracketed_quantile

        def recording(cdf, lo, hi, beta, tol):
            xs = []

            def counted(x):
                xs.append(x)
                return cdf(x)

            q = solve(counted, lo, hi, beta, tol)
            self.solves.append((cdf, xs, beta, tol, q))
            return q

        monkeypatch.setattr(K, "_bracketed_quantile", recording)


def assert_certificate_and_budget(cdf, xs, beta, tol, q):
    steps = len(xs) - 2
    below, above = q - tol / 2, q + tol / 2
    if below < q:
        assert cdf(below) < beta
    if above > q:
        assert beta <= cdf(above)
    x0, x1 = xs[0], xs[1]
    assert cdf(x0) <= beta <= cdf(x1), "the bracket needed widening"
    n_max = math.ceil(math.log2((x1 - x0) / tol)) + 2
    assert steps <= n_max


MID = msm_bounds(0.3, SensitivityConfig(4.0))
CLAMPED_50 = msm_bounds(PROPENSITY_CLAMP, SensitivityConfig(50.0))
CASES = {
    "scale-floor-next-to-1e3": ([g(0.0, 1e-6), c(0.5, 1e3), g(-1.0, 1e3), c(2.0, 1.0)],
                                MID, (0.3, 0.5, 0.9)),
    "identical-members": ([c(1.0, 2.0)] * 5, MID, (0.1, 0.8)),
    "cauchy-tails": ([c(-1.0, 0.5), c(0.0, 1.0), c(2.0, 3.0)], MID, (1e-6, 1.0 - 1e-6)),
    "gamma-50-clamped-propensity": ([g(-1.0, 0.5), c(0.3, 2.0), g(2.0, 1.5), c(-0.5, 0.7)],
                                    CLAMPED_50, (0.05, 0.5, 0.95)),
    "locations-near-1e4": ([g(1e4, 1.0), c(1e4 + 3.0, 0.5), g(1e4 - 2.0, 2.0)],
                           MID, (0.05, 0.5, 0.95)),
}


def oracle_slack(comps, weights, q, beta):
    """tol/2 is the solver's accuracy; beyond it allow 1e-12, plus, where
    the mixture CDF is within 1e-3 of 1, its floating-point resolution there
    (one unit in the last place of 1, over the density).  At beta = 1 - 1e-6
    in a scale-1 Cauchy tail that resolution is about 4e-5 in x: no CDF
    evaluated in double precision places the quantile more tightly."""
    slack = 1e-12
    if beta > 1.0 - 1e-3:
        slack += 4.0 * math.ulp(1.0) / oracles.mixture_pdf_ref(comps, weights, q)
    return slack


@pytest.mark.parametrize("name", list(CASES))
@pytest.mark.parametrize("maximize", [True, False], ids=["max", "min"])
def test_envelope_quantile_edges(monkeypatch, name, maximize):
    comps, bounds, betas = CASES[name]
    fam, loc, scale = pack_components(comps)
    tol = default_quantile_tol(comps)
    rec = Recorder(monkeypatch)
    for beta in betas:
        q = K.extreme_quantile_k(fam, loc, scale, bounds.lower, bounds.upper, beta, tol,
                                 maximize)
        cdf, xs, target, _, q_solved = rec.solves[-1]
        assert q == q_solved
        assert_certificate_and_budget(cdf, xs, target, tol, q)
        w = K.rank_weights_k(fam, loc, scale, bounds.lower, bounds.upper, q, maximize)
        ref = oracles.mixture_quantile_ref(comps, w, beta)
        assert abs(q - ref) <= tol / 2 + oracle_slack(comps, w, q, beta)


UPPER_TAIL_CASES = {
    "cauchy-tails": CASES["cauchy-tails"][0],
    "mixed": [g(0.0, 1.0), c(1.0, 0.5), g(-2.0, 2.0), c(3.0, 2.0)],
}


@pytest.mark.parametrize("name", list(UPPER_TAIL_CASES))
def test_upper_tail_quantiles_match_the_survival_oracle(name):
    # solved on survival masses, the quantile at 1 - 1e-6 is resolved to
    # the solver tolerance, with no allowance for the CDF's rounding near 1
    comps = UPPER_TAIL_CASES[name]
    fam, loc, scale = pack_components(comps)
    tol = default_quantile_tol(comps)
    beta = 1.0 - 1e-6
    for maximize in (True, False):
        q = K.extreme_quantile_k(fam, loc, scale, MID.lower, MID.upper, beta, tol, maximize)
        w = K.rank_weights_k(fam, loc, scale, MID.lower, MID.upper, q, maximize)
        ref = oracles.mixture_quantile_sf_ref(comps, w, beta)
        assert abs(q - ref) <= tol / 2 + 1e-12 * (1.0 + abs(q))
    w = K.rank_pattern(MID.lower, MID.upper, len(comps))
    q = K.mixture_quantile_k(fam, loc, scale, w, beta, tol)
    ref = oracles.mixture_quantile_sf_ref(comps, w, beta)
    assert abs(q - ref) <= tol / 2 + 1e-12 * (1.0 + abs(q))


def bracket_corpus(rng, n):
    """Ensembles of 1 to 10 mixed members, in turn plain, with a member at
    the 1e-6 scale floor, all members identical, all at the floor, and
    located near 1e8; each with MSM bounds at a propensity on either clamp
    or inside, under a gamma of 1, 50 or in between."""
    for i in range(n):
        m = int(rng.integers(1, 11))
        comps = oracles.random_components(rng, m)
        kind = i % 5
        if kind == 1:
            comps[0] = ComponentDistribution(comps[0].family, comps[0].location, 1e-6)
        elif kind == 2:
            comps = [comps[0]] * m
        elif kind == 3:
            comps = [ComponentDistribution(d.family, d.location, 1e-6) for d in comps]
        elif kind == 4:
            comps = [ComponentDistribution(d.family, d.location + 1e8, d.scale) for d in comps]
        e = (PROPENSITY_CLAMP, 1.0 - PROPENSITY_CLAMP, float(rng.uniform()))[i % 3]
        gamma = (1.0, 50.0, float(rng.uniform(1.0, 50.0)))[(i // 3) % 3]
        yield comps, msm_bounds(e, SensitivityConfig(gamma))


def test_envelope_brackets_straddle_without_widening(monkeypatch):
    rng = np.random.default_rng(2024)
    rec = Recorder(monkeypatch)
    for comps, bounds in bracket_corpus(rng, 200):
        fam, loc, scale = pack_components(comps)
        tol = default_quantile_tol(comps)
        for beta in (1e-6, 0.01, 0.5, 0.99, 1.0 - 1e-6):
            for maximize in (True, False):
                K.extreme_quantile_k(fam, loc, scale, bounds.lower, bounds.upper, beta, tol,
                                     maximize)
                assert_certificate_and_budget(*rec.solves[-1])
    # the same bracket holds for a plain mixture with any nonnegative mean-1
    # weights: the LP vertex, and weights with a zero entry, drawn off round
    # values whose partial sums would leave the CDF flat at beta = 1/2 and
    # the oracle's root anywhere on the flat stretch.  One cycle of the
    # corpus's kinds, propensities and gammas.  Near 1e8 adjacent doubles
    # are wider than tol, so q may differ from the oracle by one spacing
    # more, plus brentq's relative tolerance 4 eps |q|.
    rng = np.random.default_rng(2024)
    weight_rng = np.random.default_rng(5)
    for comps, bounds in bracket_corpus(rng, 45):
        fam, loc, scale = pack_components(comps)
        tol = default_quantile_tol(comps)
        m = len(comps)
        weightings = [K.rank_pattern(bounds.lower, bounds.upper, m)]
        if m > 1:
            w = weight_rng.uniform(0.5, 1.5, m)
            w[0] = 0.0
            weightings.append((w * (m / w.sum())).tolist())
        for beta in (1e-6, 0.01, 0.5, 0.99, 1.0 - 1e-6):
            ref_quantile = (oracles.mixture_quantile_ref if beta <= 0.5
                            else oracles.mixture_quantile_sf_ref)
            for w in weightings:
                q = K.mixture_quantile_k(fam, loc, scale, w, beta, tol)
                assert_certificate_and_budget(*rec.solves[-1])
                spacing = math.ulp(q) + 4.0 * math.ulp(1.0) * abs(q)
                assert (abs(q - ref_quantile(comps, w, beta))
                        <= tol / 2 + oracle_slack(comps, w, q, beta) + spacing)


@pytest.mark.parametrize("name", list(CASES))
def test_plain_mixture_quantile_edges(monkeypatch, name):
    comps, bounds, betas = CASES[name]
    fam, loc, scale = pack_components(comps)
    tol = default_quantile_tol(comps)
    m = len(comps)
    # a vertex of the admissible weights: k members at the upper bound, one
    # fractional, the rest at the lower
    w = K.rank_pattern(bounds.lower, bounds.upper, m)
    assert all(bounds.lower <= w_j <= bounds.upper for w_j in w)
    assert math.fsum(w) / m == pytest.approx(1.0, abs=1e-12)
    rec = Recorder(monkeypatch)
    for beta in betas:
        q = K.mixture_quantile_k(fam, loc, scale, w, beta, tol)
        assert_certificate_and_budget(*rec.solves[-1])
        ref = oracles.mixture_quantile_ref(comps, w, beta)
        assert abs(q - ref) <= tol / 2 + oracle_slack(comps, w, q, beta)


def gauss_10_bracket(beta):
    """The Gaussian(0, 10) quantiles at beta and 1 - beta (beta < 1/2)."""
    return 10.0 * K.norm_ppf(beta), 10.0 * K.norm_ppf(1.0 - beta)


@pytest.mark.parametrize("crossing", [0.123456789, -2.5, 2.2])
def test_step_cdf_closes_within_budget(crossing):
    # a single jump: interpolation sees no slope and learns nothing
    xs = []

    def step(x):
        xs.append(x)
        return 0.0 if x < crossing else 1.0

    tol = 1e-9
    q = K._bracketed_quantile(step, *gauss_10_bracket(0.4), 0.4, tol)
    assert_certificate_and_budget(step, xs, 0.4, tol, q)
    assert abs(q - crossing) <= tol / 2


def test_staircase_cdf_closes_within_budget():
    xs = []

    def stairs(x):
        xs.append(x)
        return min(max(math.floor(4.0 * x) / 40.0 + 0.5, 0.0), 1.0)

    tol = 1e-9
    q = K._bracketed_quantile(stairs, *gauss_10_bracket(0.3), 0.3, tol)
    assert_certificate_and_budget(stairs, xs, 0.3, tol, q)
    assert abs(q - (-2.0)) <= tol / 2


def test_open_bracket_raises(monkeypatch):
    monkeypatch.setattr(K, "_MAX_STEPS", 3)
    with pytest.raises(RuntimeError, match="still open"):
        K._bracketed_quantile(lambda x: float(x >= 0.1), *gauss_10_bracket(0.4), 0.4, 1e-9)


@pytest.mark.parametrize("lo, hi", [(-1.0, 1.0), (10.0, 10.5)], ids=["below", "above"])
def test_one_sided_bracket_widens_to_the_crossing(lo, hi):
    # the Gaussian(7.3, 1) CDF crosses 0.3 outside the bracket
    crossing = 7.3 + K.norm_ppf(0.3)
    xs = []

    def cdf(x):
        xs.append(x)
        return 0.5 * math.erfc(-(x - 7.3) / math.sqrt(2.0))

    tol = 1e-9
    q = K._bracketed_quantile(cdf, lo, hi, 0.3, tol)
    assert not lo <= crossing <= hi
    assert min(xs) < lo or max(xs) > hi
    assert abs(q - crossing) <= tol / 2 + 4.0 * math.ulp(crossing)


def member_points_off_the_crossing(monkeypatch, shift):
    """Shift the standard quantiles the batch kernel starts from, so that
    each end's bracket of member points lies wholly past its crossing,
    toward the other end."""
    for name in ("norm_ppf", "cauchy_ppf"):
        real = getattr(K, name)
        monkeypatch.setattr(K, name, lambda p, real=real: real(p) + shift)


def batch_rows():
    rng = np.random.default_rng(31)
    fam = np.array([0, 1, 0, 1])
    locs = rng.normal(0.0, 3.0, (6, 4))
    scales = 0.2 + np.abs(rng.normal(0.0, 1.5, (6, 4)))
    locs[5], scales[5] = locs[5, 0], scales[5, 0]   # identical members
    lowers, uppers = msm_bounds_arrays(rng.uniform(0.05, 0.95, 6), 4.0)
    return fam, locs, scales, lowers, uppers


def test_batch_brackets_off_the_crossing_widen_to_the_same_endpoints(monkeypatch):
    args = batch_rows()
    lo, hi = modulated_intervals_batch(*args, 0.1)
    member_points_off_the_crossing(monkeypatch, 40.0)
    w_lo, w_hi = modulated_intervals_batch(*args, 0.1)
    tol = QUANTILE_TOL_REL * (1.0 + args[2].max(axis=1))
    assert np.all(np.abs(w_lo - lo) <= tol) and np.all(np.abs(w_hi - hi) <= tol)


def test_no_widening_left_raises(monkeypatch):
    monkeypatch.setattr(K, "_MAX_WIDEN", 0)
    with pytest.raises(RuntimeError, match="failed to straddle"):
        K._bracketed_quantile(lambda x: float(x >= 5.0), -1.0, 1.0, 0.3, 1e-9)
    member_points_off_the_crossing(monkeypatch, 40.0)
    with pytest.raises(RuntimeError, match="failed to straddle"):
        modulated_intervals_batch(*batch_rows(), 0.1)


def test_batch_open_after_the_step_cap_raises(monkeypatch):
    monkeypatch.setattr(K, "_MAX_STEPS", 3)
    with pytest.raises(RuntimeError, match="still open"):
        modulated_intervals_batch(*batch_rows(), 0.1)


def test_exhausted_spacing_returns_without_error():
    # near 1e8 adjacent doubles are 1.5e-8 apart, wider than tol
    loc = 1e8
    q = K.mixture_quantile_k([K.GAUSSIAN], [loc], [1.0], [1.0], 0.3, 2e-9)
    assert abs(q - (loc + K.norm_ppf(0.3))) <= 2 * math.ulp(loc)


def halvings_corpus():
    """Widths whose mantissa ratio to tol's lies within 40 ulps of 0.5, 1
    or 2, where rounding can move a ceil of log2, at every 5th binary
    exponent of the quotient and at those near the float range's end."""
    widths, tols = [], []
    for tol in (2.0 ** -30, 1.5e-9, 0.9999999999999999, 5e-324):
        mt, et = math.frexp(tol)
        mantissas = {c + i * 2.0 ** -53 for c in (0.5 * mt, mt, 2.0 * mt)
                     for i in range(-40, 41)}
        for k in [*range(-3, 1000, 5), *range(1000, 1100)]:
            for mw in sorted(m for m in mantissas if 0.5 <= m < 1.0):
                if k + et <= 1024 and math.frexp(math.ldexp(mw, k + et))[0] == mw:
                    widths.append(math.ldexp(mw, k + et))
                    tols.append(tol)
    return np.array(widths), np.array(tols)


def test_halvings_match_the_quotient_wherever_it_is_finite():
    widths, tols = halvings_corpus()
    with np.errstate(over="ignore"):
        quotient = widths / tols
    finite = np.isfinite(quotient)
    assert 1000 < finite.sum() < finite.size
    rows = K._halvings_rows(widths, tols)
    assert rows.tolist() == [K._halvings(w, t) for w, t in zip(widths.tolist(), tols.tolist())]
    assert np.array_equal(rows[finite], np.ceil(np.log2(quotient[finite])).astype(np.int64))
    assert [K._halvings(w, t) for w, t in zip(widths[finite].tolist(), tols[finite].tolist())] \
        == [math.ceil(math.log2(q)) for q in quotient[finite].tolist()]
    # beyond the float range the count keeps growing with the width
    assert K._halvings(1e300, 1e-9) == math.ceil(math.log2(1e300) - math.log2(1e-9))


def test_random_ensembles_within_budget_and_half_tol(monkeypatch):
    rng = np.random.default_rng(7)
    rec = Recorder(monkeypatch)
    for _ in range(40):
        comps = oracles.random_components(rng, int(rng.integers(1, 9)))
        bounds = oracles.random_bounds(rng, float(rng.uniform(1.0, 50.0)))
        fam, loc, scale = pack_components(comps)
        tol = default_quantile_tol(comps)
        beta = float(rng.uniform(0.01, 0.99))
        maximize = bool(rng.random() < 0.5)
        q = K.extreme_quantile_k(fam, loc, scale, bounds.lower, bounds.upper, beta, tol,
                                 maximize)
        assert_certificate_and_budget(*rec.solves[-1])
        w = K.rank_weights_k(fam, loc, scale, bounds.lower, bounds.upper, q, maximize)
        assert abs(q - oracles.mixture_quantile_ref(comps, w, beta)) <= tol / 2 + 1e-12


def budgets_at(fam, locs, scales, y, e, alpha):
    """Each row's critical budget: the later of its two tails'."""
    return np.maximum(*(K.critical_budgets(np.sort(K.signed_masses(fam, locs, scales, y, sign),
                                                   axis=1), e, alpha / 2.0)
                        for sign in (1.0, -1.0)))


def assert_budgets_agree(comps, e, gamma, alpha):
    # five outcomes per ensemble: one tolerance outside and inside each
    # endpoint solved at gamma, and the midpoint; exactly the inner three
    # have budgets at most gamma
    fam, loc, scale = pack_components(comps)
    fam = np.array(fam)
    tol = default_quantile_tol(comps)
    bounds = msm_bounds(e, SensitivityConfig(gamma))
    lo, hi = K.interval_rows(fam, np.array([loc]), np.array([scale]),
                             np.array([bounds.lower]), np.array([bounds.upper]), alpha,
                             np.array([tol]))
    y = np.array([lo[0] - tol, lo[0] + tol, 0.5 * (lo[0] + hi[0]), hi[0] - tol, hi[0] + tol])
    budgets = budgets_at(fam, np.tile(loc, (5, 1)), np.tile(scale, (5, 1)), y,
                         np.full(5, e), alpha)
    assert (budgets <= gamma).tolist() == [False, True, True, True, False]


@pytest.mark.parametrize("fam", [K.GAUSSIAN, K.CAUCHY], ids=["gaussian", "cauchy"])
def test_upper_tail_is_the_reflected_lower_tail_bit_for_bit(fam):
    # sign -1 reflects the member through 0: its survival mass at y is the
    # reflected member's lower-tail mass at -y, and its point with upper-tail
    # mass p is minus the reflected member's point with lower-tail mass p
    rng = np.random.default_rng(4)
    far = [0.0, 1e-300, 0.5, 1.0, 1e6, 1e12, 1e100, 1e290]
    for loc, scale in [(0.0, 1.0), (3.7, 1e-6), (-1e5, 1e-6), (1e5, 2.5), (-2.3, 1e7)]:
        zs = np.concatenate([far, np.negative(far), rng.standard_cauchy(20)])
        for y in (loc + scale * zs).tolist():
            assert K.component_mass_s(fam, loc, scale, y, -1.0) == \
                K.component_mass_s(fam, -loc, scale, -y)
        for p in [1e-300, 1e-60, 1e-6, 0.025, 0.3, 0.5, 0.7, 0.975, 1.0 - 1e-6]:
            assert K.component_point_s(fam, loc, scale, p, -1.0) == \
                -K.component_point_s(fam, -loc, scale, p)


@pytest.mark.filterwarnings("error")
def test_critical_budgets_match_the_solved_interval():
    # one tolerance away from an endpoint, the budget of the outcome
    # decides its coverage as the solved interval does
    rng = np.random.default_rng(11)
    for _ in range(60):
        comps = oracles.random_components(rng, int(rng.integers(1, 9)))
        gamma = float(rng.uniform(1.0, 50.0))
        e = float(rng.uniform(0.05, 0.95))
        assert_budgets_agree(comps, e, gamma, float(rng.uniform(0.02, 0.98)))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("gamma", [1.0, 4.0, 50.0])
def test_critical_budgets_match_the_solved_interval_in_far_tails(gamma):
    # at alpha/2 = 1e-6 the upper end sits where 1 - F_j rounds to ulp(1)
    assert_budgets_agree(CASES["cauchy-tails"][0], 0.3, gamma, 2e-6)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("alpha", [0.3, 1e-300])
@pytest.mark.parametrize("m", [1, 2, 3, 4, 7, 16])
def test_critical_budgets_match_the_envelope_mass_on_a_gamma_grid(m, alpha):
    # row i reaches alpha/2 at gamma iff its budget is at most gamma, with
    # the largest tail mass taken from the rank pattern of the bounds; at
    # alpha 1e-300 the outcomes sit far in Cauchy members' lower tails,
    # where the masses are of order alpha and their squares underflow
    rng = np.random.default_rng(m)
    n = 200
    locs = rng.normal(0.0, 2.0, (n, m))
    scales = rng.uniform(0.2, 3.0, (n, m))
    if alpha < 0.01:
        fam = np.full(m, K.CAUCHY)
        y = -scales.mean(axis=1) / (rng.uniform(0.5, 1.5, n) * math.pi * alpha / 2.0)
    else:
        fam = np.where(rng.random(m) < 0.5, K.GAUSSIAN, K.CAUCHY)
        y = rng.normal(0.0, 4.0, n)
    e = rng.uniform(PROPENSITY_CLAMP, 1.0 - PROPENSITY_CLAMP, n)
    budgets = budgets_at(fam, locs, scales, y, e, alpha)
    assert (budgets == 1.0).any() and np.isinf(budgets).any()
    assert m == 1 or ((1.0 < budgets) & (budgets < 50.0)).any()
    masses = [np.sort(K.signed_masses(fam, locs, scales, y, sign), axis=1)
              for sign in (1.0, -1.0)]
    for gamma in np.geomspace(1.0, 50.0, 200).tolist():
        lowers, uppers = e + (1.0 - e) / gamma, e + gamma * (1.0 - e)
        weights = K.rank_pattern_rows(lowers, uppers, m)[:, ::-1]
        reached = np.logical_and(*((weights * c).sum(axis=1) / m >= alpha / 2.0
                                   for c in masses))
        assert np.array_equal(budgets <= gamma, reached), gamma


def test_cauchy_cdf_array_is_the_scalar_formula_bit_for_bit(monkeypatch):
    # numpy's arctan and math.atan can differ in the last bit, so the
    # scalar formula runs here with numpy's arctan; with math.atan it
    # agrees within two spacings of the result
    edges = np.array([0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 0.5,
                      math.nextafter(1.0, 0.0), 1.0, math.nextafter(1.0, 2.0), 2.0, 1e16,
                      1e300, 1e308, math.inf])
    z = np.concatenate([edges, -edges, np.linspace(-60.0, 60.0, 240_001),
                        np.geomspace(1e-300, 1e300, 20_001),
                        -np.geomspace(1e-300, 1e300, 20_001),
                        np.random.default_rng(3).standard_cauchy(20_000)])
    got = K._cauchy_cdf_array(z)
    truth = np.array([K.cauchy_cdf(v) for v in z.tolist()])
    assert np.all(np.abs(got - truth) <= 2.0 * np.spacing(truth))
    monkeypatch.setattr(K, "math", types.SimpleNamespace(atan=lambda v: float(np.arctan(v)),
                                                         pi=math.pi))
    expected = np.array([K.cauchy_cdf(v) for v in z.tolist()])
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))
