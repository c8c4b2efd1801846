import math

import numpy as np
import pytest
from hypothesis import given, settings

from trellisexp.channels import Dmc, InputDist
from trellisexp.exponents import (
    CURVE_KINDS,
    RATE_TOL,
    NotBinaryInput,
    NotUniformQ,
    RateOutOfRange,
    _PairTable,
    check_rate,
    costello_form_cex,
    critical_rate,
    cutoff_rate,
    exponent_curve,
    expurgated_ex,
    gallager_e0,
    solve_rho,
)
from conftest import channels_with_zeros, random_channel

# direct high-precision evaluation of the E0 formula for the BSC:
# E0(rho) = -ln[ 2 (0.5 (0.9^{1/(1+rho)} + 0.1^{1/(1+rho)}))^{1+rho} / 2 ]
E0_BSC_HALF = -math.log(
    (0.5 * (0.9 ** (1 / 1.5) + 0.1 ** (1 / 1.5))) ** 1.5 * 2.0)


class TestGallagerE0:
    def test_rho_one_is_cutoff(self, bsc01, uniform2):
        assert gallager_e0(bsc01, uniform2, 1.0) == pytest.approx(0.2231, abs=5e-4)

    def test_rho_zero(self, bsc01, uniform2):
        assert gallager_e0(bsc01, uniform2, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_rho_half_oracle(self, bsc01, uniform2):
        assert gallager_e0(bsc01, uniform2, 0.5) == pytest.approx(
            E0_BSC_HALF, abs=1e-12)
        assert E0_BSC_HALF == pytest.approx(0.1402, abs=5e-4)

    def test_nondecreasing_concave(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            dmc, q = random_channel(rng)
            rhos = np.linspace(0.0, 4.0, 30)
            vals = [gallager_e0(dmc, q, r) for r in rhos]
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
            mids = [gallager_e0(dmc, q, 0.5 * (a + b))
                    for a, b in zip(rhos, rhos[2:])]
            for m, lo, hi in zip(mids, vals, vals[2:]):
                assert m >= 0.5 * (lo + hi) - 1e-12


class TestExpurgatedEx:
    def test_rho_one_equals_e0(self, bsc01, uniform2):
        assert expurgated_ex(bsc01, uniform2, 1.0) == pytest.approx(
            gallager_e0(bsc01, uniform2, 1.0), abs=1e-12)

    def test_rho_two_oracle(self, bsc01, uniform2):
        # -2 ln(0.5 (1 + 0.6^{1/2}))
        want = -2.0 * math.log(0.5 * (1.0 + math.sqrt(0.6)))
        assert expurgated_ex(bsc01, uniform2, 2.0) == pytest.approx(want, abs=1e-12)
        assert want == pytest.approx(0.2391, abs=5e-4)

    def test_large_rho_limit(self, bsc01, uniform2):
        limit = expurgated_ex(bsc01, uniform2, math.inf)
        assert limit == pytest.approx(-0.5 * math.log(0.6), abs=1e-12)
        assert expurgated_ex(bsc01, uniform2, 1e6) == pytest.approx(limit, abs=1e-3)
        assert limit == pytest.approx(0.2554, abs=1e-3)

    def test_ex_one_equals_e0_one_everywhere(self):
        rng = np.random.default_rng(23)
        for _ in range(15):
            dmc, q = random_channel(rng)
            assert expurgated_ex(dmc, q, 1.0) == pytest.approx(
                gallager_e0(dmc, q, 1.0), abs=1e-10)

    def test_concave_and_ratio_monotone(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            dmc, q = random_channel(rng)
            rhos = np.linspace(0.2, 6.0, 30)
            vals = [expurgated_ex(dmc, q, r) for r in rhos]
            mids = [expurgated_ex(dmc, q, 0.5 * (a + b))
                    for a, b in zip(rhos, rhos[2:])]
            for m, lo, hi in zip(mids, vals, vals[2:]):
                assert m >= 0.5 * (lo + hi) - 1e-12
            ratios = [v / r for v, r in zip(vals, rhos)]
            assert all(b <= a + 1e-12 for a, b in zip(ratios, ratios[1:]))


class TestCutoffRate:
    def test_bsc(self, bsc01, uniform2):
        assert cutoff_rate(bsc01, uniform2) == pytest.approx(0.2231, abs=5e-4)

    def test_identity_channel(self, uniform2):
        dmc = Dmc([[1.0, 0.0], [0.0, 1.0]])
        assert cutoff_rate(dmc, uniform2) == pytest.approx(math.log(2), abs=1e-12)

    def test_useless_channel(self, uniform2):
        dmc = Dmc([[0.5, 0.5], [0.5, 0.5]])
        assert cutoff_rate(dmc, uniform2) == pytest.approx(0.0, abs=1e-12)


class TestPairTable:
    def test_edge_exactly_zero_with_full_overlap(self):
        from trellisexp.exponents import _PairTable
        rng = np.random.default_rng(31)
        for _ in range(10):
            dmc, q = random_channel(rng)
            assert _PairTable(dmc, q).rhat0 == 0.0


class TestRateRule:
    def test_same_tolerance_on_every_route(self, bsc01, uniform2):
        from trellisexp.memory import extended_cutoff, extended_exponent, memoryless_lift
        from trellisexp.types_opt import csiszar_exponent, dominant_joint_type
        lift = memoryless_lift(bsc01)
        r0 = cutoff_rate(bsc01, uniform2)
        ext_r0 = extended_cutoff(lift, uniform2)
        routes = [
            lambda r: solve_rho("cex", bsc01, uniform2, r0 + r),
            lambda r: solve_rho("trtc", bsc01, uniform2, r0 + r),
            lambda r: exponent_curve("rtc", bsc01, uniform2, [r0 + r]),
            lambda r: costello_form_cex(bsc01, uniform2, r0 + r),
            lambda r: csiszar_exponent(bsc01, uniform2, r0 + r),
            lambda r: dominant_joint_type(bsc01, uniform2, r0 + r),
            lambda r: extended_exponent(lift, uniform2, ext_r0 + r),
        ]
        for route in routes:
            route(5e-11)
            with pytest.raises(RateOutOfRange):
                route(2e-10)
            with pytest.raises(RateOutOfRange):
                route(math.nan)


class TestCriticalRate:
    def test_bsc_01(self, bsc01, uniform2):
        assert critical_rate(bsc01, uniform2) == pytest.approx(0.1308, abs=5e-4)

    def test_useless_channel(self, uniform2):
        dmc = Dmc([[0.5, 0.5], [0.5, 0.5]])
        assert critical_rate(dmc, uniform2) == pytest.approx(0.0, abs=1e-10)

    def test_bsc_025_closed_form(self, uniform2):
        # R_crit = ln 2 - H(sqrt(p)/(sqrt(p)+sqrt(1-p))) at p = 0.25
        p = 0.25
        a = math.sqrt(p) / (math.sqrt(p) + math.sqrt(1 - p))
        want = math.log(2) + a * math.log(a) + (1 - a) * math.log(1 - a)
        dmc = Dmc([[1 - p, p], [p, 1 - p]])
        assert critical_rate(dmc, uniform2) == pytest.approx(want, abs=1e-8)


class TestSolveRho:
    def test_trtc_mid_rate(self, bsc01, uniform2):
        sol = solve_rho("trtc", bsc01, uniform2, 0.15)
        assert sol.rho == pytest.approx(1.266, abs=2e-3)
        resid = expurgated_ex(bsc01, uniform2, sol.rho) / (2 * sol.rho - 1) - 0.15
        assert abs(resid) <= 1e-10

    def test_boundary_rho_one(self, bsc01, uniform2):
        r0 = cutoff_rate(bsc01, uniform2)
        assert solve_rho("cex", bsc01, uniform2, r0).rho == pytest.approx(1.0, abs=1e-6)
        assert solve_rho("trtc", bsc01, uniform2, r0).rho == pytest.approx(1.0, abs=1e-6)

    def test_rate_out_of_range(self, bsc01, uniform2):
        with pytest.raises(RateOutOfRange):
            solve_rho("trtc", bsc01, uniform2, 0.5)
        with pytest.raises(RateOutOfRange):
            solve_rho("cex", bsc01, uniform2, 0.0)

    def test_only_cex_and_trtc(self, bsc01, uniform2):
        # rtc is R0/R below R0, with no rho to solve
        with pytest.raises(ValueError, match="solve_rho solves cex and trtc, got 'rtc'"):
            solve_rho("rtc", bsc01, uniform2, 0.1)

    def test_tiny_rate_finite(self, bsc01, uniform2):
        # rhat0 = 0 for the BSC, so the roots exist at every rate; at
        # R = 1e-7 rho_trtc is about 1.28e6
        sol = solve_rho("trtc", bsc01, uniform2, 1e-7)
        assert sol.rho == pytest.approx(1277064.432, rel=1e-9)
        value = exponent_curve("trtc", bsc01, uniform2, [1e-7]).points[0][1]
        assert value == pytest.approx(2.554128e6, rel=1e-6)
        assert value == pytest.approx(2 * sol.rho - 1, rel=1e-8)
        cex = solve_rho("cex", bsc01, uniform2, 1e-7).rho
        assert math.isfinite(cex) and cex > sol.rho

    def test_root_exists_iff_above_edge(self, uniform2):
        # W has pairs of inputs with disjoint output supports:
        # rhat0 = -1/2 ln QxQ(Z > 0) = 1/2 ln(9/7)
        dmc = Dmc([[0.5, 0.5, 0.0], [0.0, 0.0, 1.0], [0.0, 0.5, 0.5]])
        q = InputDist(np.full(3, 1 / 3))
        rhat0 = 0.5 * math.log(9 / 7)
        assert cutoff_rate(dmc, q) > 2.02 * rhat0
        assert solve_rho("trtc", dmc, q, 0.99 * rhat0).rho == math.inf
        assert math.isfinite(solve_rho("trtc", dmc, q, 1.01 * rhat0).rho)
        assert solve_rho("cex", dmc, q, 1.99 * rhat0).rho == math.inf
        assert math.isfinite(solve_rho("cex", dmc, q, 2.01 * rhat0).rho)

    @pytest.mark.parametrize("j", range(3, 15))
    def test_cex_exact_just_above_edge(self, j):
        # W4: the Z > 0 off-diagonal pairs share z = sqrt(1/2) with
        # renormalised weight w = 4/7, so g(r) = G(r) - 2 rhat0 =
        # -ln(1 + w (z^r - 1)) and the cex root has a closed form
        from trellisexp.exponents import _PairTable
        dmc = Dmc([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.5, 0.5, 0.0]])
        q = InputDist(np.full(3, 1 / 3))
        rhat0 = _PairTable(dmc, q).rhat0
        rate = 2 * rhat0 * (1 + 10.0 ** -j)
        r = math.log1p(math.expm1(-(rate - 2 * rhat0)) / (4 / 7)) / math.log(math.sqrt(0.5))
        value = exponent_curve("cex", dmc, q, [rate]).points[0][1]
        assert value == pytest.approx(1 / r, rel=1e-13)


class TestUnitRoot:
    def test_each_end_evaluated_once(self, bsc01, uniform2):
        # a trtc-shaped f with an interior root: brentq is handed f(0) and
        # f(1) and takes the same iterates as a plain call
        from scipy.optimize import brentq
        from trellisexp.exponents import _PairTable, _unit_root
        table = _PairTable(bsc01, uniform2)
        calls = []

        def f(r):
            calls.append(r)
            return table.g(r) - (2 - r) * 0.15

        r = _unit_root(f)
        assert 0 < r < 1
        assert calls.count(0.0) == 1 and calls.count(1.0) == 1
        assert r == brentq(f, 0.0, 1.0, xtol=1e-300, rtol=4 * np.finfo(float).eps,
                           maxiter=2000)


W3 = (Dmc([[0.5, 0.5, 0.0], [0.0, 0.0, 1.0], [0.0, 0.5, 0.5]]),
      InputDist([1 / 3, 1 / 3, 1 / 3]))


def _root_channels(bsc01, uniform2, asym3):
    rng = np.random.default_rng(11)
    return [(bsc01, uniform2), asym3, W3] + [random_channel(rng, j=3, ny=3)
                                             for _ in range(4)]


class TestPairTableRho:
    """`_PairTable.rho`, one Newton solve of the cex or trtc equation for a
    grid of any size, against scipy's brentq on the same equation."""

    @staticmethod
    def _equation(table, kind, rate):
        """(f, target, slope) of the equation f(r) = g(r) - target + slope r
        that `_PairTable.rho` solves at one rate."""
        if kind == "cex":
            target, slope = rate - 2 * table.rhat0, 0.0
        else:
            target, slope = 2 * (rate - table.rhat0), rate
        return (lambda r: float(table.g(r)) - target + slope * r), target, slope

    def _check_roots(self, table, kind):
        # rates from 1e-300 R0 to past R0: roots clamped at rho = 1
        # (R >= R0), unbounded ones (f(0) >= 0, which the appended rhat0 and
        # 2 rhat0 give) and interior ones, tiny ones among them
        rates = np.concatenate([np.geomspace(1e-300, 1e-3, 60),
                                np.linspace(2e-3, 1.2, 90)]) * table.r0
        rates = np.append(rates, [table.rhat0, 2 * table.rhat0, table.r0])
        rhos = table.rho(kind, rates)
        g0 = -(table.weights @ table.log_z)  # G'(0)
        for rate, rho in zip(rates.tolist(), rhos.tolist()):
            f, target, slope = self._equation(table, kind, rate)
            if rate >= table.r0:
                assert rho == 1.0
            elif target <= 0:
                assert rho == math.inf
            else:
                r = 1 / rho
                assert 0 < r < 1
                if r > 1e-250:
                    want = _scipy_brentq(f, -target, table.r0 - rate)
                    assert r == pytest.approx(want, rel=5e-14, abs=0)
                if r < 1e-280:  # the first Newton step, target / f'(0)
                    assert r == pytest.approx(target / (g0 + slope), rel=1e-15, abs=0)
        return rhos

    @pytest.mark.parametrize("kind", ["cex", "trtc"])
    def test_roots_against_brentq(self, kind, bsc01, uniform2, asym3):
        rhos = np.concatenate([self._check_roots(_PairTable(dmc, q), kind)
                               for dmc, q in _root_channels(bsc01, uniform2, asym3)])
        assert {1.0, math.inf} < set(rhos.tolist())  # both clamps and interior roots

    @pytest.mark.parametrize("kind", ["cex", "trtc"])
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(channel=channels_with_zeros())
    def test_roots_against_brentq_with_zeros(self, kind, channel):
        dmc, q, _disjoint = channel
        self._check_roots(_PairTable(dmc, q), kind)

    def test_iteration_cap(self):
        # a stub table whose g never rises (g = 0, G' = 1): f = -target at
        # every step, so each Newton step rises by target and never stops
        table = _PairTable.__new__(_PairTable)
        table.weights, table.log_z = np.array([1.0]), np.array([-1.0])
        table.rhat0, table.r0 = 0.0, 1.0
        table._g_at = lambda r_log_z: np.zeros(r_log_z.shape[:-1])
        with pytest.raises(RuntimeError, match="failed to converge after 2000 steps"):
            table.rho("cex", [1e-4])

    def test_tiny_rate_on_a_near_noiseless_channel(self):
        # BSC(1e-300) at R = 1e-300: the roots r = 1/rho, about 6e-303 for
        # cex and 1.2e-302 for trtc, lie below brentq's absolute xtol of
        # 1e-300; both values are Ex(inf)/R to first order in r
        dmc, q = Dmc([[1.0, 1e-300], [1e-300, 1.0]]), InputDist([0.5, 0.5])
        want = expurgated_ex(dmc, q, math.inf) / 1e-300
        for kind in ("cex", "trtc"):
            value = exponent_curve(kind, dmc, q, [1e-300]).points[0][1]
            assert value == pytest.approx(want, rel=1e-14, abs=0)

    def test_empty_grid(self, bsc01, uniform2):
        for kind in CURVE_KINDS:
            assert exponent_curve(kind, bsc01, uniform2, []).points == []

    def test_g_on_an_array_equals_scalar_calls(self, bsc01, uniform2, asym3):
        r = np.concatenate([np.geomspace(1e-300, 1.0, 40), np.linspace(0, 1, 41)])
        for dmc, q in _root_channels(bsc01, uniform2, asym3):
            table = _PairTable(dmc, q)
            assert table.g(r).tolist() == [table.g(x) for x in r]

    @pytest.mark.parametrize("kind", ["cex", "trtc"])
    def test_few_g_evaluations(self, kind, monkeypatch, bsc01, uniform2, asym3):
        # one array evaluation of G per Newton step for the whole grid, plus
        # one for R0 when the table is built and one for the values
        from trellisexp import exponents
        calls = []
        g_at = exponents._PairTable._g_at

        def counting(table, r_log_z):
            calls.append(r_log_z.shape)
            return g_at(table, r_log_z)

        monkeypatch.setattr(exponents._PairTable, "_g_at", counting)
        for dmc, q in ((bsc01, uniform2), asym3, W3):
            r0 = cutoff_rate(dmc, q)
            calls.clear()
            exponent_curve(kind, dmc, q, np.linspace(0.05, 0.95, 200) * r0)
            assert len(calls) <= 10


def _scipy_brentq(f, f0, f1):
    """scipy's brentq on [0, 1] with `_brentq`'s tolerances, handed f(0) and f(1)."""
    from scipy.optimize import brentq
    return brentq(lambda r: f0 if r == 0.0 else f1 if r == 1.0 else f(r), 0.0, 1.0,
                  xtol=1e-300, rtol=4 * np.finfo(float).eps, maxiter=2000)


def _scipy_fminbound(f, lo, hi, xatol):
    """scipy's bounded minimize_scalar, as (x, f(x)) like `_fminbound`."""
    from scipy.optimize import minimize_scalar
    with np.errstate(invalid="ignore"):  # numpy scalars warn on inf - inf
        res = minimize_scalar(f, bounds=(lo, hi), method="bounded",
                              options={"xatol": xatol})
    return float(res.x), float(res.fun)


def _traced(f):
    """f, and the list of points it is evaluated at."""
    xs = []

    def traced(x):
        xs.append(float(x))
        return f(x)
    return traced, xs


class TestPortsMatchScipy:
    """`_brentq` and `_fminbound` against the scipy calls they port: the
    same iterates and the same floats.  scipy is a test oracle only."""

    @staticmethod
    def _same_root(f, f0, f1):
        from trellisexp.exponents import _brentq
        port, port_xs = _traced(f)
        oracle, oracle_xs = _traced(f)
        root = _brentq(port, f0, f1)
        assert type(root) is float
        assert (root, port_xs) == (_scipy_brentq(oracle, f0, f1), oracle_xs)
        return root

    @staticmethod
    def _same_minimum(f, lo, hi, xatol):
        from trellisexp.exponents import _fminbound
        port, port_xs = _traced(f)
        oracle, oracle_xs = _traced(f)
        got = _fminbound(port, lo, hi, xatol)
        assert repr((got, port_xs)) == repr((_scipy_fminbound(oracle, lo, hi, xatol),
                                             oracle_xs))
        return port_xs

    @pytest.mark.parametrize("kind", ["cex", "trtc"])
    def test_curve_equations(self, kind, bsc01, uniform2, asym3):
        from trellisexp.exponents import _PairTable
        solved = 0
        for dmc, q in ((bsc01, uniform2), asym3, W3):
            table = _PairTable(dmc, q)
            for rate in np.concatenate([np.geomspace(1e-300, 1e-3, 12),
                                        np.linspace(0.01, 0.99, 12)]) * table.r0:
                rate = float(rate)
                if kind == "cex":
                    f = lambda r: float(table.g(r)) - (rate - 2 * table.rhat0)
                else:
                    f = lambda r: float(table.g(r)) - ((2 - r) * (rate - table.rhat0)
                                                       - r * table.rhat0)
                f0, f1 = f(0.0), f(1.0)
                if f0 < 0 < f1:
                    self._same_root(f, f0, f1)
                    solved += 1
        assert solved >= 48

    def test_root_near_1e_32(self):
        f = lambda r: math.sqrt(r) - 1e-16
        assert self._same_root(f, f(0.0), f(1.0)) == pytest.approx(1e-32, rel=1e-12)

    def test_nan_raises_value_error(self):
        from scipy.optimize import brentq
        from trellisexp.exponents import _brentq
        f = lambda r: math.nan if r > 0.3 else r - 0.5
        for f0 in (-0.5, math.nan):
            with pytest.raises(ValueError):
                _brentq(f, f0, 0.5)
            with pytest.raises(ValueError):
                _scipy_brentq(f, f0, 0.5)
        with pytest.raises(ValueError):  # scipy's own NaN rule, from a plain call
            brentq(f, 0.0, 1.0)

    @pytest.mark.parametrize("xatol", [1e-10, 1e-300])
    @pytest.mark.parametrize("name, f", [
        ("parabola", lambda x: (x - 0.3) * (x - 0.3)),
        ("inf on part", lambda x: math.inf if x > 0.4 else (x - 0.35) * (x - 0.35)),
        ("-inf on part", lambda x: -math.inf if x > 0.8 else -x),
        ("flat", lambda x: 1.0),
        ("not convex", lambda x: math.sin(20 * x)),
        ("NaN on part", lambda x: math.nan if x > 0.5 else (x - 0.6) * (x - 0.6)),
    ])
    def test_minimiser(self, name, f, xatol):
        self._same_minimum(f, 0.0, 1.0, xatol)
        self._same_minimum(f, -0.5, 3.0, xatol)

    def test_maxiter(self):
        # a minimum at an end reached with xatol 1e-300 needs more than the
        # 500 evaluations both stop at
        assert len(self._same_minimum(lambda x: x, 0.0, 1.0, 1e-300)) == 500

    @pytest.mark.parametrize("route", [
        "cex", "trtc", "csiszar", "z_legendre", "z_direct", "delta_max"])
    def test_routes_unchanged_with_scipy(self, monkeypatch, route, bsc01, uniform2, asym3):
        # every route's output through the ports equals its output with the
        # scipy calls swapped in
        from trellisexp import exponents, types_opt
        from trellisexp.types_opt import JointType

        def outputs():
            values = []
            for dmc, q in ((bsc01, uniform2), asym3, W3):
                r0 = cutoff_rate(dmc, q)
                for x in (0.001, 0.05, 0.2, 0.5, 0.8, 0.99):
                    if route in ("cex", "trtc"):
                        values.append(solve_rho(route, dmc, q, r0 * x).rho)
                    elif route == "csiszar":
                        values.append(types_opt.csiszar_exponent(dmc, q, r0 * x))
                    elif route == "z_legendre":
                        values.append(types_opt.z_of_rhat_legendre(dmc, q, r0 * x))
                    elif route == "z_direct":
                        values.append(types_opt.z_of_rhat_direct(dmc, q, r0 * x)[1].p.tolist())
                    else:
                        # max over s of Delta_s(P), concave in s
                        p = JointType(np.outer(q.q, q.q) * (1 - x) + np.diag(q.q) * x)
                        values.append(exponents._argmax_concave(
                            lambda s: types_opt.delta_s(p, dmc, s), 0.0, 1.0))
            return repr(values)

        ported = outputs()
        monkeypatch.setattr(exponents, "_brentq", _scipy_brentq)
        monkeypatch.setattr(exponents, "_fminbound", _scipy_fminbound)
        assert outputs() == ported

    @pytest.mark.parametrize("route", ["extended_exponent", "extended_cutoff"])
    def test_memory_routes_unchanged_with_scipy(self, monkeypatch, route, bsc01):
        from trellisexp import exponents, memory
        channels = [memory.memoryless_lift(bsc01),
                    memory.MarkovChannel([[[0.95, 0.05], [0.85, 0.15]],
                                          [[0.15, 0.85], [0.05, 0.95]]]),
                    memory.memoryless_lift(bsc01, [[0.8, 0.2], [0.2, 0.8]])]

        def outputs():
            values = []
            for ch in channels:
                if route == "extended_exponent":
                    values += [memory.extended_exponent(ch, [0.5, 0.5], rate)
                               for rate in (0.02, 0.1, 0.2)]
                else:
                    values.append(memory.extended_cutoff(ch, [0.5, 0.5]))
            return repr(values)

        ported = outputs()
        monkeypatch.setattr(exponents, "_brentq", _scipy_brentq)
        monkeypatch.setattr(exponents, "_fminbound", _scipy_fminbound)
        assert outputs() == ported


class TestExponentCurve:
    def test_rtimes_rtc_constant(self, bsc01, uniform2):
        r0 = cutoff_rate(bsc01, uniform2)
        curve = exponent_curve("rtimes_rtc", bsc01, uniform2,
                               np.linspace(0.01, 0.2, 10))
        for _, value, _ in curve.points:
            assert value == pytest.approx(r0, abs=1e-12)

    def test_rtimes_trtc_zero_rate_limit(self, bsc01, uniform2):
        curve = exponent_curve("rtimes_trtc", bsc01, uniform2, [1e-4])
        assert curve.points[0][1] == pytest.approx(0.2554, abs=1e-3)

    def test_trtc_identity_two_rho_minus_one(self, bsc01, uniform2):
        curve = exponent_curve("trtc", bsc01, uniform2,
                               np.linspace(0.02, 0.2, 12))
        for rate, value, rho in curve.points:
            # the rho residual tolerance of 1e-10 maps to a value error of
            # about residual * (2 rho - 1) / R, largest at the low-rate end
            assert value == pytest.approx(
                2 * rho - 1, abs=2e-10 * (2 * rho - 1) / rate)

    def test_ordering(self, bsc01, uniform2):
        r0 = cutoff_rate(bsc01, uniform2)
        rates = np.linspace(0.02, r0 - 0.01, 15)
        rtc = exponent_curve("rtc", bsc01, uniform2, rates)
        trtc = exponent_curve("trtc", bsc01, uniform2, rates)
        cex = exponent_curve("cex", bsc01, uniform2, rates)
        for (_, a, _), (_, b, _), (_, c, _) in zip(
                rtc.points, trtc.points, cex.points):
            assert a <= b + 1e-10 <= c + 2e-10
            assert a < b < c  # strict at interior rates for this channel

    def test_rtimes_nonincreasing_and_above_r0(self, bsc01, uniform2):
        r0 = cutoff_rate(bsc01, uniform2)
        rates = np.linspace(0.02, r0 - 0.005, 15)
        for kind in ("rtimes_trtc", "rtimes_cex"):
            vals = [v for _, v, _ in
                    exponent_curve(kind, bsc01, uniform2, rates).points]
            assert all(b <= a + 1e-10 for a, b in zip(vals, vals[1:]))
            assert all(v >= r0 - 1e-10 for v in vals)

    @pytest.mark.parametrize("kind", ["trtc", "cex"])
    def test_value_exact_at_root(self, kind, bsc01, uniform2):
        # at the root Ex(rho)/R is 2 rho - 1 (trtc) or rho (cex) exactly;
        # -rho ln sum QQ' Z^{1/rho} loses digits to cancellation at large rho
        r0 = cutoff_rate(bsc01, uniform2)
        rates = [1e-7, 1e-6] + list(np.linspace(0.01, 0.99, 25) * r0)
        for rate in rates:
            _, value, rho = exponent_curve(kind, bsc01, uniform2, [rate]).points[0]
            want = 2 * rho - 1 if kind == "trtc" else rho
            assert value == pytest.approx(want, rel=1e-14, abs=0)

    def test_bad_grid(self, bsc01, uniform2):
        with pytest.raises(RateOutOfRange):
            exponent_curve("trtc", bsc01, uniform2, [0.3])

    @pytest.mark.parametrize("w, q", [
        ([[0.9, 0.1], [0.1, 0.9]], [0.5, 0.5]),
        ([[0.7, 0.2, 0.1], [0.1, 0.8, 0.1], [0.25, 0.25, 0.5]], [0.5, 0.3, 0.2]),
        # rows 0 and 1 have disjoint supports, so the lowest rates have no
        # cex or trtc root: value and rho inf
        ([[0.6, 0.4, 0.0], [0.0, 0.0, 1.0], [0.3, 0.3, 0.4]], [0.4, 0.3, 0.3])])
    def test_grid_in_any_order(self, w, q):
        # a decreasing grid with one repeated rate: each point is the point
        # of a one-rate curve, whatever its neighbours
        dmc, q = Dmc(w), InputDist(q)
        r0 = cutoff_rate(dmc, q)
        grid = [0.9 * r0, 0.6 * r0, 0.3 * r0, 0.3 * r0, 0.05 * r0, 1e-3 * r0]
        for kind in CURVE_KINDS:
            want = [exponent_curve(kind, dmc, q, [rate]).points[0] for rate in grid]
            assert exponent_curve(kind, dmc, q, grid).points == want

    @pytest.mark.parametrize("grid, bad", [([-0.1, 0.05], 0), ([0.0, 0.1], 0),
                                           ([0.05, 0.3, 0.4], 1), ([0.05, math.nan], 1)])
    def test_rate_rule_names_first_bad_rate(self, grid, bad, bsc01, uniform2):
        # the grid is checked at once, with check_rate's rule and message
        r0 = cutoff_rate(bsc01, uniform2)
        with pytest.raises(RateOutOfRange) as want:
            check_rate(grid[bad], r0)
        for kind in CURVE_KINDS:
            with pytest.raises(RateOutOfRange) as got:
                exponent_curve(kind, bsc01, uniform2, grid)
            assert str(got.value) == str(want.value)
            assert len(exponent_curve(kind, bsc01, uniform2,
                                      [0.05, r0 + RATE_TOL / 2]).points) == 2

    @pytest.mark.parametrize("grid", [0.1, [[0.05, 0.1]]])
    def test_grid_not_one_dimensional(self, grid, bsc01, uniform2):
        with pytest.raises(ValueError, match="one-dimensional"):
            exponent_curve("trtc", bsc01, uniform2, grid)


class TestCostelloForm:
    def test_matches_cex_curve(self, bsc01, uniform2):
        r0 = cutoff_rate(bsc01, uniform2)
        for rate in np.linspace(0.01, r0 - 0.005, 20):
            curve = exponent_curve("cex", bsc01, uniform2, [rate])
            assert costello_form_cex(bsc01, uniform2, rate) == pytest.approx(
                curve.points[0][1], abs=1e-6)

    def test_boundary_r0(self, bsc01, uniform2):
        r0 = cutoff_rate(bsc01, uniform2)
        assert costello_form_cex(bsc01, uniform2, r0) * r0 == pytest.approx(
            r0, abs=1e-6)

    def test_useless_channel_degenerate(self, uniform2):
        dmc = Dmc([[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(RateOutOfRange):
            costello_form_cex(dmc, uniform2, 0.1)  # R0 = 0, no valid rate

    def test_disjoint_supports_infinite(self, uniform2):
        # Z = 0: ln Z is -inf, which the suite's warning filter makes an error
        dmc = Dmc([[1.0, 0.0], [0.0, 1.0]])
        want = exponent_curve("cex", dmc, uniform2, [0.3]).points[0][1]
        assert costello_form_cex(dmc, uniform2, 0.3) == want == math.inf

    def test_guards(self, uniform2):
        dmc3 = Dmc([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]])
        with pytest.raises(NotBinaryInput):
            costello_form_cex(dmc3, InputDist([1 / 3] * 3), 0.05)
        bsc = Dmc([[0.9, 0.1], [0.1, 0.9]])
        with pytest.raises(NotUniformQ):
            costello_form_cex(bsc, InputDist([0.7, 0.3]), 0.05)
