import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from engine_checks import cr_residual
from nodal_idn.errors import FiberError, MomentError
from nodal_idn.model import BoundaryCurve
from nodal_idn.moments import (BRANCH_SEPARATION_FLOOR, DOUBLE_EPS,
                               NEAR_SPACINGS, ROOT_BLOCK,
                               VANDERMONDE_CONDITION_LIMIT, FiberWindow,
                               LocalExpansion, MomentEngine,
                               ReconstructedCurve, WindowPlan,
                               _condition_bound, _fiber_roots,
                               _power_sum_defect,
                               _refine_roots, _solve_quotients,
                               _stitch_pairs, _vandermonde_solve,
                               analyze_window, companion_roots,
                               continue_fibers, integral_sheet_count,
                               match_rows, recover_fibers,
                               recover_form_quotient, roots_from_power_sums,
                               sweep_windows, truncation_order, window_grid)
from nodal_idn.oracles import polynomial_roots
from reference.oracles import argument_principle_count
from reference.scenarios import graph as graph_scn


def _engine(datum):
    return MomentEngine.from_datum(datum)


class TestComputeMoment:
    def test_graph_first_moment(self, graph_datum):
        got = _engine(graph_datum).moments([1], [0.3])[0, 0]
        assert abs(got - 0.09) < 1e-12

    def test_graph_second_moment(self, graph_datum):
        got = _engine(graph_datum).moments([2], [0.5])[0, 0]
        assert abs(got - 0.0625) < 1e-12

    def test_four_sheet_vs_oracle(self, charged_datum, charged_scenario):
        expected = charged_scenario.oracle.moment(1, 3.1)
        got = _engine(charged_datum).moments([1], [3.1])[0, 0]
        assert abs(got - expected) < 1e-8
        assert abs(expected - 8.0) < 1e-10  # symmetric fiber: 4 * f1-even part

    def test_on_curve_rejected(self, graph_datum):
        with pytest.raises(MomentError):
            _engine(graph_datum).moments([1], [1.0 + 0.0j])

    def test_order_cap(self, graph_datum):
        with pytest.raises(MomentError):
            _engine(graph_datum).moments([33], [0.1])

    def test_direct_blocks_match_cauchy_sums(self, charged_datum,
                                             monkeypatch):
        # in blocks of 3 points, 10 points take 4 products; a point next to
        # f2(gamma) in the second block fails the batch, which evaluates
        # without it
        from nodal_idn import moments
        engine = _engine(charged_datum)
        monkeypatch.setattr(moments, "DIRECT_BLOCK", 3 * engine.f2.size)
        xi = 3.1 + 0.2 * np.exp(2j * np.pi * np.arange(10) / 10)
        orders = np.arange(1, 9)
        theta_rows = charged_datum.theta[[0, 2]] * charged_datum.curve.derivatives
        for ells, weights in ((None, engine.df2[None, :]),
                              ((0, 2), theta_rows)):
            got = engine._direct(ells, orders, xi)
            want = _cauchy_sums(weights, engine.f1, engine.f2, orders, xi)
            assert np.max(np.abs(got - want) / np.maximum(1, np.abs(want))) \
                < 1e-12
        near = xi.copy()
        near[4] = engine.f2[17] + 1e-3
        with pytest.raises(MomentError, match="on-curve"):
            engine._direct(None, orders, near)
        rest = np.delete(near, 4)
        got = engine._direct(None, orders, rest)
        want = _cauchy_sums(engine.df2[None, :], engine.f1, engine.f2, orders,
                            rest)
        assert np.max(np.abs(got - want) / np.maximum(1, np.abs(want))) < 1e-12

    def test_moment_equals_fiber_sum(self, charged_datum, charged_scenario):
        engine = _engine(charged_datum)
        for m in (0, 1, 2, 3):
            for xi in (3.1, 3.0 + 0.2j, 2.9 - 0.1j):
                got = engine.moments([m], [xi])[0, 0]
                want = charged_scenario.oracle.moment(m, xi)
                assert abs(got - want) < 1e-8

    def test_quadrature_convergence(self, monkeypatch):
        # the pole-distance guard pins plain quadrature to machine
        # precision, so the decay is observable only inside its margin; a
        # lenient engine exposes it
        from nodal_idn import moments
        monkeypatch.setattr(moments, "NEAR_SPACINGS", 2.0)
        errs = {}
        xi = 0.55 + 0.05j
        for n in (32, 64):
            engine = MomentEngine.from_datum(graph_scn(n).datum())
            errs[n] = abs(engine.moments([2], [xi])[0, 0] - xi**4)
        assert errs[32] / max(errs[64], 1e-16) > 1e2


def _cauchy_sums(weights, f1, f2, orders, xi):
    """(1/iN) sum_k w_k f1_k^m / (f2_k - xi) for every weight row, order
    and point, summed term by term; shape (weights, orders, points)."""
    terms = (weights[:, None, :, None] * f1[None, None, :, None]
             ** np.asarray(orders)[None, :, None, None]
             / (f2[None, None, :, None] - np.asarray(xi)[None, None, None, :]))
    return terms.sum(axis=2) / (1j * f2.size)


def _trig_curve(n, coeffs):
    """Samples of sum_k a_k e^(ikt) at t_j = 2 pi j / n and of its exact
    t-derivative; ``coeffs`` maps k to a_k."""
    t = 2 * np.pi * np.arange(n) / n
    values = sum(a * np.exp(1j * k * t) for k, a in coeffs.items())
    slope = sum(1j * k * a * np.exp(1j * k * t) for k, a in coeffs.items())
    return values, slope


_coefficient = st.complex_numbers(max_magnitude=0.3, allow_nan=False,
                                  allow_infinity=False)


class TestLocalExpansion:
    """The Taylor expansion of the kernel about a disc centre against the
    Cauchy sums written out term by term."""

    @given(st.sampled_from([64, 128, 256]),
           st.lists(_coefficient, min_size=6, max_size=6),
           st.lists(_coefficient, min_size=4, max_size=4),
           st.complex_numbers(max_magnitude=0.8, allow_nan=False,
                              allow_infinity=False),
           st.floats(0.05, 0.95), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_cauchy_sums(self, n, f2_coeffs, f1_coeffs, center,
                                 share, seed):
        # f2 = e^(it) + 0.3-bounded harmonics -3..3, f1 a random
        # trigonometric polynomial; the disc takes ``share`` of the room
        # between its centre and the near-curve band
        f2, _ = _trig_curve(n, {1: 1.0, **dict(zip((-3, -2, -1, 0, 2, 3),
                                                    f2_coeffs))})
        f1, _ = _trig_curve(n, dict(zip((-2, -1, 1, 2), f1_coeffs)))
        rng = np.random.default_rng(seed)
        theta = rng.normal(size=(3, n)) + 1j * rng.normal(size=(3, n))
        curve = BoundaryCurve.circle(1.0, n)
        engine = MomentEngine(curve, f1, f2, theta)
        df2 = engine.df2
        near = NEAR_SPACINGS * 2 * np.pi / n * np.abs(df2)
        room = float(np.min(np.abs(f2 - center) - near))
        assume(room > 1e-3)
        radius = share * room
        distance = float(np.min(np.abs(f2 - center)))
        rho = radius / distance
        u = rng.uniform(0, 1, 12) * np.exp(2j * np.pi * rng.uniform(0, 1, 12))
        xi = center + radius * np.r_[u, np.exp(2j * np.pi * rng.uniform())]
        for ells, weights in ((None, df2[None, :]),
                              ((0, 2), theta[[0, 2]] * curve.derivatives)):
            expansion = engine.local_expansion(ells, 4, center, radius)
            order = truncation_order(rho)
            if order is None:
                assert expansion is None and rho > 0.5
                continue
            assert expansion.coeffs.shape == (len(weights), 5, order)
            want = _cauchy_sums(weights, f1, f2, range(5), xi)
            got = expansion(np.arange(5), xi)
            assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) \
                < 1e-12
            # at half the order the tail bound (1/N) sum |w f1^m| rho^J /
            # (d (1 - rho)) covers the truncation error
            half = LocalExpansion(expansion.center, expansion.radius,
                                  expansion.coeffs[..., :order // 2])
            bound = (np.abs(weights)[:, None, :]
                     * np.abs(f1)[None, None, :] ** np.arange(5)[None, :, None]
                     ).sum(axis=2) / n * rho ** (order // 2) \
                / (distance * (1 - rho))
            error = np.abs(half(np.arange(5), xi) - want)
            assert np.all(error <= bound[:, :, None]
                          + 1e-12 * np.maximum(1.0, np.abs(want)))

    def test_disc_test_at_its_edge(self, charged_datum, monkeypatch):
        # with a near band of 12 grid spacings a disc about 3 may reach to
        # the band of no sample: radius below min_k |f2_k - 3| - near_k
        from nodal_idn import moments
        monkeypatch.setattr(moments, "NEAR_SPACINGS", 12.0)
        datum = charged_datum
        engine = _engine(datum)
        near = 12.0 * 2 * np.pi / datum.curve.n * np.abs(engine.df2)
        room = float(np.min(np.abs(engine.f2 - 3.0) - near))
        assert engine.local_expansion(None, 2, 3.0, room * (1 + 1e-9)) is None
        assert engine.local_expansion(None, 2, 3.0, room * (1 - 1e-9)) \
            is not None

    def test_batch_reuses_disc(self, charged_datum):
        # a window grid builds one disc per weight set and order range; the
        # next grids inside it are evaluated from its coefficients alone
        engine = _engine(charged_datum)
        direct = []
        kernel = engine._direct
        engine._direct = lambda *args: direct.append(args) or kernel(*args)
        for center in (3.1, 3.0 + 0.1j, 2.9):
            grid, _ = window_grid(center, 0.09, 9)
            got = engine.moments(range(1, 9), grid)
            want = _cauchy_sums(engine.df2[None, :], engine.f1, engine.f2,
                                range(1, 9), grid)[0]
            assert np.max(np.abs(got - want) / np.maximum(1, np.abs(want))) \
                < 1e-12
        assert direct == []
        assert len(engine._expansions[None]) == 1

    def test_small_batch_builds_no_disc(self, charged_datum):
        # a new disc needs J terms: 27 at its least radius d/4, 29 at the
        # radius 0.28 d.  A batch of fewer points goes direct and builds
        # nothing, a batch of J or more builds the disc.  Even counts on a
        # circle about 3.1 keep the bounding-box centre at 3.1
        d = float(np.min(np.abs(charged_datum.f[1] - 3.1)))
        for radius, order in ((0.01, 27), (0.28 * d, 29)):
            engine = _engine(charged_datum)
            for count, discs in ((order - 1, 0), (order + 1, 1)):
                xi = 3.1 + radius * np.exp(2j * np.pi * np.arange(count)
                                           / count)
                engine.moments(range(1, 9), xi)
                assert len(engine._expansions[None]) == discs
            assert engine._expansions[None][0].coeffs.shape == (1, 9, order)

    def test_straddling_batch_matches_direct(self, charged_datum):
        engine = _engine(charged_datum)
        grid, _ = window_grid(3.1, 0.09, 9)
        engine.moments(range(1, 9), grid)
        (disc,) = engine._expansions[None]
        # segments from the disc's centre to 1.5 radii out: 10 points go
        # direct, 60 points straddle the edge and get a disc of their own
        for count in (10, 60):
            xi = disc.center + 1.5 * disc.radius * np.linspace(0, 1, count) \
                * np.exp(0.3j)
            got = engine.moments(range(1, 9), xi)
            want = _cauchy_sums(engine.df2[None, :], engine.f1, engine.f2,
                                range(1, 9), xi)[0]
            assert np.max(np.abs(got - want) / np.maximum(1, np.abs(want))) \
                < 1e-12
        assert len(engine._expansions[None]) == 2

    @pytest.mark.parametrize("count", [2, 40])
    def test_near_point_fails_alone(self, charged_datum, count):
        # a batch of points in a cached disc plus one next to f2(gamma)
        # fails; the batch without that point evaluates
        engine = _engine(charged_datum)
        grid, _ = window_grid(3.1, 0.09, 9)
        engine.moments(range(1, 9), grid)
        xi = np.r_[grid[:count - 1], engine.f2[17] + 1e-3]
        threshold = 6.0 * 2 * np.pi / engine.f2.size * np.abs(engine.df2)
        want = np.any(np.abs(xi[:, None] - engine.f2[None, :]) < threshold,
                      axis=1)
        assert want.tolist() == [False] * (count - 1) + [True]
        with pytest.raises(MomentError, match="on-curve"):
            engine.moments(range(1, 9), xi)
        got = engine.moments(range(1, 9), xi[~want])
        assert got.shape == (8, count - 1) and np.isfinite(got).all()


class TestMomentTable:
    """The moments of a window grid, before any fiber is recovered."""

    def test_grid_avoids_curve(self, graph_datum):
        with pytest.raises(MomentError, match="on-curve"):
            analyze_window(_engine(graph_datum), 0.95 + 0.0j, 0.2, 9)

    def test_holomorphy_residual(self, charged_datum):
        grid, shape = window_grid(3.0 + 0.45j, 0.1, 9)
        spacing = float(np.abs(grid[1] - grid[0]))
        rows = _engine(charged_datum).moments([1, 2], grid)
        assert cr_residual(rows[0].reshape(shape), spacing) < 1e-5
        assert cr_residual(rows[1].reshape(shape), spacing) < 1e-5


class TestSheetCount:
    """p = M_0 where M_0 is an integer over the whole window grid."""

    def test_graph_single_sheet(self, graph_datum):
        assert analyze_window(_engine(graph_datum), 0.2 + 0.1j, 0.3, 9).p == 1

    def test_four_sheets_vs_winding_oracle(self, charged_datum):
        window = analyze_window(_engine(charged_datum), 3.1 + 0.0j, 0.1, 9)
        winding = argument_principle_count(charged_datum.f[1], 3.1)
        assert window.p == winding == 4

    def test_empty_fiber(self, graph_datum):
        window = analyze_window(_engine(graph_datum), 5.0 + 0.0j, 0.3, 9)
        assert window.p == 0 and window.roots.shape == (81, 0)

    def test_integrality_over_window(self, charged_datum):
        grid, _ = window_grid(3.1 + 0.0j, 0.1, 9)
        m0 = _engine(charged_datum).moments([0], grid)[0]
        assert np.max(np.abs(m0 - 4)) < 1e-4
        assert integral_sheet_count(m0) == 4

    def test_inconclusive_count_errors(self):
        assert integral_sheet_count(np.full(9, 2.3, dtype=complex)) is None
        assert integral_sheet_count(np.r_[np.full(8, 2.0), 3.0]) is None
        assert integral_sheet_count(np.full(9, -1.0)) is None

    def test_non_finite_count_is_ambiguous(self):
        for bad in (np.nan, np.inf, -np.inf, complex(np.nan, 0.0)):
            for at in (0, 4):
                m0 = np.full(9, 4.0, dtype=complex)
                m0[at] = bad
                assert integral_sheet_count(m0) is None

    @given(st.integers(-3, 6),
           st.lists(st.one_of(st.just(0.0),
                              st.floats(-0.99e-4, 0.99e-4),
                              st.floats(1.01e-4, 0.5),
                              st.floats(-0.5, -1.01e-4),
                              st.floats(-4.0, 4.0)),
                    min_size=1, max_size=9),
           st.lists(st.floats(-0.99e-4, 0.99e-4), min_size=9, max_size=9))
    @settings(max_examples=300, deadline=None)
    def test_count_matches_median_rule(self, p, real, imag):
        # the median of the samples, rounded, names the only candidate p;
        # any one sample must name the same one
        m0 = p + np.array(real) + 1j * np.array(imag[:len(real)])
        want = int(np.rint(np.median(m0.real)))
        if not (np.max(np.abs(m0 - want)) < 1e-4 and want >= 0):
            want = None
        assert integral_sheet_count(m0) == want

    def test_window_with_fractional_m0_raises(self):
        class FractionalM0:
            """M_0 = 2.3 at every point, far from any curve sample."""
            f2 = np.array([100.0 + 0.0j])

            def moments(self, orders, xi):
                assert list(orders) == [0]
                return np.full((1, len(xi)), 2.3, dtype=complex)

        with pytest.raises(MomentError, match="sheet count ambiguous"):
            analyze_window(FractionalM0(), 0.0, 1.0, 9)


class TestEliminatePolynomialPart:
    """MomentEngine.check_bounded_regime: the polynomial part of the
    moments must vanish before they are read as fiber power sums."""

    def test_bounded_regime_four_sheet(self, charged_datum):
        # orders 1..3 put the fit on 6 far probes
        engine = MomentEngine.from_datum(charged_datum)
        grid, _ = window_grid(3.1 + 0.0j, 0.1, 9)
        sums = engine.moments([1, 2, 3], grid).T
        assert engine.check_bounded_regime(sums) < 1e-9

    def test_far_fit_made_once_per_order_count(self, charged_datum):
        engine = MomentEngine.from_datum(charged_datum)
        sums = [engine.moments([1, 2], window_grid(c, 0.1, 9)[0]).T
                for c in (3.1, 3.0 + 0.1j)]
        probes = []
        kernel = engine.moments

        def counting(orders, xi):
            probes.append(len(xi))
            return kernel(orders, xi)

        engine.moments = counting
        first = engine.check_bounded_regime(sums[0])
        assert engine.check_bounded_regime(sums[1]) == first
        assert probes == [5]

    def test_unbounded_data_detected(self, graph_datum):
        # data with a polynomial part: M_1(xi) = xi on the window and on
        # the far probes alike
        engine = MomentEngine.from_datum(graph_datum)
        engine.moments = lambda orders, xi: np.asarray(xi)[None, :]
        xi = np.linspace(1.0, 2.0, 12).astype(complex)
        with pytest.raises(MomentError):
            engine.check_bounded_regime(xi[:, None])


class TestRecoverFibers:
    def test_newton_identities_by_hand(self):
        roots = np.sort(roots_from_power_sums(np.array([3.0, 5.0])).real)
        assert np.allclose(roots, [1.0, 2.0], atol=1e-12)

    def test_batched_rows_with_a_zero_root(self):
        # roots (0, 1, 2) give e_3 = 0 exactly: that row is deflated as
        # np.roots deflates it, the other goes through the stacked solve
        got = roots_from_power_sums(np.array([[3, 5, 9], [6, 14, 36]]))
        assert np.array_equal(np.sort_complex(got[0]), [0, 1, 2])
        assert np.allclose(np.sort_complex(got[1]), [1, 2, 3], atol=1e-12)

    def test_single_sheet(self):
        assert np.allclose(recover_fibers(np.array([0.7 + 0.2j]), 1),
                           [0.7 + 0.2j])

    def test_four_sheet_vs_companion_oracle(self, charged_scenario):
        oracle_roots = charged_scenario.oracle.fibers(3.1)
        h = charged_scenario.oracle.f1(oracle_roots)
        sums = np.array([np.sum(h**m) for m in range(1, 5)])
        got = recover_fibers(sums, 4)
        for val in h:
            assert np.min(np.abs(got - val)) < 1e-9

    def test_matching_collision(self):
        prev = np.array([0.0 + 0.0j, 0.1 + 0.0j])
        new = np.array([10.0 + 0.0j, 10.0001 + 0.0j])
        with pytest.raises(FiberError):
            recover_fibers(_power_sums(new), 2, previous=prev)

    def test_matching_swap_raises(self):
        # each root of (0.4 - 0.5j, 0.6 + 0.5j) is nearest to a different
        # one of (0, 1), but 0.64 away, past half their separation 1
        new = np.array([0.6 + 0.5j, 0.4 - 0.5j])
        with pytest.raises(FiberError, match="half the root separation"):
            recover_fibers(_power_sums(new), 2, previous=[0.0, 1.0])

    def test_power_sum_defect_matches_cumprod(self, rng):
        # the running product against the (B, 2p, p) cube of np.cumprod
        # powers, in the same long double: equal bit for bit
        for p in range(1, 17):
            roots, sums = (rng.standard_normal((5, k, 2)) @ [1, 1j]
                           for k in (p, 2 * p))
            h = roots.astype(np.clongdouble)
            cube = np.cumprod(np.repeat(h[:, None, :], 2 * p, axis=1), axis=1)
            assert np.array_equal(_power_sum_defect(roots, sums),
                                  cube.sum(axis=-1) - sums)

    def test_long_double_is_extended(self):
        # the root refinement keeps its defect in long double; where that is
        # plain double the round-trip bounds below are out of reach
        assert np.finfo(np.longdouble).nmant > 52

    @given(st.lists(st.integers(min_value=-20, max_value=20),
                    min_size=2, max_size=16, unique=True))
    @example([0, 1, 13, 16, 18, 14, 15, 11])
    @example([-7, -8, -9, -12, -11, -10, -14])
    @example([9, 10, 11, 12, 13, 14, 20])
    @settings(max_examples=60, deadline=None)
    def test_newton_round_trip(self, grid_points):
        # integer lattice points scaled to guarantee separation > 0.3; the
        # sums handed over are rounded, and their exact roots can sit beyond
        # 1e-9 from the lattice (1.1e-9 for the last example), so the
        # reference is the exact roots of the rounded sums
        roots = np.array([0.3 * g + 0.18j * abs(g) for g in grid_points[:8]])
        sums = _power_sums(roots)
        _assert_covers(recover_fibers(sums, roots.size), _exact_roots(sums))

    @given(st.lists(st.integers(min_value=-20, max_value=20),
                    min_size=2, max_size=16, unique=True))
    @example([12, 13, 14, 16, 15, 11])
    @example([-20, -19, -18, -17, -16, -15, -14, -13])
    @settings(max_examples=60, deadline=None)
    def test_newton_round_trip_exact_sums(self, grid_points):
        # dyadic lattice (separation >= 0.25): every root and power sum is
        # exact in double, so the reference roots are the exact roots of the
        # sums handed over and the bound measures the solver alone
        roots = np.array([0.25 * g + 0.125j * abs(g) for g in grid_points[:8]])
        _assert_round_trip(roots)


    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_mixed_batches_cover_exact_roots(self, data):
        # one batch of rows of one size p: separated lattice rows, clusters
        # of 2-4 roots, exact double roots and exact zero roots; each row
        # must cover the exact roots of its rounded sums to within what
        # double precision resolves of them (``_resolution``)
        p = data.draw(st.integers(1, 16))
        rows, groups = zip(*[data.draw(_root_row(p))
                             for _ in range(data.draw(st.integers(1, 4)))])
        sums = np.array([_power_sums(roots, 2 * p) for roots in rows])
        got = recover_fibers(sums, p)
        for row, roots, size, s in zip(got, rows, groups, sums):
            bound = np.maximum(1e-9, 4 * _resolution(roots, size))
            for val in _exact_roots(s[:p]):
                nearest = int(np.argmin(np.abs(roots - val)))
                assert np.min(np.abs(row - val)) <= bound[nearest]

    def test_eigensolve_only_for_rows_that_do_not_converge(self, monkeypatch):
        solved = []
        eigvals = np.linalg.eigvals

        def counting(matrices):
            solved.append(len(matrices))
            return eigvals(matrices)

        monkeypatch.setattr(np.linalg, "eigvals", counting)
        lattices = ([0, 1, 13, 16, 18, 14, 15],
                    [-7, -8, -9, -12, -11, -10, -14],
                    [9, 10, 11, 12, 13, 14, 20], [-20, -5, 0, 3, 7, 17, 19])
        separated = [np.array([0.3 * g + 0.18j * abs(g) for g in row])
                     for row in lattices]
        sums = np.resize([_power_sums(roots, 14) for roots in separated],
                         (64, 14))
        recover_fibers(sums, 7)
        assert solved == []
        # a 4-row batch iterates and needs no eigensolve
        recover_fibers(sums[:4], 7)
        assert solved == []
        fourfold = np.r_[[1.5] * 4, separated[0][4:]]
        sums[-1] = _power_sums(fourfold, 14)
        got = recover_fibers(sums, 7)
        assert solved == [1]
        bound = np.maximum(1e-9, 4 * _resolution(fourfold, 4))
        for val in _exact_roots(sums[-1, :7]):
            nearest = int(np.argmin(np.abs(fourfold - val)))
            assert np.min(np.abs(got[-1] - val)) <= bound[nearest]

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_each_row_recovered_alone(self, data):
        # a batch of 1-100 rows of one size p, each one of up to six rows of
        # the kinds of ``_root_row``, some with S_(p+1..2p) off by 1e-3 of
        # their size: every row's roots, refined roots and fault are those
        # of the row recovered alone, bit for bit, and exactly the perturbed
        # rows are at fault.  The batch raises the first faulted row's
        # message, else its fibers are those of each row alone
        p = data.draw(st.integers(1, 16))
        kinds, perturbed = [], []
        for _ in range(data.draw(st.integers(1, 6))):
            sums = _power_sums(data.draw(_root_row(p))[0], 2 * p)
            perturbed.append(data.draw(st.booleans()))
            if perturbed[-1]:
                sums[p:] += 1e-3 * np.maximum(1.0, np.abs(sums[p:]))
            kinds.append(sums)
        picks = data.draw(st.lists(st.integers(0, len(kinds) - 1),
                                   min_size=1, max_size=100))
        sums = np.array([kinds[k] for k in picks])
        roots = roots_from_power_sums(sums[:, :p])
        refined, faults = _fiber_roots(sums, p)
        alone = [(roots_from_power_sums(s[None, :p])[0],
                  *(part[0] for part in _fiber_roots(s[None], p)))
                 for s in kinds]
        for k, row_roots, row_refined, fault in zip(picks, roots, refined,
                                                    faults):
            assert row_roots.tobytes() == alone[k][0].tobytes()
            assert row_refined.tobytes() == alone[k][1].tobytes()
            assert fault == alone[k][2]
            assert (fault is not None) == perturbed[k]
        if any(faults):
            with pytest.raises(FiberError) as info:
                recover_fibers(sums, p)
            assert str(info.value) == next(filter(None, faults))
        else:
            fibers = recover_fibers(sums, p)
            for k, row in zip(picks, fibers):
                assert row.tobytes() == \
                    recover_fibers(kinds[k][None], p)[0].tobytes()

    @pytest.mark.parametrize("clustered", [False, True])
    def test_one_vector_is_a_one_row_batch(self, clustered):
        # a vector of power sums takes the array arithmetic of a batch in
        # Newton's identities, not numpy's scalar one, and rounds alike
        sums = _power_sums(np.array([0, 0.3 + 0.18j, 0.6 + 0.36j]))
        one = roots_from_power_sums(sums, clustered=clustered)
        batch = roots_from_power_sums(sums[None], clustered=clustered)
        assert one.tobytes() == batch[0].tobytes()

    def test_repeated_root_is_kept_and_refused(self):
        # a row with an exactly repeated root has a singular Jacobian and
        # Vandermonde matrix: the Newton steps leave it as it is, the
        # quotient solve refuses its group, and neither warns
        repeated = np.array([0.5, 0.5, 1.5 + 0.2j])
        near = np.array([0.2, 0.9, 1.7 - 0.3j])
        sums = np.array([_power_sums(repeated + [0, 1e-3, 0]),
                         _power_sums(near)])
        start = np.array([repeated, near + 1e-7])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            refined = _refine_roots(start, sums)
            assert not np.isfinite(_vandermonde_solve(repeated, sums[0])).all()
            g, refused = _solve_quotients(start[:, None],
                                          np.ones((3, 3, 2, 1), complex))
        assert refined[0].tobytes() == repeated.tobytes()
        assert np.max(np.abs(refined[1] - near)) < 1e-12
        assert refused.tolist() == [True, False]
        assert np.isfinite(g[:, 1]).all()


@st.composite
def _root_row(draw, p):
    """p roots on the lattice of ``test_newton_round_trip``, of one kind:
    separated; a cluster of 2-4 roots 1e-6 to 1e-3 apart; an exact double
    root; or an exact zero root.  Returns the roots and the size k of the
    cluster ``roots[:k]`` (1 for none)."""
    lattice = draw(st.lists(st.integers(-20, 20), min_size=p, max_size=p,
                            unique=True))
    roots = np.array([0.3 * g + 0.18j * abs(g) for g in lattice])
    kind = draw(st.sampled_from(["separated", "cluster", "double", "zero"]))
    if kind == "cluster" and p >= 2:
        size = draw(st.integers(2, min(4, p)))
        gap = 10.0 ** draw(st.floats(-6, -3))
        turn = np.arange(size) / size + draw(st.floats(0, 1))
        roots[:size] = roots[0] + gap * np.exp(2j * np.pi * turn)
        return roots, size
    if kind == "double" and p >= 2:
        roots[1] = roots[0]
        return roots, 2
    if kind == "zero":
        roots[roots == 0] = 6.3         # the lattice point 0 moves off it
        roots[0] = 0.0
    return roots, 1


def _resolution(roots, size):
    """Per root v, the radius within which double precision resolves it
    from the power sums of ``roots``, whose first ``size`` form a cluster.
    Newton's identity for e_k in double errs by about eps T_k, where
    T_k = max_i |e_(k-i) S_i| / k is its largest term; a root of
    multiplicity m under such coefficient errors moves by Wilkinson's
    (eps sum_k T_k |v|^(p-k) / prod_j |v - h_j|)^(1/m), the product over
    the roots outside v's cluster.  Computed from the drawn roots alone."""
    p = roots.size
    e = np.poly(roots)                  # 1, -e_1, e_2, ...
    s = _power_sums(roots, p)
    terms = np.zeros(p + 1)
    for k in range(1, p + 1):
        terms[k] = max(abs(e[k - i] * s[i - 1]) for i in range(1, k + 1)) / k
    group = np.arange(p)
    group[:size] = 0
    out = np.empty(p)
    for j, v in enumerate(roots):
        members = group == group[j]
        scale = np.sum(terms * np.abs(v) ** np.arange(p, -1, -1))
        rest = np.prod(np.abs(v - roots[~members]))
        out[j] = (DOUBLE_EPS * scale / rest) ** (1 / members.sum())
    return out


def _power_sums(roots, count=None):
    return np.array([np.sum(roots**m)
                     for m in range(1, (count or roots.size) + 1)])


def _exact_roots(sums):
    """Roots of the given power sums in 60-digit arithmetic: Newton's
    identities for the elementary symmetric functions, then mpmath's
    polyroots.  Shares no code with the engine."""
    import mpmath
    with mpmath.workdps(60):
        p = [mpmath.mpc(complex(s)) for s in sums]
        e = [mpmath.mpc(1)]
        for k in range(1, len(p) + 1):
            e.append(sum((-1) ** (i - 1) * e[k - i] * p[i - 1]
                         for i in range(1, k + 1)) / k)
        coeffs = [(-1) ** k * e[k] for k in range(len(e))]
        found = mpmath.polyroots(coeffs, maxsteps=500, extraprec=200)
        return np.array([complex(r) for r in found])


def _assert_covers(got, reference):
    for val in reference:
        assert np.min(np.abs(got - val)) < 1e-9


def _assert_round_trip(roots):
    _assert_covers(recover_fibers(_power_sums(roots), roots.size), roots)


class TestMatchRows:
    def test_batched_rows_match_alone(self, rng):
        # rows of separated roots, each shuffled and nudged: every row maps
        # back onto its predecessor by the inverse of its shuffle
        previous = rng.normal(size=(5, 4)) + 1j * rng.normal(size=(5, 4))
        previous += 3.0 * np.arange(4)
        shuffles = np.array([rng.permutation(4) for _ in range(5)])
        new = np.take_along_axis(previous, shuffles, axis=1) + 1e-3
        choice, unsafe = match_rows(previous, new)
        matched = np.take_along_axis(new, choice, axis=1)
        assert not unsafe.any()
        assert np.array_equal(np.sort(choice, axis=1),
                              np.broadcast_to(np.arange(4), (5, 4)))
        assert np.array_equal(choice, np.argsort(shuffles, axis=1))
        assert np.allclose(matched, previous + 1e-3)
        # a row whose two predecessors claim one root collides alone
        new[2, :2] = previous[2, 0] + np.array([1e-3, 2e-3])
        new[2, 2:] = 50.0 + np.arange(2)
        choice_again, unsafe = match_rows(previous, new)
        matched_again = np.take_along_axis(new, choice_again, axis=1)
        assert unsafe.tolist() == [False, False, True, False, False]
        rows = [0, 1, 3, 4]
        assert np.array_equal(choice_again[rows], choice[rows])
        assert np.array_equal(matched_again[rows], matched[rows])

    def test_infinite_root_is_unsafe_without_warning(self):
        # inf - inf is NaN, which the half-separation rule counts unsafe
        previous = np.array([[np.inf, 1.0]], dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, unsafe = match_rows(previous, np.array([[0.0, 1.0 + 0j]]))
        assert unsafe.tolist() == [True]

    @given(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
                    min_size=1, max_size=6, unique=True),
           st.data())
    @settings(max_examples=80, deadline=None)
    def test_moves_below_half_the_separation_match(self, lattice, data):
        # each root moves by less than half its distance to the nearest
        # other root, and the successors are shuffled: the match undoes the
        # drawn shuffle; a successor put onto another root's predecessor
        # leaves its own predecessor no root within half its separation
        previous = np.array([a + 1j * b for a, b in lattice])
        p = previous.size
        gaps = np.abs(previous[:, None] - previous[None, :])
        seps = np.min(gaps + np.diag(np.full(p, np.inf)), axis=1)
        share = st.floats(0.0, 0.99)
        turn = st.floats(0.0, 2 * np.pi)
        moves = np.array([data.draw(share) * 0.5 * min(sep, 10.0)
                          * np.exp(1j * data.draw(turn)) for sep in seps])
        shuffle = np.array(data.draw(st.permutations(range(p))))
        new = (previous + moves)[shuffle]
        choice, unsafe = match_rows(previous[None], new[None])
        assert np.array_equal(choice[0], np.argsort(shuffle))
        assert not unsafe.any()
        if p < 2:
            return
        moved, onto = data.draw(st.lists(st.integers(0, p - 1), min_size=2,
                                         max_size=2, unique=True))
        bad = new.copy()
        bad[np.flatnonzero(shuffle == moved)] = previous[onto]
        _, unsafe = match_rows(np.stack([previous, previous]),
                               np.stack([new, bad]))
        assert unsafe.tolist() == [False, True]


class TestEngineRoots:
    @given(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
                    min_size=1, max_size=10, unique=True))
    @settings(max_examples=60, deadline=None)
    def test_matches_oracle_on_random_monic(self, lattice):
        # monic polynomials with lattice roots, spaced at least 0.25 apart
        true = np.array([0.25 * (a + 1j * b) for a, b in lattice])
        coeffs = np.poly(true)[::-1]
        got = companion_roots(coeffs)
        want = polynomial_roots(coeffs)
        assert got.size == want.size == true.size
        for val in want:
            assert np.min(np.abs(got - val)) < 1e-8
        for val in true:
            assert np.min(np.abs(got - val)) < 1e-8


class PowerSumFamily:
    """Stand-in for ``MomentEngine.moments``: the power sums of the roots
    r_j(xi) = a_j + b_j xi + c_j xi^2 of a monic family.  Points with
    |xi| > reach are refused as on-curve points are, with their batch."""

    def __init__(self, coeffs, reach=np.inf):
        self.coeffs = np.asarray(coeffs, dtype=complex)     # (p, 3)
        self.reach = reach

    def roots(self, xi):
        xi = np.atleast_1d(np.asarray(xi, dtype=complex))[:, None]
        a, b, c = self.coeffs.T
        return a + b * xi + c * xi ** 2

    def moments(self, orders, xi):
        xi = np.atleast_1d(xi)
        if np.any(np.abs(xi) > self.reach):
            raise MomentError("beyond the family's reach")
        # point by point, so that a value does not depend on its batch
        h = [self.roots(x)[0] for x in xi]
        return np.array([[np.sum(r ** m) for r in h] for m in orders])


class Inconsistent(PowerSumFamily):
    """A PowerSumFamily whose S_(2p) is off by 1e-3 wherever ``where(xi)``
    holds."""

    def __init__(self, coeffs, where):
        super().__init__(coeffs)
        self.where = where

    def moments(self, orders, xi):
        out = super().moments(orders, xi)
        out[-1] += 1e-3 * self.where(np.asarray(xi))
        return out


class Counting:
    """An engine's ``moments``, recording the size of every call; every
    other attribute is the engine's own."""

    def __init__(self, engine):
        self.engine = engine
        self.calls = []

    def moments(self, orders, xi):
        self.calls.append(np.size(xi))
        return self.engine.moments(orders, xi)

    def __getattr__(self, name):
        return getattr(self.engine, name)


def _track_path(engine, p, path, xi, roots, budget=6):
    """Reference continuation of one path, one point at a time, halving an
    unsafe step recursively; raises on the first failure."""
    out = []
    for x in path:
        roots = _track_step(engine, p, xi, roots, x, budget)
        out.append(roots)
        xi = x
    return np.array(out)


def _track_step(engine, p, xi_from, roots_from, xi_to, budget):
    sums = engine.moments(range(1, 2 * p + 1), [xi_to])[:, 0]
    try:
        return recover_fibers(sums, p, previous=roots_from)
    except FiberError as exc:
        # the sums at xi_to do not depend on the path: only an unsafe
        # match is worth a shorter step
        if budget <= 0 or "half the root separation" not in str(exc):
            raise
    mid = 0.5 * (xi_from + xi_to)
    middle = _track_step(engine, p, xi_from, roots_from, mid, budget - 1)
    return _track_step(engine, p, mid, middle, xi_to, budget - 1)


def _lockstep(engine, p, paths, start_xi, start_roots, budget=6):
    """continue_fibers' tracks, with ``budget`` halvings, or None where it
    raises."""
    from nodal_idn import moments
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(moments, "MAX_HALVINGS", budget)
            return continue_fibers(engine, p, paths, start_xi, start_roots)
    except (FiberError, MomentError):
        return None


_lattice = st.integers(-6, 6)


class TestContinuation:
    @given(st.lists(st.tuples(_lattice, _lattice), min_size=1, max_size=4,
                    unique=True),
           st.lists(st.tuples(_lattice, _lattice, _lattice), min_size=4,
                    max_size=4),
           st.lists(st.tuples(_lattice, _lattice, _lattice, _lattice),
                    min_size=1, max_size=6),
           st.sampled_from([0, 1, 6]))
    @settings(max_examples=80, deadline=None)
    def test_lockstep_matches_per_path_loop(self, origins, slopes, walks,
                                            budget):
        # roots 0.25 apart at xi = 0, moving at random speeds; the walks run
        # from |xi| <= 0.85 to |xi| <= 1.7, some past the reach 1.2, some
        # with steps long enough to collide, to be halved or to fail.  The
        # batch arrives iff every path arrives alone, and then bit for bit
        p = len(origins)
        coeffs = [[0.25 * (x + 1j * y), 0.15 * (u + 1j * v), 0.05 * w]
                  for (x, y), (u, v, w) in zip(origins, slopes)]
        engine = PowerSumFamily(coeffs, reach=1.2)
        start = np.array([0.1 * (a + 1j * b) for a, b, _, _ in walks])
        end = np.array([0.2 * (c + 1j * d) for _, _, c, d in walks])
        paths = start[:, None] + (end - start)[:, None] * (np.arange(1, 6) / 5)
        start_roots = engine.roots(start)
        got = _lockstep(engine, p, paths, start, start_roots, budget)
        want = []
        for b in range(len(walks)):
            try:
                want.append(_track_path(engine, p, paths[b], start[b],
                                        start_roots[b], budget))
            except (FiberError, MomentError):
                assert got is None
                return
        assert got is not None
        assert np.array_equal(got, np.array(want))

    def test_first_step_halves(self, monkeypatch):
        # r = (0.9 xi, 1 + xi): from (0, 1) at xi = 0 both roots at xi = 1
        # are nearest to 0.9, so the first step collides unless it is halved
        from nodal_idn import moments
        engine = PowerSumFamily([[0.0, 0.9, 0.0], [1.0, 1.0, 0.0]])
        start = np.array([[0.0, 1.0]], dtype=complex)
        with monkeypatch.context() as patch, \
                pytest.raises(FiberError, match="half the root separation"):
            patch.setattr(moments, "MAX_HALVINGS", 0)
            continue_fibers(engine, 2, [[1.0]], [0.0], start)
        got = continue_fibers(engine, 2, [[1.0]], [0.0], start)
        assert np.allclose(got[0, 0], [0.9, 2.0], atol=1e-12)

    def test_swap_without_collision_halves(self, monkeypatch):
        # r = ((0.6 + 0.5j) xi, 1 - (0.6 + 0.5j) xi): from (0, 1) at xi = 0
        # each root at xi = 1 is nearest to the other's start, and no two
        # claim one root; the roots never come closer than 0.64, but each
        # moves 0.64, past half their separation 1.  Two halvings keep the
        # sheets
        from nodal_idn import moments
        engine = Counting(PowerSumFamily([[0.0, 0.6 + 0.5j, 0.0],
                                          [1.0, -0.6 - 0.5j, 0.0]]))
        start = np.array([[0.0, 1.0]], dtype=complex)
        with monkeypatch.context() as patch, \
                pytest.raises(FiberError, match="half the root separation"):
            patch.setattr(moments, "MAX_HALVINGS", 0)
            continue_fibers(engine, 2, [[1.0]], [0.0], start)
        engine.calls.clear()
        got = continue_fibers(engine, 2, [[1.0]], [0.0], start)
        assert engine.calls == [1, 1, 1]
        assert np.allclose(got[0, 0], [0.6 + 0.5j, 0.4 - 0.5j], atol=1e-12)

    def test_power_sum_failure_is_not_halved(self):
        # S_4 is off by 1e-3 where Re xi > 0.5, whatever the path there:
        # the failing point costs no halvings, and the other path alone
        # arrives
        engine = Counting(Inconsistent([[0.0, 0.5, 0.0], [1.0, 1.0, 0.0]],
                                       lambda xi: np.real(xi) > 0.5))
        start = engine.engine.roots([0.0, 0.0])
        with pytest.raises(FiberError, match="power-sum"):
            continue_fibers(engine, 2, [[1.0], [0.4]], [0.0, 0.0], start)
        assert engine.calls == [2]
        got = continue_fibers(engine, 2, [[0.4]], [0.0], start[1:])
        assert np.allclose(got[0, 0], [0.2, 1.4], atol=1e-12)

    def test_failed_path_keeps_its_own_error(self):
        # path 0 collides at its first step and would arrive once halved;
        # path 1 fails the power-sum check where Im xi > 0.5.  Its error is
        # raised from the first kernel call, before any halving
        engine = Counting(Inconsistent([[0.0, 0.9, 0.0], [1.0, 1.0, 0.0]],
                                       lambda xi: np.imag(xi) > 0.5))
        start = engine.engine.roots([0.0, 0.0])
        with pytest.raises(FiberError, match="power-sum consistency failed "
                                             "at order 4"):
            continue_fibers(engine, 2, [[1.0], [1j]], [0.0, 0.0], start)
        assert engine.calls == [2]
        got = continue_fibers(engine, 2, [[1.0]], [0.0], start[:1])
        assert np.allclose(got[0, 0], [0.9, 2.0], atol=1e-12)

    def test_one_batch_per_block_and_halving_level(self, charged_datum,
                                                   charged_scenario):
        # a stress input, three times the energy rings' 1,280 points: 64
        # rays of 60 points into the charged4 node need one kernel call per
        # ROOT_BLOCK points and no halving, and hold the memory of a block,
        # not of all 3840 points
        oracle = charged_scenario.oracle
        engine = Counting(_engine(charged_datum))
        direction = np.exp(2j * np.pi * np.arange(64) / 64)
        start = 3.0 + 0.05 * direction
        rays = 3.0 + np.linspace(0.05, 0.05 / 32, 61)[None, 1:] \
            * direction[:, None]
        start_roots = np.array([oracle.f1(oracle.fibers(x)) for x in start])
        continue_fibers(engine, 4, rays, start, start_roots)   # builds discs
        engine.calls.clear()
        tracemalloc.start()
        try:
            continue_fibers(engine, 4, rays, start, start_roots)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        blocks = -(-rays.size // ROOT_BLOCK)
        assert engine.calls == [min(ROOT_BLOCK, rays.size - ROOT_BLOCK * k)
                                for k in range(blocks)]
        # about 1.3 MB with blocks of 512 points, 6.5 MB in one block
        assert peak < ROOT_BLOCK * 4096
        # r = (0.9 xi, 1 + xi) from xi = 0: the steps to 1 and to 2 collide,
        # and so do both halves of the step to 2.  The half step 0 -> 0.5
        # moves the root at 1 by 0.5, exactly half its separation, which is
        # not below the bound: it is halved once on the path to 1 and twice
        # on the path to 2.  Each halving level solves the midpoints of
        # every path in one more call
        family = Counting(PowerSumFamily([[0.0, 0.9, 0.0], [1.0, 1.0, 0.0]]))
        got = continue_fibers(family, 2, [[1.0], [2.0]], [0.0, 0.0],
                              family.engine.roots([0.0, 0.0]))
        assert family.calls == [2, 2, 3, 1]
        assert np.allclose(got[:, 0], [[0.9, 2.0], [1.8, 3.0]], atol=1e-12)

    def test_rays_follow_rational_oracle(self, charged_datum, charged_scenario):
        # eight rays out of 3.25 + 0.1j, away from the critical values 2.75
        # and 3 of the projection, tracked together
        oracle = charged_scenario.oracle
        engine = _engine(charged_datum)
        direction = np.exp(2j * np.pi * np.arange(8) / 8)
        start = 3.25 + 0.1j + 0.02 * direction
        rays = 3.25 + 0.1j + np.linspace(0.02, 0.12, 6)[None, 1:] * direction[:, None]
        start_roots = np.array([oracle.f1(oracle.fibers(x)) for x in start])
        got = continue_fibers(engine, 4, rays, start, start_roots)
        assert got.shape == (8, 5, 4)
        for b in range(8):
            prev = start_roots[b]
            for i in range(5):
                want = oracle.f1(oracle.fibers(rays[b, i]))
                # each sheet keeps its oracle sheet: nearest to where it was
                nearest = want[np.argmin(np.abs(prev[:, None] - want[None, :]),
                                         axis=1)]
                assert np.max(np.abs(got[b, i] - nearest)) < 1e-6
                prev = nearest


class TestFormQuotient:
    def test_single_sheet_direct(self, graph_datum):
        engine = _engine(graph_datum)
        xi = 0.3 + 0.1j
        roots = np.array([xi**2])
        g = recover_form_quotient(engine, [xi], roots[None, :])[0, 0]
        a0 = engine.theta_moments([0], [0], [xi])[0, 0, 0]
        assert abs(g[0] - a0) < 1e-12

    def test_four_sheet_rational_oracle(self, charged_datum, charged_scenario):
        xi = 3.1 + 0.05j
        oracle_roots = charged_scenario.oracle.fibers(xi)
        h, g_exact = charged_scenario.oracle.quotients(0, xi)
        got = recover_form_quotient(_engine(charged_datum), [xi],
                                    charged_scenario.oracle.f1(oracle_roots))[0, 0]
        order_a = np.argsort(h.real * 1e6 + h.imag)
        assert np.max(np.abs(np.sort_complex(got) - np.sort_complex(g_exact))) \
            < 1e-6 or np.max(np.abs(got[order_a] - g_exact[order_a])) < 1e-6

    def test_batch_matches_rational_oracle(self, charged_datum,
                                           charged_scenario):
        oracle = charged_scenario.oracle
        xi = 3.1 + 0.08 * np.exp(2j * np.pi * np.arange(10) / 10)
        roots = np.array([oracle.f1(oracle.fibers(x)) for x in xi])
        got = recover_form_quotient(_engine(charged_datum), xi, roots)
        assert got.shape == (3, xi.size, 4)
        for ell in range(3):
            for b, x in enumerate(xi):
                h, g_exact = oracle.quotients(ell, x)
                assert np.allclose(h, roots[b], atol=0.0)
                assert np.max(np.abs(got[ell, b] - g_exact)) < 1e-6

    def test_zero_theta_gives_zero(self, charged_datum):
        datum = charged_datum
        zeroed = datum.theta.copy()
        zeroed[1] = 0.0
        from nodal_idn.dirichlet import DNDatum
        modified = DNDatum(datum.curve, datum.u, zeroed, datum.f,
                           datum.hypothesis_a)
        engine = MomentEngine.from_datum(modified)
        xi = 3.1 + 0.0j
        roots = recover_fibers(engine.moments(range(1, 5), [xi])[:, 0], 4)
        g = recover_form_quotient(engine, [xi], roots[None, :])[1, 0]
        assert np.max(np.abs(g)) < 1e-12

    def test_refused_by_separation_alone(self):
        # roots 1e-7 apart: the Vandermonde system is well within the
        # condition limit, yet the group is refused as near a branch point
        from nodal_idn.moments import _solve_quotients
        roots = np.array([[[0.5, 0.5 + 1e-7]], [[0.5, 1.5]]])   # (2, 1, 2)
        v = roots[..., None, :] ** np.arange(2)[:, None]
        assert np.max(np.linalg.cond(v)) < VANDERMONDE_CONDITION_LIMIT
        g, refused = _solve_quotients(roots, np.ones((3, 2, 2, 1), complex))
        assert refused.tolist() == [True, False]
        assert np.allclose(g[:, 1], [[[0.5, 0.5]]] * 3)

    def test_near_collision_rejected(self, charged_datum):
        with pytest.raises(FiberError):
            recover_form_quotient(_engine(charged_datum), [3.1],
                                  np.array([[2.0, 2.0 + 1e-9, 1.0, 3.0]]))

    def test_no_lapack_solve_or_svd(self, charged_datum, charged_scenario,
                                    monkeypatch):
        # the fiber path solves its Vandermonde systems in closed form:
        # with np.linalg.solve and np.linalg.cond raising, fibers,
        # quotients and a charged4 sweep still match the rational map at
        # the tolerances of the tests above
        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg.solve or cond on the fiber path")

        monkeypatch.setattr(np.linalg, "solve", refuse)
        monkeypatch.setattr(np.linalg, "cond", refuse)
        oracle, engine = charged_scenario.oracle, _engine(charged_datum)
        xi = 3.1 + 0.08 * np.exp(2j * np.pi * np.arange(10) / 10)
        exact = np.array([oracle.f1(oracle.fibers(x)) for x in xi])
        fibers = recover_fibers(np.array([_power_sums(h) for h in exact]), 4)
        for got, want in zip(fibers, exact):
            _assert_covers(got, want)
        quotients = recover_form_quotient(engine, xi, exact)
        curve = sweep_windows(engine, charged_scenario.plan)
        assert len(curve.windows) == 8
        checks = [(x, exact[b], quotients[:, b]) for b, x in enumerate(xi)]
        checks += [(w.grid[idx], w.roots[idx], w.quotients[:, idx])
                   for w in curve.windows for idx in range(0, w.grid.size, 17)]
        for x, roots, g in checks:
            for ell in range(3):
                h, g_exact = oracle.quotients(ell, complex(x))
                for val, want in zip(h, g_exact):
                    j = int(np.argmin(np.abs(roots - val)))
                    assert abs(roots[j] - val) < 1e-6
                    assert abs(g[ell, j] - want) < 1e-6


def _mp_condition(roots):
    """The 2-norm condition number of V[m, j] = h_j^m from the singular
    values in 60-digit arithmetic (mpmath)."""
    import mpmath
    with mpmath.workdps(60):
        h = [mpmath.mpc(complex(r)) for r in roots]
        v = mpmath.matrix([[x ** m for x in h] for m in range(len(h))])
        sigma = mpmath.svd_c(v, compute_uv=False)
        return float(max(sigma) / min(sigma))


class TestVandermondeSolve:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_dense_solve(self, data):
        # 1-3 rows of p nodes on the lattice 0.3 (a + ib), at least 0.3
        # apart, and three right sides per row, against LU on the matrix
        # written out here
        p = data.draw(st.integers(1, 8))
        cell = st.tuples(st.integers(-6, 6), st.integers(-6, 6))
        rows = [data.draw(st.lists(cell, min_size=p, max_size=p, unique=True))
                for _ in range(data.draw(st.integers(1, 3)))]
        roots = 0.3 * np.array(rows) @ [1, 1j]                  # (B, p)
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        rhs = rng.standard_normal((3, len(rows), p, 2)) @ [1, 1j]
        got = _vandermonde_solve(roots, rhs)
        for b, h in enumerate(roots):
            v = h[None, :] ** np.arange(p)[:, None]
            want = np.linalg.solve(v, rhs[:, b].T).T
            assert (np.max(np.abs(got[:, b] - want))
                    <= 1e-11 * np.max(np.abs(want)))

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_condition_bound_above_condition_number(self, data):
        # the rows of ``_root_row`` but exact double roots, clusters 1e-6 to
        # 1e-3 apart included.  The reference is the condition number in
        # 60 digits: past about 1e16 np.linalg.cond in double reads up to
        # 1.6 times above it, from the round-off of the smallest singular
        # value.
        p = data.draw(st.integers(1, 8))
        roots, _ = data.draw(_root_row(p))
        assume(np.min(np.abs(np.diff(np.sort_complex(roots)))) > 0
               if p > 1 else True)
        assert _condition_bound(roots) >= _mp_condition(roots)


def _replayed_sweep(engine, plan):
    """sweep_windows' kept windows, failures and notes from one
    analyze_window call per centre and attempt: round by round, every
    pending centre in plan order.  A MomentError fails the window at once;
    a FiberError or a separation below BRANCH_SEPARATION_FLOOR tries again
    half a radius along 0.6 + 0.8i, three attempts in all."""
    centers = [complex(c) for c in plan.centers]
    attempts, outcomes = list(centers), {}
    pending = list(range(len(centers)))
    for attempt in range(3):
        retry = []
        for k in pending:
            if attempt:
                attempts[k] = attempts[k] + plan.radius * 0.5 * (0.6 + 0.8j)
            try:
                window = analyze_window(engine, attempts[k], plan.radius,
                                        plan.grid_n)
            except MomentError as exc:
                outcomes[k] = (attempts[k], str(exc))
                continue
            except FiberError as exc:
                outcomes[k] = (centers[k], str(exc))
            else:
                if window.min_root_separation >= BRANCH_SEPARATION_FLOOR:
                    outcomes[k] = window
                    continue
                outcomes[k] = (centers[k], "root separation collapsed")
            retry.append(k)
        pending = retry
    windows, failures, notes = [], [], []
    for k in range(len(centers)):
        if isinstance(outcomes[k], tuple):
            failures.append(outcomes[k])
            continue
        if attempts[k] != centers[k]:
            outcomes[k].relocated_from = centers[k]
            notes.append(f"window at {centers[k]} re-centered to "
                         f"{attempts[k]} (branch-point straddle)")
        windows.append(outcomes[k])
    return windows, failures, notes


# windows with p = 1 and p = 0 and one on the curve (graph, one sheet
# everywhere); on charged4 also a window straddling the branch point 2.75
MIXED_PLANS = {
    "graph": WindowPlan([0.3, 1.6, 0.98, -0.3, 0.3j], 0.2),
    "charged4": WindowPlan([3.16, 20.0, 2.75, 5.0, 3.0 + 0.16j, 2.84], 0.09),
}


class TestBatchedSweep:
    """sweep_windows runs each round over all pending windows at once."""

    @pytest.mark.parametrize("name", sorted(MIXED_PLANS))
    def test_matches_window_by_window(self, name, request):
        fixture = "graph" if name == "graph" else "charged"
        scenario = request.getfixturevalue(f"{fixture}_scenario")
        datum = request.getfixturevalue(f"{fixture}_datum")
        plan = MIXED_PLANS[name]
        curve = sweep_windows(MomentEngine.from_datum(datum), plan)
        windows, failures, notes = _replayed_sweep(
            MomentEngine.from_datum(datum), plan)
        assert curve.failures == failures and len(failures) == 1
        assert curve.notes == notes
        assert [w.p for w in curve.windows] == [w.p for w in windows]
        assert {w.p for w in windows} >= {0, 1 if name == "graph" else 4}
        for got, want in zip(curve.windows, windows):
            assert got.center == want.center
            assert got.relocated_from == want.relocated_from
            assert got.min_root_separation == want.min_root_separation
            assert np.array_equal(got.roots, want.roots)
            assert np.array_equal(got.quotients, want.quotients)
            for xi, roots in zip(got.grid, got.roots):
                fiber = scenario.oracle.f1(scenario.oracle.fibers(complex(xi)))
                assert len(fiber) == got.p
                for h in fiber:
                    assert np.min(np.abs(roots - h)) < 1e-9
        if name == "charged4":
            assert [w.relocated_from for w in windows].count(2.75) == 1

    @pytest.mark.parametrize("grid_n", [5, 6, 7, 9])
    def test_ring_windows_match_alone_at_every_grid_size(
            self, charged_scenario, charged_datum, grid_n):
        # the rows of a round hold every pending window's grid, so at any
        # grid size a window's roots must not depend on its round-mates
        plan = WindowPlan(charged_scenario.plan.centers,
                          charged_scenario.plan.radius, grid_n)
        curve = sweep_windows(MomentEngine.from_datum(charged_datum), plan)
        windows, failures, notes = _replayed_sweep(
            MomentEngine.from_datum(charged_datum), plan)
        assert curve.failures == failures
        # the replay stitches nothing, so it has no ring monodromy note
        assert curve.notes[:len(notes)] == notes
        assert len(curve.windows) == len(windows) > 0
        for got, want in zip(curve.windows, windows):
            assert got.center == want.center
            assert got.min_root_separation == want.min_root_separation
            assert got.roots.tobytes() == want.roots.tobytes()
            assert got.quotients.tobytes() == want.quotients.tobytes()

    def test_power_sum_fault_names_first_row_of_its_window(
            self, charged_datum, monkeypatch):
        # faults planted in rows 7 and 3 of the second of two windows
        # recovered together: that window alone fails, with row 3's message
        from nodal_idn import moments
        recover = moments._fiber_roots

        def faulty(sums, p):
            roots, faults = recover(sums, p)
            faults[81 + 7], faults[81 + 3] = "fault at 7", "fault at 3"
            return roots, faults

        monkeypatch.setattr(moments, "_fiber_roots", faulty)
        first, second = moments._analyze_windows(
            MomentEngine.from_datum(charged_datum), [3.16, 3.0 + 0.16j],
            0.09, 9)
        assert isinstance(first, FiberWindow) and first.p == 4
        assert isinstance(second, FiberError) and str(second) == "fault at 3"

    @pytest.mark.parametrize("plan, calls", [
        ("ring", [(4, 8 * 81)]),
        ("mixed", [(4, 4 * 81), (4, 81), (4, 81)]),
    ])
    def test_one_root_recovery_per_round_and_sheet_count(
            self, charged_scenario, charged_datum, monkeypatch, plan, calls):
        # the mixed plan takes three rounds to re-centre its window at 2.75
        from nodal_idn import moments
        seen = []
        recover = moments._fiber_roots

        def counted(sums, p):
            seen.append((p, len(sums)))
            return recover(sums, p)

        monkeypatch.setattr(moments, "_fiber_roots", counted)
        plan = charged_scenario.plan if plan == "ring" \
            else MIXED_PLANS["charged4"]
        sweep_windows(MomentEngine.from_datum(charged_datum), plan)
        assert seen == calls


def _one_point_window(center, roots):
    """A two-sheet window whose grid is its centre alone."""
    return FiberWindow(center, 0.1, np.array([center]), (1, 1), 2,
                       np.array([roots]), np.zeros((3, 1, 2), dtype=complex),
                       0.1)


class TestSweep:
    def test_graph_sweep_matches_square(self, graph_sweep):
        assert len(graph_sweep.windows) == 3
        for w in graph_sweep.windows:
            assert w.p == 1
            assert np.max(np.abs(w.roots[:, 0] - w.grid**2)) < 1e-8

    def test_four_sheet_sweep_vs_oracle(self, charged_sweep, charged_scenario):
        assert len(charged_sweep.windows) == 8
        for w in charged_sweep.windows:
            assert w.p == 4
            for idx in range(0, w.grid.size, 17):
                oracle_h = charged_scenario.oracle.f1(
                    charged_scenario.oracle.fibers(complex(w.grid[idx])))
                for val in oracle_h:
                    assert np.min(np.abs(w.roots[idx] - val)) < 1e-6

    def test_ring_monodromy_recorded(self, charged_sweep):
        assert any("monodromy" in note for note in charged_sweep.notes)

    def test_sheet_holomorphy(self, charged_datum):
        window = analyze_window(_engine(charged_datum), 3.0 + 0.45j, 0.1, 9)
        assert window.p == 4
        spacing = float(np.abs(window.grid[1] - window.grid[0]))
        sheets = window.roots.reshape(window.grid_shape + (4,))
        assert max(cr_residual(sheets[..., j], spacing)
                   for j in range(4)) < 1e-4

    def test_discriminant_window_recentred(self, charged_datum):
        # the projection's finite critical values solve disc(f2 - xi) = 0;
        # the Sylvester resultant of (f2 - xi, f2') locates them at 3, 2.75
        import sympy
        z, xi = sympy.symbols("z xi")
        f2 = 3 + z**4 - z**2
        disc = sympy.resultant(f2 - xi, sympy.diff(f2, z), z)
        zeros = sorted(float(r) for r in sympy.solve(disc, xi))
        assert zeros == [2.75, 3.0]
        plan = WindowPlan([2.75 + 0.0j], 0.05)
        curve = sweep_windows(MomentEngine.from_datum(charged_datum), plan)
        assert len(curve.windows) == 1
        assert curve.windows[0].relocated_from == 2.75 + 0.0j
        assert any("re-centered" in n for n in curve.notes)

    def test_grid_order_matches_sequential_snake(self, charged_datum):
        # the reference walks the snake one grid point at a time, matching
        # each root of the point before to its nearest root at this one
        engine = _engine(charged_datum)
        window = analyze_window(engine, 3.0 + 0.45j, 0.1, 9)
        unordered = recover_fibers(engine.moments(range(1, 9), window.grid).T, 4)
        rows, cols = window.grid_shape
        before = None
        for r in range(rows):
            for c in range(cols) if r % 2 == 0 else reversed(range(cols)):
                new = unordered[r * cols + c]
                if before is not None:
                    new = new[[int(np.argmin(np.abs(new - h))) for h in before]]
                assert np.array_equal(window.roots[r * cols + c], new)
                before = new

    def test_step_over_half_the_separation_raises(self, charged_datum):
        # 2.75 is a critical value of f2: two sheets meet over it, and the
        # grid of a window of radius 0.05 about it steps past half their gap
        with pytest.raises(FiberError, match="continuation step exceeds "
                           "half the root separation"):
            analyze_window(_engine(charged_datum), 2.75 + 0.0j, 0.05, 9)

    def test_stitch_collision_raises(self):
        # both sheets of the first window are nearest to one root of the
        # second at their closest grid points
        a = _one_point_window(0.0 + 0.0j, [0.0, 0.1])
        b = _one_point_window(0.05 + 0.0j, [10.0, 10.0001])
        with pytest.raises(FiberError, match="stitching between windows "
                           "exceeds half the root separation"):
            _stitch_pairs([(a, b)])

    def test_stitch_swap_raises(self):
        # each sheet of the first window is nearest to a different root of
        # the second, but 0.64 away, past half their separation 1
        a = _one_point_window(0.0 + 0.0j, [0.0, 1.0])
        b = _one_point_window(0.05 + 0.0j, [0.4 - 0.5j, 0.6 + 0.5j])
        with pytest.raises(FiberError, match="stitching between windows "
                           "exceeds half the root separation"):
            _stitch_pairs([(a, b)])

    def test_ring_through_empty_fiber_has_no_monodromy(self, graph_datum):
        # the window at 1.6 lies outside the image disc, where the fiber is
        # empty; the other three hold one sheet each
        plan = WindowPlan([0.3 + 0.0j, 1.6 + 0.0j, -0.3 + 0.0j, 0.3j], 0.2)
        curve = sweep_windows(MomentEngine.from_datum(graph_datum), plan)
        assert [w.p for w in curve.windows] == [1, 0, 1, 1]
        assert not curve.failures and not curve.notes

    def test_window_on_curve_skipped(self, graph_datum):
        plan = WindowPlan([0.0 + 0.0j, 0.98 + 0.0j, 0.3 + 0.2j], 0.25)
        curve = sweep_windows(MomentEngine.from_datum(graph_datum), plan)
        assert len(curve.failures) == 1
        assert len(curve.windows) == 2

    def test_too_many_failures_raise(self, graph_datum):
        plan = WindowPlan([0.99 + 0.0j, 1.0 + 0.01j, -0.99 + 0.0j], 0.25)
        with pytest.raises(FiberError):
            sweep_windows(MomentEngine.from_datum(graph_datum), plan)

    def test_json_round_trip(self, charged_sweep, graph_datum, tmp_path):
        # the charged sweep, and a ring whose window at 1.6 has an empty fiber
        from nodal_idn import jsonio
        ring = sweep_windows(MomentEngine.from_datum(graph_datum),
                             WindowPlan([0.3, 1.6, -0.3, 0.3j], 0.2))
        assert [w.p for w in ring.windows] == [1, 0, 1, 1]
        for k, curve in enumerate((charged_sweep, ring)):
            path = tmp_path / f"curve{k}.json"
            jsonio.dump(curve.to_json(), path)
            back = ReconstructedCurve.from_json(jsonio.load(path))
            assert len(back.windows) == len(curve.windows)
            for got, want in zip(back.windows, curve.windows):
                assert got.roots.shape == want.roots.shape
                assert got.quotients.shape == want.quotients.shape
                assert np.allclose(got.roots, want.roots)
            assert all(np.array_equal(a, b) for a, b in
                       zip(back.permutations, curve.permutations))
