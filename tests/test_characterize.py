import importlib

import numpy as np
import pytest

from engine_checks import compute_G
from nodal_idn.characterize import (GREEN_IDENTITY_CONSTANT, _pencil_sums,
                                    characterize, exterior_probes,
                                    green_identity_defects,
                                    green_identity_residual, orientation_probe,
                                    pencil_fibers, shock_residual)
from nodal_idn.dirichlet import DNDatum
from nodal_idn.errors import CharacterizationError, MomentError
from nodal_idn.greens import enclosing_kernel
from nodal_idn.moments import MomentEngine, recover_fibers
from nodal_idn.oracles import polynomial_roots
from reference.scenarios import corrupted_datum, flat_line

CHARACTERIZE = importlib.import_module("nodal_idn.characterize")
TRUE_POINTS = [1.0, -1.0]
TRUE_CHARGES = np.array([[1, -1], [2, -2], [3, -3]], dtype=complex)
WINDOW = ((-3.6, 0.15), 0.02)
DELTA = 1e-3
# a grid point of WINDOW with its xi0 stencil at steps DELTA and DELTA / 2
STENCIL_XI0 = -3.6 + 0.1j + np.array([0.0, DELTA, -DELTA, DELTA / 2,
                                      -DELTA / 2])


def _oracle_fibers(xi0, xi1):
    """Sorted f1-values of charged4 at the in-domain roots of the line
    equation xi0 + xi1 f1 + f2 = 0, a quartic in z:
    z^4 + xi1 z^3 - z^2 - xi1 z + (3 + 2 xi1 + xi0) = 0."""
    roots = polynomial_roots(np.array([3 + 2 * xi1 + xi0, -xi1, -1.0, xi1,
                                       1.0], dtype=complex))
    roots = roots[np.abs(roots) < 1.5]
    return np.sort_complex(2 + roots**3 - roots)


@pytest.fixture(scope="module")
def flat_datum():
    return flat_line().datum()


@pytest.fixture(scope="module")
def corrupted(charged_scenario):
    return corrupted_datum(charged_scenario)


class TestComputeG:
    def test_graph_reduces_to_first_moment(self, graph_datum):
        val = compute_G(graph_datum, -0.25, 0.0)
        assert abs(val - 0.0625) < 1e-12

    def test_agrees_with_moment_engine(self, charged_datum, graph_datum):
        for datum, xi in ((charged_datum, 3.1 + 0.2j), (graph_datum, 0.4j)):
            lhs = compute_G(datum, -xi, 0.0)
            rhs = MomentEngine.from_datum(datum).moments([1], [xi])[0, 0]
            assert abs(lhs - rhs) < 1e-9

    def test_zero_first_coordinate(self, graph_datum):
        muted = DNDatum(graph_datum.curve, graph_datum.u, graph_datum.theta,
                        np.vstack([np.zeros_like(graph_datum.f[0]),
                                   graph_datum.f[1]]),
                        graph_datum.hypothesis_a)
        assert abs(compute_G(muted, 0.3, 0.7)) < 1e-14

    def test_pencil_root_oracle(self, charged_datum):
        # G equals the sum of f1 over the in-domain solutions of the line
        # equation xi0 + xi1 f1 + f2 = 0: on the xi0 of a shock stencil, on
        # its delta-shifted line, and at one point
        lines = np.array([[0.15], [0.15 + DELTA]])
        for xi0, xi1 in ((STENCIL_XI0, 0.15), (STENCIL_XI0, lines),
                         (STENCIL_XI0[0], 0.15), (-3.6, 0.15)):
            x0, x1 = np.broadcast_arrays(xi0, xi1)
            oracle = [np.sum(_oracle_fibers(a, b))
                      for a, b in zip(x0.flat, x1.flat)]
            got = compute_G(charged_datum, xi0, xi1)
            assert np.shape(got) == x0.shape
            assert np.max(np.abs(np.ravel(got) - oracle)) < 1e-8

    def test_probe_line_through_image_rejected(self, graph_datum):
        # xi0 + f2 = 0 passes through f2(gamma) when |xi0| = 1: the pencil
        # engine refuses the quadrature there
        with pytest.raises(MomentError):
            compute_G(graph_datum, 1.0, 0.0)


class TestPencilFibers:
    def test_matches_line_intersections(self, charged_datum):
        # on the real centre of WINDOW the fibers come in conjugate pairs
        expected = _oracle_fibers(-3.6, 0.15)
        assert expected.size == 4
        got = np.sort_complex(pencil_fibers(charged_datum, -3.6, 0.15))
        assert np.max(np.abs(got - expected)) < 1e-8
        # the xi0 of a shock stencil on one line, then in one call the same
        # xi0 on that line and on its delta-shifted line, continued from
        # the first call's fibers as shock_residual continues its stencil
        expected = [_oracle_fibers(x0, 0.15) for x0 in STENCIL_XI0]
        base = pencil_fibers(charged_datum, STENCIL_XI0, 0.15)
        assert base.shape == (STENCIL_XI0.size, 4)
        assert np.max(np.abs(base - expected)) < 1e-8
        lines = np.array([[0.15], [0.15 + DELTA]])
        p, sums = _pencil_sums(charged_datum, STENCIL_XI0, lines)
        moved = recover_fibers(sums, p, previous=np.broadcast_to(
            base, (2,) + base.shape))
        assert moved.shape == (2, STENCIL_XI0.size, 4)
        for row, xi1 in zip(moved, lines[:, 0]):
            shifted = [_oracle_fibers(x0, xi1) for x0 in STENCIL_XI0]
            assert np.max(np.abs(np.sort_complex(row) - shifted)) < 1e-8
        assert np.max(np.abs(moved - base)) < 10 * DELTA
        single = pencil_fibers(charged_datum, STENCIL_XI0[0], 0.15)
        assert np.max(np.abs(single - expected[0])) < 1e-8

    def test_conjugate_pair_order_survives_round_off(self, charged_datum):
        # on the real pencil line xi1 = 0.15 the fibers at xi0 = -3.6 come
        # in conjugate pairs; sums perturbed by 1e-13 keep their order
        p, sums = _pencil_sums(charged_datum, np.array([-3.6]), 0.15)
        assert p == 4
        rng = np.random.default_rng(11)
        noise = rng.normal(size=(200, 4)) + 1j * rng.normal(size=(200, 4))
        rows = recover_fibers(sums * (1 + 1e-13 * noise), p)
        first = recover_fibers(sums, p)[0]
        assert np.sum(np.abs(first.imag) > 1e-3) >= 2
        assert np.max(np.abs(rows - first)) < 1e-9

    def test_empty_window(self, graph_datum):
        assert pencil_fibers(graph_datum, 40.0, 0.0).size == 0


class TestShock:
    def test_valid_data_residuals(self, charged_datum):
        rep = shock_residual(charged_datum, *WINDOW)
        assert rep.max_shock < 1e-5
        assert not {"max_flat", "flat_ratio"} & rep.to_json().keys()
        assert abs(rep.shock_ratio - 4.0) < 0.8  # second-order convergence

    def test_grid_matches_line_intersections(self, charged_datum):
        # G and the fibers shock_residual reports at its grid points, on
        # three real pencil lines with conjugate fiber pairs
        rep = shock_residual(charged_datum, *WINDOW)
        assert len(rep.grid) == len(rep.g_values) == len(rep.fibers) == 9
        for (xi0, xi1), g, h in zip(rep.grid, rep.g_values, rep.fibers):
            expected = _oracle_fibers(xi0, xi1)
            assert abs(g - np.sum(expected)) < 1e-8
            # as sets: the order within a conjugate pair is set by round-off
            gap = np.abs(np.asarray(h)[:, None] - expected[None, :])
            assert np.max(np.min(gap, axis=0)) < 1e-8
            assert np.max(np.min(gap, axis=1)) < 1e-8

    def test_graph_satisfies_shock_exactly(self, graph_datum):
        rep = shock_residual(graph_datum, (-0.1, 0.05), 0.02)
        assert rep.max_shock < 1e-8
        assert rep.p == 1

    def test_corrupted_data_fail(self, corrupted):
        rep = shock_residual(corrupted, *WINDOW)
        assert rep.max_shock > 1e-2

    def test_empty_fiber_window(self, graph_datum):
        rep = shock_residual(graph_datum, (40.0, 0.0), 0.02)
        assert rep.p == 0
        assert rep.max_shock == 0.0
        assert rep.flat_band < 1e-10  # G vanishes identically out there
        assert not {"max_flat", "flat_ratio"} & rep.to_json().keys()


class TestGreenIdentity:
    def test_true_charges_pass(self, charged_datum):
        probes = exterior_probes(charged_datum.curve, 20, 7)
        res = green_identity_residual(charged_datum, TRUE_POINTS,
                                      TRUE_CHARGES, probes)
        assert res.shape == (3, 20)
        assert float(np.max(res)) < 1e-6

    def test_perturbed_charge_fails(self, charged_datum):
        probes = exterior_probes(charged_datum.curve, 20, 7)
        bad = TRUE_CHARGES.copy()
        bad[0, 0] += 0.1
        res = green_identity_residual(charged_datum, TRUE_POINTS, bad,
                                      probes)
        assert float(np.max(res[0])) > 1e-2

    def test_zero_datum(self, charged_datum):
        zero = DNDatum(charged_datum.curve,
                       np.zeros_like(charged_datum.u),
                       np.zeros_like(charged_datum.theta),
                       charged_datum.f, charged_datum.hypothesis_a)
        probes = exterior_probes(charged_datum.curve, 5, 3)
        res = green_identity_residual(zero, [], np.zeros((3, 0)), probes)
        assert float(np.max(res)) < 1e-15

    def test_defect_linearity_in_charges(self, charged_datum):
        kernel = enclosing_kernel(charged_datum.curve)
        probes = exterior_probes(charged_datum.curve, 8, 11)
        delta = np.array([0.05 - 0.02j, 0.0], dtype=complex)
        moved = TRUE_CHARGES.copy()
        moved[0] += delta
        base = green_identity_defects(charged_datum, kernel, TRUE_POINTS,
                                      TRUE_CHARGES, probes)[0]
        shifted = green_identity_defects(charged_datum, kernel, TRUE_POINTS,
                                         moved, probes)[0]
        predicted = -GREEN_IDENTITY_CONSTANT * sum(
            d * kernel(a, probes) for a, d in zip(TRUE_POINTS, delta))
        assert np.max(np.abs((shifted - base) - predicted)) < 1e-8

    def test_kernel_evaluated_once_per_probe(self, charged_datum, monkeypatch):
        # the three potentials share each probe's N-wide g and dz on the curve
        curve = charged_datum.curve
        probes = exterior_probes(curve, 20, 7)
        want = green_identity_residual(charged_datum, TRUE_POINTS,
                                       TRUE_CHARGES, probes)
        kernel = enclosing_kernel(curve)
        wide = {"g": 0, "dz": 0}

        class Counting:
            def __call__(self, z, zeta):
                wide["g"] += np.size(z) == curve.n
                return kernel(z, zeta)

            def dz(self, z, zeta):
                wide["dz"] += np.size(z) == curve.n
                return kernel.dz(z, zeta)

        monkeypatch.setattr(CHARACTERIZE, "enclosing_kernel",
                            lambda curve: Counting())
        got = green_identity_residual(charged_datum, TRUE_POINTS,
                                      TRUE_CHARGES, probes)
        assert wide == {"g": 20, "dz": 20}
        assert np.array_equal(got, want)

    def test_probe_on_curve_rejected(self, charged_datum):
        with pytest.raises(CharacterizationError):
            green_identity_residual(charged_datum, TRUE_POINTS,
                                    TRUE_CHARGES,
                                    charged_datum.curve.positions[:2])


class TestOrientation:
    def test_graph_exclusive(self, graph_datum):
        rep = orientation_probe(graph_datum, (-0.1, 0.05), 0.02)
        assert rep.verdict == "gamma"

    def test_reversed_graph(self, graph_datum):
        rep = orientation_probe(graph_datum.reversed(), (-0.1, 0.05), 0.02)
        assert rep.verdict == "-gamma"

    def test_flat_line_ambiguous(self, flat_datum):
        rep = orientation_probe(flat_datum, (-0.05, 2.0), 0.02)
        assert rep.verdict == "algebraic-ambiguous"
        assert rep.forward is not None and rep.forward.is_flat

    def test_polynomial_scenario_is_algebraic(self, charged_datum):
        # the full fiber of a polynomial projection makes G affine in xi0,
        # so the image is algebraic and the criterion cannot orient it
        rep = orientation_probe(charged_datum, *WINDOW)
        assert rep.verdict == "algebraic-ambiguous"
        assert rep.forward.max_shock < 1e-5

    def test_corrupted_raises(self, corrupted):
        with pytest.raises(CharacterizationError):
            orientation_probe(corrupted, *WINDOW)


class TestReport:
    def test_charged_report_passes(self, charged_datum):
        rep = characterize(charged_datum, *WINDOW,
                           candidate_points=TRUE_POINTS,
                           candidate_charges=TRUE_CHARGES)
        assert rep.passed
        doc = rep.to_json()
        assert doc["schema"] == "nodal-idn/caract/4"
        assert doc["passed"] is True

    def test_reversed_charged_still_passes(self, charged_datum):
        rep = characterize(charged_datum.reversed(), *WINDOW)
        assert rep.passed

    def test_corrupted_report_raises(self, corrupted):
        with pytest.raises(CharacterizationError):
            characterize(corrupted, *WINDOW)

    def test_reversed_verdict_reuses_the_probe_datum(self, graph_datum,
                                                     monkeypatch):
        # the reversed datum the orientation probe ran on is the one the
        # report orients by: one reversal per characterize call
        flipped = graph_datum.reversed()
        calls = []
        reverse = DNDatum.reversed

        def counting(datum):
            calls.append(datum)
            return reverse(datum)

        monkeypatch.setattr(DNDatum, "reversed", counting)
        rep = characterize(flipped, (-0.1, 0.05), 0.02)
        assert rep.orientation.verdict == "-gamma" and rep.passed
        assert calls == [flipped]
        back = rep.orientation.reversed_datum
        assert np.array_equal(back.u, graph_datum.u)
        assert np.array_equal(back.curve.positions,
                              graph_datum.curve.positions)
