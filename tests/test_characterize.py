import numpy as np
import pytest

from nodal_idn.characterize import (GREEN_IDENTITY_CONSTANT, characterize,
                                    compute_G, exterior_probes,
                                    green_identity_defect,
                                    green_identity_residual, orientation_probe,
                                    pencil_fibers, shock_residual)
from nodal_idn.dirichlet import DNDatum
from nodal_idn.errors import CharacterizationError
from nodal_idn.greens import enclosing_kernel
from nodal_idn.moments import MomentEngine
from nodal_idn.oracles import polynomial_roots
from nodal_idn.scenarios import corrupted_datum, flat_line

TRUE_POINTS = [1.0, -1.0]
TRUE_CHARGES = np.array([[1, -1], [2, -2], [3, -3]], dtype=complex)
WINDOW = ((-3.6, 0.15), 0.02)


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
        # equation xi0 + xi1 f1 + f2 = 0
        xi0, xi1 = -3.6 + 0.1j, 0.15
        # z^4 + xi1 z^3 - z^2 - xi1 z + (3 + 2 xi1 + xi0) = 0
        coeffs = np.array([3 + 2 * xi1 + xi0, -xi1, -1.0, xi1, 1.0],
                          dtype=complex)
        roots = polynomial_roots(coeffs)
        roots = roots[np.abs(roots) < 1.5]
        oracle = np.sum(2 + roots**3 - roots)
        assert abs(compute_G(charged_datum, xi0, xi1) - oracle) < 1e-8

    def test_probe_line_through_image_rejected(self, graph_datum):
        # xi0 + f2 = 0 passes through f2(gamma) when |xi0| = 1
        with pytest.raises(CharacterizationError):
            compute_G(graph_datum, 1.0, 0.0)


class TestPencilFibers:
    def test_matches_line_intersections(self, charged_datum):
        xi0, xi1 = -3.6, 0.15
        coeffs = np.array([3 + 2 * xi1 + xi0, -xi1, -1.0, xi1, 1.0],
                          dtype=complex)
        roots = polynomial_roots(coeffs)
        expected = np.sort_complex(2 + roots**3 - roots)
        got = np.sort_complex(pencil_fibers(charged_datum, xi0, xi1))
        assert np.max(np.abs(got - expected)) < 1e-8

    def test_empty_window(self, graph_datum):
        assert pencil_fibers(graph_datum, 40.0, 0.0).size == 0


class TestShock:
    def test_valid_data_residuals(self, charged_datum):
        rep = shock_residual(charged_datum, *WINDOW)
        assert rep.max_shock < 1e-5
        assert rep.max_flat < 1e-5
        assert abs(rep.shock_ratio - 4.0) < 0.8  # second-order convergence

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
        assert rep.max_flat < 1e-10  # G vanishes identically out there


class TestGreenIdentity:
    def test_true_charges_pass(self, charged_datum):
        probes = exterior_probes(charged_datum.curve, 20, 7)
        res = green_identity_residual(charged_datum, None, TRUE_POINTS,
                                      TRUE_CHARGES, probes)
        assert res.shape == (3, 20)
        assert float(np.max(res)) < 1e-6

    def test_perturbed_charge_fails(self, charged_datum):
        probes = exterior_probes(charged_datum.curve, 20, 7)
        bad = TRUE_CHARGES.copy()
        bad[0, 0] += 0.1
        res = green_identity_residual(charged_datum, None, TRUE_POINTS, bad,
                                      probes)
        assert float(np.max(res[0])) > 1e-2

    def test_zero_datum(self, charged_datum):
        zero = DNDatum(charged_datum.curve,
                       np.zeros_like(charged_datum.u),
                       np.zeros_like(charged_datum.theta),
                       charged_datum.f, charged_datum.hypothesis_a)
        probes = exterior_probes(charged_datum.curve, 5, 3)
        res = green_identity_residual(zero, None, [], np.zeros((3, 0)), probes)
        assert float(np.max(res)) < 1e-15

    def test_defect_linearity_in_charges(self, charged_datum):
        kernel = enclosing_kernel(charged_datum.curve)
        probes = exterior_probes(charged_datum.curve, 8, 11)
        delta = np.array([0.05 - 0.02j, 0.0], dtype=complex)
        base = green_identity_defect(charged_datum, kernel, TRUE_POINTS,
                                     TRUE_CHARGES[0], probes, 0)
        shifted = green_identity_defect(charged_datum, kernel, TRUE_POINTS,
                                        TRUE_CHARGES[0] + delta, probes, 0)
        predicted = -GREEN_IDENTITY_CONSTANT * sum(
            d * kernel(a, probes) for a, d in zip(TRUE_POINTS, delta))
        assert np.max(np.abs((shifted - base) - predicted)) < 1e-8

    def test_probe_on_curve_rejected(self, charged_datum):
        with pytest.raises(CharacterizationError):
            green_identity_residual(charged_datum, None, TRUE_POINTS,
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
        assert doc["schema"] == "nodal-idn/caract/1"
        assert doc["passed"] is True

    def test_reversed_charged_still_passes(self, charged_datum):
        rep = characterize(charged_datum.reversed(), *WINDOW)
        assert rep.passed

    def test_corrupted_report_raises(self, corrupted):
        with pytest.raises(CharacterizationError):
            characterize(corrupted, *WINDOW)
