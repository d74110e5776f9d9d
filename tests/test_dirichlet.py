import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from annulus_fredholm import FredholmAnnulus
from engine_checks import residue_at, verify_weak_holomorphy
from nodal_idn import jsonio, oracles
from nodal_idn.dirichlet import (IMMERSION_FLOOR, INJECTIVITY_GAP, DNDatum,
                                 Prescription, _min_image_gap, apply_dn,
                                 build_dn_datum, check_hypothesis_a,
                                 compute_theta, solve_nodal_dirichlet)
from nodal_idn.errors import ModelError
from nodal_idn.greens import disk_green
from nodal_idn.model import (AdmissibleFamily, AnnulusDomain, BoundaryCurve,
                             DiskDomain, NodalDomainModel)
from nodal_idn.spectral import parameter_grid


@pytest.fixture(scope="module")
def unit_disk_model():
    dom = DiskDomain(1.0)
    return NodalDomainModel(dom, dom.boundary(256))


@pytest.fixture(scope="module")
def dipole_model():
    dom = DiskDomain(1.0)
    return NodalDomainModel(dom, dom.boundary(256),
                            (np.array([0.5 + 0j, -0.5 + 0j]),))


@pytest.fixture(scope="module")
def dipole_dist(dipole_model):
    fam = AdmissibleFamily((np.array([1.0, -1.0]),))
    return solve_nodal_dirichlet(dipole_model, fam, np.zeros(256))


class TestNodalDirichlet:
    def test_harmonic_monomial(self, unit_disk_model):
        t = parameter_grid(unit_disk_model.boundary.n)
        dist = solve_nodal_dirichlet(unit_disk_model, None, np.cos(t))
        assert abs(dist.value(0.3 + 0.2j) - 0.3) < 1e-12
        assert abs(dist.dz(0.1 - 0.4j) - 0.5) < 1e-12

    def test_dipole_antisymmetry_at_center(self, dipole_dist):
        assert abs(dipole_dist.value(0.0 + 0.0j)) < 1e-13

    def test_dipole_closed_form(self, dipole_dist):
        expected = 4 * np.pi * (disk_green(0.25, 0.5, 1.0)
                                - disk_green(0.25, -0.5, 1.0))
        assert abs(dipole_dist.value(0.25 + 0.0j) - expected) < 1e-12

    def test_residue_contract(self, dipole_dist):
        assert abs(residue_at(dipole_dist, 0.5) - 1.0) < 1e-6
        assert abs(residue_at(dipole_dist, -0.5) + 1.0) < 1e-6
        # also at the fixed circle radius of the type invariant
        assert abs(residue_at(dipole_dist, 0.5, eps=0.01) - 1.0) < 1e-6

    def test_boundary_trace(self, dipole_model):
        # the charge part vanishes on the rim by the principal-Green
        # construction, so the trace is the boundary data itself
        fam = AdmissibleFamily((np.array([1.0, -1.0]),))
        t = parameter_grid(dipole_model.boundary.n)
        u = np.cos(2 * t) + 0.3
        dist = solve_nodal_dirichlet(dipole_model, fam, u)
        trace = dist.value(dipole_model.boundary.positions)
        assert np.max(np.abs(trace - u)) < 1e-7

    def test_linearity_in_data_and_family(self, dipole_model, rng):
        fam = AdmissibleFamily((np.array([1.0, -1.0]),))
        zero = AdmissibleFamily((np.array([0.0, 0.0]),))
        t = parameter_grid(dipole_model.boundary.n)
        u1 = np.cos(t) + 0.2 * np.sin(3 * t)
        u2 = np.sin(2 * t) - 0.1
        a, b = 0.7, -1.3
        d1 = solve_nodal_dirichlet(dipole_model, fam, u1)
        d2 = solve_nodal_dirichlet(dipole_model, zero, u2)
        fam_scaled = AdmissibleFamily((np.array([a, -a]),))
        combo = solve_nodal_dirichlet(dipole_model, fam_scaled, a * u1 + b * u2)
        pts = 0.6 * np.exp(1j * rng.uniform(0, 2 * np.pi, 12))
        expected = a * d1.value(pts) + b * d2.value(pts)
        assert np.max(np.abs(combo.value(pts) - expected)) < 1e-9

    def test_maximum_principle(self, unit_disk_model, rng):
        t = parameter_grid(unit_disk_model.boundary.n)
        u = np.cos(3 * t) + 0.5 * np.sin(t) - 0.2
        dist = solve_nodal_dirichlet(unit_disk_model, None, u)
        xs = np.arange(-0.8, 0.81, 0.08)
        grid = (xs[:, None] + 1j * xs[None, :]).ravel()
        grid = grid[np.abs(grid) < 0.85]
        interior_max = np.max(dist.value(grid).real)
        assert interior_max <= np.max(u) + 1e-7

    def test_charge_on_boundary_rejected(self):
        dom = DiskDomain(1.0)
        with pytest.raises(ModelError):
            NodalDomainModel(dom, dom.boundary(64),
                             (np.array([1.0 + 0j, -0.5 + 0j]),))

    @pytest.mark.parametrize("dom", [DiskDomain(1.5), AnnulusDomain(0.3, 1.5)])
    def test_boundary_off_the_fft_grid_rejected(self, dom):
        # the circle solvers read data and write traces at t_k = 2*pi*k/N
        n = 64
        z = 1.5 * np.exp(1j * (np.arange(n) + 0.5) * 2 * np.pi / n)
        model = NodalDomainModel(dom, BoundaryCurve(z, 1j * z))
        with pytest.raises(ModelError, match="FFT circle"):
            solve_nodal_dirichlet(model, None, np.ones(n))

    def test_annulus_charged_solve(self):
        dom = AnnulusDomain(0.4, 1.2)
        outer, _ = dom.boundaries(160)
        model = NodalDomainModel(dom, outer, (np.array([0.7, -0.7]),))
        fam = AdmissibleFamily((np.array([1.0, -1.0]),))
        dist = solve_nodal_dirichlet(model, fam, np.zeros(160))
        assert abs(residue_at(dist, 0.7, eps=0.02) - 1.0) < 1e-6
        assert abs(residue_at(dist, -0.7, eps=0.02) + 1.0) < 1e-6


class TestDNOperator:
    def test_cosine(self, unit_disk_model):
        t = parameter_grid(unit_disk_model.boundary.n)
        dist = solve_nodal_dirichlet(unit_disk_model, None, np.cos(t))
        nu = apply_dn(dist)
        assert nu.dtype.kind == "f"
        assert np.max(np.abs(nu - np.cos(t))) < 1e-7

    def test_constant(self, unit_disk_model):
        dist = solve_nodal_dirichlet(unit_disk_model, None,
                                     2.5 * np.ones(256))
        assert np.max(np.abs(apply_dn(dist))) < 1e-10

    def test_complex_data_accepted(self, unit_disk_model):
        # the engine is linear over C; u = e^{it} extends to z with dU = dz
        t = parameter_grid(unit_disk_model.boundary.n)
        dist = solve_nodal_dirichlet(unit_disk_model, None, np.exp(1j * t))
        nu = apply_dn(dist)
        assert nu.dtype.kind == "c"
        assert np.max(np.abs(nu - np.exp(1j * t))) < 1e-7
        assert abs(dist.value(0.3 + 0.1j) - (0.3 + 0.1j)) < 1e-12

    def test_charged_radial_derivative(self, dipole_dist, dipole_model):
        # finite-difference radial derivative of the closed form
        t = parameter_grid(dipole_model.boundary.n)
        h = 1e-4

        def field(r):
            return 4 * np.pi * (disk_green(r * np.exp(1j * t), 0.5, 1.0)
                                - disk_green(r * np.exp(1j * t), -0.5, 1.0))

        oracle = (3 * field(1.0) - 4 * field(1.0 - h) + field(1.0 - 2 * h)) \
            / (2 * h)
        nu = apply_dn(dipole_dist)
        assert np.max(np.abs(nu - oracle)) < 1e-5


class TestTheta:
    def test_cosine_coefficient(self, unit_disk_model):
        t = parameter_grid(unit_disk_model.boundary.n)
        dist = solve_nodal_dirichlet(unit_disk_model, None, np.cos(t))
        theta = compute_theta(dist)
        assert np.max(np.abs(theta - 0.5)) < 1e-7

    def test_constant_vanishes(self, unit_disk_model):
        dist = solve_nodal_dirichlet(unit_disk_model, None, np.ones(256))
        assert np.max(np.abs(compute_theta(dist))) < 1e-10

    def test_charged_closed_form(self, dipole_dist, dipole_model):
        theta = compute_theta(dipole_dist)
        z = dipole_model.boundary.positions
        exact = (1.0 / (z - 0.5) + 0.5 / (1 - 0.5 * z)
                 - 1.0 / (z + 0.5) + 0.5 / (1 + 0.5 * z))
        assert np.max(np.abs(theta - exact)) < 1e-8

    def test_dn_theta_consistency(self, dipole_dist, dipole_model):
        theta = compute_theta(dipole_dist)
        nu_vec = dipole_model.boundary.outward_normal
        reconstructed = 2 * (nu_vec * theta).real
        assert np.max(np.abs(reconstructed - apply_dn(dipole_dist))) < 1e-7


class TestWeakHolomorphy:
    def test_simple_pole_passes(self):
        rep = verify_weak_holomorphy(lambda z: 1.0 / (z - 0.3), [0.3], [1.0])
        assert rep.passed

    def test_double_pole_fails(self):
        rep = verify_weak_holomorphy(lambda z: 1.0 / (z - 0.3) ** 2,
                                     [0.3], [0.0])
        assert not rep.passed
        assert not rep.bounded_after_polar
        assert max(rep.growth_factors[0]) > 1.5

    def test_forward_form_passes(self, dipole_dist):
        rep = verify_weak_holomorphy(dipole_dist.dz, [0.5, -0.5], [1.0, -1.0],
                                     eps=0.01)
        assert rep.passed
        assert abs(rep.residues[0] - 1.0) < 1e-6
        assert abs(rep.residues[1] + 1.0) < 1e-6


class TestBuildDatum:
    def test_synthetic_polynomial_example(self):
        dom = DiskDomain(1.5)
        curve = dom.boundary(256)
        model = NodalDomainModel(dom, curve)
        w0 = Prescription(poly=(1.0,))
        w1 = Prescription(poly=(-1.0, 0.0, 1.0))
        w2 = Prescription(poly=(0.0, -1.0, 0.0, 1.0))
        z = curve.positions
        us = (2 * z.real, 2 * (z**3 / 3 - z).real,
              2 * (z**4 / 4 - z**2 / 2).real)
        datum = build_dn_datum(model, None, boundary_values=us,
                               prescriptions=(w0, w1, w2))
        _assert_margins_pass(datum)
        assert np.max(np.abs(datum.f[0] - (z**2 - 1))) < 1e-12
        assert np.max(np.abs(datum.f[1] - (z**3 - z))) < 1e-12

    def test_degenerate_constant_component(self):
        dom = DiskDomain(1.0)
        curve = dom.boundary(128)
        model = NodalDomainModel(dom, curve)
        w0 = Prescription(poly=(1.0,))
        w2 = Prescription(poly=(0.0, 1.0))
        z = curve.positions
        us = (2 * z.real, 2 * z.real, (z**2).real)
        with pytest.raises(ModelError):
            build_dn_datum(model, None, boundary_values=us,
                           prescriptions=(w0, w0, w2))

    def test_charged_node_image(self, charged_datum):
        # both node preimages map to (2, 3); verified at 200 extra samples
        _assert_margins_pass(charged_datum)
        f1 = 2 + np.array([1.0, -1.0]) ** 3 - np.array([1.0, -1.0])
        f2 = 3 + np.array([1.0, -1.0]) ** 4 - np.array([1.0, -1.0]) ** 2
        assert np.allclose(f1, [2.0, 2.0]) and np.allclose(f2, [3.0, 3.0])
        z = charged_datum.curve.positions[::2][:200]
        assert np.max(np.abs(charged_datum.f[0][::2][:200]
                             - (2 + z**3 - z))) < 1e-10

    def test_physical_path_matches_synthetic(self, charged_scenario,
                                             charged_datum):
        physical = build_dn_datum(charged_scenario.model,
                                  charged_scenario.families,
                                  boundary_values=charged_scenario.boundary_values)
        assert np.max(np.abs(physical.theta - charged_datum.theta)) < 1e-8

    def test_prescription_pole_must_be_node(self):
        dom = DiskDomain(1.5)
        curve = dom.boundary(128)
        model = NodalDomainModel(dom, curve)
        stray = Prescription(poles=(0.4,), residues=(1.0,))
        w0 = Prescription(poly=(1.0,))
        z = curve.positions
        us = (2 * z.real,) * 3
        with pytest.raises(ModelError):
            build_dn_datum(model, None, boundary_values=us,
                           prescriptions=(w0, stray, w0))

    def test_json_round_trip(self, charged_datum, tmp_path):
        path = tmp_path / "datum.json"
        jsonio.dump(charged_datum.to_json(), path)
        back = DNDatum.from_json(jsonio.load(path))
        assert np.allclose(back.theta, charged_datum.theta)
        assert np.allclose(back.f, charged_datum.f)
        assert back.hypothesis_a == charged_datum.hypothesis_a
        _assert_margins_pass(back)

    def test_former_layout_decodes_alike(self, charged_datum, tmp_path):
        # the former layout: a curve orientation label and a hypothesisA
        # block with pass flags and index lists beside the two margins
        doc = charged_datum.to_json()
        assert set(doc["hypothesisA"]) == {"min_image_gap", "min_speed"}
        assert "orientation" not in doc["curve"]
        former = dict(doc, curve=dict(doc["curve"], orientation=1),
                      hypothesisA=dict(doc["hypothesisA"], injective=True,
                                       immersive=True, offending_pairs=[],
                                       zero_theta0_samples=[]))
        backs = []
        for name, layout in (("new", doc), ("former", former)):
            jsonio.dump(layout, tmp_path / f"{name}.json")
            backs.append(DNDatum.from_json(jsonio.load(tmp_path / f"{name}.json")))
        new, old = backs
        for a, b in ((new.curve.positions, old.curve.positions),
                     (new.curve.derivatives, old.curve.derivatives),
                     (new.u, old.u), (new.theta, old.theta), (new.f, old.f),
                     (new.f, charged_datum.f)):
            assert a.tobytes() == b.tobytes()
        assert new.hypothesis_a == old.hypothesis_a == charged_datum.hypothesis_a


def _assert_margins_pass(datum):
    """The margins that check_hypothesis_a measured clear its limits."""
    assert datum.hypothesis_a["min_image_gap"] > INJECTIVITY_GAP
    assert datum.hypothesis_a["min_speed"] > IMMERSION_FLOOR


def _image(n, f0, f1):
    """The map f = (f0, f1) at n samples of the unit circle: the f that
    check_hypothesis_a derives from theta = (1, f0, f1)."""
    z = BoundaryCurve.circle(1.0, n).positions
    return np.vstack([f0(z), f1(z)])


def _assert_matches_oracle(f):
    """The grid search's smallest image gap, and its pair where the map is
    not injective, against the N x N oracle; returns (gap, pair)."""
    gap, pair = _min_image_gap(f)
    want_gap, want_pair = oracles.min_image_gap(f)
    assert gap == want_gap      # the same float, not a close one
    if gap <= INJECTIVITY_GAP:
        assert pair == want_pair
    return gap, pair


class TestHypothesisAOracle:
    """The grid search for the smallest image gap against the N x N oracle."""

    def test_two_to_one_map(self):
        gap, pair = _assert_matches_oracle(_image(64, lambda z: z**2,
                                                  lambda z: z**4))
        assert gap == 0.0
        assert pair == (5, 37)

    def test_near_double_point(self):
        # f(t) and f(t + pi) differ by 2e-8: not injective, gap positive
        gap, _ = _assert_matches_oracle(_image(128, lambda z: z**2 + 1e-8 * z,
                                               lambda z: z**4))
        assert 0.0 < gap < INJECTIVITY_GAP

    def test_charged4_image(self, charged_datum):
        gap, _ = oracles.min_image_gap(charged_datum.f)
        assert _min_image_gap(charged_datum.f)[0] == gap > INJECTIVITY_GAP
        assert charged_datum.hypothesis_a["min_image_gap"] == gap

    @given(st.lists(st.complex_numbers(max_magnitude=1.0, allow_nan=False,
                                       allow_infinity=False),
                    min_size=6, max_size=6),
           st.sampled_from([8, 32, 128, 256]),
           st.sampled_from([1, 2]))
    @settings(max_examples=120, deadline=None)
    def test_random_maps(self, c, n, fold):
        # fold 2 composes with z -> z^2, which makes the map two-to-one
        f = _image(
            n, lambda z: c[0] * z**fold + c[1] * z**(2 * fold) + c[2] * z**(3 * fold),
            lambda z: c[3] * z**fold + c[4] * z**(2 * fold) + c[5] + 1.0)
        if any(np.max(np.abs(row - np.mean(row)))
               < 1e-10 * max(1.0, abs(np.mean(row))) for row in f):
            return      # a constant component: hypothesis A fails before the grid
        _assert_matches_oracle(f)


class TestHypothesisANonFinite:
    def test_raises_with_sample_indices(self):
        curve = BoundaryCurve.circle(1.0, 16)
        theta = np.vstack([np.ones(16), curve.positions ** 2,
                           curve.positions ** 3]).astype(complex)
        theta[1, 3] = np.inf
        with pytest.raises(ModelError, match=r"not finite at samples \[3\]"):
            check_hypothesis_a(theta)

    def test_infinite_theta0(self):
        # the zero test of theta0 takes its scale from the finite samples
        curve = BoundaryCurve.circle(1.0, 16)
        theta = np.vstack([np.ones(16), curve.positions ** 2,
                           curve.positions ** 3]).astype(complex)
        theta[0, 5] = np.inf
        with pytest.raises(ModelError, match=r"not finite at samples \[5\]"):
            check_hypothesis_a(theta)


class TestReversal:
    def test_reversed_datum_geometry(self, charged_datum):
        rev = charged_datum.reversed()
        assert np.allclose(rev.curve.positions[0], charged_datum.curve.positions[0])
        back = rev.reversed()
        assert np.allclose(back.f, charged_datum.f)
        assert np.allclose(back.curve.derivatives, charged_datum.curve.derivatives)


def _annulus_laurent_theta(z_outer, rho, u, charges):
    """Reference dz trace on |z| = R of U = 2 sum c ln|z - a| + H, numpy only.

    U has data u on the outer circle and zero on the inner one, so the
    harmonic H has data u - S and -S there (S the log part).  H is solved
    mode by mode in the basis ln r, z^k, conj(z)^-k (k > 0) and conj(z)^m,
    z^-m (m > 0); only z^k, z^-m and ln r carry a dz part.
    """
    n = z_outer.size
    big = abs(z_outer[0])
    z_inner = z_outer * (rho / big)

    def log_part(z):
        return sum(2 * c * np.log(np.abs(z - a)) for a, c in charges.items())

    ho = np.fft.fft(u - log_part(z_outer)) / n
    hi = np.fft.fft(-log_part(z_inner)) / n
    k = np.arange(1, n // 2)
    q = (rho / big) ** k
    # outer/inner data of mode k: ho = A + q B, hi = q A + B, with A the
    # z^k (or conj(z)^k) coefficient scaled to R and B the other one to rho
    grow_pos = (ho[k] - q * hi[k]) / (1 - q ** 2)       # coefficient of (z/R)^k
    decay_neg = (hi[-k] - q * ho[-k]) / (1 - q ** 2)    # coefficient of (rho/z)^k
    log_coeff = (ho[0] - hi[0]) / np.log(big / rho)
    phase = (z_outer / big)[:, None] ** k[None, :]
    dh = (log_coeff / 2 + phase @ (k * grow_pos)
          - (rho / z_outer)[:, None] ** k[None, :] @ (k * decay_neg)) / z_outer
    poles = sum(c / (z_outer - a) for a, c in charges.items())
    return poles + dh


def test_annulus_theta_matches_laurent_oracle():
    dom = AnnulusDomain(0.3, 1.5)
    outer, _ = dom.boundaries(256)
    model = NodalDomainModel(dom, outer, (np.array([1.0, -1.0]),))
    fam = AdmissibleFamily((np.array([1.0, -1.0]),))
    z = outer.positions
    # real data, then complex data (both extensions carry a trace)
    for u in ((z ** 2).real + 0.5, np.log(np.abs(z - 1.0)) + 0.3j * (z ** 3).real):
        theta = compute_theta(solve_nodal_dirichlet(model, fam, u))
        want = _annulus_laurent_theta(z, 0.3, u, {1.0: 1.0, -1.0: -1.0})
        gap = np.max(np.abs(theta - want)) / np.max(np.abs(want))
        assert gap < 1e-9


def test_annulus_theta_matches_fredholm_reference():
    # theta of U = Eu + sum 4*pi*c*G(., a) with E and G built from the
    # layer-potential solve of tests/annulus_fredholm.py
    n = 128
    dom = AnnulusDomain(0.3, 1.5)
    ref = FredholmAnnulus(dom, n)
    charges = {1.0: 1.0, -1.0: -1.0}
    model = NodalDomainModel(dom, ref.outer, (np.array(list(charges)),))
    fam = AdmissibleFamily((np.array(list(charges.values())),))
    z = ref.outer.positions
    u = (z ** 2).real + 0.5
    theta = compute_theta(solve_nodal_dirichlet(model, fam, u))
    want = ref.extend(u, np.zeros(n)).dz(z)
    for a, c in charges.items():
        log_a = lambda w: np.log(np.abs(w - a)) / (2 * np.pi)
        smooth = ref.extend(log_a(z), log_a(ref.inner.positions)).dz(z)
        want = want + 4 * np.pi * c * (1 / (4 * np.pi * (z - a)) - smooth)
    assert np.max(np.abs(theta - want)) / np.max(np.abs(want)) < 1e-9
