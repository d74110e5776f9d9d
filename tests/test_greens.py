import itertools
import logging

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from annulus_fredholm import FredholmAnnulus
from engine_checks import ellipse
from nodal_idn.errors import ModelError
from nodal_idn.greens import (AnnulusHarmonicSolver, AnnulusPrincipalGreen,
                              DiskHarmonicSolver, GreenKernel, disk_green,
                              near_boundary_threshold)
from nodal_idn.model import AnnulusDomain, BoundaryCurve, DiskDomain
from nodal_idn.oracles import fd_laplacian_check
from nodal_idn.spectral import parameter_grid
from nystrom import (NystromSystem, PrincipalGreen, QuadratureError,
                     layer_potential_T, solve_dirichlet_fredholm,
                     trace_T_minus, trace_T_plus)


@pytest.fixture(scope="module")
def circle256():
    return BoundaryCurve.circle(1.0, 256)


@pytest.fixture(scope="module")
def circle_system(circle256):
    return NystromSystem.build(circle256)


@pytest.fixture(scope="module")
def ellipse_system():
    return NystromSystem.build(ellipse(1.3, 0.8, 256))


class TestDiskGreen:
    def test_reference_value(self):
        v = disk_green(0.0, 0.5, 1.0)
        assert abs(v - np.log(0.5) / (2 * np.pi)) < 1e-15
        assert abs(v - (-0.1103178)) < 1e-6

    def test_symmetry_exact(self):
        assert disk_green(0.5, 0.0, 1.0) == disk_green(0.0, 0.5, 1.0)

    def test_harmonic_and_boundary(self):
        z0 = 0.3 + 0.1j
        field = lambda w: disk_green(z0, w, 1.0)
        pts = np.array([-0.5 - 0.3j, -0.55 - 0.25j, -0.45 - 0.35j])
        assert fd_laplacian_check(field, pts, 5e-4) < 1e-6
        zeta = np.exp(1j * np.linspace(0, 2 * np.pi, 37))
        assert np.max(np.abs(disk_green(z0, zeta, 1.0))) < 1e-10

    def test_diagonal_rejected(self):
        with pytest.raises(ModelError):
            disk_green(0.3, 0.3, 1.0)


class TestKernelInvariants:
    @pytest.mark.parametrize("kernel", [
        GreenKernel("mundane-log"),
        GreenKernel("disk-principal", radius=1.25),
    ])
    def test_symmetry_random_pairs(self, kernel, rng):
        for _ in range(100):
            z = rng.uniform(-0.6, 0.6) + 1j * rng.uniform(-0.6, 0.6)
            w = rng.uniform(-0.6, 0.6) + 1j * rng.uniform(-0.6, 0.6)
            if abs(z - w) < 1e-3:
                continue
            assert abs(kernel(z, w) - kernel(w, z)) < 1e-12

    @pytest.mark.parametrize("kernel", [
        GreenKernel("mundane-log"),
        GreenKernel("disk-principal", radius=1.25),
    ])
    def test_log_singularity_normalization(self, kernel):
        z = 0.2 + 0.1j
        vals = []
        for k in range(1, 8):
            w = z + 10.0 ** (-k)
            vals.append(kernel(z, w) - np.log(abs(z - w)) / (2 * np.pi))
        # the regular part stays bounded and settles along the sequence
        assert np.max(np.abs(vals)) < 1.0
        assert abs(vals[-1] - vals[-2]) < 1e-6

    def test_principal_boundary_vanishing(self):
        kernel = GreenKernel("disk-principal", radius=1.25)
        zeta = 1.25 * np.exp(1j * np.linspace(0.1, 6.2, 50))
        assert np.max(np.abs(kernel(0.3 + 0.2j, zeta))) < 1e-10


class TestLayerPotential:
    def test_gauss_identity_interior(self, circle256):
        one = np.ones(256)
        val = layer_potential_T(one, 0.3 + 0.0j, circle256,
                                GreenKernel("mundane-log"))
        assert abs(val - 1.0) < 1e-10

    def test_gauss_identity_exterior(self, circle256):
        one = np.ones(256)
        val = layer_potential_T(one, 2.0 + 0.0j, circle256,
                                GreenKernel("mundane-log"))
        assert abs(val) < 1e-10

    def test_cosine_mean_cancels(self, circle256):
        v = np.cos(parameter_grid(circle256.n))
        val = layer_potential_T(v, 0.0j, circle256, GreenKernel("mundane-log"))
        assert abs(val) < 1e-12

    def test_near_boundary_refused(self, circle256):
        with pytest.raises(QuadratureError):
            layer_potential_T(np.ones(256), 0.99 + 0.0j, circle256,
                              GreenKernel("mundane-log"))


class TestTraces:
    def test_constant_density_traces(self, circle_system):
        one = np.ones(256)
        tm = trace_T_minus(one, circle_system)
        assert np.max(np.abs(tm)) < 1e-10
        jump = trace_T_plus(one, circle_system) - tm
        assert np.max(np.abs(jump - 1.0)) < 1e-8

    @given(st.integers(min_value=1, max_value=64),
           st.integers(min_value=0, max_value=1))
    @settings(max_examples=30, deadline=None)
    def test_jump_identity_trig_polynomials(self, circle_system, k, use_sin):
        t = parameter_grid(circle_system.curve.n)
        v = np.sin(k * t) if use_sin else np.cos(k * t)
        jump = trace_T_plus(v, circle_system) - trace_T_minus(v, circle_system)
        assert np.max(np.abs(jump - v)) < 1e-7

    def test_jump_identity_on_ellipse(self, ellipse_system, rng):
        t = parameter_grid(ellipse_system.curve.n)
        v = sum(rng.normal() * np.cos(k * t) + rng.normal() * np.sin(k * t)
                for k in range(1, 64))
        jump = trace_T_plus(v, ellipse_system) - trace_T_minus(v, ellipse_system)
        assert np.max(np.abs(jump - v)) < 1e-7

    def test_trace_matches_exterior_laurent_oracle(self, circle256):
        # with the mundane kernel, T^- v is conj of the exterior Cauchy
        # transform of conj(v): Laurent series gives the closed form
        system = NystromSystem(circle256, GreenKernel("mundane-log"))
        t = parameter_grid(circle256.n)
        v = np.cos(3 * t)
        got = trace_T_minus(v.astype(complex), system)
        assert np.max(np.abs(got - (-0.5 * np.exp(3j * t)))) < 1e-12

    def test_trace_is_potential_limit_via_laurent(self, circle256):
        # the exterior potential agrees with its Laurent closed form, whose
        # boundary limit is exactly the trace values
        system = NystromSystem(circle256, GreenKernel("mundane-log"))
        t = parameter_grid(circle256.n)
        v = np.cos(3 * t)
        for r in (1.5, 1.3):
            pts = r * np.exp(1j * np.linspace(0.2, 5.8, 9))
            got = layer_potential_T(v.astype(complex), pts, circle256,
                                    GreenKernel("mundane-log"))
            oracle = -0.5 / np.conj(pts) ** 3
            assert np.max(np.abs(got - oracle)) < 1e-12
        trace = trace_T_minus(v.astype(complex), system)
        assert np.max(np.abs(trace - (-0.5 * np.exp(3j * t)))) < 1e-12


class TestFredholmDirichlet:
    def test_poisson_match_on_disk(self, circle_system):
        t = parameter_grid(circle_system.curve.n)
        pts = 0.7 * np.exp(1j * np.linspace(0.0, 6.0, 17))
        for k in range(1, 9):
            for data, exact in ((np.cos(k * t), (pts**k).real),
                                (np.sin(k * t), (pts**k).imag)):
                ext = solve_dirichlet_fredholm(data.astype(complex),
                                               circle_system)
                assert np.max(np.abs(ext.value(pts) - exact)) < 1e-8

    def test_constant_extension(self, circle_system):
        ext = solve_dirichlet_fredholm(3.0 * np.ones(256, dtype=complex),
                                       circle_system)
        assert abs(ext.value(0.4 + 0.1j) - 3.0) < 1e-10

    def test_ellipse_against_fd_oracle(self, ellipse_system):
        import sys
        sys.path.insert(0, "tests")
        from fd_oracle import EllipseLaplaceOracle
        data = (ellipse_system.curve.positions ** 3).real
        ext = solve_dirichlet_fredholm(data.astype(complex), ellipse_system)
        oracle = EllipseLaplaceOracle(1.3, 0.8, lambda z: (z**3).real,
                                      n_mu=64, n_nu=128)
        pts = oracle.sample_points()
        threshold = near_boundary_threshold(ellipse_system.curve)
        pts = pts[ellipse_system.curve.distance_to(pts) > threshold]
        assert pts.size > 50
        assert np.max(np.abs(ext.value(pts) - oracle.value(pts))) < 1e-5

    def test_interior_harmonicity(self, ellipse_system):
        data = (ellipse_system.curve.positions ** 3).real
        ext = solve_dirichlet_fredholm(data.astype(complex), ellipse_system)
        xs = np.arange(-0.5, 0.51, 0.1)
        ys = np.arange(-0.3, 0.31, 0.1)
        pts = (xs[:, None] + 1j * ys[None, :]).ravel()
        res = fd_laplacian_check(lambda z: ext.value(z).real, pts, 0.02)
        assert res < 1e-5

    def test_mundane_kernel_warns(self, circle256, caplog):
        system = NystromSystem(circle256, GreenKernel("mundane-log"))
        t = parameter_grid(circle256.n)
        with caplog.at_level(logging.WARNING, logger="nystrom"):
            try:
                solve_dirichlet_fredholm(np.cos(t).astype(complex), system)
            except Exception:
                pass
        assert any("condition" in rec.message for rec in caplog.records)


class TestPrincipalGreen:
    def test_matches_disk_green(self, circle_system, rng):
        g = PrincipalGreen(GreenKernel("mundane-log"), circle_system)
        errors = []
        count = 0
        while count < 50:
            z = rng.uniform(0, 0.7) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            w = rng.uniform(0, 0.7) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            if abs(z - w) < 0.05:
                continue
            errors.append(abs(g(z, w) - disk_green(z, w, 1.0)))
            count += 1
        assert max(errors) < 1e-8

    def test_boundary_vanishing(self, circle_system):
        g = PrincipalGreen(GreenKernel("mundane-log"), circle_system)
        assert np.max(np.abs(g.boundary_values(0.3 + 0.2j))) < 1e-7

    def test_symmetry_on_ellipse(self, ellipse_system):
        g = PrincipalGreen(GreenKernel("mundane-log"), ellipse_system)
        pairs = [(0.4 + 0.1j, -0.5 + 0.2j), (0.2 - 0.3j, -0.1 + 0.1j),
                 (0.6 + 0.0j, 0.0 + 0.4j)]
        for z, w in pairs:
            assert abs(g(z, w) - g(w, z)) < 1e-7

    def test_enclosing_domain_independence(self, circle256):
        sys_a = NystromSystem(circle256, GreenKernel("disk-principal",
                                                     radius=1.25, center=0.0))
        sys_b = NystromSystem(circle256, GreenKernel("disk-principal",
                                                     radius=1.5, center=0.0))
        ga = PrincipalGreen(GreenKernel("mundane-log"), sys_a)
        gb = PrincipalGreen(GreenKernel("mundane-log"), sys_b)
        pairs = [(0.3 + 0.2j, -0.4 + 0.1j), (0.5, 0.2j)]
        for z, w in pairs:
            assert abs(ga(z, w) - gb(z, w)) < 1e-6

    def test_spectral_convergence(self):
        # near-boundary data singularity dominates the quadrature error; a
        # tight enclosing kernel keeps the solve conditioning out of the way
        # so doubling N shows the full spectral decay
        errs = {}
        for n in (128, 256):
            curve = BoundaryCurve.circle(1.0, n)
            system = NystromSystem(curve, GreenKernel("disk-principal",
                                                      radius=1.05, center=0.0))
            g = PrincipalGreen(GreenKernel("mundane-log"), system)
            z = 0.88 + 0.0j
            probes = np.array([0.2 + 0.1j, -0.3 + 0.2j, 0.1 - 0.35j])
            errs[n] = max(abs(g(z, w) - disk_green(z, w, 1.0)) for w in probes)
        assert errs[128] / max(errs[256], 1e-16) > 1e3


class TestAnnulus:
    def test_extension_matches_laurent_oracle(self):
        dom = AnnulusDomain(0.4, 1.2)
        solver = AnnulusHarmonicSolver(dom, 192)

        def harm(z):
            return (0.7 + 0.3 * np.log(np.abs(z)) + (0.2 * z**2).real
                    + (0.15 / z).real)

        ext = solver.extend(harm(solver.outer.positions).astype(complex),
                            harm(solver.inner.positions).astype(complex))
        pts = np.array([0.7 + 0.1j, -0.6 + 0.3j, 0.8j, 0.5 - 0.5j])
        assert np.max(np.abs(ext.value(pts) - harm(pts))) < 1e-10
        dz_exact = 0.15 / pts + 0.2 * pts - 0.075 / pts**2
        assert np.max(np.abs(ext.dz(pts) - dz_exact)) < 1e-10

    def test_boundary_dz_traces(self):
        dom = AnnulusDomain(0.4, 1.2)
        solver = AnnulusHarmonicSolver(dom, 192)

        def harm(z):
            return 0.3 * np.log(np.abs(z)) + (0.2 * z**2).real + (0.15 / z).real

        ext = solver.extend(harm(solver.outer.positions).astype(complex),
                            harm(solver.inner.positions).astype(complex))
        for pts, got in ((solver.outer.positions, ext.boundary_dz()),
                         (solver.inner.positions,
                          ext.dz(solver.inner.positions))):
            dz_exact = 0.15 / pts + 0.2 * pts - 0.075 / pts**2
            assert np.max(np.abs(got - dz_exact)) < 1e-10

    def test_matches_fredholm_reference(self):
        # the layer-potential solve of tests/annulus_fredholm.py shares no
        # code with the Laurent solve; N = 128 keeps its O(N^3) cheap
        dom = AnnulusDomain(0.3, 1.5)
        solver, ref = AnnulusHarmonicSolver(dom, 128), FredholmAnnulus(dom, 128)
        # beyond the reference's near-boundary limit from both circles
        pts = np.array([0.7 + 0.1j, -0.6 + 0.3j, 0.7j, 0.5 - 0.5j, 0.55, -0.6j])
        data = (lambda z: np.log(np.abs(z - 0.9 - 0.3j)),
                lambda z: (0.4 * np.log(np.abs(z)) + (0.2 * z**2).real
                           + 0.3j * (0.15 / z).imag))
        for harm in data:
            u_outer = harm(solver.outer.positions).astype(complex)
            u_inner = harm(solver.inner.positions).astype(complex)
            got = solver.extend(u_outer, u_inner)
            want = ref.extend(u_outer, u_inner)
            assert np.max(np.abs(got.value(pts) - want.value(pts))) < 1e-12
            assert np.max(np.abs(got.dz(pts) - want.dz(pts))) < 1e-12
            outer = want.dz(solver.outer.positions)
            assert np.max(np.abs(got.boundary_dz() - outer)) < 1e-11
            inner = want.inner_boundary_dz()
            got_inner = got.dz(solver.inner.positions)
            assert np.max(np.abs(got_inner - inner)) < 1e-11

    def test_extension_is_harmonic(self):
        solver = AnnulusHarmonicSolver(AnnulusDomain(0.3, 1.5), 256)
        harm = lambda z: np.log(np.abs(z - 0.9 - 0.3j)) + 0.5j * np.abs(z) ** 2
        ext = solver.extend(harm(solver.outer.positions),
                            harm(solver.inner.positions))
        pts = np.array([0.5 + 0.2j, -0.8 + 0.4j, 1.1j, -0.4 - 0.6j])
        assert fd_laplacian_check(ext.value, pts, 1e-3) < 1e-5

    def test_principal_green_symmetric_and_zero_on_circles(self, rng):
        dom = AnnulusDomain(0.3, 1.5)
        green = AnnulusPrincipalGreen(AnnulusHarmonicSolver(dom, 256))
        sources = (0.9 + 0.3j, -0.5 + 0.4j, 0.2 - 1.1j, 0.45)
        for z, a in itertools.permutations(sources, 2):
            assert abs(green(z, a) - green(a, z)) < 1e-12
        # off the sample grid, on both circles
        unit = np.exp(1j * rng.uniform(0, 2 * np.pi, 40))
        for a in sources:
            for radius in (dom.inner_radius, dom.outer_radius):
                assert np.max(np.abs(green(radius * unit, a))) < 1e-10

    @pytest.mark.parametrize("a", [1.0, -1.0, 0.9 + 0.3j, -0.5 + 0.4j])
    def test_principal_green_fft_trace_matches_basis_dz(self, a):
        # the charge traces of HarmonicDistribution on an annulus
        solver = AnnulusHarmonicSolver(AnnulusDomain(0.3, 1.5), 512)
        green = AnnulusPrincipalGreen(solver)
        z = solver.outer.positions
        want = green.dz(z, a)
        gap = np.max(np.abs(green.boundary_dz(z, a) - want)) / np.max(np.abs(want))
        assert gap <= 1e-12


class TestDiskTrace:
    @pytest.mark.parametrize("n", [512, 2048])
    def test_fft_trace_matches_power_sums(self, n):
        dom = DiskDomain(1.5)
        z = dom.boundary(n).positions
        u = np.log(np.abs(z - 1.0)) - np.log(np.abs(z + 1.0)) + (z**2).real
        ext = DiskHarmonicSolver(dom, n).extend(u.astype(complex))
        want = ext.dz(z)
        gap = np.max(np.abs(ext.boundary_dz() - want)) / np.max(np.abs(want))
        assert gap < 1e-12
