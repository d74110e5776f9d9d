import importlib
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nodal_idn.errors import ModelError, NodalIdnError
from nodal_idn.oracles import (DiskDomainSpec, RationalFunction,
                               argument_principle_count, fd_laplacian_check,
                               fiber_oracle, polynomial_roots)


class TestPolynomialRoots:
    def test_simple_quadratic(self):
        roots = np.sort_complex(polynomial_roots([-0.25, 0.0, 1.0]))
        assert np.allclose(roots, [-0.5, 0.5], atol=1e-12)

    def test_degree_cap(self):
        with pytest.raises(ModelError):
            polynomial_roots(np.ones(19))

    @given(st.lists(st.complex_numbers(max_magnitude=1.0, allow_nan=False,
                                       allow_infinity=False),
                    min_size=2, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_random_monic_residuals(self, coeffs):
        full = np.array(coeffs + [1.0], dtype=complex)
        roots = polynomial_roots(full)
        residual = np.abs(np.polyval(full[::-1], roots))
        assert np.max(residual) < 1e-10


class TestRationalFunction:
    @given(st.complex_numbers(min_magnitude=0.01, max_magnitude=3.0,
                              allow_nan=False, allow_infinity=False))
    @settings(max_examples=50, deadline=None)
    def test_horner_agreement(self, z):
        r = RationalFunction(poles=(4.0, -5.0 + 1.0j),
                             residues=(1.5, -0.3 + 0.2j),
                             poly=(0.5, -1.0, 0.25))
        assert abs(r(z) - r.horner(complex(z))) < 1e-12 * max(1.0, abs(r(z)))

    def test_derivative(self):
        r = RationalFunction(poles=(2.0,), residues=(1.0,), poly=(0.0, 0.0, 1.0))
        z = 0.3 + 0.1j
        h = 1e-6
        fd = (r(z + h) - r(z - h)) / (2 * h)
        assert abs(r.eval_derivative(z) - fd) < 1e-8


class TestFiberOracle:
    def test_square_roots(self):
        f2 = RationalFunction(poly=(0.0, 0.0, 1.0))
        roots = fiber_oracle(f2, 0.25, DiskDomainSpec(1.0))
        assert np.allclose(np.sort_complex(roots), [-0.5, 0.5], atol=1e-12)

    def test_quartic_residuals(self):
        f2 = RationalFunction(poly=(0.0, 0.0, -1.0, 0.0, 1.0))
        roots = fiber_oracle(f2, 0.1, DiskDomainSpec(1.5))
        assert roots.size == 4
        assert np.max(np.abs(roots**4 - roots**2 - 0.1)) < 1e-10

    def test_empty_fiber(self):
        f2 = RationalFunction(poly=(0.0, 0.0, 0.0, 1.0))
        assert fiber_oracle(f2, 8.0, DiskDomainSpec(1.0)).size == 0

    def test_boundary_touch_rejected(self):
        f2 = RationalFunction(poly=(0.0, 1.0))
        with pytest.raises(NodalIdnError):
            fiber_oracle(f2, 1.0, DiskDomainSpec(1.0))


class TestFdLaplacian:
    def test_harmonic_monomial(self):
        pts = np.array([0.1 + 0.2j, -0.4 + 0.3j, 0.5])
        assert fd_laplacian_check(lambda z: z.real, pts, 0.02) < 1e-10

    def test_log_field(self):
        # truncation is h^2 / r^4; keep the grid far from the singularity
        xs = np.linspace(3.0, 4.0, 6)
        pts = (xs[:, None] + 1j * xs[None, :]).ravel()
        res = fd_laplacian_check(lambda z: np.log(np.abs(z - 0.5)), pts, 0.02)
        assert res < 1e-5

    def test_nonharmonic_control(self):
        pts = np.array([0.3 + 0.1j, -0.2 + 0.4j])
        res = fd_laplacian_check(lambda z: np.abs(z) ** 2, pts, 0.02)
        assert abs(res - 4.0) < 1e-6


def test_oracles_are_engine_independent():
    # the oracle module must not import engine code (dependency direction)
    # in any import form, so the brute-force curve and hypothesis-A checks
    # here stay independent of the grid checks in model and dirichlet
    import nodal_idn.oracles as oracles
    engine = r"(model|greens|dirichlet|moments|nodes|characterize|cli)"
    engine_import = re.compile(
        rf"^\s*(from\s+(\.|nodal_idn\.){engine}\s+import"
        rf"|import\s+nodal_idn\.{engine}\b"
        rf"|from\s+(\.|nodal_idn)\s+import\s+.*\b{engine}\b)", re.M)
    assert engine_import.search(open(oracles.__file__).read()) is None
    for probe in ("from .model import BoundaryCurve", "from . import jsonio, model",
                  "import nodal_idn.dirichlet as d"):
        assert engine_import.search(probe) is not None, probe
    # and neither the forward side, the inverse engine, the CLI nor the
    # package root may borrow oracle code, or the oracle tests would compare
    # the engine with itself
    oracle_import = re.compile(
        r"^\s*(from\s+(\.|nodal_idn\.)oracles\s+import"
        r"|import\s+nodal_idn\.oracles"
        r"|from\s+(\.|nodal_idn)\s+import\s+.*\boracles\b)", re.M)
    for name in ("model", "greens", "dirichlet", "moments", "nodes",
                 "characterize", "cli", None):
        engine = importlib.import_module(f"nodal_idn.{name}" if name
                                         else "nodal_idn")
        source = open(engine.__file__).read()
        assert oracle_import.search(source) is None, name


class TestArgumentPrinciple:
    def test_quartic_count(self):
        t = 2 * np.pi * np.arange(512) / 512
        z = 1.5 * np.exp(1j * t)
        samples = z**4 - z**2 + 3
        assert argument_principle_count(samples, 3.1) == 4
        assert argument_principle_count(samples, 100.0) == 0

    def test_identity_map(self):
        t = 2 * np.pi * np.arange(64) / 64
        assert argument_principle_count(np.exp(1j * t), 0.0) == 1

    def test_refinement_error(self):
        t = 2 * np.pi * np.arange(8) / 8
        z = np.exp(1j * t)
        with pytest.raises(NodalIdnError):
            argument_principle_count(z**4, 0.0)
