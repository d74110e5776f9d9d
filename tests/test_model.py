import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from engine_checks import (ellipse, has_distinct_pair_magnitudes, scaled,
                           spectral_consistency, zero_sum_subsets)
from nodal_idn.errors import ModelError, PartitionError
from nodal_idn.model import (AdmissibleFamily, AnnulusDomain, BoundaryCurve,
                             DiskDomain, NodalDomainModel,
                             _polygon_self_intersects,
                             finest_zero_sum_partition, is_generic_family)
from reference import oracles


class TestBoundaryCurve:
    @pytest.mark.parametrize("curve", [
        BoundaryCurve.circle(1.0, 128),
        BoundaryCurve.circle(2.5, 256),
        ellipse(1.3, 0.8, 128),
    ])
    def test_spectral_consistency(self, curve):
        assert spectral_consistency(curve) < 1e-8

    def test_odd_sample_count_rejected(self):
        t = 2 * np.pi * np.arange(9) / 9
        with pytest.raises(ModelError):
            BoundaryCurve(np.exp(1j * t), 1j * np.exp(1j * t))

    def test_vanishing_derivative_rejected(self):
        curve = BoundaryCurve.circle(1.0, 16)
        bad = curve.derivatives.copy()
        bad[3] = 0.0
        with pytest.raises(ModelError):
            BoundaryCurve(curve.positions, bad)

    def test_self_intersection_rejected(self):
        t = 2 * np.pi * np.arange(64) / 64
        # figure eight
        pos = np.sin(2 * t) + 1j * np.sin(t)
        der = 2 * np.cos(2 * t) + 1j * np.cos(t)
        with pytest.raises(ModelError):
            BoundaryCurve(pos, der)

    def test_reversal_involution(self):
        curve = ellipse(1.3, 0.8, 64)
        back = curve.reversed().reversed()
        assert np.allclose(back.positions, curve.positions)
        assert np.allclose(back.derivatives, curve.derivatives)

    def test_outward_normal_circle(self):
        curve = BoundaryCurve.circle(2.0, 32)
        assert np.allclose(curve.outward_normal, curve.positions / 2.0)

    def test_json_round_trip(self):
        curve = ellipse(1.3, 0.8, 32)
        back = BoundaryCurve.from_json(curve.to_json())
        assert np.allclose(back.positions, curve.positions)


    @pytest.mark.parametrize("where", ["position", "derivative"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf * 1j])
    def test_non_finite_sample_rejected(self, where, bad):
        curve = BoundaryCurve.circle(1.0, 16)
        pos, der = curve.positions.copy(), curve.derivatives.copy()
        (pos if where == "position" else der)[4] = bad
        with pytest.raises(ModelError, match="curve samples must be finite"):
            BoundaryCurve(pos, der)

    def test_non_finite_checked_first(self):
        # an odd count with a NaN fails on the NaN, before the count
        pos = np.exp(2j * np.pi * np.arange(9) / 9)
        pos[2] = np.nan
        with pytest.raises(ModelError, match="finite"):
            BoundaryCurve(pos, 1j * pos)


def _curve_verdict(pos):
    """The engine's verdict on a sample polygon: its error message or None."""
    try:
        BoundaryCurve(pos, np.ones(pos.size, dtype=complex))
    except ModelError as exc:
        return str(exc)
    return None


def _oracle_verdict(pos):
    if not oracles.samples_distinct(pos):
        return "curve samples are not pairwise distinct"
    if oracles.polygon_self_intersects(pos):
        return "polygonal closure of the samples self-intersects"
    return None


lattice_points = st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                          min_size=3, max_size=24)


def _lattice(points):
    return np.array([complex(x, y) for x, y in points])


class TestCurveValidationOracle:
    """Grid checks of BoundaryCurve against the N x N oracles.

    On small integer coordinates every cross product is exact, so the
    lattice cases pin the degenerate geometry: shared and touching
    vertices, collinear overlaps and repeated samples."""

    @pytest.mark.parametrize("points, crosses", [
        ([(0, 0), (2, 2), (2, 0), (0, 2)], True),            # figure eight
        ([(0, 0), (4, 0), (4, 4), (2, 0), (0, 4)], False),   # vertex on a side
        ([(0, 0), (3, 0), (1, 0), (2, 2)], False),           # collinear overlap
        ([(0, 0), (2, 0), (2, 2), (0, 0), (-2, 0), (-2, -2)], False),  # touch
        ([(0, 0), (1, 1), (2, 0), (3, 1), (4, 0), (2, -3)], False),
        ([(0, 0), (1, 1), (2, 0), (3, 1), (4, 0), (4, 3), (1, -1)], True),
        ([(0, 0), (1000, 1), (999, 2), (998, 1), (997, 0), (3, 2)], True),
    ])
    def test_degenerate_lattice_polygons(self, points, crosses):
        pos = _lattice(points)
        assert oracles.polygon_self_intersects(pos) is crosses
        assert _polygon_self_intersects(pos) is crosses

    @given(lattice_points)
    @settings(max_examples=300, deadline=None)
    def test_lattice_polygons(self, points):
        pos = _lattice(points)
        assert _polygon_self_intersects(pos) == oracles.polygon_self_intersects(pos)
        if pos.size % 2 == 0 and pos.size >= 4:
            assert _curve_verdict(pos) == _oracle_verdict(pos)

    @given(lattice_points, st.integers(0, 23), st.integers(-400, 400),
           st.integers(-400, 400))
    @settings(max_examples=200, deadline=None)
    def test_one_long_side(self, points, at, x, y):
        # one far vertex: the grid cell is the long sides' box, so every
        # short side shares one cell
        pos = _lattice(points)
        pos[at % pos.size] = complex(x, y)
        assert _polygon_self_intersects(pos) == oracles.polygon_self_intersects(pos)

    @given(st.lists(st.complex_numbers(max_magnitude=0.6, allow_nan=False,
                                       allow_infinity=False),
                    min_size=4, max_size=4),
           st.sampled_from([16, 64, 256]),
           st.sampled_from([0.0, 1e6 - 3e5j]))
    @settings(max_examples=100, deadline=None)
    def test_random_smooth_curves(self, coeffs, n, center):
        t = 2 * np.pi * np.arange(n) / n
        modes = (-3, -2, 2, 3)
        pos = center + np.exp(1j * t) + sum(
            c * np.exp(1j * k * t) for c, k in zip(coeffs, modes))
        assert _polygon_self_intersects(pos) == oracles.polygon_self_intersects(pos)
        assert _curve_verdict(pos) == _oracle_verdict(pos)

    def test_repeated_sample(self):
        curve = BoundaryCurve.circle(1.0, 32)
        pos = curve.positions.copy()
        pos[20] = pos[7]
        assert _curve_verdict(pos) == _oracle_verdict(pos) \
            == "curve samples are not pairwise distinct"


class TestFamiliesAndModels:
    def test_zero_sum_enforced(self):
        with pytest.raises(ModelError):
            AdmissibleFamily((np.array([1.0, -0.5]),))

    def test_margin_enforced(self):
        dom = DiskDomain(1.0)
        with pytest.raises(ModelError):
            NodalDomainModel(dom, dom.boundary(64), (np.array([0.97, -0.5]),))

    def test_disjoint_groups(self):
        dom = DiskDomain(1.0)
        with pytest.raises(ModelError, match="node points must be distinct"):
            NodalDomainModel(dom, dom.boundary(64),
                             (np.array([0.5, -0.5]), np.array([0.5, 0.3j])))

    def test_distinct_points_within_a_group(self):
        dom = DiskDomain(1.0)
        with pytest.raises(ModelError, match="node points must be distinct"):
            NodalDomainModel(dom, dom.boundary(64),
                             (np.array([0.5, -0.5, 0.5]),))

    def test_auxiliary_zero_sum(self):
        dom = DiskDomain(1.0)
        with pytest.raises(ModelError):
            NodalDomainModel(dom, dom.boundary(64),
                             auxiliary_poles=((0.2, 1.0), (-0.2, -0.5)))

    def test_annulus_domain(self):
        dom = AnnulusDomain(0.4, 1.2)
        assert dom.contains(0.7 + 0.1j)
        assert not dom.contains(0.1)
        model = NodalDomainModel(dom, dom.boundaries(64)[0],
                                 (np.array([0.7, -0.7]),))
        assert model.node_groups[0].size == 2

    def test_model_json_round_trip(self):
        dom = DiskDomain(1.5)
        model = NodalDomainModel(dom, dom.boundary(64),
                                 (np.array([1.0 + 0j, -1.0 + 0j]),),
                                 ((0.3, 2.0), (0.4j, -2.0)))
        back = NodalDomainModel.from_json(model.to_json())
        assert np.allclose(back.node_groups[0], model.node_groups[0])
        assert back.auxiliary_poles == model.auxiliary_poles


class TestGenericity:
    def test_two_pair_generic(self):
        ok, witness = is_generic_family(AdmissibleFamily(((1, -1), (2, -2))))
        assert ok and witness is None

    def test_mirror_pairs_not_generic(self):
        ok, witness = is_generic_family(AdmissibleFamily(((1, -1), (1, -1))))
        assert not ok
        groups = AdmissibleFamily(((1, -1), (1, -1))).charges
        total = sum(groups[g][i] for g, sub in enumerate(witness) for i in sub)
        assert abs(total) < 1e-12

    def test_single_group_generic(self):
        ok, _ = is_generic_family(AdmissibleFamily(((1, 2, -3),)))
        assert ok

    def test_rejects_too_many_points(self):
        big = AdmissibleFamily((tuple([1.0] * 11 + [-11.0]),
                                tuple([1.0] * 9 + [-9.0])))
        with pytest.raises(ModelError):
            is_generic_family(big)

    @given(st.complex_numbers(min_magnitude=0.1, max_magnitude=10.0,
                              allow_nan=False, allow_infinity=False),
           st.integers(min_value=0, max_value=3))
    @settings(max_examples=40, deadline=None)
    def test_scaling_invariance(self, scale, pick):
        families = [
            AdmissibleFamily(((1, -1), (2, -2))),
            AdmissibleFamily(((1, -1), (1, -1))),
            AdmissibleFamily(((1, 2, -3),)),
            AdmissibleFamily(((1 + 1j, -1 - 1j), (0.5, -0.5))),
        ]
        fam = families[pick]
        base, _ = is_generic_family(fam)
        rescaled, _ = is_generic_family(scaled(fam, scale))
        assert base == rescaled


class TestPairMagnitudePredicate:
    def test_distinct_magnitudes(self):
        fam = AdmissibleFamily(((1, -1), (2, -2), (3, -3)))
        assert has_distinct_pair_magnitudes(fam)

    def test_equal_magnitudes_rejected(self):
        fam = AdmissibleFamily(((1, -1), (1j, -1j)))
        assert not has_distinct_pair_magnitudes(fam)

    def test_neither_predicate_implies_the_other(self):
        # distinct magnitudes, yet 1 + 2 - 3 = 0 breaks subset-sum genericity
        fam_a = AdmissibleFamily(((1, -1), (2, -2), (3, -3)))
        assert has_distinct_pair_magnitudes(fam_a)
        assert not is_generic_family(fam_a)[0]
        # subset-sum generic, yet the pair magnitudes coincide
        fam_b = AdmissibleFamily(((1, -1), (1j, -1j)))
        assert is_generic_family(fam_b)[0]
        assert not has_distinct_pair_magnitudes(fam_b)

    def test_pair_family_required(self):
        with pytest.raises(ModelError):
            has_distinct_pair_magnitudes(AdmissibleFamily(((1, 2, -3),)))


class TestFinestPartition:
    def test_two_pairs_unique(self):
        parts, unique = finest_zero_sum_partition([1, -1, 2, -2])
        assert unique
        assert parts[0] == [(0, 1), (2, 3)]

    def test_symmetric_ambiguity(self):
        parts, unique = finest_zero_sum_partition([1, -1, 1, -1])
        assert not unique
        assert len(parts) == 2

    def test_single_pair(self):
        parts, unique = finest_zero_sum_partition([0.5, -0.5])
        assert unique and parts[0] == [(0, 1)]

    def test_not_admissible(self):
        with pytest.raises(PartitionError):
            finest_zero_sum_partition([1.0, 1.0])

    def test_size_cap(self):
        with pytest.raises(PartitionError):
            finest_zero_sum_partition([1, -1] * 9)

    def test_generic_family_recovers_grouping(self):
        fam = AdmissibleFamily(((1, -1), (2, 3, -5)))
        flat = fam.flat()
        parts, unique = finest_zero_sum_partition(flat)
        assert unique
        assert parts[0] == [(0, 1), (2, 3, 4)]

    def test_coarser_partitions_are_unions(self):
        fam = AdmissibleFamily(((1, -1), (2, 3, -5)))
        flat = fam.flat()
        finest, _ = finest_zero_sum_partition(flat)
        finest_groups = {frozenset(g) for g in finest[0]}
        # every zero-sum subset is a union of finest groups on generic data
        for subset in zero_sum_subsets(flat, 1e-9):
            members = set(subset)
            cover = {g for g in finest_groups if g & members}
            assert members == set().union(*cover)
