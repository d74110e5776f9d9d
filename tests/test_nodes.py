import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nodal_idn import nodes, scenarios
from nodal_idn.dirichlet import DNDatum
from nodal_idn.errors import MomentError, MonodromyError, PartitionError
from nodal_idn.moments import (MomentEngine, continue_fibers,
                               recover_form_quotient, sweep_windows)
from nodal_idn.nodes import (BranchReport, SingularPointReport,
                             analyze_singular_point, branch_residues,
                             classify_and_partition, cycle_centre,
                             discriminant, energy_growth_reports,
                             locate_singularities, track_branch_contour,
                             zero_census, _sheet_values_at)
from test_moments import Counting, PowerSumFamily

_lattice = st.integers(-6, 6)


@pytest.fixture(scope="module")
def charged_candidates(charged_sweep, charged_datum):
    return locate_singularities(charged_sweep,
                                MomentEngine.from_datum(charged_datum))


@pytest.fixture(scope="module")
def charged_report(charged_datum, charged_sweep, charged_candidates):
    return analyze_singular_point(MomentEngine.from_datum(charged_datum),
                                  charged_sweep, charged_candidates[:1])[0]


@pytest.fixture(scope="module")
def spurious_candidates(spurious_sweep, spurious_datum):
    return locate_singularities(spurious_sweep,
                                MomentEngine.from_datum(spurious_datum))


@pytest.fixture(scope="module")
def spurious_report(spurious_datum, spurious_sweep, spurious_candidates):
    return analyze_singular_point(MomentEngine.from_datum(spurious_datum),
                                  spurious_sweep, spurious_candidates[:1])[0]


class TestLocate:
    def test_charged_candidate_at_node_image(self, charged_candidates,
                                             charged_report):
        # over 3 the node, the branch point of z = 0 and their four mixed
        # pairs make a discriminant zero of order 7; over 2.75 the branch
        # points of z = +-1/sqrt(2) make one of order 2
        assert [c.order for c in charged_candidates] == [7, 2]
        assert abs(charged_candidates[0].xi - 3.0) < 1e-9
        assert abs(charged_candidates[1].xi - 2.75) < 1e-9
        assert abs(charged_report.xi - 3.0) < 1e-9
        assert abs(charged_report.h - 2.0) < 1e-9

    def test_branch_point_pair_is_no_point(self, charged_datum, charged_sweep,
                                           charged_candidates):
        # the contour about 2.75 gives two 2-cycles with distinct centres
        # f1(+-1/sqrt(2)) = 2 -+ sqrt(2)/4: no two branches meet there
        engine = MomentEngine.from_datum(charged_datum)
        c = charged_candidates[1]
        window = charged_sweep.windows[c.window_index]
        start = _sheet_values_at(engine, [window], [c.xi + 0.05])
        contour, = track_branch_contour(engine, window.p, [c.xi], 0.05, start)
        assert [len(cyc) for cyc in contour.cycles] == [2, 2]
        centres = sorted(cycle_centre(contour, cyc).real
                         for cyc in contour.cycles)
        assert np.allclose(centres, 2 + np.array([-1, 1]) * np.sqrt(2) / 4,
                           atol=1e-9)
        assert analyze_singular_point(engine, charged_sweep, [c]) == []

    def test_census_and_cycle_centre_never_iterate(
            self, charged_datum, charged_sweep, monkeypatch):
        # both recover roots that cluster by construction and ask for the
        # eigensolve by name; the same rows would otherwise iterate
        from nodal_idn import moments
        engine = MomentEngine.from_datum(charged_datum)
        contours = []
        for c in locate_singularities(charged_sweep, engine):
            window = charged_sweep.windows[c.window_index]
            start = _sheet_values_at(engine, [window], [c.xi + 0.05])
            contours += track_branch_contour(engine, window.p, [c.xi], 0.05,
                                             start)
        iterated, rows = [], []
        aberth, recover = moments._aberth, nodes.roots_from_power_sums

        def counting(desc, sums):
            iterated.append(len(desc))
            return aberth(desc, sums)

        def recording(sums, **kwargs):
            rows.append(sums)
            return recover(sums, **kwargs)

        monkeypatch.setattr(moments, "_aberth", counting)
        monkeypatch.setattr(nodes, "roots_from_power_sums", recording)
        locate_singularities(charged_sweep, engine)
        for contour in contours:
            for cycle in contour.cycles:
                cycle_centre(contour, cycle)
        assert len(rows) > len(contours) and iterated == []
        for sums in rows:
            recover(sums)
        assert len(iterated) == len(rows)

    def test_spurious_candidate_at_origin(self, spurious_candidates,
                                          spurious_report):
        (c,) = spurious_candidates
        assert c.order == 2 and abs(c.xi) < 1e-9
        assert abs(spurious_report.h) < 1e-9

    def test_graph_has_no_candidates(self, graph_sweep, graph_datum):
        engine = MomentEngine.from_datum(graph_datum)
        assert locate_singularities(graph_sweep, engine) == []

    def test_failing_window_census_leaves_others(self, charged_sweep,
                                                 charged_datum, monkeypatch):
        # no census about window 0 can be trusted: that window is skipped
        # and the others still find the node's base point
        from nodal_idn import nodes
        census = nodes.zero_census
        center = charged_sweep.windows[0].center
        refused = []

        def failing(engine, p, about, radius):
            if about == center:
                refused.append(radius)
                return None
            return census(engine, p, about, radius)

        monkeypatch.setattr(nodes, "zero_census", failing)
        got = locate_singularities(charged_sweep,
                                   MomentEngine.from_datum(charged_datum))
        assert len(refused) == len(nodes.CENSUS_REACH)
        assert all(c.window_index != 0 for c in got)
        (node,) = [c for c in got if c.order == 7]
        assert abs(node.xi - 3.0) < 1e-9

    def test_contour_census_must_match_order(self, charged_datum,
                                             charged_sweep, charged_candidates):
        # a contour of radius 0.3 about 3 also encloses the zeros at 2.75
        with pytest.raises(MonodromyError, match="change contour_radius"):
            analyze_singular_point(MomentEngine.from_datum(charged_datum),
                                   charged_sweep, charged_candidates[:1],
                                   contour_radius=0.3)


class TestDiscriminantCensus:
    @given(st.lists(st.tuples(_lattice, _lattice), min_size=2, max_size=4,
                    unique=True),
           st.lists(st.tuples(_lattice, _lattice, _lattice), min_size=4,
                    max_size=4),
           st.lists(st.tuples(_lattice, _lattice), min_size=1, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_matches_root_products(self, origins, slopes, points):
        p = len(origins)
        family = PowerSumFamily(
            [[0.25 * (x + 1j * y), 0.15 * (u + 1j * v), 0.05 * w]
             for (x, y), (u, v, w) in zip(origins, slopes)])
        xi = np.array([0.15 * (a + 1j * b) for a, b in points])
        got = discriminant(family, p, xi)
        for x, value in zip(xi, got):
            h = family.roots(x)[0]
            want = np.prod([(h[j] - h[k]) ** 2
                            for j in range(p) for k in range(j + 1, p)])
            scale = max(1.0, float(np.max(np.abs(h)))) ** (p * (p - 1))
            assert abs(value - want) <= 1e-10 * scale

    def test_sheet_count_mismatch_raises(self):
        family = PowerSumFamily([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
        with pytest.raises(MomentError, match="sheet count"):
            discriminant(family, 3, [0.5])

    @pytest.mark.parametrize("name, f1, f2, want", [
        ("charged", "2 + z**3 - z", "3 + z**4 - z**2",
         {3.0: 7, 2.75: 2}),
        ("spurious", "z**2 - 1", "z**3 - z",
         {0.0: 2, 2 / (3 * np.sqrt(3)): 1, -2 / (3 * np.sqrt(3)): 1}),
    ])
    def test_counts_and_centroids_match_sympy(self, request, name, f1, f2,
                                              want):
        # the discriminant in h of P(h, xi) = Res_z(f2 - xi, h - f1), whose
        # roots in h are the fiber f1(f2^-1(xi)), vanishes where Delta does
        import sympy
        z, h, xi = sympy.symbols("z h xi")
        poly = sympy.resultant(sympy.sympify(f2) - xi, h - sympy.sympify(f1), z)
        zeros = sympy.roots(sympy.Poly(sympy.discriminant(poly, h), xi))
        got = {float(root): int(order) for root, order in zeros.items()}
        assert sorted(got) == pytest.approx(sorted(want), abs=1e-12)
        assert sorted(got.values()) == sorted(want.values())
        engine = MomentEngine.from_datum(request.getfixturevalue(f"{name}_datum"))
        p = sympy.Poly(poly, h).degree()
        for root, order in got.items():
            count, sums = zero_census(engine, p, root, 0.1)
            assert count == order
            centroid = root + 0.1 * sums[0] / count
            assert abs(centroid - root) < 1e-9


class TestBranchResidues:
    def test_charged_branch_charges(self, charged_report):
        singles = [b for b in charged_report.branches if len(b.cycle) == 1]
        assert len(singles) == 2
        res0 = sorted(b.residues[0].real for b in singles)
        assert np.allclose(res0, [-1.0, 1.0], atol=1e-4)
        res1 = sorted(b.residues[1].real for b in singles)
        assert np.allclose(res1, [-2.0, 2.0], atol=1e-4)
        res2 = sorted(b.residues[2].real for b in singles)
        assert np.allclose(res2, [-3.0, 3.0], atol=1e-4)

    def test_ramified_component_is_chargeless(self, charged_report):
        doubles = [b for b in charged_report.branches if len(b.cycle) == 2]
        assert len(doubles) == 1
        assert np.max(np.abs(doubles[0].residues)) < 1e-6

    def test_residues_pair_by_branch(self, charged_report):
        # each node branch carries its own charge triple: the branch through
        # one preimage has (c, 2c, 3c) with the SAME sign for every potential
        for b in charged_report.branches:
            if len(b.cycle) != 1:
                continue
            c = b.residues[0]
            assert abs(b.residues[1] - 2 * c) < 1e-4
            assert abs(b.residues[2] - 3 * c) < 1e-4

    def test_zero_sum_per_node(self, charged_report):
        for ell in range(3):
            total = sum(b.residues[ell] for b in charged_report.branches)
            assert abs(total) < 1e-4

    def test_spurious_residues_vanish(self, spurious_report):
        assert len(spurious_report.branches) == 2
        for b in spurious_report.branches:
            assert np.max(np.abs(b.residues)) < 1e-6

    def test_contour_radius_stability(self, charged_datum, charged_sweep,
                                      charged_candidates, charged_report):
        small = analyze_singular_point(MomentEngine.from_datum(charged_datum),
                                       charged_sweep, charged_candidates[:1],
                                       contour_radius=0.025)[0]
        big_map = {b.cycle: b.residues for b in small.branches
                   if len(b.cycle) == 1}
        for b in charged_report.branches:
            if len(b.cycle) != 1:
                continue
            # match by residue sign rather than cycle labels
            mate = min(big_map.values(),
                       key=lambda r: abs(r[0] - b.residues[0]))
            assert np.max(np.abs(mate - b.residues)) < 1e-5

    def test_public_branch_residue(self, charged_datum, charged_sweep,
                                   charged_candidates):
        c = charged_candidates[0]
        engine = MomentEngine.from_datum(charged_datum)
        window = charged_sweep.windows[c.window_index]
        start = _sheet_values_at(engine, [window], [c.xi + 0.05])
        contour, = track_branch_contour(engine, window.p, [c.xi], 0.05, start)
        singles = [cyc for cyc in contour.cycles if len(cyc) == 1]
        values = branch_residues(engine, contour, singles)[:, 0]
        assert np.allclose(sorted(v.real for v in values), [-1.0, 1.0],
                           atol=1e-4)


def _energy_ring_by_ring(engine, contour, cycles, halvings=4,
                         radial_nodes=4, angular_nodes=64):
    """Reference for energy_growth_reports, three times finer along the
    rays: the rings one after another, each reached from the one outside
    it by 3 ray steps of its own continue_fibers call, with one quotient
    solve per ring."""
    p = contour.roots.shape[1]
    ang = 2 * np.pi * np.arange(angular_nodes) / angular_nodes
    turn = (contour.angles[None, :-1] - ang[:, None] + np.pi) % (2 * np.pi)
    outer_roots = contour.roots[np.argmin(np.abs(turn - np.pi), axis=1)]
    outer_radius = contour.radius
    contributions = np.zeros((len(cycles), 3, halvings + 1))
    for k in range(halvings + 1):
        eps = contour.radius / 2.0 ** k
        radii = eps / 2.0 + (eps / 2.0) * (np.arange(radial_nodes) + 0.5) \
            / radial_nodes
        for r in sorted(radii, reverse=True):
            ring = contour.center + r * np.exp(1j * ang)
            rays = contour.center + np.linspace(outer_radius, r, 4)[None, 1:] \
                * np.exp(1j * ang)[:, None]
            ring_roots = continue_fibers(
                engine, p, rays,
                contour.center + outer_radius * np.exp(1j * ang),
                outer_roots)[:, -1]
            weight = r * ((eps / 2.0) / radial_nodes) * (2 * np.pi
                                                          / angular_nodes)
            g = recover_form_quotient(engine, ring, ring_roots)
            for ci, cyc in enumerate(cycles):
                contributions[ci, :, k] += np.sum(
                    np.abs(g[:, :, list(cyc)]) ** 2, axis=(1, 2)) * weight
            outer_roots, outer_radius = ring_roots, r
    return contributions


def _node_contour(datum, sweep, candidate):
    """A fresh engine and the default contour about a candidate."""
    engine = MomentEngine.from_datum(datum)
    window = sweep.windows[candidate.window_index]
    start = _sheet_values_at(engine, [window], [candidate.xi + 0.05])
    contour, = track_branch_contour(engine, window.p, [candidate.xi], 0.05,
                                    start)
    return engine, contour


class TestEnergyGrowth:
    def test_matches_ring_by_ring_reference(self, charged_datum,
                                            charged_sweep,
                                            charged_candidates):
        (engine, contour), (ref_engine, ref_contour) = (
            _node_contour(charged_datum, charged_sweep, charged_candidates[0])
            for _ in range(2))
        assert np.array_equal(contour.roots, ref_contour.roots)
        reports = energy_growth_reports(engine, contour, contour.cycles)
        want = _energy_ring_by_ring(ref_engine, ref_contour, contour.cycles)
        for ci in range(len(contour.cycles)):
            for ell in range(3):
                rep = reports[ci][ell]
                assert np.allclose(rep.contributions, want[ci, ell],
                                   rtol=1e-12, atol=0)
                ratios = want[ci, ell, 1:] / want[ci, ell, :-1]
                if 0.8 <= ratios[-1] <= 1.25:
                    verdict = "divergent"
                else:
                    verdict = "convergent" if ratios[-1] < 0.8 \
                        else "undetermined"
                assert rep.verdict == verdict

    def test_one_point_per_ring(self, charged_datum, charged_sweep,
                                charged_candidates):
        # 64 rays reach the 20 rings one point each: 1,280 points in blocks
        # of ROOT_BLOCK, and no halving
        engine, contour = _node_contour(charged_datum, charged_sweep,
                                        charged_candidates[0])
        counting = Counting(engine)
        energy_growth_reports(counting, contour, contour.cycles)
        assert counting.calls == [512, 512, 256]

    @pytest.mark.parametrize("name", ["charged", "spurious"])
    def test_ray_steps_keep_a_matching_margin(self, request, monkeypatch,
                                              name):
        # nearest-neighbour matching is exact while every root moves less
        # than half its distance to the nearest other root; the steps from
        # ring to ring stay below half of that
        engine, contour = _node_contour(
            request.getfixturevalue(f"{name}_datum"),
            request.getfixturevalue(f"{name}_sweep"),
            request.getfixturevalue(f"{name}_candidates")[0])
        calls = []

        def recording(engine, p, paths, start_xi, start_roots):
            tracks = continue_fibers(engine, p, paths, start_xi, start_roots)
            calls.append((start_roots, tracks))
            return tracks

        monkeypatch.setattr(nodes, "continue_fibers", recording)
        energy_growth_reports(engine, contour, contour.cycles)
        (start_roots, tracks), = calls
        assert tracks.shape == (64, 20, contour.roots.shape[1])
        points = np.concatenate([start_roots[:, None], tracks], axis=1)
        before, after = points[:, :-1], points[:, 1:]
        gaps = np.abs(before[..., :, None] - before[..., None, :])
        gaps += np.diag(np.full(gaps.shape[-1], np.inf))
        margin = np.abs(after - before) / (0.5 * np.min(gaps, axis=-1))
        assert np.max(margin) < 0.5

    def test_node_branch_diverges(self, charged_report):
        singles = [b for b in charged_report.branches if len(b.cycle) == 1]
        for b in singles:
            assert all(v == "divergent" for v in b.energy_verdicts)

    def test_spurious_branch_converges(self, spurious_report):
        for b in spurious_report.branches:
            assert all(v == "convergent" for v in b.energy_verdicts)

    def test_spurious_contributions_shrink_fast(self, spurious_datum,
                                                spurious_sweep,
                                                spurious_candidates):
        engine, contour = _node_contour(spurious_datum, spurious_sweep,
                                        spurious_candidates[0])
        cyc = contour.cycles[0]
        rep = energy_growth_reports(engine, contour, [cyc])[0][0]
        assert all(r < 0.3 for r in rep.ratios)  # >= 4x shrink per halving

    def test_node_contributions_nearly_constant(self, charged_datum,
                                                charged_sweep,
                                                charged_candidates,
                                                charged_report):
        single = [b for b in charged_report.branches if len(b.cycle) == 1][0]
        engine, contour = _node_contour(charged_datum, charged_sweep,
                                        charged_candidates[0])
        rep = energy_growth_reports(engine, contour, [single.cycle])[0][0]
        assert all(0.8 <= r <= 1.25 for r in rep.ratios)

    def test_zero_form_is_convergent_zero(self, charged_datum, charged_sweep,
                                          charged_candidates):
        zeroed = charged_datum.theta.copy()
        zeroed[2] = 0.0
        muted = DNDatum(charged_datum.curve, charged_datum.u, zeroed,
                        charged_datum.f, charged_datum.hypothesis_a)
        engine, contour = _node_contour(muted, charged_sweep,
                                        charged_candidates[0])
        rep = energy_growth_reports(engine, contour, [contour.cycles[0]])[0][2]
        assert rep.verdict == "convergent"
        assert rep.contributions[-1] < 1e-20


class TestClassification:
    def test_charged_inventory(self, charged_report):
        inv = classify_and_partition([charged_report])
        assert len(inv.nodes) == 1
        node = inv.nodes[0]
        assert abs(node["point"][0] - 2.0) < 1e-6
        assert abs(node["point"][1] - 3.0) < 1e-6
        assert len(node["branches"]) == 2
        charges = np.sort_complex(node["charges"][0])
        assert np.allclose(charges, [-1.0, 1.0], atol=1e-4)
        assert inv.family_generic == [True, True, True]
        assert inv.partition_unique
        assert inv.isomorphism_class == "full"

    def test_diagnostics_agree(self, charged_report, spurious_report):
        inv = classify_and_partition([charged_report, spurious_report])
        assert not any("disagree" in n for n in inv.notes)

    def test_spurious_inventory(self, spurious_report):
        inv = classify_and_partition([spurious_report])
        assert inv.nodes == []
        assert len(inv.spurious) == 1

    def test_symmetric_ambiguity_flagged(self):
        residues = [1.0, -1.0, 1.0, -1.0]
        branches = [BranchReport((j,), np.array([r, 2 * r, 3 * r]))
                    for j, r in enumerate(residues)]
        report = SingularPointReport(0.0, 0.5, branches)
        inv = classify_and_partition([report])
        assert not inv.partition_unique
        assert inv.isomorphism_class == "rough"

    def test_cross_potential_inconsistency_raises(self):
        # potential 0 groups {0,1},{2,3}; potential 1 groups {0,2},{1,3}
        rows = [
            np.array([1.0, 1.0, 1.0], dtype=complex),
            np.array([-1.0, 2.0, -1.0], dtype=complex),
            np.array([2.0, -1.0, 2.0], dtype=complex),
            np.array([-2.0, -2.0, -2.0], dtype=complex),
        ]
        branches = [BranchReport((j,), row) for j, row in enumerate(rows)]
        report = SingularPointReport(0.0, 0.5, branches)
        with pytest.raises(PartitionError):
            classify_and_partition([report])

    def test_too_many_points_are_not_generic(self):
        # 11 nodes of two branches: 22 identified points, past the
        # exhaustive genericity test's limit of 20
        branches = [BranchReport((0,), np.array([1.0, 2.0, 3.0])),
                    BranchReport((1,), np.array([-1.0, -2.0, -3.0]))]
        reports = [SingularPointReport(0.0, complex(k), branches)
                   for k in range(11)]
        inv = classify_and_partition(reports)
        assert len(inv.nodes) == 11
        assert inv.family_generic == [False, False, False]

    def test_json_output(self, charged_report, tmp_path):
        from nodal_idn import jsonio
        inv = classify_and_partition([charged_report])
        path = tmp_path / "nodes.json"
        jsonio.dump(inv.to_json(), path)
        doc = jsonio.load(path)
        assert doc["schema"] == "nodal-idn/nodes/1"
        assert len(doc["nodes"]) == 1


def test_residues_kernel_products_at_large_n(monkeypatch):
    # charged4 at N = 4096, the steps of one residues run on one engine.  A
    # direct kernel for every batch makes 324 N-wide products here, 156 of
    # them at single points.  A batch that a local expansion's disc holds
    # is evaluated from its coefficients and a batch of J or more points
    # builds such a disc.  The walks of the crossing refinement build the
    # first disc about the node, so the later single-point walk and contour
    # of the contour analysis need no direct product: 2 discs, no product
    scn = scenarios.charged4(4096)
    datum = scn.datum()
    curve = sweep_windows(MomentEngine.from_datum(datum), scn.plan)
    direct, built = [], []
    kernel, expand = MomentEngine._direct, MomentEngine.local_expansion

    def counting_direct(self, ells, orders, xi):
        direct.append(xi.size)
        return kernel(self, ells, orders, xi)

    def counting_expand(self, *args, **kwargs):
        built.append(args)
        return expand(self, *args, **kwargs)

    monkeypatch.setattr(MomentEngine, "_direct", counting_direct)
    monkeypatch.setattr(MomentEngine, "local_expansion", counting_expand)
    engine = MomentEngine.from_datum(datum)
    candidates = locate_singularities(curve, engine)
    reports = analyze_singular_point(engine, curve, candidates)
    inventory = classify_and_partition(reports)
    assert direct == []
    assert len(built) <= 2
    (node,) = inventory.nodes
    h, xi = node["point"]
    assert abs(h - 2.0) < 1e-9 and abs(xi - 3.0) < 1e-8
    charges = np.asarray(node["charges"])
    want = np.array([[1.0], [2.0], [3.0]]) * np.sign(charges.real)
    assert np.max(np.abs(charges - want)) < 1e-9
