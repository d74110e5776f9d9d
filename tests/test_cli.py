import json
import pathlib
import shutil

import pytest

from cli_runner import run_cli

REPO = pathlib.Path(__file__).resolve().parents[1]
SCENARIOS = REPO / "scenarios"
CURVE_LAYOUT = "a curve must be an object with positions and derivatives"
BIG = 10 ** 400     # a JSON integer literal beyond the float range


def run_ok(workdir, command, config, **kwargs):
    proc = run_cli(workdir, command, config, **kwargs)
    assert proc.returncode == 0, proc.stderr


def _run_on_edited(outputs, tmp_path, command, key, doc):
    """Run the charged4 config of ``command`` from ``outputs`` with its
    input ``key`` replaced by the document ``doc``."""
    (tmp_path / f"edited.{key}.json").write_text(json.dumps(doc))
    cfg = json.loads((outputs / f"charged4.{command}.json").read_text())
    for name in ("datum", "curve"):
        if name in cfg:
            cfg[name] = str(outputs / cfg[name])
    cfg[key] = f"edited.{key}.json"
    cfg["out"] = str(tmp_path / "out.json")
    (tmp_path / "cmd.json").write_text(json.dumps(cfg))
    return run_cli(tmp_path, command, "cmd.json")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli")
    for f in SCENARIOS.glob("*.json"):
        shutil.copy(f, path)
    return path


@pytest.fixture(scope="module")
def charged_outputs(workdir):
    run_ok(workdir, "forward", "charged4.forward.json")
    run_ok(workdir, "invert", "charged4.invert.json")
    run_ok(workdir, "residues", "charged4.residues.json")
    run_ok(workdir, "characterize", "charged4.characterize.json")
    return workdir


@pytest.fixture(scope="module")
def graph_outputs(workdir):
    run_ok(workdir, "forward", "graph.forward.json")
    run_ok(workdir, "invert", "graph.invert.json")
    run_ok(workdir, "residues", "graph.residues.json")
    return workdir


@pytest.fixture(scope="module")
def compact_outputs(workdir):
    run_ok(workdir, "compact", "compact.json", out="cmp")
    return workdir


class TestPipelines:
    def test_charged_round_trip(self, charged_outputs):
        nodes = json.loads((charged_outputs / "charged4.nodes.json").read_text())
        assert nodes["schema"] == "nodal-idn/nodes/1"
        assert len(nodes["nodes"]) == 1
        node = nodes["nodes"][0]
        assert abs(node["point"][0][0] - 2.0) < 1e-5
        assert abs(node["point"][1][0] - 3.0) < 1e-5
        recovered = sorted(c[0] for c in node["charges"][2])
        assert abs(recovered[0] + 3.0) < 1e-4 and abs(recovered[1] - 3.0) < 1e-4
        assert nodes["family_generic"] == [True, True, True]
        assert nodes["isomorphism_class"] == "full"

    def test_invert_report_text(self, charged_outputs):
        report = (charged_outputs / "charged4.curve.json.report.txt").read_text()
        assert "p=4" in report
        assert "self-consistency" in report
        assert "stitch 0->1" in report
        assert "ring monodromy" in report

    def test_characterize_report(self, charged_outputs):
        doc = json.loads((charged_outputs / "charged4.caract.json").read_text())
        assert doc["passed"] is True
        assert doc["green_residuals"] is not None
        assert max(max(row) for row in doc["green_residuals"]) < 1e-6

    def test_graph_pipeline(self, graph_outputs):
        nodes = json.loads((graph_outputs / "graph.nodes.json").read_text())
        assert nodes["nodes"] == [] and nodes["spurious"] == []
        report = (graph_outputs / "graph.curve.json.report.txt").read_text()
        assert "p=1" in report

    def test_flat_line_pipeline(self, workdir):
        for command in ("forward", "invert", "residues", "characterize"):
            run_ok(workdir, command, f"flat_line.{command}.json")
        nodes = json.loads((workdir / "flat_line.nodes.json").read_text())
        assert nodes["nodes"] == []

    def test_physical_forward_matches_synthetic(self, charged_outputs):
        # the Dirichlet solves reproduce the prescribed forms of charged4
        import numpy as np
        from nodal_idn import jsonio
        run_ok(charged_outputs, "forward", "charged4_physical.forward.json")
        thetas = []
        for name in ("charged4.datum.json", "charged4_physical.datum.json"):
            doc = jsonio.load(charged_outputs / name)
            thetas.append(np.array([jsonio.decode_complex_array(row)
                                    for row in doc["theta"]]))
        synthetic, physical = thetas
        gap = np.max(np.abs(physical - synthetic)) / np.max(np.abs(synthetic))
        assert gap <= 1e-9

    def test_spurious_pipeline(self, workdir):
        run_ok(workdir, "forward", "spurious.forward.json")
        run_ok(workdir, "invert", "spurious.invert.json")
        run_ok(workdir, "residues", "spurious.residues.json")
        nodes = json.loads((workdir / "spurious.nodes.json").read_text())
        assert nodes["nodes"] == []
        assert len(nodes["spurious"]) == 1
        assert abs(nodes["spurious"][0][0][0]) < 1e-5
        assert abs(nodes["spurious"][0][1][0]) < 1e-5


DISK = {"kind": "disk", "radius": 1.5, "center": [0.0, 0.0]}
ANNULUS = {"kind": "annulus", "inner_radius": 0.3, "outer_radius": 1.5,
           "center": [0.0, 0.0]}


def _physical_forward(tmp_path, domain, n, offset=0.0):
    """Run the charged4 forward without prescriptions on a model whose
    boundary samples |z| = 1.5 at t = 2*pi*(k + offset)/n."""
    import numpy as np
    z = 1.5 * np.exp(2j * np.pi * (np.arange(n) + offset) / n)
    lg = np.log(np.abs(z - 1.0)) - np.log(np.abs(z + 1.0))
    potentials = (2 * lg, 4 * lg + 2 * (z ** 2).real,
                  6 * lg + (4.0 / 3.0 * z ** 3).real)

    def pairs(a):
        return [[complex(v).real, complex(v).imag] for v in a]

    model = {"schema": "nodal-idn/model/1", "domain": domain,
             "boundary": {"n": n, "positions": pairs(z),
                          "derivatives": pairs(1j * z), "orientation": 1},
             "node_groups": [pairs([1.0, -1.0])], "auxiliary_poles": []}
    cfg = {"command": "forward", "model": "model.json", "out": "datum.json",
           "boundary_values": [pairs(u) for u in potentials],
           "families": [[pairs([c, -c])] for c in (1.0, 2.0, 3.0)]}
    (tmp_path / "model.json").write_text(json.dumps(model))
    (tmp_path / "forward.json").write_text(json.dumps(cfg))
    return run_cli(tmp_path, "forward", "forward.json")


class TestExitCodes:
    def test_degenerate_forward_exits_2(self, workdir):
        proc = run_cli(workdir, "forward", "degenerate.forward.json")
        assert proc.returncode == 2, proc.stderr
        assert "bad datum" in proc.stderr

    def test_unresolved_annulus_forward_exits_2(self, tmp_path):
        # at N=64 the annulus solve misses the theta/N operator identity
        # (a SolveError), which is a bad datum, not a crash
        proc = _physical_forward(tmp_path, ANNULUS, 64)
        assert proc.returncode == 2, proc.stderr
        assert "operator identity" in proc.stderr

    @pytest.mark.parametrize("domain", [DISK, ANNULUS])
    def test_boundary_off_the_fft_grid_exits_2(self, tmp_path, domain):
        proc = _physical_forward(tmp_path, domain, 128, offset=0.5)
        assert proc.returncode == 2, proc.stderr
        assert "FFT circle" in proc.stderr

    def test_corrupted_characterize_exits_5(self, charged_outputs):
        proc = run_cli(charged_outputs, "characterize",
                       "charged4_corrupted.characterize.json")
        assert proc.returncode == 5, proc.stderr

    def test_reversed_characterize_exits_0(self, charged_outputs):
        proc = run_cli(charged_outputs, "characterize",
                       "charged4_reversed.characterize.json")
        assert proc.returncode == 0, proc.stderr

    def test_invert_exits_3_when_plan_collapses(self, graph_outputs,
                                                tmp_path):
        cfg = json.loads((graph_outputs / "graph.invert.json").read_text())
        cfg["datum"] = str(graph_outputs / "graph.datum.json")
        cfg["windows"]["centers"] = [[0.99, 0.0], [1.0, 0.01], [-0.99, 0.0]]
        cfg["windows"]["radius"] = 0.25
        (tmp_path / "graph_bad.invert.json").write_text(json.dumps(cfg))
        proc = run_cli(tmp_path, "invert", "graph_bad.invert.json")
        assert proc.returncode == 3, proc.stderr

    @pytest.mark.parametrize("kind, code, label", [
        ("ConfigError", 2, "bad config: "),
        ("ModelError", 2, "bad datum: "),
        ("SolveError", 2, "bad datum: "),
        ("MomentError", 3, ""),
        ("FiberError", 3, ""),
        ("MonodromyError", 3, ""),
        ("PartitionError", 4, ""),
        ("CharacterizationError", 5, "")])
    def test_failure_table(self, monkeypatch, tmp_path, capsys, kind, code,
                           label):
        # each engine error a command raises ends main with its documented
        # exit code and one stderr line, whichever command raised it
        from nodal_idn import cli, errors

        def fail(cfg):
            raise getattr(errors, kind)("forced failure")

        monkeypatch.setitem(cli.COMMANDS, "forward", fail)
        (tmp_path / "f.json").write_text("{}")
        assert cli.main(["forward", "--config", str(tmp_path / "f.json")]) \
            == code
        assert capsys.readouterr().err == f"forward: {label}forced failure\n"

    def test_residues_exit_4_on_partition_error(self, monkeypatch, tmp_path,
                                                charged_outputs):
        from nodal_idn import cli
        from nodal_idn.errors import PartitionError

        def boom(*a, **k):
            raise PartitionError("forced inconsistency")

        monkeypatch.setattr(cli, "classify_and_partition", boom)
        (tmp_path / "r.json").write_text(json.dumps({
            "datum": str(charged_outputs / "charged4.datum.json"),
            "curve": str(charged_outputs / "charged4.curve.json"),
        }))
        assert cli.main(["residues", "--config", str(tmp_path / "r.json"),
                         "--out", str(tmp_path / "n.json")]) == 4

    def test_residues_exits_3_when_contour_tracking_fails(self, tmp_path,
                                                           charged_outputs):
        # a contour of radius 1.5 around the node image also encloses the
        # two branch points over 2.75: its census counts 9 zeros, not 7
        cfg = json.loads((charged_outputs / "charged4.residues.json").read_text())
        cfg["contour_radius"] = 1.5
        for key in ("datum", "curve"):
            cfg[key] = str(charged_outputs / cfg[key])
        cfg["out"] = str(tmp_path / "nodes.json")
        (tmp_path / "wide.residues.json").write_text(json.dumps(cfg))
        proc = run_cli(tmp_path, "residues", "wide.residues.json")
        assert proc.returncode == 3, proc.stderr
        assert "not enclose exactly the 7 discriminant zeros" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("command", ["invert", "residues",
                                         "characterize"])
    @pytest.mark.parametrize("key", ["u", "theta", "f"])
    def test_non_finite_datum_exits_2(self, charged_outputs, tmp_path,
                                      command, key):
        doc = json.loads((charged_outputs / "charged4.datum.json").read_text())
        doc[key][1][5] = [float("nan"), 0.0]
        proc = _run_on_edited(charged_outputs, tmp_path, command, "datum", doc)
        assert proc.returncode == 2, proc.stderr
        assert f"bad datum: datum {key} is not finite at samples [5]" \
            in proc.stderr

    @pytest.mark.parametrize("command", ["invert", "residues",
                                         "characterize"])
    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc.update(u=5), "datum u is not 3 rows of 512 samples"),
        (lambda doc: doc.update(theta=doc["theta"][:2]),
         "datum theta is not 3 rows of 512 samples"),
        (lambda doc: doc.pop("u"), "datum u is not 3 rows of 512 samples"),
        (lambda doc: doc["f"][1].pop(), "datum f is not 2 rows of 512 samples"),
        (lambda doc: doc.update(hypothesisA=[]),
         "datum hypothesisA does not hold the margins"),
        (lambda doc: doc["hypothesisA"].update(min_speed="x"),
         "datum hypothesisA does not hold the margins"),
        (lambda doc: doc.pop("curve"), CURVE_LAYOUT),
        (lambda doc: doc.update(curve=5), CURVE_LAYOUT),
        (lambda doc: doc["curve"].pop("positions"), CURVE_LAYOUT)],
        ids=["u-int", "theta-2-rows", "no-u", "f-short-row", "margins-list",
             "margin-string", "no-curve", "curve-int", "no-curve-positions"])
    def test_malformed_datum_exits_2(self, charged_outputs, tmp_path,
                                     command, edit, message):
        # each of these ended in a traceback or a KeyError (exit 1) before
        # the layout check
        doc = json.loads((charged_outputs / "charged4.datum.json").read_text())
        edit(doc)
        proc = _run_on_edited(charged_outputs, tmp_path, command, "datum", doc)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith(f"{command}: bad datum: {message}")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc.pop("node_groups"), "malformed model: 'node_groups'"),
        (lambda doc: doc["boundary"].pop("positions"), CURVE_LAYOUT),
        (lambda doc: doc.update(boundary=5), CURVE_LAYOUT),
        (lambda doc: doc["domain"].pop("kind"), "unknown domain kind None"),
        (lambda doc: doc.update(domain=5), "unknown domain kind None"),
        (lambda doc: doc["domain"].update(radius="x"),
         "malformed disk domain: could not convert")],
        ids=["no-node-groups", "no-boundary-positions", "boundary-int",
             "no-domain-kind", "domain-int", "radius-string"])
    def test_malformed_model_exits_2(self, workdir, tmp_path, edit, message):
        # a KeyError, TypeError or ValueError (exit 1) before the layout check
        doc = json.loads((workdir / "charged4.model.json").read_text())
        edit(doc)
        proc = _run_on_edited(workdir, tmp_path, "forward", "model", doc)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith(f"forward: bad datum: {message}")
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("command, key, edit, message", [
        ("forward", "model",
         lambda doc: doc["boundary"]["positions"].__setitem__(3, [BIG, 0.0]),
         "number too large for a float"),
        ("forward", "model", lambda doc: doc["domain"].update(radius=BIG),
         "malformed disk domain: int too large to convert to float"),
        ("invert", "datum", lambda doc: doc["u"][1].__setitem__(5, [0.0, BIG]),
         "number too large for a float"),
        ("residues", "curve",
         lambda doc: doc["windows"][0].update(radius=BIG),
         "malformed fiber window: int too large to convert to float"),
        ("residues", "curve",
         lambda doc: doc["windows"][0].update(p=float("inf")),
         "malformed fiber window: cannot convert float infinity")],
        ids=["model-position", "model-radius", "datum-u", "window-radius",
             "window-p-inf"])
    def test_number_beyond_float_exits_2(self, charged_outputs, tmp_path,
                                         command, key, edit, message):
        # each of these ended in an OverflowError traceback (exit 1)
        doc = json.loads((charged_outputs / f"charged4.{key}.json").read_text())
        edit(doc)
        proc = _run_on_edited(charged_outputs, tmp_path, command, key, doc)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith(f"{command}: bad datum: {message}")
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "out.json").exists()

    def test_boundary_value_beyond_float_exits_2(self, workdir, tmp_path):
        cfg = json.loads((workdir / "graph.forward.json").read_text())
        cfg["model"] = str(workdir / cfg["model"])
        cfg["out"] = str(tmp_path / "datum.json")
        cfg["boundary_values"][0][3] = [BIG, 0.0]
        (tmp_path / "big.forward.json").write_text(json.dumps(cfg))
        proc = run_cli(tmp_path, "forward", "big.forward.json")
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith(
            "forward: bad datum: number too large for a float")
        assert not (tmp_path / "datum.json").exists()

    @pytest.mark.parametrize("radius", ["-1.5", "0", '"nan"', "1e400"])
    def test_bad_disk_radius_exits_2(self, workdir, tmp_path, radius):
        # graph's forward takes prescriptions and solves no Dirichlet
        # problem, so only the domain itself can refuse the radius
        model = json.loads((workdir / "graph.model.json").read_text())
        model["domain"]["radius"] = "@radius@"
        (tmp_path / "bad.model.json").write_text(
            json.dumps(model).replace('"@radius@"', radius))
        cfg = json.loads((workdir / "graph.forward.json").read_text())
        cfg["model"] = "bad.model.json"
        cfg["out"] = str(tmp_path / "datum.json")
        (tmp_path / "bad.forward.json").write_text(json.dumps(cfg))
        proc = run_cli(tmp_path, "forward", "bad.forward.json")
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith(
            "forward: bad datum: disk radius must be finite and positive")
        assert not (tmp_path / "datum.json").exists()

    @pytest.mark.parametrize("key, value, message", [
        ("families", 5, "families must be a list of lists"),
        ("families", [5], "families must be a list of lists"),
        ("prescriptions", 5, "prescriptions must be a list of objects"),
        ("prescriptions", [5], "prescriptions must be a list of objects"),
        ("boundary_values", 5, "boundary_values must be a list of lists")],
        ids=["families-int", "family-int", "prescriptions-int",
             "prescription-int", "boundary-values-int"])
    def test_malformed_forward_config_exits_2(self, workdir, tmp_path, key,
                                              value, message):
        # each of these ended in a traceback (exit 1) before the layout check
        cfg = json.loads((workdir / "charged4.forward.json").read_text())
        cfg["model"] = str(workdir / cfg["model"])
        cfg["out"] = str(tmp_path / "datum.json")
        cfg[key] = value
        (tmp_path / "bad.forward.json").write_text(json.dumps(cfg))
        proc = run_cli(tmp_path, "forward", "bad.forward.json")
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith(f"forward: bad config: {message}")
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "datum.json").exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc.update(windows=5), "malformed curve file: "),
        (lambda doc: doc.update(permutations=5), "malformed curve file: "),
        (lambda doc: doc["windows"][0].update(p=3),
         "malformed fiber window: cannot reshape"),
        (lambda doc: doc["windows"][0].update(grid_shape=5),
         "malformed fiber window: "),
        (lambda doc: doc["windows"][0]["grid"].pop(),
         "malformed fiber window: cannot reshape"),
        (lambda doc: doc["windows"][0].pop("roots"),
         "malformed fiber window: 'roots'"),
        (lambda doc: doc["windows"][0].update(p=-1),
         "malformed fiber window: bad sizes grid_shape [9, 9], p -1"),
        (lambda doc: doc["windows"][0].update(radius="abc"),
         "malformed fiber window: could not convert")],
        ids=["windows-int", "permutations-int", "p-misfit", "grid-shape-int",
             "grid-short", "no-roots", "p-negative", "radius-string"])
    def test_malformed_curve_file_exits_2(self, charged_outputs, tmp_path,
                                          edit, message):
        # the fiber windows that invert writes and residues reads
        doc = json.loads((charged_outputs / "charged4.curve.json").read_text())
        edit(doc)
        proc = _run_on_edited(charged_outputs, tmp_path, "residues", "curve",
                              doc)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith(f"residues: bad datum: {message}")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("text", ["[]", "3", '"x"', "null"])
    def test_config_not_an_object_exits_2(self, tmp_path, text):
        (tmp_path / "cmd.json").write_text(text)
        proc = run_cli(tmp_path, "invert", "cmd.json")
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("invert: bad config: ")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("command, key, found", [
        ("invert", "datum", "nodal-idn/datum/9"),
        ("residues", "datum", "nodal-idn/datum/9"),
        ("characterize", "datum", "nodal-idn/datum/9"),
        ("residues", "curve", "nodal-idn/curve/9"),
        ("forward", "model", "nodal-idn/model/9"),
        ("invert", "datum", None)])
    def test_wrong_schema_exits_2(self, charged_outputs, tmp_path, command,
                                  key, found):
        # found None: the input file is a JSON list, not an object
        cfg = json.loads(
            (charged_outputs / f"charged4.{command}.json").read_text())
        for name in ("datum", "curve", "model"):
            if name in cfg:
                cfg[name] = str(charged_outputs / cfg[name])
        doc = json.loads(pathlib.Path(cfg[key]).read_text())
        wrong = dict(doc, schema=found) if found else []
        (tmp_path / "wrong.json").write_text(json.dumps(wrong))
        cfg[key] = "wrong.json"
        cfg["out"] = str(tmp_path / "out.json")
        (tmp_path / "cmd.json").write_text(json.dumps(cfg))
        proc = run_cli(tmp_path, command, "cmd.json")
        assert proc.returncode == 2, proc.stderr
        assert (f"{command}: bad datum: expected schema {doc['schema']!r}, "
                f"found {found!r}") in proc.stderr

    def test_node_pole_without_family_exits_2(self, workdir, tmp_path):
        # charged4's prescriptions have poles at the node points +-1
        cfg = json.loads((workdir / "charged4.forward.json").read_text())
        cfg["model"] = str(workdir / cfg["model"])
        del cfg["families"]
        (tmp_path / "nofam.forward.json").write_text(json.dumps(cfg))
        proc = run_cli(tmp_path, "forward", "nofam.forward.json")
        assert proc.returncode == 2, proc.stderr
        assert "no admissible family" in proc.stderr

    @pytest.mark.parametrize("config", ["charged4.forward.json",
                                        "charged4_physical.forward.json"])
    def test_fewer_than_three_families_exits_2(self, workdir, tmp_path,
                                               config):
        cfg = json.loads((workdir / config).read_text())
        cfg["model"] = str(workdir / cfg["model"])
        cfg["families"] = cfg["families"][:2]
        (tmp_path / "twofam.forward.json").write_text(json.dumps(cfg))
        proc = run_cli(tmp_path, "forward", "twofam.forward.json")
        assert proc.returncode == 2, proc.stderr
        assert "one admissible family per potential" in proc.stderr

    @pytest.mark.parametrize("config, key, edit", [
        ("graph.forward.json", "boundary_values", lambda rows: rows[:2]),
        ("charged4_physical.forward.json", "boundary_values",
         lambda rows: rows[:2]),
        ("graph.forward.json", "prescriptions", lambda rows: rows[:2]),
        ("graph.forward.json", "boundary_values",
         lambda rows: [rows[0][:-2]] + rows[1:]),
        ("charged4_physical.forward.json", "boundary_values",
         lambda rows: None),
    ])
    def test_forward_row_counts_exit_2(self, workdir, tmp_path, config, key,
                                       edit):
        cfg = json.loads((workdir / config).read_text())
        cfg["model"] = str(workdir / cfg["model"])
        cfg["out"] = str(tmp_path / "datum.json")
        cfg[key] = edit(cfg[key])
        (tmp_path / "rows.forward.json").write_text(json.dumps(cfg))
        proc = run_cli(tmp_path, "forward", "rows.forward.json")
        assert proc.returncode == 2, proc.stderr
        assert "expected 3" in proc.stderr
        assert not (tmp_path / "datum.json").exists()

    @pytest.mark.parametrize("entry", [[1.0], ["a", "b"], None,
                                       [1.0, 0.0, 5.0]])
    def test_malformed_complex_entry_exits_2(self, workdir, tmp_path, entry):
        model = json.loads((workdir / "graph.model.json").read_text())
        model["boundary"]["positions"][3] = entry
        (tmp_path / "bad.model.json").write_text(json.dumps(model))
        cfg = json.loads((workdir / "graph.forward.json").read_text())
        cfg["model"] = "bad.model.json"
        cfg["out"] = str(tmp_path / "datum.json")
        (tmp_path / "bad.forward.json").write_text(json.dumps(cfg))
        proc = run_cli(tmp_path, "forward", "bad.forward.json")
        assert proc.returncode == 2, proc.stderr
        assert "not a complex number" in proc.stderr
        assert not (tmp_path / "datum.json").exists()

    def test_window_max_order_exits_2(self, charged_outputs, tmp_path):
        # the plan's moment-order cap is gone; below the sheet count it
        # used to end invert with a ValueError
        cfg = json.loads((charged_outputs / "charged4.invert.json").read_text())
        cfg["datum"] = str(charged_outputs / cfg["datum"])
        cfg["out"] = str(tmp_path / "curve.json")
        cfg["windows"]["max_order"] = 3
        (tmp_path / "capped.invert.json").write_text(json.dumps(cfg))
        proc = run_cli(tmp_path, "invert", "capped.invert.json")
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("invert: bad config: ")
        assert "max_order" in proc.stderr

    @pytest.mark.parametrize("config, edit, named", [
        ("charged4.invert.json",
         lambda cfg: cfg["windows"].update(radius="abc"), "windows radius"),
        ("charged4.invert.json",
         lambda cfg: cfg["windows"].pop("radius"), "windows radius"),
        ("charged4.invert.json",
         lambda cfg: cfg["windows"].update(radius=-0.1), "windows radius"),
        ("charged4.invert.json",
         lambda cfg: cfg["windows"].update(radius=BIG), "windows radius"),
        ("charged4.invert.json",
         lambda cfg: cfg["windows"].update(grid_n=2.5), "windows grid_n"),
        ("charged4.invert.json",
         lambda cfg: cfg["windows"].update(grid_n=1), "windows grid_n"),
        ("charged4.invert.json",
         lambda cfg: cfg["windows"].update(centers=[]), "windows centers"),
        ("compact.json", lambda cfg: cfg.update(rho="abc"), "rho"),
        ("compact.json", lambda cfg: cfg.pop("charges"), "charges"),
        ("compact.json", lambda cfg: cfg.update(n="512"), "n must"),
        ("compact.json", lambda cfg: cfg["poles"].pop(), "poles"),
        ("compact.json", lambda cfg: cfg["poles"][0].pop(), "poles"),
        ("compact.json", lambda cfg: cfg.update(aux=[[[2.5]], [], []]), "aux"),
    ])
    def test_bad_config_value_exits_2(self, charged_outputs, tmp_path, config,
                                      edit, named):
        cfg = json.loads((charged_outputs / config).read_text())
        if "datum" in cfg:
            cfg["datum"] = str(charged_outputs / cfg["datum"])
        cfg["out"] = str(tmp_path / "out")
        edit(cfg)
        (tmp_path / config).write_text(json.dumps(cfg))
        proc = run_cli(tmp_path, cfg["command"], config)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith(f"{cfg['command']}: bad config: ")
        assert named in proc.stderr
        assert not list(tmp_path.glob("out*"))

    @staticmethod
    def _characterize_with(charged_outputs, tmp_path, thresholds):
        cfg = json.loads(
            (charged_outputs / "charged4.characterize.json").read_text())
        cfg["datum"] = str(charged_outputs / cfg["datum"])
        cfg["out"] = str(tmp_path / "caract.json")
        cfg["thresholds"] = thresholds
        (tmp_path / "limits.characterize.json").write_text(json.dumps(cfg))
        return run_cli(tmp_path, "characterize", "limits.characterize.json")

    @pytest.mark.parametrize("thresholds, named", [
        (5, "thresholds"), ([1, 2], "thresholds"),
        ({"shock": "abc"}, "'shock'"), ({"shok": 1e-30}, "'shok'"),
        ({"flat": 1e-5}, "'flat'")])
    def test_malformed_thresholds_exit_2(self, charged_outputs, tmp_path,
                                         thresholds, named):
        proc = self._characterize_with(charged_outputs, tmp_path, thresholds)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("characterize: bad config: ")
        assert named in proc.stderr
        assert not (tmp_path / "caract.json").exists()

    @pytest.mark.parametrize("edit, named", [
        (lambda cfg: cfg.pop("window"), "window"),
        (lambda cfg: cfg["window"].update(center=5), "window center"),
        (lambda cfg: cfg["window"].update(center=[[0.1, 0.0], "x"]),
         "window center"),
        (lambda cfg: cfg["window"].update(extent="abc"), "window extent"),
        (lambda cfg: cfg.update(probes="20"), "probes"),
        (lambda cfg: cfg.update(probes=0), "probes"),
        (lambda cfg: cfg.update(seed="7"), "seed"),
        (lambda cfg: cfg.update(datum=None), "datum"),
        (lambda cfg: cfg.update(candidates=5), "candidates"),
        (lambda cfg: cfg["candidates"].pop("charges"), "candidates"),
        (lambda cfg: cfg["candidates"]["charges"].pop(), "3 rows of 2"),
        (lambda cfg: cfg["candidates"]["charges"][1].pop(), "3 rows of 2"),
        (lambda cfg: cfg["candidates"].update(points=None), "candidates"),
    ])
    def test_malformed_characterize_config_exits_2(self, charged_outputs,
                                                   tmp_path, edit, named):
        cfg = json.loads(
            (charged_outputs / "charged4.characterize.json").read_text())
        cfg["datum"] = str(charged_outputs / cfg["datum"])
        cfg["out"] = str(tmp_path / "caract.json")
        edit(cfg)
        (tmp_path / "bad.characterize.json").write_text(json.dumps(cfg))
        proc = run_cli(tmp_path, "characterize", "bad.characterize.json")
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("characterize: bad config: ")
        assert named in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "caract.json").exists()

    @pytest.mark.parametrize("radius", ["0.05", 0, -1.0, None, [0.05]])
    def test_malformed_contour_radius_exits_2(self, charged_outputs, tmp_path,
                                              radius):
        cfg = json.loads((charged_outputs / "charged4.residues.json").read_text())
        cfg["contour_radius"] = radius
        for key in ("datum", "curve"):
            cfg[key] = str(charged_outputs / cfg[key])
        cfg["out"] = str(tmp_path / "nodes.json")
        (tmp_path / "bad.residues.json").write_text(json.dumps(cfg))
        proc = run_cli(tmp_path, "residues", "bad.residues.json")
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("residues: bad config: contour_radius")
        assert not (tmp_path / "nodes.json").exists()

    def test_thresholds_object_is_read(self, charged_outputs, tmp_path):
        limits = {"shock": 1e-4, "green": 1e-5}
        proc = self._characterize_with(charged_outputs, tmp_path, limits)
        assert proc.returncode == 0, proc.stderr
        doc = json.loads((tmp_path / "caract.json").read_text())
        assert doc["thresholds"] == limits

    @staticmethod
    def _run_on_bad_curve(graph_outputs, tmp_path, command, sample):
        datum = json.loads((graph_outputs / "graph.datum.json").read_text())
        positions = datum["curve"]["positions"]
        positions[5] = sample(positions)
        (tmp_path / "graph.datum.json").write_text(json.dumps(datum))
        cfg = json.loads((graph_outputs / f"graph.{command}.json").read_text())
        cfg["out"] = str(tmp_path / "out.json")
        (tmp_path / "cmd.json").write_text(json.dumps(cfg))
        proc = run_cli(tmp_path, command, "cmd.json")
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        return proc

    @pytest.mark.parametrize("command", ["invert", "characterize"])
    def test_malformed_curve_exits_2(self, graph_outputs, tmp_path, command):
        proc = self._run_on_bad_curve(graph_outputs, tmp_path, command,
                                      lambda positions: positions[100])
        assert "not pairwise distinct" in proc.stderr

    @pytest.mark.parametrize("command", ["invert", "characterize"])
    def test_non_finite_curve_exits_2(self, graph_outputs, tmp_path, command):
        proc = self._run_on_bad_curve(graph_outputs, tmp_path, command,
                                      lambda positions: [float("nan"), 0.0])
        assert "curve samples must be finite" in proc.stderr

    def test_compact_rejects_interior_pole(self, workdir):
        proc = run_cli(workdir, "compact", "compact_nocharge.json")
        assert proc.returncode == 2, proc.stderr
        assert "not inside the measurement subdomain" in proc.stderr

    @staticmethod
    def _run_windows(outputs, tmp_path, config, edit):
        cfg = json.loads((outputs / config).read_text())
        if "datum" in cfg:
            cfg["datum"] = str(outputs / cfg["datum"])
        cfg["out"] = str(tmp_path / "out")
        edit(cfg["windows"])
        (tmp_path / config).write_text(json.dumps(cfg))
        return run_cli(tmp_path, cfg["command"], config)

    def test_window_centred_on_the_curve_fails_alone(self, graph_outputs,
                                                     tmp_path):
        # f2(gamma) is the unit circle: the batch falls back to the direct
        # sum, which refuses the window; this ended in an OverflowError
        # traceback from truncation_order (exit 1)
        proc = self._run_windows(graph_outputs, tmp_path, "graph.invert.json",
                                 lambda w: w["centers"].__setitem__(0, [-1.0, 0.0]))
        assert proc.returncode == 0, proc.stderr
        report = (tmp_path / "out.report.txt").read_text()
        assert "window at -1+0j failed: on-curve evaluation" in report

    @pytest.mark.parametrize("config", ["graph.invert.json", "compact.json"])
    def test_window_radius_beyond_the_curve_exits_3(self, graph_outputs,
                                                    tmp_path, config):
        # an OverflowError traceback from truncation_order (exit 1) before
        proc = self._run_windows(graph_outputs, tmp_path, config,
                                 lambda w: w.update(radius=2 ** 62))
        assert proc.returncode == 3, proc.stderr
        assert "more than half of the windows failed" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("config, edit, named", [
        ("charged4.invert.json",
         lambda cfg: cfg["windows"].update(grid_n=10 ** 19), "windows grid_n"),
        ("compact.json", lambda cfg: cfg.update(n=10 ** 19), "n must"),
        ("charged4.characterize.json", lambda cfg: cfg.update(probes=2 ** 62),
         "probes"),
        ("charged4.invert.json",
         lambda cfg: cfg["windows"]["centers"][0].__setitem__(0, float("nan")),
         "windows centers must be a list of one or more finite"),
        ("charged4.characterize.json",
         lambda cfg: cfg["window"]["center"][1].__setitem__(1, float("inf")),
         "window center must be a list of 2 finite"),
        ("compact.json",
         lambda cfg: cfg["charges"][2].__setitem__(0, float("inf")),
         "charges must be a list of 3 finite")],
        ids=["grid_n", "compact-n", "probes", "centre-nan", "window-inf",
             "charge-inf"])
    def test_config_value_beyond_its_bound_exits_2(self, charged_outputs,
                                                   tmp_path, config, edit,
                                                   named):
        # integers that size arrays exited 1 with "Maximum allowed size
        # exceeded"; non-finite centres and charges ran the engine
        cfg = json.loads((charged_outputs / config).read_text())
        if "datum" in cfg:
            cfg["datum"] = str(charged_outputs / cfg["datum"])
        cfg["out"] = str(tmp_path / "out")
        edit(cfg)
        (tmp_path / config).write_text(json.dumps(cfg))
        proc = run_cli(tmp_path, cfg["command"], config)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith(f"{cfg['command']}: bad config: {named}")
        assert not list(tmp_path.glob("out*"))

    @pytest.mark.parametrize("entry, message", [
        (10 ** 19, "permutations entry must be an integer in [0, 3]"),
        (float("inf"), "permutations entry must be an integer in [0, 3]"),
        (4, "permutations entry must be an integer in [0, 3]"),
        (None, "malformed curve file: a permutations entry repeats a sheet")],
        ids=["beyond-int64", "infinity", "beyond-p", "repeat"])
    def test_bad_permutations_entry_exits_2(self, charged_outputs, tmp_path,
                                            entry, message):
        # 10**19 and Infinity ended in an OverflowError traceback (exit 1)
        doc = json.loads((charged_outputs / "charged4.curve.json").read_text())
        sigma = doc["permutations"][0]
        sigma[1] = sigma[0] if entry is None else entry
        proc = _run_on_edited(charged_outputs, tmp_path, "residues", "curve",
                              doc)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith(f"residues: bad datum: {message}")

    def test_prescribed_forms_off_the_fft_circle_exit_2(self, workdir,
                                                        tmp_path):
        # the prescriptions path checked the circle only on its physical twin
        model = json.loads((workdir / "graph.model.json").read_text())
        model["domain"]["radius"] = 2.0
        (tmp_path / "wide.model.json").write_text(json.dumps(model))
        cfg = json.loads((workdir / "graph.forward.json").read_text())
        cfg["model"] = "wide.model.json"
        cfg["out"] = str(tmp_path / "datum.json")
        (tmp_path / "wide.forward.json").write_text(json.dumps(cfg))
        proc = run_cli(tmp_path, "forward", "wide.forward.json")
        assert proc.returncode == 2, proc.stderr
        assert "FFT circle" in proc.stderr
        assert not (tmp_path / "datum.json").exists()

    def test_prescribed_form_not_finite_exits_2(self, workdir, tmp_path):
        # its theta samples warned "invalid value" before hypothesis A
        # refused them
        cfg = json.loads((workdir / "graph.forward.json").read_text())
        cfg["model"] = str(workdir / cfg["model"])
        cfg["out"] = str(tmp_path / "datum.json")
        cfg["prescriptions"][1]["poly"][1] = [float("inf"), 0.0]
        (tmp_path / "inf.forward.json").write_text(json.dumps(cfg))
        proc = run_cli(tmp_path, "forward", "inf.forward.json")
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == ("forward: bad datum: prescription coefficients "
                               "must be finite\n")


def _oracle_forms(cfg):
    """The compact scenario's forms w_0, w_1, w_2 as oracle functions, read
    off the config: charge c at the second pole of each pair, -c at the
    first, and the auxiliary poles after them."""
    from reference.oracles import RationalFunction
    forms = []
    for ell, (c, pair) in enumerate(zip(cfg["charges"], cfg["poles"])):
        c = complex(*c)
        aux = (cfg.get("aux") or [[], [], []])[ell]
        forms.append(RationalFunction(
            poles=(complex(*pair[1]), complex(*pair[0]))
            + tuple(complex(*p) for p, _ in aux),
            residues=(c, -c) + tuple(complex(*k) for _, k in aux)))
    return forms


def _oracle_fiber(forms, xi):
    """h = w_1/w_0 at the points of the unit disk where w_2 = xi w_0."""
    import numpy as np
    from nodal_idn.oracles import polynomial_roots
    from reference.oracles import RationalFunction
    w0, w1, w2 = forms
    comb = RationalFunction(
        poles=w2.poles + w0.poles,
        residues=w2.residues + tuple(-xi * r for r in w0.residues))
    roots = polynomial_roots(comb.numerator_of_shift(0.0))
    roots = roots[np.abs(roots) < 1.0]
    return w1(roots) / w0(roots)


@pytest.mark.parametrize("command,config", [
    ("forward", "charged4.forward.json"), ("invert", "charged4.invert.json"),
    ("residues", "charged4.residues.json"),
    ("characterize", "charged4.characterize.json"),
    ("compact", "compact.json")])
def test_no_command_imports_numpy_ma(charged_outputs, tmp_path, command,
                                     config):
    # numpy.ma costs some 13 ms and 0.5 MB in each process that loads it
    proc = run_cli(charged_outputs, command, config,
                   out=str(tmp_path / "out"), modules=True)
    assert proc.returncode == 0, proc.stderr
    assert "numpy.ma" not in proc.stdout.splitlines()[-1].split()


class TestCompact:
    def test_compact_reconstruction(self, compact_outputs):
        report = json.loads((compact_outputs / "cmp.report.json").read_text())
        assert report["sheet_counts"] == [2] * report["windows"]
        assert report["recovered_nodes"] == 0
        curve = json.loads((compact_outputs / "cmp.curve.json").read_text())
        assert len(curve["windows"]) == report["windows"]

    def test_compact_matches_rational_oracle(self, compact_outputs):
        import numpy as np
        from nodal_idn import jsonio
        from nodal_idn.moments import ReconstructedCurve
        curve = ReconstructedCurve.from_json(
            jsonio.load(compact_outputs / "cmp.curve.json"))
        forms = _oracle_forms(json.loads(
            (compact_outputs / "compact.json").read_text()))
        errs = []
        for window in curve.windows:
            for idx in range(0, window.grid.size, 16):
                for val in _oracle_fiber(forms, complex(window.grid[idx])):
                    errs.append(np.min(np.abs(window.roots[idx] - val)))
        assert max(errs) < 1e-6

    def test_auxiliary_pole_perturbations(self):
        # zero-sum (p, kappa) perturbations flow through the datum and the
        # reconstruction still matches the augmented rational oracle
        import numpy as np
        from nodal_idn.cli import PipelineConfig, _compact_potentials
        from nodal_idn.dirichlet import (IMMERSION_FLOOR, INJECTIVITY_GAP,
                                         build_dn_datum)
        from nodal_idn.moments import MomentEngine, sweep_windows
        from reference.scenarios import ring_plan
        cfg = {
            "rho": 1.0, "n": 512,
            "charges": [[1.0, 0.0], [1.3, 0.0], [0.8, 0.0]],
            "poles": [[[-1.8, 0.0], [1.6, 0.4]],
                      [[2.0, -0.5], [-0.3, 1.9]],
                      [[-1.4, -1.3], [1.5, 1.5]]],
            "aux": [[[[2.4, 0.6], [0.1, 0.0]], [[-2.0, -1.2], [-0.1, 0.0]]],
                    [[[1.9, -1.5], [0.0, 0.08]], [[-1.7, 1.8], [0.0, -0.08]]],
                    []],
        }
        model, us, prescriptions = _compact_potentials(
            PipelineConfig(cfg, None, ""))
        datum = build_dn_datum(model, None, boundary_values=us,
                               prescriptions=prescriptions)
        assert datum.hypothesis_a["min_image_gap"] > INJECTIVITY_GAP
        assert datum.hypothesis_a["min_speed"] > IMMERSION_FLOOR
        forms = _oracle_forms(cfg)
        plan = ring_plan(0.5146 - 0.3672j, 0.03, 4, 0.02)
        rec = sweep_windows(MomentEngine.from_datum(datum), plan)
        assert [w.p for w in rec.windows] == [2, 2, 2, 2]
        errs = []
        for win in rec.windows:
            for idx in range(0, win.grid.size, 20):
                for h in _oracle_fiber(forms, complex(win.grid[idx])):
                    errs.append(float(np.min(np.abs(win.roots[idx] - h))))
        assert max(errs) < 1e-6

    def test_complex_charges_consistent(self):
        # boundary samples must be the trace of the harmonic function whose
        # dz part is the prescribed form, including complex charges and
        # complex auxiliary residues (branch cuts point away from the disk)
        import numpy as np
        from nodal_idn import jsonio
        from nodal_idn.cli import PipelineConfig, _compact_potentials
        from nodal_idn.greens import DiskHarmonicSolver
        from nodal_idn.model import DiskDomain
        cfg = {
            "rho": 1.0, "n": 512,
            "charges": [jsonio.encode_complex(1.0 + 0.7j),
                        jsonio.encode_complex(1.3 - 0.2j),
                        jsonio.encode_complex(0.8)],
            "poles": [[[-1.8, 0.0], [1.6, 0.4]],
                      [[2.0, -0.5], [-0.3, 1.9]],
                      [[-1.4, -1.3], [1.5, 1.5]]],
            "aux": [[[jsonio.encode_complex(2.5 + 0.5j),
                      jsonio.encode_complex(0.3j)],
                     [jsonio.encode_complex(-2.2 + 1.0j),
                      jsonio.encode_complex(-0.3j)]], [], []],
        }
        model, us, prescriptions = _compact_potentials(
            PipelineConfig(cfg, None, ""))
        solver = DiskHarmonicSolver(DiskDomain(1.0), 512)
        for ell in range(3):
            ext = solver.extend(np.asarray(us[ell], dtype=complex))
            got = ext.dz(model.boundary.positions)
            want = prescriptions[ell](model.boundary.positions)
            assert np.max(np.abs(got - want)) < 1e-10

    def test_degree_one_single_sheet(self, workdir):
        run_ok(workdir, "compact", "compact_deg1.json", out="cmp1")
        report = json.loads((workdir / "cmp1.report.json").read_text())
        assert report["sheet_counts"] == [1]


class TestDeterminism:
    def test_byte_identical_outputs(self, tmp_path):
        runs = []
        for tag in ("a", "b"):
            d = tmp_path / tag
            d.mkdir()
            for f in SCENARIOS.glob("*.json"):
                shutil.copy(f, d)
            run_ok(d, "forward", "graph.forward.json")
            run_ok(d, "invert", "graph.invert.json")
            run_ok(d, "residues", "graph.residues.json")
            run_ok(d, "characterize", "graph.characterize.json")
            runs.append(d)
        for name in ("graph.datum.json", "graph.curve.json",
                     "graph.nodes.json", "graph.caract.json",
                     "graph.curve.json.report.txt"):
            assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes()

    def test_byte_identical_node_inventory(self, tmp_path):
        # charged4 has a node, so residues tracks contours and energy rings
        runs = []
        for tag in ("a", "b"):
            d = tmp_path / tag
            d.mkdir()
            for f in SCENARIOS.glob("charged4*.json"):
                shutil.copy(f, d)
            for command in ("forward", "invert", "residues"):
                run_ok(d, command, f"charged4.{command}.json")
            runs.append(d)
        a, b = ((d / "charged4.nodes.json").read_bytes() for d in runs)
        assert json.loads(a)["nodes"]
        assert a == b
