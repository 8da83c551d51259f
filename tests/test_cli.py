import argparse
import ast
import dataclasses
import gc
import json
import random
import re
from pathlib import Path

import pytest
from hypothesis import given
import hypothesis.strategies as st

import ruledmoduli
from conftest import random_chern, random_polarization
from ruledmoduli import (ChernData, ExtensionDatum, Polarization, SearchBoundsError, SurfaceConfig, WallClass,
                         c1f1_report, certify_dv_zero, is_suitable, wall_search)
from ruledmoduli import walls
from ruledmoduli.cli import (COMMANDS, _DIVISOR_DOC, _WALL_DOC, UsageError, _JSONText, _c1f1, _canonical, _certify_dv0,
                             _parse, _schema, _stability, _suitable, _wall_json, _wall_writer, _walls, build_parser,
                             run)
from ruledmoduli.errors import IntegerOverflowError

CONFIG_00 = '{"genus":0,"e":0,"points":0}'
CONFIG_G2 = '{"genus":2,"e":1,"points":0}'
FIBER = '{"a":0,"b":1,"exc":[]}'


def invoke(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def result_of(capsys, argv):
    code, out, _ = invoke(capsys, argv)
    assert code == 0, out
    doc = json.loads(out)
    assert doc["status"] == "ok"
    return doc


class TestHappyPaths:
    def test_family_dim_example(self, capsys):
        doc = result_of(capsys, ["family-dim", "example", "--n", "3"])
        assert doc["result"] == {"dim": 21, "ext1": 12, "h0VD": 3}

    def test_rr_of_trivial_class(self, capsys):
        doc = result_of(
            capsys, ["rr", "--config", CONFIG_G2, "--divisor", '{"a":0,"b":0,"exc":[]}']
        )
        assert doc["result"] == {"chi": -1}

    def test_walls_fixture(self, capsys):
        doc = result_of(
            capsys,
            ["walls", "--config", CONFIG_00, "--c1", FIBER, "--c2", "2",
             "--polarization", '{"a":3,"b":1,"exc":[]}'],
        )
        assert doc["result"]["walls"] == [
            {"zeta": {"a": 2, "b": -1, "exc": []}, "zeta_sq": -4, "ell": 1, "zF": 2, "zL": -1}
        ]
        assert doc["result"]["boundary"] == []

    def test_intersect(self, capsys):
        doc = result_of(
            capsys,
            ["intersect", "--config", '{"genus":0,"e":1,"points":2}',
             "--d1", '{"a":1,"b":-10,"exc":[-1,-1]}',
             "--d2", '{"a":1,"b":-10,"exc":[-1,-1]}'],
        )
        assert doc["result"] == {"value": -23}

    def test_canonical(self, capsys):
        doc = result_of(
            capsys, ["canonical", "--config", '{"genus":1,"e":1,"points":1}']
        )
        assert doc["result"] == {"divisor": {"a": -2, "b": -1, "exc": [1]}}

    def test_twist(self, capsys):
        doc = result_of(
            capsys,
            ["twist", "--config", '{"genus":0,"e":0,"points":1}',
             "--c1", '{"a":0,"b":1,"exc":[1]}', "--c2", "4",
             "--t", '{"a":0,"b":0,"exc":[1]}'],
        )
        assert doc["result"] == {
            "c1": {"a": 0, "b": 1, "exc": [3]}, "c2": 2, "discriminant": 17
        }

    def test_twist_whose_doubled_class_leaves_the_range(self, capsys):
        # 2T = 2^63 F is out of range, but c1 + 2T = 2^62 F is not
        doc = result_of(
            capsys,
            ["twist", "--config", '{"genus":0,"e":1,"points":0}',
             "--c1", '{"a":0,"b":-4611686018427387904,"exc":[]}', "--c2", "0",
             "--t", '{"a":0,"b":4611686018427387904,"exc":[]}'],
        )
        assert doc["result"]["c1"] == {"a": 0, "b": 2**62, "exc": []}
        assert doc["result"]["c2"] == 0

    def test_invariants(self, capsys):
        datum = json.dumps(
            {"d": 1, "r": -3, "q": [0], "c1": {"a": 1, "b": 0, "exc": [1]}, "c2": 3}
        )
        doc = result_of(
            capsys,
            ["invariants", "--config", '{"genus":0,"e":1,"points":1}', "--datum", datum],
        )
        assert doc["result"]["zeta"] == {"a": 1, "b": -6, "exc": [-1]}
        assert doc["result"]["length"] == 0
        assert doc["result"]["unique"] is True
        assert doc["result"]["r0"] is None

    def test_suitable(self, capsys):
        doc = result_of(
            capsys,
            ["suitable", "--config", CONFIG_00, "--c1", FIBER, "--c2", "2",
             "--polarization", '{"a":1,"b":3,"exc":[]}'],
        )
        assert doc["result"]["suitable"] is True

    def test_certify_dv0(self, capsys):
        doc = result_of(
            capsys,
            ["certify-dv0", "--config", CONFIG_00, "--c1", FIBER, "--c2", "2",
             "--polarization", '{"a":1,"b":3,"exc":[]}'],
        )
        assert doc["result"] == {"certified": True, "d": 0, "witness": None}

    def test_moduli_dim(self, capsys):
        doc = result_of(
            capsys,
            ["moduli-dim", "--config", CONFIG_00,
             "--c1", '{"a":0,"b":0,"exc":[]}', "--c2", "0"],
        )
        assert doc["result"] == {"dim": -3}

    def test_classify(self, capsys):
        doc = result_of(
            capsys,
            ["classify", "--config", '{"genus":0,"e":0,"points":1}',
             "--c1", '{"a":0,"b":1,"exc":[1]}', "--c2", "7"],
        )
        assert doc["result"]["kind"] == "even_fiber_genus_zero"
        assert doc["result"]["rationality"] == "stably_rational"
        assert doc["result"]["hilbert_exponent"] == 7

    def test_family_dim_maximize(self, capsys):
        doc = result_of(
            capsys,
            ["family-dim", "maximize", "--g", "0", "--eta", "1", "--m", "0",
             "--n", "3", "--eps", "0"],
        )
        assert doc["result"] == {"r1": -2, "ell": [], "h0": 1, "value": 20}

    def test_family_dim_c1f0_flags_excess(self, capsys):
        doc = result_of(
            capsys,
            ["family-dim", "c1f0", "--g", "0", "--eta", "0", "--m", "1",
             "--n", "3", "--eps", "0", "--r1", "-3", "--ell", "[0]", "--h0", "1"],
        )
        assert doc["result"]["family_dim"] == 23
        assert doc["result"]["moduli_dim"] == 22
        assert doc["result"]["dominance"] == "exceeds"
        assert doc["assumptions"] == doc["result"]["assumptions"]
        assert len(doc["assumptions"]) == 2
        assert all(set(a) == {"a", "b", "exc"} for a in doc["assumptions"])
        assert any("exceeds" in w for w in doc["warnings"])

    def test_family_dim_c1f1(self, capsys):
        doc = result_of(
            capsys,
            ["family-dim", "c1f1", "--g", "1", "--e", "2", "--beta", "1",
             "--rho", "3", "--c2", "5"],
        )
        assert doc["result"]["family_dim"] == doc["result"]["moduli_dim"] == 24
        assert doc["result"]["ext1"] == 23
        assert doc["result"]["dominance"] == "equal"

    def test_stability(self, capsys):
        doc = result_of(
            capsys,
            ["stability", "--config", '{"genus":0,"e":1,"points":0}',
             "--sub", '{"a":0,"b":-3,"exc":[]}', "--quot", '{"a":0,"b":4,"exc":[]}',
             "--ell", "6", "--polarization", '{"a":1,"b":100,"exc":[]}',
             "--box-a", "10", "--box-b", "10", "--box-exc", "10"],
        )
        assert doc["result"]["verdict"] == "stable_certified"
        assert doc["result"]["box"] == {"a": 10, "b": 10, "exc": 10}

    def test_schema(self, capsys):
        code, out, _ = invoke(capsys, ["--schema", "walls"])
        assert code == 0
        assert json.loads(out)["subcommand"] == "walls"

    def test_schema_agrees_with_the_parser(self, capsys):
        """Every subcommand and family-dim variant documents exactly the flags
        argparse accepts, each marked required as argparse has it, and no
        parser accepts an abbreviation of a flag."""

        def subparsers(parser):
            action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
            return action.choices

        commands = []
        top = build_parser()
        assert not top.allow_abbrev
        for name, parser in subparsers(top).items():
            assert not parser.allow_abbrev, name
            code, out, _ = invoke(capsys, ["--schema", name])
            assert code == 0
            schema = json.loads(out)["schema"]
            if "variants" in schema:
                variants = subparsers(parser)
                assert set(variants) == set(schema["variants"])
                commands += [(f"{name} {v}", variants[v], schema["variants"][v]) for v in variants]
            else:
                commands.append((name, parser, schema))
        assert len(commands) == 15
        for name, parser, schema in commands:
            assert not parser.allow_abbrev, name
            documented = {flag: doc["required"] for flag, doc in schema["flags"].items()}
            required = {
                action.option_strings[0]: action.required
                for action in parser._actions
                if action.option_strings and action.dest != "help"
            }
            assert documented == required, name

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        code, out, _ = invoke(
            capsys, ["--output", str(path), "family-dim", "example", "--n", "1"]
        )
        assert code == 0 and out == ""
        assert json.loads(path.read_text())["result"] == {"dim": 5, "ext1": 4, "h0VD": 3}

    def test_help(self, capsys):
        # only the prefix: argparse wraps the rest to the terminal width
        for argv in (["--help"], ["rr", "--help"]):
            code, out, err = invoke(capsys, argv)
            assert code == 0 and err == ""
            assert out.startswith("usage: ruledmoduli")


class TestDeterminism:
    def test_byte_identical_reruns(self, capsys):
        argv = ["walls", "--config", CONFIG_00, "--c1", FIBER, "--c2", "2",
                "--polarization", '{"a":3,"b":1,"exc":[]}']
        _, first, _ = invoke(capsys, argv)
        _, second, _ = invoke(capsys, argv)
        assert first == second
        assert first.endswith("\n")

    def test_envelope_shape(self, capsys):
        doc = result_of(capsys, ["family-dim", "example", "--n", "2"])
        assert set(doc) == {"status", "result", "assumptions", "warnings"}


ANCHOR = SurfaceConfig(0, 1, 3)
ANCHOR_C1 = ANCHOR.divisor(0, 1, (1, 1, 1))
ANCHOR_L = ANCHOR.divisor(3, 7, (-1, -1, -1))
ANCHOR_ARGV = ["walls", "--config", '{"genus":0,"e":1,"points":3}', "--c1", '{"a":0,"b":1,"exc":[1,1,1]}',
               "--c2", "40", "--polarization", '{"a":3,"b":7,"exc":[-1,-1,-1]}']
GOLDEN_DOCS = [json.loads(case["stdout"]) for case in json.loads(
    (Path(__file__).with_name("cli_golden.json")).read_text(encoding="utf-8")) if case["stdout"]]


def dumps(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def assert_same_text(got: str, want: str) -> None:
    """got == want, reported at the first difference: a full diff of a large
    document would take pytest minutes."""
    if got != want:
        at = next((i for i, (x, y) in enumerate(zip(got, want)) if x != y), min(len(got), len(want)))
        pytest.fail(f"texts differ at {at} of {len(got)}/{len(want)}: {got[at - 60:at + 60]!r} "
                    f"!= {want[at - 60:at + 60]!r}")


def dict_encoding(value):
    """The reference encoding: value with each wall as a dict of the shape
    ``_WALL_DOC`` gives, and each tuple as a list."""
    if isinstance(value, dict):
        return {key: dict_encoding(item) for key, item in value.items()}
    if isinstance(value, tuple):
        return [dict_encoding(item) for item in value]
    if isinstance(value, WallClass):
        zeta = value.zeta
        return {"zeta": {"a": zeta.a, "b": zeta.b, "exc": list(zeta.exc)}, "zeta_sq": value.zeta_sq,
                "ell": value.ell, "zF": value.zF, "zL": value.zL}
    return value


# JSON values: strings with quotes, backslashes, control and non-ASCII
# characters, integers up to the ends of the 64-bit range, nested containers
TEXT = st.text(st.one_of(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u00e9\u2028\U0001f600'),
                         st.characters()), max_size=8)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | TEXT | st.integers(-(2**63 - 1), 2**63 - 1)
    | st.sampled_from([2**63 - 1, -(2**63 - 1), 0]),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(TEXT, children, max_size=4),
    max_leaves=24,
)


def small_searches():
    """Seeded wall searches on g <= 2 surfaces, five per blowup count m = 0..3."""
    rng = random.Random(20)
    cases = []
    for m in range(4):
        for _ in range(5):
            genus = rng.randint(0, 2)
            cfg = SurfaceConfig(genus, rng.randint(0 if genus == 0 else -1, 2), m)
            cases.append((cfg, random_chern(rng, cfg, max_c2=12), random_polarization(rng, cfg)))
    return cases


class TestCanonicalWriter:
    """cli writes every document with one canonical writer; the wall handlers
    write their walls as text, the ``walls`` handler straight from the slice
    kernel's runs.  The text is that of the sorted, compact ``json.dumps`` of
    the document with each wall of the library's result as a dict."""

    def test_golden_documents_are_written_again_byte_for_byte(self):
        assert len(GOLDEN_DOCS) >= 37  # every transcript that prints a document
        for doc in GOLDEN_DOCS:
            assert _canonical(doc) == dumps(doc)

    @given(JSON_VALUES)
    def test_json_values_are_written_as_json_dumps_writes_them(self, value):
        assert _canonical(value) == dumps(value)

    def test_anchor_walls_are_written_as_their_dict_encoding(self):
        """The runs writer and the object maker give the same document."""
        search = wall_search(ANCHOR, ChernData(ANCHOR_C1, 40), Polarization(ANCHOR_L))
        assert (len(search.walls), len(search.boundary)) == (9285, 592)
        for wall in search.walls + search.boundary:
            assert _wall_json(wall) == dumps(dict_encoding(wall))
        doc, notes = _walls(ANCHOR, ANCHOR_C1, 40, ANCHOR_L)
        assert notes == []
        want = {"walls": search.walls, "boundary": search.boundary, "excluded_negative_length": 0}
        assert_same_text(_canonical(doc), dumps(dict_encoding(want)))

    def test_small_searches_are_written_as_their_dict_encoding(self):
        written = [0] * 4
        for cfg, chern, pol in small_searches():
            search = wall_search(cfg, chern, pol)
            doc, _ = _walls(cfg, chern.c1, chern.c2, pol.cls)
            want = {"walls": search.walls, "boundary": search.boundary, "excluded_negative_length": 0}
            assert_same_text(_canonical(doc), dumps(dict_encoding(want)))
            written[cfg.num_points] += len(search.walls) + len(search.boundary)
        assert all(written), written  # m = 0, with "exc":[], included

    def test_the_runs_writer_has_the_budget_of_wall_search(self, monkeypatch, capsys):
        """Every wall query reads its budget, walls._BUDGET, when it starts,
        so each fails one unit below its least passing budget and passes at
        it; the CLI's walls walk the runs of wall_search, so they stop at
        its budget."""
        cfg, chern, pol = SurfaceConfig(0, 1, 3), ChernData(ANCHOR_C1, 12), Polarization(ANCHOR_L)
        # wall_search also walks the runs; the decisions count the exc prefixes only
        for query, least in ((wall_search, 482), (is_suitable, 167), (certify_dv_zero, 167)):
            monkeypatch.setattr(walls, "_BUDGET", least - 1)
            with pytest.raises(SearchBoundsError) as raised:
                query(cfg, chern, pol)
            assert raised.value.budget == least - 1
            monkeypatch.setattr(walls, "_BUDGET", least)
            query(cfg, chern, pol)
        argv = [*ANCHOR_ARGV[:6], "12", *ANCHOR_ARGV[7:]]
        monkeypatch.setattr(walls, "_BUDGET", 481)
        with pytest.raises(SearchBoundsError) as raised:
            wall_search(cfg, chern, pol)
        code, out, _ = invoke(capsys, argv)
        assert code == 1
        assert json.loads(out)["error"] == {"type": "SearchBoundsError", "message": str(raised.value)}
        monkeypatch.setattr(walls, "_BUDGET", 482)
        assert result_of(capsys, argv)["result"]["walls"]

    @pytest.mark.parametrize("config,c1,c2,polarization,witness,boundary", [
        (SurfaceConfig(0, 0, 0), (0, 1, ()), 2, (1, 3, ()), False, 0),
        (SurfaceConfig(0, 0, 0), (0, 1, ()), 2, (3, 1, ()), True, 0),
        (SurfaceConfig(0, 0, 0), (0, 1, ()), 2, (2, 1, ()), True, 1),
        (SurfaceConfig(0, 0, 2), (0, 1, (1, 0)), 2, (5, 2, (-3, -3)), True, 6),
    ], ids=["no-wall", "separating", "boundary", "several-a"])
    def test_decision_documents_are_written_as_their_dict_encoding(self, config, c1, c2, polarization,
                                                                   witness, boundary):
        args = (config, config.divisor(*c1), c2, config.divisor(*polarization))
        chern, pol = ChernData(args[1], c2), Polarization(args[3])
        verdict, certificate = is_suitable(config, chern, pol), certify_dv_zero(config, chern, pol)
        assert ((verdict.witness is not None), len(verdict.boundary)) == (witness, boundary)
        wants = {
            _suitable: {"suitable": verdict.suitable, "witness": verdict.witness, "boundary": verdict.boundary},
            _certify_dv0: {"certified": certificate.certified, "d": certificate.d_value,
                           "witness": certificate.separating_wall},
        }
        for handler, want in wants.items():
            doc, _ = handler(*args)
            assert (doc["witness"] is not None) == witness
            assert_same_text(_canonical(doc), dumps(dict_encoding(want)))

    def test_wall_text_has_the_schema_keys(self):
        doc = json.loads(_wall_writer(2, (1, -1, 0))(-1, -8, 1, -3))
        assert doc.keys() == _WALL_DOC.keys()
        assert doc["zeta"].keys() == _DIVISOR_DOC.keys()
        assert doc == {"zeta": {"a": 2, "b": -1, "exc": [1, -1, 0]}, "zeta_sq": -8, "ell": 1, "zF": 2, "zL": -3}

    def test_only_walls_are_written_as_walls(self):
        """Pre-written JSON text is the writer's one special case: it is copied
        as it is, but only as a dict's value, so only a handler puts it in."""
        text = _wall_writer(2, (1, -1))(-1, -8, 1, -3)
        assert _canonical(_JSONText(text)) == text
        assert _canonical({"w": _JSONText(f"[{text}]"), "x": 1}) == f'{{"w":[{text}],"x":1}}'
        assert _canonical(text) == dumps(text)  # a plain str is a JSON string
        assert _canonical([_JSONText(text)]) == dumps([text])
        assert _canonical(()) == "[]"
        wall = wall_search(ANCHOR, ChernData(ANCHOR_C1, 8), Polarization(ANCHOR_L)).walls[0]
        for value in (wall, (wall,), {"w": (wall,)}):  # wall objects are not JSON values
            with pytest.raises(TypeError, match="WallClass is not JSON serializable"):
                _canonical(value)

    @pytest.mark.parametrize("value", [2**63, -(2**63) - 1, [0, [2**64]], {"x": [{"y": (-(2**70),)}]}])
    def test_an_integer_outside_the_range_is_refused(self, value):
        with pytest.raises(IntegerOverflowError, match="exceeds the signed 64-bit range"):
            _canonical({"result": value})
        assert _canonical([2**63 - 1, -(2**63), True]) == dumps([2**63 - 1, -(2**63), True])

    def test_walls_start_few_collections(self, capsys):
        """Written from the slice kernel's runs, the c2 = 40 anchor document
        builds no object or container per wall, so the collector barely runs
        although the CLI path does not pause it (the dict encoding started
        44 collections)."""
        started = []

        def record(phase, info):
            if phase == "start":
                started.append(info["generation"])

        enabled = gc.isenabled()
        try:
            gc.enable()
            gc.collect()  # no collection is due when the call starts
            gc.callbacks.append(record)
            code = run(ANCHOR_ARGV)
        finally:
            if record in gc.callbacks:
                gc.callbacks.remove(record)
            if not enabled:
                gc.disable()
        assert code == 0
        assert len(capsys.readouterr().out) == 781365
        assert len(started) <= 5, started


class TestResultDocuments:
    """The handlers build the result documents; no other module writes JSON."""

    def test_only_the_cli_reads_or_writes_json(self):
        modules = sorted(Path(ruledmoduli.__file__).parent.glob("*.py"))
        assert {"cli.py", "lattice.py", "walls.py"} <= {path.name for path in modules}
        offenders = []
        for path in modules:
            if path.name == "cli.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "to_json":
                    offenders.append(f"{path.name}:{node.lineno} defines to_json")
                imported = [alias.name for alias in node.names] if isinstance(node, ast.Import) else (
                    [node.module] if isinstance(node, ast.ImportFrom) and node.level == 0 else [])
                if any(name.split(".")[0] == "json" for name in imported):
                    offenders.append(f"{path.name}:{node.lineno} imports json")
        assert offenders == []

    def test_only_the_gates_raise_surface_and_integer_errors(self):
        """lattice.py holds the only surface checks, and errors.checked_int is
        the only integer gate, so no other module raises their errors."""
        gates = {"ConfigMismatchError": "lattice.py", "IntegerOverflowError": "errors.py",
                 "TypeError": "errors.py"}
        raised = set()
        for path in sorted(Path(ruledmoduli.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                        and isinstance(node.exc.func, ast.Name) and node.exc.func.id in gates):
                    continue
                name = node.exc.func.id
                if name != "TypeError" or "must be an int" in ast.unparse(node.exc):
                    raised.add((path.name, name))
        assert raised == {(path, name) for name, path in gates.items()}

    def test_engines_import_only_the_base_modules(self):
        """walls, families and stability share no code with one another: each
        imports only from errors, lattice and invariants."""
        package = Path(ruledmoduli.__file__).parent
        imported = set()
        for engine in ("walls", "families", "stability"):
            for node in ast.walk(ast.parse((package / f"{engine}.py").read_text(encoding="utf-8"))):
                if isinstance(node, ast.ImportFrom) and node.level:  # from .x import y, from . import x
                    names = [node.module] if node.module else [alias.name for alias in node.names]
                    imported |= {(engine, name) for name in names}
                elif isinstance(node, (ast.Import, ast.ImportFrom)):
                    assert "ruledmoduli" not in ast.unparse(node), f"{engine}: import the package relatively"
        assert {name for _, name in imported} <= {"errors", "lattice", "invariants"}, sorted(imported)

    def test_only_wall_search_touches_the_collector(self):
        """The collector's state is process-wide: walls.py alone imports gc,
        as plain ``import gc``, and only wall_search uses it, to pause the
        collector and restore its state."""
        importers, used = [], []
        for path in sorted(Path(ruledmoduli.__file__).parent.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            inside = {id(node) for function in ast.walk(tree) if isinstance(function, ast.FunctionDef)
                      and function.name == "wall_search" for node in ast.walk(function)}
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    importers += [(path.name, ast.unparse(node)) for alias in node.names if alias.name == "gc"]
                elif isinstance(node, ast.ImportFrom) and node.module == "gc":
                    importers.append((path.name, ast.unparse(node)))
                elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "gc":
                    used.append((path.name, id(node) in inside, node.attr))
        assert importers == [("walls.py", "import gc")]
        assert set(used) == {("walls.py", True, name) for name in ("isenabled", "disable", "enable")}

    def test_family_report(self):
        doc, notes = _c1f1(0, 1, 0, 0, 4)
        assert set(doc) == {"family_dim", "moduli_dim", "ext1", "assumptions", "dominance"}
        assert doc["dominance"] == "equal" and notes == []
        assert all(set(a) == {"a", "b", "exc"} for a in doc["assumptions"])
        report = c1f1_report(SurfaceConfig(0, 1, 0), beta=0, c2=4)
        assert [(a["a"], a["b"], tuple(a["exc"])) for a in doc["assumptions"]] == [
            (x.divisor.a, x.divisor.b, x.divisor.exc) for x in report.assumptions]

    def test_stability_verdict(self):
        # sub = -F, quot = 2F, length 2 on F_1 polarized by C0 + 10F
        cfg = SurfaceConfig(0, 1, 0)
        doc, _ = _stability(cfg, cfg.divisor(b=-1), cfg.divisor(b=2), 2, cfg.divisor(1, 10), None, None, None)
        assert set(doc) == {"verdict", "candidates", "box", "notes"}
        assert doc["verdict"] == "stable_certified"
        assert doc["candidates"]
        for candidate in doc["candidates"]:
            assert set(candidate) == {"a", "branch", "effectivity", "slope_margin", "pruned"}
            assert candidate["slope_margin"][1] == 2


class TestErrorPaths:
    def test_domain_error_exits_one(self, capsys):
        code, out, _ = invoke(
            capsys,
            ["certify-dv0", "--config", CONFIG_00, "--c1", '{"a":1,"b":1,"exc":[]}',
             "--c2", "2", "--polarization", '{"a":1,"b":3,"exc":[]}'],
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["status"] == "error"
        assert doc["error"]["type"] == "NotApplicableError"

    def test_domain_error_goes_to_the_output_file(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        code, out, err = invoke(capsys, ["--output", str(path), "family-dim", "example", "--n", "0"])
        assert code == 1 and out == "" and err == ""
        doc = json.loads(path.read_text())
        assert doc["status"] == "error"
        assert doc["error"]["type"] == "ValueError"

    def test_usage_error_leaves_no_output_file(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        code, out, _ = invoke(capsys, ["--output", str(path), "rr", "--config", "{not json", "--divisor", FIBER])
        assert code == 2 and out == ""
        assert not path.exists()

    @pytest.mark.parametrize("result", [{"chi": 2**63}, {"candidates": [{"slope_margin": [-(2**63) - 1, 2]}]}])
    def test_out_of_range_result_integer_is_domain_error(self, capsys, tmp_path, monkeypatch, result):
        """The writer's range check backs up the engines' checks: a result
        integer outside the range becomes an error document, written whole."""
        monkeypatch.setitem(COMMANDS, "rr", dataclasses.replace(COMMANDS["rr"], handler=lambda **_: (result, [])))
        argv = ["rr", "--config", CONFIG_G2, "--divisor", FIBER]
        path = tmp_path / "out.json"
        for prefix in ([], ["--output", str(path)]):
            code, out, err = invoke(capsys, [*prefix, *argv])
            assert code == 1 and err == ""
            doc = json.loads(path.read_text() if prefix else out)
            assert doc["status"] == "error"
            assert doc["error"]["type"] == "IntegerOverflowError"
        assert out == ""

    def test_out_of_range_slope_margin_is_domain_error(self, capsys):
        code, out, _ = invoke(
            capsys,
            ["stability", "--config", CONFIG_00, "--sub", '{"a":2,"b":0,"exc":[]}',
             "--quot", '{"a":-5,"b":0,"exc":[]}', "--ell", "0",
             "--polarization", '{"a":1,"b":2305843009213693952,"exc":[]}',
             "--box-a", "1", "--box-b", "1", "--box-exc", "0"],
        )
        assert code == 1
        assert json.loads(out)["error"]["type"] == "IntegerOverflowError"

    def test_out_of_range_family_dimension_is_domain_error(self, capsys):
        code, out, _ = invoke(capsys, ["family-dim", "example", "--n", "2305843009213693951"])
        assert code == 1
        error = json.loads(out)["error"]
        assert error["type"] == "IntegerOverflowError"
        assert "18446744073709551605" in error["message"]

    def test_out_of_range_payload_integer_is_usage_error(self, capsys):
        code, out, err = invoke(
            capsys,
            ["rr", "--config", CONFIG_00, "--divisor", '{"a":0,"b":9223372036854775808,"exc":[]}'],
        )
        assert code == 2 and out == ""
        assert "--divisor" in err and "64-bit range" in err

    def test_out_of_range_int_flag_is_usage_error(self, capsys):
        code, out, err = invoke(capsys, ["family-dim", "example", "--n", "99999999999999999999"])
        assert code == 2 and out == ""
        assert "--n 99999999999999999999" in err and "64-bit range" in err

    def test_invalid_polarization_is_domain_error(self, capsys):
        code, out, _ = invoke(
            capsys,
            ["walls", "--config", CONFIG_00, "--c1", FIBER, "--c2", "2",
             "--polarization", '{"a":0,"b":1,"exc":[]}'],
        )
        assert code == 1
        assert json.loads(out)["error"]["type"] == "InvalidPolarizationError"

    def test_unknown_field_is_usage_error(self, capsys):
        code, out, err = invoke(
            capsys,
            ["rr", "--config", '{"genus":0,"e":0,"points":0,"bogus":1}',
             "--divisor", '{"a":0,"b":0,"exc":[]}'],
        )
        assert code == 2 and out == ""
        assert "unknown fields" in err
        assert "--schema" in err

    def test_non_object_config_is_usage_error(self, capsys):
        code, out, err = invoke(capsys, ["rr", "--config", "[1]", "--divisor", FIBER])
        assert code == 2 and out == ""
        assert "--config: surface config must be a JSON object" in err

    def test_malformed_json_is_usage_error(self, capsys):
        code, _, err = invoke(
            capsys, ["rr", "--config", "{not json", "--divisor", FIBER]
        )
        assert code == 2
        assert "not valid JSON" in err

    def test_missing_flag_is_usage_error(self, capsys):
        code, _, err = invoke(capsys, ["rr", "--config", CONFIG_00])
        assert code == 2

    def test_unknown_subcommand_is_usage_error(self, capsys):
        code, _, _ = invoke(capsys, ["frobnicate"])
        assert code == 2

    def test_no_subcommand_is_usage_error(self, capsys):
        code, _, err = invoke(capsys, [])
        assert code == 2
        assert "subcommand" in err

    def test_unknown_schema_name(self, capsys):
        code, _, err = invoke(capsys, ["--schema", "bogus"])
        assert code == 2
        assert "known subcommands" in err

    def test_range_violation_is_usage_error(self, capsys):
        code, _, err = invoke(
            capsys,
            ["rr", "--config", '{"genus":-1,"e":0,"points":0}', "--divisor", FIBER],
        )
        assert code == 2

    def test_wrong_exc_length_is_usage_error(self, capsys):
        code, _, err = invoke(
            capsys,
            ["rr", "--config", '{"genus":0,"e":0,"points":2}',
             "--divisor", '{"a":0,"b":0,"exc":[1]}'],
        )
        assert code == 2

    def test_negative_length_warning_is_surfaced(self, capsys):
        code, out, _ = invoke(
            capsys,
            ["invariants", "--config", '{"genus":0,"e":1,"points":1}', "--datum",
             json.dumps({"d": 0, "r": 0, "q": [3],
                         "c1": {"a": 0, "b": 0, "exc": [1]}, "c2": 2})],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["length"] == 2 + 3 * (1 - 3)
        assert any("negative" in w for w in doc["warnings"])

    def test_domain_error_keeps_the_warnings_raised_before_it(self, capsys):
        # the datum warns of a negative length, then r0 leaves the 64-bit range
        code, out, _ = invoke(
            capsys,
            ["invariants", "--config", '{"genus":9223372036854775807,"e":0,"points":0}', "--datum",
             json.dumps({"d": -1, "r": -2**62, "q": [], "c1": {"a": -2, "b": -2**63, "exc": []},
                         "c2": 2**63 - 1})],
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["error"]["type"] == "IntegerOverflowError"
        assert doc["warnings"] == ["derived subscheme length -1 is negative; "
                                   "no locally free extension realizes this data"]

    @pytest.mark.parametrize("depth", [900, 1000, 100_000])
    def test_deeply_nested_payload_is_usage_error(self, capsys, depth):
        code, out, err = invoke(capsys, ["intersect", "--config", CONFIG_00,
                                         "--d1", "[" * depth + "]" * depth, "--d2", FIBER])
        assert code == 2 and out == ""
        assert err.startswith("usage error: --d1")

    @pytest.mark.parametrize("flag,argv", [
        ("--divisor", ["rr", "--config", '{"genus":0,"e":1,"points":0}',
                       "--divisor", '{"a":' + "1" * 5000 + ',"b":0,"exc":[]}']),
        ("--ell", ["family-dim", "c1f0", "--g", "0", "--eta", "0", "--m", "1", "--n", "3", "--eps", "0",
                   "--r1", "-3", "--ell", "[" + "7" * 5000 + "]", "--h0", "1"]),
    ], ids=["divisor", "ell"])
    def test_integer_too_long_to_decode_is_usage_error(self, capsys, flag, argv):
        # the decoder refuses more than 4300 digits before any range check runs
        code, out, err = invoke(capsys, argv)
        assert code == 2 and out == ""
        assert err.startswith(f"usage error: {flag}: an integer is outside the signed 64-bit range (")
        assert "5000 digits" in err


# the payload doc of each JSON object flag, as --schema prints it
SCHEMA_DOCS = {flag: doc["payload"] for name in ("rr", "invariants")
               for flag, doc in _schema(COMMANDS[name])["flags"].items()}
SCHEMA_KEYS = [(flag, key) for flag, doc in SCHEMA_DOCS.items() for key in doc]
SCHEMA_KEYS += [("--datum", f"c1.{key}") for key in SCHEMA_DOCS["--datum"]["c1"]]
# one valid payload per JSON object flag, on a surface with one blown-up point
VALID = {
    "--config": {"genus": 0, "e": 1, "points": 1},
    "--divisor": {"a": 0, "b": 1, "exc": [0]},
    "--datum": {"d": 0, "r": 0, "q": [0], "c1": {"a": 0, "b": 0, "exc": [0]}, "c2": 1},
}


def payload_argv(flag, payload):
    argv = {"--config": ["rr", "--divisor", json.dumps(VALID["--divisor"])],
            "--divisor": ["rr", "--config", json.dumps(VALID["--config"])],
            "--datum": ["invariants", "--config", json.dumps(VALID["--config"])]}[flag]
    return argv + [flag, json.dumps(payload)]


def edited(flag, key, edit):
    """A copy of VALID[flag] with edit(obj, name) applied to the object that
    holds key; a "c1.<name>" key lives in the datum's c1."""
    payload = json.loads(json.dumps(VALID[flag]))
    edit(payload["c1"] if key.startswith("c1.") else payload, key.removeprefix("c1."))
    return payload


class TestPayloadParsing:
    def test_payloads_build_the_library_objects(self):
        cfg = _parse("config", '{"genus":1,"e":-1,"points":2}', "--config", None)
        assert cfg == SurfaceConfig(1, -1, 2)
        assert _parse("divisor", '{"a":3,"b":-4,"exc":[5,-6]}', "--divisor", cfg) == cfg.divisor(3, -4, (5, -6))
        datum = _parse("datum", '{"d":0,"r":-3,"q":[0,2],"c1":{"a":0,"b":1,"exc":[1,1]},"c2":9}', "--datum", cfg)
        assert datum == ExtensionDatum(0, -3, (0, 2), ChernData(cfg.divisor(0, 1, (1, 1)), 9))

    def test_int_flags_take_json_integers_only(self):
        # Python's int() reads the first four of these as 10, 5, 5 and 5
        for text in ("1_0", "٥", "+5", "05", "true", "1.0", "1e3", '"5"', "[5]", "x"):
            with pytest.raises(UsageError, match=f"^--c2 must be a JSON integer, got {re.escape(repr(text))}$"):
                _parse("int", text, "--c2", None)
        assert [_parse("int", text, "--c2", None) for text in ("-5", "0", "-0", str(2**63 - 1))] == [-5, 0, 0, 2**63 - 1]
        with pytest.raises(UsageError, match="^--c2 9223372036854775808 exceeds the signed 64-bit range$"):
            _parse("int", str(2**63), "--c2", None)

    @pytest.mark.parametrize("flag,key", SCHEMA_KEYS, ids=[f"{f}-{k}" for f, k in SCHEMA_KEYS])
    def test_parser_accepts_exactly_the_schema_keys(self, capsys, flag, key):
        """Each key --schema documents is required, and no other key is accepted."""
        name = key.removeprefix("c1.")
        code, out, err = invoke(capsys, payload_argv(flag, edited(flag, key, lambda obj, k: obj.pop(k))))
        assert code == 2 and out == ""
        assert err.startswith(f"usage error: {flag}: ") and f"is missing fields: [{name!r}]\n" in err
        code, out, err = invoke(capsys, payload_argv(flag, edited(flag, key, lambda obj, k: obj.update(zz=0))))
        assert code == 2 and out == ""
        assert err.startswith(f"usage error: {flag}: ") and "has unknown fields: ['zz']\n" in err
