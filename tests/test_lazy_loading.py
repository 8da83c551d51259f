"""The package and the CLI load engine modules on first use.

``import ruledmoduli`` imports none of the six modules; each name of
``__all__`` is resolved by the package's module ``__getattr__`` on first
access.  The CLI itself needs ``errors``, ``lattice`` and ``invariants``, and
each subcommand adds only the engines its handler calls; no run, a usage
error included, imports ``argparse``, since the CLI reads argv from its own
command table.  The records of every module but ``stability`` are slotted
classes on ``lattice._Record``, so only a ``stability`` run imports
``dataclasses`` (and with it ``inspect``).  The module sets are read in fresh
interpreters, so a top-level engine import, argparse or dataclasses cannot
come back unnoticed.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ruledmoduli

SRC = str(Path(ruledmoduli.__file__).resolve().parents[1])
SUBMODULES = {"errors", "lattice", "invariants", "walls", "families", "stability"}
# the package's public names, pinned: resolving them lazily must keep exactly these
ALL = [
    "AssumptionViolatedError", "BoxTooLargeError", "ChernData", "Classification", "ConfigMismatchError",
    "DestabilizerCandidate", "DivisorClass", "Dominance", "DvZeroCertificate", "Effectivity",
    "EffectivityVerdict", "ExtensionDatum", "FamilyMaximizer", "FamilyReport", "IntegerOverflowError",
    "InvalidPolarizationError", "NegativeLengthWarning", "NotApplicableError", "ParityError", "Polarization",
    "Rationality", "ReferenceFamily", "RuledModuliError", "SearchBoundsError", "SearchBox", "StabilityOutcome",
    "StabilityVerdict", "StructureKind", "Suitability", "SurfaceConfig", "UnsupportedSurfaceError",
    "VanishingAssumption", "WallClass", "WallSearch", "c1f0_report", "c1f1_report", "canonical_class",
    "certify_dv_zero", "chern_twist", "classify_structure", "default_box", "destabilizer_search",
    "effectivity", "errors", "euler_char", "ext1_rr", "families", "family_dim_c1f0", "family_dim_c1f1",
    "h0_hirzebruch", "intersect", "invariants", "is_extension_unique", "is_suitable", "lattice",
    "maximize_family_dim", "moduli_dim", "normalize_chern", "pushforward_degree_bound",
    "r0_generic", "reference_family_dims", "slope_margin", "stability", "subscheme_length", "wall_search",
    "walls", "zeta_class",
]

CONFIG_00 = '{"genus":0,"e":0,"points":0}'
FIBER = '{"a":0,"b":1,"exc":[]}'
CLI_BASE = {"ruledmoduli", "ruledmoduli.cli", "ruledmoduli.errors", "ruledmoduli.lattice",
            "ruledmoduli.invariants"}

# which of dataclasses and inspect a child's imports after ``before`` added: a
# site may preload them, so the child takes sys.modules before its package import
HEAVY_ADDED = 'sorted({"dataclasses", "inspect"} - before & set(sys.modules))'

# runs cli.run(argv) with argv from sys.argv[1], then prints the exit code, the
# package modules then loaded, whether argparse is loaded and HEAVY_ADDED
CLI_CHILD = f"""
import contextlib, io, json, sys
before = set(sys.modules)
from ruledmoduli import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = cli.run(json.loads(sys.argv[1]))
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("ruledmoduli")), "argparse" in sys.modules,
                  {HEAVY_ADDED}]))
"""


def fresh(code: str, *args: str):
    """What a fresh interpreter with ``src`` on its path prints as JSON after running ``code``."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    child = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True, env=env,
                           check=True)
    return json.loads(child.stdout)


class TestNamespace:
    def test_all_is_unchanged(self):
        assert ruledmoduli.__all__ == ALL

    def test_star_import_binds_exactly_all(self):
        namespace: dict = {}
        exec("from ruledmoduli import *", namespace)
        namespace.pop("__builtins__")
        assert sorted(namespace) == ALL

    @pytest.mark.parametrize("name", ALL)
    def test_name_resolves_to_its_definition(self, name):
        assert name in dir(ruledmoduli)
        value = getattr(ruledmoduli, name)
        if name in SUBMODULES:
            assert value is sys.modules[f"ruledmoduli.{name}"]
            return
        module = value.__module__
        assert module.removeprefix("ruledmoduli.") in SUBMODULES
        assert getattr(importlib.import_module(module), name) is value

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match=r"^module 'ruledmoduli' has no attribute 'no_such_name'$"):
            ruledmoduli.no_such_name  # noqa: B018


class TestLoadedModules:
    def test_import_loads_no_module(self):
        loaded, listed = fresh("import json, sys, ruledmoduli\n"
                               "listed = set(ruledmoduli.__all__) <= set(dir(ruledmoduli))\n"
                               "print(json.dumps([sorted(m for m in sys.modules if m.startswith('ruledmoduli')),"
                               " listed]))")
        assert loaded == ["ruledmoduli"]
        assert listed

    @pytest.mark.parametrize("argv,exit_code,engines", [
        (["rr", "--config", CONFIG_00, "--divisor", FIBER], 0, set()),
        (["--schema", "walls"], 0, set()),
        (["walls", "--config", CONFIG_00, "--c1"], 2, set()),
        (["walls", "--help"], 0, set()),
        (["walls", "--config", CONFIG_00, "--c1", FIBER, "--c2", "2", "--polarization", '{"a":3,"b":1,"exc":[]}'],
         0, {"walls"}),
        (["family-dim", "example", "--n", "3"], 0, {"families"}),
        (["stability", "--config", CONFIG_00, "--sub", '{"a":0,"b":-1,"exc":[]}', "--quot",
          '{"a":0,"b":2,"exc":[]}', "--ell", "1", "--polarization", '{"a":1,"b":1,"exc":[]}'],
         0, {"stability"}),
    ], ids=["rr", "schema", "usage-error", "help", "walls", "family-dim-example", "stability"])
    def test_subcommand_loads_only_its_engines(self, argv, exit_code, engines):
        code, loaded, argparse_loaded, heavy_added = fresh(CLI_CHILD, json.dumps(argv))
        assert code == exit_code
        assert set(loaded) == CLI_BASE | {f"ruledmoduli.{engine}" for engine in engines}
        assert not argparse_loaded
        if "stability" not in engines:
            assert heavy_added == []

    def test_engines_without_stability_load_no_dataclasses(self):
        added = fresh("import json, sys\n"
                      "before = set(sys.modules)\n"
                      "import ruledmoduli.walls, ruledmoduli.families\n"
                      f"print(json.dumps({HEAVY_ADDED}))")
        assert added == []
