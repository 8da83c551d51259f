"""Command-line front door: JSON in, one deterministic JSON document out.

Every subcommand reads the surface and any divisor-valued payloads as JSON
(variable-length vectors do not fit positional flags), runs the matching
library routine, and emits a single document

    {"status": "ok"|"error", "result": ..., "assumptions": [...], "warnings": [...]}

with keys sorted and no incidental whitespace, so identical inputs produce
byte-identical output.  Exit codes: 0 on success, 1 on a domain error
(reported inside the JSON document), 2 on a usage error (reported on the
diagnostic stream together with a pointer to ``--schema``).
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from collections.abc import Callable
from dataclasses import dataclass

from . import families, invariants, stability, walls
from .errors import IntegerOverflowError, RuledModuliError, checked_int
from .lattice import DivisorClass, SurfaceConfig, canonical_class, euler_char, intersect
from .invariants import ChernData, ExtensionDatum


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); raise instead
        raise UsageError(message)


@dataclass(frozen=True)
class _Command:
    """One subcommand (or ``family-dim`` variant): its flags, result and handler.

    ``flags`` maps each flag to its payload kind when it is required, or to
    ``(kind, default)`` when it is optional.  ``handler`` takes the parsed
    values by argparse destination name and returns ``(result, notes)``.
    """

    flags: dict
    result: dict
    handler: Callable[..., tuple[dict, list[str]]]


_DIVISOR_DOC = {"a": "int", "b": "int", "exc": "[int] of length points"}
# what --schema prints for each payload kind
_KIND_DOCS = {
    "config": {"genus": "int >= 0", "e": "int (>= 0 when genus is 0)", "points": "int >= 0"},
    "divisor": _DIVISOR_DOC,
    "datum": {"d": "int", "r": "int", "q": "[int >= 0] of length points", "c1": _DIVISOR_DOC, "c2": "int"},
    "int": "int",
    "ints": "[int] (JSON array)",
}


def _spec(spec) -> tuple[str, bool, object]:
    """(kind, required, default) of a flag's table entry."""
    return (spec, True, None) if isinstance(spec, str) else (spec[0], False, spec[1])


def _parse(kind: str, text, flag: str, config: SurfaceConfig | None):
    """A flag's value as a library object; every malformed payload and every
    integer outside the 64-bit range becomes a UsageError that names the flag."""
    if kind == "int":  # argparse has converted it; None is an omitted optional flag
        try:
            return text if text is None else checked_int(text, flag)
        except IntegerOverflowError as exc:
            raise UsageError(str(exc)) from exc
    try:
        value = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"{flag} is not valid JSON: {exc}") from exc
    if not isinstance(value, (dict, list)):
        raise UsageError(f"{flag} must be a JSON object or array")
    try:
        if kind == "ints":
            if not isinstance(value, list) or any(isinstance(x, bool) or not isinstance(x, int) for x in value):
                raise UsageError(f"{flag} must be a JSON array of integers")
            return tuple(checked_int(x, "entry") for x in value)
        if kind == "config":
            return SurfaceConfig.from_json(value)
        return (DivisorClass if kind == "divisor" else ExtensionDatum).from_json(value, config)
    except (ValueError, IntegerOverflowError) as exc:
        raise UsageError(f"{flag}: {exc}") from exc


def _twist(config, c1, c2, t):
    twisted = invariants.chern_twist(ChernData(c1, c2), t)
    return {"c1": twisted.c1.to_json(), "c2": twisted.c2, "discriminant": twisted.discriminant}, []


def _invariants(config, datum):
    c1, c2 = datum.chern.c1, datum.chern.c2
    return {
        "zeta": invariants.zeta_class(datum).to_json(),
        "length": invariants.subscheme_length(datum),
        "discriminant": datum.chern.discriminant,
        "unique": invariants.is_extension_unique(datum),
        "r0": invariants.r0_generic(config.genus, c1.b, c2) if c1.a % 2 == 0 else None,
        "degree_bound_satisfied": invariants.pushforward_degree_bound(datum.r, c1.b, config.genus, c2, datum.q),
    }, []


def _boundary_notes(boundary) -> list[str]:
    if not boundary:
        return []
    return [f"{len(boundary)} wall class(es) meet the polarization exactly; the chamber boundary is not decided"]


def _walls(config, c1, c2, polarization):
    search = walls.wall_search(config, ChernData(c1, c2), walls.Polarization(polarization))
    return {
        "walls": [w.to_json() for w in search.walls],
        "boundary": [w.to_json() for w in search.boundary],
        "excluded_negative_length": search.excluded_negative_length,
    }, []


def _suitable(config, c1, c2, polarization):
    verdict = walls.is_suitable(config, ChernData(c1, c2), walls.Polarization(polarization))
    return {
        "suitable": verdict.suitable,
        "witness": None if verdict.witness is None else verdict.witness.to_json(),
        "boundary": [w.to_json() for w in verdict.boundary],
    }, _boundary_notes(verdict.boundary)


def _certify_dv0(config, c1, c2, polarization):
    certificate = walls.certify_dv_zero(config, ChernData(c1, c2), walls.Polarization(polarization))
    witness = certificate.separating_wall
    return {
        "certified": certificate.certified,
        "d": certificate.d_value,
        "witness": None if witness is None else witness.to_json(),
    }, _boundary_notes(certificate.boundary)


def _family_report(report: families.FamilyReport):
    if report.dominance is not families.Dominance.EXCEEDS:
        return report.to_json(), []
    return report.to_json(), [
        "family dimension exceeds the moduli dimension; the input data is inconsistent with a dominating family"
    ]


def _c1f0(g, eta, m, n, eps, r1, h0, e, ell):
    return _family_report(families.c1f0_report(SurfaceConfig(g, e, m), eta, n, eps, r1, ell, h0))


def _c1f1(g, e, beta, rho, c2):
    return _family_report(families.c1f1_report(SurfaceConfig(g, e, rho), beta, c2))


def _example(n, e):
    dims = families.reference_family_dims(n, e)
    return {"dim": dims.family_dim, "ext1": dims.ext1, "h0VD": dims.h0_twist}, []


def _maximize(g, eta, m, n, eps):
    best = families.maximize_family_dim(g, eta, m, n, eps)
    return {"r1": best.r1, "ell": list(best.ell), "h0": best.h0, "value": best.value}, []


def _classify(config, c1, c2):
    return families.classify_structure(config, ChernData(c1, c2)).to_json(), []


def _stability(config, sub, quot, ell, polarization, box_a, box_b, box_exc):
    pol = walls.Polarization(polarization)
    bounds = (box_a, box_b, box_exc)
    box = None
    if bounds != (None, None, None):
        if None in bounds:
            raise UsageError("--box-a, --box-b and --box-exc must be given together")
        box = stability.SearchBox(*bounds)
    return stability.destabilizer_search(config, sub, quot, ell, pol, box).to_json(), []


# The config comes first in every flag list: divisors and data need it to parse.
_CHERN_FLAGS = {"--config": "config", "--c1": "divisor", "--c2": "int"}
_WALL_FLAGS = {**_CHERN_FLAGS, "--polarization": "divisor"}
_FAMILY_FLAGS = {"--g": "int", "--eta": "int", "--m": "int", "--n": "int", "--eps": "int"}
_WALL_DOC = {"zeta": _DIVISOR_DOC, "zeta_sq": "int", "ell": "int", "zF": "int", "zL": "int"}
_REPORT_DOC = {
    "family_dim": "int", "moduli_dim": "int", "ext1": "int",
    "assumptions": [_DIVISOR_DOC], "dominance": "equal | less | exceeds",
}

# One entry per subcommand, and one per variant under "family-dim".  The order
# is argparse's order of choices in its messages.
COMMANDS: dict[str, _Command | dict[str, _Command]] = {
    "rr": _Command({"--config": "config", "--divisor": "divisor"}, {"chi": "int"},
                   lambda config, divisor: ({"chi": euler_char(config, divisor)}, [])),
    "intersect": _Command({"--config": "config", "--d1": "divisor", "--d2": "divisor"}, {"value": "int"},
                          lambda config, d1, d2: ({"value": intersect(d1, d2)}, [])),
    "canonical": _Command({"--config": "config"}, {"divisor": _DIVISOR_DOC},
                          lambda config: ({"divisor": canonical_class(config).to_json()}, [])),
    "twist": _Command({**_CHERN_FLAGS, "--t": "divisor"},
                      {"c1": _DIVISOR_DOC, "c2": "int", "discriminant": "int"}, _twist),
    "invariants": _Command({"--config": "config", "--datum": "datum"},
                           {"zeta": _DIVISOR_DOC, "length": "int", "discriminant": "int", "unique": "bool",
                            "r0": "int | null (null when c1.a is odd)", "degree_bound_satisfied": "bool"},
                           _invariants),
    "walls": _Command(_WALL_FLAGS, {"walls": [_WALL_DOC], "boundary": [_WALL_DOC], "excluded_negative_length": "int"},
                      _walls),
    "suitable": _Command(_WALL_FLAGS, {"suitable": "bool", "witness": "wall | null", "boundary": [_WALL_DOC]},
                         _suitable),
    "certify-dv0": _Command(_WALL_FLAGS, {"certified": "bool (c1.a even after twist normalization)",
                                          "d": "0 | null", "witness": "wall | null"},
                            _certify_dv0),
    "family-dim": {
        "c1f0": _Command({**_FAMILY_FLAGS, "--r1": "int", "--h0": "int", "--e": ("int", 0), "--ell": "ints"},
                         _REPORT_DOC, _c1f0),
        "c1f1": _Command({"--g": "int", "--e": "int", "--beta": "int", "--rho": "int", "--c2": "int"},
                         _REPORT_DOC, _c1f1),
        "example": _Command({"--n": "int", "--e": ("int", 1)}, {"dim": "int", "ext1": "int", "h0VD": "int"},
                            _example),
        "maximize": _Command(_FAMILY_FLAGS, {"r1": "int", "ell": "[int]", "h0": "int", "value": "int"}, _maximize),
    },
    "moduli-dim": _Command(_CHERN_FLAGS, {"dim": "int"},
                           lambda config, c1, c2: ({"dim": families.moduli_dim(config, ChernData(c1, c2))}, [])),
    "classify": _Command(_CHERN_FLAGS,
                         {"kind": "odd_fiber | even_fiber_genus_zero | even_fiber_positive_genus",
                          "rationality": "rational | stably_rational | unknown",
                          "hilbert_exponent": "int | null", "description": "str"},
                         _classify),
    "stability": _Command({"--config": "config", "--sub": "divisor", "--quot": "divisor", "--ell": "int",
                           "--polarization": "divisor", "--box-a": ("int", None), "--box-b": ("int", None),
                           "--box-exc": ("int", None)},
                          {"verdict": "stable_certified | destabilizer_found | inconclusive",
                           "candidates": "[candidate records]", "box": {"a": "int", "b": "int", "exc": "int"},
                           "notes": "[str]"},
                          _stability),
}


def _schema(entry) -> dict:
    if isinstance(entry, dict):
        return {"variants": {name: _schema(command) for name, command in entry.items()}}
    flags = {}
    for flag, spec in entry.flags.items():
        kind, required, default = _spec(spec)
        flags[flag] = {"payload": _KIND_DOCS[kind], "required": required}
        if not required:
            flags[flag]["default"] = default
    return {"flags": flags, "result": entry.result}


def _add_commands(subparsers, table: dict) -> None:
    for name, entry in table.items():
        parser = subparsers.add_parser(name)
        if isinstance(entry, dict):
            _add_commands(parser.add_subparsers(dest="variant"), entry)
            continue
        for flag, spec in entry.flags.items():
            kind, required, default = _spec(spec)
            kwargs = {"type": int} if kind == "int" else {}
            parser.add_argument(flag, required=required, default=default, **kwargs)


def build_parser() -> _Parser:
    parser = _Parser(prog="ruledmoduli", description=__doc__)
    parser.add_argument("--schema", metavar="SUBCOMMAND", help="print the JSON schema of a subcommand and exit")
    parser.add_argument("--output", metavar="PATH", help="write the JSON document to PATH instead of stdout")
    _add_commands(parser.add_subparsers(dest="subcommand"), COMMANDS)
    return parser


def _execute(command: _Command, options: dict) -> tuple[dict, list[str]]:
    """Parse the command's flags in table order and run its handler."""
    values: dict = {}
    config = None
    for flag, spec in command.flags.items():
        dest = flag[2:].replace("-", "_")
        values[dest] = _parse(_spec(spec)[0], options[dest], flag, config)
        if dest == "config":
            config = values[dest]
    return command.handler(**values)


def _emit(doc: dict, output_path: str | None) -> None:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    if output_path:
        with open(output_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def run(argv: list[str] | None = None) -> int:
    """Parse argv, run one subcommand, emit the JSON document; returns the exit code."""
    parser = build_parser()
    try:
        namespace = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        print("run 'ruledmoduli --schema <subcommand>' for payload schemas", file=sys.stderr)
        return 2
    except SystemExit as exc:  # --help and friends
        return 0 if exc.code in (0, None) else 2

    options = vars(namespace)
    schema_name = options.pop("schema", None)
    output_path = options.pop("output", None)
    subcommand = options.pop("subcommand", None)

    if schema_name is not None:
        if schema_name not in COMMANDS:
            print(f"usage error: no schema for {schema_name!r}", file=sys.stderr)
            print(f"known subcommands: {', '.join(sorted(COMMANDS))}", file=sys.stderr)
            return 2
        _emit({"subcommand": schema_name, "schema": _schema(COMMANDS[schema_name])}, output_path)
        return 0
    if subcommand is None:
        print("usage error: a subcommand is required", file=sys.stderr)
        print(f"known subcommands: {', '.join(sorted(COMMANDS))}", file=sys.stderr)
        return 2

    command = COMMANDS[subcommand]
    try:
        if isinstance(command, dict):
            variant = options.pop("variant")
            if variant is None:
                raise UsageError(f"{subcommand} requires a variant: {' | '.join(command)}")
            command = command[variant]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result, notes = _execute(command, options)
        notes.extend(str(w.message) for w in caught)
        # family reports carry their vanishing assumptions; the envelope repeats them
        assumptions = list(result.get("assumptions", []))
        _emit(
            {"status": "ok", "result": result, "assumptions": assumptions, "warnings": notes},
            output_path,
        )
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        print(f"run 'ruledmoduli --schema {subcommand}' for payload schemas", file=sys.stderr)
        return 2
    except (RuledModuliError, ValueError) as exc:
        _emit(
            {
                "status": "error",
                "error": {"type": type(exc).__name__, "message": str(exc)},
                "assumptions": [],
                "warnings": [],
            },
            output_path,
        )
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
