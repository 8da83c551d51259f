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
from dataclasses import dataclass

from . import families, invariants, stability, walls
from .errors import RuledModuliError
from .lattice import DivisorClass, SurfaceConfig, canonical_class, euler_char, intersect
from .invariants import ChernData, ExtensionDatum


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); raise instead
        raise UsageError(message)


@dataclass(frozen=True)
class RunRequest:
    subcommand: str
    options: dict
    output_path: str | None


_CONFIG_DOC = {"genus": "int >= 0", "e": "int (>= 0 when genus is 0)", "points": "int >= 0"}
_DIVISOR_DOC = {"a": "int", "b": "int", "exc": "[int] of length points"}
_WALL_DOC = {"zeta": _DIVISOR_DOC, "zeta_sq": "int", "ell": "int", "zF": "int", "zL": "int"}

SCHEMAS: dict[str, dict] = {
    "rr": {
        "flags": {"--config": _CONFIG_DOC, "--divisor": _DIVISOR_DOC},
        "result": {"chi": "int"},
    },
    "intersect": {
        "flags": {"--config": _CONFIG_DOC, "--d1": _DIVISOR_DOC, "--d2": _DIVISOR_DOC},
        "result": {"value": "int"},
    },
    "canonical": {
        "flags": {"--config": _CONFIG_DOC},
        "result": {"divisor": _DIVISOR_DOC},
    },
    "twist": {
        "flags": {
            "--config": _CONFIG_DOC,
            "--c1": _DIVISOR_DOC,
            "--c2": "int",
            "--t": _DIVISOR_DOC,
        },
        "result": {"c1": _DIVISOR_DOC, "c2": "int", "discriminant": "int"},
    },
    "invariants": {
        "flags": {
            "--config": _CONFIG_DOC,
            "--datum": {
                "d": "int",
                "r": "int",
                "q": "[int >= 0] of length points",
                "c1": _DIVISOR_DOC,
                "c2": "int",
            },
        },
        "result": {
            "zeta": _DIVISOR_DOC,
            "length": "int",
            "discriminant": "int",
            "unique": "bool",
            "r0": "int | null (null when c1.a is odd)",
            "degree_bound_satisfied": "bool",
        },
    },
    "walls": {
        "flags": {
            "--config": _CONFIG_DOC,
            "--c1": _DIVISOR_DOC,
            "--c2": "int",
            "--polarization": _DIVISOR_DOC,
        },
        "result": {
            "walls": [_WALL_DOC],
            "boundary": [_WALL_DOC],
            "excluded_negative_length": "int",
        },
    },
    "suitable": {
        "flags": "same as walls",
        "result": {"suitable": "bool", "witness": "wall | null", "boundary": [_WALL_DOC]},
    },
    "certify-dv0": {
        "flags": "same as walls; c1.a must be even after twist normalization",
        "result": {"certified": "bool", "d": "0 | null", "witness": "wall | null"},
    },
    "family-dim": {
        "variants": {
            "c1f0": {
                "flags": ["--g", "--e (optional, default 0)", "--eta", "--m", "--n", "--eps", "--r1", "--ell", "--h0"]
            },
            "c1f1": {"flags": ["--g", "--e", "--beta", "--rho", "--c2"]},
            "example": {"flags": ["--n", "--e (optional, default 1)"]},
            "maximize": {"flags": ["--g", "--eta", "--m", "--n", "--eps"]},
        },
        "result": {
            "c1f0 and c1f1": {
                "family_dim": "int",
                "moduli_dim": "int",
                "ext1": "int",
                "assumptions": [_DIVISOR_DOC],
                "dominance": "equal | less | exceeds",
            },
            "example": {"dim": "int", "ext1": "int", "h0VD": "int"},
            "maximize": {"r1": "int", "ell": "[int]", "h0": "int", "value": "int"},
        },
    },
    "moduli-dim": {
        "flags": {"--config": _CONFIG_DOC, "--c1": _DIVISOR_DOC, "--c2": "int"},
        "result": {"dim": "int"},
    },
    "classify": {
        "flags": {"--config": _CONFIG_DOC, "--c1": _DIVISOR_DOC, "--c2": "int"},
        "result": {
            "kind": "odd_fiber | even_fiber_genus_zero | even_fiber_positive_genus",
            "rationality": "rational | stably_rational | unknown",
            "hilbert_exponent": "int | null",
            "description": "str",
        },
    },
    "stability": {
        "flags": {
            "--config": _CONFIG_DOC,
            "--sub": _DIVISOR_DOC,
            "--quot": _DIVISOR_DOC,
            "--ell": "int >= 0",
            "--polarization": _DIVISOR_DOC,
            "--box-a/--box-b/--box-exc": "optional int bounds",
        },
        "result": {
            "verdict": "stable_certified | destabilizer_found | inconclusive",
            "candidates": "[candidate records]",
            "box": {"a": "int", "b": "int", "exc": "int"},
            "notes": "[str]",
        },
    },
}


def _json_flag(text: str, what: str) -> dict:
    try:
        value = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"{what} is not valid JSON: {exc}") from exc
    if not isinstance(value, (dict, list)):
        raise UsageError(f"{what} must be a JSON object or array")
    return value


def _parse_config(text: str) -> SurfaceConfig:
    try:
        return SurfaceConfig.from_json(_json_flag(text, "--config"))
    except ValueError as exc:
        raise UsageError(f"--config: {exc}") from exc


def _parse_divisor(text: str, config: SurfaceConfig, flag: str) -> DivisorClass:
    try:
        return DivisorClass.from_json(_json_flag(text, flag), config)
    except ValueError as exc:
        raise UsageError(f"{flag}: {exc}") from exc


def _parse_int_list(text: str, flag: str) -> tuple[int, ...]:
    value = _json_flag(text, flag)
    if not isinstance(value, list) or any(
        isinstance(x, bool) or not isinstance(x, int) for x in value
    ):
        raise UsageError(f"{flag} must be a JSON array of integers")
    return tuple(value)


def build_parser() -> _Parser:
    parser = _Parser(prog="ruledmoduli", description=__doc__)
    parser.add_argument("--schema", metavar="SUBCOMMAND", help="print the JSON schema of a subcommand and exit")
    parser.add_argument("--output", metavar="PATH", help="write the JSON document to PATH instead of stdout")
    sub = parser.add_subparsers(dest="subcommand")

    def add(name: str, *flags: tuple[str, dict]):
        p = sub.add_parser(name)
        for flag, kwargs in flags:
            p.add_argument(flag, **kwargs)
        return p

    req_str = {"required": True}
    req_int = {"required": True, "type": int}

    add("rr", ("--config", req_str), ("--divisor", req_str))
    add("intersect", ("--config", req_str), ("--d1", req_str), ("--d2", req_str))
    add("canonical", ("--config", req_str))
    add("twist", ("--config", req_str), ("--c1", req_str), ("--c2", req_int), ("--t", req_str))
    add("invariants", ("--config", req_str), ("--datum", req_str))
    for name in ("walls", "suitable", "certify-dv0"):
        add(name, ("--config", req_str), ("--c1", req_str), ("--c2", req_int), ("--polarization", req_str))
    fam = sub.add_parser("family-dim")
    fam_sub = fam.add_subparsers(dest="variant")
    p = fam_sub.add_parser("c1f0")
    for flag in ("--g", "--eta", "--m", "--n", "--eps", "--r1", "--h0"):
        p.add_argument(flag, required=True, type=int)
    p.add_argument("--e", type=int, default=0)
    p.add_argument("--ell", required=True)
    p = fam_sub.add_parser("c1f1")
    for flag in ("--g", "--e", "--beta", "--rho", "--c2"):
        p.add_argument(flag, required=True, type=int)
    p = fam_sub.add_parser("example")
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--e", type=int, default=1)
    p = fam_sub.add_parser("maximize")
    for flag in ("--g", "--eta", "--m", "--n", "--eps"):
        p.add_argument(flag, required=True, type=int)
    add("moduli-dim", ("--config", req_str), ("--c1", req_str), ("--c2", req_int))
    add("classify", ("--config", req_str), ("--c1", req_str), ("--c2", req_int))
    add(
        "stability",
        ("--config", req_str),
        ("--sub", req_str),
        ("--quot", req_str),
        ("--ell", req_int),
        ("--polarization", req_str),
        ("--box-a", {"type": int}),
        ("--box-b", {"type": int}),
        ("--box-exc", {"type": int}),
    )
    return parser


def _wall_json(wall: walls.WallClass | None):
    return None if wall is None else wall.to_json()


def _dispatch(request: RunRequest) -> tuple[dict, list, list[str]]:
    """Run one subcommand; returns (result, assumptions, warnings)."""
    opt = request.options
    name = request.subcommand
    notes: list[str] = []

    if name in {"rr", "intersect", "canonical", "twist", "invariants", "walls",
                "suitable", "certify-dv0", "moduli-dim", "classify", "stability"}:
        config = _parse_config(opt["config"])

    if name == "rr":
        d = _parse_divisor(opt["divisor"], config, "--divisor")
        return {"chi": euler_char(config, d)}, [], notes
    if name == "intersect":
        d1 = _parse_divisor(opt["d1"], config, "--d1")
        d2 = _parse_divisor(opt["d2"], config, "--d2")
        return {"value": intersect(d1, d2)}, [], notes
    if name == "canonical":
        return {"divisor": canonical_class(config).to_json()}, [], notes
    if name == "twist":
        chern = ChernData(_parse_divisor(opt["c1"], config, "--c1"), opt["c2"])
        t = _parse_divisor(opt["t"], config, "--t")
        twisted = invariants.chern_twist(chern, t)
        return (
            {"c1": twisted.c1.to_json(), "c2": twisted.c2, "discriminant": twisted.discriminant},
            [],
            notes,
        )
    if name == "invariants":
        try:
            datum = ExtensionDatum.from_json(_json_flag(opt["datum"], "--datum"), config)
        except ValueError as exc:
            raise UsageError(f"--datum: {exc}") from exc
        zeta = invariants.zeta_class(datum)
        length = invariants.subscheme_length(datum)
        c1 = datum.chern.c1
        r0 = (
            invariants.r0_generic(config.genus, c1.b, datum.chern.c2)
            if c1.a % 2 == 0
            else None
        )
        return (
            {
                "zeta": zeta.to_json(),
                "length": length,
                "discriminant": datum.chern.discriminant,
                "unique": invariants.is_extension_unique(datum),
                "r0": r0,
                "degree_bound_satisfied": invariants.pushforward_degree_bound(
                    datum.r, c1.b, config.genus, datum.chern.c2, datum.q
                ),
            },
            [],
            notes,
        )
    if name in {"walls", "suitable", "certify-dv0"}:
        chern = ChernData(_parse_divisor(opt["c1"], config, "--c1"), opt["c2"])
        pol = walls.Polarization(_parse_divisor(opt["polarization"], config, "--polarization"))
        if name == "walls":
            search = walls.wall_search(config, chern, pol)
            return (
                {
                    "walls": [w.to_json() for w in search.walls],
                    "boundary": [w.to_json() for w in search.boundary],
                    "excluded_negative_length": search.excluded_negative_length,
                },
                [],
                notes,
            )
        if name == "suitable":
            verdict = walls.is_suitable(config, chern, pol)
            if verdict.boundary:
                notes.append(
                    f"{len(verdict.boundary)} wall class(es) meet the polarization "
                    "exactly; the chamber boundary is not decided"
                )
            return (
                {
                    "suitable": verdict.suitable,
                    "witness": _wall_json(verdict.witness),
                    "boundary": [w.to_json() for w in verdict.boundary],
                },
                [],
                notes,
            )
        certificate = walls.certify_dv_zero(config, chern, pol)
        if certificate.boundary:
            notes.append(
                f"{len(certificate.boundary)} wall class(es) meet the polarization "
                "exactly; the chamber boundary is not decided"
            )
        return (
            {
                "certified": certificate.certified,
                "d": certificate.d_value,
                "witness": _wall_json(certificate.separating_wall),
            },
            [],
            notes,
        )
    if name == "family-dim":
        variant = opt.get("variant")
        if variant == "c1f0":
            config = SurfaceConfig(opt["g"], opt["e"], opt["m"])
            ell = _parse_int_list(opt["ell"], "--ell")
            report = families.c1f0_report(
                config, opt["eta"], opt["n"], opt["eps"], opt["r1"], ell, opt["h0"]
            )
        elif variant == "c1f1":
            config = SurfaceConfig(opt["g"], opt["e"], opt["rho"])
            report = families.c1f1_report(config, opt["beta"], opt["c2"])
        elif variant == "example":
            dims = families.reference_family_dims(opt["n"], opt["e"])
            return (
                {"dim": dims.family_dim, "ext1": dims.ext1, "h0VD": dims.h0_twist},
                [],
                notes,
            )
        elif variant == "maximize":
            result = families.maximize_family_dim(
                opt["g"], opt["eta"], opt["m"], opt["n"], opt["eps"]
            )
            return (
                {
                    "r1": result.r1,
                    "ell": list(result.ell),
                    "h0": result.h0,
                    "value": result.value,
                },
                [],
                notes,
            )
        else:
            raise UsageError("family-dim requires a variant: c1f0 | c1f1 | example | maximize")
        if report.dominance is families.Dominance.EXCEEDS:
            notes.append(
                "family dimension exceeds the moduli dimension; the input data "
                "is inconsistent with a dominating family"
            )
        doc = report.to_json()
        return doc, list(doc["assumptions"]), notes
    if name == "moduli-dim":
        chern = ChernData(_parse_divisor(opt["c1"], config, "--c1"), opt["c2"])
        return {"dim": families.moduli_dim(config, chern)}, [], notes
    if name == "classify":
        chern = ChernData(_parse_divisor(opt["c1"], config, "--c1"), opt["c2"])
        return families.classify_structure(config, chern).to_json(), [], notes
    if name == "stability":
        sub_cls = _parse_divisor(opt["sub"], config, "--sub")
        quot_cls = _parse_divisor(opt["quot"], config, "--quot")
        pol = walls.Polarization(_parse_divisor(opt["polarization"], config, "--polarization"))
        box = None
        if any(opt.get(k) is not None for k in ("box_a", "box_b", "box_exc")):
            if not all(opt.get(k) is not None for k in ("box_a", "box_b", "box_exc")):
                raise UsageError("--box-a, --box-b and --box-exc must be given together")
            box = stability.SearchBox(opt["box_a"], opt["box_b"], opt["box_exc"])
        verdict = stability.destabilizer_search(
            config, sub_cls, quot_cls, opt["ell"], pol, box
        )
        return verdict.to_json(), [], notes
    raise UsageError(f"unknown subcommand {name!r}")


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
        if schema_name not in SCHEMAS:
            print(f"usage error: no schema for {schema_name!r}", file=sys.stderr)
            print(f"known subcommands: {', '.join(sorted(SCHEMAS))}", file=sys.stderr)
            return 2
        _emit({"subcommand": schema_name, "schema": SCHEMAS[schema_name]}, output_path)
        return 0
    if subcommand is None:
        print("usage error: a subcommand is required", file=sys.stderr)
        print(f"known subcommands: {', '.join(sorted(SCHEMAS))}", file=sys.stderr)
        return 2

    request = RunRequest(subcommand, options, output_path)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result, assumptions, notes = _dispatch(request)
        notes.extend(str(w.message) for w in caught)
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
