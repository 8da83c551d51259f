"""Command-line front door: JSON in, one deterministic JSON document out.

Every subcommand reads each flag's value as JSON, an integer flag a JSON
integer (variable-length vectors do not fit positional flags), runs the
matching library routine, and emits a single document

    {"status": "ok"|"error", "result": ..., "assumptions": [...], "warnings": [...]}

with keys sorted and no incidental whitespace, so identical inputs produce
byte-identical output.  One writer, ``_canonical``, writes every document:
it walks the dicts, copies the JSON text a handler has already written
(``_JSONText``), and hands every other value to ``json.dumps`` after
checking each of its ints against the 64-bit range, so an integer that an
engine failed to check becomes an IntegerOverflowError document, not
output.  The wall handlers write their walls as text with ``_wall_writer``,
which formats a run's fixed pieces once; the ``walls`` handler writes them
straight from the slice kernel's runs (``walls._ordered_walls``), in the
order of ``wall_search``, and builds no object per wall.  Every value it
writes is range-checked by the kernel (the ends of each run of b, zeta.L
at its first b) or lies in the wall window (zeta^2 and the length), so the
writer does not check wall text.  On g=0, e=1, m=3, L=3C0+7F-sum Ei,
c1=F+sum Ei, an in-process ``walls`` call took 17 ms at c2=40 and 93 ms at
c2=80 (66,993 walls, 5.58 MB), against 37 ms and 278 ms when the walls were
built as objects first (medians of 10 alternating processes, best of 7
calls each; Python 3.11.7, 2 vCPUs).  Exit codes: 0 on success, 1 on a
domain error (reported inside the JSON document), 2 on a usage error
(reported on the diagnostic stream together with a pointer to ``--schema``).

The table ``COMMANDS`` is the only parser.  ``--schema NAME`` and
``--output PATH`` come before the subcommand, a ``family-dim`` variant right
after it, and then ``--flag VALUE`` pairs: each flag is spelled exactly as the
table has it (no abbreviation, no ``--flag=VALUE``), given at most once, and
takes the next word as its value.  ``-h`` or ``--help``, anywhere in argv,
prints the usage line, this text and the subcommands, and exits 0.
"""

from __future__ import annotations

import json
import sys
import warnings
from collections.abc import Callable

from . import invariants
from .errors import INT64_MAX, INT64_MIN, IntegerOverflowError, RuledModuliError, checked_int
from .lattice import DivisorClass, Polarization, SurfaceConfig, _Record, canonical_class, euler_char, intersect
from .invariants import ChernData, ExtensionDatum


class UsageError(Exception):
    """A command line or payload the CLI refuses: exit code 2, reported on stderr."""


class _Command(_Record):
    """One subcommand (or ``family-dim`` variant): its flags, result and handler.

    ``flags`` maps each flag to its payload kind when it is required, or to
    ``(kind, default)`` when it is optional.  ``handler`` takes the parsed
    values by flag name, ``--box-a`` as ``box_a``, and returns ``(result, notes)``.
    """

    __slots__ = _compared = _shown = ("flags", "result", "handler")

    def __init__(self, flags: dict, result: dict, handler: Callable[..., tuple[dict, list[str]]]) -> None:
        self._fill(flags, result, handler)


# The output format: what --schema prints for a divisor, a wall and a family
# report, beside the encoders that write them.
_DIVISOR_DOC = {"a": "int", "b": "int", "exc": "[int] of length points"}
_WALL_DOC = {"zeta": _DIVISOR_DOC, "zeta_sq": "int", "ell": "int", "zF": "int", "zL": "int"}
_REPORT_DOC = {
    "family_dim": "int", "moduli_dim": "int", "ext1": "int",
    "assumptions": [_DIVISOR_DOC], "dominance": "equal | less | exceeds",
}


def _divisor_doc(divisor: DivisorClass) -> dict:
    return {"a": divisor.a, "b": divisor.b, "exc": list(divisor.exc)}


def _wall_writer(a: int, exc: tuple[int, ...]) -> Callable[[int, int, int, int], str]:
    """The per-run wall maker of the CLI: for the run (a, exc), the function
    from a wall's (b, zeta^2, length, zeta.L) to its canonical JSON text of
    ``_WALL_DOC``, in sorted key order, with zeta.F = a.  The text fixed
    along the run, exc included, is formatted once."""
    z_f = f',"zF":{a},"zL":'
    z_a = f',"zeta":{{"a":{a},"b":'
    z_exc = f',"exc":[{",".join(map(str, exc))}]}},"zeta_sq":'
    return lambda b, z_sq, ell, z_l: f'{{"ell":{ell}{z_f}{z_l}{z_a}{b}{z_exc}{z_sq}}}'


class _JSONText(str):
    """JSON text a handler has already written, which ``_canonical`` copies
    as it is."""


def _wall_json(wall) -> _JSONText | None:
    """A ``walls.WallClass`` of a decision, or None, as ``_wall_writer`` writes it."""
    if wall is None:
        return None
    zeta = wall.zeta
    return _JSONText(_wall_writer(zeta.a, zeta.exc)(zeta.b, wall.zeta_sq, wall.ell, wall.zL))


def _walls_json(texts) -> _JSONText:
    """The JSON array of the walls' texts."""
    return _JSONText(f"[{','.join(texts)}]")


def _in_range(value):
    """value, after every int in it, through lists, tuples and dict values,
    is checked to lie in the 64-bit range."""
    stack = [value]
    while stack:
        item = stack.pop()
        if isinstance(item, int):
            if item < INT64_MIN or item > INT64_MAX:
                checked_int(item, "document integer")
        elif isinstance(item, dict):
            stack += item.values()
        elif isinstance(item, (list, tuple)):
            stack += item
    return value


def _canonical(value) -> str:
    """``json.dumps(value, sort_keys=True, separators=(",", ":"))``, except that
    ``_JSONText`` is copied as it is, and that an int outside the 64-bit
    range raises IntegerOverflowError.  Only dicts are walked: text inside
    a list is a JSON string, so only a handler's dict puts text in."""
    if type(value) is _JSONText:
        return value
    if isinstance(value, dict):
        return "{" + ",".join(f"{json.dumps(key)}:{_canonical(value[key])}" for key in sorted(value)) + "}"
    return json.dumps(_in_range(value), sort_keys=True, separators=(",", ":"))


# what --schema prints for each payload kind; a JSON object payload must have
# exactly the keys documented here
_KIND_DOCS = {
    "config": {"genus": "int >= 0", "e": "int (>= 0 when genus is 0)", "points": "int >= 0"},
    "divisor": _DIVISOR_DOC,
    "datum": {"d": "int", "r": "int", "q": "[int >= 0] of length points", "c1": _DIVISOR_DOC, "c2": "int"},
    "int": "int",
    "ints": "[int] (JSON array)",
}
# what the messages about a JSON object payload call it
_KIND_NAMES = {"config": "surface config", "divisor": "divisor class", "datum": "extension datum"}


def _spec(spec) -> tuple[str, bool, object]:
    """(kind, required, default) of a flag's table entry."""
    return (spec, True, None) if isinstance(spec, str) else (spec[0], False, spec[1])


def _fields(obj, kind: str) -> dict:
    """obj, checked to be a JSON object with exactly the keys of ``_KIND_DOCS[kind]``."""
    name, keys = _KIND_NAMES[kind], _KIND_DOCS[kind].keys()
    if not isinstance(obj, dict):
        raise ValueError(f"{name} must be a JSON object")
    unknown, missing = obj.keys() - keys, keys - obj.keys()
    if unknown:
        raise ValueError(f"{name} has unknown fields: {sorted(unknown)}")
    if missing:
        raise ValueError(f"{name} is missing fields: {sorted(missing)}")
    return obj


def _int(value, name: str) -> int:
    """A payload's integer field: JSON true and false are not integers, and
    the value must lie in the 64-bit range."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"field '{name}' must be an integer, got {value!r}")
    return checked_int(value, f"field '{name}'")


def _divisor(obj, config: SurfaceConfig) -> DivisorClass:
    obj = _fields(obj, "divisor")
    if not isinstance(obj["exc"], list):
        raise ValueError("divisor field 'exc' must be a list of integers")
    return DivisorClass(_int(obj["a"], "a"), _int(obj["b"], "b"),
                        tuple(_int(c, "exc entry") for c in obj["exc"]), config)


def _datum(obj, config: SurfaceConfig) -> ExtensionDatum:
    """Checked in the order keys, q a list, c1, c2, d, r, q entries, then the datum's own checks."""
    obj = _fields(obj, "datum")
    if not isinstance(obj["q"], list):
        raise ValueError("field 'q' must be a list of integers")
    chern = ChernData(_divisor(obj["c1"], config), _int(obj["c2"], "c2"))
    return ExtensionDatum(_int(obj["d"], "d"), _int(obj["r"], "r"),
                          tuple(_int(qi, "q entry") for qi in obj["q"]), chern)


def _parse(kind: str, text: str, flag: str, config: SurfaceConfig | None):
    """A flag's JSON text as a library object, an "int" flag's as a JSON integer
    (not 1_0, +5, 05 or a non-ASCII digit); every malformed payload and every
    integer outside the 64-bit range becomes a UsageError that names the flag."""
    try:
        value = json.loads(text)
    except json.JSONDecodeError as exc:
        if kind != "int":
            raise UsageError(f"{flag} is not valid JSON: {exc}") from exc
        value = None  # not a JSON integer, refused below
    except ValueError as exc:  # the decoder refuses an integer with too many digits to convert
        raise UsageError(f"{flag}: an integer is outside the signed 64-bit range ({exc})") from exc
    except RecursionError as exc:  # the decoder's depth is bounded by the recursion limit
        raise UsageError(f"{flag} is nested too deeply to parse") from exc
    if kind == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            raise UsageError(f"{flag} must be a JSON integer, got {text!r}")
        try:
            return checked_int(value, flag)
        except IntegerOverflowError as exc:
            raise UsageError(str(exc)) from exc
    if not isinstance(value, (dict, list)):
        raise UsageError(f"{flag} must be a JSON object or array")
    try:
        if kind == "ints":
            if not isinstance(value, list) or any(isinstance(x, bool) or not isinstance(x, int) for x in value):
                raise UsageError(f"{flag} must be a JSON array of integers")
            return tuple(checked_int(x, "entry") for x in value)
        if kind == "config":
            value = _fields(value, "config")
            return SurfaceConfig(_int(value["genus"], "genus"), _int(value["e"], "e"),
                                 _int(value["points"], "points"))
        return (_divisor if kind == "divisor" else _datum)(value, config)
    except (ValueError, IntegerOverflowError) as exc:
        raise UsageError(f"{flag}: {exc}") from exc


# Each handler imports the engine it calls (walls, families, stability) when it
# runs, so a one-shot process compiles only the modules its subcommand needs.
def _twist(config, c1, c2, t):
    twisted = invariants.chern_twist(ChernData(c1, c2), t)
    return {"c1": _divisor_doc(twisted.c1), "c2": twisted.c2, "discriminant": twisted.discriminant}, []


def _invariants(config, datum):
    c1, c2 = datum.chern.c1, datum.chern.c2
    return {
        "zeta": _divisor_doc(invariants.zeta_class(datum)),
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
    from . import walls

    chern, pol = ChernData(c1, c2), Polarization(polarization)
    found, boundary = walls._ordered_walls(config, chern, pol, _wall_writer)
    return {
        "walls": _walls_json(found),
        "boundary": _walls_json(boundary),
        "excluded_negative_length": walls.WallSearch.excluded_negative_length,
    }, []


def _suitable(config, c1, c2, polarization):
    from . import walls

    verdict = walls.is_suitable(config, ChernData(c1, c2), Polarization(polarization))
    return {
        "suitable": verdict.suitable,
        "witness": _wall_json(verdict.witness),
        "boundary": _walls_json(map(_wall_json, verdict.boundary)),
    }, _boundary_notes(verdict.boundary)


def _certify_dv0(config, c1, c2, polarization):
    from . import walls

    certificate = walls.certify_dv_zero(config, ChernData(c1, c2), Polarization(polarization))
    return {
        "certified": certificate.certified,
        "d": certificate.d_value,
        "witness": _wall_json(certificate.separating_wall),
    }, _boundary_notes(certificate.boundary)


def _family_report(report):
    """A ``families.FamilyReport`` as its document, with a note when the family exceeds the moduli."""
    doc = {
        "family_dim": report.family_dim,
        "moduli_dim": report.moduli_dim,
        "ext1": report.ext1,
        "assumptions": [_divisor_doc(a.divisor) for a in report.assumptions],
        "dominance": report.dominance.value,
    }
    if doc["dominance"] != "exceeds":
        return doc, []
    return doc, ["family dimension exceeds the moduli dimension; the input data is inconsistent with a dominating family"]


def _c1f0(g, eta, m, n, eps, r1, h0, e, ell):
    from . import families

    return _family_report(families.c1f0_report(SurfaceConfig(g, e, m), eta, n, eps, r1, ell, h0))


def _c1f1(g, e, beta, rho, c2):
    from . import families

    return _family_report(families.c1f1_report(SurfaceConfig(g, e, rho), beta, c2))


def _example(n, e):
    from . import families

    dims = families.reference_family_dims(n, e)
    return {"dim": dims.family_dim, "ext1": dims.ext1, "h0VD": dims.h0_twist}, []


def _maximize(g, eta, m, n, eps):
    from . import families

    best = families.maximize_family_dim(g, eta, m, n, eps)
    return {"r1": best.r1, "ell": list(best.ell), "h0": best.h0, "value": best.value}, []


def _moduli_dim(config, c1, c2):
    from . import families

    return {"dim": families.moduli_dim(config, ChernData(c1, c2))}, []


def _classify(config, c1, c2):
    from . import families

    shape = families.classify_structure(config, ChernData(c1, c2))
    return {"kind": shape.kind.value, "rationality": shape.rationality.value,
            "hilbert_exponent": shape.hilbert_exponent, "description": shape.description}, []


def _stability(config, sub, quot, ell, polarization, box_a, box_b, box_exc):
    from . import stability

    pol = Polarization(polarization)
    bounds = (box_a, box_b, box_exc)
    box = None
    if bounds != (None, None, None):
        if None in bounds:
            raise UsageError("--box-a, --box-b and --box-exc must be given together")
        box = stability.SearchBox(*bounds)
    verdict = stability.destabilizer_search(config, sub, quot, ell, pol, box)
    candidates = [{
        "a": _divisor_doc(c.divisor),
        "branch": c.branch,
        "effectivity": {"verdict": c.effectivity.verdict.value, "decomposition": c.effectivity.decomposition,
                        "violated": c.effectivity.violated},
        "slope_margin": [c.margin_times_two, 2],
        "pruned": c.pruned,
    } for c in verdict.candidates]
    box = verdict.box
    return {"verdict": verdict.verdict.value, "candidates": candidates,
            "box": {"a": box.section_bound, "b": box.fiber_bound, "exc": box.exceptional_bound},
            "notes": list(verdict.notes)}, []


# The config comes first in every flag list: divisors and data need it to parse.
_CHERN_FLAGS = {"--config": "config", "--c1": "divisor", "--c2": "int"}
_WALL_FLAGS = {**_CHERN_FLAGS, "--polarization": "divisor"}
_FAMILY_FLAGS = {"--g": "int", "--eta": "int", "--m": "int", "--n": "int", "--eps": "int"}

# One entry per subcommand, and one per variant under "family-dim", in the
# order --help lists them.
COMMANDS: dict[str, _Command | dict[str, _Command]] = {
    "rr": _Command({"--config": "config", "--divisor": "divisor"}, {"chi": "int"},
                   lambda config, divisor: ({"chi": euler_char(config, divisor)}, [])),
    "intersect": _Command({"--config": "config", "--d1": "divisor", "--d2": "divisor"}, {"value": "int"},
                          lambda config, d1, d2: ({"value": intersect(d1, d2)}, [])),
    "canonical": _Command({"--config": "config"}, {"divisor": _DIVISOR_DOC},
                          lambda config: ({"divisor": _divisor_doc(canonical_class(config))}, [])),
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
    "certify-dv0": _Command(_WALL_FLAGS, {"certified": "bool (c1.a even)",
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
    "moduli-dim": _Command(_CHERN_FLAGS, {"dim": "int"}, _moduli_dim),
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
        flags[flag] = {"payload": _KIND_DOCS[kind], "required": required} | ({} if required else {"default": default})
    return {"flags": flags, "result": entry.result}


def _take(argv: list[str], at: int, flags, texts: dict[str, str]) -> int:
    """Read the pair ``flag VALUE`` at ``argv[at]`` into texts and return the
    position after it; the flag must be one of flags and not yet in texts."""
    flag = argv[at]
    if flag not in flags:
        raise UsageError(f"unknown flag {flag!r}")
    if flag in texts:
        raise UsageError(f"{flag} is given more than once")
    if at + 1 == len(argv):
        raise UsageError(f"{flag} requires a value")
    texts[flag] = argv[at + 1]
    return at + 2


def _execute(command: _Command, texts: dict[str, str]) -> tuple[dict, list[str]]:
    """Parse the command's flag texts in table order, an omitted optional flag
    taking its table default, and run its handler."""
    values: dict = {}
    for flag, spec in command.flags.items():
        dest = flag[2:].replace("-", "_")
        kind, _, default = _spec(spec)
        values[dest] = default if flag not in texts else _parse(kind, texts[flag], flag, values.get("config"))
    return command.handler(**values)


def run(argv: list[str] | None = None) -> int:
    """Read argv against ``COMMANDS``, run one subcommand, write the JSON document; returns the exit code."""
    argv = sys.argv[1:] if argv is None else list(argv)
    hint = known = f"known subcommands: {', '.join(sorted(COMMANDS))}"
    if "-h" in argv or "--help" in argv:  # written in one piece, like a document, for a reader that stops early
        names = (f"{name} {' | '.join(entry)}" if isinstance(entry, dict) else name for name, entry in COMMANDS.items())
        usage = "usage: ruledmoduli [--schema SUBCOMMAND] [--output PATH] SUBCOMMAND [VARIANT] [--FLAG VALUE ...]"
        sys.stdout.write(f"{usage}\n\n{__doc__}\nsubcommands:\n" + "".join(f"  {name}\n" for name in names))
        return 0
    try:
        texts: dict[str, str] = {}  # --schema and --output first, then the subcommand's flags
        at = 0
        while at < len(argv) and argv[at] in ("--schema", "--output"):
            at = _take(argv, at, ("--schema", "--output"), texts)
        schema_name, output_path = texts.get("--schema"), texts.get("--output")
        subcommand = argv[at] if at < len(argv) else None
        if subcommand is not None:
            if subcommand not in COMMANDS:
                raise UsageError(f"unknown subcommand {subcommand!r}")
            hint = f"run 'ruledmoduli --schema {subcommand}' for payload schemas"
            command, at = COMMANDS[subcommand], at + 1
            if isinstance(command, dict):
                if at == len(argv) or argv[at] not in command:
                    raise UsageError(f"{subcommand} requires a variant: {' | '.join(command)}")
                command, at = command[argv[at]], at + 1
            while at < len(argv):
                at = _take(argv, at, command.flags, texts)
            missing = [flag for flag, spec in command.flags.items() if _spec(spec)[1] and flag not in texts]
            if missing:
                raise UsageError(f"the following flags are required: {', '.join(missing)}")
        if schema_name is not None or subcommand is None:
            hint = known
            if schema_name is None:
                raise UsageError("a subcommand is required")
            if schema_name not in COMMANDS:
                raise UsageError(f"no schema for {schema_name!r}")
            text, code = _canonical({"subcommand": schema_name, "schema": _schema(COMMANDS[schema_name])}), 0
        else:
            try:
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    result, notes = _execute(command, texts)
                notes.extend(str(w.message) for w in caught)
                # family reports carry their vanishing assumptions; the envelope repeats them
                assumptions = list(result.get("assumptions", []))
                doc = {"status": "ok", "result": result, "assumptions": assumptions, "warnings": notes}
                text, code = _canonical(doc), 0  # the writer's range check can still refuse it
            except (RuledModuliError, ValueError) as exc:
                error = {"type": type(exc).__name__, "message": str(exc)}
                warned = [str(w.message) for w in caught]
                text = _canonical({"status": "error", "error": error, "assumptions": [], "warnings": warned})
                code = 1
        text += "\n"
        if output_path:  # opened only now, so a usage error leaves no file behind
            try:
                handle = open(output_path, "w", encoding="utf-8")
            except OSError as exc:
                raise UsageError(f"--output: {exc.strerror}: {output_path}") from exc
            with handle:
                handle.write(text)
        else:
            sys.stdout.write(text)
        return code
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        print(hint, file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
