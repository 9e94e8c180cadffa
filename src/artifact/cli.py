"""Command line interface.

Subcommands: diagrams, generators, census, classify, canonical, verify.
JSON output is an envelope {"result": ..., "seed": ...} printed with
sorted keys so reruns are byte-identical.  Exit codes: 0 success,
1 failed check or exceeded budget, 2 usage error, which includes a diagram
whose column reduction is not supported (``UnsupportedColumn``: three n = 8
diagrams, met by ``generators`` and by the ideal and polarization suites,
which name all three on one line) and a diagram whose ideal ``build_ideal``
refuses (``NotMaximal``, ``UnsupportedIdealShape``), named by its label.
Each distinct warning, such as a catalog outside the cross-checked range,
is one ``warning:`` line on stderr.
"""
from __future__ import annotations

import argparse
import json
import sys
import warnings
from contextlib import contextmanager
from fractions import Fraction
from typing import Dict, Iterator, List, Optional

from .admissible import dimension, enumerate_maximal, render_diagram
from .orbit_engine import (
    BudgetExceeded,
    ClassificationMismatch,
    InvalidInput,
    LinearForm,
    _check_prime,
    _digits,
    _row_form,
    all_orbits,
    canonical_form,
    census,
    classify,
    polarization,
    stratum,
    subregular_classify,
    verify_polarization,
)
from .root_system import InvalidDimension, check_dimension, \
    root_from_text, root_to_text
from .symbolic import NotMaximal, UnsupportedColumn, \
    UnsupportedIdealShape, build_ideal, canonical_pairs, is_poisson_ideal, \
    poly_text

__all__ = ["main"]


class UsageError(ValueError):
    pass


class CheckFailure(RuntimeError):
    pass


def _diagram_by_label(n: int, label_text: str):
    try:
        label = tuple(int(x) for x in label_text.split(","))
    except ValueError as exc:
        raise UsageError(f"bad label {label_text!r}") from exc
    for s in enumerate_maximal(n):
        if s.label == label:
            return s
    raise UsageError(f"no diagram labelled {label_text!r} for n={n}")


def _label_text(s) -> str:
    return ",".join(str(x) for x in s.label)


def _ideal(s):
    """``build_ideal(s)``, a refusal raised as a usage error that names the
    diagram's label."""
    try:
        return build_ideal(s, None)
    except (NotMaximal, UnsupportedIdealShape) as exc:
        raise UsageError(f"diagram {_label_text(s)}: {exc}") from exc


def _parse_values(raw: str) -> Dict:
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise UsageError(f"bad JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise UsageError("values must be a JSON object")
    out = {}
    for key, val in doc.items():
        try:
            root = root_from_text(key)
        except ValueError as exc:
            raise UsageError(f"bad root key {key!r}") from exc
        # bool subclasses int, but JSON true/false are not values.
        if not isinstance(val, int) or isinstance(val, bool):
            raise UsageError(f"value for {key!r} must be an integer")
        out[root] = val
    return out


def _scalar_json(v):
    if isinstance(v, Fraction):
        return int(v) if v.denominator == 1 else str(v)
    return int(v)


# --- subcommands ---------------------------------------------------------

def _cmd_diagrams(args) -> object:
    entries = []
    for s in enumerate_maximal(args.n):
        entries.append({
            "label": _label_text(s),
            "dim": dimension(s),
            "rows": render_diagram(s),
            "sequence": [root_to_text(r) for r in s.xi],
        })
    if args.json:
        return entries
    lines = []
    for e in entries:
        lines.append(f"label {e['label']}  dim {e['dim']}")
        lines.extend(e["rows"])
        lines.append("")
    return "\n".join(lines)


def _cmd_generators(args) -> object:
    s = _diagram_by_label(args.n, args.label)
    handle = _ideal(s)
    texts = [poly_text(g) for g in handle.generators]
    if args.json:
        return {"label": _label_text(s), "generators": texts}
    return "\n".join(texts)


def _cmd_census(args) -> object:
    report = census(args.n, args.p)
    if args.json:
        return report
    lines = [f"census n={args.n} p={args.p}"]
    for row in report["orbits"]:
        lines.append(
            f"  {row['label']}: {row['count']} orbits of dim {row['dim']}")
    lines.append(f"  point_sum_ok={report['identities']['point_sum_ok']}"
                 f" formula_ok={report['identities']['formula_ok']}")
    return "\n".join(lines)


def _cmd_classify(args) -> object:
    values = _parse_values(args.values)
    f = LinearForm(args.n, args.p, values)
    s, c = classify(f)
    result = {
        "label": _label_text(s),
        "c": {root_to_text(r): _scalar_json(v) for r, v in c.items()},
        "dim": dimension(s),
    }
    if args.json:
        return result
    return (f"label {result['label']} dim {result['dim']} "
            f"c {json.dumps(result['c'], sort_keys=True)}")


def _cmd_canonical(args) -> object:
    s = _diagram_by_label(args.n, args.label)
    c = _parse_values(args.c)
    try:
        f = canonical_form(s, c, p=args.p)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    values = {root_to_text(r): _scalar_json(v)
              for r, v in f.values.items()}
    result = {"label": _label_text(s), "values": values}
    if args.json:
        return result
    return json.dumps(values, sort_keys=True)


def _generic_constants(s):
    return {r: Fraction(k + 1) for k, r in enumerate(s.xi)}


def _supported_catalog(n: int):
    """The catalog for n, once no diagram of it is unsupported; those that
    are, whose columns do not reduce, are refused together as one
    ``UnsupportedColumn`` before any diagram is checked."""
    diagrams = enumerate_maximal(n)
    unsupported = []
    for s in diagrams:
        try:
            canonical_pairs(s)
        except UnsupportedColumn as exc:
            unsupported.append(str(exc))
    if unsupported:
        raise UnsupportedColumn("; ".join(unsupported))
    return diagrams


def _verify_polarizations(args) -> int:
    diagrams = _supported_catalog(args.n)
    for s in diagrams:
        pol = polarization(s)
        f = canonical_form(s, _generic_constants(s), p=None)
        if not verify_polarization(pol, f):
            raise CheckFailure(f"polarization fails for {s.label}")
    return len(diagrams)


def _verify_ideals(args) -> int:
    diagrams = _supported_catalog(args.n)
    for s in diagrams:
        if not is_poisson_ideal(_ideal(s)):
            raise CheckFailure(f"ideal of {s.label} is not Poisson-closed")
    return len(diagrams)


def _verify_census(args) -> int:
    report = census(args.n, args.p)
    if not report["identities"]["point_sum_ok"]:
        raise CheckFailure("point-count identity fails")
    if not report["identities"]["formula_ok"]:
        raise CheckFailure("per-label count formula fails")
    return len(report["orbits"])


def _verify_strata(args) -> int:
    # A code's n - 1 leading digits are the first-column roots (n,1), ...,
    # (2,1), and the stratum counts their leading zeros, so it can only fall
    # as the code grows: it is constant on an orbit when its two ends agree.
    n, p = args.n, args.p
    orbits = all_orbits(n, p)
    for orbit in orbits:
        first, last = _digits(orbit.codes[[0, -1]], n, p).tolist()
        if stratum(_row_form(n, p, first)) != stratum(_row_form(n, p, last)):
            raise CheckFailure("stratum is not constant on an orbit")
    return len(orbits)


def _verify_subregular(args) -> int:
    n, p = args.n, args.p
    if n < 3:
        # The subregular dimension N - floor(n/2) - 2 is negative.
        raise UsageError(
            f"suite subregular needs n >= 3: no subregular orbit exists "
            f"for n={n}")
    total = n * (n - 1) // 2
    target = total - n // 2 - 2
    checks = 0
    for s in enumerate_maximal(n):
        if dimension(s) != target:
            continue
        c = {r: 1 for r in s.xi}
        f = canonical_form(s, c, p=p)
        rec = subregular_classify(f)
        if not rec.cuts_exactly:
            raise CheckFailure(
                f"subregular system of {s.label} does not cut its orbit")
        checks += 1
    if checks == 0:
        raise CheckFailure(f"no subregular diagrams for n={n}")
    return checks


_SUITES = {
    "polarizations": _verify_polarizations,
    "ideals": _verify_ideals,
    "census": _verify_census,
    "strata": _verify_strata,
    "subregular": _verify_subregular,
}


def _cmd_verify(args) -> object:
    checks = _SUITES[args.suite](args)
    result = {"suite": args.suite, "checks": checks, "ok": True}
    if args.json:
        return result
    return f"suite {args.suite}: {checks} checks passed"


# --- parser and dispatch --------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="artifact",
        description="Coadjoint-orbit diagrams, ideals, and censuses for "
                    "lower unitriangular groups.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true",
                       help="emit a JSON envelope")
        p.add_argument("--seed", type=int, default=None,
                       help="recorded in the JSON envelope")
        p.add_argument("--out", default=None,
                       help="write output to this file instead of stdout")

    p = sub.add_parser("diagrams", help="list maximal diagrams")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--maximal-only", action="store_true",
                   help="accepted for compatibility; listing is already "
                        "maximal-only")
    common(p)
    p.set_defaults(func=_cmd_diagrams)

    p = sub.add_parser("generators", help="defining ideal of a diagram")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--label", required=True)
    common(p)
    p.set_defaults(func=_cmd_generators)

    p = sub.add_parser("census", help="orbit census over a finite field")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    common(p)
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("classify", help="classify a point's orbit")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--values", required=True,
                   help='JSON object {"row,col": value, ...}')
    common(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("canonical", help="canonical form of a family")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--label", required=True)
    p.add_argument("--c", required=True,
                   help='JSON object {"row,col": value, ...}')
    p.add_argument("--p", type=int, default=None)
    common(p)
    p.set_defaults(func=_cmd_canonical)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True, choices=sorted(_SUITES))
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--p", type=int, default=2)
    common(p)
    p.set_defaults(func=_cmd_verify)

    return parser


def _emit(args, payload: object) -> None:
    if getattr(args, "json", False):
        doc = {"result": payload, "seed": getattr(args, "seed", None)}
        text = json.dumps(doc, sort_keys=True, indent=2)
    else:
        text = payload if isinstance(payload, str) else str(payload)
    out_path = getattr(args, "out", None)
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise UsageError(
                f"cannot write {out_path}: {exc.strerror or exc}") from exc
    else:
        print(text)


@contextmanager
def _one_line_warnings() -> Iterator[None]:
    """Print each distinct warning raised inside once, as one ``warning:``
    line on stderr, when the block ends or fails."""
    with warnings.catch_warnings(record=True) as caught:
        try:
            yield
        finally:
            for text in dict.fromkeys(str(w.message) for w in caught):
                print(f"warning: {text}", file=sys.stderr)


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        with _one_line_warnings():
            check_dimension(args.n)
            if getattr(args, "p", None) is not None:
                _check_prime(args.p)
            payload = args.func(args)
        _emit(args, payload)
    except (UsageError, InvalidDimension, InvalidInput,
            UnsupportedColumn) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 1
    except (CheckFailure, ClassificationMismatch) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
