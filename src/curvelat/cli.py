r"""
Command line interface.

Reads a curve from a JSON file of the shape

    {"truncation": 32, "branches": [{"x": "t^2", "y": "t^3"}]}

and prints invariants, Hilbert values and grids, the semigroup
membership grid, series, graded homology, or runs the
self-verification battery.

Each command is a function ``(curve, args) -> (payload, lines)``, and
``main`` is the one output path: it loads the curve, calls the command
and prints the JSON payload (``--format json``, which ``verify`` lacks)
or the lines one by one, so ``verify``'s generator of stage lines
prints each line as its stage finishes.
Schema and argument problems exit with status 2; computation errors
exit with status 1 and a line "ErrorName: message" on stderr.
"""

import argparse
import json
import sys
from itertools import chain

from . import verify
from .curve import BranchParametrization, Curve
from .errors import CurvelatError, CurveSchemaError
from .hilbert import box_points, build_table, invariants, semigroup
from .latthom import graded_pieces, grv_homology
from .series import (alexander, canonical_str, motivic_normalized,
                     poincare_from_hilbert)


def load_curve(path):
    r"""
    Read and validate a curve description from a JSON file.

    Parameters
    ----------
    path : str

    Returns
    -------
    Curve

    Raises CurveSchemaError when the file is not valid JSON or does
    not have the expected shape; parametrization problems raise the
    usual computation errors.
    """
    with open(path, "r") as handle:
        text = handle.read()
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise CurveSchemaError("%s: invalid JSON: %s" % (path, exc))
    if not isinstance(data, dict):
        raise CurveSchemaError("%s: top level must be an object" % path)
    truncation = data.get("truncation")
    if not isinstance(truncation, int) or isinstance(truncation, bool) \
            or truncation < 1:
        raise CurveSchemaError(
            "%s: truncation: expected a positive integer" % path)
    branches = data.get("branches")
    if not isinstance(branches, list) or not branches:
        raise CurveSchemaError(
            "%s: branches: expected a nonempty list" % path)
    built = []
    for i, branch in enumerate(branches):
        if not isinstance(branch, dict):
            raise CurveSchemaError(
                "%s: branches[%d]: expected an object" % (path, i))
        for key in ("x", "y"):
            if not isinstance(branch.get(key), str):
                raise CurveSchemaError(
                    "%s: branches[%d].%s: expected a string"
                    % (path, i, key))
        built.append(BranchParametrization.from_strings(
            branch["x"], branch["y"], truncation))
    return Curve(built)


def _join(values, sep=" "):
    return sep.join(str(a) for a in values)


def _parse_point(text, r, flag):
    # the point given to --at (any integers) or to --box (nonnegative)
    try:
        v = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ValueError(
            "expected comma-separated integers, got %r" % text)
    box = flag == "--box"
    if len(v) != r or box and min(v) < 0:
        raise ValueError("%s needs %d %scoordinates"
                         % (flag, r, "nonnegative " if box else ""))
    return v


def _box(curve, text, margin):
    # the parsed --box, or the conductor plus margin when it is not given
    if text is None:
        return tuple(c + margin for c in invariants(curve).conductor)
    return _parse_point(text, curve.r, "--box")


def _grid(box, cells):
    # cells maps every point of [0, box] to its text: one row for one
    # branch, rows from the top for two, one line per point otherwise
    if len(box) == 1:
        return [" ".join(cells[(a,)] for a in range(box[0] + 1))]
    if len(box) == 2:
        width = max(len(text) for text in cells.values())
        return [" ".join(cells[(a, b)].rjust(width)
                         for a in range(box[0] + 1))
                for b in range(box[1], -1, -1)]
    return ["%s: %s" % (_join(v, ","), cells[v]) for v in box_points(box)]


def _render_groups(groups):
    if not groups.groups:
        return "0"
    parts = []
    for q in sorted(groups.groups, reverse=True):
        rank, torsion = groups.groups[q]
        bits = ["Z" if rank == 1 else "Z^%d" % rank] if rank else []
        bits += ["Z/%d" % t for t in torsion]
        parts.append("%s@%d" % ("+".join(bits), q))
    return " ".join(parts)


def _groups_payload(groups):
    return {str(q): {"rank": rank, "torsion": list(torsion)}
            for q, (rank, torsion) in groups.groups.items()}


def _cmd_invariants(curve, args):
    inv = invariants(curve)
    lines = ["r: %d" % inv.r,
             "delta: %d" % inv.delta,
             "delta_branches: " + _join(inv.delta_branches),
             "mu: %d" % inv.mu,
             "mu_branches: " + _join(inv.mu_branches)]
    lines += ["pairwise[%d]: %s" % (i, _join(row))
              for i, row in enumerate(inv.pairwise)]
    lines.append("conductor: " + _join(inv.conductor))
    return inv._asdict(), lines


def _cmd_value(curve, args):
    v = _parse_point(args.at, curve.r, "--at")
    value = build_table(curve).value(v)
    return {"at": list(v), "value": value}, [str(value)]


def _cmd_hilbert(curve, args):
    box = _box(curve, args.box, 2)
    table = build_table(curve, box)
    values = dict(zip(box_points(box), table.grid(box)))
    payload = {"box": list(box),
               "values": {_join(v, ","): n for v, n in values.items()}}
    return payload, _grid(box, {v: str(n) for v, n in values.items()})


def _cmd_semigroup(curve, args):
    box = _box(curve, args.box, 1)
    table = build_table(curve, box)
    members = semigroup(table, box)
    conductor = table.invariants.conductor
    payload = {"box": list(box), "conductor": list(conductor),
               "members": [list(v) for v in members]}
    member_set = set(members)
    lines = _grid(box, {v: "*" if v in member_set else "."
                        for v in box_points(box)})
    return payload, lines + ["conductor: " + _join(conductor)]


def _cmd_series(curve, args):
    if args.kind == "motivic":
        series = motivic_normalized(build_table(curve))
    else:
        box = _box(curve, None, 2)
        table = build_table(curve, box)
        series = poincare_from_hilbert(table, box)
        if args.kind == "alexander":
            series = alexander(table, series)
    text = canonical_str(series)
    terms = [{"v": list(v), "q": m, "c": c}
             for (v, m), c in sorted(series.coeffs.items())]
    return {"kind": args.kind, "canonical": text, "terms": terms}, [text]


def _cmd_homology(curve, args):
    if (args.at is None) == (args.box is None):
        raise ValueError("exactly one of --at or --box is required")
    if args.at is not None:
        v = _parse_point(args.at, curve.r, "--at")
        groups = grv_homology(build_table(curve), v)
        return ({"at": list(v), "groups": _groups_payload(groups)},
                [_render_groups(groups)])
    box = _parse_point(args.box, curve.r, "--box")
    table = build_table(curve)
    points = graded_pieces(table, box)
    payload = {"box": list(box),
               "points": {_join(v, ","): _groups_payload(g)
                          for v, g in points.items()}}
    return payload, ["%s: %s" % (_join(v, ","), _render_groups(g))
                     for v, g in points.items()]


def _cmd_verify(curve, args):
    # a generator: each stage line prints as its stage finishes
    stages = ("%s %s" % record for record in verify.run(curve, args.deep))
    return None, chain(stages, ["all checks passed"])


def _arg(*flags, **keywords):
    return flags, keywords


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="curvelat",
        description="invariants of plane curve branches from their "
                    "parametrizations")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, *arguments):
        p = sub.add_parser(name, help=help_text)
        for flags, keywords in arguments:
            p.add_argument(*flags, **keywords)
        p.set_defaults(func=func)

    curve = _arg("curve", help="path to a curve JSON file")
    fmt = _arg("--format", choices=("table", "json"), default="table")
    add("invariants", _cmd_invariants,
        "delta, Milnor number, pairwise numbers, conductor", curve, fmt)
    add("value", _cmd_value, "single Hilbert value", curve,
        _arg("--at", required=True, metavar="V",
             help="lattice point, comma separated"), fmt)
    add("hilbert", _cmd_hilbert, "grid of Hilbert values", curve,
        _arg("--box", metavar="B", help="grid corner, comma separated"),
        fmt)
    add("semigroup", _cmd_semigroup,
        "value semigroup membership grid and conductor", curve,
        _arg("--box", metavar="B", help="search corner, comma separated"),
        fmt)
    add("series", _cmd_series, "poincare, motivic, or alexander series",
        _arg("kind", choices=("poincare", "motivic", "alexander")), curve,
        fmt)
    add("homology", _cmd_homology, "graded lattice homology", curve,
        _arg("--at", metavar="V",
             help="single lattice point, comma separated"),
        _arg("--box", metavar="B", help="report every point of the box"),
        fmt)
    add("verify", _cmd_verify, "run the self-verification battery", curve,
        _arg("--deep", action="store_true",
             help="wider boxes and more sublevel levels"))
    return parser


def main(argv=None):
    r"""Run one command line and return its exit status."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        payload, lines = args.func(load_curve(args.curve), args)
        if getattr(args, "format", None) == "json":
            payload["schema"] = 1
            print(json.dumps(payload, sort_keys=True, indent=2))
        else:
            for line in lines:
                print(line)
    except CurveSchemaError as exc:
        print("CurveSchemaError: %s" % exc, file=sys.stderr)
        return 2
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except CurvelatError as exc:
        print("%s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 1
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
