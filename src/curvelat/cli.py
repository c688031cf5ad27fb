r"""
Command line interface.

Reads a curve from a JSON file of the shape

    {"truncation": 32, "branches": [{"x": "t^2", "y": "t^3"}]}

and prints invariants, Hilbert values and grids, the semigroup
membership grid, series, graded homology, or runs the
self-verification battery.
Schema and argument problems exit with status 2; computation errors
exit with status 1 and a line "ErrorName: message" on stderr.
"""

import argparse
import json
import sys

from . import verify
from .curve import BranchParametrization, Curve
from .errors import CurvelatError, CurveSchemaError
from .hilbert import box_points, build_table, invariants, semigroup
from .latthom import grv_homology
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
    except json.JSONDecodeError as exc:
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


def _parse_point(text):
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ValueError(
            "expected comma-separated integers, got %r" % text)


def _point_key(v):
    return ",".join(str(a) for a in v)


def _print_json(payload):
    payload["schema"] = 1
    print(json.dumps(payload, sort_keys=True, indent=2))


def _render_groups(groups):
    if not groups.groups:
        return "0"
    parts = []
    for q in sorted(groups.groups, reverse=True):
        rank, torsion = groups.groups[q]
        bits = []
        if rank == 1:
            bits.append("Z")
        elif rank > 1:
            bits.append("Z^%d" % rank)
        bits.extend("Z/%d" % t for t in torsion)
        parts.append("%s@%d" % ("+".join(bits), q))
    return " ".join(parts)


def _groups_payload(groups):
    return {str(q): {"rank": rank, "torsion": list(torsion)}
            for q, (rank, torsion) in groups.groups.items()}


def _series_payload(series):
    terms = []
    for (v, m) in sorted(series.coeffs):
        terms.append({"v": list(v), "q": m,
                      "c": series.coeffs[(v, m)]})
    return {"canonical": canonical_str(series), "terms": terms}


def _cmd_invariants(args):
    curve = load_curve(args.curve)
    inv = invariants(curve)
    if args.format == "json":
        _print_json({
            "r": inv.r,
            "delta": inv.delta,
            "delta_branches": list(inv.delta_branches),
            "mu": inv.mu,
            "mu_branches": list(inv.mu_branches),
            "pairwise": [list(row) for row in inv.pairwise],
            "conductor": list(inv.conductor),
        })
    else:
        print("r: %d" % inv.r)
        print("delta: %d" % inv.delta)
        print("delta_branches: %s"
              % " ".join(str(d) for d in inv.delta_branches))
        print("mu: %d" % inv.mu)
        print("mu_branches: %s"
              % " ".join(str(m) for m in inv.mu_branches))
        for i, row in enumerate(inv.pairwise):
            print("pairwise[%d]: %s" % (i, " ".join(str(x) for x in row)))
        print("conductor: %s" % " ".join(str(c) for c in inv.conductor))
    return 0


def _cmd_value(args):
    curve = load_curve(args.curve)
    v = _parse_point(args.at)
    if len(v) != curve.r:
        raise ValueError("--at needs %d coordinates" % curve.r)
    table = build_table(curve)
    value = table.value(v)
    if args.format == "json":
        _print_json({"at": list(v), "value": value})
    else:
        print(value)
    return 0


def _cmd_hilbert(args):
    curve = load_curve(args.curve)
    inv = invariants(curve)
    if args.box is None:
        box = tuple(c + 2 for c in inv.conductor)
    else:
        box = _parse_point(args.box)
        if len(box) != curve.r or any(b < 0 for b in box):
            raise ValueError("--box needs %d nonnegative coordinates"
                             % curve.r)
    table = build_table(curve, box)
    values = {v: table.value(v) for v in box_points(box)}
    if args.format == "json":
        _print_json({"box": list(box),
                     "values": {_point_key(v): n
                                for v, n in values.items()}})
        return 0
    if curve.r == 1:
        print(" ".join(str(values[(a,)]) for a in range(box[0] + 1)))
    elif curve.r == 2:
        width = max(len(str(n)) for n in values.values())
        for b in range(box[1], -1, -1):
            row = [str(values[(a, b)]).rjust(width)
                   for a in range(box[0] + 1)]
            print(" ".join(row))
    else:
        for v in sorted(values):
            print("%s: %d" % (_point_key(v), values[v]))
    return 0


def _cmd_semigroup(args):
    curve = load_curve(args.curve)
    inv = invariants(curve)
    if args.box is None:
        box = tuple(c + 1 for c in inv.conductor)
    else:
        box = _parse_point(args.box)
        if len(box) != curve.r or any(b < 0 for b in box):
            raise ValueError("--box needs %d nonnegative coordinates"
                             % curve.r)
    members = semigroup(build_table(curve, box), box)
    if args.format == "json":
        _print_json({"box": list(box),
                     "conductor": list(inv.conductor),
                     "members": [list(v) for v in members]})
        return 0
    member_set = set(members)
    if curve.r == 1:
        print(" ".join("*" if (a,) in member_set else "."
                       for a in range(box[0] + 1)))
    elif curve.r == 2:
        for b in range(box[1], -1, -1):
            print(" ".join("*" if (a, b) in member_set else "."
                           for a in range(box[0] + 1)))
    else:
        for v in box_points(box):
            print("%s: %s" % (_point_key(v),
                              "*" if v in member_set else "."))
    print("conductor: %s" % " ".join(str(c) for c in inv.conductor))
    return 0


def _cmd_series(args):
    curve = load_curve(args.curve)
    if args.kind == "motivic":
        series = motivic_normalized(build_table(curve))
    else:
        box = tuple(c + 2 for c in invariants(curve).conductor)
        table = build_table(curve, box)
        if args.kind == "poincare":
            series = poincare_from_hilbert(table, box)
        else:
            series = alexander(table)
    if args.format == "json":
        payload = _series_payload(series)
        payload["kind"] = args.kind
        _print_json(payload)
    else:
        print(canonical_str(series))
    return 0


def _cmd_homology(args):
    curve = load_curve(args.curve)
    if (args.at is None) == (args.box is None):
        raise ValueError("exactly one of --at or --box is required")
    table = build_table(curve)
    if args.at is not None:
        v = _parse_point(args.at)
        if len(v) != curve.r:
            raise ValueError("--at needs %d coordinates" % curve.r)
        groups = grv_homology(table, v)
        if args.format == "json":
            _print_json({"at": list(v),
                         "groups": _groups_payload(groups)})
        else:
            print(_render_groups(groups))
        return 0
    box = _parse_point(args.box)
    if len(box) != curve.r or any(b < 0 for b in box):
        raise ValueError("--box needs %d nonnegative coordinates"
                         % curve.r)
    points = {v: grv_homology(table, v) for v in box_points(box)}
    if args.format == "json":
        _print_json({"box": list(box),
                     "points": {_point_key(v): _groups_payload(g)
                                for v, g in points.items()}})
    else:
        for v in sorted(points):
            print("%s: %s" % (_point_key(v), _render_groups(points[v])))
    return 0


def _cmd_verify(args):
    for status, stage in verify.run(load_curve(args.curve), args.deep):
        print("%s %s" % (status, stage))
    print("all checks passed")
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="curvelat",
        description="invariants of plane curve branches from their "
                    "parametrizations")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("curve", help="path to a curve JSON file")
        p.set_defaults(func=func)
        return p

    p = add("invariants", _cmd_invariants,
            "delta, Milnor number, pairwise numbers, conductor")
    p.add_argument("--format", choices=("table", "json"), default="table")

    p = add("value", _cmd_value, "single Hilbert value")
    p.add_argument("--at", required=True, metavar="V",
                   help="lattice point, comma separated")
    p.add_argument("--format", choices=("table", "json"), default="table")

    p = add("hilbert", _cmd_hilbert, "grid of Hilbert values")
    p.add_argument("--box", metavar="B",
                   help="grid corner, comma separated")
    p.add_argument("--format", choices=("table", "json"), default="table")

    p = add("semigroup", _cmd_semigroup,
            "value semigroup membership grid and conductor")
    p.add_argument("--box", metavar="B",
                   help="search corner, comma separated")
    p.add_argument("--format", choices=("table", "json"), default="table")

    p = sub.add_parser("series",
                       help="poincare, motivic, or alexander series")
    p.add_argument("kind", choices=("poincare", "motivic", "alexander"))
    p.add_argument("curve", help="path to a curve JSON file")
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(func=_cmd_series)

    p = add("homology", _cmd_homology, "graded lattice homology")
    p.add_argument("--at", metavar="V",
                   help="single lattice point, comma separated")
    p.add_argument("--box", metavar="B",
                   help="report every point of the box")
    p.add_argument("--format", choices=("table", "json"), default="table")

    p = add("verify", _cmd_verify, "run the self-verification battery")
    p.add_argument("--deep", action="store_true",
                   help="wider boxes and higher truncations")

    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
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


if __name__ == "__main__":
    sys.exit(main())
