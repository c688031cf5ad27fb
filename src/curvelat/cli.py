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

from .curve import BranchParametrization, Curve
from .errors import ConsistencyError, CurvelatError, CurveSchemaError
from .hilbert import (box_points, build_table, invariants,
                      large_n_step_check, semigroup, symmetry_check)
from .latthom import (euler_check, grv_homology, r1_structure,
                      r2_classify, sk_homology)
from .oslattice import GradedGroup, Matroid, d0_structure_checks
from .series import (alexander, canonical_str, hilbert_from_poincare,
                     motivic_normalized, poincare_from_hilbert,
                     torres_restriction_check)


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


def _verify_round_trip(table, box):
    # the full mask is the curve itself, whose table verify already built
    curve = table.curve
    full = (1 << curve.r) - 1
    poincares = {}
    for mask in range(1, full + 1):
        idx = [i for i in range(curve.r) if mask >> i & 1]
        sub_box = tuple(box[i] for i in idx)
        sub_table = (table if mask == full
                     else build_table(curve.subcurve(idx), sub_box))
        poincares[mask] = poincare_from_hilbert(sub_table, sub_box)
    for v in box_points(table.invariants.conductor):
        if hilbert_from_poincare(poincares, v) != table.value(v):
            raise ConsistencyError(
                "series round trip fails at %s" % (v,))


def _verify_motivic(table):
    inv = table.invariants
    series = motivic_normalized(table)
    for (v, m), coeff in series.coeffs.items():
        w = tuple(a - b for a, b in zip(inv.conductor, v))
        if series.coefficient(w, m + inv.delta - sum(v)) != coeff:
            raise ConsistencyError(
                "normalized series is not reflection symmetric at %s"
                % (v,))


def _verify_alexander(table):
    inv = table.invariants
    poly = alexander(table)
    if inv.r == 1:
        for k in range(inv.mu + 1):
            if poly.coefficient((k,)) != poly.coefficient((inv.mu - k,)):
                raise ConsistencyError(
                    "polynomial is not palindromic at degree %d" % k)
    else:
        sign = 1 if inv.r % 2 == 0 else -1
        top = tuple(x - 1 for x in inv.conductor)
        for (v, _m) in poly.coeffs:
            w = tuple(x - y for x, y in zip(top, v))
            if poly.coefficient(v) != sign * poly.coefficient(w):
                raise ConsistencyError(
                    "polynomial reflection fails at %s" % (v,))


def _cmd_verify(args):
    curve = load_curve(args.curve)
    margin = 4 if args.deep else 2
    inv = invariants(curve)
    print("ok invariants")
    box = tuple(c + margin for c in inv.conductor)
    table = build_table(curve, box)
    print("ok hilbert-table")
    symmetry_check(table)
    print("ok symmetry")
    large_n_step_check(curve)
    print("ok large-index-steps")
    semigroup(table)
    print("ok semigroup")
    _verify_round_trip(table, box)
    print("ok series-round-trip")
    _verify_motivic(table)
    print("ok motivic")
    _verify_alexander(table)
    print("ok alexander")
    if curve.r >= 2:
        for rho in range(curve.r):
            torres_restriction_check(table, remove=rho)
        print("ok restriction")
    else:
        print("skip restriction (single branch)")
    euler_check(table)
    print("ok euler")
    u_truncation = 4 * curve.r + 12 if args.deep else None
    for v in box_points(tuple(c + 2 for c in inv.conductor)):
        grv_homology(table, v, u_truncation=u_truncation)
    print("ok graded-homology")
    zero = (0,) * curve.r
    mid = tuple(c // 2 for c in inv.conductor)
    for v in (zero, mid, inv.conductor):
        d0_structure_checks(Matroid.from_local_matroid(table, v))
    print("ok arrangement-structure")
    levels = 5 if args.deep else 3
    for k in range(levels):
        if sk_homology(table, zero, k) != GradedGroup({0: (1, ())}):
            raise ConsistencyError(
                "sublevel complex at level %d is not contractible" % k)
    print("ok sublevel-contractible")
    if curve.r == 1:
        r1_structure(table)
        print("ok branch-structure")
    elif curve.r == 2:
        for v in box_points(tuple(c + 2 for c in inv.conductor)):
            r2_classify(table, v)
        print("ok branch-structure")
    else:
        print("skip branch-structure (three or more branches)")
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
