r"""
Command line interface.

Reads a curve from a JSON file of the shape

    {"truncation": 32, "branches": [{"x": "t^2", "y": "t^3"}]}

and prints invariants, Hilbert values and grids, the semigroup
membership grid, series, graded homology, or runs the
self-verification battery.

One table, ``COMMANDS``, holds each command's function, help text,
positionals and flags, and it alone drives parsing, ``-h``/``--help``
and dispatch.  A flag that takes a value takes the next token whatever
it starts with (``--at -1,0``) or the text after "=", and a long flag
may be shortened to any prefix that names no other.  Each command is a
function ``(curve, args) -> (payload, lines)``, and ``main`` is the one
output path: it loads the curve, calls the command and prints the JSON
payload (``--format json``, which ``verify`` lacks) or the lines one by
one, so ``verify``'s generator of stage lines prints each line as its
stage finishes.  Only ``verify`` imports the verify battery.

A command line the table refuses exits with status 2 and prints the
usage line of its command (or of the whole CLI) and a line
"curvelat: error: message" on stderr.  Schema and argument problems
also exit with status 2; computation errors exit with status 1 and a
line "ErrorName: message" on stderr.
"""

import json
import sys
from collections import namedtuple
from itertools import chain
from types import SimpleNamespace

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
    # a generator: each stage line prints as its stage finishes; the
    # battery is imported here, so no other command loads it
    from . import verify

    stages = ("%s %s" % record for record in verify.run(curve, args.deep))
    return None, chain(stages, ["all checks passed"])


# An argument whose name starts with "--" is a flag: it takes a value
# when it has choices or a metavar and is a switch otherwise.  Any other
# argument is a positional, which is always required.
Arg = namedtuple("Arg", "name help choices metavar required",
                 defaults=("", (), None, False))

_CURVE = Arg("curve", "path to a curve JSON file")
_FORMAT = Arg("--format", "output format, table by default",
              choices=("table", "json"))

# name -> (function, help, arguments in the order that help lists
# them): the one table that parsing, help and dispatch read
COMMANDS = {
    "invariants": (_cmd_invariants,
                   "delta, Milnor number, pairwise numbers, conductor",
                   (_CURVE, _FORMAT)),
    "value": (_cmd_value, "single Hilbert value",
              (_CURVE, Arg("--at", "lattice point, comma separated",
                           metavar="V", required=True), _FORMAT)),
    "hilbert": (_cmd_hilbert, "grid of Hilbert values",
                (_CURVE, Arg("--box", "grid corner, comma separated",
                             metavar="B"), _FORMAT)),
    "semigroup": (_cmd_semigroup,
                  "value semigroup membership grid and conductor",
                  (_CURVE, Arg("--box", "search corner, comma separated",
                               metavar="B"), _FORMAT)),
    "series": (_cmd_series, "poincare, motivic, or alexander series",
               (Arg("kind", "which series",
                    choices=("poincare", "motivic", "alexander")),
                _CURVE, _FORMAT)),
    "homology": (_cmd_homology, "graded lattice homology",
                 (_CURVE,
                  Arg("--at", "single lattice point, comma separated",
                      metavar="V"),
                  Arg("--box", "report every point of the box",
                      metavar="B"), _FORMAT)),
    "verify": (_cmd_verify, "run the self-verification battery",
               (_CURVE, Arg("--deep", "wider boxes and more sublevel "
                                      "levels"))),
}

_HELP = ("-h", "--help")


class _UsageError(Exception):
    r"""A command line that COMMANDS refuses: (command or None, message)."""


def _is_flag(arg):
    return arg.name.startswith("--")


def _is_switch(arg):
    return _is_flag(arg) and not (arg.choices or arg.metavar)


def _matches(key, names):
    # the names a flag token stands for: its own, or every long name of
    # which it is a prefix
    return [n for n in names
            if n == key or key[:2] == "--" and key != "--"
            and n.startswith(key)]


def _invalid(label, value, choices):
    return ("argument %s: invalid choice: %r (choose from %s)"
            % (label, value, ", ".join(map(repr, choices))))


def _parse(argv):
    r"""
    Read argv against COMMANDS.

    Returns the command name and a namespace of its arguments, or the
    name (None at the top level) and None when help is asked for.  A
    command line that the table refuses raises _UsageError.
    """
    if argv and _matches(argv[0], _HELP):
        return None, None
    if not argv:
        raise _UsageError(None,
                          "the following arguments are required: command")
    name, tokens = argv[0], iter(argv[1:])
    if name not in COMMANDS:
        raise _UsageError(None, _invalid("command", name, COMMANDS))
    spec = COMMANDS[name][2]
    flags = {a.name: a for a in spec if _is_flag(a)}
    positionals = iter(a for a in spec if not _is_flag(a))
    args = {a.name.lstrip("-"): False if _is_switch(a) else None
            for a in spec}
    extra = []
    options = True
    for token in tokens:
        if options and token == "--":
            options = False
            continue
        if not options or token[:1] != "-" or token == "-":
            arg, value = next(positionals, None), token
            if arg is None:
                extra.append(token)
                continue
        else:
            key, eq, value = token.partition("=")
            found = _matches(key, _HELP + tuple(flags))
            if len(found) != 1:
                extra.append(token)
                continue
            if found[0] in _HELP:
                return name, None
            arg = flags[found[0]]
            if _is_switch(arg):
                if eq:
                    raise _UsageError(
                        name, "argument %s: ignored explicit argument %r"
                        % (arg.name, value))
                value = True
            elif not eq:
                value = next(tokens, None)
                if value is None:
                    raise _UsageError(
                        name, "argument %s: expected one argument"
                        % arg.name)
        if arg.choices and value not in arg.choices:
            raise _UsageError(name, _invalid(arg.name, value, arg.choices))
        args[arg.name.lstrip("-")] = value
    missing = [a.name for a in spec if args[a.name.lstrip("-")] is None
               and (a.required or not _is_flag(a))]
    if missing:
        raise _UsageError(name, "the following arguments are required: "
                          + ", ".join(missing))
    if extra:
        raise _UsageError(name, "unrecognized arguments: " + " ".join(extra))
    return name, SimpleNamespace(**args)


def _form(arg):
    # how the usage line writes an argument
    shown = ("{%s}" % ",".join(arg.choices) if arg.choices
             else arg.metavar)
    if not _is_flag(arg):
        return shown or arg.name
    return arg.name + (" " + shown if shown else "")


def _usage(name):
    if name is None:
        return "usage: curvelat [-h] {%s} ..." % ",".join(COMMANDS)
    spec = COMMANDS[name][2]
    return " ".join(
        ["usage: curvelat", name, "[-h]"]
        + [_form(a) if a.required else "[%s]" % _form(a)
           for a in spec if _is_flag(a)]
        + [_form(a) for a in spec if not _is_flag(a)])


def _help(name):
    # the usage line, then one row per command, or per argument of one
    if name is None:
        lines = [_usage(None), "", "invariants of plane curve branches "
                 "from their parametrizations"]
        rows = [(n, c[1]) for n, c in COMMANDS.items()]
    else:
        lines = [_usage(name)]
        rows = [(_form(a), a.help) for a in COMMANDS[name][2]]
    rows.append(("-h, --help", "show this help message and exit"))
    width = 2 + max(len(left) for left, _ in rows)
    return "\n".join(lines + [""] + [("  " + left.ljust(width) + text)
                                     .rstrip() for left, text in rows])


def main(argv=None):
    r"""Run one command line and return its exit status."""
    try:
        name, args = _parse(sys.argv[1:] if argv is None else list(argv))
    except _UsageError as exc:
        name, message = exc.args
        print(_usage(name), file=sys.stderr)
        print("curvelat: error: " + message, file=sys.stderr)
        return 2
    if args is None:
        print(_help(name))
        return 0
    try:
        payload, lines = COMMANDS[name][0](load_curve(args.curve), args)
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
