"""The package's modules form a layered DAG: each imports only earlier ones."""

import ast
import os

import curvelat

# each module may import only modules listed before it; the package
# root and the __main__ entry point sit on top of everything
ORDER = ["errors", "exactalg", "curve", "oslattice", "hilbert", "series",
         "latthom", "verify", "cli", "__main__", "__init__"]

# the only module that may import fractions: the series, whose one
# helper makes a Fraction of a coefficient that is not integral; every
# other layer works on ints
FRACTIONS = {"exactalg"}

SRC = os.path.dirname(curvelat.__file__)


def _imported_modules(tree):
    # intra-package targets of every import statement at any depth
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                yield node.module.split(".")[0]
            elif node.level == 1:
                for alias in node.names:
                    yield alias.name
            elif node.level == 0 and node.module:
                parts = node.module.split(".")
                if parts[0] == "curvelat" and len(parts) > 1:
                    yield parts[1]
                elif parts[0] == "curvelat":
                    for alias in node.names:
                        yield alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "curvelat" and len(parts) > 1:
                    yield parts[1]


def _sources():
    return sorted(name[:-3] for name in os.listdir(SRC)
                  if name.endswith(".py"))


def _tree(name):
    with open(os.path.join(SRC, name + ".py")) as handle:
        return ast.parse(handle.read())


def test_every_module_has_a_layer():
    assert sorted(ORDER) == _sources()


def test_imports_point_to_earlier_layers():
    for name in _sources():
        for target in _imported_modules(_tree(name)):
            assert ORDER.index(target) < ORDER.index(name), (
                "%s imports %s, which is not an earlier layer"
                % (name, target))


def test_only_the_parser_layers_import_fractions():
    importers = set()
    for name in _sources():
        for node in ast.walk(_tree(name)):
            if isinstance(node, ast.Import):
                targets = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                targets = [node.module]
            else:
                continue
            if any(t.split(".")[0] == "fractions" for t in targets):
                importers.add(name)
    assert importers <= FRACTIONS, importers - FRACTIONS


def test_only_cli_main_prints():
    # every command returns its payload and lines, and main alone
    # writes them, so no command grows an output branch of its own
    def prints(node):
        return {n.lineno for n in ast.walk(node)
                if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                and n.func.id == "print"}

    tree = _tree("cli")
    main, = [n for n in tree.body
             if isinstance(n, ast.FunctionDef) and n.name == "main"]
    outside = prints(tree) - prints(main)
    assert not outside, "print outside cli.main at lines %s" % outside


def test_source_lines_fit_79_columns():
    long = []
    for name in _sources():
        with open(os.path.join(SRC, name + ".py")) as handle:
            long += [(name, number) for number, line in enumerate(handle, 1)
                     if len(line.rstrip("\n")) > 79]
    assert not long, "lines over 79 characters: %s" % long
