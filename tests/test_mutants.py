"""The mutation battery's table matches the code it mutates."""

import ast
import os

import pytest

from mutants import EQUIVALENT, GUARDS, MUTANTS, ROOT


@pytest.mark.parametrize("name", sorted(MUTANTS) + sorted(EQUIVALENT))
def test_mutant_old_text_occurs_once(name):
    mutant = MUTANTS.get(name) or EQUIVALENT[name]
    assert mutant.old != mutant.new
    with open(os.path.join(ROOT, mutant.path)) as fh:
        assert fh.read().count(mutant.old) == 1


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_killer_exists(name):
    path, function = MUTANTS[name].killer.split("::")
    with open(os.path.join(ROOT, path)) as fh:
        tree = ast.parse(fh.read())
    assert function in {node.name for node in tree.body
                        if isinstance(node, ast.FunctionDef)}


def test_mutant_names_are_unique_across_tables():
    assert not set(MUTANTS) & set(EQUIVALENT)


def _guard_sites(node, module, function):
    # (module, innermost enclosing function, message up to its first %)
    # of every `raise ConsistencyError` below node
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _guard_sites(child, module, child.name)
            continue
        if isinstance(child, ast.Raise):
            call = child.exc if isinstance(child.exc, ast.Call) else None
            name = call.func if call else child.exc
            if isinstance(name, ast.Name) and name.id == "ConsistencyError":
                message = call.args[0] if call and call.args else None
                while isinstance(message, ast.BinOp):
                    message = message.left
                text = (message.value if isinstance(message, ast.Constant)
                        and isinstance(message.value, str) else "")
                yield module, function, text.split("%")[0].strip()
        yield from _guard_sites(child, module, function)


def test_every_consistency_guard_is_named_by_a_mutant():
    # a new guard fails here until GUARDS names the mutant that shows it
    # can fire, and a guard that goes takes its entry with it
    src = os.path.join(ROOT, "src", "curvelat")
    sites = []
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                sites += _guard_sites(ast.parse(fh.read()), name[:-3],
                                      "<module>")
    assert len(sites) == len(set(sites)), "two guards share a key"
    assert sorted(set(sites) - set(GUARDS)) == [], "unclassified guards"
    assert sorted(set(GUARDS) - set(sites)) == [], "stale GUARDS entries"
    assert sorted(set(GUARDS.values()) - set(MUTANTS)) == []
