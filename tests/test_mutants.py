"""The mutation battery's table matches the code it mutates."""

import ast
import os

import pytest

from mutants import EQUIVALENT, MUTANTS, ROOT


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
