"""Every library name the benchmark's tracer wraps still exists.

``perfbench/spans.py`` looks each target up when a traced run installs, so
deleting or renaming one breaks the traced benchmark.  The file is parsed,
not imported, so nothing under ``perfbench/`` runs or is written.
"""

import ast
import importlib
import pathlib

import pytest

SPANS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _span_tables():
    tree = ast.parse(SPANS.read_text(), filename=str(SPANS))
    tables = {}
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id.endswith("_SPANS")):
            tables[node.targets[0].id] = ast.literal_eval(node.value)
    return tables


TABLES = _span_tables()


def test_the_span_tables_are_all_found():
    assert sorted(TABLES) == ["FUNCTION_SPANS", "LOCAL_SPANS", "METHOD_SPANS"]
    assert all(TABLES.values())


@pytest.mark.parametrize(
    "module, attr", [entry[:2] for entry in TABLES["FUNCTION_SPANS"]
                     + TABLES["LOCAL_SPANS"]],
    ids=lambda value: value)
def test_function_span_targets_exist(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))


@pytest.mark.parametrize(
    "module, cls, method", [entry[:3] for entry in TABLES["METHOD_SPANS"]],
    ids=lambda value: value)
def test_method_span_targets_exist(module, cls, method):
    # the tracer replaces the method on the class itself, from its __dict__
    assert callable(vars(getattr(importlib.import_module(module), cls))
                    .get(method))
