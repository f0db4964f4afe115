"""The run side and the membership search share no code.

pumpkit.run holds minimal_accepting_path, walk and replay; pumpkit.search
holds accepts and accepts_each. search takes only the verdict records,
the limits and BULK_RUN from run, and run imports nothing from search, so
each route of verify stays an independent check of the other.
"""

import ast
from pathlib import Path

import pumpkit
from pumpkit import run, search

SRC = Path(pumpkit.__file__).resolve().parent
SHARED = {"Accepted", "LimitExceeded", "NotAccepted", "SearchLimits", "default_limits", "BULK_RUN"}


def _tree(module) -> ast.Module:
    return ast.parse(Path(module.__file__).read_text(encoding="utf-8"))


def _taken(tree: ast.Module, sibling: str) -> set:
    """The names tree imports from pumpkit.<sibling>, with None for an
    import of the module itself."""
    full = f"pumpkit.{sibling}"
    taken = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            taken |= {None for alias in node.names if alias.name == full}
        elif isinstance(node, ast.ImportFrom):
            source = ".".join(filter(None, ["pumpkit" if node.level else "", node.module]))
            if source == full:
                taken |= {alias.name for alias in node.names}
            elif source == "pumpkit":
                taken |= {None for alias in node.names if alias.name == sibling}
    return taken


def _top_functions(tree: ast.Module) -> set:
    return {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}


def _named_in_functions(tree: ast.Module) -> set:
    """Every name and attribute that the module's functions read."""
    named = set()
    for function in ast.walk(tree):
        if isinstance(function, ast.FunctionDef):
            for node in ast.walk(function):
                if isinstance(node, ast.Name):
                    named.add(node.id)
                elif isinstance(node, ast.Attribute):
                    named.add(node.attr)
    return named


def test_run_imports_nothing_from_search():
    assert _taken(_tree(run), "search") == set()


def test_search_takes_only_the_shared_records_from_run():
    assert _taken(_tree(search), "run") == SHARED


def test_neither_side_calls_a_function_of_the_other():
    run_tree, search_tree = _tree(run), _tree(search)
    assert _named_in_functions(search_tree) & (_top_functions(run_tree) - SHARED) == set()
    assert _named_in_functions(run_tree) & _top_functions(search_tree) == set()


def test_the_package_binds_each_side_from_its_own_module():
    assert pumpkit.accepts is search.accepts
    assert pumpkit.accepts_each is search.accepts_each
    assert pumpkit.minimal_accepting_path is run.minimal_accepting_path
    assert pumpkit.replay is run.replay
    assert not {"accepts", "accepts_each", "membership_tables"} & set(vars(run))
