"""The package's public names: what ``__all__`` lists, and what it no longer has."""

import ast
import inspect

import pytest

import sembit
from sembit import boundary, errors, power, rates

# Wrappers that only re-shaped one row of a row solve, and the error only
# one of them raised.  Their replacements are ``trace_region``,
# ``solve_min_powers(...)[scheme]`` and the ``water_fill_*_grid`` kernels.
REMOVED = {
    boundary: ("solve_oma_point", "solve_noma_point", "solve_semi_point", "sweep_boundary",
               "_point", "BoundaryPoint"),
    power: ("solve_oma_min_power", "solve_noma_min_power", "solve_semi_min_power", "_solved"),
    rates: ("water_fill_max", "water_fill_min"),
    errors: ("InfeasibleBandwidth",),
}


def test_every_listed_name_resolves_once():
    assert len(sembit.__all__) == len(set(sembit.__all__))
    missing = [name for name in sembit.__all__ if not hasattr(sembit, name)]
    assert missing == []


def test_all_is_the_imported_public_names():
    tree = ast.parse(inspect.getsource(sembit))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert set(sembit.__all__) == {name for name in imported if not name.startswith("_")}


@pytest.mark.parametrize("module", list(REMOVED), ids=lambda m: m.__name__)
def test_removed_names_are_gone(module):
    for name in REMOVED[module]:
        assert not hasattr(module, name), name
        assert not hasattr(sembit, name), name
