"""The package's public names: what ``__all__`` lists, and what it no longer has."""

import ast
import inspect

import pytest

import sembit
from sembit import boundary, errors, power, rates

# Wrappers that only re-shaped one row of a row solve, and the error only
# one of them raised.  Their replacements are ``trace_region``,
# ``solve_min_powers(...)[scheme]`` and the ``water_fill_*_grid`` kernels.
# Then second spellings: the scheme constructors, whose arguments renamed
# the fields ``Allocation(scheme, field=...)`` takes, the masked pipe rate
# and its float wrapper, which ``bit_rates`` states once, and a one-line
# dict of row solutions inlined into ``solve_min_powers``.
REMOVED = {
    boundary: ("solve_oma_point", "solve_noma_point", "solve_semi_point", "sweep_boundary",
               "_point", "BoundaryPoint"),
    power: ("solve_oma_min_power", "solve_noma_min_power", "solve_semi_min_power", "_solved",
            "_row_solutions"),
    rates: ("water_fill_max", "water_fill_min", "pipe_rate", "shannon_rate"),
    errors: ("InfeasibleBandwidth",),
    rates.Allocation: ("orthogonal", "overlay", "hybrid"),
}
# The package's errors that report bad input.
INPUT_ERRORS = {"InsufficientData", "DegenerateData", "DistanceBelowReference"}


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


def test_exactly_the_input_errors_are_value_errors():
    # The CLI maps a ValueError to exit 2 and any other SembitError to exit 1.
    sembit_errors = {
        name: obj
        for name, obj in vars(errors).items()
        if isinstance(obj, type) and issubclass(obj, errors.SembitError)
    }
    assert len(sembit_errors) == 10
    value_errors = {name for name, e in sembit_errors.items() if issubclass(e, ValueError)}
    assert value_errors == INPUT_ERRORS
