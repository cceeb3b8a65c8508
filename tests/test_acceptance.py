"""Acceptance battery: every criterion at its stated tolerance.

Each test prints one pass/fail line (visible with ``pytest -s`` or on
failure) and asserts both the numeric predicate and the runtime budget.
The same battery is reachable without a test harness through
``cartanconn --selftest``.
"""

import numpy as np
import pytest

from cartanconn import acceptance
from cartanconn import maxwell as mx
from cartanconn import transport as tp
from cartanconn.cartan import CartanStructure


@pytest.mark.parametrize(
    "criterion",
    acceptance.ALL_CRITERIA,
    ids=[fn.__name__.replace("criterion_", "") for fn in acceptance.ALL_CRITERIA],
)
def test_criterion(criterion):
    result = criterion(seed=0)
    print(result.line())
    assert result.passed, result.line()
    assert result.in_budget, result.line()


# ---------------------------------------------------------------------------
# A NaN reading fails its criterion
# ---------------------------------------------------------------------------

def nan_on_calls(fn, calls):
    """``fn`` whose results on the given (1-based) calls are all NaN."""
    count = [0]

    def wrapper(*args, **kwargs):
        count[0] += 1
        out = fn(*args, **kwargs)
        return np.full_like(out, np.nan) if count[0] in calls else out

    return wrapper


def test_flat_model_fails_on_a_nan_transport_gap(monkeypatch):
    # a lift whose last node is NaN: the transport and development gaps of
    # that path are NaN, which the largest of the running worst would drop
    lift = tp.horizontal_lift

    def nan_end(*args, **kwargs):
        lifted = lift(*args, **kwargs)
        mats = lifted.mats.copy()
        mats[-1] = np.nan
        return tp.LiftedPath(lifted.tag, lifted.ts, mats, lifted.points)

    monkeypatch.setattr(tp, "horizontal_lift", nan_end)
    result = acceptance.criterion_2_flat_model(seed=0)
    assert not result.passed and "transport gap nan" in result.detail


def test_soldering_fails_on_a_nan_choice_spread(monkeypatch):
    monkeypatch.setattr(CartanStructure, "soldering_with_choices",
                        nan_on_calls(CartanStructure.soldering_with_choices, {1}))
    result = acceptance.criterion_5_soldering(seed=0)
    assert not result.passed and result.detail == "construction choices disagree by nan"


@pytest.mark.parametrize("calls, detail", [
    ({1, 2, 3}, "dictionary gap nan"),   # every exterior derivative
    ({3}, "plane-wave residual nan"),    # the plane wave's G only, after a finite F
])
def test_maxwell_fails_on_a_nan_exterior_derivative(monkeypatch, calls, detail):
    monkeypatch.setattr(mx, "d_numeric", nan_on_calls(mx.d_numeric, calls))
    result = acceptance.criterion_8_maxwell(seed=0)
    assert not result.passed and result.detail == detail
