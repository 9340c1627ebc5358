"""One engine point in the form the tests read it in."""

from types import SimpleNamespace

from b5gcell.records import RATE_VARIABLE


def point_at(model, x: float, x_kind: str = RATE_VARIABLE) -> SimpleNamespace:
    """``model.points([x], x_kind)`` as one point of Python scalars: the bool
    ``feasible`` and the power fields, NaN where infeasible."""
    return SimpleNamespace(**{name: column[0]
                              for name, column in model.points([x], x_kind).items()})
