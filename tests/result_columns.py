"""Engine results in the forms the tests read them in."""

from types import SimpleNamespace

from b5gcell.records import RATE_VARIABLE


def columns(xs, engine_columns: dict) -> dict:
    """Per variant name, ``ScenarioModel.points`` columns over *xs* as the
    reader's columns: x values, total powers and EEs, the last two None where a
    point is infeasible (what ``cli._read_results`` returns)."""
    out = {}
    for name, column in engine_columns.items():
        feasible = column["feasible"]
        out[name] = ([float(x) for x in xs],
                     *([v if ok else None for v, ok in zip(column[field], feasible)]
                       for field in ("total_power_w", "ee")))
    return out


def point_at(model, x: float, x_kind: str = RATE_VARIABLE) -> SimpleNamespace:
    """``model.points([x], x_kind)`` as one point of Python scalars: the bool
    ``feasible`` and the power fields, NaN where infeasible."""
    return SimpleNamespace(**{name: column[0]
                              for name, column in model.points([x], x_kind).items()})
