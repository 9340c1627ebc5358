"""PointResult rows in the column form that ``cli._summarize`` reads."""


def columns(rows) -> dict:
    """Per variant, in row order: x values, total powers and EEs, the last two
    None where a row is infeasible (what ``cli._read_results`` returns)."""
    out = {}
    for r in rows:
        xs, powers, ees = out.setdefault(r.variant, ([], [], []))
        xs.append(r.x_value)
        powers.append(r.total_power_w if r.feasible else None)
        ees.append(r.ee if r.feasible else None)
    return out
