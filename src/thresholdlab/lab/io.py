"""Serialisation: trajectory CSV, result JSON, field snapshots.

All writers are byte-deterministic: floats are rendered with 17 significant
digits (CSV, snapshots) or shortest round-trip repr (JSON), keys are sorted,
and no timestamps or environment state leak into the output.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from ..analysis import TrajectoryRecord
from ..discrete import FieldPair

CSV_COLUMNS = ("t", "dt", "phi", "energy", "bigT", "sup_u", "sup_v", "dphi_lhs", "dphi_rhs", "bound_rhs")


_CSV_ROW = ",".join(["%.17g"] * len(CSV_COLUMNS))


def trajectory_csv_text(record: TrajectoryRecord) -> str:
    """The header and one line per row, each row formatted from Python floats.

    ``tolist`` one row at a time: formatting Python floats is cheaper than
    formatting numpy scalars, and only one row's floats are alive at once.
    Each line is one ``%`` operation, the same text as ``f"{x:.17g}"`` per
    value.
    """
    cols = record.arrays()
    lines = [",".join(CSV_COLUMNS)]
    for row in np.column_stack([cols[name] for name in CSV_COLUMNS]):
        lines.append(_CSV_ROW % tuple(row.tolist()))
    return "\n".join(lines) + "\n"


def write_trajectory_csv(record: TrajectoryRecord, path) -> None:
    Path(path).write_text(trajectory_csv_text(record), encoding="utf-8")


def _jsonable(value):
    """Convert numpy scalars/arrays to plain Python for serialisation."""
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, np.generic):
        return value.item()
    return value


def result_json_text(payload: dict) -> str:
    return json.dumps(_jsonable(payload), sort_keys=True, indent=2, separators=(",", ": ")) + "\n"


def write_result_json(payload: dict, path) -> None:
    Path(path).write_text(result_json_text(payload), encoding="utf-8")


def snapshot_text(pair: FieldPair, header: dict) -> str:
    """Header lines '# key value' followed by two whitespace-separated columns,
    17 significant digits each, formatted from Python floats."""
    lines = [f"# {key} {value}" for key, value in header.items()]
    lines.append(f"# nodes {pair.grid.size}")
    lines.extend(["%.17g %.17g" % uv for uv in zip(pair.u.tolist(), pair.v.tolist())])
    return "\n".join(lines) + "\n"


def save_snapshot(path, pair: FieldPair, header: dict) -> None:
    Path(path).write_text(snapshot_text(pair, header), encoding="utf-8")


def load_snapshot(path) -> tuple[dict[str, str], np.ndarray, np.ndarray]:
    """Read a snapshot; returns (header dict, u, v)."""
    header: dict[str, str] = {}
    us, vs = [], []
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line[1:].strip().split(None, 1)
            if len(parts) == 2:
                header[parts[0]] = parts[1]
            continue
        a, b = line.split()
        us.append(float(a))
        vs.append(float(b))
    return header, np.asarray(us), np.asarray(vs)
