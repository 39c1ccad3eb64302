"""Deterministic CSV reading/writing for pipeline artifacts.

Floats are written with repr() (shortest round-trip form), so reruns with
equal inputs produce byte-identical files.
"""

from __future__ import annotations

from pathlib import Path


def format_cell(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        # float() first: numpy-2 scalars repr as "np.float64(...)"
        return repr(float(value))
    return str(value)


def write_csv(path, header: list[str], rows) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_cell(cell) for cell in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    text = Path(path).read_text(encoding="utf-8")
    lines = [line for line in text.splitlines() if line]
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


def read_csv_dicts(path) -> list[dict[str, str]]:
    header, rows = read_csv(path)
    return [dict(zip(header, row)) for row in rows]
