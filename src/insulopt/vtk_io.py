"""Legacy ASCII VTK output (v3.0 UNSTRUCTURED_GRID).

Region tags go to CELL_DATA, nodal fields to POINT_DATA; boundary profiles
are written as polyline grids.  Writes are atomic (temp file + rename).
"""
from __future__ import annotations

import os
import tempfile


def _atomic_write(path, text):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_vtk(path, mesh, point_data=None):
    """Write a triangle mesh with its region tags and optional nodal
    scalar fields."""
    lines = ["# vtk DataFile Version 3.0", "insulopt", "ASCII",
             "DATASET UNSTRUCTURED_GRID"]
    n = len(mesh.nodes)
    lines.append(f"POINTS {n} double")
    for x, y in mesh.nodes:
        lines.append(f"{x:.17g} {y:.17g} 0")
    m = len(mesh.tris)
    lines.append(f"CELLS {m} {4 * m}")
    for a, b, c in mesh.tris:
        lines.append(f"3 {a} {b} {c}")
    lines.append(f"CELL_TYPES {m}")
    lines.extend(["5"] * m)

    lines.append(f"CELL_DATA {m}")
    lines.append("SCALARS region int 1")
    lines.append("LOOKUP_TABLE default")
    lines.extend(str(int(v)) for v in mesh.region)

    if point_data:
        lines.append(f"POINT_DATA {n}")
        for name, values in point_data.items():
            lines.append(f"SCALARS {name} double 1")
            lines.append("LOOKUP_TABLE default")
            lines.extend(f"{float(v):.17g}" for v in values)

    _atomic_write(path, "\n".join(lines) + "\n")


def write_boundary_vtk(path, points, segments, point_fields):
    """Polyline output, e.g. the insulated boundary with thickness fields."""
    lines = ["# vtk DataFile Version 3.0", "profile", "ASCII",
             "DATASET UNSTRUCTURED_GRID"]
    n = len(points)
    lines.append(f"POINTS {n} double")
    for x, y in points:
        lines.append(f"{x:.17g} {y:.17g} 0")
    m = len(segments)
    lines.append(f"CELLS {m} {3 * m}")
    for a, b in segments:
        lines.append(f"2 {a} {b}")
    lines.append(f"CELL_TYPES {m}")
    lines.extend(["3"] * m)
    if point_fields:
        lines.append(f"POINT_DATA {n}")
        for name, values in point_fields.items():
            lines.append(f"SCALARS {name} double 1")
            lines.append("LOOKUP_TABLE default")
            lines.extend(f"{float(v):.17g}" for v in values)
    _atomic_write(path, "\n".join(lines) + "\n")


def csv_lines(header, rows):
    """Header and one line per row; floats get 17 significant digits."""
    return [header] + [
        ",".join(f"{x:.17g}" if isinstance(x, float) else str(x) for x in row)
        for row in rows]


def write_csv(path, header, rows):
    """CSV with 17-significant-digit floats (bit-stable across runs)."""
    _atomic_write(path, "\n".join(csv_lines(header, rows)) + "\n")
