"""Deterministic ascii VTK XML writers (.vtu unstructured grids and .vtp
polyline sets) for visualization of meshes, fields, and crack curves."""

import numpy as np

from .mesh import Triangulation
from .trisets import _distinct


class IoError(Exception):
    pass


def _fmt(values) -> str:
    return " ".join(f"{v:.17g}" for v in np.asarray(values, dtype=float).ravel())


def _fmt_int(values) -> str:
    return " ".join(str(int(v)) for v in np.asarray(values).ravel())


def export_vtu(mesh: Triangulation, point_data: dict, cell_data: dict,
               path) -> None:
    """Write the mesh with named point and cell arrays.

    Two-component point arrays are padded to three components (VTK vectors
    are 3D).  Array sizes must match the mesh; everything is written in
    ascii with 17 significant digits.
    """
    n = mesh.n_nodes
    m = mesh.n_triangles
    for name, arr in point_data.items():
        if len(arr) != n:
            raise IoError(f"point array {name!r} has {len(arr)} entries, "
                          f"mesh has {n} nodes")
    for name, arr in cell_data.items():
        if len(arr) != m:
            raise IoError(f"cell array {name!r} has {len(arr)} entries, "
                          f"mesh has {m} cells")

    points = []
    for name in sorted(point_data):
        arr = np.asarray(point_data[name], dtype=float)
        if arr.ndim == 2 and arr.shape[1] == 2:
            arr = _pad3(arr)
        ncomp = 1 if arr.ndim == 1 else arr.shape[1]
        points.append(("Float64", name, ncomp, arr))
    cells = [("Float64", name, 1, cell_data[name]) for name in sorted(cell_data)]
    _write_vtk(path, "UnstructuredGrid",
               {"NumberOfPoints": n, "NumberOfCells": m},
               [("Points", [("Float64", None, 3, _pad3(mesh.nodes))]),
                ("Cells", [("Int64", "connectivity", None, mesh.triangles),
                           ("Int64", "offsets", None, 3 * np.arange(1, m + 1)),
                           ("UInt8", "types", None, np.full(m, 5))]),
                ("PointData", points),
                ("CellData", cells)])


def export_polyline_vtp(points, segments, path) -> None:
    """Write a set of line segments as VTK PolyData.

    `points` is (n,2); `segments` a (k,2) array or sequence of index
    pairs.  An empty segment list yields a valid file with zero lines.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    segs = np.asarray(segments, dtype=np.int64).reshape(-1, 2)
    _write_vtk(path, "PolyData",
               {"NumberOfPoints": len(points), "NumberOfVerts": 0,
                "NumberOfLines": len(segs), "NumberOfStrips": 0,
                "NumberOfPolys": 0},
               [("Points", [("Float64", None, 3, _pad3(points))]),
                ("Lines", [("Int64", "connectivity", None, segs),
                           ("Int64", "offsets", None,
                            2 * np.arange(1, len(segs) + 1))])])


def _pad3(xy):
    """(n,2) coordinates as (n,3) with a zero third column."""
    out = np.zeros((len(xy), 3))
    out[:, :2] = xy
    return out


def _write_vtk(path, kind, counts, sections) -> None:
    """Write one ascii VTK XML file: a `kind` dataset of one piece with the
    attributes `counts`, holding the (tag, arrays) pairs of `sections`.
    Each array is (type, name, components, values), name or components
    None leaving that attribute out; Float64 values are written with 17
    significant digits, others as integers."""
    attrs = " ".join(f'{k}="{v}"' for k, v in counts.items())
    out = ['<?xml version="1.0"?>',
           f'<VTKFile type="{kind}" version="0.1" byte_order="LittleEndian">',
           f"  <{kind}>",
           f"    <Piece {attrs}>"]
    for tag, arrays in sections:
        out.append(f"      <{tag}>")
        for dtype, name, ncomp, values in arrays:
            head = f'type="{dtype}"'
            if name is not None:
                head += f' Name="{name}"'
            if ncomp is not None:
                head += f' NumberOfComponents="{ncomp}"'
            text = _fmt(values) if dtype == "Float64" else _fmt_int(values)
            out += [f'        <DataArray {head} format="ascii">',
                    "          " + text,
                    "        </DataArray>"]
        out.append(f"      </{tag}>")
    out += ["    </Piece>", f"  </{kind}>", "</VTKFile>"]
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(out) + "\n")


def boundary_polyline(tset) -> tuple:
    """(points, segments) of a triangle set's boundary edges: the distinct
    end nodes in index order, and per boundary edge its two positions
    among them as a (k,2) int array."""
    ends = tset.mesh.edges[tset.boundary_edges]
    used = _distinct(ends)
    return tset.mesh.nodes[used], np.searchsorted(used, ends)
