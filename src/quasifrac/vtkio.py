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

    pts3 = np.zeros((n, 3))
    pts3[:, :2] = mesh.nodes
    out = []
    out.append('<?xml version="1.0"?>')
    out.append('<VTKFile type="UnstructuredGrid" version="0.1" '
               'byte_order="LittleEndian">')
    out.append("  <UnstructuredGrid>")
    out.append(f'    <Piece NumberOfPoints="{n}" NumberOfCells="{m}">')
    out.append("      <Points>")
    out.append('        <DataArray type="Float64" NumberOfComponents="3" '
               'format="ascii">')
    out.append("          " + _fmt(pts3))
    out.append("        </DataArray>")
    out.append("      </Points>")
    out.append("      <Cells>")
    out.append('        <DataArray type="Int64" Name="connectivity" '
               'format="ascii">')
    out.append("          " + _fmt_int(mesh.triangles))
    out.append("        </DataArray>")
    out.append('        <DataArray type="Int64" Name="offsets" format="ascii">')
    out.append("          " + _fmt_int(3 * np.arange(1, m + 1)))
    out.append("        </DataArray>")
    out.append('        <DataArray type="UInt8" Name="types" format="ascii">')
    out.append("          " + " ".join(["5"] * m))
    out.append("        </DataArray>")
    out.append("      </Cells>")

    out.append("      <PointData>")
    for name in sorted(point_data):
        arr = np.asarray(point_data[name], dtype=float)
        if arr.ndim == 2 and arr.shape[1] == 2:
            padded = np.zeros((n, 3))
            padded[:, :2] = arr
            arr = padded
        ncomp = 1 if arr.ndim == 1 else arr.shape[1]
        out.append(f'        <DataArray type="Float64" Name="{name}" '
                   f'NumberOfComponents="{ncomp}" format="ascii">')
        out.append("          " + _fmt(arr))
        out.append("        </DataArray>")
    out.append("      </PointData>")

    out.append("      <CellData>")
    for name in sorted(cell_data):
        arr = np.asarray(cell_data[name], dtype=float)
        out.append(f'        <DataArray type="Float64" Name="{name}" '
                   f'NumberOfComponents="1" format="ascii">')
        out.append("          " + _fmt(arr))
        out.append("        </DataArray>")
    out.append("      </CellData>")

    out.append("    </Piece>")
    out.append("  </UnstructuredGrid>")
    out.append("</VTKFile>")
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(out) + "\n")


def export_polyline_vtp(points, segments, path) -> None:
    """Write a set of line segments as VTK PolyData.

    `points` is (n,2); `segments` an iterable of (i, j) index pairs.  An
    empty segment list yields a valid file with zero lines.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    segs = [(int(a), int(b)) for a, b in segments]
    n = len(points)
    pts3 = np.zeros((n, 3))
    if n:
        pts3[:, :2] = points
    out = []
    out.append('<?xml version="1.0"?>')
    out.append('<VTKFile type="PolyData" version="0.1" '
               'byte_order="LittleEndian">')
    out.append("  <PolyData>")
    out.append(f'    <Piece NumberOfPoints="{n}" NumberOfVerts="0" '
               f'NumberOfLines="{len(segs)}" NumberOfStrips="0" '
               'NumberOfPolys="0">')
    out.append("      <Points>")
    out.append('        <DataArray type="Float64" NumberOfComponents="3" '
               'format="ascii">')
    out.append("          " + (_fmt(pts3) if n else ""))
    out.append("        </DataArray>")
    out.append("      </Points>")
    out.append("      <Lines>")
    out.append('        <DataArray type="Int64" Name="connectivity" '
               'format="ascii">')
    out.append("          " + _fmt_int([i for s in segs for i in s]))
    out.append("        </DataArray>")
    out.append('        <DataArray type="Int64" Name="offsets" format="ascii">')
    out.append("          " + _fmt_int(2 * np.arange(1, len(segs) + 1)))
    out.append("        </DataArray>")
    out.append("      </Lines>")
    out.append("    </Piece>")
    out.append("  </PolyData>")
    out.append("</VTKFile>")
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(out) + "\n")


def boundary_polyline(tset) -> tuple:
    """(points, segments) of a triangle set's boundary edges."""
    mesh = tset.mesh
    be = tset.boundary_edges
    if not len(be):
        return np.zeros((0, 2)), []
    used = _distinct(mesh.edges[be])
    remap = {int(v): i for i, v in enumerate(used)}
    pts = mesh.nodes[used]
    segs = [(remap[int(mesh.edges[e, 0])], remap[int(mesh.edges[e, 1])])
            for e in be]
    return pts, segs
