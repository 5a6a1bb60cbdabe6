"""Flat key=value run configuration: parsing with line-precise errors,
canonical serialization, and builders for the typed parameter objects."""

import math
from dataclasses import dataclass, field

import numpy as np

from .energy import EnergyError, MaterialModel
from .evolution import LoadProgram, eta_schedule
from .mesh import Domain, MeshParams, Triangulation
from .solver import SolveOptions
from .voidmod import VoidModParams


class ConfigError(Exception):
    pass


class ParseError(ConfigError):
    def __init__(self, line_no, message):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class ValidationError(ConfigError):
    def __init__(self, key, message, line_no=None):
        loc = f"line {line_no}: " if line_no is not None else ""
        super().__init__(f"{loc}{key}: {message}")
        self.key = key
        self.line_no = line_no


_PI4 = math.pi / 4.0

# key -> (type tag, default); order fixes the canonical serialization
_SCHEMA = [
    ("omega", ("floats", 4, [0.0, 0.0, 1.0, 1.0])),
    ("omega_prime", ("floats", 4, [-0.25, -0.25, 1.25, 1.25])),
    ("theta0", ("float", None, _PI4)),
    ("eps", ("float", None, 0.0625)),
    ("omega_factor", ("float", None, 1.0e6)),
    ("kappa", ("float", None, 1.0)),
    ("elasticity", ("floats", 9, [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0])),
    ("load", ("enum", ("stretch", "shear", "opening", "affine"), "stretch")),
    ("amplitude", ("float", None, 1.0)),
    ("load_matrix", ("floats", None, [])),
    ("center", ("floats", 2, [])),
    ("t_end", ("float", None, 1.0)),
    ("n_steps", ("int", None, 10)),
    ("eta", ("eta", None, "auto")),
    ("max_outer", ("int", None, 200)),
    ("multi_starts", ("int", None, 3)),
    ("seed", ("int", None, 0)),
    ("snap", ("flag", None, False)),
    ("precrack", ("floats", None, [])),
    ("output_dir", ("str", None, "out")),
    ("export_vtu", ("flag", None, False)),
]
_SCHEMA_MAP = {k: spec for k, spec in _SCHEMA}


def _g17(x: float) -> str:
    return f"{x:.17g}"


def _parse_value(key, spec, raw, line_no):
    kind, arg, _ = spec
    raw = raw.strip()
    if kind == "str":
        return raw
    if kind == "flag":
        low = raw.lower()
        if low in ("on", "true", "1", "yes"):
            return True
        if low in ("off", "false", "0", "no"):
            return False
        raise ValidationError(key, f"expected on/off, got {raw!r}", line_no)
    if kind == "enum":
        if raw not in arg:
            raise ValidationError(key, f"expected one of {arg}, got {raw!r}",
                                  line_no)
        return raw
    if kind == "eta":
        if raw == "auto":
            return "auto"
        kind = "float"
    if kind == "int":
        try:
            return int(raw)
        except ValueError:
            raise ValidationError(key, f"expected an integer, got {raw!r}",
                                  line_no)
    if kind == "float":
        try:
            return float(raw)
        except ValueError:
            raise ValidationError(key, f"expected a number, got {raw!r}", line_no)
    if kind == "floats":
        if not raw:
            vals = []
        else:
            try:
                vals = [float(tok) for tok in raw.replace(",", " ").split()]
            except ValueError:
                raise ValidationError(key, f"expected numbers, got {raw!r}",
                                      line_no)
        if arg is not None and len(vals) not in (0, arg):
            raise ValidationError(key, f"expected {arg} numbers, got {len(vals)}",
                                  line_no)
        return vals
    raise AssertionError(f"unhandled kind {kind}")


@dataclass
class RunConfig:
    """Validated run configuration; `values` holds one entry per schema key."""

    values: dict = field(default_factory=dict)

    def __post_init__(self):
        for key, spec in _SCHEMA:
            self.values.setdefault(key, spec[2])
        self._validate()

    def _validate(self):
        v = self.values
        if v["eps"] <= 0.0:
            raise ValidationError("eps", "must be positive")
        if not (0.0 < v["theta0"] <= _PI4):
            raise ValidationError(
                "theta0", "must lie in (0, pi/4]: every run uses the "
                "background mesh, whose half-squares have 45 degree angles")
        if v["omega_factor"] < 6.0:
            raise ValidationError("omega_factor", "must be >= 6")
        if v["kappa"] <= 0.0:
            raise ValidationError("kappa", "must be positive")
        if v["t_end"] <= 0.0:
            raise ValidationError("t_end", "must be positive")
        if v["n_steps"] < 1:
            raise ValidationError("n_steps", "must be >= 1")
        if v["snap"]:
            raise ValidationError(
                "snap", "only 'off' is supported: every run uses the "
                "background mesh")
        if v["eta"] != "auto" and not (0.0 < v["eta"] <= 0.5):
            raise ValidationError("eta", "must be 'auto' or in (0, 0.5]")
        if v["multi_starts"] < 1 or v["max_outer"] < 1:
            raise ValidationError("multi_starts", "iteration counts must be >= 1")
        if v["seed"] < 0:
            raise ValidationError("seed", "must be >= 0")
        if v["precrack"] and len(v["precrack"]) != 5:
            raise ValidationError("precrack", "expects x1 y1 x2 y2 width")
        if v["load"] == "affine" and len(v["load_matrix"]) != 4:
            raise ValidationError("load_matrix", "affine load needs 4 numbers")
        for key in ("omega", "omega_prime"):
            if len(v[key]) != 4:
                raise ValidationError(key, "expects x0 y0 x1 y1")
        ox0, oy0, ox1, oy1 = v["omega"]
        if not (ox0 < ox1 and oy0 < oy1):
            raise ValidationError("omega", "needs x0 < x1 and y0 < y1")
        try:
            self.domain()
        except ValueError as exc:
            raise ValidationError("omega_prime", str(exc))
        try:
            self.material()
        except EnergyError as exc:
            raise ValidationError("elasticity", str(exc))

    def __getitem__(self, key):
        return self.values[key]

    # -- builders ----------------------------------------------------------

    def domain(self) -> Domain:
        return Domain(tuple(self.values["omega"]),
                      tuple(self.values["omega_prime"]))

    def mesh_params(self) -> MeshParams:
        v = self.values
        return MeshParams(theta0=v["theta0"], eps=v["eps"],
                          omega_factor=v["omega_factor"])

    def material(self) -> MaterialModel:
        v = self.values
        mat = np.asarray(v["elasticity"], dtype=float).reshape(3, 3)
        return MaterialModel(kappa=v["kappa"], elasticity=mat)

    def load(self) -> LoadProgram:
        v = self.values
        center = tuple(v["center"]) if v["center"] else self._default_center()
        kwargs = dict(kind=v["load"], amplitude=v["amplitude"],
                      t_end=v["t_end"], n_steps=v["n_steps"], center=center)
        if v["load"] == "affine":
            kwargs["matrix"] = np.asarray(v["load_matrix"]).reshape(2, 2)
        return LoadProgram(**kwargs)

    def _default_center(self):
        if self.values["load"] == "opening":
            x0, y0, x1, y1 = self.values["omega"]
            return (0.5 * (x0 + x1), 0.5 * (y0 + y1))
        return (0.0, 0.0)

    def voidmod_params(self) -> VoidModParams:
        v = self.values
        eta = eta_schedule(v["eps"]) if v["eta"] == "auto" else v["eta"]
        return VoidModParams(eta=eta)

    def solve_options(self) -> SolveOptions:
        v = self.values
        return SolveOptions(max_outer=v["max_outer"], seed=v["seed"],
                            multi_starts=v["multi_starts"])

    def precrack_ids(self, mesh: Triangulation) -> np.ndarray:
        """Triangles whose center lies in the configured pre-crack band."""
        pc = self.values["precrack"]
        if not pc:
            return np.empty(0, dtype=np.int64)
        x1, y1, x2, y2, width = pc
        centers = mesh.nodes[mesh.triangles].mean(axis=1)
        ux, uy = x2 - x1, y2 - y1
        wx, wy = centers[:, 0] - x1, centers[:, 1] - y1
        len2 = ux * ux + uy * uy
        if len2 <= 0.0:
            dist = np.sqrt(wx * wx + wy * wy)
        else:
            # projection onto the segment, clipped to its ends
            t = np.clip((ux * wx + uy * wy) / len2, 0.0, 1.0)
            dx = centers[:, 0] - (x1 + t * ux)
            dy = centers[:, 1] - (y1 + t * uy)
            dist = np.sqrt(dx * dx + dy * dy)
        return np.flatnonzero(dist <= 0.5 * width).astype(np.int64)

    # -- serialization -----------------------------------------------------

    def canonical(self) -> str:
        lines = []
        for key, spec in _SCHEMA:
            kind = spec[0]
            val = self.values[key]
            if kind == "str":
                txt = str(val)
            elif kind == "flag":
                txt = "on" if val else "off"
            elif kind == "enum":
                txt = val
            elif kind == "eta":
                txt = "auto" if val == "auto" else _g17(val)
            elif kind == "int":
                txt = str(int(val))
            elif kind == "float":
                txt = _g17(val)
            elif kind == "floats":
                txt = " ".join(_g17(x) for x in val)
            else:
                raise AssertionError(kind)
            lines.append(f"{key} = {txt}")
        return "\n".join(lines) + "\n"


def parse_config(text: str) -> RunConfig:
    """Parse key=value text; unknown keys and bad values are reported with
    their line number.  Missing keys take the documented defaults."""
    values = {}
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(line_no, f"expected 'key = value', got {raw_line!r}")
        key, _, raw_val = line.partition("=")
        key = key.strip()
        if key not in _SCHEMA_MAP:
            raise ParseError(line_no, f"unknown key {key!r}")
        if key in values:
            raise ParseError(line_no, f"duplicate key {key!r}")
        values[key] = _parse_value(key, _SCHEMA_MAP[key], raw_val, line_no)
    return RunConfig(values=values)


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as f:
        return parse_config(f.read())
