"""Finite-element simulation of quasi-static brittle fracture on
triangular meshes, with sharp crack-curve extraction via void modification."""

__all__ = ["__version__"]

__version__ = "0.1.0"
