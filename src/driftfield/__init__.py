"""Ocean current estimation from underwater vehicle dead-reckoning drift."""

from driftfield.flowfield import AnalyticField, FieldKind, Grid, Vec2, random_gyre
from driftfield.kernels import HyperParams, KernelKind
from driftfield.gp import GpModel

__all__ = [
    "AnalyticField",
    "FieldKind",
    "Grid",
    "Vec2",
    "random_gyre",
    "HyperParams",
    "KernelKind",
    "GpModel",
]
