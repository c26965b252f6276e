"""Quantum reservoir computing with extended echo-state-property diagnostics."""

# `sweep` is left to load on use, so that `python -m qresp.sweep` runs it only once
from . import benchmarks, espmetrics, qmat, reservoir

__all__ = ["benchmarks", "espmetrics", "qmat", "reservoir", "sweep"]
__version__ = "0.1.0"
