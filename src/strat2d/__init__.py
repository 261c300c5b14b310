"""Pseudospectral laboratory for the 2D inviscid stratified Boussinesq
system in vorticity form: simulation, frozen-transport iteration, dispersive
measurements, and inequality verification on the periodic torus.

Importing the package sets two glibc malloc thresholds for the process
(`_keep_freed_memory`)."""

import ctypes

from .errors import (
    BlowupSuspectedError,
    ConfigError,
    GridMismatchError,
    HermitianSymmetryError,
    NonzeroMeanError,
    Strat2dError,
)
from .grid import GridSpec, SpectralField, VectorField

__version__ = "0.1.0"


def _keep_freed_memory() -> None:
    """Let glibc keep freed memory for reuse instead of returning it to the OS.

    A time step allocates and frees arrays of 128 KiB to 1 MiB.  By default
    glibc maps such arrays afresh until its dynamic mmap threshold has risen
    past them, and trims the freed top of each heap, on the main thread and
    on pool threads alike, so every step faults the same pages in again.
    Both limits must rise: with only the mmap threshold raised, trimming
    keeps the faults.  Process-wide; a no-op where the C library has no
    mallopt.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
        mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD: 64 MiB
        mallopt(-3, 4 << 20)  # M_MMAP_THRESHOLD: 4 MiB
    except (OSError, AttributeError, TypeError):
        pass


_keep_freed_memory()

__all__ = [
    "BlowupSuspectedError",
    "ConfigError",
    "GridMismatchError",
    "GridSpec",
    "HermitianSymmetryError",
    "NonzeroMeanError",
    "SpectralField",
    "Strat2dError",
    "VectorField",
    "__version__",
]
