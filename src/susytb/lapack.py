"""LAPACK zggev and zgtsv and BLAS dznrm2, for `tightbinding.solve_spectrum` and the `bpm` step, from numpy's own
OpenBLAS (scipy-openblas64: int64 integers, routines `scipy_<name>_64_`), bound by ctypes on first use: importing
susytb opens no library, and no second BLAS loads. Arguments are addresses; zggev's last two are string lengths."""

import ctypes
from pathlib import Path

import numpy as np

_DIRS = (Path(np.__file__).parent.with_suffix(".libs"), Path(np.__file__).parent / ".dylibs")
_ROUTINES = {"zggev": (None, *[ctypes.c_void_p] * 17, ctypes.c_size_t, ctypes.c_size_t),
             "zgtsv": (None, *[ctypes.c_void_p] * 8), "dznrm2": (ctypes.c_double, *[ctypes.c_void_p] * 3)}


def _library() -> ctypes.CDLL:
    """numpy's OpenBLAS where its PyPI wheels put it: `numpy.libs` beside the package (Linux, Windows), `.dylibs` in
    it (macOS wheels built on OpenBLAS; those for macOS 14 and later use Accelerate and bundle none)."""
    found = sorted(path for folder in _DIRS for path in folder.glob("*openblas*"))
    if not found:
        raise ImportError(f"numpy {np.__version__} bundles no OpenBLAS in {' or '.join(map(str, _DIRS))}")
    return ctypes.CDLL(str(found[0]))


def bind() -> None:
    """Bind the three routines here, types set (validation's call, else the first use's); an ImportError if absent."""
    library = _library()
    for name, (restype, *argtypes) in _ROUTINES.items():
        if not hasattr(library, symbol := f"scipy_{name}_64_"):
            raise ImportError(f"{library._name} exports no {symbol}", name=symbol)
        globals()[name] = function = getattr(library, symbol)
        function.restype, function.argtypes = restype, argtypes


def __getattr__(name: str):
    if name not in _ROUTINES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    bind()
    return globals()[name]


def addresses(array: np.ndarray) -> list[int]:
    """The address of each row of `array` (each item of a 1-d one), for the routines' arguments."""
    return [array.ctypes.data + array.strides[0] * i for i in range(len(array))]
