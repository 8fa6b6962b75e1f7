"""LAPACK and BLAS straight from scipy's f2py modules: zggev and dznrm2 for a static TB spectrum
(`tightbinding._lapack`), zgtsv for the Crank-Nicolson step (`bpm._gtsv`), without the `scipy.linalg`
package `__init__` (85 modules, ~28 MB of RSS); they are the objects `get_lapack_funcs`/`get_blas_funcs` return."""

import importlib.machinery
import importlib.util
import os
import sys


def fortran(name: str):
    """`scipy.linalg.<name>`, `_flapack` or `_fblas`: the one in sys.modules, else loaded by itself and put there,
    so a later `import scipy.linalg` takes it; scipy loads on the first call."""
    qualified = f"scipy.linalg.{name}"
    if qualified not in sys.modules:
        import scipy
        spec = importlib.machinery.PathFinder.find_spec(qualified, [os.path.join(scipy.__path__[0], "linalg")])
        if spec is None:
            raise ImportError(f"scipy {scipy.__version__} has no {qualified}", name=qualified)
        sys.modules[qualified] = module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return sys.modules[qualified]
