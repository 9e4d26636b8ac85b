"""The LAPACK routines the package calls, from scipy's compiled module.

scipy.linalg's package init clones numpy's namespace for its array API
layer, and reading that clone imports numpy.f2py and numpy.testing among
others: about 0.15 s and 15-18 MB of peak memory per process (2 shared
x86-64 vCPUs, Python 3.11, scipy 1.17), against 4-8 ms for its LAPACK
extension module _flapack.  That module is loaded here by file path
instead.  The package calls no BLAS routine of scipy's, so _fblas is
never loaded.  The top-level ``scipy`` package is imported first, since
on Windows its init puts the bundled OpenBLAS on the DLL search path.
"""

import importlib.machinery
import importlib.util
import os

import scipy


def _extension(name):
    """scipy's compiled module ``scipy.linalg.<name>``, without scipy.linalg's init."""
    stem = os.path.join(os.path.dirname(scipy.__file__), "linalg", name)
    paths = [stem + suffix for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    for path in paths:
        if os.path.isfile(path):
            spec = importlib.util.spec_from_file_location(f"scipy.linalg.{name}", path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
    raise ImportError(f"scipy's {name} extension module not found; searched {', '.join(paths)}")


_flapack = _extension("_flapack")
dpbtrf, dpbtrs, dstein, dsterf = _flapack.dpbtrf, _flapack.dpbtrs, _flapack.dstein, _flapack.dsterf
dtbtrs, dsygv = _flapack.dtbtrs, _flapack.dsygv
