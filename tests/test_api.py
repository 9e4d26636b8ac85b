"""The package's public names."""

import inspect
import os
import re
import subprocess
import sys

import hyperlap


def test_public_names_resolve_and_retired_ones_are_gone():
    names = hyperlap.__all__
    assert len(set(names)) == len(names)
    for name in names:
        getattr(hyperlap, name)
    namespace = {}
    exec("from hyperlap import *", namespace)
    assert set(names) <= set(namespace)
    # Chebyshev collocation, its nonsymmetric dense solver and its reality
    # guard were retired: plain solves go through the Galerkin family
    retired = re.compile(r"cheb|dense|reality", re.IGNORECASE)
    assert [name for name in dir(hyperlap) if retired.search(name)] == []
    # the sweep's own mode scan is the only mode search
    assert not hasattr(hyperlap, "find_ell_max")
    assert not hasattr(hyperlap.sl_family, "find_ell_max")
    # single-mode solves take plain arguments and return plain arrays
    for name in ("Spectrum", "SLProblem"):
        assert name not in names
        assert not hasattr(hyperlap, name)
    # the FD oracle sizes its own grid from the gaps
    for fn in (hyperlap.sweep, hyperlap.solve_certified):
        assert "oracle_m" not in inspect.signature(fn).parameters
    # every returned eigenvalue is certified: the dense plain solve, its
    # dense matrices and the unused eigenvalue shifts are gone
    for module, name in (
        (hyperlap.sl_family, "solve_problem"),
        (hyperlap.eigen, "pencil_eigenvalues"),
        (hyperlap.sl_family, "lambda_from_nu"),
        (hyperlap.sl_family, "nu_from_lambda"),
    ):
        assert name not in names
        assert not hasattr(hyperlap, name)
        assert not hasattr(module, name)
    for name in ("mass", "operator"):
        assert not hasattr(hyperlap.GalerkinFamily, name)
    # the solvers take the coupling kappa, and Gamma is the standard library's
    for module, name in (
        (hyperlap.discretize, "PotentialSpec"),
        (hyperlap.constants, "gamma_fn"),
    ):
        assert name not in names
        assert not hasattr(hyperlap, name)
        assert not hasattr(module, name)
    assert not hasattr(hyperlap.ProductDomain, "transverse")


def test_import_does_not_load_sparse_linalg():
    # the Lanczos solver runs on scipy.linalg's LAPACK and BLAS alone: neither
    # importing hyperlap nor a sweep or a certified solve loads scipy.sparse
    root = os.path.dirname(os.path.dirname(os.path.abspath(hyperlap.__file__)))
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys, hyperlap; iv = hyperlap.Interval(-1.0, 1.0); "
        "hyperlap.sweep(iv, 40.0, n=64); hyperlap.solve_certified(iv, 1.0, 100.0, n=64); "
        "print('scipy.sparse' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
