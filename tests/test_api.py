"""The package's public names."""

import dataclasses
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
    # the Python bisection, the wrapper solvers and the copied coarse family
    # are gone: tests take their FD reference from LAPACK, and the sweep
    # reads the n pencil from the leading columns of the 2n bands
    for module, name in (
        (hyperlap.eigen, "tridiag_eigenvalues"),
        (hyperlap.eigen, "sturm_count"),
        (hyperlap.eigen, "lowest_pencil_eigenvalues"),
        (hyperlap.eigen, "_MAX_SWEEPS"),
        (hyperlap.discretize, "_leading_band"),
        (hyperlap.sl_family, "_families"),
        # _certified_modes checks and sizes every certified solve itself
        (hyperlap.sl_family, "_family"),
        (hyperlap.sl_family, "_check_tol"),
    ):
        assert name not in names
        assert not hasattr(hyperlap, name)
        assert not hasattr(module, name)
    assert not hasattr(hyperlap.TridiagOperator, "to_dense")
    assert not hasattr(hyperlap.GalerkinFamily, "leading")


def test_import_loads_no_scipy_linalg_package():
    # the package calls scipy's compiled LAPACK module, loaded by
    # hyperlap._lapack without scipy.linalg's init, and no BLAS module of
    # scipy's: neither importing hyperlap nor a sweep, a certified solve,
    # the Polya check, a trace check or the Sobolev quadrature loads
    # scipy.linalg, its _fblas or scipy.sparse.  numpy.ma stays out too:
    # np.unique and np.union1d would import it.
    root = os.path.dirname(os.path.dirname(os.path.abspath(hyperlap.__file__)))
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys, hyperlap; iv = hyperlap.Interval(-1.0, 1.0); "
        "s = hyperlap.sweep(iv, 40.0, n=64); hyperlap.solve_certified(iv, 1.0, 100.0, n=64); "
        "cf = hyperlap.CountingFunction.from_table(s, 2.0 * 3.14159); "
        "hyperlap.verify_bound(cf, 'polya', 40.0); hyperlap.polya_rows(cf, 40.0); "
        "d = hyperlap.ProductDomain(); t = hyperlap.family_table(d, 40.0, n=64); "
        "hyperlap.lt_check(hyperlap.BoxPotential(d, 30.0), 1.0, t); "
        "[hyperlap.sobolev_check(hyperlap.trial_profile(name)) for name in hyperlap.TRIAL_NAMES]; "
        "print([m for m in ('scipy.linalg', 'scipy.linalg._fblas', 'scipy.sparse', 'numpy.ma') "
        "if m in sys.modules])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_import_loads_no_network_stack():
    # svgplot escapes its own text: xml.sax.saxutils would import
    # urllib.request and with it http.client, ssl and email.  Bare urllib
    # is not checked, since site may load urllib.parse at start-up.
    root = os.path.dirname(os.path.dirname(os.path.abspath(hyperlap.__file__)))
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys, hyperlap, hyperlap.cli, hyperlap.svgplot; "
        "hyperlap.svgplot.line_plot([('a<b', [0, 1], [0, 1])], title='N & W', "
        "xlabel='x > 0', ylabel='<y>'); "
        "print([m for m in ('xml.sax', 'urllib.request', 'http.client', 'ssl', 'email') "
        "if m in sys.modules])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_no_module_imports_scipy_linalg():
    # no module imports scipy.linalg or its public submodules, and _lapack
    # is the only one that names scipy's extension modules
    src = os.path.dirname(os.path.abspath(hyperlap.__file__))
    imports = re.compile(r"^\s*(from|import)\s+scipy\.linalg\b|^\s*from\s+scipy\s+import\s+linalg\b", re.M)
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as f:
                text = f.read()
            assert not imports.search(text), name
            assert ("_flapack" in text or "_fblas" in text) == (name == "_lapack.py"), name


def test_lanczos_takes_the_factors_and_the_fd_operator_holds_its_matrix():
    # the Lanczos takes the Cholesky factors its caller holds, not the bands
    params = list(inspect.signature(hyperlap.eigen.lowest_pencil_eigenpairs).parameters)
    assert params == ["factor", "root", "k", "start"]
    # the FD operator is its matrix: no grid spacing, no nodes
    fields = [f.name for f in dataclasses.fields(hyperlap.TridiagOperator)]
    assert fields == ["diag", "offdiag"]
    assert hyperlap.assemble_fd(hyperlap.Interval(-1.0, 1.0), 0.0, m=5).m == 5
    # so is the Galerkin family, with no interval and no n: the bracket
    # helpers take n from the certified loop
    fields = [f.name for f in dataclasses.fields(hyperlap.GalerkinFamily)]
    assert fields == ["stiffness", "mass_band", "weight_band"]
    for fn in (hyperlap.sl_family._rayleigh_ritz, hyperlap.sl_family._mode_values):
        assert next(iter(inspect.signature(fn).parameters)) == "n"
