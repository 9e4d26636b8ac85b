"""The LAPACK routines that hyperlap._lapack loads by file path.

This module imports no scipy.linalg itself, so a fresh interpreter can
import it with hyperlap first and scipy.linalg after.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

import hyperlap
from hyperlap import _lapack

ROUTINES = ("dpbtrf", "dpbtrs", "dstein", "dsterf", "dtbtrs", "dsygv")


def outputs(lib):
    """One call of each routine of ``lib`` on a small fixed input, by name.

    ``lib`` maps a routine name to the routine; each call is made as the
    package makes it.
    """
    order = 7
    i = np.arange(order)
    band = np.asfortranarray([4.0 + np.sin(i), 0.5 * np.cos(i), 0.25 * np.sin(2.0 * i)])
    rhs = np.cos(1.0 + i)
    d, e = 1.0 + np.sin(i), 0.5 + np.cos(i[1:])
    a = np.cos(np.add.outer(i, i) / 3.0) + order * np.eye(order)
    b = np.exp(-np.abs(np.subtract.outer(i, i))) + np.eye(order)
    chol, info = lib["dpbtrf"](band, lower=1)
    assert info == 0
    w, info = lib["dsterf"](d, e)
    assert info == 0
    split = np.array([order] + [0] * (order - 1), dtype=np.int32)
    return {
        "dpbtrf": (chol, info),
        "dpbtrs": lib["dpbtrs"](chol, rhs, lower=1),
        "dstein": lib["dstein"](d, e, w[2:5], np.ones(order, dtype=np.int32), split),
        "dsterf": (w, info),
        "dtbtrs": lib["dtbtrs"](chol, rhs, uplo="L", trans="T"),
        "dsygv": lib["dsygv"](a, b, jobz="N"),
    }


def mismatches(mine, theirs):
    """Routines whose outputs differ in any bit, dtype or shape."""
    return [
        name
        for name in ROUTINES
        if len(mine[name]) != len(theirs[name])
        or any(
            np.asarray(x).dtype != np.asarray(y).dtype
            or np.shape(x) != np.shape(y)
            or np.asarray(x).tobytes() != np.asarray(y).tobytes()
            for x, y in zip(mine[name], theirs[name])
        )
    ]


def scipy_routines():
    import scipy.linalg.lapack

    return {name: getattr(scipy.linalg.lapack, name) for name in ROUTINES}


def test_routines_match_scipy_linalg():
    # in this process the test setup imported scipy.linalg first
    assert sorted(ROUTINES) == sorted(n for n in vars(_lapack) if n.startswith("d"))
    mine = outputs({name: getattr(_lapack, name) for name in ROUTINES})
    assert mismatches(mine, outputs(scipy_routines())) == []


def test_routines_match_scipy_linalg_imported_after():
    # a fresh interpreter imports hyperlap first and scipy.linalg after: the
    # routines still match, and a sweep after the import equals one before
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(os.path.dirname(os.path.abspath(hyperlap.__file__)))
    path = os.pathsep.join(filter(None, [here, root, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys, numpy as np, hyperlap, test_lapack as t\n"
        "def table():\n"
        "    s = hyperlap.sweep(hyperlap.Interval(-1.0, 1.0), 200.0, n=64)\n"
        "    return np.array(s.entries).tobytes(), s.ell_max\n"
        "mine = t.outputs({name: getattr(hyperlap._lapack, name) for name in t.ROUTINES})\n"
        "before = table()\n"
        "assert 'scipy.linalg' not in sys.modules\n"
        "theirs = t.outputs(t.scipy_routines())\n"
        "assert 'scipy.linalg' in sys.modules\n"
        "print(t.mismatches(mine, theirs), table() == before)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[] True"


def test_missing_extension_names_the_paths_searched():
    with pytest.raises(ImportError, match="_no_such_module.*searched .*linalg"):
        _lapack._extension("_no_such_module")
