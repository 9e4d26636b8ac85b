"""The package's public names."""

import re

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
