"""Regenerate the benchmark's reference data from the library at this commit.

    python3 perfbench/make_reference.py

Writes into perfbench/reference/:

- paper-1000.csv: the certified cutoff-1000 table on (-1, 1), made by
  ``hyperlap sweep --cutoff 1000 --csv ...`` (582 rows, ell_max 71).
- trace-family.csv: ``family_table(ProductDomain(x_length=2*pi), 100, n=200)``
  (105 rows, ell_max 36), the kappa_fn path of the sweep.
- sobolev.json: ``hyperlap sobolev --profile all --json ...`` on the
  model strip.

The workloads compare every run against these files, so regenerate them
only when a change is meant to alter the certified results.
"""

import math
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REF = os.path.join(ROOT, "perfbench", "reference")
sys.path.insert(0, os.path.join(ROOT, "src"))

from hyperlap import ProductDomain, family_table  # noqa: E402
from hyperlap.cli import main as cli_main  # noqa: E402


def main():
    os.makedirs(REF, exist_ok=True)
    code = cli_main(
        ["sweep", "--cutoff", "1000", "--csv", os.path.join(REF, "paper-1000.csv")]
    )
    if code != 0:
        raise SystemExit(f"hyperlap sweep exited {code}")
    table = family_table(ProductDomain(x_length=2.0 * math.pi), 100.0, n=200)
    with open(os.path.join(REF, "trace-family.csv"), "w") as fh:
        fh.write(table.to_csv())
    code = cli_main(
        ["sobolev", "--profile", "all", "--json", os.path.join(REF, "sobolev.json")]
    )
    if code != 0:
        raise SystemExit(f"hyperlap sobolev exited {code}")


if __name__ == "__main__":
    main()
