"""Imported first by every benchmark entry point.

Fixes the interpreter's string-hash seed, re-executing the process once if
it was not fixed: with randomized hashing, the same workload's timings moved
by 10% from one process to the next (the package hashes dataclasses, sets
and frozensets on every step). Pins BLAS to one thread before numpy loads
(otherwise the n=400 eigen-solves of certify spread over every core of a
shared machine). Imports the package from the checkout's own ``src/``,
never from an installed copy.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
ENV_PINS = {
    "PYTHONHASHSEED": "0",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

if "numpy" in sys.modules:
    raise RuntimeError("checkout must be imported before numpy to pin BLAS threads")
if os.environ.get("PYTHONHASHSEED") != ENV_PINS["PYTHONHASHSEED"]:
    os.environ.update(ENV_PINS)
    os.execv(sys.executable, [sys.executable] + sys.argv)
os.environ.update(ENV_PINS)


class MissingPackage(Exception):
    pass


def import_package():
    """Import ``adn_consensus`` from ``ROOT/src``; raise MissingPackage if
    the checkout has no package there."""
    pkg_dir = os.path.join(SRC, "adn_consensus")
    if not os.path.isfile(os.path.join(pkg_dir, "cli.py")):
        raise MissingPackage(f"no adn_consensus package under {SRC}")
    sys.path.insert(0, SRC)
    import adn_consensus
    import adn_consensus.cli

    if os.path.dirname(os.path.abspath(adn_consensus.__file__)) != pkg_dir:
        raise MissingPackage(f"adn_consensus was imported from {adn_consensus.__file__}")
    return adn_consensus
