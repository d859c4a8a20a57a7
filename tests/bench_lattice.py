"""The benchmark's lattice networks (``bench/lattice.py`` at net seed 1), for tests."""

import importlib.util
from pathlib import Path

from nkshed.netmodel import Network, parse_case

_path = Path(__file__).resolve().parent.parent / "bench" / "lattice.py"
_spec = importlib.util.spec_from_file_location("lattice", _path)
_lattice = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_lattice)


def lattice(rows: int, cols: int) -> Network:
    """The rows x cols lattice at net seed 1, without its geolocation."""
    return parse_case(_lattice.lattice_text(rows, cols, 1)[0])
