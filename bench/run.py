"""nkshed benchmark: one seeded workload, timed end to end or traced by layer.

Usage, from the repository root:

    python3 bench/run.py --workload cg-trad-5x5-k2 --seed 1 --seconds 40 --trace 0

One process, one caller, one solve at a time (a closed loop, no worker
threads). The workload's network comes from ``lattice.py``; nkshed receives
only its MATPOWER and ``bus_id,lat,lon`` text. Solves repeat until the next
one would overrun ``--seconds`` (at least one runs), and each is checked
against the workload's pinned oracle reference.

``--trace 0`` reports the end-to-end metrics: median ``solve_s``; median
``setup_s`` over fresh interpreters that import nkshed and parse the text
(one before each solve, at least five); ``iterations``; ``peak_rss_mb``.
``--trace 1`` runs one untraced solve, then traced ones (``tracing.py``), and
reports per-layer metrics and the tracing overhead. HiGHS writes stray lines to file descriptor 1, so fd 1 goes
to a file while solves run and the lines are counted.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``.
The full record, with the environment and every sample, and in traced runs
all spans, is written under ``.bench_out/``. Without ``src/nkshed`` beside
this directory the script exits with code 2 and prints no result.
"""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    if not (SRC / "nkshed" / "__init__.py").is_file():
        print(f"benchmark: no nkshed sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness
    return harness.main()


if __name__ == "__main__":
    sys.exit(main())
