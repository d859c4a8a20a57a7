"""The benchmark's workloads, their pinned oracle references, and the check.

Every workload solves one instance built by ``lattice.lattice_text`` at
``NET_SEED``. The references are the best eta and line set that
``solve_exhaustive`` found on that instance, computed once and pinned here;
the benchmark's ``--seed`` only relabels the text (see ``lattice``), so they
hold for every seed. A mismatch is a failed solve, never a reason to pick
another instance.

Importing this module imports ``nkshed``, so ``src`` must be on ``sys.path``.
"""

from __future__ import annotations

from dataclasses import dataclass

import nkshed

__all__ = ["NET_SEED", "Workload", "Outcome", "WORKLOADS", "solve", "check"]

NET_SEED = 1

# Tolerance on shed values that the solvers compute from the same LP.
ETA_TOL = 1e-7


@dataclass(frozen=True)
class Workload:
    """One instance and the call that solves it.

    ``bounds_mode`` names the penalty rates of a cutting-plane solve; ``None``
    marks the brute-force oracle workload.
    """

    name: str
    rows: int
    cols: int
    variant: str
    k: int
    bounds_mode: str | None
    ref_eta: float
    ref_lines: tuple[int, ...]

    @property
    def oracle(self) -> bool:
        return self.bounds_mode is None

    def attacker(self) -> nkshed.AttackerModel:
        return nkshed.AttackerModel(self.variant, self.k)


@dataclass
class Outcome:
    """What one solve returned, reduced to the fields the benchmark checks."""

    eta: float
    lines: tuple[int, ...]
    status: str
    iterations: int   # cutting-plane iterations, or attacks priced by the oracle
    recheck: float | None = None
    cuts: int = 0
    iters_to_best: int = 0


WORKLOADS = {w.name: w for w in (
    # Master-heavy: nearly all wall time is master MILPs that grow with the cuts.
    Workload("cg-trad-5x5-k2", 5, 5, "traditional", 2, "heuristic",
             0.756086737398915, (7, 9)),
    # Virtual-flow master columns, loose valid rates (many iterations), and
    # the only workload that runs the 2m dual-bound relaxation LPs.
    Workload("cg-topo-4x4-k2-valid", 4, 4, "topological", 2, "valid",
             0.673234010681308, (5, 7)),
    # No master at all: C(24, 3) = 2024 inner LPs.
    Workload("oracle-4x4-k3", 4, 4, "traditional", 3, None,
             1.3672084088462797, (1, 8, 11)),
)}


def solve(w: Workload, net: nkshed.Network) -> Outcome:
    """Run the workload's public solve call once on ``net``."""
    if w.oracle:
        res = nkshed.solve_exhaustive(net, w.attacker())
        return Outcome(res.best_eta, res.best_attack.sorted_lines(), "exhausted", res.evaluated)
    plan, eta, state = nkshed.solve_interdiction(
        net, w.attacker(), nkshed.SolveConfig(bounds_mode=w.bounds_mode))
    best = next((h["iteration"] for h in state.history if h["eta_hat"] == eta), 0)
    return Outcome(eta, plan.sorted_lines(), state.status, state.iterations,
                   state.eta_star_recheck, len(state.cuts), best)


def check(w: Workload, out: Outcome) -> str | None:
    """Return why ``out`` is wrong for ``w``, or ``None`` when it is right."""
    if out.status not in ("converged", "exhausted"):
        return f"status {out.status!r}"
    if len(out.lines) != w.k:
        return f"attack {out.lines} does not have k = {w.k} lines"
    if w.oracle:
        if abs(out.eta - w.ref_eta) > ETA_TOL or out.lines != w.ref_lines:
            return f"oracle best {out.eta!r} {out.lines} != pinned {w.ref_eta!r} {w.ref_lines}"
        return None
    # epsilon-optimality against the oracle value, SolveConfig's default tolerance
    config = nkshed.SolveConfig()
    if abs(out.eta - w.ref_eta) > config.epsilon * max(w.ref_eta, config.abs_floor):
        return f"eta_star {out.eta!r} is more than epsilon from the oracle's {w.ref_eta!r}"
    if out.recheck is None or abs(out.recheck - out.eta) > ETA_TOL:
        return f"final recheck {out.recheck!r} disagrees with eta_star {out.eta!r}"
    return None
