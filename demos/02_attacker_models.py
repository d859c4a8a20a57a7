"""Compare the three attacker budgets on one network, with certification.

The unconstrained (traditional) attacker can pick any k lines; the spatial
attacker must stay inside a disk; the topological attacker must take a
connected set of lines. Constraining the attacker can only lower the
worst-case shed, and the brute-force oracle certifies every number at this
scale.

Run:  python demos/02_attacker_models.py
"""

from nkshed import AttackerModel, certify, solve_to_report
from nkshed.fixtures import SPATIAL_D, mesh8

net = mesh8()
D = SPATIAL_D["mesh8"]

print(f"mesh8: {len(net.buses)} buses, {len(net.lines)} lines, disk D = {D} km")
print(f"{'budget':<14} {'k':>2} {'shed p.u.':>10} {'iters':>6} {'gap %':>6} "
      f"{'certified':>9}  lines")

for k in (1, 2, 3):
    for variant in ("traditional", "spatial", "topological"):
        model = (AttackerModel.spatial(k, D) if variant == "spatial"
                 else AttackerModel(variant, k))
        report = solve_to_report(net, model)
        print(f"{variant:<14} {k:>2} {report.eta_star:>10.4f} {report.iterations:>6} "
              f"{report.rel_gap_pct:>6.2f} {str(report.bound_certified):>9}  "
              f"{report.interdicted_lines}")

# Cross-check one cell of the table against exhaustive enumeration.
outcome = certify(net, AttackerModel.topological(2))
print(f"\ncertify topological k=2: engine {outcome['engine_eta']:.4f} vs "
      f"oracle {outcome['oracle_eta']:.4f} over {outcome['evaluated']} feasible "
      f"attacks -> {'agree' if outcome['agree'] else 'DISAGREE'}")
