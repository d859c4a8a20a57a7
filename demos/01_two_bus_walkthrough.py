"""Walkthrough on the smallest possible grid: one generator, one load, one line.

Covers the full round trip: write a MATPOWER-style case as text, parse it,
price individual attacks with the inner LP, and run the full worst-case
solver.

Run:  python demos/01_two_bus_walkthrough.py
"""

from nkshed import AttackerModel, AttackPlan, parse_case, solve_inner, solve_interdiction

CASE = """function mpc = two_bus
mpc.baseMVA = 100;
mpc.bus = [
    1  3    0  0  0 0 1 1.0 0 230 1 1.1 0.9;
    2  1  100  0  0 0 1 1.0 0 230 1 1.1 0.9;
];
mpc.gen = [
    1  0  0  30 -30 1.0 100 1 100 0;
];
mpc.branch = [
    1  2  0.0  0.1  0.0  100  0 0 0 0 1 -360 360;
];
"""

net = parse_case(CASE)
print(f"parsed {len(net.buses)} buses, {len(net.lines)} lines, "
      f"total load {sum(b.demand for b in net.buses):.2f} p.u.")

# With nothing attacked the single line carries the whole megawatt and no
# load is shed. A solution's arrays are by position: flow[0] is line 1 and
# shed[1] is bus 2 (net.line_pos and net.bus_pos map ids to positions).
base = solve_inner(net, AttackPlan([]))
print(f"no attack:   shed {base.eta:.3f} p.u., line flow {base.flow[0]:+.3f} p.u.")

# Remove the line and the load bus is stranded: everything sheds.
hit = solve_inner(net, AttackPlan([1]))
print(f"line 1 out:  shed {hit.eta:.3f} p.u., bus 2 shed factor {hit.shed[1]:.2f}")

# The solver searches over all k-line attacks; here there is exactly one.
plan, eta, state = solve_interdiction(net, AttackerModel.traditional(1))
print(f"worst k=1 attack: lines {sorted(plan.lines)}, shed {eta:.3f} p.u., "
      f"{state.iterations} iteration(s), status {state.status}")
