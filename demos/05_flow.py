"""When every timestep is used once, the gap closes and flow takes over.

On *injective* instances (no label repeats anywhere) the packing and
covering optima coincide, and both drop out of one max-flow computation on
a time-expanded network — the paths from the flow, the cut from its
residual graph — with no product-digraph search needed.
"""

from tgmenger.core import TemporalGraph
from tgmenger.errors import NotInjective
from tgmenger.fixtures import demo_network
from tgmenger.injective_flow import injective_connectivity
from tgmenger.oracles import brute_force_c, brute_force_p

g = TemporalGraph(
    [
        ("sa", "s", "a", 1),
        ("sb", "s", "b", 2),
        ("az", "a", "z", 3),
        ("bz", "b", "z", 4),
        ("ab", "a", "b", 6),
    ]
)
print(g)

res = injective_connectivity(g, "s", "z")
print(f"flow value = {res.value}")
for walk in res.family:
    print("   path:", walk.pretty())
print("   min snapshot cut:", sorted(res.cut_labels))

p = brute_force_p(g, "s", "z").value
c = brute_force_c(g, "s", "z").value
print(f"brute force agrees: p = {p}, c = {c}")
print()

# Repeating labels void the warranty, and the solver says so rather than
# silently answering the wrong question.
try:
    injective_connectivity(demo_network().graph, "s", "z")
except NotInjective as exc:
    print("demo network rejected:", exc)
