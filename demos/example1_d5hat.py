"""The D5-hat worked example: counts, the reduced inequality system, and
redundancy elimination.

The quiver is

    x1 \\             / x5
        x3 --> x4 --
    x2 /             \\ x6

with the involution pairing x1<->x6, x2<->x5, x3<->x4.  For the symmetric
dimension vector alpha = (2,3,4,4,3,2) the full Derksen-Weyman description of
the cone uses 244 inequalities, the inductive description 57, and the reduced
description for anti-symmetric weights only 10 (including the trivial one).
"""

from quiver_cones import (
    DimVector,
    ExtTable,
    counts,
    inequalities,
    irredundant_core,
    is_redundant,
    make_d5hat,
)

q, tau = make_d5hat()
t = ExtTable(q)
alpha = DimVector(q, (2, 3, 4, 4, 3, 2))

n1, n2, (n3,) = counts(t, alpha, [tau])
print(f"alpha = {alpha.values}")
print(f"n1 = {n1} (all generic subdimensions)")
print(f"n2 = {n2} (inductive test)")
print(f"n3 = {n3} (anti-invariant reduction)")
print()

# Anti-symmetric weights are determined by their values on one vertex per
# swapped orbit; we use (x4, x5, x6) so sigma = (-c, -b, -a, c, b, a).
system = inequalities(t, alpha, "antiinv", inv=tau, representatives=("x4", "x5", "x6"))

print("reduced system in coordinates (sigma(x4), sigma(x5), sigma(x6)),")
print("each row c meaning c . sigma <= 0:")
rows = sorted(set(system.restricted_rows()))
for row in rows:
    if any(row):
        print("   ", row)
print()

# One of the nine is already implied by the others:
idx = system.restricted_rows().index((0, 3, 2))
print("(0, 3, 2) redundant against the rest?", is_redundant(system, idx))

core = irredundant_core(system)
print("irredundant core:")
for row in sorted(set(core.restricted_rows())):
    if any(row):
        print("   ", row)
