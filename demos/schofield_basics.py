"""A first tour: Euler form, generic hom/ext, and generic subdimensions.

Everything here is exact integer arithmetic; no representation is ever
constructed.  The generic values are reads of one integer table per quiver,
filled bottom-up by Schofield's criterion for generic subdimensions.
"""

from quiver_cones import (
    DimVector,
    ExtTable,
    euler_form,
    make_kronecker,
    make_line,
)

# The A3 quiver 1 -> 2 -> 3.
q, _ = make_line(3)
t = ExtTable(q)

print("quiver:", q.name)
print()

# The Euler-Ringel form equals generic hom minus generic ext.
a = DimVector(q, (1, 1, 0))
b = DimVector(q, (0, 1, 1))
print(f"<{a.values},{b.values}> =", euler_form(q, a, b))
print("hom =", t.hom(a, b), " ext =", t.ext(a, b))
print()

# Generic subdimensions of the sincere vector: every representation of
# dimension (1,1,1) contains subrepresentations of exactly these dimensions.
alpha = DimVector(q, (1, 1, 1))
print(f"generic subdimensions of {alpha.values}:")
for beta in t.generic_subdims(alpha):
    print("   ", beta.values)
print()

# On the Kronecker quiver the count of generic subdimensions grows quickly
# with the dimension vector even though the quiver has just two vertices.
k, _ = make_kronecker(2)
tk = ExtTable(k)
for n in range(1, 6):
    alpha = DimVector(k, (n, n))
    print(f"Theta2, alpha = {alpha.values}: "
          f"{len(tk.generic_subdims(alpha))} generic subdimensions")
