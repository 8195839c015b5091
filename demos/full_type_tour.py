"""Full flags on GF(q)^(2k+1): the orbit construction and its maximum.

The generator flag runs through U = rowspace(U1 | U2) at level k and
V = U + <(0 | v2)> at level k + 1.  Its orbit has q^(k+1) - 1 flags;
adjoining the two one-sided completions reaches q^(k+1) + 1, the largest
size any optimum distance full-type code on this space can have.  A
nonzero hook vector v1 keeps the size but destroys the distance, which is
why the construction pins v1 = 0.
"""

from flagcodes import (Matrix, build_full_type_context, flag_distance_bound,
                       full_type_generator_flag, full_type_max_odfc,
                       full_type_orbit_odfc, make_field)
from flagcodes.constructions import _max_code_with_hook

F2 = make_field(2, 1)
ctx = build_full_type_context(F2, 2)
print(ctx)
bound = flag_distance_bound(ctx.n, tuple(range(1, ctx.n)))
print("distance bound for full flags on GF(2)^5:", bound)
print()

flag = full_type_generator_flag(ctx)
for sub in flag.subspaces:
    print(" ", sub)

orbit = full_type_orbit_odfc(ctx, flag)
print("orbit:", len(orbit), "flags, distance", orbit.min_distance())

mx = full_type_max_odfc(ctx)
print("max:  ", len(mx), "flags, distance", mx.min_distance(),
      "(size q^(k+1) + 1 =", 2 ** 3 + 1, ")")
print()

# same game over GF(3): sizes 26 and 28
F3 = make_field(3, 1)
ctx3 = build_full_type_context(F3, 2)
orbit3 = full_type_orbit_odfc(ctx3, full_type_generator_flag(ctx3))
mx3 = full_type_max_odfc(ctx3)
print("q=3 orbit:", len(orbit3), "flags, distance",
      orbit3.min_distance())
print("q=3 max:  ", len(mx3), "flags, distance", mx3.min_distance())
print()

# the negative branch: v1 != 0 collapses a pair at the middle level
hooked = _max_code_with_hook(ctx, Matrix.identity(F2, 2),
                             Matrix.identity(F2, 3).take_rows(1, 3),
                             Matrix(F2, [[1, 0]]), Matrix(F2, [[1, 0, 0]]))
print("hooked v1=(1,0):", len(hooked), "flags, distance",
      hooked.min_distance(), "(below the bound)")
