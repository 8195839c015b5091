"""Reproduce the spread-type summary table for q = 3, k = 3, n = 6.

Every divisor t of q^n - 1 = 728 with gcd(t, q^k - 1) = gcd(t, q - 1)
names a cyclic subgroup of the Singer group; the orbit of the canonical
flag under it is an optimum distance flag code whenever the gcd is a
proper divisor of t.
"""

from flagcodes import (admissible_subgroup_orders, build_spread_context,
                       flag_distance_bound, make_field,
                       spread_type_orbit_odfc, table_row)

F3 = make_field(3, 1)
ctx = build_spread_context(F3, 3, 2)
print(ctx)
print("spread size", len(ctx.spread), "member stabilizer order",
      ctx.member_stabilizer_order)
print()

# the admissible subgroup orders are exactly the table's t column
orders = admissible_subgroup_orders(ctx)
print("admissible t:", orders)
print()

print(f"{'t':>5} {'orbit':>6} {'orbits_max':>10} {'odfc':>5}")
for t in orders:
    row = table_row(ctx, t)
    print(f"{row.t:>5} {row.orbit_size:>6} {row.num_orbits:>10} "
          f"{'yes' if row.is_odfc else 'no':>5}")
print()

# spot check one row by hand: materialize the t = 28 orbit and match its
# minimum distance against the ceiling for full flags on GF(3)^6
code = spread_type_orbit_odfc(ctx, 28)
bound = flag_distance_bound(ctx.n, code.dims)
print("t=28 orbit:", len(code), "flags, distance",
      code.min_distance(), "of bound", bound)
