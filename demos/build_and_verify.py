"""Build one optimum distance flag code, verify it two ways, round-trip it.

The orbit construction guarantees nothing by itself; the two verdicts
(distance computed from scratch against the bound, and the projected-code
characterization at the two critical levels) must agree on every code.
"""

import tempfile

from flagcodes import (build_spread_context, critical_indices, flag_distance,
                       flag_distance_bound, is_disjoint,
                       is_odfc_by_characterization, is_odfc_by_definition,
                       make_field, projected_code, read_code_file,
                       spread_type_max_odfc, write_flag_code)

F2 = make_field(2, 1)
ctx = build_spread_context(F2, 3, 2)
code = spread_type_max_odfc(ctx, 3)
print("built", len(code), "flags of type", code.dims, "on GF(2)^6")

# the two levels closest to n/2 decide everything
a, b = critical_indices(code.n, code.dims)
print("critical levels:", a, b)
for i in sorted({a, b}):
    proj = projected_code(code, i)
    print(f"  level {i}: {len(proj)} subspaces of dim {code.dims[i - 1]}, "
          f"distance {proj.min_distance()}")

d = min(flag_distance(f, g)
        for i, f in enumerate(code.members)
        for g in code.members[i + 1:])
bound = flag_distance_bound(code.n, code.dims)
print("distance", d, "of bound", bound)
print("disjoint:", is_disjoint(code))
print("odfc by definition:", is_odfc_by_definition(code))
print("odfc by characterization:", is_odfc_by_characterization(code))

# the text format round-trips the code exactly
with tempfile.NamedTemporaryFile(suffix=".flagcode", delete=False) as fh:
    path = fh.name
write_flag_code(code, path)
again = read_code_file(path).code
print("round trip equal:", again == code)
