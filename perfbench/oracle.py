"""Answer oracle: expected results from the paper's formulas alone.

Nothing here imports the library under test, and no answer comes from
`is_odfc_*` or `min_distance`.  The facts used:

* the orbit of the canonical admissible flag under the order-t subgroup
  of the Singer group has t / gcd(t, q - 1) flags, and is an optimum
  distance flag code (ODFC) iff gcd(t, q^k - 1) = gcd(t, q - 1) != t;
* (q^n - 1) gcd(t, q - 1) / ((q^k - 1) t) such orbits make the maximum
  spread-type code, of size (q^n - 1) / (q^k - 1);
* the full-type orbit has q^(k+1) - 1 flags and the maximum full-type code
  q^(k+1) + 1, both ODFC;
* a flag code of type (t_i) has distance at most 2 sum min(t_i, n - t_i),
  an ODFC attains it at every level, so it is disjoint;
* a spread of GF(q)^n into k-spaces has (q^n - 1) / (q^k - 1) members at
  distance 2k, the orbit of one member under the order-t subgroup is a
  partial spread of t / gcd(t, q^k - 1) members, and the hyperplane code
  (dimension n - k > n / 2) is at distance 2k but is no partial spread.

The two paper tables are also frozen by hand; the size of every code
built in one of their contexts is checked against them too.
"""

from math import gcd

# (t, orbit size, number of orbits, ODFC) for (q=3, k=3, s=2) and
# (q=4, k=3, s=3), as printed in the paper.
PAPER_TABLES = {
    (3, 3, 2): (
        (1, 1, 28, False), (2, 1, 28, False), (4, 2, 14, True),
        (7, 7, 4, True), (8, 4, 7, True), (14, 7, 4, True),
        (28, 14, 2, True), (56, 28, 1, True),
    ),
    (4, 3, 3): (
        (1, 1, 4161, False), (3, 1, 4161, False), (19, 19, 219, True),
        (57, 19, 219, True), (73, 73, 57, True), (219, 73, 57, True),
        (1387, 1387, 3, True), (4161, 1387, 3, True),
    ),
}

SPREAD_KINDS = ("spread_type_orbit_odfc", "spread_type_max_odfc",
                "union_shared")
FULL_KINDS = ("full_type_orbit_odfc", "full_type_max_odfc")
SUBCODE_KINDS = ("spread", "hyperplanes", "partial_spread")


def q_of(job) -> int:
    return job["p"] ** job["e"]


def ambient(job) -> int:
    if job["kind"] in FULL_KINDS:
        return 2 * job["k"] + 1
    return job["k"] * job["s"]


def flag_dims(job) -> tuple:
    n, k = ambient(job), job["k"]
    if job["kind"] in FULL_KINDS:
        return tuple(range(1, n))
    return tuple(range(1, k + 1)) + tuple(d for d in range(n - k, n) if d > k)


def distance_bound(n: int, dims) -> int:
    return 2 * sum(min(t, n - t) for t in dims)


def critical(n: int, dims) -> list:
    a = max((i for i, t in enumerate(dims, 1) if 2 * t <= n), default=None)
    b = min((i for i, t in enumerate(dims, 1) if 2 * t >= n), default=None)
    return [a, b]


def orbit_size(q: int, t: int) -> int:
    return t // gcd(t, q - 1)


def orbit_is_odfc(q: int, k: int, t: int) -> bool:
    return gcd(t, q ** k - 1) == gcd(t, q - 1) != t


def code_size(job) -> int:
    q, k, t = q_of(job), job["k"], job["t"]
    kind = job["kind"]
    if kind == "spread_type_orbit_odfc":
        return orbit_size(q, t)
    if kind in ("spread_type_max_odfc", "spread", "hyperplanes"):
        return (q ** ambient(job) - 1) // (q ** k - 1)
    if kind == "union_shared":
        return 2 * orbit_size(q, t)
    if kind == "full_type_orbit_odfc":
        return q ** (k + 1) - 1
    if kind == "full_type_max_odfc":
        return q ** (k + 1) + 1
    if kind == "partial_spread":
        return t // gcd(t, q ** k - 1)
    raise ValueError(f"no size formula for {kind}")


def paper_size(job):
    """Code size read off the frozen paper tables, or None when the job's
    context has no table: t / gcd(t, q - 1) for an orbit, that times the
    orbit count for a maximum code, twice it for two orbits."""
    if job["kind"] not in SPREAD_KINDS:
        return None
    rows = PAPER_TABLES.get((q_of(job), job["k"], job["s"]), ())
    for t, size, count, _ in rows:
        if t == job["t"]:
            return {"spread_type_orbit_odfc": size,
                    "spread_type_max_odfc": size * count,
                    "union_shared": 2 * size}[job["kind"]]
    return None


def _paper_problems(job, size) -> list:
    want = paper_size(job)
    return [] if want in (None, size) else [f"size {size} != {want} from the paper table"]


def is_odfc(job) -> bool:
    kind = job["kind"]
    if kind == "spread_type_orbit_odfc":
        return orbit_is_odfc(q_of(job), job["k"], job["t"])
    return kind != "union_shared"


# -- verify ------------------------------------------------------------------

def expected_verify(job) -> dict:
    """The fields of the `verify` JSON line the formulas pin down."""
    q, n, k = q_of(job), ambient(job), job["k"]
    size = code_size(job)
    if job["kind"] in SUBCODE_KINDS:
        dim = n - k if job["kind"] == "hyperplanes" else k
        return {
            "kind": "subspace-code", "q": q, "n": n, "dim": dim, "size": size,
            "distance": 2 * k, "max_distance": 2 * min(dim, n - dim),
            "partial_spread": job["kind"] != "hyperplanes",
            "spread": job["kind"] == "spread",
            "partial_spread_bound": (q ** n - q ** (n % dim)) // (q ** dim - 1),
        }
    dims = flag_dims(job)
    bound = distance_bound(n, dims)
    odfc = is_odfc(job)
    if odfc:
        distance = bound
    elif size == 1:
        distance = 0
    else:
        # union_shared: the two orbits differ at the first level only
        distance = 2
    out = {
        "kind": "flag-code", "q": q, "n": n, "type": list(dims), "size": size,
        "distance": distance, "bound": bound, "is_odfc": odfc,
        "odfc_by_definition": odfc, "odfc_by_characterization": odfc,
        "verdicts_agree": True, "critical": critical(n, dims),
        "disjoint": job["kind"] != "union_shared",
    }
    if job["kind"] in SPREAD_KINDS:
        out["tower"] = [k, job["s"]]
    return out


def _level_problems(job, levels) -> list:
    n, dims = ambient(job), flag_dims(job)
    size = code_size(job)
    if [lv.get("dim") for lv in levels] != list(dims):
        return [f"levels {levels!r} do not match type {dims}"]
    bad = []
    for i, (t, lv) in enumerate(zip(dims, levels), start=1):
        dmax = 2 * min(t, n - t)
        if lv.get("projected_max") != dmax:
            bad.append(f"level {i}: projected_max {lv.get('projected_max')} != {dmax}")
        if job["kind"] == "union_shared":
            want = None if i == 1 else (size // 2, dmax)
        elif size == 1:
            want = (1, 0)
        else:
            want = (size, dmax)
        got = (lv.get("projected_size"), lv.get("projected_distance"))
        if want is not None and got != want:
            bad.append(f"level {i}: (size, distance) {got} != {want}")
    return bad


def check_verify(job, answer) -> list:
    """Problems with one verify job's answer; [] when it is right."""
    if answer.get("rc") != 0:
        return [f"exit code {answer.get('rc')}"]
    report = answer["report"]
    bad = [f"{key}: {report.get(key)!r} != {want!r}"
           for key, want in expected_verify(job).items()
           if report.get(key) != want]
    bad += _paper_problems(job, report.get("size"))
    if job["kind"] not in SUBCODE_KINDS:
        bad += _level_problems(job, report.get("levels", []))
    return bad


# -- construct ---------------------------------------------------------------

def _file_flags(text: str):
    """(header lines, flags) of a FLAGCODE text; a flag is a tuple of
    levels, a level a tuple of its row lines."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    header, body = lines[:5], lines[5:]
    flags, levels = [], None
    for ln in body:
        if ln == "flag":
            levels = []
            flags.append(levels)
        elif ln.startswith("subspace"):
            levels.append([])
        else:
            levels[-1].append(ln)
    return header, [tuple(tuple(lv) for lv in f) for f in flags]


def check_construct(job, answer, text: str) -> list:
    """Problems with one construct job: in-memory size plus the written
    file read back as text (header, distinct flags, disjoint levels)."""
    q, n, dims = q_of(job), ambient(job), flag_dims(job)
    size = code_size(job)
    bad = _paper_problems(job, answer.get("size"))
    for key, want in (("size", size), ("n", n), ("q", q), ("type", list(dims))):
        if answer.get(key) != want:
            bad.append(f"{key}: {answer.get(key)!r} != {want!r}")
    header, flags = _file_flags(text)
    want_header = ["FLAGCODE v1", f"ambient n={n}",
                   "type " + ",".join(map(str, dims)), f"count {size}"]
    if [header[0]] + header[2:] != want_header:
        bad.append(f"header {header!r} != {want_header!r}")
    if not header[1].startswith(f"field p={job['p']} e={job['e']}"):
        bad.append(f"field line {header[1]!r}")
    if len(flags) != size or len(set(flags)) != size:
        bad.append(f"file holds {len(flags)} flags, {len(set(flags))} distinct,"
                   f" want {size}")
    for i, t in enumerate(dims):
        level = {f[i] for f in flags}
        if len(level) != size:
            bad.append(f"level {i + 1} repeats: {len(level)} of {size} distinct")
        if any(len(rows) != t for rows in level):
            bad.append(f"level {i + 1} has a basis of the wrong size")
    return bad
