"""Workload definitions: contexts to set up and seeded job draws.

Pure data and stdlib only, so the orchestrator can draw jobs without
importing the library under test.  Each workload is a list of strata; a
stratum is a list of interchangeable job variants of near-equal cost.  A
seed draws one variant from every stratum and then shuffles the job order,
so every seed gets the same number of jobs in each size class and the
cost of a pass does not depend on the seed.

A job is a flat dict of JSON scalars.  `kind` names what the job runs;
`p, e, k, s, t` are its parameters (q = p**e).  Contexts are tuples:
("spread", p, e, k, s), ("full", p, e, k) and ("field", p, e).
"""

import random

WORKLOADS = ("construct", "verify")


def _job(kind, p, e, k, s=None, t=None):
    return {"kind": kind, "p": p, "e": e, "k": k, "s": s, "t": t}


# -- construct ---------------------------------------------------------------
# Each job builds one code and writes its FLAGCODE file.  Minimum cost (build
# plus format) with Python 3.11 on one vCPU of a shared Intel Xeon VM:
# H 2.1-2.3 s, M 60-175 ms, C 28-34 ms, L 4-25 ms.  The two H strata are the (q=4, k=3, s=3)
# maximum codes: t in {19, 57} gives 219 orbits of 19, t in {1387, 4161}
# 3 orbits of 1387.  The three C strata sit in the middle of the sorted
# costs (five jobs below, five above), so job_p50_norm_ms measures jobs of one
# size on every seed.  The (q=3, k=3) one has a single variant: its orbit
# code costs about 10% less than its maximum code, and drawing between
# them moved job_p50_norm_ms by seed more than the machine did.

def _construct_strata():
    so, sm = "spread_type_orbit_odfc", "spread_type_max_odfc"
    fo, fm = "full_type_orbit_odfc", "full_type_max_odfc"
    return [
        # (kept in the small job list?, variants)
        (False, [_job(sm, 2, 2, 3, 3, t) for t in (19, 57)]),
        (False, [_job(sm, 2, 2, 3, 3, t) for t in (1387, 4161)]),
        (False, [_job(kind, 5, 1, 3) for kind in (fo, fm)]),
        (False, [_job(kind, 3, 1, 4) for kind in (fo, fm)]),
        (False, [_job(kind, 2, 2, 3) for kind in (fo, fm)]),
        (False, [_job(kind, 2, 1, 3, 3, 73) for kind in (so, sm)]),
        (False, [_job(so, 2, 2, 3, 3, t) for t in (73, 219)]),
        (False, [_job(sm, 3, 1, 4, 2, t) for t in (41, 82)]),
        (True, [_job(fm, 3, 1, 3)]),
        (True, [_job(sm, 2, 1, 2, 4, t) for t in (1, 5, 17, 85)]),
        (True, [_job(kind, 2, 1, 4) for kind in (fo, fm)]),
        (False, [_job(so, 2, 2, 3, 3, t) for t in (19, 57)]),
        (False, [_job(kind, 2, 1, 3) for kind in (fo, fm)]),
    ]


# -- verify ------------------------------------------------------------------
# Each job runs `flagcodes verify PATH` in process.  The files are written
# from the seed by a separate process before the measured one starts.
# Minimum cost: V1 1.4 s (the 126-flag file: 110,250 subspace_distance
# calls), V2 1.2 s, V3 0.9 s, then 0.4-0.6 s; the middle three strata
# ~93 ms; the six below 1-70 ms.

def _verify_strata():
    so, sm = "spread_type_orbit_odfc", "spread_type_max_odfc"
    fo, fm = "full_type_orbit_odfc", "full_type_max_odfc"
    q3_28 = ([_job(sm, 3, 1, 3, 2, t) for t in (1, 2, 4, 7, 8, 14, 28, 56)]
             + [_job(so, 3, 1, 3, 2, 56)])
    return [
        (False, [_job(fm, 5, 1, 2)]),
        (False, [_job(kind, 3, 1, 3) for kind in (fo, fm)]),
        (False, [_job(sm, 2, 1, 2, 4, t) for t in (1, 5, 17, 85)]
         + [_job(so, 2, 1, 2, 4, 85)]),
        (False, [_job(sm, 2, 2, 3, 2, t) for t in (13, 39)]),
        (False, [_job(fo, 2, 2, 2)]),
        (False, [_job(kind, 2, 1, 4) for kind in (fo, fm)]),
        (True, q3_28),
        (True, q3_28),
        (False, [_job("hyperplanes", 2, 1, 2, 4), _job("hyperplanes", 2, 1, 3, 3)]),
        # known negative: two orbits whose flags share every level but the
        # first, so the critical level k repeats across the union
        (True, [_job("union_shared", 3, 1, 3, 2, 28)]),
        (True, [_job("spread", 2, 1, 2, 4)]),
        (True, [_job("partial_spread", 2, 1, 2, 4, t) for t in (17, 51)]),
        (False, [_job(sm, 5, 1, 2, 2, t) for t in (1, 2, 4, 13, 26, 52)]),
        (False, [_job(so, 2, 2, 3, 2, t) for t in (13, 39)]),
        # known negative: singleton orbits, gcd(t, q - 1) = t
        (True, [_job(so, 3, 1, 3, 2, t) for t in (1, 2)]
         + [_job(so, 5, 1, 2, 2, t) for t in (1, 2, 4)]),
    ]


_STRATA = {"construct": _construct_strata, "verify": _verify_strata}


def draw_jobs(workload: str, seed: int, small: bool = False) -> list:
    """The seeded job list: one variant per stratum, in shuffled order.

    Job ids are their positions in the list.  Each job also carries a
    `shuffle` seed, used by the verify generator to order file members.
    """
    rng = random.Random(f"{workload}:{seed}")
    jobs = []
    for is_small, variants in _STRATA[workload]():
        pick = dict(rng.choice(variants))
        pick["shuffle"] = rng.randrange(2 ** 32)
        if is_small or not small:
            jobs.append(pick)
    rng.shuffle(jobs)
    for i, job in enumerate(jobs):
        job["id"] = f"{workload[0]}{i:02d}"
    return jobs


def code_context(job) -> tuple:
    """The context a job's code is built in."""
    p, e, k = job["p"], job["e"], job["k"]
    if job["kind"].startswith("full_type"):
        return ("full", p, e, k)
    return ("spread", p, e, k, job["s"])


def contexts_for(workload: str, jobs: list) -> list:
    """Field towers and contexts the jobs need, in a fixed order.  Verify
    jobs only read files, so they need the fields alone."""
    need = {("field", job["p"], job["e"]) if workload == "verify"
            else code_context(job) for job in jobs}
    return sorted(need)
