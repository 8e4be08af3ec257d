"""Seeded job lists for the benchmark workloads.

A job is plain data: a dict of strings, integers and lists that names an
algebra preset, describes the input modules and says which public
function to call.  Nothing here imports ``shortloc``, so the program under
test receives only the generated inputs.  The same ``(workload, seed)``
always gives a byte-identical list (see :func:`dumps`).
"""

from __future__ import annotations

import json
import random

WORKLOADS = ("resolve", "sweep", "ext-predicates")

#: The prime of the second field in ``ext-predicates``.
PRIME = 32003

# Seeded resolve modules are drawn from a fixed pool so that their ladders
# can be checked against reference values recorded once for the whole pool.
RESOLVE_POOL = 256
RESOLVE_RANDOM_PER_PASS = 4
RESOLVE_RANDOM_DEPTH = 3

C32 = ["ex15_1", {"e": 3, "a": 2}]

# (algebra, depth, oracle) for the ladders of the simple module.  A
# ``b_sequence`` oracle holds for every depth (the syzygies of S stay
# aligned); the others were recorded at the commit that defined the
# benchmark.  Per pass there are 8 small jobs (the seeded modules, the
# constant ladders, ex5_3 to 5 and ex8_3 to 7), 8 jobs of 0.2-0.35 s and
# 4 deep ones, so over two passes the median and p75 both fall among the
# 16 samples of fixed mid-sized ladders, not on one short job.
_SIMPLE_LADDERS = [
    (C32, 5, [3, 2]), (C32, 4, [3, 2]),
    (["L", {"e": 3}], 4, [3, 0]),
    (["ex9_4", {}], 5, [3, 2]), (["ex9_4", {}], 4, [3, 2]),
    (["ex5_5", {}], 5, [3, 2]), (["ex5_5", {}], 4, [3, 2]),
    (["ex5_3", {}], 6, None), (["ex5_3", {}], 5, None),
    (["ex8_3", {}], 7, None),
    (["qexterior", {}], 16, [2, 1]), (["qexterior", {}], 18, [2, 1]),
    (["ex9_3", {}], 16, [2, 1]), (["ex9_3", {}], 18, [2, 1]),
]

_SWEEP_PRESETS = [["L", {"e": 2}], ["L", {"e": 3}], ["qexterior", {}],
                  ["lambda_c", {}], C32, ["ex9_3", {}]]
_SWEEP_PER_STRATUM = 20

# Five light presets beside the three slow ones keep 16 of the 76 jobs
# above the band of ~0.02-0.1 s predicate jobs, so that the median falls
# inside it.
_EXT_S_A_PRESETS = [["lambda_c", {"c": 0}], ["ex9_4", {}], ["ex5_5", {}],
                    ["qexterior", {}], ["ex9_3", {}], ["ex14_1", {"e": 2, "a": 1}],
                    ["ex8_3", {}], ["L", {"e": 2}]]


def _e_of(alg: list) -> int:
    """Number of radical generators of a preset, from its parameters."""
    name, params = alg
    fixed = {"qexterior": 2, "ex9_3": 2, "lambda_c": 3 + params.get("c", 0)}
    return params["e"] if "e" in params else fixed[name]


def resolve_pool_module(index: int) -> dict:
    """The ``index``-th seeded 2-generator module over ex15_1(3,2)."""
    return {"type": "random", "gens": 2, "rels": 1 + index % 3, "seed": 7919 * index + 17}


def betti_job(alg: list, module: dict, n: int, oracle) -> dict:
    return {"kind": "betti", "field": 0, "alg": alg, "module": module, "n": n,
            "oracle": oracle}


def _resolve(rng: random.Random) -> list[dict]:
    jobs = []
    for alg, n, seq in _SIMPLE_LADDERS:
        oracle = {"b_sequence": seq} if seq else "reference"
        jobs.append(betti_job(alg, {"type": "simple"}, n, oracle))
    lam1 = ["lambda_c", {"c": 1}]
    for alpha in (0, 2):
        jobs.append(betti_job(lam1, {"type": "m_alpha", "alpha": alpha}, 10, "reference"))
    for index in rng.sample(range(RESOLVE_POOL), RESOLVE_RANDOM_PER_PASS):
        jobs.append(betti_job(C32, resolve_pool_module(index), RESOLVE_RANDOM_DEPTH,
                              "reference"))
    return jobs


def _rebase(rng: random.Random, size: int) -> dict:
    """A seeded invertible integer matrix g = P·L·U, as data.

    P permutes by ``order``; L and U are unit triangular with a few +-1
    entries, so re-based modules keep small entries.  For a module of
    dimension d <= size the leading d x d blocks are used, which are again
    invertible.
    """
    def unit_triangular(lower: bool) -> list[list[int]]:
        return [[1 if i == j else
                 (rng.choice((-1, 1)) if (j < i if lower else j > i) and rng.random() < 0.2
                  else 0)
                 for j in range(size)] for i in range(size)]
    order = list(range(size))
    rng.shuffle(order)
    return {"order": order, "L": unit_triangular(True), "U": unit_triangular(False)}


def _sweep(rng: random.Random) -> list[dict]:
    jobs = []
    for alg in _SWEEP_PRESETS:
        e = _e_of(alg)
        for gens in (1, 2):
            for rels in range(4):
                for _ in range(_SWEEP_PER_STRATUM):
                    module = {"type": "random_mod_j2", "gens": gens, "rels": rels,
                              "seed": rng.randrange(2**31)}
                    # M/J^2 M has dimension at most gens*(1+e).
                    job = {"kind": "sweep", "field": 0, "alg": alg, "module": module,
                           "rebase": _rebase(rng, gens * (1 + e)),
                           "iso_seed": rng.randrange(1000)}
                    if alg[0] == "L":
                        job["partner"] = {"type": "random_mod_j2", "gens": 1 + rng.randrange(2),
                                          "rels": rng.randrange(4),
                                          "seed": rng.randrange(2**31)}
                    jobs.append(job)
    rng.shuffle(jobs)
    return jobs


def _ext_predicates(rng: random.Random) -> list[dict]:
    simple, regular = {"type": "simple"}, {"type": "regular"}
    base = []
    for e, a in [(2, 4), (3, 4), (3, 6)]:
        base.append({"kind": "ext_dim", "alg": ["ex14_1", {"e": e, "a": a}],
                     "module": simple, "target": regular, "i": 1})
    for alg in _EXT_S_A_PRESETS:
        base.append({"kind": "ext_dims", "alg": alg, "module": simple, "target": regular,
                     "imax": 3})
    for alg in (["qexterior", {}], ["ex8_3", {}]):
        base.append({"kind": "is_semi_gp", "alg": alg, "module": {"type": "radical"},
                     "bound": 10})
    for c in (0, 1):
        for alpha in (0, 2, 1):
            for kind in ("is_gp", "is_semi_gp", "is_inf_torsionfree"):
                base.append({"kind": kind, "alg": ["lambda_c", {"c": c}],
                             "module": {"type": "m_alpha", "alpha": alpha}, "bound": 10})
    m1 = {"type": "cyclic", "coords": [0, 1, -1, 0]}
    base.append({"kind": "ext_dims", "alg": ["qexterior", {}], "module": m1, "target": m1,
                 "imax": 10})
    omega2 = {"type": "syzygy_power", "of": simple, "n": 2}
    lam0 = ["lambda_c", {"c": 0}]
    for kind in ("is_torsionless", "is_reflexive", "transpose"):
        base.append({"kind": kind, "alg": lam0, "module": omega2})
    base.append({"kind": "stable_hom_dim", "alg": lam0, "module": omega2, "target": omega2})
    for alg in (["ex9_3", {}], C32):
        base.append({"kind": "classify_complex", "alg": alg, "module": {"type": "cyclic_x"},
                     "back": 3, "fwd": 3})
    for job in base:
        job["oracle"] = "reference"
    jobs = [dict(job, field=field) for field in (0, PRIME) for job in base]
    rng.shuffle(jobs)
    return jobs


_GENERATORS = {"resolve": _resolve, "sweep": _sweep, "ext-predicates": _ext_predicates}


def generate(workload: str, seed: int) -> list[dict]:
    """The job list of one pass of ``workload``, derived from ``seed`` only."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}/{seed}")
    jobs = _GENERATORS[workload](rng)
    for k, job in enumerate(jobs):
        job["id"] = f"{workload}/{k}"
    return jobs


def dumps(jobs: list[dict]) -> str:
    """Canonical JSON text of a job list."""
    return json.dumps(jobs, sort_keys=True, separators=(",", ":"))


def reference_key(job: dict) -> str:
    """What a job computes, independent of its field, position and oracle.

    Jobs with the same key must give the same answer over Q and over F_p.
    """
    return json.dumps({k: v for k, v in job.items() if k not in ("id", "field", "oracle")},
                      sort_keys=True, separators=(",", ":"))
