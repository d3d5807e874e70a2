"""Seeded inputs of the workloads: tenants, data, read streams, write plans
and open-loop arrival schedules.

Everything is a pure function of the workload seed, so the same seed
gives the same requests; the program only ever sees the generated
requests and data.  Request bodies are canonical JSON (sorted keys,
compact), which doubles as the key of a distinct request.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass

#: Schema of the read tenants (domain 32 x 16 x 4 x 2 = 4096 cells).
SCHEMA = {"age": 32, "income": 16, "race": 4, "sex": ["M", "F"]}
#: Schema of the write tenants (8 x 4 x 2 x 2 = 128 cells).  Planning a
#: direct-route write takes a dense pseudo-inverse of the domain's Gram
#: matrix (~40 ms at 256 cells, ~250 ms at 512, minutes at 4096), so the
#: written tenants are small enough for writes to keep pace.
WRITE_SCHEMA = {"age": 8, "income": 4, "race": 2, "sex": ["M", "F"]}
NUMERIC = ("age", "income")
ATTRS = tuple(SCHEMA)


def sizes(schema: dict) -> dict:
    return {a: v if isinstance(v, int) else len(v) for a, v in schema.items()}

#: Read tenants.  The ``pairs`` tenants are measured on all 2-way
#: marginals, so a query's span membership is projected once per query
#: shape; the ``full`` tenant is measured on the full contingency table,
#: whose strategy spans every query outright.
READ_TENANTS = {"r0": "pairs", "r1": "pairs", "r2": "full"}

# The traffic mix below is assumed, not taken from a trace: the repository
# has no record of real query traffic to derive it from.  A change to any
# of these values changes what serve_read and serve_mixed measure.

#: Share of reads drawn from the long tail of distinct count boxes
#: (assumed).  The tail is far larger than the server's 4096-entry
#: expression and compile memos, so about this share of reads miss them.
TAIL_SHARE = 0.25
#: Zipf exponent over the hot head's ranks (assumed).
ZIPF_S = 1.1

#: Open-loop traffic of ``serve_mixed``, both connections together.  On
#: a 2-vCPU x86-64 cloud host, at this mix, the server completes at most
#: ~460 req/s (offered 600 req/s), and its backlog already grows at 400
#: req/s offered; 100 req/s is ~22% of that capacity, so a write path
#: several times slower still leaves the run valid.
OFFERED_RATE = 100.0
#: Share of requests that are measured writes (assumed).
WRITE_SHARE = 0.1
#: A written (tenant, query) pair is read back free this long after the
#: write was due, which builds that reconstruction's accelerator table.
FOLLOW_UP_S = 1.0
WRITE_EPS = 0.5
GAUSS_DELTA = 1e-6
ZCDP_RHO = 1.0
#: Write kinds and their shares (assumed): (route the server must take,
#: mechanism).
WRITE_KINDS = (
    (("direct", "laplace"), 0.45),
    (("warm", "laplace"), 0.35),
    (("direct", "gaussian"), 0.10),
    (("warm", "gaussian"), 0.10),
)
#: Write-tenant queries whose strategies are fitted into the registry at
#: setup, so a write of one of them is a warm measurement (no fit).
WARM_SPECS = (
    [{"marginal": ["age", "race"]}],
    [{"marginal": ["income", "sex"]}],
    [{"marginal": ["race", "sex"]}],
    [{"marginal": ["age"]}],
)


def canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def _cond(attr: str, rng: random.Random, schema=SCHEMA,
          max_width: int | None = None) -> dict:
    """One count condition: a range on a numeric attribute, else equality."""
    n = sizes(schema)[attr]
    if attr in NUMERIC:
        width = rng.randint(1, min(max_width or n, n))
        lo = rng.randrange(0, n - width + 1)
        return {"attr": attr, "between": [lo, lo + width - 1]}
    if attr == "sex":
        return {"attr": attr, "eq": rng.choice(schema["sex"])}
    return {"attr": attr, "eq": rng.randrange(n)}


def count_box(rng: random.Random, arity: int) -> dict:
    """A count over a box on ``arity`` distinct attributes."""
    attrs = rng.sample(ATTRS, arity)
    return {"count": [_cond(a, rng) for a in sorted(attrs)]}


def head_specs(seed: int) -> list[dict]:
    """The hot head, hottest first.  Its structure is fixed — the seed
    only picks the count boxes — so response sizes (0.2 KB for a count,
    ~9 KB for the age x income marginal) keep the same weights."""
    rng = random.Random(f"head:{seed}")
    specs: list[dict] = [{"count": [_cond("age", rng), _cond("sex", rng)]}]
    specs += [{"marginal": [a]} for a in ("sex", "race", "income", "age")]
    specs += [{"prefix": "age"}, {"total": True}, {"ranges": "income"}]
    specs += [count_box(rng, 2) for _ in range(4)]
    specs += [{"marginal": list(p)} for p in itertools.combinations(ATTRS, 2)]
    specs += [{"prefix": "income"}, {"ranges": "race"}]
    specs += [count_box(rng, 1 + i % 2) for i in range(12)]
    return specs


class ReadStream:
    """Seeded, endless stream of free read requests over the read tenants.

    Each item is a canonical request body, equal for equal requests.  With
    probability :data:`TAIL_SHARE` the query is a fresh count box from a
    space of ~10^5 distinct boxes (the long tail), else a Zipf draw from
    :func:`head_specs`.  The head depends on the seed only; ``part``
    varies the stream.
    """

    def __init__(self, seed: int, part: int = 0):
        self.rng = random.Random(f"reads:{seed}:{part}")
        self.tenants = list(READ_TENANTS)
        self.head = head_specs(seed)
        self.cum = list(
            itertools.accumulate(1.0 / (r + 1) ** ZIPF_S for r in range(len(self.head)))
        )

    def spec(self) -> dict:
        if self.rng.random() < TAIL_SHARE:
            return count_box(self.rng, 2)
        i = self.rng.choices(range(len(self.head)), cum_weights=self.cum)[0]
        return self.head[i]

    def next(self) -> bytes:
        return canonical(
            {"dataset": self.rng.choice(self.tenants), "queries": [self.spec()]}
        )


@dataclass
class Write:
    """One measured request to a tenant that has never been measured."""

    tenant: str
    queries: list
    route: str
    mechanism: str
    seed: int

    def payload(self) -> dict:
        p = {
            "dataset": self.tenant,
            "queries": self.queries,
            "eps": WRITE_EPS,
            "seed": self.seed,
            "timeout": 30.0,
        }
        if self.mechanism == "gaussian":
            p.update(mechanism="gaussian", delta=GAUSS_DELTA)
        return p

    def follow_up(self) -> bytes:
        return canonical({"dataset": self.tenant, "queries": self.queries})


@dataclass
class Arrival:
    t: float  # seconds after the segment start
    kind: str  # "read" | "write" | "follow"
    body: bytes
    write: Write | None = None


def _direct_queries(rng: random.Random) -> list:
    """1-4 narrow boxes over all four attributes (at most 4 x 2 cells
    each): a few rows on a small support, the direct route's shape."""
    return [
        {"count": [_cond(a, rng, WRITE_SCHEMA, max_width=4 if a == "age" else 2)
                   for a in ATTRS]}
        for _ in range(rng.randint(1, 4))
    ]


class WritePlan:
    """Hands out writes, each to the next never-measured tenant of its kind.

    Kinds come in seeded shuffles of a block holding exactly their
    shares, so every run has the same write mix."""

    BLOCK = 20

    def __init__(self, seed: int, part: int = 0):
        self.rng = random.Random(f"writes:{seed}:{part}")
        self.block: list = []
        self.used = {"laplace": 0, "gaussian": 0}

    def next(self) -> Write:
        if not self.block:
            self.block = [
                kind for kind, share in WRITE_KINDS
                for _ in range(round(share * self.BLOCK))
            ]
            self.rng.shuffle(self.block)
        route, mech = self.block.pop()
        prefix = "w" if mech == "laplace" else "z"
        tenant = f"{prefix}{self.used[mech]}"
        self.used[mech] += 1
        queries = (
            list(self.rng.choice(WARM_SPECS))
            if route == "warm"
            else _direct_queries(self.rng)
        )
        return Write(tenant, queries, route, mech, self.rng.randrange(1 << 30))


def open_loop(seed: int, durations, part: int = 0,
              rate: float = OFFERED_RATE, share: float = WRITE_SHARE):
    """Arrival schedules, one per duration (warm-up, timed pass, traced
    pass), drawn from one seeded stream; returns the schedules and the
    write plan (whose ``used`` counts size the write tenants).

    Arrival times are a Poisson process conditioned on its count (exactly
    ``rate * duration`` uniform points), and exactly every
    ``1/share``-th arrival is a write, so runs differ in when requests
    arrive, not in how many there are."""
    rng = random.Random(f"arrivals:{seed}:{part}")
    reads = ReadStream(seed, part)
    plan = WritePlan(seed, part)
    every = round(1 / share)
    out = []
    for duration in durations:
        times = sorted(rng.uniform(0, duration) for _ in range(round(rate * duration)))
        sched = []
        for i, t in enumerate(times):
            if i % every == every - 1:
                w = plan.next()
                sched.append(Arrival(t, "write", canonical(w.payload()), w))
                if t + FOLLOW_UP_S < duration:
                    sched.append(Arrival(t + FOLLOW_UP_S, "follow", w.follow_up(), w))
            else:
                sched.append(Arrival(t, "read", reads.next()))
        sched.sort(key=lambda a: a.t)
        out.append(sched)
    return out, plan


def data_vector(seed: int, shape, lam: float = 20.0):
    """Seeded Poisson counts over ``shape`` (flattened)."""
    import numpy as np

    rng = np.random.default_rng([seed, 7])
    return rng.poisson(lam, size=shape).astype(float).reshape(-1)
