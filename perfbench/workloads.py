"""Workload definitions and seeded input generation.

A workload fixes the *structure* of the inputs — record count, how many
policy shapes and how many LSSS rows each has, which authorities the
policies span, the gates of each shape, popularity, connections,
workers and the op mix. The seed only picks which attributes fill each
shape, which records are popular, the payload bytes, the crypto
randomness and the op sequence. So runs under different seeds load the
same layers equally, and their figures can be compared.

Why each workload exists, and how its sizes sit against the caches, is
written up in ``WORKLOADS.md`` next to this file.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass

#: Bytes of plaintext in every record.
PAYLOAD_BYTES = 512

#: Attribute names every authority manages.
ATTRIBUTES = tuple(f"a{index}" for index in range(6))

#: The authority every epoch re-keys; owner policies always involve it.
REKEYED = "hosp"


@dataclass(frozen=True)
class OwnerPlan:
    """An owner's write stream: shapes, live-set target, epoch cadence."""

    rows: tuple              # LSSS rows of each policy shape it writes
    live: int                # churn records alive between cycles
    writes_per_epoch: int    # writes between two revocation epochs
    #: Write kinds, repeated in order: uploads and deletes balance, so
    #: the live set returns to ``live`` after every cycle.
    cycle: tuple = ("upload", "upload", "replace", "delete", "delete")


@dataclass(frozen=True)
class Workload:
    name: str
    authorities: tuple       # authority ids the read policies span
    records: int             # records the readers read
    rows: tuple              # LSSS rows per read shape (one shape each)
    zipf_alpha: float        # 0 means uniform popularity
    connections: int         # reader connections, one user each
    workers: int             # closed-loop reader tasks per connection
    mix: tuple               # (op class, share) of the reader ops
    owner: OwnerPlan         # writes during the window, or the epilogue
    owner_in_window: bool    # True: the owner runs beside the readers
    setups: int = 3          # full set-ups per untraced run (median)
    #: The owner epilogue after the window (read workloads only): this
    #: many writes, then this many epochs. Writes come first, so none
    #: pays for the fixed-base tables an epoch makes stale.
    epilogue_writes: int = 0
    epilogue_epochs: int = 0


#: The read workloads' owner: it writes and revokes only after the window.
#: Its uploads cycle through an odd number of shapes, so the median write
#: falls inside one row-count cluster, not on the edge between two.
EPILOGUE_OWNER = OwnerPlan(rows=(3, 4, 5), live=24, writes_per_epoch=0,
                           cycle=("upload", "delete"))

#: owner-revoke's 8 shapes: row counts symmetric around one cluster (5),
#: so medians over uniform reads and round-robin writes sit inside it.
OWNER_SHAPES = (3, 4, 4, 5, 5, 6, 6, 7)

WORKLOADS = {
    "read-hot": Workload(
        name="read-hot",
        authorities=("hosp", "trial"),
        records=64,
        rows=(3, 4, 5, 6),
        zipf_alpha=1.1,
        connections=2,
        workers=4,
        mix=(("offload_read", 0.4), ("read", 0.4), ("fetch", 0.2)),
        owner=EPILOGUE_OWNER,
        owner_in_window=False,
        epilogue_writes=60,
        epilogue_epochs=3,
    ),
    "read-cold": Workload(
        name="read-cold",
        authorities=("hosp", "trial", "uni"),
        records=192,
        rows=(4, 5, 6, 7, 8, 9, 10) * 14,
        zipf_alpha=0.0,
        connections=2,
        workers=1,
        mix=(("read", 0.5), ("offload_read", 0.5)),
        owner=EPILOGUE_OWNER,
        owner_in_window=False,
        setups=2,
        epilogue_writes=60,
        epilogue_epochs=3,
    ),
    "owner-revoke": Workload(
        name="owner-revoke",
        authorities=("hosp", "trial"),
        records=48,
        rows=OWNER_SHAPES,
        zipf_alpha=0.0,
        connections=1,
        workers=4,
        mix=(("read", 0.4), ("offload_read", 0.4), ("fetch", 0.2)),
        owner=OwnerPlan(rows=OWNER_SHAPES, live=48, writes_per_epoch=25),
        owner_in_window=True,
    ),
}


def make_policy(rng: random.Random, authorities, rows: int,
                shape: int) -> str:
    """One monotone policy with exactly ``rows`` distinct attributes.

    The structure depends on ``(shape, rows)`` alone, so every seed gets
    the same gates over the same authorities: leaves are dealt
    round-robin over the authorities (the re-keyed one first), grouped
    in runs of one to three, each run joined by AND, OR or a threshold
    gate, and the runs ANDed. ``rng`` only picks which attribute of an
    authority fills each leaf. Threshold gates are ``n of (...)`` or
    ``1 of (...)``: the owner's upload path expands thresholds the
    paper's way, which keeps the attribute-to-row map injective only for
    those two.
    """
    structure = random.Random(f"shape:{shape}:{rows}")
    order = [REKEYED] + sorted(set(authorities) - {REKEYED})
    names = {aid: rng.sample(ATTRIBUTES, len(ATTRIBUTES)) for aid in order}
    leaves = []
    for index in range(rows):
        aid = order[index % len(order)]
        leaves.append(f"{aid}:{names[aid][index // len(order)]}")
    structure.shuffle(leaves)
    groups = []
    while leaves:
        take = min(len(leaves), structure.choice((1, 2, 3)))
        run, leaves = leaves[:take], leaves[take:]
        if len(run) == 1:
            groups.append(run[0])
            continue
        gate = structure.choice(("AND", "OR", "all", "any"))
        if gate in ("AND", "OR"):
            groups.append("(" + f" {gate} ".join(run) + ")")
        else:
            k = len(run) if gate == "all" else 1
            groups.append(f"{k} of (" + ", ".join(run) + ")")
    return " AND ".join(groups)


def make_policies(rng: random.Random, authorities, rows) -> list:
    """Distinct policies, one per entry of ``rows``."""
    seen = set()
    policies = []
    for shape, count in enumerate(rows):
        while True:
            policy = make_policy(rng, authorities, count, shape)
            if policy not in seen:
                break
        seen.add(policy)
        policies.append(policy)
    return policies


class Popularity:
    """Zipf(alpha) ranks over ``n`` items, or uniform when alpha is 0."""

    def __init__(self, n: int, alpha: float):
        self.n = n
        weights = [1.0 / (rank + 1) ** alpha for rank in range(n)]
        total = 0.0
        self.cumulative = []
        for weight in weights:
            total += weight
            self.cumulative.append(total)

    def sample(self, rng: random.Random) -> int:
        point = rng.random() * self.cumulative[-1]
        return min(self.n - 1, bisect.bisect_left(self.cumulative, point))


def pick(rng: random.Random, mix) -> str:
    point = rng.random()
    for name, share in mix:
        point -= share
        if point < 0:
            return name
    return mix[-1][0]
