"""Seeded input generators and the command lines of each workload.

The generators use only the standard library's ``random.Random`` and
share no code with ``streamscale.synth``: the program under test receives
nothing but the TSV file written here. Each generator returns the events
it wrote as (label_u, label_v, t) triples so that the checks can count
distinct events and labels on their own.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass


@dataclass
class Workload:
    name: str
    directed: bool
    generate: object            # seed -> list of (label_u, label_v, t)
    sweep_args: list
    validate_args: list
    threads: int = 1
    # processes per command in one round; the metrics are medians over them
    repeats: tuple = (("summary", 3), ("sweep", 3), ("validate", 3))

    @property
    def max_samples(self):
        """The ``validate --max-samples`` value, or None when not given."""
        args = self.validate_args
        if "--max-samples" not in args:
            return None
        return int(args[args.index("--max-samples") + 1])


def _pairs(n):
    return list(itertools.combinations(range(n), 2))


def _oriented(rng, a, b):
    """Random orientation of an undirected link, to exercise normalisation."""
    return (a, b) if rng.random() < 0.5 else (b, a)


def gen_uniform_dense(seed, n=30, links_per_pair=5, horizon=20_000):
    """Time-uniform undirected stream: every pair gets the same number of
    links at distinct uniform instants of [0, horizon)."""
    rng = random.Random(f"uniform-dense/{seed}")
    events = []
    for a, b in _pairs(n):
        for t in rng.sample(range(horizon), links_per_pair):
            x, y = _oriented(rng, a, b)
            events.append((f"n{x}", f"n{y}", t))
    rng.shuffle(events)
    return events


def gen_heavy_tailed_directed(seed, n=600, events=11_000, span=16_700_000,
                              origin=1_082_000_000, alpha=1.2):
    """Directed stream shaped like a messaging network: node activity
    weights follow Pareto(alpha)+1, both endpoints are drawn by weight and
    times are uniform over ``span`` seconds after a Unix-epoch origin.

    The weights are the n stratified quantiles of the distribution, dealt
    to the nodes in seeded order: independent draws would let the largest
    weight, and with it the run time, swing several-fold from seed to seed.
    """
    rng = random.Random(f"heavy-tailed-directed/{seed}")
    weights = [(1 - (i + 0.5) / n) ** (-1 / alpha) for i in range(n)]
    rng.shuffle(weights)
    cum = list(itertools.accumulate(weights))
    total = cum[-1]

    def draw():
        return bisect.bisect_right(cum, rng.random() * total)

    out = []
    for _ in range(events):
        u = draw()
        v = draw()
        while v == u:
            v = draw()
        out.append((f"user{u}", f"user{v}", origin + rng.randrange(span)))
    return out


def gen_twomode(seed, n=20, block=8_000, rho_pct=40, alternations=1):
    """Alternating two-mode undirected stream: per pair, one link per 100 s
    in the high-activity segment and one per 800 s in the low one, with
    ``rho_pct`` percent of each block in the low mode."""
    rng = random.Random(f"twomode-threads/{seed}")
    t_low = block * rho_pct // 100
    t_high = block - t_low
    segments = []
    offset = 0
    for _ in range(alternations):
        segments.append((offset, t_high, t_high // 100))
        segments.append((offset + t_high, t_low, t_low // 800))
        offset += block
    events = []
    for start, length, count in segments:
        for a, b in _pairs(n):
            for t in rng.sample(range(start, start + length), count):
                x, y = _oriented(rng, a, b)
                events.append((f"p{x}", f"p{y}", t))
    rng.shuffle(events)
    return events


WORKLOADS = {
    w.name: w for w in [
        Workload(
            name="uniform-dense",
            directed=False,
            generate=gen_uniform_dense,
            sweep_args=["--grid", "log:30", "--classic"],
            validate_args=["--k-list", "1,3,6"],
        ),
        Workload(
            name="heavy-tailed-directed",
            directed=True,
            generate=gen_heavy_tailed_directed,
            sweep_args=["--k-list", "1,100,1000,10000"],
            validate_args=["--k-list", "1,1000,10000", "--max-samples", "1000"],
            repeats=(("summary", 3), ("sweep", 3), ("validate", 1)),
        ),
        Workload(
            name="twomode-threads",
            directed=False,
            generate=gen_twomode,
            sweep_args=["--grid", "log:8"],
            validate_args=["--k-list", "1,10,20"],
            threads=2,
        ),
    ]
}


def write_tsv(events, path):
    with open(path, "w", encoding="utf-8") as fh:
        for u, v, t in events:
            fh.write(f"{u}\t{v}\t{t}\n")
