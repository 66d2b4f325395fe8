"""Seeded workload generation for the bel benchmark.

Only the standard library is used here, so that the set-up measurement can
build the config texts before it starts the clock on ``import bel``.

Every workload draws its parameters from finite pools of config tokens.  A
seed picks a deterministic list of configs out of those pools, written the
way users write ``bel`` configs (flat ``key = value`` text, comma sweeps).
Because the pools are finite, the reference verdicts in ``reference/`` cover
every run that any seed can produce: ``pool_configs`` expands to exactly the
set of pool points, and ``make_reference.py`` runs each one once.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, List, Sequence, Tuple

WORKLOADS = ("warped-theorem", "closed-form", "radial-shots")

#: Seed used when ``--seed`` is omitted.  The held-out seed 20261017 (see
#: README.md) was never run while the benchmark was tuned.
DEFAULT_SEED = 1

# ---------------------------------------------------------------- the pools
#
# Tokens are kept as strings so that config text, slug and reference key are
# spelled identically wherever a pool point appears.

# theorem-2-2: d in {3,4,5}, alpha in [0.3, 0.7], p at or above the
# Sobolev-critical exponent (d+2)/(d-2) = 5, 3, 7/3.  The d = 5 pool starts at
# 2.4 because 7/3 has no exact decimal spelling at or above it.
THEOREM_ALPHA = ("0.3", "0.35", "0.4", "0.45", "0.5", "0.55", "0.6", "0.65", "0.7")
THEOREM_P = {
    3: ("5", "5.4", "5.8", "6.2", "6.6", "7"),
    4: ("3", "3.4", "3.8", "4.2", "4.6", "5"),
    5: ("2.4", "2.8", "3.2", "3.6", "4", "4.4"),
}
THEOREM_ELL = ("0.4", "0.6", "0.8", "1", "1.3", "1.6")

# closed-form scenarios: analytic profiles, no ODE shot.
BUBBLE_D = ("3", "4", "5", "6", "7", "8")
BUBBLE_B = ("0.06", "0.1", "0.125", "0.16", "0.2", "0.25", "0.3", "0.36", "0.43", "0.5")
EUCLID_D = ("2", "3", "4", "5", "6", "7", "8")
ESTIMATE_D = ("3", "4", "5", "6")
# For the critical bubble m = d, so part i needs 2 <= q < d/2 + 1 and part ii
# needs 0 <= q <= d/2 + 1; every token below lies inside one of the two.
ESTIMATE_Q = {
    3: ("0.5", "1", "1.5", "2", "2.5"),
    4: ("0.5", "1", "1.5", "2", "2.5", "3"),
    5: ("0.5", "1", "1.5", "2", "2.5", "3"),
    6: ("0.5", "1", "1.5", "2", "2.5", "3"),
}
PARABOLIC_D = ("3", "4", "5")
PARABOLIC_BETA = ("1.5", "2", "2.5", "3")
PARABOLIC_P = ("1.5", "2", "3", "4", "5")

# radial shots: soliton-liouville plus custom solves on analytic weights.
SOLITON_D = ("2", "3", "4", "5")
SOLITON_P = ("1.5", "2", "3", "4", "5")
SOLITON_ELL = ("0.25", "0.5", "1", "2", "4")
CUSTOM_D = ("3", "4", "5")
CUSTOM_P = ("3", "4", "5", "6", "7")
CUSTOM_ELL = ("0.5", "1", "2")
POWER_COEFF = ("0.5", "1", "2")
POWER_EXP = ("1.5", "2")
LOG_TAIL_BETA = ("1.5", "2", "3")

# Blocks of configs per seed.  One pass of the benchmark runs every config of
# the seed once; blocks are balanced by construction, so a pass has the same
# scenario mix whatever the seed.  One warped-theorem pass is 12 runs, about
# 12 s on a 2-core Xeon, so that a 20-second timed pass repeats it twice.
BLOCKS = {"warped-theorem": 1, "closed-form": 20, "radial-shots": 10}

# The percentile reported as run_s.tail.  The timed pass makes enough runs
# that at least ten lie beyond it (``run.min_timed_runs``).
TAIL_PERCENTILE = {"warped-theorem": 60, "closed-form": 98, "radial-shots": 95}

Config = Tuple[str, Sequence[Tuple[str, object]]]


def render(config: Config) -> str:
    """Config text as a user would write it; list values become sweeps."""
    scenario, items = config
    lines = [f"scenario = {scenario}"]
    for key, value in items:
        if isinstance(value, (list, tuple)):
            value = ", ".join(value)
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


class _Draws:
    """Seeded draws that spread every pool evenly over one seed's configs.

    Each (slot, pool) has a deck: a shuffled copy of the pool, dealt from
    and refilled when empty.  So within one seed every token of a pool comes
    up about equally often, and seeds differ in how tokens are combined and
    ordered, not in how much expensive work they hold.  Run time depends
    strongly on some parameters (ell on the shots, the weight kind), and
    independent draws made the cost of a seed's mix vary by 20% or more.
    """

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.decks: Dict[Tuple[str, Sequence[str]], List[str]] = {}

    def one(self, slot: str, pool: Sequence[str]) -> str:
        deck = self.decks.setdefault((slot, tuple(pool)), [])
        if not deck:
            deck.extend(pool)
            self.rng.shuffle(deck)
        return deck.pop()

    def some(self, slot: str, pool: Sequence[str], k: int) -> List[str]:
        """k distinct tokens in pool order (sweeps are written ascending)."""
        chosen: List[str] = []
        while len(chosen) < k:
            token = self.one(slot, pool)
            if token not in chosen:
                chosen.append(token)
        return sorted(chosen, key=list(pool).index)


def _theorem_block(draw: _Draws) -> List[Config]:
    block = []
    for d in draw.rng.sample((3, 4, 5), 3):
        block.append(("theorem-2-2", [
            ("d", str(d)),
            ("alpha", draw.one("alpha", THEOREM_ALPHA)),
            ("p", draw.some("p", THEOREM_P[d], 2)),
            ("ell", draw.some("ell", THEOREM_ELL, 2)),
        ]))
    return block


def _closed_form_block(draw: _Draws) -> List[Config]:
    d_est = draw.one("estimates.d", ESTIMATE_D)
    block = [
        ("bubble", [("d", draw.some("bubble.d", BUBBLE_D, 2)),
                    ("b", draw.one("bubble.b", BUBBLE_B))]),
        ("log-bubble", [("b", draw.some("log-bubble.b", BUBBLE_B, 2))]),
        ("estimates-sweep", [
            ("d", d_est),
            ("b", draw.one("estimates.b", BUBBLE_B)),
            ("q", draw.some("estimates.q", ESTIMATE_Q[int(d_est)], 2)),
        ]),
        ("euclidean-sanity", [("d", draw.some("euclidean.d", EUCLID_D, 3))]),
        ("example-2-parabolicity", [
            ("d", draw.one("parabolicity.d", PARABOLIC_D)),
            ("beta", draw.one("parabolicity.beta", PARABOLIC_BETA)),
            ("p", draw.some("parabolicity.p", PARABOLIC_P, 2)),
        ]),
    ]
    draw.rng.shuffle(block)
    return block


def _radial_shots_block(draw: _Draws) -> List[Config]:
    block = [
        ("soliton-liouville", [
            ("d", draw.one("soliton.d", SOLITON_D)),
            ("p", draw.one("soliton.p", SOLITON_P)),
            ("ell", draw.some("soliton.ell", SOLITON_ELL, 2)),
        ]),
        ("custom", [
            ("d", draw.one("none.d", CUSTOM_D)),
            ("p", draw.some("none.p", CUSTOM_P, 2)),
            ("ell", draw.one("none.ell", CUSTOM_ELL)),
            ("weight", "none"),
        ]),
        ("custom", [
            ("d", draw.one("power.d", CUSTOM_D)),
            ("p", draw.one("power.p", CUSTOM_P)),
            ("ell", draw.some("power.ell", CUSTOM_ELL, 2)),
            ("weight", "power"),
            ("coeff", draw.one("power.coeff", POWER_COEFF)),
            ("power", draw.one("power.power", POWER_EXP)),
        ]),
        ("custom", [
            ("d", draw.one("log-tail.d", CUSTOM_D)),
            ("p", draw.some("log-tail.p", CUSTOM_P, 2)),
            ("ell", draw.one("log-tail.ell", CUSTOM_ELL)),
            ("weight", "log-tail"),
            ("beta", draw.one("log-tail.beta", LOG_TAIL_BETA)),
        ]),
    ]
    draw.rng.shuffle(block)
    return block


_BLOCK_MAKERS = {
    "warped-theorem": _theorem_block,
    "closed-form": _closed_form_block,
    "radial-shots": _radial_shots_block,
}


def configs(workload: str, seed: int) -> List[str]:
    """The seeded config texts of one workload, in execution order."""
    draw = _Draws(random.Random(f"{workload}/{seed}"))
    out: List[Config] = []
    for _ in range(BLOCKS[workload]):
        out.extend(_BLOCK_MAKERS[workload](draw))
    return [render(c) for c in out]


def pool_configs(workload: str) -> List[str]:
    """Config texts whose expansions are exactly the workload's pool points."""
    out: List[Config] = []
    if workload == "warped-theorem":
        for d in (3, 4, 5):
            out.append(("theorem-2-2", [("d", str(d)), ("alpha", THEOREM_ALPHA),
                                        ("p", THEOREM_P[d]), ("ell", THEOREM_ELL)]))
    elif workload == "closed-form":
        out.append(("bubble", [("d", BUBBLE_D), ("b", BUBBLE_B)]))
        out.append(("log-bubble", [("b", BUBBLE_B)]))
        for d in ESTIMATE_D:
            out.append(("estimates-sweep", [("d", d), ("b", BUBBLE_B),
                                            ("q", ESTIMATE_Q[int(d)])]))
        out.append(("euclidean-sanity", [("d", EUCLID_D)]))
        out.append(("example-2-parabolicity", [("d", PARABOLIC_D), ("beta", PARABOLIC_BETA),
                                               ("p", PARABOLIC_P)]))
    elif workload == "radial-shots":
        out.append(("soliton-liouville", [("d", SOLITON_D), ("p", SOLITON_P),
                                          ("ell", SOLITON_ELL)]))
        out.append(("custom", [("d", CUSTOM_D), ("p", CUSTOM_P), ("ell", CUSTOM_ELL),
                               ("weight", "none")]))
        for coeff, power in itertools.product(POWER_COEFF, POWER_EXP):
            out.append(("custom", [("d", CUSTOM_D), ("p", CUSTOM_P), ("ell", CUSTOM_ELL),
                                   ("weight", "power"), ("coeff", coeff), ("power", power)]))
        for beta in LOG_TAIL_BETA:
            out.append(("custom", [("d", CUSTOM_D), ("p", CUSTOM_P), ("ell", CUSTOM_ELL),
                                   ("weight", "log-tail"), ("beta", beta)]))
    else:
        raise KeyError(workload)
    return [render(c) for c in out]


def run_key(scenario: str, params: Dict[str, object]) -> str:
    """Canonical name of one run: scenario plus every parameter, sorted.

    Slugs only name the swept keys, so two configs can share a slug; this
    key cannot collide and is what the reference verdicts are stored under.
    """
    return scenario + ":" + ",".join(f"{k}={params[k]!r}" for k in sorted(params))
