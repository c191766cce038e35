"""Seeded inputs for the four workloads, with their reference answers.

Each builder returns a JSON-ready dict: ``source`` (a process file with one
definition ``T<i>`` per term, which the workload process parses during
set-up), ``ops`` (every call, in order) and ``shards``: each op names its
shard, and one pass runs the ops of one shard.  Expected answers
come only from the construction of the input, from the law catalogue's
``sound`` flags, or from ``tests/oracles.py``; none is taken from the
checker under test.  Everything here runs before the timed passes, in the
parent process.
"""

import importlib.util
import itertools
import os
import random

from txbisim import (
    Definitions,
    GenConfig,
    StateBudgetError,
    definitions_text,
    equivalent_pair,
    explore,
    parse_term,
    rand_term,
)
from txbisim.axioms import AXIOMS, axiom_by_name
from txbisim.encoding import encode
from txbisim.equiv import process_universe

# Chains: every length from 5 to 13, so that the costs of the calls form a
# continuum and each p50 has close neighbours on both sides.  (A few sizes,
# each with several calls of very different cost, leave gaps in which the
# median jumps from run to run.)  Cells: one set of one action, every set of
# two, and one set of three, so that each p50 lies among the two-cell calls
# and the seed does not decide which names those use.
CHAIN_LENGTHS = tuple(range(5, 14))
POOL = ("a", "b", "c", "d", "e")

# Random inputs are picked as evenly spaced cost quantiles of a seeded pool
# POOL_FACTOR times larger, so that the cost mix of a pass, unlike the terms,
# does not vary with the seed.  See cost().
POOL_FACTOR = 4

# Corpus: 392 random and 168 rewrite pairs of at most 24 states, dealt in
# CORPUS_SHARDS shards of every CORPUS_SHARDS-th pair by cost rank: a pass
# runs one shard, about 3 s, so a run holds several passes of each shard.
CORPUS_SHARDS = 4
CORPUS_RANDOM = 392
CORPUS_REWRITE = 168
CORPUS_MAX_STATES = 24
REWRITE_SHARE = 0.3
# Known defect, pinned so that it shows on every seed: distinguish raises
# WitnessError on this inequivalent pair although the verdict is right.
DEFECT_PAIR = ("tau{a}(0) ||{b} theta{a,b;a,b}(0) + tau.b.a.0", "tau.tau.b.b.0")

# Fuzz: FUZZ_CALLS one-instance calls per law and pass; the unsound law,
# the only source of counterexamples to explain, gets UNSOUND_FACTOR times
# as many.
FUZZ_CALLS = 80
UNSOUND_FACTOR = 4
FUZZ_SHARDS = 4


def load_oracles(root):
    """``tests/oracles.py``: the set-based reference deciders."""
    path = os.path.join(root, "tests", "oracles.py")
    spec = importlib.util.spec_from_file_location("oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class _Builder:
    def __init__(self):
        self.defs = Definitions()
        self._index = {}
        self.ops = []
        self.shard = 0  # the shard of the ops added next

    def term(self, term):
        if isinstance(term, str):
            term = parse_term(term)
        if term not in self._index:
            self._index[term] = len(self._index)
            self.defs.add_def(f"T{self._index[term]}", term)
        return self._index[term]

    def verdict(self, rel, p, q, expect, env=None):
        self.ops.append({"op": "verdict", "rel": rel, "p": self.term(p),
                         "q": self.term(q), "env": env, "expect": expect,
                         "shard": self.shard})

    def explain(self, p, q, rooted=False):
        self.ops.append({"op": "explain", "p": self.term(p), "q": self.term(q),
                         "rooted": rooted, "shard": self.shard})

    def minimise(self, p, q, blocks):
        self.ops.append({"op": "minimise", "p": self.term(p), "q": self.term(q),
                         "blocks": blocks, "shard": self.shard})

    def spec(self, workload, seed, shards=1):
        return {"workload": workload, "seed": seed, "shards": shards,
                "source": definitions_text(self.defs), "ops": self.ops}


def _prefixes(actions):
    return ".".join(list(actions) + ["0"])


def _fresh_names(rng, k, seen):
    """``k`` action names, a set not drawn before."""
    while True:
        names = tuple(rng.sample(POOL, k))
        if frozenset(names) not in seen:
            seen.add(frozenset(names))
            return names


def chains(seed):
    """``a.a.….0`` against a copy with an inert ``tau`` before the last
    action (positive) and against a copy with a different last action
    (negative); both pairs explore about 2n states, so they cost alike."""
    rng = random.Random(seed)
    b = _Builder()
    seen = set()
    for n in CHAIN_LENGTHS:
        # the names, not their order: rows are scanned in label order, so the
        # order decides how soon a scan meets the failing move
        a, other = sorted(_fresh_names(rng, 2, seen))
        base = [a] * n
        p = _prefixes(base)
        pos = _prefixes(base[:-1] + ["tau"] + base[-1:])
        neg = _prefixes(base[:-1] + [other])
        # the tau sits after a visible step, so it is inert even when rooted;
        # the differing last action lies behind n-1 visible steps, so the
        # negative pair differs in every environment
        for rel in ("brb", "rbrb"):
            b.verdict(rel, p, pos, True)
            b.verdict(rel, p, neg, False)
        b.verdict("brb_x", p, pos, True, env=[a])
        b.verdict("brb_x", p, neg, False, env=[a])
        b.verdict("brb_x", p, neg, False, env=[])
        b.explain(p, neg)
        b.explain(neg, p)
        b.explain(p, neg, rooted=True)
        # the n+1 suffixes a^k.0 are pairwise distinct, and every state of
        # the tau variant equals the suffix with as many actions left; the
        # negative chain adds its n states a^k.b.0
        b.minimise(p, pos, n + 1)
        b.minimise(p, neg, 2 * n + 1)
        b.minimise(pos, neg, 2 * n + 1)
    return b.spec("chains", seed)


def _cells(names, variant):
    parts = []
    for i, a in enumerate(names):
        if variant == "neg" and i == len(names) - 1:
            parts.append(f"({a}.0 + tau.{a}.0)")
        elif variant == "plain":
            parts.append(f"({a}.0 + t.{a}.0)")
        else:
            parts.append(f"({a}.0 + t.tau.{a}.0)")
    return " ||{} ".join(parts)


def cells(seed):
    """Timed cells ``(a.0 + t.tau.a.0) ||{} …`` against the tau-free
    variant (positive) and against a last cell ``(c.0 + tau.c.0)``
    (negative), for 1 to 3 cells."""
    rng = random.Random(seed)
    b = _Builder()
    pairs = list(itertools.combinations(POOL, 2))
    rng.shuffle(pairs)
    for names in [rng.sample(POOL, 1)] + pairs + [rng.sample(POOL, 3)]:
        names = sorted(names)
        k = len(names)
        p = _cells(names, "timed")
        pos = _cells(names, "plain")
        neg = _cells(names, "neg")
        # a seeded half of the names, so that the size of the environment,
        # which the three-cell check's cost depends on, is the same on
        # every seed
        env = sorted(rng.sample(names, (k + 1) // 2))
        # equivalence implies equivalence in every environment; with nothing
        # allowed the timed last cell times out where its rival cannot.  Two
        # positive calls and one (cheaper) negative call keep the pooled
        # median among the positive calls of the middle size.
        b.verdict("brb", p, pos, True)
        b.verdict("brb_x", p, pos, True, env=env)
        b.verdict("brb_x", p, neg, False, env=[])
        b.explain(p, neg)
        # per cell: {cell, tau-free cell}, {tau.a.0, a.0}, {0}
        b.minimise(p, pos, 3 ** k)
    return b.spec("cells", seed)


def cost(p, q, max_states=None):
    """States of the encoded system: over seeded law instances, its square
    correlates at 0.95 with the check time of instances of one law."""
    lts = explore((p, q), max_states)
    return encode(lts, process_universe(p, q)).n_states


def quantiles(pool, count):
    """``count`` evenly spaced members of ``(cost, index, item)`` tuples."""
    ranked = sorted(pool, key=lambda c: c[:2])
    return [ranked[(2 * i + 1) * len(ranked) // (2 * count)][2]
            for i in range(count)]


def oracle_answers(oracles, p, q):
    """Reference (brb, rbrb, number of brb classes) for a term pair."""
    lts = explore((p, q))
    universe = process_universe(p, q)
    pairs, trips = oracles.ref_reactive(lts, universe)
    rpairs, _ = oracles.ref_rooted(lts, universe, pairs, trips)
    i, j = lts.index[p], lts.index[q]
    classes = {frozenset(k for k in range(lts.n_states) if (s, k) in pairs)
               for s in range(lts.n_states)}
    return (i, j) in pairs, (i, j) in rpairs, len(classes)


def corpus(seed, oracles):
    """Random pairs as in ``scripts/method_agreement.py`` (depths 2-5,
    {a,b}, 30 % rewrite pairs) of at most 24 states, printed and handed
    over as text."""
    rng = random.Random(seed)
    pools = {True: [], False: []}
    want = {True: CORPUS_REWRITE, False: CORPUS_RANDOM}
    depth = 2
    while any(len(pools[k]) < POOL_FACTOR * want[k] for k in pools):
        cfg = GenConfig(alphabet=("a", "b"), max_depth=depth)
        depth = 2 + (depth - 1) % 4
        rewrite = rng.random() < REWRITE_SHARE
        if rewrite:
            p, q = equivalent_pair(rng, cfg)
        else:
            p, q = rand_term(rng, cfg), rand_term(rng, cfg)
        pool = pools[rewrite]
        if len(pool) == POOL_FACTOR * want[rewrite]:
            continue
        try:
            pool.append((cost(p, q, CORPUS_MAX_STATES), len(pool), (p, q, rewrite)))
        except StateBudgetError:
            continue
    drawn = [item for k in (True, False) for item in quantiles(pools[k], want[k])]
    drawn.append(tuple(parse_term(t) for t in DEFECT_PAIR) + (False,))
    b = _Builder()
    for n, (p, q, rewrite) in enumerate(drawn):
        b.shard = n % CORPUS_SHARDS
        plain, rooted, blocks = oracle_answers(oracles, p, q)
        if rewrite:
            # equivalent_pair promises rooted equivalence by construction
            plain = rooted = True
        b.verdict("brb", p, q, plain)
        b.verdict("rbrb", p, q, rooted)
        if not plain:
            b.explain(p, q)
        b.minimise(p, q, blocks)
    return b.spec("corpus", seed, CORPUS_SHARDS)


def law_instance(law, seed):
    """The one instance ``fuzz_axioms(instances=1, seed=seed, names=[law])``
    draws: the harness seeds each law with ``"<seed>:<law>"`` and uses
    ``GenConfig(max_depth=3)`` by default."""
    rng = random.Random(f"{seed}:{law}")
    return axiom_by_name(law).instantiate(rng, GenConfig(max_depth=3))


def fuzz(seed):
    """Every law of the catalogue, FUZZ_CALLS seeded one-instance
    ``fuzz_axioms`` calls each; counterexamples are explained and
    minimised during the pass."""
    ops = []
    for axiom in AXIOMS:
        calls = FUZZ_CALLS * (1 if axiom.sound else UNSOUND_FACTOR)
        pool = []
        for c in range(POOL_FACTOR * calls):
            sub = f"{seed}-{c}"
            pool.append((cost(*law_instance(axiom.name, sub)), c, sub))
        for n, sub in enumerate(quantiles(pool, calls)):
            ops.append({"op": "fuzz", "law": axiom.name, "seed": sub,
                        "sound": axiom.sound, "shard": n % FUZZ_SHARDS})
    return {"workload": "fuzz", "seed": seed, "shards": FUZZ_SHARDS,
            "source": "", "ops": ops}


def build(workload, seed, root):
    if workload == "chains":
        return chains(seed)
    if workload == "cells":
        return cells(seed)
    if workload == "corpus":
        return corpus(seed, load_oracles(root))
    if workload == "fuzz":
        return fuzz(seed)
    raise ValueError(f"unknown workload {workload!r}")
