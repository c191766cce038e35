"""Digest every answer the engines give on seeded random pairs.

For each seed this draws pairs with ``method_agreement.py``'s
``sample_pairs`` (plain random pairs and, three times in ten, pairs
equivalent by construction) and feeds six
sections of a digest, each printed as one sha256:

* ``verdicts``: ``brb``, ``rbrb``, and ``brb_x``/``rbrb_x`` under every
  environment over the pair's actions, by each method: ``equivalent``,
  ``method``, ``reason`` and the witness relation (under ``both``, the
  witness of a positive verdict is the encode route's projection, the one
  ``encode`` reports, and its reason for a negative one is the direct
  route's);
* ``direct``: the direct fixpoint's rows, passes and removal records;
* ``distinguish``: the formula text, plain and rooted;
* ``partition``: the ``brb_partition`` blocks of the pair's state space;
* ``encoding``: the encoded wrapper system's state texts in order, its
  roots, its indexed transitions, and the rounds and block count of the
  branching fixpoint on its closure;
* ``plain``: ``strong``, ``sr_branching`` and ``r_sr_branching`` on the
  pair's state space: ``equivalent``, ``reason`` and the witness relation.

A change to the engines that should keep every answer is checked by
running the script in the old and the new checkout and diffing the
output:

    PYTHONPATH=src python3 scripts/engine_digest.py > digest.txt

CI diffs ``--seeds 1 --per-seed 30`` against the committed
``engine_digest_s1x30.txt`` beside this script; a change meant to alter
answers writes that file again with the same command.
"""

import argparse
import hashlib
import random
import sys
from itertools import combinations

from method_agreement import sample_pairs
from txbisim import (
    Analysis,
    CheckOptions,
    GenConfig,
    brb,
    brb_partition,
    brb_x,
    explore,
    process_universe,
    r_sr_branching,
    rbrb,
    rbrb_x,
    sr_branching,
    strong,
)
from txbisim.modal import distinguish, formula_text
from txbisim.terms import term_text

SECTIONS = ("verdicts", "direct", "distinguish", "partition", "encoding", "plain")


def attempt(func, *args):
    """``func(*args)``, or the text of the error it raises."""
    try:
        return func(*args)
    except Exception as exc:
        return f"raised {type(exc).__name__}: {exc}"


def witness_text(store):
    if store is None:
        return "None"
    pairs = sorted(f"{term_text(s)} ~ {term_text(t)}" for s, t in store.pairs)
    triples = sorted(
        f"{term_text(s)} ~{{{','.join(x)}}} {term_text(t)}"
        for s, x, t in store.triples
    )
    return hashlib.sha256("\n".join(pairs + triples).encode()).hexdigest()


def verdict_text(v):
    if isinstance(v, str):
        return v
    reason = sorted(v.reason.items()) if v.reason else None
    return f"{v.equivalent} {v.method} {reason} {witness_text(v.witness)}"


def digest_pair(p, q, opts, feed):
    head = f"{term_text(p)} / {term_text(q)}"
    names = sorted(process_universe(p, q))
    envs = [c for k in range(len(names) + 1) for c in combinations(names, k)]
    for method, o in opts.items():
        for relation in (brb, rbrb):
            v = attempt(relation, p, q, o)
            feed("verdicts", f"{head} {relation.__name__} {method}: {verdict_text(v)}")
        for relation in (brb_x, rbrb_x):
            for env in envs:
                v = attempt(relation, p, q, env, o)
                feed(
                    "verdicts",
                    f"{head} {relation.__name__} {env} {method}: {verdict_text(v)}",
                )
    res = Analysis(p, q, opts["direct"]).gen
    feed("direct", f"{head} rounds {res.rounds} rows {res.rows}")
    for key, rec in sorted(res.records.items()):
        feed("direct", f"{head} {key} {rec}")
    for rooted in (False, True):
        phi = attempt(distinguish, p, q, rooted, opts["direct"])
        text = phi if isinstance(phi, str) or phi is None else formula_text(phi)
        feed("distinguish", f"{head} rooted={rooted}: {text}")
    got = attempt(brb_partition, (p, q), opts["direct"])
    blocks = got if isinstance(got, str) else got[1].blocks
    feed("partition", f"{head}: {blocks}")
    feed("encoding", f"{head}: {attempt(encoding_text, p, q, opts['encode'])}")
    lts = attempt(explore, (p, q), opts["direct"].max_states)
    for relation in (strong, sr_branching, r_sr_branching):
        v = lts if isinstance(lts, str) else attempt(relation, lts, p, q)
        feed("plain", f"{head} {relation.__name__}: {verdict_text(v)}")


def encoding_text(p, q, opts):
    an = Analysis(p, q, opts)
    enc = an.encoded.lts
    texts = [enc.state_text(s) for s in enc.states]
    roots = [enc.index[r] for r in enc.roots]
    res = an.enc_branch
    return (
        f"{texts} roots {roots} {enc.trans_idx} "
        f"rounds {res.rounds} blocks {len(set(res.rel))}"
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1,2,3")
    parser.add_argument("--per-seed", type=int, default=300, metavar="N")
    parser.add_argument("--depth", type=int, default=4)
    parser.add_argument("--alphabet", default="a,b,c")
    parser.add_argument("--state-cap", type=int, default=600, metavar="N")
    args = parser.parse_args(argv)

    opts = {
        m: CheckOptions(method=m, max_states=4 * args.state_cap)
        for m in ("direct", "both", "encode")
    }
    cfg = GenConfig(alphabet=tuple(args.alphabet.split(",")), max_depth=args.depth)
    hashes = {name: hashlib.sha256() for name in SECTIONS}

    def feed(section, line):
        hashes[section].update(line.encode() + b"\n")

    count = 0
    for seed in args.seeds.split(","):
        rng = random.Random(int(seed))
        for p, q in sample_pairs(rng, cfg, args.per_seed, args.state_cap, 0.3):
            digest_pair(p, q, opts, feed)
            count += 1
    print(f"pairs {count}")
    for name in SECTIONS:
        print(f"{name} {hashes[name].hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
