"""Digest every answer the engines give on seeded random pairs, and check
that the two routes agree.

For each seed this draws pairs (plain random pairs and, three times in
ten, pairs equivalent by construction) and feeds six sections of a
digest, each printed as one sha256:

* ``verdicts``: ``brb``, ``rbrb``, and ``brb_x``/``rbrb_x`` under every
  environment over the pair's actions, by each method: ``equivalent``,
  ``method``, ``reason`` and the witness relation (under ``both``, the
  witness of a positive verdict is the encode route's projection from the
  closure over every column, the one ``encode`` reports, and its reason
  for a negative one is the direct route's);
* ``direct``: the direct fixpoint's complete table, over every column, as
  a fresh ``Analysis`` reads it (a check judges only the columns its
  question reads): its rows and passes, and each entry ``(p, x, q)`` a
  row judgement removed with its record ``(stamp, clause)``, the number
  of that judgement and the compiled clause ``(label, successor, column,
  env)`` it failed, all four None for stability.  An entry the
  fixpoint's start excludes, as the states reach different visible
  actions of its column by tau steps, has no record;
* ``distinguish``: the formula text, plain and rooted;
* ``partition``: the ``brb_partition`` blocks of the pair's state space;
* ``encoding``: the wrapper system of the closure over every column, as
  a fresh ``Analysis`` builds it and a positive encode route's witness is
  projected from (a check's own closure settles only into the columns
  its question reads), keyed by relevant environments
  (``Analysis.encoded.lts``): its state texts in order, its roots, its
  indexed transitions, and the rounds and block count of the branching
  fixpoint on its closure;
* ``plain``: ``strong``, ``sr_branching`` and ``r_sr_branching`` on the
  pair's state space: ``equivalent``, ``reason`` and the witness relation.

It also checks every pair, and prints each disagreement to stderr as one
line naming both terms:

* under every relation and environment, ``encode`` and ``both`` give the
  direct route's ``equivalent`` and ``reason`` (an error's text counts as
  an answer);
* the witness of a positive ``both`` verdict passes
  ``generalized_witness_ok``;
* ``distinguish``, plain and rooted, returns a formula exactly when
  ``brb``, or ``rbrb``, finds the pair inequivalent;
* ``brb_partition`` puts the pair in one block exactly when ``brb``
  relates it.

It exits 1 if it found any disagreement, so it doubles as a slow
randomised check:

    python3 scripts/engine_digest.py --seeds 0 --per-seed 200 --depth 5 > /dev/null

Its generator draws no tau cycle through two or more states: recursions
are strongly guarded, and only hiding a recursion's actions makes a step
internal, which in the 910 pairs of CI's runs gives five tau self-loops
and nothing longer.  The partition refinement on larger tau components is
checked by the hand-built systems of ``tests/test_equiv.py``
(``tau_cycles``).

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

from txbisim import (
    Analysis,
    CheckOptions,
    GenConfig,
    StateBudgetError,
    brb,
    brb_partition,
    brb_x,
    equivalent_pair,
    explore,
    process_universe,
    r_sr_branching,
    rand_term,
    rbrb,
    rbrb_x,
    sr_branching,
    strong,
)
from txbisim.equiv import generalized_witness_ok
from txbisim.modal import distinguish, formula_text
from txbisim.terms import term_text

SECTIONS = ("verdicts", "direct", "distinguish", "partition", "encoding", "plain")


def sample_pairs(rng, cfg, count, cap, rewrite_share):
    """``count`` pairs whose joint state space has at most ``cap`` states,
    a share ``rewrite_share`` of them drawn equivalent by construction."""
    pairs = []
    while len(pairs) < count:
        if rng.random() < rewrite_share:
            p, q = equivalent_pair(rng, cfg)
        else:
            p, q = rand_term(rng, cfg), rand_term(rng, cfg)
        try:
            explore((p, q), cap)
        except StateBudgetError:
            continue
        pairs.append((p, q))
    return pairs


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


def formula_line(phi):
    if isinstance(phi, str) or phi is None:
        return phi
    return formula_text(phi)


def answer(v):
    """What every method must agree on: ``equivalent`` and ``reason``, or
    the error's text."""
    return v if isinstance(v, str) else (v.equivalent, v.reason)


def digest_pair(p, q, opts, feed):
    """Feed every answer on ``p`` and ``q`` to the digest, and return one
    line for each disagreement between them."""
    head = f"{term_text(p)} / {term_text(q)}"
    names = sorted(process_universe(p, q))
    envs = [c for k in range(len(names) + 1) for c in combinations(names, k)]
    got = {}
    for method, o in opts.items():
        for relation in (brb, rbrb):
            v = got[relation.__name__, None, method] = attempt(relation, p, q, o)
            feed("verdicts", f"{head} {relation.__name__} {method}: {verdict_text(v)}")
        for relation in (brb_x, rbrb_x):
            for env in envs:
                v = got[relation.__name__, env, method] = attempt(
                    relation, p, q, env, o
                )
                feed(
                    "verdicts",
                    f"{head} {relation.__name__} {env} {method}: {verdict_text(v)}",
                )
    res = Analysis(p, q, opts["direct"]).gen
    feed("direct", f"{head} rounds {res.rounds} rows {res.rows}")
    for key, rec in sorted(res.records.items()):
        feed("direct", f"{head} {key} {rec}")
    formulas = {}
    for rooted in (False, True):
        phi = formulas[rooted] = attempt(distinguish, p, q, rooted, opts["direct"])
        feed("distinguish", f"{head} rooted={rooted}: {formula_line(phi)}")
    part = attempt(brb_partition, (p, q), opts["direct"])
    blocks = part if isinstance(part, str) else part[1].blocks
    feed("partition", f"{head}: {blocks}")
    feed("encoding", f"{head}: {attempt(encoding_text, p, q, opts['encode'])}")
    lts = attempt(explore, (p, q), opts["direct"].max_states)
    for relation in (strong, sr_branching, r_sr_branching):
        v = lts if isinstance(lts, str) else attempt(relation, lts, p, q)
        feed("plain", f"{head} {relation.__name__}: {verdict_text(v)}")
    return [f"{head}: {c}" for c in disagreements(p, q, got, formulas, part)]


def disagreements(p, q, got, formulas, part):
    """The checks of :func:`digest_pair` over its verdicts ``got`` by
    ``(relation, env, method)``, its formulas by rootedness and its
    partition."""
    for (name, env, method), v in got.items():
        where = name if env is None else f"{name} {env}"
        dv = got[name, env, "direct"]
        if answer(v) != answer(dv):
            yield f"{where} {method} gives {answer(v)}, direct {answer(dv)}"
        if (
            method == "both"
            and not isinstance(v, str)
            and v
            and not generalized_witness_ok(v.lts, v.universe, v.witness)
        ):
            yield f"{where} both: its witness fails generalized_witness_ok"
    # None where the direct route raised
    related = {
        name: getattr(got[name, None, "direct"], "equivalent", None)
        for name in ("brb", "rbrb")
    }
    for rooted, name in ((False, "brb"), (True, "rbrb")):
        phi = formulas[rooted]
        if isinstance(phi, str) or (phi is None) != related[name]:
            yield (
                f"distinguish rooted={rooted} gives {formula_line(phi)}, "
                f"{name} {related[name]}"
            )
    if isinstance(part, str):
        together = part
    else:
        lts, blocks = part
        together = blocks.same(lts.index[p], lts.index[q])
    if together != related["brb"]:
        yield f"brb_partition same block {together}, brb {related['brb']}"


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

    count = complaints = 0
    for seed in args.seeds.split(","):
        rng = random.Random(int(seed))
        for p, q in sample_pairs(rng, cfg, args.per_seed, args.state_cap, 0.3):
            for line in digest_pair(p, q, opts, feed):
                print(line, file=sys.stderr)
                complaints += 1
            count += 1
    print(f"pairs {count}")
    for name in SECTIONS:
        print(f"{name} {hashes[name].hexdigest()}")
    return 1 if complaints else 0


if __name__ == "__main__":
    sys.exit(main())
