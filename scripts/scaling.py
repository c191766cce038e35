"""Growth of both routes on two families, and of explanations on a third,
one row per size.

The chain pair is ``a.``×n ``a.0`` against ``a.``×(n-1) ``tau.a.0``:
inequivalent, about 2n explored states, and a partition refinement that
takes one round per link.  For each n this prints the explored states, the
encoded states (wrappers of the closure over every column), the wrappers
of the check's closure, which settles only into the columns the pair
column reads (none but itself, as the chain has no time-out), the rounds
of the encode route's
branching fixpoint and that fixpoint's best time of three on the built
closure over every column, the passes of the direct route's fixpoint over every column and
its best time of three on a built profile, the same for the fixpoint over
the pair column alone that ``brb_partition`` runs (the chain has no
time-out, so the pair column reads no other), and the time of one ``brb``
call under the default method from a fresh ``Analysis``, parse and
exploration included (the direct fixpoint runs too, over the pair column,
as the verdict is negative).  The state budget is lifted for the chains,
so every length runs.

The short chain pairs are the chain pair at n = 5, 9 and 13, where a
check's fixed costs weigh most.  For each n this prints the wrappers of
the check's closure, whether that closure is the explored system itself
(it settles nowhere and the chain has no time-out, so ``brb`` reuses the
system's tables and builds no wrapper), and the rounds of the encode
route's branching fixpoint on it, with its best time of 200 runs.

The k-action pair is ``a.t.a.0 + b.t.b.0 + ...`` over k actions, k = 6,
8 and 10, against the same sum under one ``tau``: equivalent, with a
literal closure of about ``2k * 2^k`` wrappers.  For each k this prints,
under default options, the explored states, the wrappers of the check's
closure, keyed by relevant environments, the rows the certificate of
``method="both"`` judges (the projection's rows that hold a state other
than their own) and the time of one ``brb`` call by each of ``both``,
``direct`` and ``encode``, parse and exploration included.

The cells pair is k timed cells ``(a.0 + t.tau.a.0) ||{} ...`` against
the plain cells ``(a.0 + t.a.0) ||{} ...``, k = 2, 3 and 4: equivalent,
with few passes and wide rows.  For each k this prints, for the direct
fixpoint over the pair column and the columns it reads, run once with
records on a built profile: the explored states, its row judgements
over all its passes, the entries its start excludes, the entries its
judgements remove (both counted in both orientations) and its time.

The explanation pair is ``a.``×n ``a.0`` against ``a.``×n ``b.0``, n = 50
and 100: its distinguishing formula is three nodes deep per link.  For
each n this prints the time of one ``distinguish`` call, parse and
exploration included, and the formula's distinct nodes:

    PYTHONPATH=src python3 scripts/scaling.py --links 50,100,200,400

The exit code is 1 if a chain pair comes out equivalent or a k-action pair
inequivalent, if a chain pair's check closure has more wrappers than
explored states, if a short chain pair's check closure is not the
explored system, if a k-action check is refused, so that the default
state budget must admit the closure at k = 10, if a cells pair's direct
fixpoint gives blocks other than ``brb_partition``'s, or if an
explanation raises or finds no formula.
"""

import argparse
import sys
import time

from txbisim import (
    Analysis, CheckOptions, TxbisimError, brb, brb_partition, distinguish,
    explore, parse_term, process_universe,
)
from txbisim.encoding import _Profile, env_columns
from txbisim.equiv import _branching_fixpoint, _generalized_fixpoint, _start
from txbisim.modal import _layout

OPTS = CheckOptions(max_states=10**6)
METHODS = ("both", "direct", "encode")
# the k-action pairs' sizes and their actions; ``t`` is the time-out
ACTION_COUNTS = (6, 8, 10)
ACTIONS = "abcdefghij"
# the short chain pairs' lengths
SHORT_LINKS = (5, 9, 13)
# the cells pairs' sizes
CELL_COUNTS = (2, 3, 4)
# the explanation pairs' lengths
EXPLAIN_LINKS = (50, 100)


def chain_pair(n):
    return parse_term("a." * n + "a.0"), parse_term("a." * (n - 1) + "tau.a.0")


def action_pair(k):
    body = " + ".join(f"{a}.t.{a}.0" for a in ACTIONS[:k])
    return parse_term(body), parse_term(f"tau.({body})")


def cells_pair(k):
    return tuple(
        parse_term(" ||{} ".join(f"({a}.0 + t.{inner}{a}.0)" for a in ACTIONS[:k]))
        for inner in ("tau.", "")
    )


def cells_row(k):
    """The cells pair's figures, and whether the pair-column fixpoint's
    blocks are ``brb_partition``'s."""
    pair = cells_pair(k)
    lts = explore(pair)
    pf = _Profile(lts, process_universe(*pair))
    start = time.perf_counter()
    res = _generalized_fixpoint(pf, (pf.trig,))
    took = time.perf_counter() - start
    excluded = sum(pf.n - row.bit_count()
                   for x in pf.reads((pf.trig,)) for row in _start(pf, x))
    blocks = {row[pf.trig] for row in res.rows}
    same = blocks == {
        sum(1 << i for i in block) for block in brb_partition(pair)[1].blocks}
    return same, (lts.n_states, res.next_stamp - 1, excluded,
                  2 * len(res.records), took)


def row(n):
    start = time.perf_counter()
    p, q = chain_pair(n)
    verdict = brb(p, q, OPTS)
    check_s = time.perf_counter() - start
    an = Analysis(p, q, OPTS)
    enc = an.encoded
    res, best = best_of(lambda: _branching_fixpoint(enc))
    pf = an.profile
    asked = Analysis(p, q, OPTS, cols=(pf.trig,)).encoded
    direct, direct_s = best_of(lambda: _generalized_fixpoint(pf))
    pair, pair_s = best_of(
        lambda: _generalized_fixpoint(pf, (pf.trig,), record=False))
    return verdict, (an.lts.n_states, enc.n_states, asked.n_states, res.rounds,
                     best, direct.rounds, direct_s, pair.rounds, pair_s, check_s)


def short_row(n):
    """The short chain pair's check closure: its wrappers, whether it is
    the explored system, and its refinement's rounds and best time."""
    p, q = chain_pair(n)
    trig = env_columns(process_universe(p, q))[2]
    an = Analysis(p, q, OPTS, cols=(trig,))
    enc = an.encoded
    res, best = best_of(lambda: _branching_fixpoint(enc), 200)
    return enc.n_states, enc.coded_moves is an.lts.coded_moves, res.rounds, best


def action_row(k):
    """The row's figures, or None if some method, under default options
    but the method, refuses the k-action pair or finds it inequivalent."""
    times = []
    ok = True
    for method in METHODS:
        start = time.perf_counter()
        try:
            ok &= brb(*action_pair(k), CheckOptions(method=method)).equivalent
        except TxbisimError:
            ok = False
        times.append(time.perf_counter() - start)
    if not ok:
        return None
    an = Analysis(*action_pair(k))
    judged = sum(
        1 for i, cols in enumerate(an.projection.rows) for mask in cols
        if mask & ~(1 << i)
    )
    return an.lts.n_states, an.encoded.n_states, judged, *times


def explain_row(n):
    """The time of ``distinguish`` on the explanation pair of ``n`` links
    and its formula's distinct nodes, or None if it raises or finds no
    formula."""
    start = time.perf_counter()
    try:
        phi = distinguish(parse_term("a." * n + "a.0"),
                          parse_term("a." * n + "b.0"))
    except (TxbisimError, RecursionError):
        return None
    took = time.perf_counter() - start
    return None if phi is None else (took, formula_size(phi))


def formula_size(phi):
    """Distinct nodes of a formula, whose subformulas may be shared."""
    seen = {id(phi)}
    stack = [phi]
    while stack:
        for sub in _layout(stack.pop())[1]:
            if id(sub) not in seen:
                seen.add(id(sub))
                stack.append(sub)
    return len(seen)


def best_of(run, times=3):
    """The last result of ``times`` calls of ``run`` and the fastest
    call's time."""
    best = None
    for _ in range(times):
        start = time.perf_counter()
        got = run()
        took = time.perf_counter() - start
        best = took if best is None else min(best, took)
    return got, best


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--links", default="50,100,200,400",
        help="comma-separated chain lengths n (default: 50,100,200,400)",
    )
    args = parser.parse_args(argv)
    print(f"{'n':>5} {'states':>7} {'encoded':>8} {'asked':>6} {'rounds':>7} "
          f"{'fixpoint_s':>11} {'passes':>7} {'direct_s':>9} "
          f"{'pair_passes':>12} {'pair_s':>9} {'brb_s':>8}")
    ok = True
    for n in (int(part) for part in args.links.split(",")):
        verdict, (states, encoded, asked, rounds, fix_s, passes, direct_s,
                  pair_passes, pair_s, check_s) = row(n)
        ok &= not verdict.equivalent and asked <= states
        print(f"{n:>5} {states:>7} {encoded:>8} {asked:>6} {rounds:>7} "
              f"{fix_s:>11.4f} {passes:>7} {direct_s:>9.4f} "
              f"{pair_passes:>12} {pair_s:>9.4f} {check_s:>8.3f}")
    print(f"{'n':>5} {'asked':>6} {'system':>7} {'rounds':>7} {'refine_s':>10}")
    for n in SHORT_LINKS:
        asked, system, rounds, took = short_row(n)
        ok &= system
        print(f"{n:>5} {asked:>6} {'yes' if system else 'no':>7} {rounds:>7} "
              f"{took:>10.6f}")
    print(f"{'k':>5} {'states':>7} {'encoded':>8} {'judged':>7} "
          + " ".join(f"{m + '_s':>9}" for m in METHODS))
    for k in ACTION_COUNTS:
        figures = action_row(k)
        if figures is None:
            ok = False
            print(f"{k:>5} refused or found inequivalent by some method")
            continue
        states, encoded, judged, *times = figures
        print(f"{k:>5} {states:>7} {encoded:>8} {judged:>7} "
              + " ".join(f"{t:>9.3f}" for t in times))
    print(f"{'k':>5} {'states':>7} {'judged':>7} {'excluded':>9} "
          f"{'removed':>8} {'direct_s':>9}")
    for k in CELL_COUNTS:
        same, (states, judged, excluded, removed, took) = cells_row(k)
        ok &= same
        print(f"{k:>5} {states:>7} {judged:>7} {excluded:>9} "
              f"{removed:>8} {took:>9.4f}"
              + ("" if same else "  blocks differ from brb_partition's"))
    print(f"{'n':>5} {'explain_s':>10} {'formula':>8}")
    for n in EXPLAIN_LINKS:
        figures = explain_row(n)
        if figures is None:
            ok = False
            print(f"{n:>5} raised or found no formula")
            continue
        took, size = figures
        print(f"{n:>5} {took:>10.3f} {size:>8}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
