"""Growth of both routes on two families, one row per size.

The chain pair is ``a.``×n ``a.0`` against ``a.``×(n-1) ``tau.a.0``:
inequivalent, about 2n explored states, and a partition refinement that
takes one round per link.  For each n this prints the explored states, the
encoded states (wrappers of the closure), the rounds of the encode route's
branching fixpoint and that fixpoint's best time of three on a built
closure, the passes of the direct route's fixpoint over every column and
its best time of three on a built profile, the same for the fixpoint over
the pair column alone that ``brb_partition`` runs (the chain has no
time-out, so the pair column reads no other), and the time of one ``brb``
call under the default method from a fresh ``Analysis``, parse and
exploration included (the direct fixpoint runs too, over the pair column,
as the verdict is negative).  The state budget is lifted for the chains,
so every length runs.

The k-action pair is ``a.t.a.0 + b.t.b.0 + ...`` over k actions, k = 6,
8 and 10, against the same sum under one ``tau``: equivalent, with a
literal closure of about ``2k * 2^k`` wrappers.  For each k this prints,
under default options, the explored states, the wrappers of the check's
closure, keyed by relevant environments, the rows the certificate of
``method="both"`` judges (the projection's rows that hold a state other
than their own) and the time of one ``brb`` call by each of ``both``,
``direct`` and ``encode``, parse and exploration included:

    PYTHONPATH=src python3 scripts/scaling.py --links 50,100,200,400

The exit code is 1 if a chain pair comes out equivalent or a k-action pair
inequivalent, or if a k-action check is refused, so that the default state
budget must admit the closure at k = 10.
"""

import argparse
import sys
import time

from txbisim import Analysis, CheckOptions, TxbisimError, brb, parse_term
from txbisim.equiv import _branching_fixpoint, _generalized_fixpoint

OPTS = CheckOptions(max_states=10**6)
METHODS = ("both", "direct", "encode")
# the k-action pairs' sizes and their actions; ``t`` is the time-out
ACTION_COUNTS = (6, 8, 10)
ACTIONS = "abcdefghij"


def chain_pair(n):
    return parse_term("a." * n + "a.0"), parse_term("a." * (n - 1) + "tau.a.0")


def action_pair(k):
    body = " + ".join(f"{a}.t.{a}.0" for a in ACTIONS[:k])
    return parse_term(body), parse_term(f"tau.({body})")


def row(n):
    start = time.perf_counter()
    p, q = chain_pair(n)
    verdict = brb(p, q, OPTS)
    check_s = time.perf_counter() - start
    an = Analysis(p, q, OPTS)
    enc = an.encoded
    res, best = best_of_three(lambda: _branching_fixpoint(enc))
    pf = an.profile
    direct, direct_s = best_of_three(lambda: _generalized_fixpoint(pf))
    pair, pair_s = best_of_three(
        lambda: _generalized_fixpoint(pf, (pf.trig,), record=False))
    return verdict, (an.lts.n_states, enc.n_states, res.rounds, best,
                     direct.rounds, direct_s, pair.rounds, pair_s, check_s)


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


def best_of_three(run):
    """The last result of three calls of ``run`` and the fastest call's
    time."""
    best = None
    for _ in range(3):
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
    print(f"{'n':>5} {'states':>7} {'encoded':>8} {'rounds':>7} "
          f"{'fixpoint_s':>11} {'passes':>7} {'direct_s':>9} "
          f"{'pair_passes':>12} {'pair_s':>9} {'brb_s':>8}")
    ok = True
    for n in (int(part) for part in args.links.split(",")):
        verdict, (states, encoded, rounds, fix_s, passes, direct_s,
                  pair_passes, pair_s, check_s) = row(n)
        ok &= not verdict.equivalent
        print(f"{n:>5} {states:>7} {encoded:>8} {rounds:>7} "
              f"{fix_s:>11.4f} {passes:>7} {direct_s:>9.4f} "
              f"{pair_passes:>12} {pair_s:>9.4f} {check_s:>8.3f}")
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
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
