"""Growth of both routes on the chain pair, one row per length.

The pair is ``a.``×n ``a.0`` against ``a.``×(n-1) ``tau.a.0``: inequivalent,
about 2n explored states, and a partition refinement that takes one round
per link.  For each n this prints the explored states, the encoded states
(wrappers of the closure), the rounds of the encode route's branching
fixpoint and that fixpoint's best time of three on a built closure, the
passes of the direct route's fixpoint over every column and its best
time of three on a built profile, the same for the fixpoint over the
pair column alone that ``brb_partition`` runs (the chain has no
time-out, so the pair column reads no other), and the time of one
``brb`` call under the default method from a fresh ``Analysis``, parse
and exploration included (the direct fixpoint runs too, over the pair
column, as the verdict is negative):

    PYTHONPATH=src python3 scripts/scaling.py --links 50,100,200,400

The state budget is lifted, so every length runs.  The exit code is 1 if a
verdict comes out positive.
"""

import argparse
import sys
import time

from txbisim import Analysis, CheckOptions, brb, parse_term
from txbisim.equiv import _branching_fixpoint, _generalized_fixpoint

OPTS = CheckOptions(max_states=10**6)


def chain_pair(n):
    return parse_term("a." * n + "a.0"), parse_term("a." * (n - 1) + "tau.a.0")


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
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
