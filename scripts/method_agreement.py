"""Cross-validate the two decision procedures on random pairs.

For each depth in a sweep this generates seeded pairs, decides plain and
rooted equivalence, triggered and in a seeded subset of the pair's
actions, with the direct fixpoint, with the environment encoding and with
``method="both"``, and reports agreement plus wall-clock totals.  A
``both`` answer must equal the direct one, a negative ``encode`` or
``both`` verdict must name the direct route's reason, and the witness of a
positive ``both`` verdict (the encode route's projection, certified by one
literal pass of the clauses) must pass ``generalized_witness_ok``.  It
counts the unrooted negative verdicts that the first pass of the direct
route's clauses, against the relation that relates everything, certifies
without a fixpoint, and it asks ``distinguish``, plain and rooted, for a
formula separating every pair: that must return one exactly when the pair
is inequivalent.  ``brb_partition`` of each pair's state space must put
the pair in one block exactly when ``brb`` relates it.  Any disagreement is printed in full and the script exits
nonzero, so it doubles as a slow randomised check:

    python3 scripts/method_agreement.py --per-depth 200 --max-depth 5
"""

import argparse
import random
import sys
import time

from txbisim import (
    Analysis,
    CheckOptions,
    GenConfig,
    StateBudgetError,
    brb,
    brb_partition,
    brb_x,
    envset,
    equivalent_pair,
    explore,
    process_universe,
    rand_term,
    rbrb,
    rbrb_x,
)
from txbisim.equiv import _first_fail, generalized_witness_ok
from txbisim.modal import distinguish, formula_text
from txbisim.terms import term_text

DIRECT = CheckOptions(method="direct", max_states=4000)
ENCODE = CheckOptions(method="encode", max_states=4000)
BOTH = CheckOptions(method="both", max_states=4000)


def sample_pairs(rng, cfg, count, cap, rewrite_share):
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


def first_pass_fails(p, q, env=None):
    """Whether the queried pair fails a clause against the relation that
    relates everything, which certifies it inequivalent without a
    fixpoint."""
    an = Analysis(p, q, BOTH)
    pf = an.profile
    x = pf.trig if env is None else pf.env_mask(an.canonical_env(env))
    return _first_fail(pf, an.ip, x, an.iq, an.memo) is not None


def run_depth(rng, env_rng, depth, args):
    cfg = GenConfig(alphabet=tuple(args.alphabet.split(",")), max_depth=depth)
    pairs = sample_pairs(rng, cfg, args.per_depth, args.state_cap, 0.3)
    mismatches = []
    t_direct = t_encode = t_both = t_formula = t_partition = 0.0
    equivalent = negatives = first_round = 0
    for p, q in pairs:
        # a separate generator, so the pairs are those drawn without it
        names = sorted(process_universe(p, q))
        env = envset(a for a in names if env_rng.random() < 0.5)
        checks = [(brb, ()), (rbrb, ()), (brb_x, (env,)), (rbrb_x, (env,))]
        related = {}
        for relation, args_x in checks:
            t0 = time.perf_counter()
            dv = relation(p, q, *args_x, DIRECT)
            t_direct += time.perf_counter() - t0
            d = related[relation] = bool(dv)
            t0 = time.perf_counter()
            ev = relation(p, q, *args_x, ENCODE)
            t_encode += time.perf_counter() - t0
            e = bool(ev)
            t0 = time.perf_counter()
            try:
                v = relation(p, q, *args_x, BOTH)
                b = bool(v)
            except Exception as exc:
                v, b = None, f"raised {type(exc).__name__}: {exc}"
            t_both += time.perf_counter() - t0
            witness_ok = not v or generalized_witness_ok(
                v.lts, v.universe, v.witness
            )
            same_reason = ev.reason == dv.reason and (
                v is None or v.reason == dv.reason
            )
            if relation in (brb, brb_x) and not d:
                negatives += 1
                first_round += first_pass_fails(p, q, *args_x)
            if not d == e == b or not witness_ok or not same_reason:
                where = "".join(f" in {{{','.join(x)}}}" for x in args_x)
                detail = f"direct={d} encode={e} both={b}"
                if not witness_ok:
                    detail += " (its witness fails generalized_witness_ok)"
                if not same_reason:
                    detail += (
                        f" (reasons: direct {dv.reason}, encode {ev.reason}, "
                        f"both {v and v.reason})"
                    )
                mismatches.append((relation.__name__ + where, p, q, detail))
        for relation, rooted in ((brb, False), (rbrb, True)):
            t0 = time.perf_counter()
            try:
                phi = distinguish(p, q, rooted, DIRECT)
                ok = related[relation] == (phi is None)
                got = "None" if phi is None else formula_text(phi)
            except Exception as exc:
                ok, got = False, f"raised {type(exc).__name__}: {exc}"
            t_formula += time.perf_counter() - t0
            if not ok:
                mismatches.append(
                    (
                        "distinguish --rooted" if rooted else "distinguish", p, q,
                        f"{relation.__name__}={related[relation]} formula={got}",
                    )
                )
        t0 = time.perf_counter()
        try:
            lts, part = brb_partition((p, q), DIRECT)
            together = part.same(lts.index[p], lts.index[q])
            ok = together == related[brb]
        except Exception as exc:
            ok, together = False, f"raised {type(exc).__name__}: {exc}"
        t_partition += time.perf_counter() - t0
        if not ok:
            mismatches.append(
                ("brb_partition", p, q, f"brb={related[brb]} same block={together}")
            )
        equivalent += related[brb]
    print(
        f"depth {depth}: {len(pairs)} pairs, {equivalent} equivalent, "
        f"direct {t_direct:.2f}s, encode {t_encode:.2f}s, both {t_both:.2f}s, "
        f"distinguish {t_formula:.2f}s, partition {t_partition:.2f}s, "
        f"{len(mismatches)} mismatches; "
        f"{first_round} of {negatives} unrooted negatives certified by the first pass"
    )
    return mismatches


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--per-depth", type=int, default=200, metavar="N")
    parser.add_argument("--min-depth", type=int, default=2)
    parser.add_argument("--max-depth", type=int, default=5)
    parser.add_argument("--alphabet", default="a,b")
    parser.add_argument("--state-cap", type=int, default=600, metavar="N")
    args = parser.parse_args(argv)

    rng = random.Random(args.seed)
    env_rng = random.Random(args.seed)
    bad = []
    for depth in range(args.min_depth, args.max_depth + 1):
        bad.extend(run_depth(rng, env_rng, depth, args))
    if bad:
        print()
        for name, p, q, detail in bad:
            print(
                f"{name}: {detail}\n"
                f"  left:  {term_text(p)}\n"
                f"  right: {term_text(q)}"
            )
        return 1
    print("methods agree everywhere")
    return 0


if __name__ == "__main__":
    sys.exit(main())
