"""Release gate: fourteen behavioural criteria, one test and one line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the checklist; every
test prints ``criterion NN: PASS`` with a short tally once its assertions
have gone through.  The corpora come from conftest and are seed-frozen, so
the tallies are stable run to run.
"""

import math
import random
from itertools import combinations

import pytest

from txbisim import (
    CheckOptions,
    GenConfig,
    StateBudgetError,
    equivalent_pair,
    explore,
    rand_term,
)
from txbisim.axioms import axiom_by_name, fuzz_axioms
from txbisim.equiv import (
    _rooted_fail,
    brb,
    brb_partition,
    brb_states,
    process_universe,
    rbrb,
    strong,
)
from txbisim.errors import ParseError, TxbisimError
from txbisim.gen import rand_context, rand_formula
from txbisim.lts import disjoint_union, iter_bits
from txbisim.lts import quotient as lts_quotient
from txbisim.modal import distinguish, in_subclass, satisfies
from txbisim.terms import alphabet, envset, mk_theta, parse_file, parse_term

BOTH = CheckOptions(method="both")
DIRECT = CheckOptions(method="direct", max_states=1600)
ENCODE = CheckOptions(method="encode", max_states=1600)


def report(num, text):
    print(f"criterion {num:02d}: PASS  {text}")


def _equivalent(an):
    return an.gen.has(an.ip, an.profile.trig, an.iq)


def _rooted_equivalent(an):
    return _rooted_fail(an.profile, an.gen, an.ip, an.profile.trig, an.iq) is None


def test_criterion_01_stability_trio(stability_defs):
    p0 = stability_defs.defs["P0"]
    q0 = stability_defs.defs["Q0"]
    r0 = stability_defs.defs["R0"]
    for opts in (DIRECT, ENCODE):
        assert not brb(p0, q0, opts)
        assert brb(q0, r0, opts)
    report(1, "not (P0 ~ Q0) and Q0 ~ R0, direct and encoded")


def test_criterion_02_extra_action_and_context(extra_action_defs):
    d = extra_action_defs.defs
    assert not brb(d["WithDirect"], d["WithoutDirect"], BOTH)
    assert not brb(d["SwitchedWith"], d["SwitchedWithout"], BOTH)
    report(2, "direct a-transition matters, bare and inside the switch")


def test_criterion_03_no_eliding_timeouts(no_eliding_defs):
    d = no_eliding_defs.defs
    assert not brb(d["Single"], d["Double"], BOTH)
    assert not brb(d["Single"], d["Separated"], BOTH)
    report(3, "a.t.b != a.t.t.b and a.t.b != a.t.tau.t.b")


def test_criterion_04_algebraic_laws(laws_defs):
    d = laws_defs.defs
    assert rbrb(d["Shadowed"], d["LazyA"], BOTH)
    assert rbrb(d["Branching"], d["Grown"], BOTH)
    assert brb(d["DirectA"], d["LazyA"], BOTH)
    assert not rbrb(d["DirectA"], d["LazyA"], BOTH)
    report(4, "timeout shadowing, branching axiom, rootedness of tau-lift")


def test_criterion_05_method_agreement(corpus):
    agreements = 0
    for p, q, _ in corpus:
        assert bool(brb(p, q, DIRECT)) == bool(brb(p, q, ENCODE))
        assert bool(rbrb(p, q, DIRECT)) == bool(rbrb(p, q, ENCODE))
        agreements += 1
    assert agreements >= 200
    report(5, f"encode and direct agree on {agreements} pairs, both relations")


def test_criterion_06_environment_wrapping(corpus_analyses):
    checks = 0
    for an in corpus_analyses:
        for r in range(len(an.universe) + 1):
            for xs in combinations(sorted(an.universe), r):
                env = envset(xs)
                fixed = an.gen.has(
                    an.ip, an.profile.env_mask(xs), an.iq
                )
                wrapped = brb(
                    mk_theta(env, env, an.p), mk_theta(env, env, an.q), DIRECT
                )
                assert fixed == bool(wrapped), (xs, fixed)
                checks += 1
    report(6, f"fixed-environment verdict matches the theta wrap, {checks} checks")


def test_criterion_07_formula_agreement(corpus_analyses):
    eq = [an for an in corpus_analyses if _equivalent(an)]
    req = [an for an in corpus_analyses if _rooted_equivalent(an)]
    rng = random.Random(7)
    plain = rooted = 0
    per_pair = max(1, math.ceil(520 / len(eq)))
    for an in eq:
        for _ in range(per_pair):
            phi = rand_formula(rng, ("a", "b"), 3, "Lbc")
            assert satisfies(an.lts, an.p, phi, None) == satisfies(
                an.lts, an.q, phi, None
            )
            plain += 1
    per_pair = max(1, math.ceil(520 / len(req)))
    for an in req:
        for _ in range(per_pair):
            phi = rand_formula(rng, ("a", "b"), 3, "Lbcr")
            assert satisfies(an.lts, an.p, phi, None) == satisfies(
                an.lts, an.q, phi, None
            )
            rooted += 1
    assert plain >= 500 and rooted >= 500
    report(7, f"no separating formula in {plain} Lbc and {rooted} Lbcr samples")


def test_criterion_08_distinguishing_formulas(corpus_analyses):
    found = 0
    for an in corpus_analyses:
        if _equivalent(an):
            continue
        phi = distinguish(an.p, an.q, rooted=False, opts=DIRECT)
        assert phi is not None
        assert in_subclass(phi, "Lbc")
        assert satisfies(an.lts, an.p, phi, None) != satisfies(
            an.lts, an.q, phi, None
        )
        found += 1
    assert found > 0
    report(8, f"sound separating formula for all {found} inequivalent pairs")


def test_criterion_09_axiom_fuzz():
    results = fuzz_axioms(instances=50, seed=11, opts=DIRECT)
    assert all(r.ok for r in results)
    zero = next(r for r in results if r.name == "choice-idem-zero")
    assert not zero.sound and zero.failures > 0
    assert axiom_by_name("reactive-approximation").kind == "implication"
    report(9, f"{len(results)} laws behave as expected at 50 instances each")


def test_criterion_10_congruence():
    rng = random.Random(424242)
    cfg = GenConfig(alphabet=("a", "b"), max_depth=3)
    done = 0
    while done < 100:
        p, q = equivalent_pair(rng, cfg)
        ctx = rand_context(rng, cfg)
        cp, cq = ctx(p), ctx(q)
        try:
            explore((cp, cq), 500)
        except StateBudgetError:
            continue
        assert rbrb(cp, cq, CheckOptions(method="direct", max_states=2000))
        done += 1
    report(10, f"rooted equivalence preserved in {done} random contexts")


def test_criterion_11_quotient():
    rng = random.Random(5150)
    cfg = GenConfig(alphabet=("a", "b"), max_depth=3)
    opts = CheckOptions(method="direct", max_states=800)
    done = 0
    while done < 50:
        term = rand_term(rng, cfg)
        try:
            lts, part = brb_partition(term, opts)
            small = lts_quotient(lts, part)
        except (StateBudgetError, TxbisimError):
            # over budget or not strongly guarded; resample
            continue
        u = disjoint_union(lts, small)
        assert brb_states(
            u, (0, term), (1, small.roots[0]),
            universe=process_universe(term),
        )
        done += 1
    report(11, f"{done} strongly guarded terms equivalent to their quotients")


def test_criterion_12_lemma_suite(corpus_analyses):
    stable_pairs = stable_trips = stutters = 0
    for an in corpus_analyses:
        pf, res, lts = an.profile, an.gen, an.lts
        n = pf.n
        tau_next = [0] * n
        for i in range(n):
            for lab, j in lts.moves[i]:
                if lab == "tau":
                    tau_next[i] |= 1 << j
        reach = list(tau_next)
        changed = True
        while changed:
            changed = False
            for i in range(n):
                acc = reach[i]
                for j in iter_bits(reach[i]):
                    acc |= reach[j]
                if acc != reach[i]:
                    reach[i] = acc
                    changed = True

        # related stable states have equal outgoing label sets; in a fixed
        # environment only the allowed part must agree unless both idle
        for i in range(n):
            for j in iter_bits(res.rows[i][pf.trig]):
                if pf.stable[i] and pf.stable[j]:
                    assert lts.out_labels(i) == lts.out_labels(j)
                    stable_pairs += 1
            for x in range(pf.nx):
                for j in iter_bits(res.rows[i][x]):
                    if pf.stable[i] and pf.stable[j]:
                        assert pf.init_vis[i] & x == pf.init_vis[j] & x
                        assert pf.deadend(i, x) == pf.deadend(j, x)
                        if pf.deadend(i, x):
                            assert lts.out_labels(i) == lts.out_labels(j)
                        stable_trips += 1

        # stuttering: an internal path between two states related to the
        # same partner never leaves that partner's class
        for j in range(n):
            member = 0
            for i in range(n):
                if res.has(i, pf.trig, j):
                    member |= 1 << i
            for i in iter_bits(member):
                for k in iter_bits(tau_next[i]):
                    if not member >> k & 1:
                        assert not reach[k] & member, (i, k, j)
                        stutters += 1
            for x in range(pf.nx):
                memx = 0
                for i in range(n):
                    if res.has(i, x, j):
                        memx |= 1 << i
                for i in iter_bits(memx):
                    for k in iter_bits(tau_next[i]):
                        if not memx >> k & 1:
                            assert not reach[k] & memx, (i, k, x, j)
                            stutters += 1
    report(
        12,
        f"init/idling agreement on {stable_pairs} stable pairs and "
        f"{stable_trips} stable triples, {stutters} stutter checks",
    )


def test_criterion_13_inclusion_chain(corpus_analyses):
    n_strong = n_rooted = n_plain = 0
    for an in corpus_analyses:
        s = bool(strong(an.lts, an.p, an.q))
        r = _rooted_equivalent(an)
        b = _equivalent(an)
        assert (not s or r) and (not r or b)
        n_strong += s
        n_rooted += r
        n_plain += b
    report(
        13,
        f"strong ({n_strong}) implies rooted ({n_rooted}) "
        f"implies plain ({n_plain}) on {len(corpus_analyses)} pairs",
    )


def test_criterion_14_deep_and_wide_terms():
    # a 1000-link chain pair, a 1200-summand sum and a 1500-prefix
    # definition reference, each past Python's recursion limit
    p = parse_term("a." * 1000 + "0")
    q = parse_term("a." * 999 + "tau.a.0")
    assert brb(p, q, BOTH)
    wide = parse_term(" + ".join(f"a{i}.0" for i in range(1200)))
    lts = explore(wide)
    assert lts.n_states == 2 and strong(lts, wide, wide)
    defs = parse_file("def A = b.0; def B = " + "a." * 1500 + "A;")
    assert alphabet(defs.defs["B"]).names == ("a", "b")
    with pytest.raises(ParseError):
        parse_term("(" * 1000 + "a.0" + ")" * 1000)
    report(14, "deep and wide terms are decided or refused cleanly")
