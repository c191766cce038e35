"""Equivalence checking: engine fixpoints against the reference procedures,
decision procedures against each other, witnesses against their validators."""

import gc
import random
import weakref
from collections.abc import Sequence
from functools import cached_property
from itertools import combinations
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from txbisim import (
    AlphabetLimitError,
    CheckOptions,
    GenConfig,
    MethodDisagreementError,
    StateBudgetError,
    TxbisimError,
    equivalent_pair,
    parse_file,
    rand_term,
)
from txbisim import encoding, equiv
from txbisim.equiv import (
    Analysis,
    RelationStore,
    _Profile,
    _RowRecords,
    _STABILITY,
    _branching_fail,
    _branching_fixpoint,
    _first_fail,
    _generalized_fixpoint,
    _plain,
    _projection,
    _rooted_fail,
    _round,
    _strong_fixpoint,
    branching_witness_ok,
    brb,
    brb_partition,
    brb_states,
    brb_x,
    generalized_witness_ok,
    process_universe,
    r_sr_branching,
    rbrb,
    rbrb_x,
    sr_branching,
    strong,
    strong_witness_ok,
)
from txbisim.encoding import MAX_UNIVERSE, encode
from txbisim.lts import Lts, disjoint_union, iter_bits, quotient
from txbisim.modal import Top, distinguish, in_subclass, satisfies
from txbisim.semantics import explore
from txbisim.terms import envset, mk_theta, parse_term, term_text

from oracles import (
    _match,
    all_env_sets,
    ref_branching,
    ref_encode,
    ref_reactive,
    ref_rooted,
    ref_rooted_branching,
    ref_strong,
    tau_reach,
)

DIRECT = CheckOptions(method="direct")


def engine_rows(lts, universe):
    pf = _Profile(lts, universe)
    res = _generalized_fixpoint(pf)
    pairs = {(i, j) for i in range(pf.n) for j in iter_bits(res.rows[i][pf.trig])}
    trips = {
        (i, frozenset(pf.names[x]), j)
        for i in range(pf.n)
        for x in range(pf.trig)
        for j in iter_bits(res.rows[i][x])
    }
    return pf, res, pairs, trips


# -- the fixpoint engines against the literal reference procedures


def test_generalized_rows_equal_reference_relation(small_corpus):
    for p, q, _ in small_corpus:
        lts = explore((p, q))
        uni = process_universe(p, q)
        pf, res, pairs, trips = engine_rows(lts, uni)
        ora_pairs, ora_trips = ref_reactive(lts, uni)
        assert pairs == ora_pairs, term_text(p) + " vs " + term_text(q)
        assert trips == ora_trips, term_text(p) + " vs " + term_text(q)
        # the records cover exactly the removed entries, counted one each
        removed = {
            (i, x, j)
            for i in range(pf.n)
            for x in range(pf.trig + 1)
            for j in range(pf.n)
            if not res.has(i, x, j)
        }
        assert all(res.stamp(i, x, j) is not None for i, x, j in removed)
        assert set(res.records) <= removed
        assert len(res.records) == sum(1 for _ in res.records)


def two_cells():
    """Two timed cells against the same cells without their inner tau."""
    p = parse_term("(a.0 + t.tau.a.0) ||{} (b.0 + t.tau.b.0)")
    q = parse_term("(a.0 + t.a.0) ||{} (b.0 + t.b.0)")
    return p, q


def three_cells():
    """Like :func:`two_cells` with a third cell: its first pass removes
    most entries."""
    p = parse_term(
        "(a.0 + t.tau.a.0) ||{} (b.0 + t.tau.b.0) ||{} (c.0 + t.tau.c.0)"
    )
    q = parse_term("(a.0 + t.a.0) ||{} (b.0 + t.b.0) ||{} (c.0 + t.c.0)")
    return p, q


def assert_stamps_replay(pf, res):
    """Every row judgement of the fixpoint that recorded a removal,
    replayed alone from the table without the entries stamped below its
    stamp ``s``, in either orientation, by one scan pass that carries no
    match sets over, removes exactly the entries stamped ``s``, for the
    same reasons, and writes them and their mirrors; the last one leaves
    the final table."""
    by_stamp = {}
    for (p, x, q), rec in res.records.items():
        by_stamp.setdefault(rec[0], []).append((p, x, q, rec))
    table = [[pf.full] * (pf.trig + 1) for _ in range(pf.n)]
    for s in sorted(by_stamp):
        (p, x), = {(i, y) for i, y, _, _ in by_stamp[s]}
        judged = [cols[:] for cols in table]
        by_row = {}
        _round(pf, judged, [(p, x, ~(1 << p), pf.clauses(p, x))], {}, by_row, s)
        assert dict(_RowRecords(by_row)) == {
            (i, y, j): rec for i, y, j, rec in by_stamp[s]}
        for i, y, j, _ in by_stamp[s]:
            table[i][y] &= ~(1 << j)
            table[j][y] &= ~(1 << i)
        assert judged == table
    assert table == res.rows


def test_stamps_replay_from_records(small_corpus):
    """:func:`assert_stamps_replay` on the small corpus, two chains and the
    two cells."""
    chains = [
        ("a.a.a.a.a.0", "a.a.a.a.b.0"),
        ("a.a.a.a.0", "a.a.a.tau.a.0"),
    ]
    extra = [tuple(map(parse_term, pair)) for pair in chains] + [two_cells()]
    for p, q in [(p, q) for p, q, _ in small_corpus] + extra:
        lts = explore((p, q))
        pf, res, _, _ = engine_rows(lts, process_universe(p, q))
        assert_stamps_replay(pf, res)


@pytest.mark.parametrize(
    "pair, counts",
    [
        (two_cells(), (21, 2, 913, 142)),
        (three_cells(), (83, 2, 29118, 1008)),
        (tuple(map(parse_term, ("a.a.a.a.0", "a.a.a.tau.a.0"))), (9, 2, 96, 24)),
    ],
)
def test_direct_fixpoint_counts_are_pinned(pair, counts):
    """States, passes, removed entries and ``by_row`` records of three
    fixpoints, so that a change to the order in which a pass judges its
    rows, or to how it records their removals, cannot go unnoticed."""
    p, q = pair
    lts = explore(pair)
    _, res, _, _ = engine_rows(lts, process_universe(p, q))
    entries = sum(len(recs) for recs in res.records.by_row.values())
    assert (lts.n_states, res.rounds, len(res.records), entries) == counts


@st.composite
def raw_systems(draw):
    """A raw system over ``a``, ``b``, ``tau`` and ``t``, with tau
    self-loops, whose states need not be terms."""
    n = draw(st.integers(1, 8))
    state = st.integers(0, n - 1)
    edges = draw(st.lists(
        st.tuples(state, st.sampled_from(("a", "b", "tau", "t")), state),
        max_size=3 * n,
    ))
    edges += [(i, "tau", i) for i in draw(st.lists(state, max_size=2))]
    return Lts(range(n), edges, (0,))


def is_row_clause(pf, p, x, clause):
    """Whether ``clause`` is the stability clause or, by identity, one of
    the compiled step clauses of the row of ``p`` in column ``x``."""
    return clause is _STABILITY or any(clause is c for c in pf.clauses(p, x))


@given(raw_systems())
def test_direct_table_is_an_equivalence_with_records_on_drawn_systems(lts):
    """Every column of the direct fixpoint's final table is reflexive and
    symmetric, and every removed entry has a record in one orientation:
    each removal's mirror entry is cleared before the next row is judged.
    Every record holds the compiled clause of its own row that failed, not
    a copy of it."""
    universe = envset(lab for lab in lts.labels if lab not in ("tau", "t"))
    pf = _Profile(lts, universe)
    res = _generalized_fixpoint(pf)
    for (p, x), recs in res.records.by_row.items():
        for _, _, clause in recs:
            assert is_row_clause(pf, p, x, clause)
    for x in range(pf.trig + 1):
        for p in range(pf.n):
            assert res.has(p, x, p)
            for q in range(pf.n):
                assert res.has(p, x, q) == res.has(q, x, p)
                if not res.has(p, x, q):
                    assert (p, x, q) in res.records or (q, x, p) in res.records
    s = lts.states[0]
    for j, t in enumerate(lts.states):
        assert brb_states(lts, s, t).equivalent == res.has(0, pf.trig, j)


@given(raw_systems())
def test_stamps_replay_from_records_on_drawn_systems(lts):
    """:func:`assert_stamps_replay` on raw systems with tau self-loops,
    whose tau cycles can take the fixpoint more than two passes."""
    universe = envset(lab for lab in lts.labels if lab not in ("tau", "t"))
    pf = _Profile(lts, universe)
    assert_stamps_replay(pf, _generalized_fixpoint(pf))


@given(raw_systems())
def test_fixpoint_over_the_columns_a_question_reads_on_drawn_systems(lts):
    """For each seed column the fixpoint judges that column and every
    column its rows' clauses read, transitively, and no other.  Their rows
    end as the fixpoint over every column leaves them, each removed entry
    recorded with the same clause, and the stamps in the same order; the
    other columns still hold every state.  Completing the result gives the
    table over every column, with records that replay."""
    universe = envset(lab for lab in lts.labels if lab not in ("tau", "t"))
    pf = _Profile(lts, universe)
    whole = _generalized_fixpoint(pf)
    columns = set(range(pf.trig + 1))
    for seed in columns:
        part = _generalized_fixpoint(pf, (seed,))
        judged = columns - part.pending
        assert seed in judged and judged == set(pf.reads((seed,)))
        for x in judged:
            for p in range(pf.n):
                assert {x if cl[2] is None else cl[2]
                        for cl in pf.clauses(p, x)} <= judged
        for p in range(pf.n):
            for x in columns:
                want = whole.rows[p][x] if x in judged else pf.full
                assert part.rows[p][x] == want
        keys = sorted(k for k in whole.records if k[1] in judged)
        assert sorted(part.records) == keys
        stamps = set()
        for k in keys:
            assert part.records[k][1] is whole.records[k][1]
            stamps.add((whole.records[k][0], part.records[k][0]))
        # one stamp for one, rising together
        ordered = sorted(stamps)
        assert all(a[1] < b[1] for a, b in zip(ordered, ordered[1:]))
        assert part.complete() is part and not part.pending
        assert part.rows == whole.rows
        assert_stamps_replay(pf, part)


@given(raw_systems())
def test_direct_table_equals_the_reference_on_drawn_systems(lts):
    """The direct fixpoint matches a time-out only from a state idle in its
    environment, the reference from any state its side reaches by internal
    steps; on raw systems, whose unstable states carry time-outs too, the
    greatest relations are still the same."""
    universe = envset(lab for lab in lts.labels if lab not in ("tau", "t"))
    _, _, pairs, trips = engine_rows(lts, universe)
    assert (pairs, trips) == ref_reactive(lts, universe)


@given(raw_systems())
def test_first_pass_failures_are_removed_in_the_fixpoints_first_pass(lts):
    """An entry that the first pass of :func:`_first_fail`, judged on two
    rows alone against the full relation, fails is removed in the direct
    fixpoint's first pass, in every column and for every pair of states, a
    state with itself included.  The fixpoint judges later rows against a
    table its earlier ones have cut, so it may remove an entry the first
    pass keeps, or by an earlier clause.  Given the final table
    :func:`_first_fail` names a clause for every removed entry, the first
    pass's one where it finds one.  Either names a compiled clause of the
    row of the side that fails it."""
    universe = envset(lab for lab in lts.labels if lab not in ("tau", "t"))
    pf = _Profile(lts, universe)
    res = _generalized_fixpoint(pf)
    first_pass = pf.n * (pf.trig + 1)
    for x in range(pf.trig + 1):
        for p in range(pf.n):
            for q in range(pf.n):
                stamp = res.stamp(p, x, q)
                want = _first_fail(pf, p, x, q, {})
                if want is not None:
                    assert is_row_clause(pf, (p, q)[want[0]], x, want[1])
                    assert stamp is not None and stamp <= first_pass
                if stamp is not None:
                    fail = _first_fail(pf, p, x, q, {}, res.rows)
                    assert is_row_clause(pf, (p, q)[fail[0]], x, fail[1])
                    assert want is None or fail == want


@given(raw_systems())
def test_rooted_first_pass_catches_every_unrooted_first_pass_failure(lts):
    """Whatever entry the unrooted first pass fails, in any column, the
    rooted one with no table fails too, so a rooted check loses nothing by
    skipping the unrooted pass: a move with no weak match has no strong
    one, a time-out no idle state reaches has none at the root, and a
    stability failure leaves the divergent side a tau step the stable side
    cannot take.  The rooted clause is one of its side's row, and the other
    side has no step that :meth:`_Profile.first_step` names for it."""
    universe = envset(lab for lab in lts.labels if lab not in ("tau", "t"))
    pf = _Profile(lts, universe)
    for x in range(pf.trig + 1):
        for p in range(pf.n):
            for q in range(pf.n):
                rooted = _rooted_fail(pf, None, p, x, q)
                if _first_fail(pf, p, x, q, {}) is not None:
                    assert rooted is not None
                if rooted is not None:
                    side, clause = rooted
                    a, b = (p, q) if side == 0 else (q, p)
                    assert is_row_clause(pf, a, x, clause)
                    assert pf.first_step(b, clause, x)[0] == 0


def test_fixpoint_reuses_the_first_rounds_match_sets(monkeypatch):
    """``a.a.0`` against ``a.b.0`` passes the first pass of
    :func:`_first_fail` and leaves the direct fixpoint at its fifteenth row
    judgement, the first pass reading the match sets that
    :func:`_first_fail` built against the full table: no ``(label, row)``
    match set is computed twice for one system."""
    calls = []
    pred_mask = Lts.pred_mask

    def counting(lts, label, target):
        calls.append((label, target == (1 << lts.n_states) - 1, target))
        return pred_mask(lts, label, target)

    pair = parse_term("a.a.0"), parse_term("a.b.0")
    an = Analysis(*pair, DIRECT)
    assert an.gen.stamp(an.ip, an.profile.trig, an.iq) == 15
    monkeypatch.setattr(Lts, "pred_mask", counting)
    assert not brb(*pair, DIRECT)
    assert ("a", True) in {call[:2] for call in calls}
    assert len(calls) == len(set(calls))


@pytest.mark.parametrize(
    "pair",
    [("a.a.0", "a.b.0"), ("a.t.a.0 + b.t.b.0", "tau.(a.t.a.0 + b.t.b.0)")],
)
def test_reasons_and_certificates_leave_the_tables_unchanged(monkeypatch, pair):
    """:func:`_round` writes into the table it judges, yet a ``both``
    check (its first pass, then the certificate of a positive or the
    reason of a negative) and :func:`_first_fail` on every removed entry of
    the final table leave the analysis' projection and direct table as a
    fresh computation gives them.  The check judged only the columns its
    question reads, so the complete table is read, continued from them."""
    made = []

    class Kept(Analysis):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(equiv, "Analysis", Kept)
    p, q = map(parse_term, pair)
    brb(p, q)
    an, = made
    pf = an.profile
    assert an.projection.rows == _projection(pf, an.encoded, an.enc_branch.rel).rows
    an.gen.complete(an.memo)
    for x in range(pf.trig + 1):
        for i in range(pf.n):
            for j in range(pf.n):
                if not an.gen.has(i, x, j):
                    _first_fail(pf, i, x, j, an.memo, an.gen.rows)
    assert an.gen.rows == _generalized_fixpoint(pf).rows


@pytest.mark.parametrize("method", ["direct", "both"])
def test_verdicts_hold_no_match_sets(monkeypatch, method):
    """The match sets shared by a check's passes die with the check: a
    verdict, its witness thunk included, keeps none of them alive."""

    class Memo(dict):
        pass

    made = []

    def memo(an):
        made.append(Memo())
        return made[-1]

    tracked = cached_property(memo)
    tracked.__set_name__(Analysis, "memo")
    monkeypatch.setattr(Analysis, "memo", tracked)
    opts = CheckOptions(method=method)
    pairs = [("a.tau.b.0 + t.b.0", "a.b.0 + t.b.0"), ("a.a.0", "a.b.0")]
    verdicts = [brb(parse_term(p), parse_term(q), opts) for p, q in pairs]
    assert [v.equivalent for v in verdicts] == [True, False]
    refs = [weakref.ref(m) for m in made]
    made.clear()
    assert refs
    gc.collect()
    assert all(ref() is None for ref in refs)
    v = verdicts[0]
    assert generalized_witness_ok(v.lts, v.universe, v.witness)


@pytest.mark.parametrize("method", ["direct", "encode", "both"])
def test_a_built_witness_keeps_only_its_store(method):
    """Once a verdict's witness is built, its thunk holds the store alone,
    not the stand-in analysis with its closure, partition, projection and
    match sets, and a second call returns the same store."""
    opts = CheckOptions(method=method)
    v = brb(parse_term("a.a.0"), parse_term("a.tau.a.0"), opts)
    store = v.witness
    held = [cell.cell_contents for cell in v.build_witness.__closure__]
    assert store in held
    assert not any(isinstance(value, Analysis) for value in held)
    assert v.build_witness() is store


def test_rooted_checks_equal_reference_relation(small_corpus):
    for p, q, _ in small_corpus:
        lts = explore((p, q))
        uni = process_universe(p, q)
        pf, res, pairs, trips = engine_rows(lts, uni)
        ora_rp, ora_rt = ref_rooted(lts, uni, *ref_reactive(lts, uni))
        eng_rp = {
            (i, j)
            for i in range(pf.n)
            for j in range(pf.n)
            if _rooted_fail(pf, res.rows, i, pf.trig, j) is None
        }
        assert eng_rp == ora_rp
        eng_rt = {
            (i, frozenset(pf.names[x]), j)
            for i in range(pf.n)
            for x in range(pf.trig)
            for j in range(pf.n)
            if _rooted_fail(pf, res.rows, i, x, j) is None
        }
        assert eng_rt == ora_rt


def assert_rows_match_reference(
    system, fixpoint=_branching_fixpoint, reference=ref_branching
):
    """The partition's rows are the reference relation, and its records
    count the ordered pairs it separates."""
    res = fixpoint(system)
    eng = {(i, j) for i in range(system.n_states) for j in iter_bits(res.rel[i])}
    assert eng == reference(system)
    assert len(res.records) == system.n_states**2 - len(eng)


def test_branching_rows_equal_reference_on_raw_and_encoded(small_corpus):
    for p, q, _ in small_corpus:
        lts = explore((p, q))
        assert_rows_match_reference(lts)
        assert_rows_match_reference(encode(lts, process_universe(p, q)))


def assert_closure_fixpoint_is_reference(an):
    """The encode route's fixpoint, read off the closure, has the rows and
    rounds of the fixpoint of the wrapper system, and read through the cut
    (:meth:`~txbisim.encoding.Closure.index`) its rows are the reference
    relation on the literal closure (:func:`oracles.ref_encode`): two
    literal wrappers are related exactly when their keyed wrappers are."""
    enc = an.encoded.lts
    res = an.enc_branch
    again = _branching_fixpoint(enc)
    assert (res.rel, res.rounds) == (again.rel, again.rounds)
    states, edges = ref_encode(an.lts, an.universe)
    literal = Lts(states, edges, enc.roots)
    assert set(enc.states) <= set(literal.states)
    pf = an.profile
    keyed = [
        an.encoded.index(
            pf.trig if s.triggered else pf.env_mask(s.mode), an.lts.index[s.inner]
        )
        for s in literal.states
    ]
    eng = {
        (i, j)
        for i in range(literal.n_states)
        for j in range(literal.n_states)
        if res.rel[keyed[i]] >> keyed[j] & 1
    }
    assert eng == ref_branching(literal)


def test_closure_fixpoint_equals_wrapper_fixpoint_and_reference(small_corpus):
    for p, q in [two_cells()] + [(p, q) for p, q, _ in small_corpus]:
        assert_closure_fixpoint_is_reference(Analysis(p, q))


@given(st.integers(0, 10**9), st.booleans())
def test_closure_fixpoint_equals_reference_on_drawn_pairs(seed, rewrite):
    rng = random.Random(seed)
    cfg = GenConfig(alphabet=("a", "b"), max_depth=3)
    if rewrite:
        p, q = equivalent_pair(rng, cfg)
    else:
        p, q = rand_term(rng, cfg), rand_term(rng, cfg)
    try:
        explore((p, q), 30)
    except StateBudgetError:
        assume(False)
    assert_closure_fixpoint_is_reference(Analysis(p, q))


@given(raw_systems())
def test_keyed_closure_is_the_literal_one_up_to_strong_bisimilarity(lts):
    """Every state a root, so every wrapper is reached: each wrapper of the
    literal closure (:func:`~txbisim.encoding.encode`) is strongly
    bisimilar to its keyed wrapper, the one its set cut to the state's
    relevant mask names, and in every column the keyed route relates
    exactly what the direct fixpoint relates.  The keyed closure's lifted
    tau components, each after every component it reaches, and its states
    that can reach a stable one are those recomputed on its wrapper
    system.  Drawn raw systems are the one
    randomised source of tau cycles through several states."""
    lts = Lts(lts.states, lts.transitions(), lts.states)
    universe = envset(lab for lab in lts.labels if lab not in ("tau", "t"))
    pf = _Profile(lts, universe)
    closure = encoding.Closure(pf)
    wrapped = closure.lts
    fresh = Lts(wrapped.states, wrapped.transitions(), wrapped.roots)
    comps = set(map(frozenset, closure.tau_sccs))
    assert comps == set(map(frozenset, fresh.tau_sccs))
    assert closure.can_reach_stable_mask == fresh.can_reach_stable_mask
    position = {i: k for k, comp in enumerate(closure.tau_sccs) for i in comp}
    for i in range(fresh.n_states):
        for j in iter_bits(fresh.succ_mask(i, "tau")):
            assert position[j] <= position[i]
    literal = encode(lts, universe)
    union = disjoint_union(literal, wrapped)
    rel = _strong_fixpoint(union).rel
    for s in literal.states:
        i = lts.index[s.inner]
        x = pf.trig if s.triggered else pf.env_mask(s.mode)
        keyed = wrapped.states[closure.index(x, i)]
        assert rel[union.index[0, s]] >> union.index[1, keyed] & 1
    branch = _branching_fixpoint(closure).rel
    rows = _projection(pf, closure, branch).rows
    assert rows == _generalized_fixpoint(pf, record=False).rows


def test_k_action_pair_is_decided_within_the_default_budget(monkeypatch):
    """The 10-action pair, whose literal closure has 23575 wrappers, is
    decided under default options: its keyed closure has at most 2112,
    and the certificate, which judges off-diagonal entries alone, at most
    2200 rows.  Its time-outs read every column, so the check's closure
    is the one over every column, with exactly 2112 wrappers and 2050
    judged rows, and reading the witness builds no second closure."""
    judged, closures = [], []
    scan, build = equiv._round, equiv.Closure

    def counted(pf, rows, live, *args):
        judged.append(len(live))
        return scan(pf, rows, live, *args)

    def kept(*args, **kwargs):
        closures.append(build(*args, **kwargs))
        return closures[-1]

    monkeypatch.setattr(equiv, "_round", counted)
    monkeypatch.setattr(equiv, "Closure", kept)
    v = brb(*action_pair(10))
    assert v
    enc, = closures
    assert enc.n_states <= 2112
    assert judged[-1] <= 2200
    assert enc.columns is None
    assert (enc.n_states, judged[-1]) == (2112, 2050)
    assert v.witness.size > 0 and len(closures) == 1


@given(raw_systems())
def test_closure_over_the_columns_a_question_reads_on_drawn_systems(lts):
    """Every state a root: for every column ``x`` the closure that settles
    only into the columns ``R`` that the question ``(trig, x)`` reads
    relates the wrappers of ``i`` and ``j`` in a column ``y`` of ``R``
    exactly when the complete direct table relates ``(i, y, j)``; its
    projection holds those rows, and the columns outside ``R`` pending."""
    lts = Lts(lts.states, lts.transitions(), lts.states)
    universe = envset(lab for lab in lts.labels if lab not in ("tau", "t"))
    pf = _Profile(lts, universe)
    whole = _generalized_fixpoint(pf, record=False).rows
    every = set(range(pf.trig + 1))
    for x in every:
        cols = pf.reads((pf.trig, x))
        closure = encoding.Closure(pf, columns=cols)
        rel = _branching_fixpoint(closure).rel
        for y in cols:
            wraps = [closure.index(y, i) for i in range(pf.n)]
            for i, a in enumerate(wraps):
                for j, b in enumerate(wraps):
                    assert rel[a] >> b & 1 == whole[i][y] >> j & 1
        proj = _projection(pf, closure, rel)
        assert proj.pending == every - set(cols)
        assert all(proj.rows[i][y] == whole[i][y]
                   for i in range(pf.n) for y in cols)


def test_chain_pair_closure_settles_nowhere(monkeypatch):
    """The 400-link chain pair has no time-out, so its question reads the
    pair column alone: ``brb`` builds at most one wrapper per explored
    state, all of them triggered, and no settling step."""
    closures = []
    build = equiv.Closure

    def kept(*args, **kwargs):
        closures.append(build(*args, **kwargs))
        return closures[-1]

    monkeypatch.setattr(equiv, "Closure", kept)
    p, q = chain_pair(400)
    v = brb(p, q)
    assert not v
    enc, = closures
    assert enc.n_states <= v.lts.n_states
    assert all(y == enc.trig for _, y in enc.wrappings())
    assert not any(lab.startswith("eps_") for lab in enc.labels)


def test_a_pending_column_is_refused():
    """An analysis whose question is the pair column holds no answer in
    ``{b}``: asking its table there raises, as does the direct check in
    that column, where a fresh check answers ``b.a.0`` against ``b.c.0``
    in ``{b}`` as inequivalent."""
    p, q = parse_term("b.a.0"), parse_term("b.c.0")
    trig = encoding.env_columns(process_universe(p, q))[2]
    an = Analysis(p, q, DIRECT, (trig,))
    x = an.profile.env_mask(("b",))
    assert x in an.gen.pending
    with pytest.raises(TxbisimError, match="pending"):
        an.gen.has(an.ip, x, an.iq)
    with pytest.raises(TxbisimError, match="pending"):
        an.gen.stamp(an.ip, x, an.iq)
    with pytest.raises(TxbisimError, match="pending"):
        equiv._direct_check(an, x, False)
    env = envset(("b",))
    for method in ("direct", "encode", "both"):
        assert not brb_x(p, q, env, CheckOptions(method=method))


@pytest.mark.parametrize("method", ["both", "encode"])
def test_state_budget_bounds_the_question_then_the_witness(method):
    """``a.a.0`` against ``a.tau.a.0`` has no time-out: its question's
    closure holds the 5 triggered wrappers, its every-column closure 14.
    Under a budget between them the check answers, and reading the
    witness, which is projected from the every-column closure, raises."""
    p, q = parse_term("a.a.0"), parse_term("a.tau.a.0")
    an = Analysis(p, q)
    trig = an.profile.trig
    asked = Analysis(p, q, None, (trig,)).encoded.n_states
    budget = 8
    assert asked < budget < an.encoded.n_states
    v = brb(p, q, CheckOptions(method=method, max_states=budget))
    assert v.equivalent
    with pytest.raises(StateBudgetError):
        v.witness


def test_both_certifies_the_witness_over_every_column(monkeypatch):
    """Under ``both`` the check certifies the projection over the columns
    its question reads; the witness, projected from the every-column
    closure when first read, is certified over every column before it is
    handed out, and a failed certificate raises there."""
    calls = []
    holds = equiv._clauses_hold

    def counted(pf, rows, memo, off_diagonal=False, cols=None):
        calls.append(cols)
        return holds(pf, rows, memo, off_diagonal, cols)

    monkeypatch.setattr(equiv, "_clauses_hold", counted)
    p, q = parse_term("a.a.0"), parse_term("a.tau.a.0")
    v = brb(p, q)
    trig = encoding.env_columns(v.universe)[2]
    assert v and calls == [(trig,)]
    assert v.witness == brb(p, q, CheckOptions(method="encode")).witness
    assert calls == [(trig,), None]
    assert generalized_witness_ok(v.lts, v.universe, v.witness)
    monkeypatch.setattr(
        equiv, "_clauses_hold",
        lambda pf, rows, memo, off_diagonal=False, cols=None: cols is not None,
    )
    v = brb(p, q)
    with pytest.raises(MethodDisagreementError, match="fails the clauses"):
        v.witness


@pytest.mark.parametrize(
    "pair, counts",
    [
        (two_cells(), (61, 142, 5, 3568)),
        (tuple(map(parse_term, ("a.a.a.a.0", "a.a.a.tau.a.0"))), (26, 43, 6, 626)),
    ],
)
def test_encoded_fixpoint_counts_are_pinned(pair, counts):
    """Wrappers, transitions, rounds and separated ordered pairs of the
    encode route on two inputs, so that a change to the closure or the
    refinement cannot change them unnoticed."""
    an = Analysis(*pair)
    res = an.enc_branch
    enc = an.encoded
    assert (enc.n_states, enc.n_transitions, res.rounds, len(res.records)) == counts


def test_cross_check_builds_no_wrapper(monkeypatch):
    """The encode route reads its closure alone, its reasons included: no
    :class:`~txbisim.encoding.EncState` and no wrapper system is made
    under any method, for positive and negative verdicts alike."""
    made = []
    make_state = encoding.EncState
    from_indexed = encoding.Lts.from_indexed

    def counted_state(*args):
        made.append("EncState")
        return make_state(*args)

    def counted_from_indexed(*args, **kwargs):
        made.append("Lts")
        return from_indexed(*args, **kwargs)

    monkeypatch.setattr(encoding, "EncState", counted_state)
    monkeypatch.setattr(
        encoding, "Lts", SimpleNamespace(from_indexed=counted_from_indexed)
    )
    cases = [
        # related by all four relations
        (parse_term("a.tau.b.0 + t.b.0"), parse_term("a.b.0 + t.b.0")),
        # split, but related while a is allowed
        (parse_term("a.0 + t.b.0"), parse_term("a.0")),
        # related, but not rooted
        (parse_term("a.0"), parse_term("tau.a.0")),
        # split after the first round
        (parse_term("a.a.0"), parse_term("a.b.0")),
    ]
    env = envset(("a",))
    answers = {}
    for method in ("both", "encode", "direct"):
        opts = CheckOptions(method=method)
        for p, q in cases:
            got = answers.setdefault((p, q), {}).setdefault(method, [])
            for check in (brb, rbrb, brb_x, rbrb_x):
                args = (p, q) if check in (brb, rbrb) else (p, q, env)
                v = check(*args, opts)
                assert (v.witness is None) == (v.reason is not None)
                assert made == []
                got.append(v.equivalent)
    assert all(
        got["both"] == got["encode"] == got["direct"] for got in answers.values()
    )
    assert [got["both"] for got in answers.values()] == [
        [True] * 4, [False, False, True, True], [True, False, True, False],
        [False] * 4,
    ]


def _hand_built_systems():
    chain = [(i, "a", i + 1) for i in range(20)]
    padded = [(("d", i), "tau", ("e", i)) for i in range(20)]
    padded += [(("e", i), "a", ("d", i + 1)) for i in range(20)]
    return {
        # a tau cycle with an exit to a stable state, next to a.0 and to a
        # cycle that never stabilises
        "cycle-reaching-stable": Lts(
            range(6),
            [(0, "tau", 1), (1, "tau", 0), (1, "tau", 2), (0, "a", 3),
             (2, "a", 3), (4, "a", 3), (5, "tau", 5), (5, "a", 3)],
            (0, 4, 5),
        ),
        # a tau cycle that never stabilises, next to a one-state cycle and
        # to a stable state with the same moves
        "cycle-never-stable": Lts(
            range(5),
            [(0, "tau", 1), (1, "tau", 0), (0, "a", 2), (1, "b", 2),
             (3, "tau", 3), (3, "a", 2), (3, "b", 2), (4, "a", 2), (4, "b", 2)],
            (0, 3, 4),
        ),
        "a-chain-vs-tau-padded": Lts(
            list(range(21)) + [("d", i) for i in range(21)]
            + [("e", i) for i in range(20)],
            [(p, lab, q) for p, lab, q in chain + padded],
            (0, ("d", 0)),
        ),
    }


@pytest.mark.parametrize("name", sorted(_hand_built_systems()))
def test_branching_rows_equal_reference_on_hand_built_systems(name):
    lts = _hand_built_systems()[name]
    visible = {lab for _, lab, _ in lts.transitions() if lab not in ("tau", "t")}
    assert_rows_match_reference(lts)
    assert_rows_match_reference(encode(lts, envset(visible)))


def test_rooted_branching_equals_reference(small_corpus):
    for p, q, _ in small_corpus:
        lts = explore((p, q))
        res = _branching_fixpoint(lts)
        states = lts.states
        eng = {
            (i, j)
            for i in range(lts.n_states)
            for j in range(lts.n_states)
            if _plain(lts, res, _branching_fail, states[i], states[j], True)
        }
        assert eng == ref_rooted_branching(lts)


def test_strong_rows_equal_reference(small_corpus):
    systems = [explore((p, q)) for p, q, _ in small_corpus]
    for lts in systems + list(_hand_built_systems().values()):
        assert_rows_match_reference(lts, _strong_fixpoint, ref_strong)


# -- the refinement against a round-synchronous reference


def reference_refine(labels, tau, parts, coded, block):
    """The rows and rounds of :func:`equiv._refine` by its literal loop:
    each component's moves and exits are gathered from its members' steps
    once, then every round recomputes every component's signature and
    splits every block, blocks numbered in order of first appearance."""
    comp = [0] * len(coded)
    for c, members in enumerate(parts):
        for i in members:
            comp[i] = c
    moves = [set() for _ in parts]
    exits = [set() for _ in parts]
    for c, members in enumerate(parts):
        for i in members:
            for k, j in coded[i]:
                if k != tau:
                    moves[c].add((k, comp[j]))
                elif comp[j] != c:
                    exits[c].add(comp[j])
    width = len(labels)
    count = len(set(block))
    rounds = 0
    while True:
        rounds += 1
        sigs = []
        ids = {}
        fresh = []
        for c in range(len(block)):
            b = block[c]
            sig = {block[d] * width + k for k, d in moves[c]}
            for d in exits[c]:
                if block[d] == b:
                    sig |= sigs[d]
                else:
                    sig.add(block[d] * width + tau)
            sig = frozenset(sig)
            sigs.append(sig)
            fresh.append(ids.setdefault((b, sig), len(ids)))
        block = fresh
        if len(ids) == count:
            break
        count = len(ids)
    masks = [0] * count
    for i, c in enumerate(comp):
        masks[block[c]] |= 1 << i
    return [masks[block[c]] for c in comp], rounds


def assert_refinements_equal_reference(systems):
    """Each of the three fixpoints on each system (closures take the
    branching one alone) has the reference's rows and rounds; returns, for
    each refinement of at least ``equiv._MARK_FLOOR`` components, the size
    of its largest component."""
    real = equiv._refine
    large = []

    def checked(labels, tau, parts, coded, block):
        res = real(labels, tau, parts, coded, block)
        want = reference_refine(labels, tau, parts, coded, block)
        assert (res.rel, res.rounds) == want
        if len(block) >= equiv._MARK_FLOOR:
            large.append(max(map(len, parts)))
        return res

    with mock.patch.object(equiv, "_refine", checked):
        for system in systems:
            _branching_fixpoint(system)
            if isinstance(system, Lts):
                _strong_fixpoint(system)
    return large


def chain_pair(n):
    """``a.``×n ``a.0`` against ``a.``×(n-1) ``tau.a.0``: one refinement
    round per link."""
    return parse_term("a." * n + "a.0"), parse_term("a." * (n - 1) + "tau.a.0")


def fan_pair(n):
    """``a.b.0 + a.a.b.0 + ...`` up to ``a.``×n ``b.0`` against the same sum
    without its longest summand; breadth-first numbering puts the fan's
    predecessors last."""
    summands = ["a." * i + "b.0" for i in range(1, n + 1)]
    return parse_term(" + ".join(summands)), parse_term(" + ".join(summands[:-1]))


def action_pair(k):
    """``a.t.a.0 + b.t.b.0 + ...`` over ``k`` actions against the same sum
    under one ``tau``: equivalent."""
    names = [chr(ord("a") + i) for i in range(k)]
    body = " + ".join(f"{a}.t.{a}.0" for a in names)
    return parse_term(body), parse_term(f"tau.({body})")


@pytest.mark.parametrize(
    "pair, equivalent",
    [(chain_pair(200), False), (fan_pair(160), False), (action_pair(8), True)],
    ids=["chain200", "fan160", "actions8"],
)
def test_direct_fixpoint_takes_few_passes(pair, equivalent):
    """Successors first, the direct fixpoint ends within three passes on
    the long chain, the wide fan and the large alphabet, where a
    round-synchronous one takes a round per link."""
    an = Analysis(*pair, DIRECT)
    assert an.gen.rounds <= 3
    assert an.gen.has(an.ip, an.profile.trig, an.iq) == equivalent


def test_partition_judges_only_pair_rows_on_the_long_chain(monkeypatch):
    """:func:`brb_partition` reads the pair column alone, and on the
    400-link chain pair, which has no time-out, no pair row's clause reads
    another column: every row the fixpoint judges is a pair row."""
    judged = set()
    scan = equiv._round

    def seen(pf, rows, live, *args):
        judged.update(x == pf.trig for _, x, _, _ in live)
        return scan(pf, rows, live, *args)

    monkeypatch.setattr(equiv, "_round", seen)
    p, q = chain_pair(400)
    lts, part = brb_partition((p, q))
    assert judged == {True}
    assert not part.same(lts.index[p], lts.index[q])


def three_tails(k, pad):
    """Three ``a``-chains of ``k`` links ending in ``0``, ``b.0`` and
    ``c.0``, beside ``pad`` deadlocks.  Each round splits the chains' states
    at the next depth from the block of deeper ones into three; in the
    last round that block holds the three heads alone, and all of them
    leave it, into three groups."""
    edges = []
    for tag, end in (("x", None), ("y", "b"), ("z", "c")):
        edges += [((tag, i), "a", (tag, i + 1)) for i in range(k)]
        if end:
            edges.append(((tag, k), end, "nil"))
    heads = (("x", 0), ("y", 0), ("z", 0))
    states = dict.fromkeys(heads)
    states.update((("d", i), None) for i in range(pad))
    states.update((s, None) for p, _, q in edges for s in (p, q))
    return Lts(list(states), edges, heads)


def inert_step_leaver(k, j, pad):
    """``d`` has a ``b`` move to the head of an ``a``-chain of ``k``
    links, ``c`` a ``b`` move to the chain's state ``j`` links further and
    a tau step to ``d``, and ``g`` both ``b`` moves, beside ``pad``
    deadlocks.  Once those two chain states part, ``c`` and ``g`` leave
    ``d``'s block together; the round after, ``c``'s tau step is no
    longer inert and parts it from ``g``, though no target of ``c``
    changed block in between."""
    edges = [(("s", i), "a", ("s", i + 1)) for i in range(k)]
    edges += [("d", "b", ("s", 0)), ("c", "b", ("s", j)), ("c", "tau", "d"),
              ("g", "b", ("s", 0)), ("g", "b", ("s", j))]
    states = dict.fromkeys(("c", "d", "g"))
    states.update((("p", i), None) for i in range(pad))
    states.update((s, None) for p, _, q in edges for s in (p, q))
    return Lts(list(states), edges, ("c", "d", "g"))


def tau_cycles(k, j, pad):
    """Tau cycles hung on an ``a``-chain of ``k`` links, beside ``pad``
    deadlocks, every state a root.  The three-state cycle ``A`` has an
    ``a`` step inside it, two members with a tau step to ``d`` and ``b``
    moves to the chain's head and its state ``j``; ``e`` has a tau
    self-loop and the same ``b`` moves.  The two-state cycle ``C`` has a
    ``b`` move to state ``j`` and a tau step to ``d``, whose ``b`` move
    reaches the head, beside ``g`` with both ``b`` moves: once the two
    chain states part, ``C`` leaves ``d``'s block with ``g``, and its tau
    step stops being inert.  The cycle ``D`` reaches no stable state."""
    edges = [(("s", i), "a", ("s", i + 1)) for i in range(k)]
    edges += [(("A", 0), "tau", ("A", 1)), (("A", 1), "tau", ("A", 2)),
              (("A", 2), "tau", ("A", 0)), (("A", 0), "a", ("A", 1)),
              (("A", 0), "tau", "d"), (("A", 1), "tau", "d"),
              (("A", 1), "b", ("s", 0)), (("A", 2), "b", ("s", j)),
              ("d", "b", ("s", 0)),
              ("e", "tau", "e"), ("e", "b", ("s", 0)), ("e", "b", ("s", j)),
              (("C", 0), "tau", ("C", 1)), (("C", 1), "tau", ("C", 0)),
              (("C", 0), "b", ("s", j)), (("C", 1), "tau", "d"),
              ("g", "b", ("s", 0)), ("g", "b", ("s", j)),
              (("D", 0), "tau", ("D", 1)), (("D", 1), "tau", ("D", 0)),
              (("D", 0), "a", ("s", 0))]
    states = dict.fromkeys(("p", i) for i in range(pad))
    states.update((s, None) for p, _, q in edges for s in (p, q))
    return Lts(list(states), edges, list(states))


@given(raw_systems())
def test_refinement_equals_reference_on_drawn_systems(lts):
    """Below the component floor every round is a full one, whose blocks
    named by first members give the reference's rows and rounds."""
    universe = envset(lab for lab in lts.labels if lab not in ("tau", "t"))
    closure = encoding.Closure(_Profile(lts, universe))
    assert_refinements_equal_reference([lts, closure])


def test_refinement_equals_reference_with_marked_rounds():
    """Drawn pairs, chain pairs of 20 to 60 links, the three cells,
    systems whose last split empties a block into three groups, systems
    where an inert step stops being inert, and tau cycles on a chain, as
    raw systems and closures: most refine above the component floor, where
    rounds after a small split recompute only what it touches, and some of
    those have a component of several states."""
    rng = random.Random(5)
    cfg = GenConfig(alphabet=("a", "b", "c"), max_depth=4)
    pairs = [chain_pair(n) for n in (20, 33, 47, 60)] + [three_cells()]
    while len(pairs) < 45:
        p, q = rand_term(rng, cfg), rand_term(rng, cfg)
        try:
            explore((p, q), 200)
        except StateBudgetError:
            continue
        pairs.append((p, q))
    systems = [three_tails(k, pad) for k, pad in ((10, 20), (15, 0), (12, 40))]
    systems += [inert_step_leaver(k, 3, 40) for k in (8, 12, 20)]
    for k, j, pad in ((12, 3, 30), (20, 7, 24), (40, 1, 4)):
        lts = tau_cycles(k, j, pad)
        systems += [lts, encoding.Closure(_Profile(lts, ("a", "b")))]
    for p, q in pairs:
        lts = explore((p, q))
        systems += [lts, encoding.Closure(_Profile(lts, process_universe(p, q)))]
    large = assert_refinements_equal_reference(systems)
    assert len(large) >= 30
    assert max(large) >= 2


class CountingSequence(Sequence):
    def __init__(self, items):
        self.items = items
        self.reads = 0

    def __len__(self):
        return len(self.items)

    def __getitem__(self, i):
        self.reads += 1
        return self.items[i]


def test_refinement_reads_each_components_moves_a_few_times():
    """On the 200-link chain pair's closure (203 rounds), the refinement
    reads a state's coded moves a few times per component in all, not once
    per round."""
    an = Analysis(*chain_pair(200))
    real = equiv._refine
    seen = []

    def grab(*args):
        seen.append(args)
        return real(*args)

    with mock.patch.object(equiv, "_refine", grab):
        _branching_fixpoint(an.encoded)
    labels, tau, parts, coded, block = seen[0]
    counting = CountingSequence(coded)
    res = real(labels, tau, parts, counting, block)
    assert res.rounds == 203
    assert res.rel == an.enc_branch.rel
    assert counting.reads <= 8 * len(block)


# -- the two decision methods against each other


def test_methods_agree_pairwise(small_corpus):
    for p, q, _ in small_corpus:
        names = sorted(process_universe(p, q))
        envs = [
            envset(xs)
            for k in range(len(names) + 1)
            for xs in combinations(names, k)
        ]
        checks = [(brb, ()), (rbrb, ())]
        checks += [(check, (x,)) for check in (brb_x, rbrb_x) for x in envs]
        for check, env in checks:
            d = check(p, q, *env, CheckOptions(method="direct"))
            e = check(p, q, *env, CheckOptions(method="encode"))
            b = check(p, q, *env, CheckOptions(method="both"))
            assert d.equivalent == e.equivalent == b.equivalent
            assert b.method == "both"


def test_method_disagreement_is_detectable():
    # a healthy build never raises this; fabricate one via a broken option
    with pytest.raises(TxbisimError):
        CheckOptions(method="telepathy")


def test_both_runs_the_direct_fixpoint_only_for_negative_verdicts(monkeypatch):
    """Under ``method="both"`` a positive verdict is certified on the encode
    route's projection, so the direct fixpoint never runs.  A negative one
    that the first pass of its own kind catches, rooted or not, is decided
    by that pass alone and builds neither the closure nor the fixpoint.
    Any other negative one builds the closure and runs the fixpoint once.
    Every negative verdict reports the direct route's reason, with no
    round."""
    calls = []
    fixpoint = equiv._generalized_fixpoint
    closure = equiv.Closure

    def counted(*args, **kwargs):
        calls.append("fixpoint")
        return fixpoint(*args, **kwargs)

    def counted_closure(*args, **kwargs):
        calls.append("closure")
        return closure(*args, **kwargs)

    monkeypatch.setattr(equiv, "_generalized_fixpoint", counted)
    monkeypatch.setattr(equiv, "Closure", counted_closure)
    both = CheckOptions(method="both")
    env = envset(("b",))
    timed, plain = parse_term("a.0 + t.b.0"), parse_term("a.0")
    positive = (parse_term("a.tau.b.0 + t.b.0"), parse_term("a.b.0 + t.b.0"))
    deep = (parse_term("a.a.0"), parse_term("a.b.0"))
    # check, pair, environment, answer, fixpoints, closures
    cases = [
        (brb, positive, None, True, 0, 1),
        (rbrb, positive, None, True, 0, 1),
        (brb_x, positive, env, True, 0, 1),
        (rbrb_x, positive, env, True, 0, 1),
        (brb, (timed, plain), None, False, 0, 0),
        (brb_x, (timed, plain), env, False, 0, 0),
        (rbrb, (timed, plain), None, False, 0, 0),
        (rbrb_x, (timed, plain), envset(()), False, 0, 0),
        (brb, deep, None, False, 1, 1),
        (rbrb, (plain, parse_term("tau.a.0")), None, False, 0, 0),
        # the rooted first pass misses it: both sides have an ``a`` step
        (rbrb, deep, None, False, 1, 1),
    ]
    for check, pair, x, expect, fixpoints, closures in cases:
        args = pair if x is None else (*pair, x)
        v = check(*args, both)
        assert v.equivalent == expect and v.method == "both"
        assert calls.count("fixpoint") == fixpoints, check.__name__
        assert calls.count("closure") == closures, check.__name__
        if not expect:
            direct = check(*args, DIRECT)
            assert v.reason == direct.reason
            assert "round" not in v.reason
        calls.clear()


def test_rooted_checks_run_one_first_pass(monkeypatch):
    """A rooted check runs its own first pass once under ``direct`` and
    under ``both``, :func:`_rooted_fail` with no table, and never the
    unrooted one, :func:`_first_fail`; it answers as ``encode``."""
    calls = []
    rooted_fail, first_fail = equiv._rooted_fail, equiv._first_fail

    def counted_rooted(pf, rows, *args):
        calls.append("rooted" if rows is None else "rooted on a table")
        return rooted_fail(pf, rows, *args)

    def counted_first(*args):
        calls.append("unrooted")
        return first_fail(*args)

    monkeypatch.setattr(equiv, "_rooted_fail", counted_rooted)
    monkeypatch.setattr(equiv, "_first_fail", counted_first)
    for pair in ((parse_term("a.0 + t.b.0"), parse_term("a.0")),
                 (parse_term("a.tau.b.0"), parse_term("a.b.0"))):
        for opts in (DIRECT, CheckOptions(method="both")):
            d = rbrb(*pair, opts)
            assert calls.count("rooted") == 1, opts.method
            assert "unrooted" not in calls, opts.method
            assert d.equivalent == rbrb(*pair, CheckOptions(method="encode")).equivalent
            calls.clear()


@given(
    st.integers(0, 10**9),
    st.booleans(),
    st.sampled_from(("brb", "rbrb", "brb_x", "rbrb_x")),
    st.sets(st.sampled_from(("a", "b"))),
)
def test_both_verdicts_equal_direct_with_the_encode_witness(seed, rewrite, name, env):
    """On drawn pairs ``method="both"`` answers as the direct route; a
    positive answer carries the encode route's witness, which passes the
    literal witness check."""
    rng = random.Random(seed)
    cfg = GenConfig(alphabet=("a", "b"), max_depth=3)
    if rewrite:
        p, q = equivalent_pair(rng, cfg)
    else:
        p, q = rand_term(rng, cfg), rand_term(rng, cfg)
    try:
        explore((p, q), 30)
    except StateBudgetError:
        assume(False)
    check = getattr(equiv, name)
    args = (p, q) if name in ("brb", "rbrb") else (p, q, envset(env))
    b = check(*args, CheckOptions(method="both"))
    assert b.equivalent == check(*args, DIRECT).equivalent
    if b.equivalent:
        assert b.witness == check(*args, CheckOptions(method="encode")).witness
        assert generalized_witness_ok(b.lts, b.universe, b.witness)


def test_both_refuses_a_projection_that_fails_the_clauses(monkeypatch, stability_defs):
    """An encode route that relates two inequivalent states gives a
    projection that fails the literal pass, and ``both`` raises rather
    than certify it."""
    p, q = stability_defs.defs["P0"], stability_defs.defs["Q0"]
    branching = equiv._branching_fixpoint

    def joined(system):
        res = branching(system)
        i, j = (system.index(system.trig, system.base.index[t]) for t in (p, q))
        block = res.rel[i] | res.rel[j]
        for k in iter_bits(block):
            res.rel[k] = block
        return res

    monkeypatch.setattr(equiv, "_branching_fixpoint", joined)
    an = Analysis(p, q)
    x = an.encoded.trig
    i, j = an.encoded.index(x, an.ip), an.encoded.index(x, an.iq)
    assert an.enc_branch.rel[i] >> j & 1
    with pytest.raises(MethodDisagreementError, match="fails the clauses"):
        brb(p, q, CheckOptions(method="both"))


@pytest.mark.parametrize("check", [brb, rbrb])
def test_both_raises_when_only_the_encoding_separates_the_pair(monkeypatch, check):
    """An equivalent pair past the first pass that a broken encode route
    separates, its partition relating no two wrappers, is checked against
    the direct route, and ``both`` raises rather than report either
    answer."""

    def apart(system):
        rel = [1 << k for k in range(system.n_states)]
        return equiv._PairResult(rel, equiv._Separations(rel), 1)

    monkeypatch.setattr(equiv, "_branching_fixpoint", apart)
    p, q = parse_term("a.tau.b.0 + t.b.0"), parse_term("a.b.0 + t.b.0")
    with pytest.raises(MethodDisagreementError, match="direct says True, encoding"):
        check(p, q, CheckOptions(method="both"))


# -- named examples


def test_stability_trio(stability_defs):
    p0 = stability_defs.defs["P0"]
    q0 = stability_defs.defs["Q0"]
    r0 = stability_defs.defs["R0"]
    assert not brb(p0, q0)
    assert not brb(p0, r0)
    assert brb(q0, r0)
    assert rbrb(q0, r0)


def test_direct_summand_matters(extra_action_defs):
    d = extra_action_defs.defs
    assert not brb(d["WithDirect"], d["WithoutDirect"])
    assert not brb(d["SwitchedWith"], d["SwitchedWithout"])


def test_consecutive_timeouts_do_not_collapse(no_eliding_defs):
    d = no_eliding_defs.defs
    assert not brb(d["Single"], d["Double"])
    assert not brb(d["Single"], d["Separated"])
    assert brb(d["Single"], d["Single"])


def test_shadowed_timeout_law(laws_defs):
    d = laws_defs.defs
    assert rbrb(d["Shadowed"], d["LazyA"])
    assert brb(d["Branching"], d["Grown"])
    assert rbrb(d["Branching"], d["Grown"])


def test_rooting_separates_initial_stutter(laws_defs):
    d = laws_defs.defs
    assert brb(d["DirectA"], d["LazyA"])
    assert not rbrb(d["DirectA"], d["LazyA"])


def test_timeout_prefix_is_not_skippable(laws_defs):
    d = laws_defs.defs
    assert not brb(d["Timer"], parse_term("0"))
    assert not brb(d["TimedB"], parse_term("b.0"))


# -- environment-indexed queries


def test_triple_query_equals_pair_query_after_wrapping(small_corpus):
    for p, q, _ in small_corpus[:12]:
        names = sorted(process_universe(p, q))
        for k in range(len(names) + 1):
            for xs in combinations(names, k):
                x = envset(xs)
                wrapped = bool(
                    brb(mk_theta(x, x, p), mk_theta(x, x, q), DIRECT)
                )
                assert bool(brb_x(p, q, x, DIRECT)) == wrapped


def test_impossible_actions_in_the_environment_are_ignored():
    p, q = parse_term("a.0 + t.b.0"), parse_term("a.0")
    assert bool(brb_x(p, q, envset(("a",)))) == bool(
        brb_x(p, q, envset(("a", "zz")))
    )
    assert not brb_x(p, q, envset(("b",)))
    assert not rbrb_x(p, q, envset(()))
    assert rbrb_x(p, q, envset(("a",)))


# -- verdicts and witnesses


def test_positive_verdict_carries_validating_witness(laws_defs):
    d = laws_defs.defs
    v = brb(d["Shadowed"], d["LazyA"], DIRECT)
    assert v.equivalent
    assert generalized_witness_ok(v.lts, v.universe, v.witness)


@pytest.mark.parametrize("method", ["direct", "both", "encode"])
def test_witness_is_built_when_first_read(monkeypatch, method):
    built = []
    gen_store = equiv._gen_store
    projection = Analysis.encoded_projection

    def counted_gen_store(*args):
        built.append("gen_store")
        return gen_store(*args)

    def counted_projection(an):
        built.append("encoded_projection")
        return projection(an)

    monkeypatch.setattr(equiv, "_gen_store", counted_gen_store)
    monkeypatch.setattr(Analysis, "encoded_projection", counted_projection)
    p, q = parse_term("a.tau.b.0 + t.b.0"), parse_term("a.b.0 + t.b.0")
    opts = CheckOptions(method=method)
    env = envset(("b",))
    for v in (
        brb(p, q, opts),
        rbrb(p, q, opts),
        brb_x(p, q, env, opts),
        rbrb_x(p, q, env, opts),
    ):
        assert v.equivalent
        assert built == []
        witness = v.witness
        assert v.witness is witness
        # the projection's store is built by the table-to-store step the
        # direct route's store uses
        assert built == (
            ["gen_store"] if method == "direct" else ["encoded_projection", "gen_store"]
        )
        assert v.to_json_dict()["witness_size"] == witness.size > 0
        assert generalized_witness_ok(v.lts, v.universe, witness)
        built.clear()


def test_perturbed_witnesses_are_rejected(laws_defs):
    d = laws_defs.defs
    v = brb(d["DirectA"], d["LazyA"], DIRECT)
    assert generalized_witness_ok(v.lts, v.universe, v.witness)
    zero = parse_term("0")
    bigger = RelationStore(
        v.witness.pairs | {(d["DirectA"], zero)}, v.witness.triples
    )
    assert not generalized_witness_ok(v.lts, v.universe, bigger)
    asym = RelationStore(
        v.witness.pairs - {(d["DirectA"], d["LazyA"])}, v.witness.triples
    )
    assert not generalized_witness_ok(v.lts, v.universe, asym)


def test_witness_check_judges_self_entries_literally():
    """The fixpoint never judges a state against itself, the greatest
    relation being reflexive; the witness check must, for an alleged
    relation need not be."""
    lts = Lts(("p", "p2"), [("p", "a", "p2")], ("p",))
    uni = envset(("a",))
    envs = [envset(()), uni]
    store = RelationStore(
        frozenset({("p", "p")}), frozenset(("p", x, "p") for x in envs)
    )
    assert not generalized_witness_ok(lts, uni, store)
    whole = RelationStore(
        store.pairs | {("p2", "p2")},
        store.triples | {("p2", x, "p2") for x in envs},
    )
    assert generalized_witness_ok(lts, uni, whole)


def test_negative_verdict_names_a_clause(stability_defs):
    timed, plain = parse_term("a.0 + t.b.0"), parse_term("a.0")
    # the environment {a} relates the timed pair, {b} splits it
    assert brb_x(timed, plain, envset(("a",)))
    cases = [
        (brb, stability_defs.defs["P0"], stability_defs.defs["Q0"], None),
        (brb_x, timed, plain, envset(("b",))),
        (rbrb, plain, parse_term("tau.a.0"), None),
        (rbrb_x, timed, plain, envset(())),
    ]
    # the right side's only time-out leaves an unstable state, which idles
    # in no environment, so the left side's time-out has no match
    unreached = parse_term("t.0"), parse_term("tau.0 + tau{a}(t.0)")
    cases += [(brb, *unreached, None), (rbrb, *unreached, None)]
    for check, p, q, env in cases:
        reasons = []
        for method in ("direct", "encode", "both"):
            opts = CheckOptions(method=method)
            v = check(p, q, opts) if env is None else check(p, q, env, opts)
            assert not v.equivalent, (check.__name__, method)
            assert v.witness is None
            assert v.reason["clause"] in ("move", "timeout", "stability")
            assert v.reason["side"] in ("left", "right")
            assert "round" not in v.reason
            data = v.to_json_dict()
            assert data["equivalent"] is False
            assert data["removal_trace"] == v.reason
            reasons.append(v.reason)
        assert reasons[0] == reasons[1] == reasons[2], check.__name__
        assert_reason_fails(p, q, env, check in (rbrb, rbrb_x), reasons[0])


def test_first_pass_fails_a_time_out_with_no_idle_match():
    """``t.0`` against ``tau.0 + tau{a}(t.0)``: the right side's time-out
    leaves an unstable state, so the left side's time-out fails against
    the relation that relates everything, and the distinguishing formulas
    say so."""
    p, q = parse_term("t.0"), parse_term("tau.0 + tau{a}(t.0)")
    an = Analysis(p, q)
    pf = an.profile
    side, clause = _first_fail(pf, an.ip, pf.trig, an.iq, {})
    assert is_row_clause(pf, an.ip, pf.trig, clause)
    assert (side, clause[0], clause[3]) == (0, "t", ())
    for rooted, cls in ((False, "Lbc"), (True, "Lbcr")):
        phi = distinguish(p, q, rooted)
        assert in_subclass(phi, cls)
        assert satisfies(an.lts, p, phi) and not satisfies(an.lts, q, phi)


@pytest.mark.parametrize("check", [brb, rbrb])
def test_encode_negative_builds_one_closure(monkeypatch, check):
    """A negative ``encode`` verdict past the first pass takes its answer
    and its reason from the pair's own closure, and builds no other."""
    built = []
    init = encoding.Closure.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(encoding.Closure, "__init__", counted)
    p, q = parse_term("a.a.0"), parse_term("a.b.0")
    v = check(p, q, CheckOptions(method="encode"))
    assert not v.equivalent and v.reason == check(p, q, DIRECT).reason
    assert len(built) == 1


def test_reasons_are_pinned_for_each_kind_of_clause():
    """The exact reason, keys in order, of a move, a time-out and a
    stability failure, under every method and for the rooted relation, and
    the plain relations' reasons on the same systems: to those a time-out
    is a move on ``t``, and strong bisimilarity has no stability clause.
    ``a.b.0 + c.0`` against ``a.c.0`` fails its ``a`` move only against
    the final relation and its ``c`` move already against the full one,
    which every check, rooted or not, judges first."""
    loop = parse_file("spec D { d = tau.d; } def X = <d|D>;").defs["X"]
    move = [("side", "left"), ("clause", "move"), ("label", "a"), ("successor", "0")]
    t_move = [
        ("side", "left"), ("clause", "move"), ("label", "t"), ("successor", "a.0"),
    ]
    timeout = [
        ("side", "left"), ("clause", "timeout"), ("label", "t"),
        ("successor", "a.0"), ("env", []),
    ]
    stability = [("side", "left"), ("clause", "stability")]
    tau_move = [
        ("side", "right"), ("clause", "move"), ("label", "tau"),
        ("successor", term_text(loop)),
    ]
    c_move = [("side", "left"), ("clause", "move"), ("label", "c"), ("successor", "0")]
    cases = [
        ("a.0", "0", {
            "brb": move, "rbrb": move, "strong": move, "sr_branching": move,
            "r_sr_branching": move,
        }),
        ("t.a.0", "0", {
            "brb": timeout, "rbrb": timeout, "strong": t_move, "sr_branching": t_move,
            "r_sr_branching": t_move,
        }),
        ("0", loop, {
            "brb": stability, "rbrb": tau_move, "strong": tau_move,
            "sr_branching": stability, "r_sr_branching": tau_move,
        }),
        ("a.b.0 + c.0", "a.c.0", {
            "brb": c_move, "rbrb": c_move, "strong": c_move, "sr_branching": c_move,
            "r_sr_branching": c_move,
        }),
    ]
    for p, q, want in cases:
        p, q = (parse_term(t) if isinstance(t, str) else t for t in (p, q))
        for check in (brb, rbrb):
            for method in ("direct", "encode", "both"):
                v = check(p, q, CheckOptions(method=method))
                assert list(v.reason.items()) == want[check.__name__], method
        lts = explore((p, q))
        for check in (strong, sr_branching, r_sr_branching):
            assert list(check(lts, p, q).reason.items()) == want[check.__name__]


def assert_reason_fails(p, q, env, rooted, reason):
    """The clause a reason names fails for the queried pair, judged by the
    reference's matching against the reference relation (triggered, or in
    the environment ``env``) with the pair joined.  A rooted reason names a
    first step that no single step of the other side matches into the
    reference relation.  A time-out under the reason's environment is
    matched only by the time-out of a state idle there."""
    lts = explore((p, q))
    uni = process_universe(p, q)
    pairs, trips = ref_reactive(lts, uni)
    x = None if env is None else frozenset(a for a in env if a in uni)
    i, j = lts.index[p], lts.index[q]
    a, b = (i, j) if reason["side"] == "left" else (j, i)

    def rel(s, y, t):
        if not rooted and {s, t} == {a, b} and y == x:
            return True
        return (s, t) in pairs if y is None else (s, y, t) in trips

    reach = [tau_reach(lts, k) for k in range(lts.n_states)]
    if reason["clause"] == "stability":
        assert not rooted and lts.is_stable(a)
        assert not any(lts.is_stable(k) for k in reach[b])
        return
    lab = reason["label"]
    a2 = [k for k, s in enumerate(lts.states) if lts.state_text(s) == reason["successor"]]
    assert len(a2) == 1 and lts.succ_mask(a, lab) >> a2[0] & 1
    # the column of the successor: a time-out's environment, a tau step's
    # own column, a visible step's pair column
    end = frozenset(reason["env"]) if lab == "t" else x if lab == "tau" else None

    def idle(k):
        return lts.is_stable(k) and not set(lts.out_labels(k)) & end

    if rooted:
        succ = lts.succ_mask(b, lab) if lab != "t" or idle(b) else 0
        assert not any(rel(a2[0], end, b2) for b2 in iter_bits(succ))
        return
    assert not _match(
        lts, reach, b, lab,
        mid_ok=idle if lab == "t" else lambda q1: rel(a, x, q1),
        end_ok=lambda q2: rel(a2[0], end, q2),
        allow_stay=lab == "tau",
    )


@given(st.integers(0, 10**9), st.booleans())
def test_every_method_gives_the_same_reason(seed, rewrite):
    """On drawn pairs a negative verdict's reason is the same dict under
    ``direct``, ``encode`` and ``both``, for all four relations and every
    environment over the pair's actions, carries no round, and names a
    clause that fails."""
    rng = random.Random(seed)
    cfg = GenConfig(alphabet=("a", "b"), max_depth=3)
    if rewrite:
        p, q = equivalent_pair(rng, cfg)
    else:
        p, q = rand_term(rng, cfg), rand_term(rng, cfg)
    try:
        explore((p, q), 30)
    except StateBudgetError:
        assume(False)
    names = sorted(process_universe(p, q))
    envs = [envset(xs) for k in range(len(names) + 1) for xs in combinations(names, k)]
    checks = [(brb, None), (rbrb, None)]
    checks += [(check, env) for check in (brb_x, rbrb_x) for env in envs]
    for check, env in checks:
        args = (p, q) if env is None else (p, q, env)
        verdicts = [
            check(*args, CheckOptions(method=m)) for m in ("direct", "encode", "both")
        ]
        assert len({v.equivalent for v in verdicts}) == 1
        reason = verdicts[0].reason
        assert all(v.reason == reason for v in verdicts), check.__name__
        if reason is not None:
            assert "round" not in reason
            assert_reason_fails(p, q, env, check in (rbrb, rbrb_x), reason)


def test_strong_negative_verdict_names_a_failing_clause(small_corpus):
    """The named clause fails against the final strong relation with the
    queried pair joined; strong reasons carry no round."""
    negatives = 0
    for p, q, _ in small_corpus:
        lts = explore((p, q))
        v = strong(lts, p, q)
        if v.equivalent:
            continue
        negatives += 1
        assert "round" not in v.reason and v.reason["clause"] == "move"
        i, j = lts.index[p], lts.index[q]
        a, b = (i, j) if v.reason["side"] == "left" else (j, i)
        rel = ref_strong(lts) | {(a, b), (b, a)}
        lab = v.reason["label"]
        a2 = [k for k, s in enumerate(lts.states)
              if lts.state_text(s) == v.reason["successor"]]
        assert len(a2) == 1 and lts.succ_mask(a, lab) >> a2[0] & 1
        assert not any(
            (a2[0], b2) in rel for b2 in iter_bits(lts.succ_mask(b, lab))
        )
    assert negatives


def test_plain_relations_follow_the_one_reason_rule():
    """``strong`` and ``srbb`` scan the relation that relates everything
    first, as ``brb`` does: ``Q`` has no ``c`` at all, while its ``a``
    fails only against the final relation."""
    p, q = parse_term("a.b.0 + c.0"), parse_term("a.c.0")
    lts = explore((p, q))
    want = brb(p, q).reason
    assert (want["side"], want["label"]) == ("left", "c")
    for check in (strong, sr_branching):
        assert check(lts, p, q).reason == want, check.__name__


@pytest.mark.parametrize("kind", ["generalized", "branching", "strong"])
def test_validators_reject_foreign_names_without_raising(kind):
    p = parse_term("a.0 + t.b.0")
    lts, uni = explore(p), process_universe(p)
    check, witness = {
        "generalized": (
            lambda s: generalized_witness_ok(lts, uni, s),
            brb(p, p, DIRECT).witness,
        ),
        "branching": (
            lambda s: branching_witness_ok(lts, s),
            sr_branching(lts, p, p).witness,
        ),
        "strong": (
            lambda s: strong_witness_ok(lts, s),
            strong(lts, p, p).witness,
        ),
    }[kind]
    assert check(witness)
    stray = parse_term("zz.0")
    outside_system = RelationStore(witness.pairs | {(stray, stray)}, witness.triples)
    outside_universe = RelationStore(
        witness.pairs, witness.triples | {(p, envset(("zz",)), p)}
    )
    assert check(outside_system) is False
    assert check(outside_universe) is False
    # malformed entries: a pair of three members, a triple of one, and
    # triples whose environment is no tuple of names
    malformed = [
        RelationStore(witness.pairs | {(p, p, p)}, witness.triples),
        RelationStore(witness.pairs, witness.triples | {(p,)}),
        RelationStore(witness.pairs, witness.triples | {(p, 5, p)}),
        RelationStore(witness.pairs, witness.triples | {(p, "a", p)}),
    ]
    for store in malformed:
        assert check(store) is False


def test_branching_and_strong_witnesses(small_corpus):
    for p, q, _ in small_corpus[:10]:
        lts = explore((p, q))
        v = sr_branching(lts, p, q)
        if v.equivalent:
            assert branching_witness_ok(lts, v.witness)
        s = strong(lts, p, q)
        if s.equivalent:
            assert strong_witness_ok(lts, s.witness)
            # a strong witness is in particular a branching one
            assert branching_witness_ok(lts, s.witness)


# -- implication chain


def test_strong_implies_rooted_implies_plain(small_corpus):
    for p, q, _ in small_corpus:
        lts = explore((p, q))
        if strong(lts, p, q):
            assert rbrb(p, q, DIRECT)
        if rbrb(p, q, DIRECT):
            assert brb(p, q, DIRECT)


# -- state-level API and partitions


def test_partition_blocks_match_pairwise_checks():
    roots = (parse_term("tau.a.0 + t.b.0"), parse_term("tau.a.0"))
    lts, part = brb_partition(roots)
    uni = process_universe(*roots)
    _, _, pairs, _ = engine_rows(lts, uni)
    for i in range(lts.n_states):
        for j in range(lts.n_states):
            assert part.same(i, j) == ((i, j) in pairs)


def test_partition_blocks_equal_reference_pairs(small_corpus):
    """The unrecorded fixpoint behind ``brb_partition`` gives the reference
    pair relation as its blocks."""
    for p, q in [(p, q) for p, q, _ in small_corpus] + [two_cells()]:
        lts, part = brb_partition((p, q))
        ora_pairs, _ = ref_reactive(lts, process_universe(p, q))
        n = lts.n_states
        same = {(i, j) for i in range(n) for j in range(n) if part.same(i, j)}
        assert same == ora_pairs, term_text(p) + " vs " + term_text(q)


def test_quotient_root_is_equivalent_to_original():
    term = parse_term("a.(tau.b.0 + b.0) + tau.a.b.0")
    lts, part = brb_partition(term)
    small = quotient(lts, part)
    assert small.n_states < lts.n_states
    u = disjoint_union(lts, small)
    assert brb_states(u, (0, term), (1, small.roots[0]),
                      universe=process_universe(term))
    # rooted equivalence is not preserved: collapsing an initial internal
    # stutter into the root block changes the first-step behaviour
    assert not brb_states(u, (0, term), (1, small.roots[0]),
                          universe=process_universe(term), rooted=True)


def test_brb_states_defaults_universe_to_visible_labels():
    lts = explore((parse_term("a.0"), parse_term("tau.a.0")))
    assert brb_states(lts, parse_term("a.0"), parse_term("tau.a.0"))
    assert not brb_states(
        lts, parse_term("a.0"), parse_term("tau.a.0"), rooted=True
    )


@pytest.mark.parametrize("rooted", [False, True])
def test_brb_states_runs_the_fixpoint_only_past_the_first_pass(monkeypatch, rooted):
    """:func:`brb_states` takes the first pass of its kind before any
    fixpoint and names the reason the term-level check names; a pair that
    pass misses runs the fixpoint once, and a positive verdict's witness
    holds the complete table."""
    runs = []
    fixpoint = equiv._generalized_fixpoint

    def counted(*args, **kwargs):
        runs.append(fixpoint(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(equiv, "_generalized_fixpoint", counted)
    check = rbrb if rooted else brb
    for pair, fixpoints in [(("a.0", "b.0"), 0), (("a.a.0", "a.b.0"), 1)]:
        p, q = map(parse_term, pair)
        v = brb_states(explore((p, q)), p, q, rooted=rooted)
        assert len(runs) == fixpoints
        assert not v and v.reason == check(p, q, DIRECT).reason
        runs.clear()
    p, q = parse_term("a.0"), parse_term("tau.a.0")
    lts = explore((p, q))
    v = brb_states(lts, p, q)
    assert v and len(runs) == 1 and runs[0].pending
    pf = _Profile(lts, process_universe(p, q))
    assert v.witness == equiv._gen_store(pf, fixpoint(pf))
    assert not runs[0].pending


def test_brb_states_witness_holds_environment_sets():
    p = parse_term("a.0 + b.0")
    v = brb_states(explore(p), p, p, universe={"b", "a"})
    assert v.universe == ("a", "b")
    assert {x for _, x, _ in v.witness.triples} == {(), ("a",), ("b",), ("a", "b")}


@pytest.mark.parametrize(
    "check",
    [
        brb_states,
        strong,
        sr_branching,
        r_sr_branching,
        lambda lts, s, t: satisfies(lts, t, Top()),
    ],
    ids=["brb_states", "strong", "sr_branching", "r_sr_branching", "satisfies"],
)
def test_state_checks_refuse_a_state_outside_the_system(check):
    lts = explore((parse_term("a.0"), parse_term("b.0")))
    with pytest.raises(TxbisimError, match=r"<c\.0> is not a state"):
        check(lts, parse_term("a.0"), parse_term("c.0"))


# -- universe handling


def test_process_universe_is_the_joint_alphabet():
    p = parse_term("a.0 ||{a} ren{b->c}(b.0)")
    q = parse_term("d.0")
    assert set(process_universe(p, q)) == {"a", "b", "c", "d"}
    # the fixed ceiling: MAX_UNIVERSE actions form a universe, one more does not
    wide = [parse_term(f"x{k}.0") for k in range(MAX_UNIVERSE + 1)]
    assert len(process_universe(*wide[:MAX_UNIVERSE])) == MAX_UNIVERSE
    with pytest.raises(AlphabetLimitError, match=f"at most {MAX_UNIVERSE} actions"):
        process_universe(*wide)


def test_a_universe_missing_a_label_is_refused_by_name():
    """One check, the profile's, refuses a universe that misses a visible
    label of the system, and names every missing label, wherever the
    universe is given."""
    lts = explore(parse_term("a.b.0 + c.0"))
    root = lts.roots[0]
    empty = RelationStore(frozenset(), frozenset())
    for refuse in (
        lambda: _Profile(lts, ("a",)),
        lambda: encode(lts, ("a",)),
        lambda: brb_states(lts, root, root, universe=("a",)),
        lambda: generalized_witness_ok(lts, ("a",), empty),
    ):
        with pytest.raises(AlphabetLimitError) as exc:
            refuse()
        assert str(exc.value).endswith("missing: b, c")


def test_raw_systems_refuse_a_universe_above_the_ceiling():
    # one step per label, so the default universe has MAX_UNIVERSE + 1 actions
    labels = [f"x{k}" for k in range(MAX_UNIVERSE + 1)]
    fan = [(0, lab, k + 1) for k, lab in enumerate(labels)]
    lts = Lts(range(len(labels) + 1), fan, (0,))
    with pytest.raises(AlphabetLimitError, match=f"at most {MAX_UNIVERSE} actions"):
        brb_states(lts, 0, 1)


def test_check_options_validate_method():
    with pytest.raises(TxbisimError):
        CheckOptions(method="quantum")
