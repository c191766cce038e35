"""Modal layer: formula syntax, satisfaction, sublogics, synthesis."""

import random
import sys

import pytest
from hypothesis import given, strategies as st
from oracles import all_env_sets, ref_satisfies
from test_equiv import raw_systems

from txbisim import GenConfig, ParseError, TxbisimError, rand_formula, rand_term
from txbisim import equiv, modal
from txbisim.equiv import CheckOptions, brb, process_universe, rbrb
from txbisim.modal import (
    TOP,
    And,
    Diamond,
    EnvDiamond,
    Eps,
    HatDiamond,
    Not,
    conjunction,
    distinguish,
    formula_text,
    in_subclass,
    parse_formula,
    satisfies,
)
from txbisim.semantics import deadend, explore
from txbisim.terms import MAX_NESTING, envset, parse_term


def sat(source, phi, mode=None):
    term = parse_term(source)
    formula = parse_formula(phi) if isinstance(phi, str) else phi
    return satisfies(explore(term), term, formula, mode=mode)


# -- syntax


@pytest.mark.parametrize(
    "text",
    [
        "T",
        "<a>T",
        "<tau>~T",
        "<^a>T & <^tau>T",
        "<{a,b}><b>T",
        "<{}>T",
        "<eps>(<a>T & ~<b>T)",
        "~(<a>T & <b>T)",
        "<eps><{}><eps>~<tau>T",
    ],
)
def test_formula_round_trip(text):
    phi = parse_formula(text)
    assert parse_formula(formula_text(phi)) == phi


def test_time_out_labels_are_not_modalities():
    for bad in ("<t>T", "<t_eps>T", "<eps_x>T", "<A>T", "<^A>T", "<theta>T"):
        with pytest.raises(ParseError):
            parse_formula(bad)
    with pytest.raises(TxbisimError):
        Diamond("t", TOP)
    with pytest.raises(TxbisimError):
        HatDiamond("t_eps", TOP)
    with pytest.raises(TxbisimError):
        Diamond("Foo", TOP)


def test_conjunction_normalises():
    assert conjunction([]) is TOP
    assert conjunction([TOP]) is TOP
    assert conjunction([TOP, TOP]) is TOP
    two = conjunction([Diamond("a", TOP), TOP])
    assert isinstance(two, And) and len(two.children) == 2
    with pytest.raises(TxbisimError):
        And((TOP,))


@pytest.mark.parametrize(
    "opener,closer",
    [("<a>", ""), ("~", ""), ("<eps>", ""), ("<^tau>", ""), ("<{a}>", ""),
     ("(", ")"), ("(T & ", ")"), ("~(", ")")],
)
def test_formula_nesting_is_bounded_by_a_parse_error(opener, closer):
    # ``~(`` nests two levels per copy
    per_copy = 2 if opener == "~(" else 1

    def nested(depth):
        copies = depth // per_copy
        return opener * copies + "<a>" * (depth % per_copy) + "T" + closer * copies

    phi = parse_formula(nested(MAX_NESTING))
    assert parse_formula(formula_text(phi)) == phi
    assert in_subclass(phi, "Lbc") in (True, False)
    assert in_subclass(phi, "Lbcr") in (True, False)
    p = parse_term("a.0")
    assert satisfies(explore(p), p, phi) in (True, False)
    assert satisfies(explore(p), p, phi, mode=()) in (True, False)
    with pytest.raises(ParseError) as exc:
        parse_formula(nested(MAX_NESTING + 1))
    assert str(MAX_NESTING) in str(exc.value)
    # raised at the operator one level too deep
    assert (exc.value.line, exc.value.col) == (1, MAX_NESTING * len(opener) // per_copy + 1)


def test_parse_rejects_garbage():
    for bad in ("", "<", "T T", "& T", "<a>"):
        with pytest.raises(ParseError):
            parse_formula(bad)


@pytest.mark.parametrize(
    "text, message, col",
    [
        ("<<", "cannot read formula at '<<'", 1),
        ("(T", "expected ')', found end of input", 3),
        ("<a>", "expected a formula, found end of input", 4),
        ("T T", "expected end of input, found 'T'", 3),
        ("<{a}T", "cannot read formula at '<{a}T'", 1),
        ("~", "expected a formula, found end of input", 2),
    ],
)
def test_formula_parse_errors_name_their_place(text, message, col):
    with pytest.raises(ParseError) as exc:
        parse_formula(text)
    assert str(exc.value) == f"{message} (line 1, column {col})"
    assert (exc.value.line, exc.value.col) == (1, col)


# -- satisfaction, triggered scenario


def test_diamond_and_eps():
    assert sat("a.0", "<a>T")
    assert not sat("a.0", "<b>T")
    assert sat("tau.a.0", "<tau><a>T")
    assert not sat("a.0", "<tau>T")
    assert sat("tau.a.0", "<eps><a>T")
    assert sat("a.0", "<eps><a>T")
    assert not sat("tau.tau.0", "<eps><a>T")


def test_hat_diamond_may_stay_for_tau():
    assert sat("a.0", "<^tau><a>T")
    assert sat("tau.a.0", "<^tau><a>T")
    assert not sat("0", "<^tau><a>T")
    # for visible labels the hat changes nothing
    assert sat("a.0", "<^a>T") == sat("a.0", "<a>T")


def test_hat_diamonds_on_different_labels_are_evaluated_apart():
    # two visible hat diamonds in one formula once shared a memo entry
    p = parse_term("a.0")
    phi = And((HatDiamond("a", TOP), HatDiamond("b", TOP)))
    assert satisfies(explore((p,)), p, phi) is False


def test_env_diamond_consumes_the_time_out():
    assert sat("t.b.0", "<{}><b>T")
    assert sat("t.b.0", "<{}>T")
    assert not sat("b.0", "<{}>T")
    # an enabled visible action keeps the environment from timing out
    assert not sat("a.0 + t.b.0", "<{a}>T")
    assert sat("a.0 + t.b.0", "<{b}><b>T")
    assert sat("a.0 + t.b.0", "<{}><b>T")
    # an internal step also blocks idling
    assert not sat("tau.0 + t.b.0", "<{}>T")


def test_stability_observation():
    stable = "<eps>~<tau>T"
    assert sat("a.0", stable)
    assert sat("tau.a.0", stable)


# -- satisfaction under an environment


def test_visible_steps_need_permission_or_idleness():
    # allowed: fires directly
    assert sat("b.0", "<b>T", mode=("b",))
    # not allowed, but the system idles, so the environment can shift
    assert sat("b.0", "<b>T", mode=("a",))
    # not allowed and a is on offer: no idling, no shift, no b
    assert not sat("b.0 + a.0", "<b>T", mode=("a",))
    assert sat("b.0 + a.0", "<b>T", mode=("a", "b"))


def test_tau_steps_ignore_the_environment():
    assert sat("tau.0", "<tau>T", mode=())
    assert sat("tau.0", "<tau>T", mode=("a",))


def test_firing_a_visible_action_triggers_the_environment():
    # after b fires under mode {b}, the successor is evaluated triggered:
    # c is not in the mode yet it may fire
    assert sat("b.c.0", "<b><c>T", mode=("b",))
    # even where the mode would keep c from firing: b, which it allows, is
    # on offer beside c
    assert sat("b.(c.0 + b.0)", "<b><c>T", mode=("b",))


def test_env_diamond_joins_the_ambient_mode():
    # under mode {a} the process a.0 + t.b.0 cannot idle, even though
    # the asserted set {b} alone would let it
    assert not sat("a.0 + t.b.0", "<{b}>T", mode=("a",))
    assert sat("a.0 + t.b.0", "<{b}><b>T", mode=("b",))


@given(st.integers(0, 10**9))
def test_idle_states_forget_the_environment(seed):
    """On a state that is silent under the mode, the mode cannot matter."""
    rng = random.Random(seed)
    cfg = GenConfig(alphabet=("a", "b"), max_depth=3)
    term = rand_term(rng, cfg)
    mode = envset(a for a in cfg.alphabet if rng.random() < 0.5)
    try:
        lts = explore(term, 200)
    except TxbisimError:
        return
    phi = rand_formula(rng, cfg.alphabet, depth=3, cls="Lbc")
    for state in lts.states:
        if deadend(state, mode):
            assert satisfies(lts, state, phi, mode=mode) == satisfies(
                lts, state, phi
            )


@given(raw_systems(), st.integers(0, 10**9))
def test_satisfaction_equals_the_per_state_reference_on_drawn_systems(
    lts, seed
):
    """The set-at-a-time sweep answers as the per-state evaluator it
    replaced, :func:`oracles.ref_satisfies`, at every state, triggered and
    under every subset of the alphabet, on raw systems with time-outs and
    tau self-loops, for drawn formulas of both sublogics."""
    rng = random.Random(seed)
    for cls in ("Lbc", "Lbcr") * 4:
        phi = rand_formula(rng, ("a", "b"), depth=3, cls=cls)
        for mode in (None, *all_env_sets(("a", "b"))):
            for state in lts.states:
                assert satisfies(lts, state, phi, mode) == ref_satisfies(
                    lts, state, phi, mode
                )


def chain_formula(links):
    """``<eps>(T & <^a>`` nested ``links`` times around ``T``: three nodes
    a link, in Lbc."""
    phi = TOP
    for _ in range(links):
        phi = Eps(And((TOP, HatDiamond("a", phi))))
    return phi


def test_deep_formulas_take_no_stack_frame_per_node():
    """Satisfaction, sublogic membership and the text walk a formula
    without recursion, so one nested past the interpreter's recursion
    limit is answered."""
    links = sys.getrecursionlimit()
    phi = chain_formula(links)
    p = parse_term("a." * links + "0")
    lts = explore(p)
    longer = Eps(And((TOP, HatDiamond("a", phi))))
    assert satisfies(lts, p, phi) and not satisfies(lts, p, longer)
    assert in_subclass(phi, "Lbc") and not in_subclass(phi, "Lbcr")
    assert formula_text(phi) == "<eps>(T & <^a>" * links + "T" + ")" * links


# -- sublogics


@pytest.mark.parametrize(
    "text,lbc,lbcr",
    [
        ("T", True, True),
        ("~T", True, True),
        ("<eps>~<tau>T", True, False),
        ("<eps>(T & <^a>T)", True, False),
        ("<eps><{a}>T", True, False),
        ("<a>T", False, True),
        ("<{a}>T", False, True),
        ("<a><eps>(T & <^b>T)", False, True),
        ("<eps><a>T", False, False),
        ("<tau>T", False, True),
    ],
)
def test_sublogic_membership(text, lbc, lbcr):
    phi = parse_formula(text)
    assert in_subclass(phi, "Lbc") == lbc
    assert in_subclass(phi, "Lbcr") == lbcr
    with pytest.raises(TxbisimError):
        in_subclass(phi, "L")


# -- distinguishing formulas


def test_distinguish_returns_none_on_equivalent_terms(laws_defs):
    d = laws_defs.defs
    assert distinguish(d["DirectA"], d["LazyA"]) is None
    assert distinguish(d["Branching"], d["Grown"], rooted=True) is None


def test_distinguish_stability_trio(stability_defs):
    p0, q0 = stability_defs.defs["P0"], stability_defs.defs["Q0"]
    phi = distinguish(p0, q0)
    assert formula_text(phi) == "<eps><{}><eps>~<tau>T"
    rooted = distinguish(p0, q0, rooted=True)
    assert formula_text(rooted) == "<{}><eps>~<tau>T"


def test_distinguish_separates_a_pair_with_visible_hat_diamonds():
    p = parse_term("tau{a}(0) ||{b} theta{a,b;a,b}(0) + tau.b.a.0")
    q = parse_term("tau.tau.b.b.0")
    phi = distinguish(p, q)
    assert phi is not None and in_subclass(phi, "Lbc")
    lts = explore((p, q))
    assert satisfies(lts, p, phi) and not satisfies(lts, q, phi)


def test_distinguish_rooted_only_difference(laws_defs):
    d = laws_defs.defs
    phi = distinguish(d["DirectA"], d["LazyA"], rooted=True)
    assert phi is not None
    assert in_subclass(phi, "Lbcr")


def distinguish_counting_fixpoints(monkeypatch, pair, rooted):
    """``distinguish`` on the pair of texts, with the number of direct
    fixpoints it ran."""
    calls = []
    fixpoint = equiv._generalized_fixpoint

    def counted(*args, **kwargs):
        calls.append(args)
        return fixpoint(*args, **kwargs)

    monkeypatch.setattr(equiv, "_generalized_fixpoint", counted)
    p, q = map(parse_term, pair)
    return distinguish(p, q, rooted=rooted), len(calls)


@pytest.mark.parametrize(
    "pair, text, fixpoints",
    [(("a.b.0 + c.0", "a.c.0"), "<c>T", 0), (("a.a.0", "a.b.0"), None, 1)],
)
def test_rooted_distinguish_runs_the_fixpoint_only_past_the_first_pass(
    monkeypatch, pair, text, fixpoints
):
    """A first step that no step of the other side can match refutes no
    successor, so its rooted formula needs no direct fixpoint; ``a.a.0``
    against ``a.b.0`` fails only against the final relation and runs it
    once."""
    phi, ran = distinguish_counting_fixpoints(monkeypatch, pair, True)
    assert phi is not None and ran == fixpoints
    if text is not None:
        assert formula_text(phi) == text


@pytest.mark.parametrize(
    "pair, text, fixpoints",
    [
        (("a.0", "b.0"), "<eps>(T & <^a>T)", 0),
        (("a.b.0 + c.0", "a.c.0"), "<eps>(T & <^c>T)", 0),
        (("a.a.0", "a.b.0"), "<eps>(T & <^a><eps>(T & <^a>T))", 1),
    ],
)
def test_distinguish_runs_the_fixpoint_only_past_the_first_pass(
    monkeypatch, pair, text, fixpoints
):
    """Unrooted, as rooted: a clause that fails against the relation that
    relates everything has no candidate match, so its formula refutes
    nothing and needs no direct fixpoint, and the formula is that clause's
    (the ``c`` move, where the fixpoint's record names the ``a`` move);
    ``a.a.0`` against ``a.b.0`` passes the first pass and runs the
    fixpoint once."""
    phi, ran = distinguish_counting_fixpoints(monkeypatch, pair, False)
    assert ran == fixpoints
    assert formula_text(phi) == text


def test_distinguish_separates_and_stays_in_sublogic(small_corpus):
    opts = CheckOptions(method="direct")
    for p, q, _ in small_corpus:
        for rooted, check, cls in ((False, brb, "Lbc"), (True, rbrb, "Lbcr")):
            phi = distinguish(p, q, rooted=rooted, opts=opts)
            if phi is None:
                assert check(p, q, opts)
                continue
            assert not check(p, q, opts)
            assert in_subclass(phi, cls)
            lts = explore((p, q))
            assert satisfies(lts, p, phi) and not satisfies(lts, q, phi)


def test_distinguish_separates_a_long_chain():
    """A formula three nodes deep per link: checked and returned, where
    the recursive evaluator and text walk once ran out of stack."""
    p = parse_term("a." * 120 + "a.0")
    q = parse_term("a." * 120 + "b.0")
    phi = distinguish(p, q)
    assert phi is not None and in_subclass(phi, "Lbc")
    lts = explore((p, q))
    assert satisfies(lts, p, phi) and not satisfies(lts, q, phi)


def test_a_check_computes_its_universe_once(monkeypatch):
    """``_check`` and ``distinguish`` name their question's columns from
    the universe they hand to the analysis."""
    calls = []
    universe = equiv.process_universe

    def counted(*terms):
        calls.append(terms)
        return universe(*terms)

    monkeypatch.setattr(equiv, "process_universe", counted)
    monkeypatch.setattr(modal, "process_universe", counted)
    p, q = parse_term("a.a.0"), parse_term("a.b.0")
    assert not brb(p, q)
    assert distinguish(p, q) is not None
    assert len(calls) == 2


def test_equivalent_terms_agree_on_random_sublogic_formulas(small_corpus):
    rng = random.Random(5)
    opts = CheckOptions(method="direct")
    for p, q, _ in small_corpus:
        if not brb(p, q, opts):
            continue
        lts = explore((p, q))
        alphabet = tuple(process_universe(p, q)) or ("a",)
        for _ in range(40):
            phi = rand_formula(rng, alphabet, depth=3, cls="Lbc")
            assert satisfies(lts, p, phi) == satisfies(lts, q, phi), formula_text(phi)
