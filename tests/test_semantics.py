"""Operational rules: per-operator transition tables, exploration, budgets."""

import random

import pytest
from hypothesis import given, strategies as st

from txbisim import (
    GenConfig,
    InvalidTermError,
    StateBudgetError,
    UnguardedRecursionError,
    rand_term,
)
from txbisim.semantics import (
    DEFAULT_MAX_STATES,
    deadend,
    derive,
    explore,
    head_normal_form,
    init_set,
    is_stable,
    max_states_budget,
    unfold,
)
from txbisim.terms import envset, parse_file, parse_term, term_text


def moves(source):
    term = parse_term(source) if isinstance(source, str) else term_from(source)
    return sorted((act.name, term_text(target)) for act, target in derive(term))


def term_from(source):
    return source


# -- prefix, choice, nil


def test_nil_and_prefix():
    assert moves("0") == []
    assert moves("a.b.0") == [("a", "b.0")]
    assert moves("tau.0") == [("tau", "0")]
    assert moves("t.a.0") == [("t", "a.0")]


def test_choice_unions_summand_moves():
    assert moves("a.0 + tau.b.0 + t.c.0") == [
        ("a", "0"),
        ("t", "c.0"),
        ("tau", "b.0"),
    ]


# -- parallel composition


def test_par_interleaves_unsynced_actions():
    assert moves("a.0 ||{} b.0") == [
        ("a", "0 ||{} b.0"),
        ("b", "a.0 ||{} 0"),
    ]


def test_par_synchronises_shared_visibles():
    assert moves("a.b.0 ||{a} a.c.0") == [("a", "b.0 ||{a} c.0")]
    # one-sided offers of a synced action are blocked
    assert moves("a.0 ||{a} b.0") == [("b", "a.0 ||{a} 0")]


def test_par_never_synchronises_internal_or_timeout_steps():
    assert moves("tau.0 ||{a} tau.0") == [
        ("tau", "0 ||{a} tau.0"),
        ("tau", "tau.0 ||{a} 0"),
    ]
    assert moves("t.0 ||{a} t.0") == [
        ("t", "0 ||{a} t.0"),
        ("t", "t.0 ||{a} 0"),
    ]


# -- abstraction and renaming


def test_abstract_hides_listed_actions_and_keeps_wrapper():
    assert moves("tau{a}(a.b.0 + b.0 + t.0)") == [
        ("b", "tau{a}(0)"),
        ("t", "tau{a}(0)"),
        ("tau", "tau{a}(b.0)"),
    ]


def test_rename_maps_relational_images_and_blocks_unmapped():
    assert moves("ren{a->b,a->c}(a.0)") == [
        ("b", "ren{a->b,a->c}(0)"),
        ("c", "ren{a->b,a->c}(0)"),
    ]
    assert moves("ren{a->b}(c.0 + tau.0 + t.0)") == [
        ("t", "ren{a->b}(0)"),
        ("tau", "ren{a->b}(0)"),
    ]


# -- environment operators


def test_theta_keeps_wrapper_on_internal_steps_only():
    assert moves("theta{a;a,b}(tau.a.0 + b.c.0)") == [
        ("b", "c.0"),
        ("tau", "theta{a;a,b}(a.0)"),
    ]


def test_theta_blocks_low_priority_moves_until_quiet():
    # c is outside the upper set, so it moves only once the body offers
    # nothing from the lower set and no internal step
    assert moves("theta{a;a}(c.0 + a.0)") == [("a", "0")]
    assert moves("theta{a;a}(c.0 + t.b.0)") == [
        ("c", "0"),
        ("t", "b.0"),
    ]


def test_psi_passes_instantaneous_moves_bare():
    assert moves("psi{a}(a.b.0 + tau.c.0)") == [
        ("a", "b.0"),
        ("tau", "c.0"),
    ]


def test_psi_guards_timeouts_by_the_environment():
    # a is allowed, so the time-out branch is pruned
    assert moves("psi{a}(a.0 + t.b.0)") == [("a", "0")]
    # nothing allowed: the time-out fires into a priority wrapper
    assert moves("psi{a}(b.0 + t.b.0)") == [
        ("b", "0"),
        ("t", "theta{a;a}(b.0)"),
    ]


# -- recursion


def test_unfold_substitutes_calls():
    defs = parse_file("spec S { x = a.y; y = b.x; } def P = <x|S>;")
    p = defs.defs["P"]
    assert term_text(unfold(p), defs.spec_names()) == "a.<y|S>"
    ((act, target),) = derive(p)
    assert (act.name, term_text(target, defs.spec_names())) == ("a", "<y|S>")


def test_a_sum_derives_summand_by_summand():
    wide = parse_term(" + ".join(f"a{i}.0" for i in range(1200)))
    assert len(derive(wide)) == 1200
    # the inner sums of the left-nested spine were never derived
    assert wide.left.moves is None


def test_unguarded_recursion_is_reported():
    stuck = parse_file("spec L { x = x; } def Stuck = <x|L>;").defs["Stuck"]
    with pytest.raises(UnguardedRecursionError):
        derive(stuck)
    # the in-progress mark is cleared, so the term is judged afresh
    assert stuck.moves is None
    with pytest.raises(UnguardedRecursionError):
        derive(stuck)


def test_unguarded_through_choice_is_reported():
    defs = parse_file("spec L { x = a.0 + x; } def P = <x|L>;")
    with pytest.raises(UnguardedRecursionError):
        derive(defs.defs["P"])


def test_open_terms_have_no_transitions():
    with pytest.raises(InvalidTermError):
        derive(parse_term("x + a.0", allow_free=True))


# -- init, stability, deadends


def test_init_set_excludes_timeouts():
    assert init_set(parse_term("a.0 + tau.0 + t.b.0")) == {"a", "tau"}
    assert init_set(parse_term("t.b.0")) == frozenset()


def test_stability_and_deadend():
    assert is_stable(parse_term("a.0 + t.b.0"))
    assert not is_stable(parse_term("tau.0"))
    quiet = parse_term("a.0 + t.b.0")
    assert deadend(quiet, envset(("b",)))
    assert not deadend(quiet, envset(("a",)))
    assert not deadend(parse_term("tau.0"), envset(()))


# -- exploration


def test_explore_counts_distinct_states():
    lts = explore(parse_term("a.0 + t.b.0"))
    assert lts.n_states == 3
    assert lts.n_transitions == 3
    assert lts.labels == ("a", "b", "t")


def test_explore_accepts_several_roots():
    p, q = parse_term("a.0"), parse_term("b.a.0")
    lts = explore((p, q))
    assert lts.roots == (p, q)
    assert lts.n_states == 3  # a.0, 0, b.a.0


def test_explore_handles_cycles():
    defs = parse_file("spec S { x = tau.y; y = a.x; } def P = <x|S>;")
    lts = explore(defs.defs["P"])
    assert lts.n_states == 2
    assert lts.divergent is False
    assert sorted(lts.labels) == ["a", "tau"]


def test_explore_budget_raises_with_frontier():
    deep = parse_term("a.b.a.b.a.0")
    with pytest.raises(StateBudgetError) as exc:
        explore(deep, max_states=3)
    assert exc.value.budget == 3
    assert "a.0" in str(exc.value)


def test_budget_resolution_order(monkeypatch):
    monkeypatch.delenv("TXBISIM_MAX_STATES", raising=False)
    assert max_states_budget() == DEFAULT_MAX_STATES
    assert max_states_budget(17) == 17
    monkeypatch.setenv("TXBISIM_MAX_STATES", "42")
    assert max_states_budget() == 42
    assert max_states_budget(17) == 17
    monkeypatch.setenv("TXBISIM_MAX_STATES", "nope")
    with pytest.raises(InvalidTermError):
        max_states_budget()
    monkeypatch.setenv("TXBISIM_MAX_STATES", "0")
    with pytest.raises(InvalidTermError):
        max_states_budget()


def test_env_budget_limits_exploration(monkeypatch):
    monkeypatch.setenv("TXBISIM_MAX_STATES", "2")
    with pytest.raises(StateBudgetError):
        explore(parse_term("a.b.c.0"))


# -- head normal form


@given(st.integers(0, 10**9))
def test_head_normal_form_preserves_transitions(seed):
    t = rand_term(random.Random(seed), GenConfig(max_depth=3))
    hnf = head_normal_form(t)
    assert sorted(
        (a.name, tgt.uid) for a, tgt in derive(hnf)
    ) == sorted((a.name, tgt.uid) for a, tgt in derive(t))
