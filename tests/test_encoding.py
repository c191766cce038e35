"""Most-general-environment closure: frozen shapes and structural checks."""

import pytest

from txbisim import AlphabetLimitError, StateBudgetError
from txbisim.encoding import EncState, encode, eps_label
from txbisim.semantics import explore
from txbisim.terms import envset, parse_term

from oracles import ref_branching


def enc(source, names, **kw):
    term = parse_term(source)
    return term, encode(explore(term), envset(names), **kw)


def edge_set(lts):
    return {(lts.state_text(s), lab, lts.state_text(d)) for s, lab, d in lts.transitions()}


# -- frozen small systems


def test_deadlock_over_one_action():
    _, e = enc("0", ("a",))
    assert e.n_states == 3
    assert e.n_transitions == 4
    assert edge_set(e) == {
        ("0", "eps_{}", "[{}] 0"),
        ("0", "eps_{a}", "[{a}] 0"),
        ("[{}] 0", "t_eps", "0"),
        ("[{a}] 0", "t_eps", "0"),
    }


def test_single_action_over_itself():
    _, e = enc("a.0", ("a",))
    assert e.n_states == 6
    assert e.n_transitions == 9
    edges = edge_set(e)
    # settling, firing while allowed, idling while not
    assert ("a.0", "eps_{a}", "[{a}] a.0") in edges
    assert ("[{a}] a.0", "a", "0") in edges
    assert ("[{}] a.0", "t_eps", "a.0") in edges
    assert ("[{a}] a.0", "t_eps", "a.0") not in edges


def test_timeout_needs_quiet_environment():
    _, e = enc("a.0 + t.b.0", ("a", "b"))
    edges = edge_set(e)
    # while a is allowed the time-out branch is frozen
    assert not any(lab == "t" and src.startswith("[{a") for src, lab, _ in edges)
    assert ("[{b}] a.0 + t.b.0", "t", "[{b}] b.0") in edges
    assert ("[{}] a.0 + t.b.0", "t", "[{}] b.0") in edges
    # a time-out does not reset the environment
    assert ("[{b}] b.0", "b", "0") in edges


def test_tau_steps_stay_in_mode_and_suppress_idling():
    _, e = enc("tau.a.0", ("a",))
    edges = edge_set(e)
    assert ("[{}] tau.a.0", "tau", "[{}] a.0") in edges
    assert not any(lab == "t_eps" and src == "[{}] tau.a.0" for src, lab, _ in edges)


def test_triggered_mode_drops_timeouts_and_keeps_the_rest():
    _, e = enc("a.0 + tau.b.0 + t.c.0", ("a", "b", "c"))
    root = e.roots[0]
    trig_moves = {
        (lab, e.state_text(d))
        for s, lab, d in e.transitions()
        if s == root and not lab.startswith("eps_")
    }
    assert trig_moves == {("a", "0"), ("tau", "b.0")}


def test_roots_are_triggered_wrappings():
    term, e = enc("a.0", ("a",))
    assert e.roots == (EncState(None, term),)


# -- eps label spelling


def test_eps_labels():
    assert eps_label(()) == "eps_{}"
    assert eps_label(("a", "b")) == "eps_{a,b}"


# -- guard rails


def test_universe_must_cover_visible_labels():
    with pytest.raises(AlphabetLimitError) as exc:
        enc("a.b.0", ("a",))
    assert "b" in str(exc.value)


def test_universe_size_is_capped():
    lts = explore(parse_term("0"))
    wide = envset(f"x{i}" for i in range(13))
    with pytest.raises(AlphabetLimitError):
        encode(lts, wide)


def test_budget_applies_to_wrapped_states():
    with pytest.raises(StateBudgetError):
        enc("a.b.0", ("a", "b"), max_states=5)


# -- the closure is an ordinary system


def test_encoded_system_supports_plain_analyses():
    _, e = enc("tau.a.0 + t.b.0", ("a", "b"))
    rel = ref_branching(e)
    root = e.index[e.roots[0]]
    assert (root, root) in rel
    assert not e.divergent
