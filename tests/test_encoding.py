"""Most-general-environment closure: frozen shapes and structural checks."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from txbisim import AlphabetLimitError, StateBudgetError
from txbisim.encoding import Closure, EncState, encode, eps_label
from txbisim.equiv import _branching_fixpoint
from txbisim.lts import Lts, iter_bits
from txbisim.semantics import explore
from txbisim.terms import envset, parse_term

from oracles import ref_branching, ref_encode


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


def test_budget_names_the_first_state_left_out():
    # admitted breadth first, the settlings of a state in subset order:
    # a.b.0, b.0, then the settlings {}, {a} and {a,b}; {b} is the sixth
    with pytest.raises(StateBudgetError) as exc:
        enc("a.b.0", ("a", "b"), max_states=5)
    assert exc.value.frontier == "[{b}] a.b.0"


# -- the index-level construction against a literal one


@st.composite
def timed_systems(draw):
    """A system over tau, a, b and t with a tau cycle, time-outs from
    states that do and do not offer visible actions, and one state reached
    only by a time-out, plus an environment universe covering it."""
    n = draw(st.integers(1, 7))
    state = st.integers(0, n - 1)
    label = st.sampled_from(("tau", "a", "b", "t"))
    edges = draw(st.lists(st.tuples(state, label, state), max_size=3 * n))
    cycle = draw(st.lists(state, max_size=3, unique=True))
    edges += [(i, "tau", j) for i, j in zip(cycle, cycle[1:] + cycle[:1])]
    edges.append((draw(state), "t", draw(state)))
    # state n: entered by a time-out only
    edges.append((draw(state), "t", n))
    exits = draw(st.lists(st.tuples(label, state), max_size=2))
    edges += [(n, lab, j) for lab, j in exits]
    universe = envset(draw(st.sampled_from((("a", "b"), ("a", "b", "c")))))
    return Lts(range(n + 1), edges, (0,)), universe


@given(timed_systems())
def test_encode_equals_literal_closure(drawn):
    base, universe = drawn
    e = encode(base, universe)
    states, edges = ref_encode(base, universe)
    assert set(e.states) == states
    assert set(e.transitions()) == edges


@given(timed_systems())
def test_lifted_tau_structure_equals_recomputed(drawn):
    e = encode(*drawn)
    fresh = Lts(e.states, e.transitions(), e.roots)
    assert set(map(frozenset, e.tau_sccs)) == set(map(frozenset, fresh.tau_sccs))
    assert sum(map(len, e.tau_sccs)) == e.n_states
    assert e.can_reach_stable_mask == fresh.can_reach_stable_mask
    # every component after all components it reaches
    position = {}
    for k, comp in enumerate(e.tau_sccs):
        for i in comp:
            position[i] = k
    for i in range(e.n_states):
        for j in iter_bits(e.succ_mask(i, "tau")):
            assert position[j] <= position[i]


@given(timed_systems())
def test_closure_is_its_wrapper_system_on_indices(drawn):
    """The coded table, the wrapper lookup and the branching fixpoint of
    the closure are those of its wrapper system; wrappers are keyed by
    base state and environment column."""
    base, universe = drawn
    closure = Closure(base, universe)
    e = closure.lts
    assert (closure.n_states, closure.n_transitions) == (e.n_states, e.n_transitions)
    coded = {
        (i, closure.labels[k], j)
        for i, own in enumerate(closure.coded_moves)
        for k, j in own
    }
    assert coded == set(e.trans_idx)
    wraps = closure.wrappings()
    names = tuple(universe)
    for k, s in enumerate(e.states):
        i, x = wraps[k]
        assert i == base.index[s.inner] and closure.index(x, i) == k
        assert (x == closure.trig) == s.triggered
        if not s.triggered:
            assert s.mode == tuple(a for n, a in enumerate(names) if x >> n & 1)
    got, want = _branching_fixpoint(closure), _branching_fixpoint(e)
    assert (got.rel, got.rounds) == (want.rel, want.rounds)


# -- the closure is an ordinary system


def test_encoded_system_supports_plain_analyses():
    _, e = enc("tau.a.0 + t.b.0", ("a", "b"))
    rel = ref_branching(e)
    root = e.index[e.roots[0]]
    assert (root, root) in rel
    assert not e.divergent
