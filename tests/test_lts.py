"""Transition systems: queries, serialisation, unions, quotients."""

import io

import pytest
from hypothesis import given, strategies as st

from txbisim import ParseError, TxbisimError, brb_partition
from txbisim.lts import (
    Lts,
    Partition,
    disjoint_union,
    export_aut,
    import_aut,
    iter_bits,
    parse_aut,
    quotient,
)
from txbisim.semantics import explore
from txbisim.terms import parse_file, parse_term


def ladder():
    """0 -tau-> 1 -a-> 2, 0 -b-> 2."""
    return Lts(range(3), [(0, "tau", 1), (1, "a", 2), (0, "b", 2)], (0,))


# -- construction and queries


def test_duplicate_states_rejected():
    with pytest.raises(TxbisimError):
        Lts([0, 0], [], (0,))
    with pytest.raises(TxbisimError):
        Lts([0], [], (1,))


@pytest.mark.parametrize(
    "edge, named",
    [((0, "a", 1), "state 1"), ((2, "a", 0), "state 2"), ((0, 5, 0), "label 5")],
)
def test_transitions_outside_the_states_or_with_bad_labels_are_refused(edge, named):
    with pytest.raises(TxbisimError, match=named):
        Lts([0], [edge], [0])


def test_parallel_edges_are_deduplicated():
    lts = Lts(range(2), [(0, "a", 1), (0, "a", 1)], (0,))
    assert lts.n_transitions == 1


def test_masks_and_successors():
    lts = ladder()
    assert lts.succ_mask(0, "tau") == 0b010
    assert lts.succ_mask(0, "b") == 0b100
    assert lts.successors(0, "tau") == (1,)
    assert list(iter_bits(0b101)) == [0, 2]
    assert not lts.out_labels(2)
    assert lts.moves == ((("tau", 1), ("b", 2)), (("a", 2),), ())


def test_stability_and_closures():
    lts = ladder()
    assert not lts.is_stable(0)
    assert lts.is_stable(1)
    assert lts.tau_closure(0b001) == 0b011
    assert lts.backward_tau_closure(0b010) == 0b011
    assert lts.stable_mask == 0b110
    assert lts.can_reach_stable_mask == 0b111


@st.composite
def systems_and_masks(draw):
    """A system over a few labels with tau self-loops, tau cycles, a label
    carried by one state, and states that no tau step reaches, plus a
    state set."""
    n = draw(st.integers(1, 12))
    state = st.integers(0, n - 1)
    edges = draw(st.lists(
        st.tuples(state, st.sampled_from(("tau", "a", "b", "t")), state),
        max_size=3 * n,
    ))
    edges += [(i, "tau", i) for i in draw(st.lists(state, max_size=2))]
    cycle = draw(st.lists(state, max_size=4, unique=True))
    edges += [(i, "tau", j) for i, j in zip(cycle, cycle[1:] + cycle[:1])]
    edges.append((draw(state), "c", draw(state)))
    return Lts(range(n), edges, (0,)), draw(st.integers(0, (1 << n) - 1))


def _set_closure(mask, steps):
    """Closure of a state set under ``steps``, pairs ``(i, j)``, by sets."""
    seen = set(iter_bits(mask))
    grew = True
    while grew:
        grew = False
        for i, j in steps:
            if i in seen and j not in seen:
                seen.add(j)
                grew = True
    return sum(1 << i for i in seen)


@given(systems_and_masks())
def test_closures_and_predecessors_equal_set_loops(drawn):
    lts, mask = drawn
    taus = [(i, j) for i, lab, j in lts.trans_idx if lab == "tau"]
    assert lts.tau_closure(mask) == _set_closure(mask, taus)
    assert lts.backward_tau_closure(mask) == _set_closure(
        mask, [(j, i) for i, j in taus]
    )
    for lab in ("tau", "a", "b", "t", "c", "absent"):
        want = {i for i, got, j in lts.trans_idx if got == lab and mask >> j & 1}
        assert lts.pred_mask(lab, mask) == sum(1 << i for i in want)


def test_divergence_detection():
    loop = Lts(range(2), [(0, "tau", 1), (1, "tau", 0)], (0,))
    assert loop.divergent
    assert not ladder().divergent
    assert Lts(range(1), [(0, "tau", 0)], (0,)).divergent
    # the cycle 2 -> 3 -> 2 is reached only through the acyclic root 0
    tail = Lts(
        range(4),
        [(0, "a", 1), (0, "tau", 2), (2, "tau", 3), (3, "tau", 2)],
        (0,),
    )
    assert tail.divergent
    assert [sorted(c) for c in tail.tau_sccs if len(c) > 1] == [[2, 3]]
    diamond = Lts(range(3), [(0, "tau", 1), (0, "a", 2), (1, "tau", 2)], (0,))
    assert not diamond.divergent


# -- Aldebaran format


def test_aut_round_trip():
    lts = ladder()
    text = lts.to_aut()
    assert text.splitlines()[0] == "des (0,3,3)"
    back = parse_aut(text)
    assert back.n_states == 3
    assert back.to_aut() == text


def test_aut_round_trip_through_files(tmp_path):
    lts = explore(parse_term("a.0 + t.b.0"))
    path = tmp_path / "out.aut"
    export_aut(lts, path)
    again = import_aut(path)
    assert again.to_aut() == lts.to_aut()
    buf = io.StringIO()
    export_aut(lts, buf)
    assert import_aut(io.StringIO(buf.getvalue())).to_aut() == lts.to_aut()


@pytest.mark.parametrize(
    "text",
    [
        "",
        "des (0,1,1)",  # promised transition missing
        'des (1,0,1)\n',  # root out of range
        'des (0,1,2)\n(0,"a",5)',  # target out of range
        'des (0,1,2)\nnot a transition',
    ],
)
def test_aut_rejects_malformed_text(text):
    with pytest.raises(ParseError):
        parse_aut(text)


def test_json_shape():
    lts = ladder()
    data = lts.to_json_dict()
    assert [s["id"] for s in data["states"]] == [0, 1, 2]
    assert data["roots"] == [0]
    assert {"from": 0, "label": "tau", "to": 1} in data["transitions"]


# -- disjoint union


def test_disjoint_union_tags_sides():
    a = explore(parse_term("a.0"))
    b = explore(parse_term("a.0"))
    u = disjoint_union(a, b)
    assert u.n_states == a.n_states + b.n_states
    assert u.roots[0][0] == 0 and u.roots[1][0] == 1
    # same term on both sides stays distinct in the union
    assert u.index[(0, parse_term("a.0"))] != u.index[(1, parse_term("a.0"))]


# -- partitions and quotients


def test_partition_must_cover_and_not_overlap():
    lts = ladder()
    with pytest.raises(TxbisimError):
        Partition(lts, [(0, 1)])
    with pytest.raises(TxbisimError):
        Partition(lts, [(0, 1), (1, 2)])
    with pytest.raises(TxbisimError, match="empty partition block"):
        Partition(lts, [(), (0, 1), (2,)])
    with pytest.raises(TxbisimError, match="block 0 isn't iterable"):
        Partition(lts, [0, 1, 2])
    part = Partition(lts, [(0, 1), (2,)])
    assert len(part) == 2
    assert part.same(0, 1) and not part.same(1, 2)


def test_quotient_collapses_internal_stutter():
    # 0 -tau-> 1 -a-> 2 with 0,1 in one block: the quotient is a.0
    lts = ladder()
    part = Partition(lts, [(0, 1), (2,)])
    q = quotient(lts, part)
    assert q.n_states == 2
    assert [lab for _, lab, _ in q.transitions()] == ["a", "b"]


def test_quotient_time_outs_need_inner_stability():
    # block {0,1}: 0 -tau-> 1, 0 -t-> 2 from the unstable member is dropped,
    # 1 -t-> 2 from the stable member survives
    lts = Lts(range(3), [(0, "tau", 1), (0, "t", 2), (1, "t", 2)], (0,))
    part = Partition(lts, [(0, 1), (2,)])
    q = quotient(lts, part)
    assert [lab for _, lab, _ in q.transitions()] == ["t"]


def test_quotient_refuses_a_partition_of_another_system():
    _, part = brb_partition(parse_term("tau.a.0"))
    assert part.blocks == ((0, 1), (2,))
    # as many states as the partition covers, and more
    for text in ("a.b.0", "a.b.c.0"):
        with pytest.raises(TxbisimError, match="another system"):
            quotient(explore(parse_term(text)), part)


def test_quotient_rejects_divergent_systems():
    loop = Lts(range(2), [(0, "tau", 1), (1, "tau", 0)], (0,))
    with pytest.raises(TxbisimError):
        quotient(loop, Partition(loop, [(0, 1)]))


@pytest.mark.parametrize(
    "blocks",
    [
        *(pytest.param([(0,), (stray,)], id=str(stray)) for stray in (5, 2, -1, 1.0)),
        # members that cannot be sorted together are refused, not sorted
        pytest.param([(0, "x"), (1,)], id="mixed"),
    ],
)
def test_partition_refuses_indices_outside_the_system(blocks):
    # two states, so an index count of two alone does not make a partition
    lts = explore(parse_term("a.0"))
    assert lts.n_states == 2
    with pytest.raises(TxbisimError, match="not a state index"):
        Partition(lts, blocks)


def test_quotient_keeps_root_blocks():
    defs = parse_file("def P = tau.a.0;")
    lts = explore(defs.defs["P"])
    part = Partition(lts, [(0, 1), (2,)])
    q = quotient(lts, part)
    assert q.roots == (q.states[0],)
