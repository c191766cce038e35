"""Syntax layer: constructors, canonical forms, parsing, printing."""

import random
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from txbisim import (
    Definitions,
    GenConfig,
    InvalidTermError,
    ParseError,
    UndefinedNameError,
    rand_term,
)
from txbisim.terms import (
    EMPTY_ENV,
    MAX_NESTING,
    NIL,
    TAU,
    TIMEOUT,
    Abstract,
    Choice,
    Nil,
    Par,
    Prefix,
    Psi,
    RecCall,
    Rename,
    Theta,
    Var,
    alphabet,
    definitions_text,
    envset,
    free_vars,
    mk_abstract,
    mk_choice,
    mk_par,
    mk_prefix,
    mk_psi,
    mk_recspec,
    mk_reccall,
    mk_rename,
    mk_theta,
    mk_var,
    operands,
    parse_file,
    parse_term,
    spec_close,
    substitute,
    summands,
    sum_of,
    term_text,
    validate,
    visible,
)


# -- actions and environment sets


def test_action_kinds():
    a = visible("a")
    assert a.is_visible and a.in_a_tau
    assert TAU.in_a_tau and not TAU.is_visible
    assert not TIMEOUT.in_a_tau
    assert visible("a") is a


@pytest.mark.parametrize("bad", ["tau", "t", "A", "1x", "", "t_eps", "spec"])
def test_reserved_and_malformed_action_names(bad):
    with pytest.raises(InvalidTermError):
        visible(bad)


def test_envset_is_canonical_and_interned():
    e = envset(("b", "a", "b"))
    assert e.names == ("a", "b")
    assert envset(["a", "b"]) is e
    assert "a" in e and "c" not in e
    assert envset(()) is EMPTY_ENV
    assert e.intersection(envset(("b", "c"))) is envset(("b",))
    assert e.union(envset(("c",))).names == ("a", "b", "c")


# -- constructors and canonical sums


def test_prefix_requires_action():
    p = mk_prefix(visible("a"), NIL)
    assert term_text(p) == "a.0"
    with pytest.raises(InvalidTermError):
        mk_prefix("a", NIL)


def test_choice_flattens_sorts_and_drops_nil():
    a, b = parse_term("a.0"), parse_term("b.0")
    assert mk_choice(a, NIL) is a
    assert mk_choice(NIL, a) is a
    assert mk_choice(a, b) is mk_choice(b, a)
    nested = mk_choice(mk_choice(b, a), mk_choice(a, b))
    assert [term_text(s) for s in summands(nested)] == ["a.0", "a.0", "b.0", "b.0"]
    assert sum_of([]) is NIL
    assert sum_of([a]) is a


def test_choice_keeps_duplicate_summands():
    a = parse_term("a.0")
    twice = mk_choice(a, a)
    assert twice is not a
    assert len(summands(twice)) == 2


def test_interning_gives_identity():
    assert parse_term("a.b.0 + tau.0") is parse_term("a.b.0+tau.0")
    assert mk_par(NIL, envset(("a",)), NIL) is mk_par(NIL, envset(("a",)), NIL)


def test_rename_pairs_are_canonicalised():
    r1 = mk_rename([("a", "b"), ("a", "c"), ("a", "b")], parse_term("a.0"))
    r2 = mk_rename([("a", "c"), ("a", "b")], parse_term("a.0"))
    assert r1 is r2
    # the empty relation is meaningful: it blocks every visible action
    assert not free_vars(mk_rename([], parse_term("a.0")))


def test_theta_requires_lower_inside_upper():
    body = parse_term("a.0")
    mk_theta(envset(("a",)), envset(("a", "b")), body)
    with pytest.raises(InvalidTermError):
        mk_theta(envset(("a", "b")), envset(("a",)), body)


# -- variables, recursion, validation


def test_free_vars_and_substitute():
    x = mk_var("x")
    t = mk_choice(mk_prefix(visible("a"), x), parse_term("b.0"))
    assert free_vars(t) == frozenset({"x"})
    closed = substitute(t, {"x": parse_term("tau.0")})
    assert not free_vars(closed)
    assert term_text(closed) == "b.0 + a.tau.0"


def test_spec_close_and_unfolding_shape():
    spec = mk_recspec({"x": mk_prefix(visible("a"), mk_var("x"))})
    call = mk_reccall("x", spec)
    assert not free_vars(call)
    assert spec_close(mk_var("x"), spec) is call


def test_specifications_are_closed():
    with pytest.raises(InvalidTermError, match="own: y"):
        mk_recspec({"x": mk_prefix(visible("a"), mk_choice(mk_var("x"), mk_var("y")))})
    # a call is closed, so substitution leaves it as it is
    spec = mk_recspec({"x": mk_prefix(visible("a"), mk_var("x"))})
    call = mk_reccall("x", spec)
    assert substitute(call, {"x": NIL}) is call


def test_parsing_a_wide_parallel_spec_body_stays_small():
    # every binary node once held the union of its sides' variable sets,
    # O(n^2) entries for a left-nested || over n variables
    n = 2000
    text = (
        "spec S { "
        + " ".join(f"x{i} = a.0;" for i in range(1, n))
        + " x0 = a.("
        + " ||{} ".join(f"x{i}" for i in range(n))
        + "); }"
    )
    tracemalloc.start()
    try:
        defs = parse_file(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(defs.specs["S"].vars) == n
    assert peak < 20 * 2**20


def test_validate_flags_env_operator_under_recursion_binder():
    spec = mk_recspec({"x": mk_theta(envset(("a",)), envset(("a",)), mk_var("x"))})
    call = mk_reccall("x", spec)
    report = validate(call)
    assert not report.ok
    assert any("theta" in v for v in report.violations)
    good = validate(parse_term("theta{a;a}(a.0)"))
    assert good.ok and good.is_process


def _facts_from_scratch(term):
    """``(closed, valid)`` of a term, read off each variable occurrence and
    the path above it within the term: a ``frozenset`` step for a
    specification binding those variables, ``None`` for a ``theta``/``psi``.
    An occurrence that no step binds is free; one bound by a specification
    that has an environment operator below it, above the occurrence, breaks
    validity."""
    closed, valid = True, True
    stack = [(term, ())]
    while stack:
        node, path = stack.pop()
        if isinstance(node, Var):
            binders = [k for k, step in enumerate(path) if step and node.name in step]
            last = binders[-1] if binders else -1
            if last < 0:
                closed = False
            elif None in path[last + 1:]:
                valid = False
        elif isinstance(node, RecCall):
            inner = path + (frozenset(node.spec.vars),)
            stack.extend((b, inner) for b in node.spec.bodies)
        elif isinstance(node, (Theta, Psi)):
            stack.append((node.body, path + (None,)))
        else:
            stack.extend((c, path) for c in operands(node))
    return closed, valid


REBUILD = {
    Nil: lambda n: NIL,
    Prefix: lambda n: mk_prefix(n.action, n.body),
    Choice: lambda n: mk_choice(n.left, n.right),
    Par: lambda n: mk_par(n.left, n.sync, n.right),
    Abstract: lambda n: mk_abstract(n.hide, n.body),
    Rename: lambda n: mk_rename(n.pairs, n.body),
    Theta: lambda n: mk_theta(n.lower, n.upper, n.body),
    Psi: lambda n: mk_psi(n.env, n.body),
    Var: lambda n: mk_var(n.name),
    RecCall: lambda n: mk_reccall(n.var, n.spec),
}


@given(st.integers(0, 10**9))
def test_node_facts_match_a_recomputation_and_factories_rebuild_nodes(seed):
    """Every node of a random term, and of a specification that captures a
    variable below ``psi``, carries the facts its occurrences give, and its
    factory given its own fields returns the node itself."""
    t = rand_term(random.Random(seed), GenConfig(alphabet=("a", "b"), max_depth=4))
    open_psi = mk_psi(EMPTY_ENV, mk_choice(t, mk_var("v0")))
    capture = mk_reccall("v0", mk_recspec({"v0": mk_prefix(visible("a"), open_psi)}))
    assert not capture.valid
    seen = set()
    stack = [capture]
    while stack:
        node = stack.pop()
        if node.uid in seen:
            continue
        seen.add(node.uid)
        assert (node.closed, node.valid) == _facts_from_scratch(node)
        assert REBUILD[type(node)](node) is node
        if isinstance(node, RecCall):
            assert mk_recspec(node.spec.equations()) is node.spec
            stack.extend(node.spec.bodies)
        stack.extend(operands(node))


def test_alphabet_is_prefixes_plus_renaming_edges():
    t = parse_term("ren{a->b}(tau{c}(a.0 ||{d} psi{e}(0)))")
    # index sets of the operators enable nothing by themselves
    assert set(alphabet(t)) == {"a", "b"}


# -- parsing


@pytest.mark.parametrize(
    "text,expected",
    [
        ("0", "0"),
        ("a.b.0", "a.b.0"),
        ("a.0+tau.0+t.0", "a.0 + tau.0 + t.0"),
        ("(a.0+b.0)||{a,b}c.0", "(a.0 + b.0) ||{a,b} c.0"),
        ("tau{a}(a.0)", "tau{a}(a.0)"),
        ("ren{a->b,c->d}(a.0)", "ren{a->b,c->d}(a.0)"),
        ("theta{a;a,b}(a.0)", "theta{a;a,b}(a.0)"),
        ("psi{}(t.0)", "psi{}(t.0)"),
        ("a.(b.0+c.0)", "a.(b.0 + c.0)"),
    ],
)
def test_parse_print_examples(text, expected):
    assert term_text(parse_term(text)) == expected


@pytest.mark.parametrize(
    "text",
    [
        "",
        "a.",
        "a.0 +",
        "a.0)",
        "theta{a,b;a}(0)",
        "ren{}(a.0)",
        "<x|Nowhere>",
        "def.0",
        "a.0 ||{t} b.0",
    ],
)
def test_parse_rejects_malformed_input(text):
    with pytest.raises(ParseError):
        parse_term(text)


def test_parse_term_free_variables_are_opt_in():
    with pytest.raises(UndefinedNameError):
        parse_term("x + a.0")
    t = parse_term("x + a.0", allow_free=True)
    assert free_vars(t) == frozenset({"x"})


def test_parse_file_definitions_and_references():
    defs = parse_file(
        """
        # a named specification and two processes using it
        spec S { x = tau.y; y = a.x; }
        def P = <x|S>;
        def Q = P + b.0;
        """
    )
    assert set(defs.defs) == {"P", "Q"}
    assert set(defs.specs) == {"S"}
    assert defs.defs["P"] in summands(defs.defs["Q"])


def test_parse_file_duplicate_name_rejected():
    with pytest.raises(ParseError):
        parse_file("def P = a.0; def P = b.0;")


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as exc:
        parse_file("def P = a.0;\ndef Q = b.;")
    assert exc.value.line == 2


NESTERS = ["(", "(a.0 + ", "theta{a;a,b}(", "psi{a}(", "ren{a->b}(", "tau{b}("]


@pytest.mark.parametrize("opener", NESTERS)
def test_nesting_is_bounded_by_a_parse_error(opener):
    def nested(depth):
        return opener * depth + "a.0" + ")" * depth

    assert MAX_NESTING >= 200
    parse_term(nested(200))
    with pytest.raises(ParseError) as exc:
        parse_term(nested(1000))
    assert str(MAX_NESTING) in str(exc.value)
    # raised at the opening token one level too deep
    assert exc.value.col == MAX_NESTING * len(opener) + 1


# -- printing round-trips


def test_definitions_round_trip_with_recursion():
    src = """
    spec QS { q = tau.qp; qp = tau.q + a.0; }
    def P = a.0 + t.<q|QS>;
    def R = P ||{a} tau{b}(b.a.0);
    """
    defs = parse_file(src)
    assert parse_file(definitions_text(defs)) == defs


@given(st.integers(0, 10**9))
def test_generated_terms_round_trip(seed):
    t = rand_term(random.Random(seed), GenConfig(alphabet=("a", "b", "c")))
    d = Definitions()
    d.add_def("X", t)
    assert parse_file(definitions_text(d)).defs["X"] is t


@given(st.integers(0, 10**9))
def test_generated_recursion_free_terms_round_trip_directly(seed):
    t = rand_term(random.Random(seed), GenConfig(recursion=False))
    assert parse_term(term_text(t)) is t
