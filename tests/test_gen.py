"""Random generators: determinism, well-formedness, advertised guarantees."""

import random

import pytest
from hypothesis import given, strategies as st

from txbisim import CheckOptions, GenConfig, TxbisimError, rbrb
from txbisim.gen import (
    _get_at,
    _positions,
    _replace_at,
    equivalent_pair,
    rand_context,
    rand_formula,
    rand_guarded_spec,
    rand_term,
)
from txbisim.modal import in_subclass
from txbisim.semantics import explore
from txbisim.terms import (
    NIL,
    Prefix,
    alphabet,
    free_vars,
    mk_reccall,
    operands,
    parse_term,
    validate,
    with_operand,
)

CFG = GenConfig(alphabet=("a", "b"), max_depth=4)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"alphabet": ()},
        {"alphabet": ("a", "B")},
        {"alphabet": ("tau",)},
        {"max_depth": -1},
    ],
)
def test_config_refuses_what_no_draw_can_use(kwargs):
    with pytest.raises(TxbisimError):
        GenConfig(**kwargs)


def test_seeded_streams_are_reproducible():
    a = [rand_term(random.Random(99), CFG) for _ in range(50)]
    b = [rand_term(random.Random(99), CFG) for _ in range(50)]
    assert a == b  # interning makes equality identity


@given(st.integers(0, 10**9))
def test_terms_are_closed_valid_processes(seed):
    t = rand_term(random.Random(seed), CFG)
    assert not free_vars(t)
    report = validate(t)
    assert report.is_process
    assert set(alphabet(t)) <= set(CFG.alphabet)


@given(st.integers(0, 10**9))
def test_terms_respect_the_depth_knob(seed):
    rng = random.Random(seed)
    t = rand_term(rng, GenConfig(alphabet=("a",), max_depth=0, recursion=False))
    assert t is NIL or (isinstance(t, Prefix) and t.body is NIL)


@given(st.integers(0, 10**9))
def test_putting_an_operand_back_rebuilds_the_same_term(seed):
    """Replacing an operand, or the subterm at a path, by itself gives the
    interned term back."""
    t = rand_term(random.Random(seed), CFG)
    for k, c in enumerate(operands(t)):
        assert with_operand(t, k, c) is t
    for path in _positions(t):
        assert _replace_at(t, path, _get_at(t, path)) is t


@given(st.integers(0, 10**9))
def test_guarded_specs_explore_finitely(seed):
    rng = random.Random(seed)
    spec = rand_guarded_spec(rng, CFG)
    call = mk_reccall(spec.vars[0], spec)
    lts = explore(call, 500)
    assert not lts.divergent


@given(st.integers(0, 10**9))
def test_contexts_preserve_processhood(seed):
    rng = random.Random(seed)
    ctx = rand_context(rng, CFG)
    filled = ctx(parse_term("a.0 + t.b.0"))
    assert not free_vars(filled)
    assert validate(filled).is_process
    # the same context accepts any process
    assert validate(ctx(parse_term("0"))).is_process


@given(st.integers(0, 10**9))
def test_equivalent_pairs_are_rooted_equivalent(seed):
    rng = random.Random(seed)
    p, q = equivalent_pair(rng, GenConfig(alphabet=("a", "b"), max_depth=3))
    assert rbrb(p, q, CheckOptions(method="direct", max_states=3000))


def test_equivalent_pair_rewrite_count_zero_is_identity():
    rng = random.Random(4)
    p, q = equivalent_pair(rng, CFG, rewrites=0)
    assert p is q


@given(st.integers(0, 10**9))
def test_formulas_land_in_their_sublogic(seed):
    rng = random.Random(seed)
    for cls in ("Lbc", "Lbcr"):
        phi = rand_formula(rng, ("a", "b"), depth=3, cls=cls)
        assert in_subclass(phi, cls)
