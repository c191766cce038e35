"""Law fuzzing: sound laws hold, the planted unsound law is caught."""

from types import SimpleNamespace

import pytest

from txbisim import CheckOptions, GenConfig, TxbisimError, axioms, brb, equiv, rbrb
from txbisim.axioms import AXIOMS, AxiomResult, axiom_by_name, fuzz_axioms
from txbisim.encoding import env_columns
from txbisim.semantics import explore
from txbisim.terms import Psi, parse_term


def run(names=None, instances=12, seed=3):
    return fuzz_axioms(
        instances=instances,
        seed=seed,
        cfg=GenConfig(alphabet=("a", "b"), max_depth=3),
        opts=CheckOptions(method="direct"),
        names=names,
    )


def test_registry_is_complete_and_named_lookup_works():
    names = [a.name for a in AXIOMS]
    assert len(names) == len(set(names))
    assert len(names) >= 25
    assert axiom_by_name("branching").sound
    with pytest.raises(KeyError):
        axiom_by_name("law-of-the-excluded-middle")
    unsound = [a.name for a in AXIOMS if not a.sound]
    assert unsound == ["choice-idem-zero"]


def test_every_law_meets_its_expectation():
    for res in run():
        assert res.ok, f"{res.name}: {res.failures}/{res.instances} failed"


def test_strong_check_reuses_the_reactive_verdicts_system(monkeypatch):
    """A ``strong_ok`` law's instance is explored once: its rooted
    stability respecting branching check reads the system the reactive
    verdict explored."""
    explored = []

    def counting(roots, max_states=None):
        explored.append(roots)
        return explore(roots, max_states)

    assert axiom_by_name("choice-comm").strong_ok
    monkeypatch.setattr(equiv, "explore", counting)
    monkeypatch.setattr(axioms, "explore", counting, raising=False)
    (res,) = fuzz_axioms(instances=1, names=["choice-comm"])
    assert res.ok
    assert len(explored) == 1


@pytest.mark.parametrize(
    "kwargs", [{"instances": 0}, {"instances": -3}, {"names": ["branching", "nope"]}]
)
def test_fuzz_input_is_refused_before_any_draw(monkeypatch, kwargs):
    def no_draws(seed):
        raise AssertionError("drew a random number")

    monkeypatch.setattr(axioms, "random", SimpleNamespace(Random=no_draws))
    with pytest.raises(TxbisimError):
        fuzz_axioms(**kwargs)


@pytest.mark.parametrize("names", ["branching", "bi_comm"])
def test_fuzz_refuses_a_bare_string_of_names(monkeypatch, names):
    """A string is a collection of letters: refused as a whole, naming
    it, rather than read as the unknown laws of its letters."""

    def no_draws(seed):
        raise AssertionError("drew a random number")

    monkeypatch.setattr(axioms, "random", SimpleNamespace(Random=no_draws))
    with pytest.raises(TxbisimError, match="not the string") as err:
        fuzz_axioms(names=names)
    assert repr(names) in str(err.value)
    assert "unknown law" not in str(err.value)


def test_approximation_premises_are_the_encodings_environments(monkeypatch):
    """An implication instance decides ``psi{X}`` of both sides once for
    every environment ``X`` of the pair's universe, in the order of
    :func:`env_columns`, and then the sides themselves."""
    lhs, rhs = parse_term("a.b.c.0"), parse_term("a.tau.b.c.0")
    calls = []

    def counted(p, q, opts=None):
        calls.append((p, q))
        return rbrb(p, q, opts)

    monkeypatch.setattr(axioms, "rbrb", counted)
    assert axioms._check_approximation(lhs, rhs, CheckOptions()) == (True, False)
    envs = env_columns(("a", "b", "c"))[1]
    assert len(envs) == 8
    assert calls[-1] == (lhs, rhs)
    psi = calls[:-1]
    assert all(isinstance(p, Psi) and isinstance(q, Psi) for p, q in psi)
    assert [(p.body, q.body) for p, q in psi] == [(lhs, rhs)] * 8
    assert [p.env for p, _ in psi] == [q.env for _, q in psi] == list(envs)


def test_unsound_idempotence_to_zero_fails_quickly():
    assert not brb(parse_term("a.0 + a.0"), parse_term("0"))
    (res,) = run(names=("choice-idem-zero",))
    assert not res.sound
    assert res.ok and res.failures > 0
    assert res.counterexample is not None


def test_sound_idempotence_holds():
    assert rbrb(parse_term("a.0 + a.0"), parse_term("a.0"))
    (res,) = run(names=("choice-idem",))
    assert res.ok and res.failures == 0


def test_reactive_only_laws_are_not_strong_identities():
    # the shadow law holds reactively yet changes the raw system
    lhs = parse_term("tau.a.0 + t.b.0")
    rhs = parse_term("tau.a.0")
    assert rbrb(lhs, rhs)
    shadow = axiom_by_name("tau-shadows-timeout")
    assert not shadow.strong_ok
    approx = axiom_by_name("reactive-approximation")
    assert approx.kind == "implication"


def test_implication_tracks_vacuous_premises():
    (res,) = run(names=("reactive-approximation",), instances=30)
    assert res.ok
    # the premise generator mixes equivalent and arbitrary pairs, so some
    # instances must have been discharged by a failing premise
    assert 0 < res.vacuous < 30


def test_runs_are_deterministic_in_the_seed():
    a = run(names=("choice-idem-zero", "branching"), seed=11)
    b = run(names=("choice-idem-zero", "branching"), seed=11)
    assert [(r.name, r.failures, r.vacuous, r.counterexample) for r in a] == [
        (r.name, r.failures, r.vacuous, r.counterexample) for r in b
    ]


def test_json_shape():
    (res,) = run(names=("choice-idem-zero",))
    data = res.to_json_dict()
    assert data["axiom"] == "choice-idem-zero"
    assert data["expected_sound"] is False
    assert data["ok"] is True
    assert set(data["counterexample"]) == {"lhs", "rhs"}
    healthy = AxiomResult("x", True, 5, 0)
    assert healthy.to_json_dict() == {
        "axiom": "x",
        "expected_sound": True,
        "instances": 5,
        "failures": 0,
        "ok": True,
    }
