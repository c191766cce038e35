"""Equational laws and a fuzz harness that probes their soundness.

Each law is represented by a random instance builder.  The harness draws
many instances, decides each with the bisimilarity checkers, and reports
per-law failure counts.  One law in the catalogue, idempotence written with
a zero right-hand side, is deliberately unsound; the harness is expected to
find counterexamples for it and none for the rest.

Laws marked ``strong_ok`` hold for rooted branching bisimilarity on the raw
transition system (time-outs matched like any other label), so instances of
those are decided under that relation as well as under the reactive one.
The two remaining laws depend on the environment semantics of time-outs and
are checked only reactively.

The term constructors canonicalise sums (flattening, ordering, dropping
zero summands), so associativity, commutativity and the zero unit hold by
representation; their builders are kept for completeness and produce
syntactically identical sides.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass, field

from .encoding import env_columns
from .equiv import CheckOptions, process_universe, r_sr_branching, rbrb
from .errors import TxbisimError
from .gen import (
    GenConfig,
    equivalent_pair,
    rand_action,
    rand_env,
    rand_guarded_spec,
    rand_nested_envs,
    rand_renaming,
    rand_term,
)
from .semantics import unfold
from .terms import (
    NIL,
    TAU,
    TIMEOUT,
    envset,
    mk_abstract,
    mk_choice,
    mk_par,
    mk_prefix,
    mk_psi,
    mk_reccall,
    mk_rename,
    mk_theta,
    sum_of,
    term_text,
)

__all__ = ["AXIOMS", "Axiom", "AxiomResult", "axiom_by_name", "fuzz_axioms"]


@dataclass(frozen=True)
class Axiom:
    """One law: a name, soundness expectation, and instance builder
    ``build(rng, cfg)``, which returns the two sides of one instance."""

    name: str
    sound: bool
    kind: str  # "equation" or "implication"
    strong_ok: bool
    build: Callable = field(compare=False, repr=False)
    note: str = ""

    def instantiate(self, rng, cfg):
        return self.build(rng, cfg)


@dataclass
class AxiomResult:
    """Outcome of fuzzing one law."""

    name: str
    sound: bool
    instances: int
    failures: int
    vacuous: int = 0
    counterexample: tuple[str, str] | None = None

    @property
    def ok(self):
        """Did the run match the expectation: sound laws never fail, the
        unsound one fails at least once."""
        if self.sound:
            return self.failures == 0
        return self.failures > 0

    def to_json_dict(self):
        out = {
            "axiom": self.name,
            "expected_sound": self.sound,
            "instances": self.instances,
            "failures": self.failures,
            "ok": self.ok,
        }
        if self.vacuous:
            out["vacuous"] = self.vacuous
        if self.counterexample:
            out["counterexample"] = {
                "lhs": self.counterexample[0],
                "rhs": self.counterexample[1],
            }
        return out


# --------------------------------------------------------------------------
# instance builders


def _sub(rng, cfg):
    return rand_term(rng, cfg, rng.randint(0, cfg.max_depth))


def _bi_assoc(rng, cfg):
    x, y, z = _sub(rng, cfg), _sub(rng, cfg), _sub(rng, cfg)
    return mk_choice(x, mk_choice(y, z)), mk_choice(mk_choice(x, y), z)


def _bi_comm(rng, cfg):
    x, y = _sub(rng, cfg), _sub(rng, cfg)
    return mk_choice(x, y), mk_choice(y, x)


def _bi_idem_zero(rng, cfg):
    x = _sub(rng, cfg)
    return mk_choice(x, x), NIL


def _bi_idem(rng, cfg):
    x = _sub(rng, cfg)
    return mk_choice(x, x), x


def _bi_unit(rng, cfg):
    x = _sub(rng, cfg)
    return mk_choice(x, NIL), x


def _bi_hide_sum(rng, cfg):
    hide = rand_env(rng, cfg.alphabet, 1)
    x, y = _sub(rng, cfg), _sub(rng, cfg)
    return (
        mk_abstract(hide, mk_choice(x, y)),
        mk_choice(mk_abstract(hide, x), mk_abstract(hide, y)),
    )


def _bi_hide_free(rng, cfg):
    hide = rand_env(rng, cfg.alphabet, 1)
    act = rand_action(
        rng, [a for a in cfg.alphabet if a not in hide], tau=True, timeout=True
    )
    x = _sub(rng, cfg)
    return (
        mk_abstract(hide, mk_prefix(act, x)),
        mk_prefix(act, mk_abstract(hide, x)),
    )


def _bi_hide_hidden(rng, cfg):
    hide = rand_env(rng, cfg.alphabet, 1)
    act = rng.choice(tuple(hide))
    x = _sub(rng, cfg)
    return (
        mk_abstract(hide, mk_prefix(act, x)),
        mk_prefix(TAU, mk_abstract(hide, x)),
    )


def _bi_rename_sum(rng, cfg):
    pairs = rand_renaming(rng, cfg)
    x, y = _sub(rng, cfg), _sub(rng, cfg)
    return (
        mk_rename(pairs, mk_choice(x, y)),
        mk_choice(mk_rename(pairs, x), mk_rename(pairs, y)),
    )


def _bi_rename_tau(rng, cfg):
    pairs = rand_renaming(rng, cfg)
    x = _sub(rng, cfg)
    return (
        mk_rename(pairs, mk_prefix(TAU, x)),
        mk_prefix(TAU, mk_rename(pairs, x)),
    )


def _bi_rename_timeout(rng, cfg):
    pairs = rand_renaming(rng, cfg)
    x = _sub(rng, cfg)
    return (
        mk_rename(pairs, mk_prefix(TIMEOUT, x)),
        mk_prefix(TIMEOUT, mk_rename(pairs, x)),
    )


def _bi_rename_action(rng, cfg):
    pairs = rand_renaming(rng, cfg)
    a = rng.choice(cfg.alphabet)
    x = _sub(rng, cfg)
    images = sorted(dst for src, dst in pairs if src == a)
    return (
        mk_rename(pairs, mk_prefix(a, x)),
        sum_of(mk_prefix(b, mk_rename(pairs, x)) for b in images),
    )


def _bi_expansion(rng, cfg):
    sync = rand_env(rng, cfg.alphabet)
    ps = [
        (rand_action(rng, cfg.alphabet, tau=True, timeout=True), _sub(rng, cfg))
        for _ in range(rng.randint(0, 2))
    ]
    qs = [
        (rand_action(rng, cfg.alphabet, tau=True, timeout=True), _sub(rng, cfg))
        for _ in range(rng.randint(0, 2))
    ]
    p = sum_of(mk_prefix(a, x) for a, x in ps)
    q = sum_of(mk_prefix(b, y) for b, y in qs)
    parts = [mk_prefix(a, mk_par(x, sync, q)) for a, x in ps if a not in sync]
    parts += [mk_prefix(b, mk_par(p, sync, y)) for b, y in qs if b not in sync]
    parts += [
        mk_prefix(a, mk_par(x, sync, y))
        for a, x in ps
        for b, y in qs
        if a == b and a in sync
    ]
    return mk_par(p, sync, q), sum_of(parts)


def _bi_branching(rng, cfg):
    act = rand_action(rng, cfg.alphabet, tau=True, timeout=True)
    x, y = _sub(rng, cfg), _sub(rng, cfg)
    grown = mk_choice(x, y)
    return (
        mk_prefix(act, mk_choice(mk_prefix(TAU, grown), x)),
        mk_prefix(act, grown),
    )


def _bi_unfold(rng, cfg):
    spec = rand_guarded_spec(rng, cfg)
    call = mk_reccall(rng.choice(spec.vars), spec)
    return call, unfold(call)


def _bi_theta_skip_sum(rng, cfg):
    lower, upper = rand_nested_envs(rng, cfg)
    free = [a for a in cfg.alphabet if a not in lower]
    parts = [
        mk_prefix(rand_action(rng, free, timeout=True), _sub(rng, cfg))
        for _ in range(rng.randint(1, 3))
    ]
    body = sum_of(parts)
    return mk_theta(lower, upper, body), body


def _bi_theta_prune(rng, cfg):
    lower, upper = rand_nested_envs(rng, cfg)
    alpha = rand_action(rng, lower, tau=True)
    beta = rand_action(
        rng, [a for a in cfg.alphabet if a not in upper], timeout=True
    )
    x, y, z = _sub(rng, cfg), _sub(rng, cfg), _sub(rng, cfg)
    kept = mk_choice(x, mk_prefix(alpha, y))
    return (
        mk_theta(lower, upper, mk_choice(kept, mk_prefix(beta, z))),
        mk_theta(lower, upper, kept),
    )


def _bi_theta_split(rng, cfg):
    lower, upper = rand_nested_envs(rng, cfg)
    alpha = rand_action(rng, lower, tau=True)
    beta = rand_action(rng, upper, tau=True)
    x, y, z = _sub(rng, cfg), _sub(rng, cfg), _sub(rng, cfg)
    kept = mk_choice(x, mk_prefix(alpha, y))
    split = mk_prefix(beta, z)
    return (
        mk_theta(lower, upper, mk_choice(kept, split)),
        mk_choice(mk_theta(lower, upper, kept), mk_theta(lower, upper, split)),
    )


def _bi_theta_prefix(rng, cfg):
    lower, upper = rand_nested_envs(rng, cfg)
    act = rand_action(rng, cfg.alphabet, timeout=True)
    x = _sub(rng, cfg)
    body = mk_prefix(act, x)
    return mk_theta(lower, upper, body), body


def _bi_theta_tau(rng, cfg):
    lower, upper = rand_nested_envs(rng, cfg)
    x = _sub(rng, cfg)
    return (
        mk_theta(lower, upper, mk_prefix(TAU, x)),
        mk_prefix(TAU, mk_theta(lower, upper, x)),
    )


def _psi_env(rng, cfg, proper=False):
    env = rand_env(rng, cfg.alphabet)
    while proper and len(env) == len(cfg.alphabet):
        env = envset(a for a in env if rng.random() < 0.5)
    return env


def _bi_psi_free(rng, cfg):
    env = _psi_env(rng, cfg, proper=True)
    alpha = rng.choice([a for a in cfg.alphabet if a not in env])
    x, y = _sub(rng, cfg), _sub(rng, cfg)
    return (
        mk_psi(env, mk_choice(x, mk_prefix(alpha, y))),
        mk_choice(mk_psi(env, x), mk_prefix(alpha, y)),
    )


def _bi_psi_prune(rng, cfg):
    env = _psi_env(rng, cfg)
    alpha = rand_action(rng, env, tau=True)
    x, y, z = _sub(rng, cfg), _sub(rng, cfg), _sub(rng, cfg)
    kept = mk_choice(x, mk_prefix(alpha, y))
    return (
        mk_psi(env, mk_choice(kept, mk_prefix(TIMEOUT, z))),
        mk_psi(env, kept),
    )


def _bi_psi_split(rng, cfg):
    env = _psi_env(rng, cfg)
    alpha = rand_action(rng, env, tau=True)
    beta = rand_action(rng, env, tau=True)
    x, y, z = _sub(rng, cfg), _sub(rng, cfg), _sub(rng, cfg)
    kept = mk_choice(x, mk_prefix(alpha, y))
    split = mk_prefix(beta, z)
    return (
        mk_psi(env, mk_choice(kept, split)),
        mk_choice(mk_psi(env, kept), split),
    )


def _bi_psi_prefix(rng, cfg):
    env = _psi_env(rng, cfg)
    act = rand_action(rng, cfg.alphabet, tau=True)
    x = _sub(rng, cfg)
    body = mk_prefix(act, x)
    return mk_psi(env, body), body


def _bi_psi_timeouts(rng, cfg):
    env = _psi_env(rng, cfg)
    targets = [_sub(rng, cfg) for _ in range(rng.randint(1, 2))]
    return (
        mk_psi(env, sum_of(mk_prefix(TIMEOUT, y) for y in targets)),
        sum_of(mk_prefix(TIMEOUT, mk_theta(env, env, y)) for y in targets),
    )


def _bi_tau_shadow(rng, cfg):
    x, y = _sub(rng, cfg), _sub(rng, cfg)
    return (
        mk_choice(mk_prefix(TAU, x), mk_prefix(TIMEOUT, y)),
        mk_prefix(TAU, x),
    )


def _approx_premise_pair(rng, cfg):
    if rng.random() < 0.6:
        return equivalent_pair(rng, cfg)
    return rand_term(rng, cfg), rand_term(rng, cfg)


AXIOMS = (
    Axiom("choice-assoc", True, "equation", True, _bi_assoc, "identity by canonical sums"),
    Axiom("choice-comm", True, "equation", True, _bi_comm, "identity by canonical sums"),
    Axiom(
        "choice-idem-zero",
        False,
        "equation",
        True,
        _bi_idem_zero,
        "x+x = 0: idempotence is not cancellation",
    ),
    Axiom("choice-idem", True, "equation", True, _bi_idem),
    Axiom("choice-unit", True, "equation", True, _bi_unit, "identity by canonical sums"),
    Axiom("hide-sum", True, "equation", True, _bi_hide_sum),
    Axiom("hide-prefix-free", True, "equation", True, _bi_hide_free),
    Axiom("hide-prefix-hidden", True, "equation", True, _bi_hide_hidden),
    Axiom("rename-sum", True, "equation", True, _bi_rename_sum),
    Axiom("rename-tau", True, "equation", True, _bi_rename_tau),
    Axiom("rename-timeout", True, "equation", True, _bi_rename_timeout),
    Axiom("rename-action", True, "equation", True, _bi_rename_action),
    Axiom("expansion", True, "equation", True, _bi_expansion),
    Axiom("branching", True, "equation", True, _bi_branching),
    Axiom("rec-unfold", True, "equation", True, _bi_unfold),
    Axiom("theta-skip-sum", True, "equation", True, _bi_theta_skip_sum),
    Axiom("theta-prune", True, "equation", True, _bi_theta_prune),
    Axiom("theta-split", True, "equation", True, _bi_theta_split),
    Axiom("theta-prefix", True, "equation", True, _bi_theta_prefix),
    Axiom("theta-tau", True, "equation", True, _bi_theta_tau),
    Axiom("psi-free-action", True, "equation", True, _bi_psi_free),
    Axiom("psi-prune-timeout", True, "equation", True, _bi_psi_prune),
    Axiom("psi-split", True, "equation", True, _bi_psi_split),
    Axiom("psi-prefix", True, "equation", True, _bi_psi_prefix),
    Axiom("psi-timeouts", True, "equation", True, _bi_psi_timeouts),
    Axiom(
        "tau-shadows-timeout",
        True,
        "equation",
        False,
        _bi_tau_shadow,
        "an internal step pre-empts time-outs; reactive only",
    ),
    Axiom(
        "reactive-approximation",
        True,
        "implication",
        False,
        _approx_premise_pair,
        "agreement under every environment implies equivalence",
    ),
)


def axiom_by_name(name):
    for axiom in AXIOMS:
        if axiom.name == name:
            return axiom
    raise KeyError(name)


# --------------------------------------------------------------------------
# harness


def _check_equation(axiom, lhs, rhs, opts):
    """An equation holds reactively, and for a ``strong_ok`` law also
    under rooted stability respecting branching bisimilarity, decided on
    the system the reactive verdict explored."""
    verdict = rbrb(lhs, rhs, opts)
    if not verdict or not axiom.strong_ok:
        return bool(verdict)
    # keep the system, not the verdict's witness tables
    lts = verdict.lts
    del verdict
    return bool(r_sr_branching(lts, lhs, rhs))


def _check_approximation(lhs, rhs, opts):
    """Returns (holds, vacuous) for one implication instance, whose
    premises range over the environment columns of the pair's universe."""
    universe = process_universe(lhs, rhs)
    for env in env_columns(universe)[1]:
        if not rbrb(mk_psi(env, lhs), mk_psi(env, rhs), opts):
            return True, True
    return bool(rbrb(lhs, rhs, opts)), False


def fuzz_axioms(instances=50, seed=0, cfg=None, opts=None, names=None):
    """Fuzz every law (or the named subset) with ``instances`` random
    instances each; returns one :class:`AxiomResult` per law.  ``names``
    is a collection of law names; a bare string is refused, as it would
    be read letter by letter."""
    if instances < 1:
        raise TxbisimError(f"instances must be at least 1, not {instances}")
    if isinstance(names, str):
        raise TxbisimError(
            f"names must be a collection of law names, not the string {names!r}"
        )
    if names is not None:
        unknown = sorted(set(names) - {axiom.name for axiom in AXIOMS})
        if unknown:
            raise TxbisimError(f"unknown law(s): {', '.join(unknown)}")
    cfg = cfg or GenConfig(max_depth=3)
    opts = opts or CheckOptions()
    results = []
    for axiom in AXIOMS:
        if names is not None and axiom.name not in names:
            continue
        rng = random.Random(f"{seed}:{axiom.name}")
        failures = 0
        vacuous = 0
        counterexample = None
        for _ in range(instances):
            lhs, rhs = axiom.instantiate(rng, cfg)
            if axiom.kind == "implication":
                holds, skip = _check_approximation(lhs, rhs, opts)
                vacuous += skip
            else:
                holds = _check_equation(axiom, lhs, rhs, opts)
            if not holds:
                failures += 1
                if counterexample is None:
                    counterexample = (term_text(lhs), term_text(rhs))
        results.append(
            AxiomResult(
                name=axiom.name,
                sound=axiom.sound,
                instances=instances,
                failures=failures,
                vacuous=vacuous,
                counterexample=counterexample,
            )
        )
    return results
