"""Seeded random generation of terms, contexts, and formulas.

Everything here takes an explicit :class:`random.Random`, so corpora are
reproducible from a seed.  Three families matter to the test-suite:

* random closed terms over a small alphabet, used to compare the two
  decision methods against each other and against reference checkers;
* pairs of terms equivalent by construction, obtained by rewriting a random
  term with equational laws known to preserve rooted equivalence;
* random formulas inside the characteristic sublogics, used to confirm that
  equivalent processes satisfy the same formulas.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import TxbisimError
from .modal import (
    TOP,
    And,
    Diamond,
    EnvDiamond,
    Eps,
    HatDiamond,
    Not,
)
from .semantics import unfold
from .terms import (
    NIL,
    TAU,
    TIMEOUT,
    Prefix,
    RecCall,
    envset,
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
    sum_of,
    summands,
    visible,
    with_operand,
)

__all__ = [
    "GenConfig",
    "equivalent_pair",
    "rand_context",
    "rand_action",
    "rand_env",
    "rand_formula",
    "rand_guarded_spec",
    "rand_nested_envs",
    "rand_renaming",
    "rand_term",
]


@dataclass(frozen=True)
class GenConfig:
    """Shape limits for random terms: a nonempty alphabet of distinct
    visible action names and a depth of at least 0, checked before any draw."""

    alphabet: tuple = ("a", "b")
    max_depth: int = 4
    recursion: bool = True

    def __post_init__(self):
        if not self.alphabet:
            raise TxbisimError("the alphabet needs at least one action name")
        for k, name in enumerate(self.alphabet):
            if visible(name) in self.alphabet[:k]:
                raise TxbisimError(f"the alphabet names {name!r} more than once")
        if self.max_depth < 0:
            raise TxbisimError(f"max_depth must be at least 0, not {self.max_depth}")


def rand_env(rng, names, min_size=0):
    """A random set of the actions ``names``, each in with even odds,
    topped up to at least ``min_size`` actions."""
    got = [a for a in names if rng.random() < 0.5]
    while len(got) < min_size:
        extra = rng.choice(names)
        if extra not in got:
            got.append(extra)
    return envset(got)


def rand_nested_envs(rng, cfg):
    """A random pair of action sets with ``lower`` ⊆ ``upper``, as
    ``theta`` takes them."""
    upper = rand_env(rng, cfg.alphabet)
    lower = envset(a for a in upper if rng.random() < 0.6)
    return lower, upper


def rand_renaming(rng, cfg):
    """One or two random renaming pairs ``(src, dst)`` over the alphabet."""
    pairs = set()
    for _ in range(rng.randint(1, 2)):
        pairs.add((rng.choice(cfg.alphabet), rng.choice(cfg.alphabet)))
    return pairs


def rand_action(rng, names, tau=False, timeout=False):
    """A random action: a visible one named in ``names``, or ``tau`` or
    the time-out where allowed."""
    pool = list(names)
    if tau:
        pool.append(TAU)
    if timeout:
        pool.append(TIMEOUT)
    return rng.choice(pool)


def rand_term(rng, cfg=None, depth=None):
    """A random closed term, at most ``depth`` operators deep."""
    cfg = cfg or GenConfig()
    depth = cfg.max_depth if depth is None else depth
    if depth <= 0:
        if rng.random() < 0.4:
            return NIL
        return mk_prefix(rand_action(rng, cfg.alphabet, tau=True, timeout=True), NIL)
    roll = rng.random()
    if roll < 0.06:
        return NIL
    if roll < 0.40:
        act = rand_action(rng, cfg.alphabet, tau=True, timeout=True)
        return mk_prefix(act, rand_term(rng, cfg, depth - 1))
    if roll < 0.62:
        return mk_choice(
            rand_term(rng, cfg, depth - 1), rand_term(rng, cfg, depth - 1)
        )
    if roll < 0.74:
        return mk_par(
            rand_term(rng, cfg, depth - 1),
            rand_env(rng, cfg.alphabet),
            rand_term(rng, cfg, depth - 1),
        )
    if roll < 0.82:
        hide = rand_env(rng, cfg.alphabet, 1)
        return mk_abstract(hide, rand_term(rng, cfg, depth - 1))
    if roll < 0.88:
        return mk_rename(rand_renaming(rng, cfg), rand_term(rng, cfg, depth - 1))
    if roll < 0.93:
        lower, upper = rand_nested_envs(rng, cfg)
        return mk_theta(lower, upper, rand_term(rng, cfg, depth - 1))
    if roll < 0.97 or not cfg.recursion:
        return mk_psi(rand_env(rng, cfg.alphabet), rand_term(rng, cfg, depth - 1))
    spec = rand_guarded_spec(rng, cfg, depth - 1)
    return mk_reccall(rng.choice(spec.vars), spec)


def rand_guarded_spec(rng, cfg=None, depth=2):
    """A small strongly guarded specification: every variable occurrence
    sits under an action prefix and no internal cycle arises."""
    cfg = cfg or GenConfig()
    n = rng.randint(1, 2)
    names = [f"v{i}" for i in range(n)]
    equations = {}
    for v in names:
        parts = []
        for _ in range(rng.randint(1, 2)):
            act = rand_action(rng, cfg.alphabet, timeout=True)
            if rng.random() < 0.5:
                target = mk_var(rng.choice(names))
            else:
                target = rand_term(rng, cfg, max(depth - 1, 0))
            parts.append(mk_prefix(act, target))
        equations[v] = sum_of(parts)
    return mk_recspec(equations)


# --------------------------------------------------------------------------
# one-hole contexts


def rand_context(rng, cfg=None, depth=None):
    """A one-hole context, as a function from terms to terms.

    Every operator can appear on the spine: prefixing, either side of a sum
    or a parallel composition, abstraction, renaming, and both environment
    operators.
    """
    cfg = cfg or GenConfig()
    depth = cfg.max_depth if depth is None else depth
    layers = []
    for _ in range(rng.randint(1, max(depth, 1))):
        kind = rng.randrange(8)
        if kind == 0:
            act = rand_action(rng, cfg.alphabet, tau=True, timeout=True)
            layers.append(lambda h, act=act: mk_prefix(act, h))
        elif kind == 1:
            other = rand_term(rng, cfg, depth - 1)
            layers.append(lambda h, o=other: mk_choice(h, o))
        elif kind == 2:
            other = rand_term(rng, cfg, depth - 1)
            sync = rand_env(rng, cfg.alphabet)
            if rng.random() < 0.5:
                layers.append(lambda h, o=other, s=sync: mk_par(h, s, o))
            else:
                layers.append(lambda h, o=other, s=sync: mk_par(o, s, h))
        elif kind == 3:
            hide = rand_env(rng, cfg.alphabet, 1)
            layers.append(lambda h, i=hide: mk_abstract(i, h))
        elif kind == 4:
            pairs = {(rng.choice(cfg.alphabet), rng.choice(cfg.alphabet))}
            layers.append(lambda h, p=pairs: mk_rename(p, h))
        elif kind == 5:
            lower, upper = rand_nested_envs(rng, cfg)
            layers.append(lambda h, lo=lower, up=upper: mk_theta(lo, up, h))
        elif kind == 6:
            env = rand_env(rng, cfg.alphabet)
            layers.append(lambda h, x=env: mk_psi(x, h))
        else:
            other = rand_term(rng, cfg, depth - 1)
            layers.append(lambda h, o=other: mk_choice(o, h))

    def context(hole):
        term = hole
        for layer in layers:
            term = layer(term)
        return term

    return context


# --------------------------------------------------------------------------
# equivalent pairs through sound rewriting


def _positions(term):
    """All paths to subterms, root first.  Paths do not enter recursive
    specification bodies, so any subterm reached is closed."""
    out = [()]
    for slot, child in enumerate(operands(term)):
        out.extend((slot,) + p for p in _positions(child))
    return out


def _get_at(term, path):
    for slot in path:
        term = operands(term)[slot]
    return term


def _replace_at(term, path, new):
    if not path:
        return new
    slot = path[0]
    child = _replace_at(operands(term)[slot], path[1:], new)
    return with_operand(term, slot, child)


def _rw_duplicate(rng, cfg, sub):
    # x = x + x
    if sub is NIL:
        return None
    return mk_choice(sub, sub)


def _rw_inner_tau(rng, cfg, sub):
    # alpha.x = alpha.tau.x
    if not isinstance(sub, Prefix):
        return None
    return mk_prefix(sub.action, mk_prefix(TAU, sub.body))


def _rw_branching(rng, cfg, sub):
    # alpha.x = alpha.(tau.x + x)
    if not isinstance(sub, Prefix):
        return None
    return mk_prefix(sub.action, mk_choice(mk_prefix(TAU, sub.body), sub.body))


def _rw_timeout_shadow(rng, cfg, sub):
    # an internal step shadows a fresh time-out: tau.x + ... = tau.x + ... + t.y
    if not any(
        isinstance(s, Prefix) and s.action == TAU for s in summands(sub)
    ):
        return None
    return mk_choice(sub, mk_prefix(TIMEOUT, rand_term(rng, cfg, 1)))


def _rw_unfold(rng, cfg, sub):
    if not isinstance(sub, RecCall):
        return None
    return unfold(sub)


def _rw_theta_skip(rng, cfg, sub):
    # theta has no effect on a single non-internal prefix
    if not isinstance(sub, Prefix) or sub.action == TAU:
        return None
    lower, upper = rand_nested_envs(rng, cfg)
    return mk_theta(lower, upper, sub)


def _rw_psi_skip(rng, cfg, sub):
    # psi has no effect on a single non-time-out prefix
    if not isinstance(sub, Prefix) or sub.action == TIMEOUT:
        return None
    return mk_psi(rand_env(rng, cfg.alphabet), sub)


_REWRITES = (
    _rw_duplicate,
    _rw_inner_tau,
    _rw_branching,
    _rw_timeout_shadow,
    _rw_unfold,
    _rw_theta_skip,
    _rw_psi_skip,
)


def equivalent_pair(rng, cfg=None):
    """Two rooted-equivalent closed terms, usually distinct syntactically.

    The second term is the first with a few random sound rewrites applied at
    random positions.
    """
    cfg = cfg or GenConfig()
    lhs = rand_term(rng, cfg)
    rhs = lhs
    wanted = rng.randint(1, 3)
    for _ in range(wanted * 4):
        if wanted == 0:
            break
        paths = _positions(rhs)
        path = rng.choice(paths)
        sub = _get_at(rhs, path)
        rule = rng.choice(_REWRITES)
        new = rule(rng, cfg, sub)
        if new is None or new is sub:
            continue
        rhs = _replace_at(rhs, path, new)
        wanted -= 1
    return lhs, rhs


# --------------------------------------------------------------------------
# random formulas in the characteristic sublogics


def rand_formula(rng, alphabet=("a", "b"), depth=3, cls="Lbc"):
    """A random formula of the given sublogic (``"Lbc"`` or ``"Lbcr"``)."""
    if cls == "Lbc":
        return _rand_lbc(rng, tuple(alphabet), depth)
    if cls == "Lbcr":
        return _rand_lbcr(rng, tuple(alphabet), depth)
    raise TxbisimError(f"unknown sublogic {cls!r}")


def _rand_lbc(rng, alphabet, depth):
    stable = Eps(Not(Diamond("tau", TOP)))
    if depth <= 0:
        return TOP if rng.random() < 0.6 else stable
    roll = rng.random()
    if roll < 0.15:
        return TOP
    if roll < 0.30:
        return And(
            (
                _rand_lbc(rng, alphabet, depth - 1),
                _rand_lbc(rng, alphabet, depth - 1),
            )
        )
    if roll < 0.45:
        return Not(_rand_lbc(rng, alphabet, depth - 1))
    if roll < 0.70:
        label = rng.choice(alphabet + ("tau",))
        return Eps(
            And(
                (
                    _rand_lbc(rng, alphabet, depth - 1),
                    HatDiamond(label, _rand_lbc(rng, alphabet, depth - 1)),
                )
            )
        )
    if roll < 0.90:
        return Eps(
            EnvDiamond(
                rand_env(rng, alphabet), _rand_lbc(rng, alphabet, depth - 1)
            )
        )
    return stable


def _rand_lbcr(rng, alphabet, depth):
    if depth <= 0:
        return TOP
    roll = rng.random()
    if roll < 0.12:
        return TOP
    if roll < 0.27:
        return And(
            (
                _rand_lbcr(rng, alphabet, depth - 1),
                _rand_lbcr(rng, alphabet, depth - 1),
            )
        )
    if roll < 0.42:
        return Not(_rand_lbcr(rng, alphabet, depth - 1))
    if roll < 0.75:
        label = rng.choice(alphabet + ("tau",))
        return Diamond(label, _rand_lbc(rng, alphabet, depth - 1))
    return EnvDiamond(
        rand_env(rng, alphabet), _rand_lbc(rng, alphabet, depth - 1)
    )
