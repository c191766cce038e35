"""Structural operational semantics and state-space exploration.

``derive`` computes the outgoing transitions of a closed term by the
transition rules of the language:

* ``alpha.E`` performs ``alpha`` and becomes ``E``; sums offer the
  transitions of their summands.
* Parallel components interleave on actions outside the synchronisation
  set (internal steps and time-outs always interleave) and move together
  on shared visible actions.
* Abstraction relabels hidden visible actions to ``tau`` and keeps the
  operator in the target; renaming maps a visible action to every related
  name, likewise keeping the operator.
* ``theta{L;U}`` keeps itself across internal steps, disappears when the
  body performs an action in ``U``, and also disappears around any step
  the body takes from a state where no action in ``L`` (and no internal
  step) is on offer: the operator models an environment that so far
  allows ``U``, will at least allow ``L``, and loses influence once it
  moves on.
* ``psi{X}`` disappears around every instantaneous step; a time-out taken
  while the body is quiescent under ``X`` leads into ``theta{X;X}`` of
  the target, freezing the environment that the time-out was taken in.
* A call ``<y|S>`` has the transitions of the defining body with every
  specification variable replaced by its call.

A term's transitions and its offered actions are kept on the interned node
itself (its ``moves`` and ``init`` slots), so repeated exploration is
cheap and the cache lives as long as the term.  While a node's transitions
are being computed its ``moves`` slot holds a marker, so a cycle of calls
that reaches itself without passing an action prefix is reported as
unguarded recursion; the marker is cleared when any error propagates.
"""

from __future__ import annotations

import os

from .errors import InvalidTermError, StateBudgetError, UnguardedRecursionError
from .lts import Lts
from .terms import (
    Abstract,
    Choice,
    Nil,
    Par,
    Prefix,
    Psi,
    RecCall,
    Rename,
    TAU,
    Term,
    Theta,
    mk_abstract,
    mk_par,
    mk_prefix,
    mk_rename,
    mk_theta,
    spec_close,
    sum_of,
    summands,
    term_text,
    visible,
)

__all__ = [
    "derive",
    "init_set",
    "is_stable",
    "deadend",
    "unfold",
    "explore",
    "head_normal_form",
    "DEFAULT_MAX_STATES",
    "max_states_budget",
]

DEFAULT_MAX_STATES = 10_000
MAX_STATES_ENV = "TXBISIM_MAX_STATES"

_IN_PROGRESS = object()


def derive(term):
    """Outgoing transitions of a closed term as a sorted (action, target) tuple."""
    moves = term.moves
    if moves is _IN_PROGRESS:
        raise UnguardedRecursionError(
            f"unguarded recursion at {term_text(term)}"
        )
    if moves is not None:
        return moves
    if not term.closed:
        raise InvalidTermError(
            f"cannot take transitions of an open term: {term_text(term)}"
        )
    term.moves = _IN_PROGRESS
    try:
        moves = _rules(term)
    except BaseException:
        term.moves = None
        raise
    term.moves = tuple(
        sorted(set(moves), key=lambda m: (m[0].sort_key(), m[1].uid))
    )
    return term.moves


def _rules(term):
    if isinstance(term, Nil):
        return []
    if isinstance(term, Prefix):
        return [(term.action, term.body)]
    if isinstance(term, Choice):
        # summand by summand, so a long sum derives without deep recursion
        # and its inner sums cache no moves of their own
        return [move for s in summands(term) for move in derive(s)]
    if isinstance(term, Par):
        return _par_rules(term)
    if isinstance(term, Abstract):
        out = []
        for act, target in derive(term.body):
            wrapped = mk_abstract(term.hide, target)
            if act.is_visible and act.name in term.hide:
                out.append((TAU, wrapped))
            else:
                out.append((act, wrapped))
        return out
    if isinstance(term, Rename):
        images: dict[str, list[str]] = {}
        for src, dst in term.pairs:
            images.setdefault(src, []).append(dst)
        out = []
        for act, target in derive(term.body):
            wrapped = mk_rename(term.pairs, target)
            if act.is_visible:
                for dst in images.get(act.name, ()):
                    out.append((visible(dst), wrapped))
            else:
                out.append((act, wrapped))
        return out
    if isinstance(term, Theta):
        return _theta_rules(term)
    if isinstance(term, Psi):
        return _psi_rules(term)
    if isinstance(term, RecCall):
        return list(derive(unfold(term)))
    raise InvalidTermError(f"no transition rules for {term!r}")


def _par_rules(term):
    sync = term.sync
    left_moves = derive(term.left)
    right_moves = derive(term.right)
    out = []
    for act, target in left_moves:
        if not (act.is_visible and act.name in sync):
            out.append((act, mk_par(target, sync, term.right)))
    for act, target in right_moves:
        if not (act.is_visible and act.name in sync):
            out.append((act, mk_par(term.left, sync, target)))
    for act, lt in left_moves:
        if act.is_visible and act.name in sync:
            for act2, rt in right_moves:
                if act2 == act:
                    out.append((act, mk_par(lt, sync, rt)))
    return out


def _theta_rules(term):
    moves = derive(term.body)
    quiet = deadend(term.body, term.lower)
    out = []
    for act, target in moves:
        if act is TAU:
            out.append((act, mk_theta(term.lower, term.upper, target)))
        elif act.is_visible and act.name in term.upper:
            out.append((act, target))
        if quiet:
            out.append((act, target))
    return out


def _psi_rules(term):
    moves = derive(term.body)
    quiet = deadend(term.body, term.env)
    out = []
    for act, target in moves:
        if act.in_a_tau:
            out.append((act, target))
        elif quiet:
            out.append((act, mk_theta(term.env, term.env, target)))
    return out


def unfold(call):
    """One unfolding of a recursive call: the body with calls for variables."""
    return spec_close(call.spec.body(call.var), call.spec)


def init_set(term):
    """Names of the instantaneous actions on offer (time-outs excluded)."""
    if term.init is None:
        term.init = frozenset(
            act.name for act, _ in derive(term) if act.in_a_tau
        )
    return term.init


def is_stable(term):
    return "tau" not in init_set(term)


def deadend(term, env):
    """No internal step and nothing the environment ``env`` allows."""
    offered = init_set(term)
    if "tau" in offered:
        return False
    return offered.isdisjoint(env)


def max_states_budget(explicit=None):
    """Resolve the exploration budget: argument, environment, default."""
    if explicit is not None:
        return explicit
    raw = os.environ.get(MAX_STATES_ENV)
    if raw:
        try:
            value = int(raw)
        except ValueError:
            raise InvalidTermError(
                f"{MAX_STATES_ENV} must be an integer, not {raw!r}"
            ) from None
        if value <= 0:
            raise InvalidTermError(f"{MAX_STATES_ENV} must be positive")
        return value
    return DEFAULT_MAX_STATES


def explore(root, max_states=None):
    """Breadth-first state space of a closed term, or of several at once.

    States are the interned terms themselves.  Raises when the number of
    distinct states would pass the budget, naming the first state left
    unexplored.
    """
    budget = max_states_budget(max_states)
    roots = (root,) if isinstance(root, Term) else tuple(root)
    seen: dict[Term, int] = {}
    queue = []

    def admit(term):
        if len(queue) >= budget:
            raise StateBudgetError(budget, term_text(term))
        got = seen[term] = len(queue)
        queue.append(term)
        return got

    for r in roots:
        if r not in seen:
            admit(r)
    edges = []
    at = 0
    while at < len(queue):
        for act, target in derive(queue[at]):
            got = seen.get(target)
            edges.append((at, act.name, admit(target) if got is None else got))
        at += 1
    return Lts.from_indexed(queue, edges, roots, state_text=term_text)


def head_normal_form(term):
    """The one-step expansion of a term: a sum of prefixes over its moves.

    The result has exactly the transitions of the original, so the two are
    strongly bisimilar.
    """
    return sum_of(mk_prefix(act, target) for act, target in derive(term))
