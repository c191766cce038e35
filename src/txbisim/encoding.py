"""Closure of a transition system under a most general environment.

Each base state ``P`` is wrapped in two kinds of states: a *triggered* one,
where the surrounding environment is still choosing what to allow, and an
*allowing* one per subset ``X`` of a finite universe of visible actions.
Fresh labels connect them: ``eps_{...}`` settles the environment on a set,
``t_eps`` lets an idle environment time out and start choosing again.

The point of the construction: two states are (rooted) branching reactive
bisimilar exactly when their triggered wrappings are (rooted) stability
respecting branching bisimilar, and likewise for the environment-indexed
variants via the allowing wrappings.  This turns the reactive equivalences
into plain ones at the price of a ``2^|universe|`` blow-up, which is why the
universe is capped and canonicalised to the actions the compared processes
can actually perform.

Transition table, writing ``D(P, X)`` for "P has no internal step and
nothing in X on offer":

==================  =========  ==================  ======================
source              label      target              condition
==================  =========  ==================  ======================
triggered P         alpha      triggered P'        P -alpha-> P', alpha not t
triggered P         eps_X      allowing(X) P       every X in the universe
allowing(X) P       tau        allowing(X) P'      P -tau-> P'
allowing(X) P       a          triggered P'        P -a-> P', a in X
allowing(X) P       t_eps      triggered P         D(P, X)
allowing(X) P       t          allowing(X) P'      D(P, X), P -t-> P'
==================  =========  ==================  ======================
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import AlphabetLimitError, StateBudgetError
from .lts import Lts
from .semantics import max_states_budget
from .terms import EnvSet

__all__ = [
    "EncState",
    "encode",
    "eps_label",
    "MAX_UNIVERSE",
]

MAX_UNIVERSE = 12


def check_universe(universe):
    if len(universe) > MAX_UNIVERSE:
        raise AlphabetLimitError(
            f"universe of {len(universe)} visible actions needs "
            f"2^{len(universe)} environment sets; restrict the alphabet to "
            f"at most {MAX_UNIVERSE} actions"
        )


def eps_label(names):
    """The settling label for an environment set, e.g. ``eps_{a,b}``."""
    return "eps_{" + ",".join(names) + "}"


@dataclass(frozen=True, slots=True)
class EncState:
    """A base state wrapped in an environment: triggered when mode is None,
    otherwise allowing exactly the actions in ``mode``."""

    mode: tuple | None
    inner: object

    @property
    def triggered(self):
        return self.mode is None


def _subsets(names):
    out = [()]
    for name in names:
        out += [sub + (name,) for sub in out]
    return sorted(out)


def encode(base, universe, max_states=None):
    """The environment closure of a system, reachable part only.

    ``universe`` must contain every visible label of the base system.  The
    result's roots are the triggered wrappings of the base roots; allowing
    wrappings are reachable from them by settling transitions.
    """
    check_universe(universe)
    visible = {
        lab for _, lab, _ in base.transitions() if lab not in ("tau", "t")
    }
    stray = visible - set(universe)
    if stray:
        raise AlphabetLimitError(
            "universe must cover the visible labels; missing: "
            + ", ".join(sorted(stray))
        )
    budget = max_states_budget(max_states)
    modes = _subsets(tuple(universe))
    mode_sets = {m: frozenset(m) for m in modes}

    roots = tuple(EncState(None, r) for r in base.roots)
    seen: dict[EncState, None] = {}
    queue: list[EncState] = []

    def admit(state):
        if state not in seen:
            if len(seen) >= budget:
                raise StateBudgetError(budget, text(state))
            seen[state] = None
            queue.append(state)
        return state

    def text(state):
        inner = base.state_text(state.inner)
        if state.mode is None:
            return inner
        return "[{" + ",".join(state.mode) + "}] " + inner

    for r in roots:
        admit(r)
    edges = []
    at = 0
    while at < len(queue):
        src = queue[at]
        at += 1
        inner_moves = base.transitions_from(src.inner)
        if src.mode is None:
            for lab, dst in inner_moves:
                if lab != "t":
                    edges.append((src, lab, admit(EncState(None, dst))))
            for m in modes:
                edges.append((src, eps_label(m), admit(EncState(m, src.inner))))
        else:
            allowed = mode_sets[src.mode]
            quiet = all(
                lab == "t" or (lab != "tau" and lab not in allowed)
                for lab, _ in inner_moves
            )
            for lab, dst in inner_moves:
                if lab == "tau":
                    edges.append((src, lab, admit(EncState(src.mode, dst))))
                elif lab == "t":
                    if quiet:
                        edges.append((src, lab, admit(EncState(src.mode, dst))))
                elif lab in allowed:
                    edges.append((src, lab, admit(EncState(None, dst))))
            if quiet:
                edges.append((src, "t_eps", admit(EncState(None, src.inner))))
    return Lts(queue, edges, roots, state_text=text)
