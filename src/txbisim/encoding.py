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

The closure is built on indices.  A wrapper is numbered when it is first
reached, breadth first from the triggered roots: a state's successors in
the order of its base steps, then its settlings in subset order.  The
transitions go to :class:`~txbisim.lts.Lts` as index triples, and each
:class:`EncState` is made once, at the end.  A tau step keeps its
environment, so the tau steps of the closure are those of the base copied
into each environment.  Its tau components, and the states that can reach
a stable one, are therefore lifted from the base system, not recomputed.
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
    wrappings are reachable from them by settling transitions.  Its states
    are admitted breadth first, and its tau components and the states that
    can reach a stable one come lifted from the base system.
    """
    check_universe(universe)
    names = tuple(universe)
    stray = set(base.labels) - {"tau", "t"} - set(names)
    if stray:
        raise AlphabetLimitError(
            "universe must cover the visible labels; missing: "
            + ", ".join(sorted(stray))
        )
    budget = max_states_budget(max_states)
    bit = {a: 1 << k for k, a in enumerate(names)}
    # slot 0 is the triggered wrapping, slot s > 0 allows modes[s - 1]
    modes = _subsets(names)
    width = len(modes) + 1
    allowed = [0] + [sum(bit[a] for a in m) for m in modes]
    settle = [(s, eps_label(m)) for s, m in enumerate(modes, 1)]
    # per base state its steps with the bit of a visible label, and the
    # mask of its visible labels
    steps = []
    vis = []
    for moves in base.moves:
        own = tuple((lab, j, bit.get(lab, 0)) for lab, j in moves)
        steps.append(own)
        mask = 0
        for _, _, b in own:
            mask |= b
        vis.append(mask)
    stable = [base.is_stable(i) for i in range(base.n_states)]

    # a state is the key base index * width + slot until it is numbered
    seen: dict[int, int] = {}
    queue: list[int] = []

    def admit(key):
        if len(queue) >= budget:
            raise StateBudgetError(budget, text(wrap(key)))
        got = seen[key] = len(queue)
        queue.append(key)
        return got

    def wrap(key):
        i, s = divmod(key, width)
        return EncState(modes[s - 1] if s else None, base.states[i])

    def text(state):
        inner = base.state_text(state.inner)
        if state.mode is None:
            return inner
        return "[{" + ",".join(state.mode) + "}] " + inner

    index = base.index
    for r in base.roots:
        if index[r] * width not in seen:
            admit(index[r] * width)
    edges = []
    at = 0
    while at < len(queue):
        i, s = divmod(queue[at], width)
        # the successors of state ``at`` as (label, key), in base step order
        if s:
            mask = allowed[s]
            quiet = stable[i] and not vis[i] & mask
            succ = []
            for lab, j, b in steps[i]:
                if lab == "tau" or lab == "t" and quiet:
                    succ.append((lab, j * width + s))
                elif b & mask:
                    succ.append((lab, j * width))
            if quiet:
                succ.append(("t_eps", i * width))
        else:
            succ = [(lab, j * width) for lab, j, _ in steps[i] if lab != "t"]
            succ += [(lab, i * width + s2) for s2, lab in settle]
        for lab, key in succ:
            got = seen.get(key)
            edges.append((at, lab, admit(key) if got is None else got))
        at += 1
    out = Lts.from_indexed(
        map(wrap, queue),
        edges,
        (EncState(None, r) for r in base.roots),
        state_text=text,
    )
    _lift_tau_structure(base, out, seen, width)
    return out


def _lift_tau_structure(base, out, seen, width):
    """Give ``out`` the tau components and the states that can reach a
    stable one, read off ``base``.

    A tau step keeps its slot, so the tau steps of the encoding are those of
    the base copied into every slot; the states reached in a slot are closed
    under them, so each base component is reached in a slot whole or not at
    all.  Taking the base components in order and their slots within keeps
    every component after all components it reaches.  A wrapping reaches a
    stable state exactly when its base state does.
    """
    reach = base.can_reach_stable_mask
    sccs = []
    mask = 0
    for comp in base.tau_sccs:
        good = reach >> comp[0] & 1
        for s in range(width):
            if comp[0] * width + s in seen:
                lifted = [seen[i * width + s] for i in comp]
                sccs.append(lifted)
                if good:
                    for k in lifted:
                        mask |= 1 << k
    # set in place of the cached properties, which then never compute them
    out.tau_sccs = sccs
    out.can_reach_stable_mask = mask
