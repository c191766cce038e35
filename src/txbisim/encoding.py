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

The closure (:class:`Closure`) is built on indices, and the table above is
written once, in its breadth-first loop.  A wrapper is keyed by its base
state and its environment column (:func:`env_columns`), the same index the
direct route's table uses: the mask of the actions it allows, or one
triggered column past them.  A wrapper is numbered when it is first
reached, breadth first from the triggered wrappings of the base roots: a
state's successors in the order of its base steps, then its settlings in
the order of their sets' names.  Each wrapper keeps
its moves as ``(label code, wrapper)`` pairs, which is all the encode
route reads, for its answers and reasons alike, so no check makes a
wrapper object.  A tau step keeps its environment, so the tau steps of the
closure are those of the base copied into each environment.  Its tau
components, and the states that can reach a stable one, are therefore
lifted from the base system, not recomputed.  :func:`encode` gives the
same closure as an ordinary :class:`~txbisim.lts.Lts` of :class:`EncState`
wrappers, numbered alike; :attr:`Closure.lts` builds it from the coded
table when first read.

Both routes read one bit-level view of the explored system,
:class:`_Profile`: its columns, each state's visible mask and its
stability.  The direct route's table and clauses (:mod:`txbisim.equiv`)
are indexed by it, and a closure is built from it, so a check derives these
facts once, and the profile's check that the universe covers every visible
label is the only one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .errors import AlphabetLimitError, StateBudgetError, TxbisimError
from .lts import Lts
from .semantics import max_states_budget

__all__ = [
    "Closure",
    "EncState",
    "encode",
    "env_columns",
    "eps_label",
    "MAX_UNIVERSE",
]

MAX_UNIVERSE = 12


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


@lru_cache(maxsize=32)
def env_columns(universe):
    """``(bit, names, trig)``, the columns that index both the direct
    route's table and the closure's wrappers: ``bit[a]`` is ``1 << k`` for
    the ``k``-th action of ``universe``, column ``x < trig`` allows the
    actions ``names[x]`` of mask ``x``, and ``trig``, whose bit lies outside
    every environment, is the triggered column.  The result is cached and
    shared, so no caller may change it.  A universe of more than
    :data:`MAX_UNIVERSE` actions raises :class:`AlphabetLimitError`."""
    if len(universe) > MAX_UNIVERSE:
        raise AlphabetLimitError(
            f"universe of {len(universe)} visible actions needs "
            f"2^{len(universe)} environment sets; restrict the alphabet to "
            f"at most {MAX_UNIVERSE} actions"
        )
    bit = {a: 1 << k for k, a in enumerate(universe)}
    # bit k joins as the last name of every mask that holds it
    names = [()]
    for a in universe:
        names += [got + (a,) for got in names]
    return bit, tuple(names), len(names)


class _Profile:
    """Bit-level view of one system against a fixed environment universe.

    The columns are those of :func:`env_columns`, which also key the
    closure's wrappers: environments are masks over the universe, ``0 ..
    trig-1``, and ``names[x]`` lists the actions of mask ``x``.  ``trig``,
    one past them, names the pair row's column in the direct route's table:
    its bit lies outside every environment, so ``deadend(p, trig)`` is
    ``stable[p]``.  ``init_vis[p]`` is the mask of the visible labels of
    ``p``'s steps.  A universe that misses a visible label of the system is
    refused with :class:`AlphabetLimitError`, which names every missing
    label.
    """

    __slots__ = (
        "lts",
        "n",
        "full",
        "trig",
        "umask",
        "ubit",
        "stable",
        "unstable",
        "init_vis",
        "notinit",
        "names",
        "_subs",
        "_idle",
        "_clauses",
    )

    def __init__(self, lts, universe):
        self.lts = lts
        self.n = lts.n_states
        self.full = (1 << self.n) - 1
        self.ubit, self.names, self.trig = env_columns(tuple(universe))
        self.umask = self.trig - 1
        init_vis = []
        for moves in lts.moves:
            vis = 0
            for lab, _ in moves:
                if lab not in ("tau", "t"):
                    bit = self.ubit.get(lab)
                    if bit is None:
                        stray = set(lts.labels) - {"tau", "t"} - set(self.ubit)
                        raise AlphabetLimitError(
                            "universe must cover the visible labels; missing: "
                            + ", ".join(sorted(stray))
                        )
                    vis |= bit
            init_vis.append(vis)
        self.init_vis = tuple(init_vis)
        self.stable = tuple(lts.is_stable(i) for i in range(self.n))
        self.unstable = self.full & ~lts.stable_mask
        self.notinit = tuple(self.umask & ~vis for vis in init_vis)
        self._subs = {}
        self._idle = {}
        self._clauses = [[None] * (self.trig + 1) for _ in range(self.n)]

    def env_mask(self, names):
        mask = 0
        for a in names:
            bit = self.ubit.get(a)
            if bit is None:
                raise TxbisimError(f"action {a!r} is outside the universe")
            mask |= bit
        return mask

    def submasks_of(self, mask):
        """All submasks of ``mask``, ascending (the empty set first)."""
        cached = self._subs.get(mask)
        if cached is None:
            subs = []
            sub = mask
            while True:
                subs.append(sub)
                if sub == 0:
                    break
                sub = (sub - 1) & mask
            cached = self._subs[mask] = tuple(sorted(subs))
        return cached

    def deadend(self, i, xmask):
        return self.stable[i] and not self.init_vis[i] & xmask

    def idle(self, xmask):
        """The dead ends under ``xmask`` as a mask, kept once computed."""
        if xmask not in self._idle:
            self._idle[xmask] = sum(
                1 << i for i in range(self.n) if self.deadend(i, xmask))
        return self._idle[xmask]

    def clauses(self, p, x):
        """The step clauses of the row of ``p`` in column ``x`` as
        ``(label, p2, col, env)``, in ``lts.moves`` order, compiled when
        first asked for.

        Each clause asks for a match into the row of ``p2`` in column
        ``col``, where ``col`` None names the row's own column ``x``.  For a
        move ``env`` is None.  In the pair column every visible move
        counts; under an environment only the allowed ones, or all of them
        from a dead end.  A tau step is matched within the own column, a
        visible step in the pair column.  From a dead end a time-out gives
        one clause for each environment ``col`` that extends this one with
        actions ``p`` refuses, and ``env`` names its actions.  Under an
        environment the clauses depend on ``x`` only through the actions
        ``p`` can do, ``x & init_vis[p]``, so the columns that agree there
        share one compiled tuple.
        """
        key = x if x == self.trig else x & self.init_vis[p]
        got = self._clauses[p][key]
        if got is None:
            allow = self.umask if x == self.trig else x
            quiet = self.deadend(p, x)
            got = []
            for lab, p2 in self.lts.moves[p]:
                if lab == "t":
                    if quiet:
                        got.extend(
                            (lab, p2, y, self.names[y])
                            for y in self.submasks_of(self.notinit[p])
                        )
                elif lab == "tau":
                    got.append((lab, p2, None, None))
                elif self.ubit[lab] & allow or quiet:
                    got.append((lab, p2, self.trig, None))
            got = self._clauses[p][key] = tuple(got)
        return got


class Closure:
    """The environment closure of a system on indices, reachable part only.

    The base system, its universe's columns, and each base state's visible
    mask and stability are read off the profile ``pf`` (:class:`_Profile`).
    The wrappers are numbered breadth first from the triggered wrappings of
    the base roots; a time-out fires from an idle wrapper alone, as the
    direct route's clause asks.  Wrapper ``k`` has the moves ``coded_moves[k]``,
    pairs ``(code, j)`` whose label is ``labels[code]``; ``tau_sccs`` and
    ``can_reach_stable_mask`` are those of :class:`~txbisim.lts.Lts`,
    lifted from the base system.  A wrapper is keyed by its base state and
    its column of :func:`env_columns`: ``trig`` for a triggered wrapper,
    else the mask of the actions it allows.  :meth:`index` finds a wrapper
    by column and base state, :meth:`wrappings` gives each wrapper's base
    state and column, and :attr:`lts` is the closure as a system of
    :class:`EncState` wrappers with the same numbering, built when first
    read.
    """

    def __init__(self, pf, max_states=None):
        base, bit, names, trig = pf.lts, pf.ubit, pf.names, pf.trig
        stable, vis = pf.stable, pf.init_vis
        budget = max_states_budget(max_states)
        width = trig + 1
        # the allowing columns in settling order, sorted by their names
        order = sorted(range(trig), key=names.__getitem__)
        labels = tuple(dict.fromkeys(
            (*base.labels, "t_eps", *(eps_label(names[x]) for x in order))
        ))
        codes = {lab: k for k, lab in enumerate(labels)}
        tau, t, t_eps = codes.get("tau"), codes.get("t"), codes["t_eps"]
        settle = [(x, codes[eps_label(names[x])]) for x in order]
        # per base state its steps as (code, j, bit of a visible label)
        steps = [
            tuple((codes[lab], j, bit.get(lab, 0)) for lab, j in moves)
            for moves in base.moves
        ]
        self.base = base
        self.labels = labels
        self.trig = trig
        self._names = names
        self._columns = (trig, *order)

        # a state is the key base index * width + column until it is numbered
        seen = self._seen = {}
        keys = self._keys = []

        def admit(key):
            if len(keys) >= budget:
                raise StateBudgetError(budget, self._text(self._wrap(key)))
            got = seen[key] = len(keys)
            keys.append(key)
            return got

        for key in dict.fromkeys(base.index[r] * width + trig for r in base.roots):
            admit(key)
        table = []
        at = 0
        while at < len(keys):
            i, x = divmod(keys[at], width)
            # the successors of state ``at`` as (code, key), in base step order
            if x != trig:
                quiet = stable[i] and not vis[i] & x
                succ = []
                for k, j, b in steps[i]:
                    if k == tau or k == t and quiet:
                        succ.append((k, j * width + x))
                    elif b & x:
                        succ.append((k, j * width + trig))
                if quiet:
                    succ.append((t_eps, i * width + trig))
            else:
                succ = [(k, j * width + trig) for k, j, _ in steps[i] if k != t]
                succ += [(k, i * width + y) for y, k in settle]
            own = [(k, seen[key] if key in seen else admit(key)) for k, key in succ]
            table.append(tuple(own))
            at += 1
        self.coded_moves = tuple(table)
        self.n_transitions = sum(map(len, table))
        self._lift_tau_structure()

    @property
    def n_states(self):
        return len(self._keys)

    def index(self, x, i):
        """The number of the wrapping of base state index ``i`` in column
        ``x``."""
        return self._seen[i * (self.trig + 1) + x]

    def wrappings(self):
        """Each wrapper's base state index and column, in wrapper order."""
        width = self.trig + 1
        return [divmod(key, width) for key in self._keys]

    def _wrap(self, key):
        i, x = divmod(key, self.trig + 1)
        mode = None if x == self.trig else self._names[x]
        return EncState(mode, self.base.states[i])

    def _text(self, state):
        inner = self.base.state_text(state.inner)
        if state.mode is None:
            return inner
        return "[{" + ",".join(state.mode) + "}] " + inner

    @cached_property
    def lts(self):
        """The closure as a system whose states are :class:`EncState`
        wrappers, numbered as here, its roots the triggered wrappings of the
        base roots."""
        labels = self.labels
        out = Lts.from_indexed(
            map(self._wrap, self._keys),
            [(i, labels[k], j) for i, own in enumerate(self.coded_moves)
             for k, j in own],
            (EncState(None, r) for r in self.base.roots),
            state_text=self._text,
        )
        # set in place of the cached properties, which then never compute them
        out.tau_sccs = self.tau_sccs
        out.can_reach_stable_mask = self.can_reach_stable_mask
        return out

    def _lift_tau_structure(self):
        """Read the tau components, and the states that can reach a stable
        one, off the base system.

        A tau step keeps its column, so the tau steps of the closure are
        those of the base copied into every column; the states reached in a
        column are closed under them, so each base component is reached in a
        column whole or not at all.  Taking the base components in order and
        their columns within (the triggered one first, then the settling
        order) keeps every component after all components it reaches.  A
        wrapping reaches a stable state exactly when its base state does.
        """
        base, seen, width = self.base, self._seen, self.trig + 1
        reach = base.can_reach_stable_mask
        sccs = []
        mask = 0
        for comp in base.tau_sccs:
            good = reach >> comp[0] & 1
            for x in self._columns:
                if comp[0] * width + x in seen:
                    lifted = [seen[i * width + x] for i in comp]
                    sccs.append(lifted)
                    if good:
                        for k in lifted:
                            mask |= 1 << k
        self.tau_sccs = sccs
        self.can_reach_stable_mask = mask


def encode(base, universe, max_states=None):
    """The environment closure of a system as a system of
    :class:`EncState` wrappers: :attr:`Closure.lts`.

    ``universe`` must contain every visible label of the base system.  Its
    roots are the triggered wrappings of the base roots; allowing wrappings
    are reachable from them by settling transitions.  Its states are
    admitted breadth first, and its tau components and the states that can
    reach a stable one come lifted from the base system.
    """
    return Closure(_Profile(base, universe), max_states).lts
