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
nothing in X on offer", and ``X/P`` for ``X & M+(P)``, the set cut to the
visible actions ``M+(P)`` of the states ``P`` reaches by tau and t steps
(:attr:`_Profile.mplus`):

==================  =========  ==================  ======================
source              label      target              condition
==================  =========  ==================  ======================
triggered P         alpha      triggered P'        P -alpha-> P', alpha not t
triggered P         eps_X      allowing(X/P) P     every X in the universe
allowing(X) P       tau        allowing(X/P') P'   P -tau-> P'
allowing(X) P       a          triggered P'        P -a-> P', a in X
allowing(X) P       t_eps      triggered P         D(P, X)
allowing(X) P       t          allowing(X/P') P'   D(P, X), P -t-> P'
==================  =========  ==================  ======================

This is the closure a check builds, keyed by relevant environments.  The
literal closure of the paper allows ``X`` itself in every wrapper: it is
the table read with ``M+(P)`` the whole universe, which is what
:func:`encode` builds.  The two are strongly bisimilar, wrapper by wrapper:
``allowing(X) P`` of the literal closure is related to ``allowing(X/P) P``
and every triggered wrapper to itself, and this relation is a strong
bisimulation between them.  A tau or t step keeps its set, and ``M+`` only
shrinks along it, so ``(X/P)/P' = X/P'`` and the steps land on related
wrappers.  A visible step needs an action in ``X`` that ``P`` can do, and
``init(P)`` lies inside ``M+(P)``, so ``X`` and ``X/P`` allow the same
ones.  Idleness, and with it ``t_eps`` and the t steps, reads only ``X``
against ``init(P)``.  Strong bisimilarity lies inside stability
respecting branching bisimilarity, so every answer read off either closure
is the same.  The members of a tau component reach each other, so they
share one ``M+``, and a component is still reached in a column whole or
not at all.

A check asks about few columns: the pair column and its own, closed under
what their rows' clauses read into a set ``R`` (:meth:`_Profile.reads`).
Its closure ``C_R`` lets a triggered wrapper settle only into the allowing
columns of ``R``; every other step of the table stays.  Write ``C`` for the
closure that settles into every column, and ``G`` for the direct route's
greatest relation.  Read as a table over ``R``, the relation of ``C_R`` is
``G`` there:

(1) ``G``'s pair column lies inside every column.  In ``C`` a triggered
    wrapper's step ``eps_Y`` asks that its partner, after an inert path,
    which stays triggered, settle on ``Y`` into a wrapper related to its
    own; where ``G`` relates the two triggered wrappers as a pair, it
    relates them in ``Y`` too.  A dropped ``eps_Y`` with ``Y`` outside
    ``R`` thus only removes constraints that ``G`` already implies.
(2) Each step of a wrapper in ``C_R`` is matched in ``C`` by an inert path
    and a step of the same kind, and ``C_R`` holds both: inert paths use
    tau steps only, which ``C_R`` keeps, and a settling step it holds is
    matched by one on the same set.  So ``G``, read on the wrappers of
    ``C_R``, is a stability respecting branching bisimulation there, and
    lies inside the relation of ``C_R``.
(3) The relation of ``C_R``, read as a table over ``R``, satisfies the
    clauses of every row in ``R``, read off its steps as they are off
    ``C``'s: a time-out into the environment ``Y`` goes by ``t_eps`` and
    ``eps_Y``, and ``Y`` lies in ``R``, which holds what its rows read.
    Those clauses read only ``R``, so the table lies inside the direct
    fixpoint over ``R``, which is ``G`` there.

So a check reads its answer, its reason and the certificate of ``both``
off ``C_R``, and a witness, which is over every column, off ``C``.

The closure (:class:`Closure`) is built on indices, and the table above is
written once, in its breadth-first loop.  A wrapper is keyed by its base
state and its environment column (:func:`env_columns`), the same index the
direct route's table uses: the mask of the actions it allows, cut to the
state's relevant mask, or one triggered column past them.  A wrapper is
numbered when it is first reached, breadth first from the triggered
wrappings of the base roots: a state's successors in the order of its
base steps, then its settlings in the order of their sets' names, several
of which may land on one cut wrapper.  Each wrapper keeps its moves as
``(label code, wrapper)`` pairs, which is all the encode route reads, for
its answers and reasons alike, so no check makes a wrapper object.  A tau
step keeps its environment, cut alike, so the tau steps of the closure are
those of the base copied into each environment.  Its tau components, and
the states that can reach a stable one, are therefore lifted from the
base system, not recomputed.  The closure's labels begin with the base
system's, so a base step keeps its code and the loop reads the base's
coded moves; ``t_eps`` and the settling labels follow, cached per
universe and columns beside :func:`env_columns`.

A closure that settles into no allowing column, over a system with no
time-out step, reaches no allowing wrapper, and a triggered wrapper drops
only time-outs, so its triggered wrappers take exactly the base steps: it
is the base system itself.  It numbers wrapper ``i`` as base state ``i``
and reads the system's own coded moves, tau components and stable reach,
with no breadth-first loop and no lift; its wrappers are then every base
state, which for an explored system are those the loop would reach.
:attr:`Closure.lts` gives a
closure as an ordinary :class:`~txbisim.lts.Lts` of :class:`EncState`
wrappers, numbered alike, built from the coded table when first read;
:func:`encode` gives the literal closure so.

Both routes read one bit-level view of the explored system,
:class:`_Profile`: its columns, each state's visible mask and its
stability.  The direct route's table and clauses (:mod:`txbisim.equiv`)
are indexed by it, and a closure is built from it, so a check derives these
facts once, and the profile's check that the universe covers every visible
label is the only one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import AlphabetLimitError, StateBudgetError, TxbisimError
from .lts import Lts, lazy
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


@lru_cache(maxsize=64)
def _settlings(universe, columns, first):
    """The allowing columns of :func:`env_columns` of ``universe`` sorted
    by their names, then the labels of the settlings into those of
    ``columns`` (every one when None) in that order, and the settlings as
    ``(column, code)`` pairs, coded from ``first`` up; cached beside the
    columns themselves."""
    _, names, trig = env_columns(universe)
    order = tuple(sorted(range(trig), key=names.__getitem__))
    settled = [x for x in order if columns is None or x in columns]
    return (order, tuple(eps_label(names[x]) for x in settled),
            tuple(zip(settled, range(first, first + len(settled)))))


class _Profile:
    """Bit-level view of one system against a fixed environment universe.

    The columns are those of :func:`env_columns`, which also key the
    closure's wrappers: environments are masks over the universe, ``0 ..
    trig-1``, and ``names[x]`` lists the actions of mask ``x``.  ``trig``,
    one past them, names the pair row's column in the direct route's table:
    its bit lies outside every environment, so ``deadend(p, trig)`` is
    ``stable[p]``.  ``init_vis[p]`` is the mask of the visible labels of
    ``p``'s steps, :attr:`mplus` the relevant mask that keys the
    closure's wrappers, and :attr:`mtau` its tau counterpart, on which the
    direct route's fixpoint starts.  :meth:`clauses` compiles a row's step
    clauses, and :meth:`first_step` names the steps that may match one as
    a rooted first step.  A universe that misses a visible label of the
    system is refused with :class:`AlphabetLimitError`, which names every
    missing label.
    """

    __slots__ = (
        "lts",
        "universe",
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
        "_reads",
        "_mplus",
        "_mtau",
    )

    def __init__(self, lts, universe):
        self.lts = lts
        self.n = lts.n_states
        self.full = (1 << self.n) - 1
        self.universe = tuple(universe)
        self.ubit, self.names, self.trig = env_columns(self.universe)
        self.umask = self.trig - 1
        ubit = self.ubit
        init_vis = []
        stable = []
        unstable = 0
        # each state's labels once, from the same dict as its stability
        for i in range(self.n):
            labs = lts.out_labels(i)
            vis = 0
            for lab in labs:
                if lab != "tau" and lab != "t":
                    bit = ubit.get(lab)
                    if bit is None:
                        stray = set(lts.labels) - {"tau", "t"} - set(ubit)
                        raise AlphabetLimitError(
                            "universe must cover the visible labels; missing: "
                            + ", ".join(sorted(stray))
                        )
                    vis |= bit
            init_vis.append(vis)
            stable.append("tau" not in labs)
            if "tau" in labs:
                unstable |= 1 << i
        self.init_vis = tuple(init_vis)
        self.stable = tuple(stable)
        self.unstable = unstable
        self.notinit = tuple(self.umask & ~vis for vis in init_vis)
        self._subs = {}
        self._idle = {}
        self._clauses = [[None] * (self.trig + 1) for _ in range(self.n)]
        self._reads = {}
        self._mplus = None
        self._mtau = None

    @property
    def mplus(self):
        """``mplus[i]``, the mask of the visible labels of the steps of the
        states that ``i`` reaches by tau and t steps, ``i`` included: all of
        an environment that an allowing wrapper of ``i`` can ever read, as
        it keeps its set across both.  Computed when first read
        (:meth:`_reach_vis`)."""
        if self._mplus is None:
            self._mplus = self._reach_vis(("tau", "t"))
        return self._mplus

    @property
    def mtau(self):
        """``mtau[i]``, the tau counterpart of :attr:`mplus`: the mask of the
        visible labels of the steps of the states that ``i`` reaches by tau
        steps alone, ``i`` included.  Two states the direct route relates
        agree on it within their column (:meth:`apart`).  Computed when
        first read (:meth:`_reach_vis`)."""
        if self._mtau is None:
            self._mtau = self._reach_vis(("tau",))
        return self._mtau

    def _reach_vis(self, follow):
        """Each state's visible mask joined with those of the states it
        reaches by steps labelled in ``follow``, as a tuple: propagated to
        the predecessors by those steps from a work list that starts with
        every state that has one, the last first.  Exploration numbers
        states breadth first, so their successors are mostly done before
        them, and a cycle is closed by the states it pushes again."""
        got = list(self.init_vis)
        preds = {}
        for i, lab, j in self.lts.trans_idx:
            if lab in follow:
                preds.setdefault(j, []).append(i)
        todo = sorted(preds)
        while todo:
            j = todo.pop()
            mask = got[j]
            for i in preds[j]:
                if mask & ~got[i]:
                    got[i] |= mask
                    if i in preds:
                        todo.append(i)
        return tuple(got)

    def apart(self, p, x, q):
        """The actions of column ``x``, every visible one in the pair
        column, that exactly one of ``p`` and ``q`` reaches by tau steps
        (:attr:`mtau`): nonzero only when the entry ``(p, x, q)`` lies
        outside the direct route's greatest relation."""
        cut = self.umask if x == self.trig else x
        return (self.mtau[p] ^ self.mtau[q]) & cut

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

    def reads(self, cols):
        """The columns ``cols`` together with every column the clauses of
        their rows read, transitively, ascending; every column when
        ``cols`` is None.  A row's own column counts, and a clause reads
        the column of its target row: its own for a tau step, the pair
        column for a visible one, its environment's for a time-out.  Kept
        once computed."""
        if cols is None:
            return range(self.trig + 1)
        key = frozenset(cols)
        got = self._reads.get(key)
        if got is None:
            seen = set(key)
            todo = list(key)
            while todo and len(seen) <= self.trig:
                x = todo.pop()
                for p in range(self.n):
                    for clause in self.clauses(p, x):
                        y = clause[2]
                        if y is not None and y not in seen:
                            seen.add(y)
                            todo.append(y)
            got = self._reads[key] = tuple(sorted(seen))
        return got

    def first_step(self, b, clause, x):
        """The mask of ``b``'s steps that may match the first-step ``clause``
        of a row in column ``x``, and the column they land in: those with
        the clause's label, but a time-out only if ``b`` is idle there."""
        lab, _, col, env = clause
        y = x if col is None else col
        idle = env is None or self.deadend(b, y)
        return (self.lts.succ_mask(b, lab) if idle else 0), y


class Closure:
    """The environment closure of a system on indices, reachable part only.

    The base system, its universe's columns, and each base state's visible
    mask and stability are read off the profile ``pf`` (:class:`_Profile`).
    ``relevant[i]`` is the mask an allowing wrapper of base state ``i``
    keeps of its set: :attr:`_Profile.mplus` unless given, which keys the
    closure by relevant environments, or the universe's mask for every
    state, which gives the literal closure (:func:`encode`); the module's
    text shows the two strongly bisimilar.  A triggered wrapper settles
    into the allowing columns of ``columns`` alone, kept as a frozenset in
    :attr:`columns`, or into every one when it is None; the module's text
    shows that a question's closure, settling into the columns ``R`` it
    reads, relates there what the closure over every column relates.  The
    wrappers are numbered breadth first from the triggered wrappings of the
    base roots; a time-out fires from an idle wrapper alone, as the direct
    route's clause asks.  Wrapper ``k`` has the moves ``coded_moves[k]``,
    pairs ``(code, j)`` whose label is ``labels[code]``, which begin with
    the base's labels, so a base step keeps its code; ``tau_sccs`` and
    ``can_reach_stable_mask`` are those of :class:`~txbisim.lts.Lts`,
    lifted from the base system.  A closure that settles into no allowing
    column, over a system with no time-out step, is the base system
    itself (:attr:`reused`): wrapper ``i`` is the triggered wrapping of
    base state ``i``, and the coded moves, tau components and stable reach
    are the system's own.  A wrapper is keyed by its base state and
    its column of :func:`env_columns`: ``trig`` for a triggered wrapper,
    else the mask of the actions it allows, within ``relevant``.
    :meth:`index` finds a wrapper by any column and base state, cutting
    the column to its key, :meth:`wrappings` gives each wrapper's base
    state and key column, and :attr:`lts` is the closure as a system of
    :class:`EncState` wrappers with the same numbering, built when first
    read.
    """

    def __init__(self, pf, max_states=None, relevant=None, columns=None):
        base, bit, trig = pf.lts, pf.ubit, pf.trig
        stable, vis = pf.stable, pf.init_vis
        self._pf = pf
        self.columns = None if columns is None else frozenset(columns)
        budget = max_states_budget(max_states)
        width = trig + 1
        self.base = base
        self.trig = trig
        self._names = pf.names
        if relevant is not None:
            self.relevant = relevant
        # triggered wrappers that settle nowhere and drop no time-out take
        # the base steps alone, and every base state is one
        self.reused = (self.columns is not None and self.columns <= {trig}
                       and "t" not in base.labels)
        if self.reused:
            self._keys = range(trig, base.n_states * width, width)
            if base.n_states > budget:
                left = self._wrap(self._keys[budget])
                raise StateBudgetError(budget, self._text(left))
            self._seen = {}
            self.labels = base.labels
            self.coded_moves = base.coded_moves
            self.n_transitions = base.n_transitions
            self.tau_sccs = base.tau_sccs
            self.can_reach_stable_mask = base.can_reach_stable_mask
            return
        relevant = self.relevant
        known = base.labels
        order, eps, settle = _settlings(pf.universe, self.columns, len(known) + 1)
        # a base step keeps its code, and the fresh labels come after
        self.labels = (*known, "t_eps", *eps)
        tau = known.index("tau") if "tau" in known else None
        t = known.index("t") if "t" in known else None
        t_eps = len(known)
        # per code of a base label its bit in the universe, 0 for tau and t
        cbit = [bit.get(lab, 0) for lab in known]
        steps = base.coded_moves
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
                for k, j in steps[i]:
                    if k == tau or k == t and quiet:
                        succ.append((k, j * width + (x & relevant[j])))
                    elif cbit[k] & x:
                        succ.append((k, j * width + trig))
                if quiet:
                    succ.append((t_eps, i * width + trig))
            else:
                succ = [(k, j * width + trig) for k, j in steps[i] if k != t]
                keep = relevant[i]
                succ += [(k, i * width + (y & keep)) for y, k in settle]
            own = [(k, seen[key] if key in seen else admit(key)) for k, key in succ]
            table.append(tuple(own))
            at += 1
        self.coded_moves = tuple(table)
        self.n_transitions = sum(map(len, table))
        self._lift_tau_structure()

    @lazy
    def relevant(self):
        """``relevant[i]``, the mask an allowing wrapper of base state ``i``
        keeps of its set: :attr:`_Profile.mplus` unless given."""
        return self._pf.mplus

    @property
    def n_states(self):
        return len(self._keys)

    def index(self, x, i):
        """The number of the wrapping of base state index ``i`` in column
        ``x``: the wrapper keyed by ``x`` within ``relevant[i]``, or by
        ``trig`` itself."""
        if x != self.trig:
            x &= self.relevant[i]
        elif self.reused:
            return i
        return self._seen[i * (self.trig + 1) + x]

    def wrappings(self):
        """Each wrapper's base state index and key column, in wrapper
        order."""
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

    @lazy
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

        A tau step keeps its column, cut to the target's relevant mask, and
        the members of a base component share that mask (they reach each
        other by tau steps), so the tau steps of the closure are those of
        the base copied into every key column within it; the states reached
        in a column are closed under them, so each base component is
        reached in a column whole or not at all.  Taking the base
        components in order and their key columns within (the triggered one
        first, then the settling order) keeps every component after all
        components it reaches.  A wrapping reaches a stable state exactly
        when its base state does.
        """
        base, seen, width = self.base, self._seen, self.trig + 1
        reach = base.can_reach_stable_mask
        within = {}
        sccs = []
        mask = 0
        for comp in base.tau_sccs:
            good = reach >> comp[0] & 1
            own = self.relevant[comp[0]]
            if own not in within:
                within[own] = [x for x in self._columns
                               if x == self.trig or not x & ~own]
            for x in within[own]:
                if comp[0] * width + x in seen:
                    lifted = [seen[i * width + x] for i in comp]
                    sccs.append(lifted)
                    if good:
                        for k in lifted:
                            mask |= 1 << k
        self.tau_sccs = sccs
        self.can_reach_stable_mask = mask


def encode(base, universe, max_states=None):
    """The literal environment closure of a system as a system of
    :class:`EncState` wrappers: the :attr:`Closure.lts` of a closure whose
    relevant mask is the whole universe for every state, so that an
    allowing wrapper keeps every set it settles on.

    ``universe`` must contain every visible label of the base system.  Its
    roots are the triggered wrappings of the base roots; allowing wrappings
    are reachable from them by settling transitions.  Its states are
    admitted breadth first, and its tau components and the states that can
    reach a stable one come lifted from the base system.
    """
    pf = _Profile(base, universe)
    return Closure(pf, max_states, (pf.umask,) * pf.n).lts
