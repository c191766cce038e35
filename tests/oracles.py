"""Reference decision procedures for the test suite.

Each function here is a literal, set-based transcription of the defining
clauses of one equivalence, written for legibility rather than speed and
sharing no code with the fixpoint engines in :mod:`txbisim.equiv`.  The
greatest relations are computed by starting from the full candidate set
and deleting violators until nothing changes.  Relations are kept as
plain Python sets of state indices: ``(i, j)`` for pairs and
``(i, frozenset_of_names, j)`` for environment-indexed triples, always
closed under the obvious symmetry.

Intended for small systems only; everything is O(states^3) per round or
worse and proud of it.
"""

from itertools import chain, combinations

from txbisim.encoding import EncState, eps_label
from txbisim.errors import TxbisimError
from txbisim.lts import iter_bits
from txbisim.modal import And, Diamond, EnvDiamond, Eps, HatDiamond, Not, Top
from txbisim.terms import envset

__all__ = [
    "all_env_sets",
    "ref_encode",
    "ref_branching",
    "ref_reactive",
    "ref_rooted",
    "ref_rooted_branching",
    "ref_satisfies",
    "ref_strong",
    "tau_reach",
]


def tau_reach(lts, i):
    """Indices reachable from ``i`` by internal steps, including ``i``."""
    seen = {i}
    stack = [i]
    while stack:
        j = stack.pop()
        for k in iter_bits(lts.succ_mask(j, "tau")):
            if k not in seen:
                seen.add(k)
                stack.append(k)
    return seen


def all_env_sets(universe):
    """Every subset of the visible-action universe, as frozensets."""
    names = sorted(universe)
    return [
        frozenset(c)
        for c in chain.from_iterable(
            combinations(names, k) for k in range(len(names) + 1)
        )
    ]


def _match(lts, reach, j, alpha, mid_ok, end_ok, allow_stay):
    """A path ``j ==> q1`` followed by an optional-or-real ``alpha`` step.

    True when some q1 reachable from j by internal steps satisfies
    ``mid_ok`` and either stays put (only when ``allow_stay``) while
    already satisfying ``end_ok``, or has an ``alpha`` step to some q2
    satisfying ``end_ok``.
    """
    for q1 in reach[j]:
        if not mid_ok(q1):
            continue
        if allow_stay and end_ok(q1):
            return True
        for q2 in iter_bits(lts.succ_mask(q1, alpha)):
            if end_ok(q2):
                return True
    return False


# ---------------------------------------------------------------------------
# branching reactive bisimilarity, pairs and triples


def _visible_init(lts, i):
    return {lab for lab in lts.out_labels(i) if lab != "t"}


def ref_reactive(lts, universe):
    """Greatest branching reactive bisimulation as ``(pairs, triples)``.

    ``universe`` bounds the environments: triples range over all subsets
    of it.  All clauses are checked for the left component of each stored
    element; symmetry comes from storing both orders and removing both
    when either fails.
    """
    n = lts.n_states
    envs = all_env_sets(universe)
    reach = [tau_reach(lts, i) for i in range(n)]
    init = [_visible_init(lts, i) for i in range(n)]
    stable = [lts.succ_mask(i, "tau") == 0 for i in range(n)]

    pairs = {(i, j) for i in range(n) for j in range(n)}
    trips = {(i, x, j) for i in range(n) for x in envs for j in range(n)}

    def deadend(i, x):
        return not (init[i] & x) and "tau" not in init[i]

    def pair_ok(i, j):
        for lab in lts.out_labels(i):
            if lab == "t":
                continue
            for ip in iter_bits(lts.succ_mask(i, lab)):
                if not _match(
                    lts, reach, j, lab,
                    mid_ok=lambda q1: (i, q1) in pairs,
                    end_ok=lambda q2: (ip, q2) in pairs,
                    allow_stay=lab == "tau",
                ):
                    return False
        return all((i, x, j) in trips for x in envs)

    def trip_ok(i, x, j):
        for ip in iter_bits(lts.succ_mask(i, "tau")):
            if not _match(
                lts, reach, j, "tau",
                mid_ok=lambda q1: (i, x, q1) in trips,
                end_ok=lambda q2: (ip, x, q2) in trips,
                allow_stay=True,
            ):
                return False
        for a in x & init[i]:
            for ip in iter_bits(lts.succ_mask(i, a)):
                if not _match(
                    lts, reach, j, a,
                    mid_ok=lambda q1: (i, x, q1) in trips,
                    end_ok=lambda q2: (ip, q2) in pairs,
                    allow_stay=False,
                ):
                    return False
        if deadend(i, x):
            if not any((i, q0) in pairs for q0 in reach[j]):
                return False
            for ip in iter_bits(lts.succ_mask(i, "t")):
                if not _match(
                    lts, reach, j, "t",
                    mid_ok=lambda q1: True,
                    end_ok=lambda q2: (ip, x, q2) in trips,
                    allow_stay=False,
                ):
                    return False
        if stable[i] and not any(stable[q0] for q0 in reach[j]):
            return False
        return True

    changed = True
    while changed:
        changed = False
        for i, j in sorted(pairs):
            if (i, j) in pairs and not pair_ok(i, j):
                pairs.discard((i, j))
                pairs.discard((j, i))
                changed = True
        for i, x, j in list(trips):
            if (i, x, j) in trips and not trip_ok(i, x, j):
                trips.discard((i, x, j))
                trips.discard((j, x, i))
                changed = True
    return pairs, trips


def ref_rooted(lts, universe, pairs, trips):
    """Greatest rooted relation on top of a plain one.

    First transitions are matched strongly and land in the plain relation
    given by ``pairs``/``trips``; only the universal-environment clause
    and the deadlocked-system clause stay self-referential, so this is a
    much shallower fixpoint.
    """
    n = lts.n_states
    envs = all_env_sets(universe)
    init = [_visible_init(lts, i) for i in range(n)]

    rpairs = {(i, j) for i in range(n) for j in range(n)}
    rtrips = {(i, x, j) for i in range(n) for x in envs for j in range(n)}

    def deadend(i, x):
        return not (init[i] & x) and "tau" not in init[i]

    def strong_into(i, lab, j, targets):
        for ip in iter_bits(lts.succ_mask(i, lab)):
            if not any(
                (ip, jp) in targets for jp in iter_bits(lts.succ_mask(j, lab))
            ):
                return False
        return True

    def strong_into_x(i, lab, x, j):
        for ip in iter_bits(lts.succ_mask(i, lab)):
            if not any(
                (ip, x, jp) in trips for jp in iter_bits(lts.succ_mask(j, lab))
            ):
                return False
        return True

    def pair_ok(i, j):
        for lab in lts.out_labels(i):
            if lab != "t" and not strong_into(i, lab, j, pairs):
                return False
        return all((i, x, j) in rtrips for x in envs)

    def trip_ok(i, x, j):
        if not strong_into_x(i, "tau", x, j):
            return False
        for a in x & init[i]:
            if not strong_into(i, a, j, pairs):
                return False
        if deadend(i, x):
            if (i, j) not in rpairs:
                return False
            if not strong_into_x(i, "t", x, j):
                return False
        return True

    changed = True
    while changed:
        changed = False
        for i, j in list(rpairs):
            if (i, j) in rpairs and not pair_ok(i, j):
                rpairs.discard((i, j))
                rpairs.discard((j, i))
                changed = True
        for i, x, j in list(rtrips):
            if (i, x, j) in rtrips and not trip_ok(i, x, j):
                rtrips.discard((i, x, j))
                rtrips.discard((j, x, i))
                changed = True
    return rpairs, rtrips


# ---------------------------------------------------------------------------
# plain label-blind relations, usable on raw and on encoded systems


def ref_branching(lts):
    """Greatest stability respecting branching bisimulation.

    Every label is matched branchingly, with the stay option reserved for
    internal steps; stable states must be answered by reachable stable
    states.  Works on any system, whatever its label vocabulary.
    """
    n = lts.n_states
    reach = [tau_reach(lts, i) for i in range(n)]
    stable = [lts.succ_mask(i, "tau") == 0 for i in range(n)]

    rel = {(i, j) for i in range(n) for j in range(n)}

    def ok(i, j):
        for lab in lts.out_labels(i):
            for ip in iter_bits(lts.succ_mask(i, lab)):
                if not _match(
                    lts, reach, j, lab,
                    mid_ok=lambda q1: (i, q1) in rel,
                    end_ok=lambda q2: (ip, q2) in rel,
                    allow_stay=lab == "tau",
                ):
                    return False
        return not stable[i] or any(stable[q0] for q0 in reach[j])

    changed = True
    while changed:
        changed = False
        for i, j in list(rel):
            if (i, j) in rel and not ok(i, j):
                rel.discard((i, j))
                rel.discard((j, i))
                changed = True
    return rel


def ref_rooted_branching(lts, rel=None):
    """Pairs whose first transitions match strongly into ``rel``.

    Not itself a fixpoint: the definition only refers to the plain
    relation, so one symmetric pass suffices.
    """
    if rel is None:
        rel = ref_branching(lts)
    n = lts.n_states

    def ok(i, j):
        for lab in lts.out_labels(i):
            for ip in iter_bits(lts.succ_mask(i, lab)):
                if not any(
                    (ip, jp) in rel for jp in iter_bits(lts.succ_mask(j, lab))
                ):
                    return False
        return True

    return {(i, j) for i in range(n) for j in range(n) if ok(i, j) and ok(j, i)}


def ref_strong(lts):
    """Greatest strong bisimulation; every label, every step, in lockstep."""
    n = lts.n_states
    rel = {(i, j) for i in range(n) for j in range(n)}

    def ok(i, j):
        for lab in lts.out_labels(i):
            for ip in iter_bits(lts.succ_mask(i, lab)):
                if not any(
                    (ip, jp) in rel for jp in iter_bits(lts.succ_mask(j, lab))
                ):
                    return False
        return True

    changed = True
    while changed:
        changed = False
        for i, j in list(rel):
            if (i, j) in rel and not ok(i, j):
                rel.discard((i, j))
                rel.discard((j, i))
                changed = True
    return rel


def ref_encode(base, universe):
    """The reachable environment closure of ``base``: its states and its
    transitions over :class:`~txbisim.encoding.EncState` objects, as sets.

    A breadth-first search that follows the transition table of
    :mod:`txbisim.encoding` row by row, with ``D(P, X)`` read off the
    labels of ``P``'s steps.
    """
    names = tuple(universe)
    modes = [c for k in range(len(names) + 1) for c in combinations(names, k)]

    def deadend(p, x):
        labels = {lab for lab, _ in base.transitions_from(p)}
        return "tau" not in labels and labels.isdisjoint(x)

    def steps(state):
        p = state.inner
        moves = base.transitions_from(p)
        out = set()
        if state.mode is None:
            # triggered P -alpha-> triggered P', alpha not t
            out |= {(a, EncState(None, q)) for a, q in moves if a != "t"}
            # triggered P -eps_X-> allowing(X) P
            out |= {(eps_label(x), EncState(x, p)) for x in modes}
            return out
        x = state.mode
        # allowing(X) P -tau-> allowing(X) P'
        out |= {("tau", EncState(x, q)) for a, q in moves if a == "tau"}
        # allowing(X) P -a-> triggered P', a in X
        out |= {(a, EncState(None, q)) for a, q in moves if a in x}
        if deadend(p, x):
            # allowing(X) P -t_eps-> triggered P
            out.add(("t_eps", EncState(None, p)))
            # allowing(X) P -t-> allowing(X) P'
            out |= {("t", EncState(x, q)) for a, q in moves if a == "t"}
        return out

    states = {EncState(None, r) for r in base.roots}
    frontier = set(states)
    edges = set()
    while frontier:
        found = set()
        for src in frontier:
            for lab, dst in steps(src):
                edges.add((src, lab, dst))
                found.add(dst)
        frontier = found - states
        states |= frontier
    return states, edges


# ---------------------------------------------------------------------------
# modal satisfaction, one state at a time


def _visible_labels(lts, i):
    return [lab for lab in lts.out_labels(i) if lab not in ("tau", "t")]


def _lts_deadend(lts, i, allowed):
    if not lts.is_stable(i):
        return False
    return all(lab not in allowed for lab in _visible_labels(lts, i))


def ref_satisfies(lts, state, formula, mode=None):
    """Whether a state satisfies a formula, triggered (``mode=None``) or
    under a set of allowed actions: the per-state recursive evaluator that
    :func:`txbisim.modal.satisfies` replaced, kept as it was."""
    m = None if mode is None else envset(mode)
    memo: dict = {}

    def sat(i, phi, env):
        # keyed by id(): only nodes of ``formula``, which stay alive, may be
        # evaluated, never a temporary whose id a later one could reuse
        key = (id(phi), i, env)
        hit = memo.get(key)
        if hit is None:
            memo[key] = hit = _eval(i, phi, env)
        return hit

    def _eval(i, phi, env):
        match phi:
            case Top():
                return True
            case And(children):
                return all(sat(i, c, env) for c in children)
            case Not(sub):
                return not sat(i, sub, env)
            case Diamond("tau", sub):
                return any(
                    sat(j, sub, env) for j in iter_bits(lts.succ_mask(i, "tau"))
                )
            case HatDiamond("tau", sub):
                return sat(i, sub, env) or any(
                    sat(j, sub, env) for j in iter_bits(lts.succ_mask(i, "tau"))
                )
            case Diamond(label, sub) | HatDiamond(label, sub):
                if env is not None and label not in env:
                    if not _lts_deadend(lts, i, env):
                        return False
                return any(
                    sat(j, sub, None) for j in iter_bits(lts.succ_mask(i, label))
                )
            case EnvDiamond(x, sub):
                blocked = x if env is None else envset((*x, *env))
                if not _lts_deadend(lts, i, blocked):
                    return False
                return any(
                    sat(j, sub, x) for j in iter_bits(lts.succ_mask(i, "t"))
                )
            case Eps(sub):
                reach = lts.tau_closure(1 << i)
                return any(sat(j, sub, env) for j in iter_bits(reach))
        raise TxbisimError(f"not a formula: {phi!r}")

    return sat(lts.index_of(state), formula, m)
