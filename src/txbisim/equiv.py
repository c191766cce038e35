"""Deciders for branching reactive equivalences and their plain cousins.

Two independent routes lead to each reactive verdict:

* the *direct* route runs a greatest fixpoint over state pairs and
  environment-indexed state triples, following the coinductive clauses of
  branching reactive bisimilarity literally;
* the *encode* route closes the system under a most general environment
  (:mod:`txbisim.encoding`) and decides ordinary stability respecting
  branching bisimilarity on the result, reading reactive verdicts off the
  triggered and allowing wrapper states.

Both routes produce the same answers; ``method="both"`` runs the two and
raises :class:`~txbisim.errors.MethodDisagreementError` if they ever split,
which doubles as a strong internal consistency check.

Relations are kept as one successor-set mask per row.  The direct route's
fixpoint works set-at-a-time on those masks, a removal round being a
handful of mask operations per clause, and stamps every removal with its
round and the violated clause; those records drive both the explanation of
a negative verdict and the synthesis of distinguishing formulas in
:mod:`txbisim.modal`.  The encode route refines a partition of the wrapped
system instead (:func:`_branching_fixpoint`) and stamps nothing: a
negative verdict is explained by the first clause the queried pair fails
against the final relation, found when the verdict asks for it.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from functools import cached_property

from .encoding import EncState, encode
from .errors import (
    AlphabetLimitError,
    MethodDisagreementError,
    TxbisimError,
)
from .lts import Lts, Partition, iter_bits, label_sort_key
from .semantics import explore
from .terms import EnvSet, Term, alphabet, envset, term_text

__all__ = [
    "Analysis",
    "CheckOptions",
    "RelationStore",
    "Verdict",
    "brb",
    "brb_partition",
    "brb_states",
    "brb_x",
    "branching_witness_ok",
    "generalized_witness_ok",
    "process_universe",
    "r_sr_branching",
    "rbrb",
    "rbrb_x",
    "sr_branching",
    "strong",
    "strong_witness_ok",
]


# --------------------------------------------------------------------------
# options and results


@dataclass(frozen=True)
class CheckOptions:
    """Knobs shared by all term-level checks.

    ``method`` selects the decision route: ``"direct"``, ``"encode"``, or
    ``"both"`` (run both, cross-check, report the direct result).
    """

    method: str = "both"
    max_states: int | None = None
    max_alphabet: int = 12

    def __post_init__(self):
        if self.method not in ("direct", "encode", "both"):
            raise TxbisimError(f"unknown method {self.method!r}")


@dataclass(frozen=True)
class RelationStore:
    """A symmetric relation: plain pairs plus environment-indexed triples."""

    pairs: frozenset
    triples: frozenset

    @property
    def size(self):
        return len(self.pairs) + len(self.triples)


@dataclass
class Verdict:
    """Outcome of one equivalence check.

    For a positive verdict ``witness`` holds the full greatest relation over
    the explored states, which independent single-pass validators can check.
    For a negative verdict ``reason`` names a violated clause of the queried
    pair.  The direct route names the clause that removed the pair, with its
    removal ``round``.  The encode route, and :func:`sr_branching`, name the
    first clause the pair fails against the final relation, with no round.
    Rooted checks name the first step that has no match, with no round.
    """

    equivalent: bool
    method: str
    witness: RelationStore | None = None
    reason: dict | None = None
    lts: Lts | None = field(default=None, repr=False)
    universe: EnvSet | None = field(default=None, repr=False)

    def __bool__(self):
        return self.equivalent

    def to_json_dict(self):
        out = {
            "equivalent": self.equivalent,
            "method": self.method,
            "witness_size": self.witness.size if self.witness else 0,
        }
        if self.reason is not None:
            out["removal_trace"] = self.reason
        return out


@dataclass(frozen=True)
class Removal:
    """Why and when a row entry left the candidate relation.

    ``clause`` is ``"move"`` (a branching-match obligation for the recorded
    label failed), ``"timeout"`` (a time-out obligation under environment
    ``env`` failed), or ``"stability"`` (the other side cannot reach a
    stable state).  ``succ`` is the successor index on the failing side.
    ``round`` is 0 for a clause found failing against a final relation
    rather than stamped by a fixpoint round.
    """

    round: int
    clause: str
    label: str | None = None
    succ: int | None = None
    env: tuple | None = None


def process_universe(*terms, limit=None):
    """Smallest canonical environment universe for comparing closed terms:
    the union of the actions occurring in them."""
    names = set()
    for t in terms:
        names |= set(alphabet(t))
    u = envset(names)
    if limit is not None and len(u) > limit:
        raise AlphabetLimitError(
            f"{len(u)} visible actions exceed the configured bound {limit}"
        )
    return u


# --------------------------------------------------------------------------
# per-system precomputation


class _Profile:
    """Bit-level view of one system against a fixed environment universe."""

    __slots__ = (
        "lts",
        "n",
        "full",
        "universe",
        "k",
        "nx",
        "umask",
        "ubit",
        "moves",
        "stable",
        "init_vis",
        "notinit",
        "_subs",
    )

    def __init__(self, lts, universe):
        self.lts = lts
        self.n = lts.n_states
        self.full = (1 << self.n) - 1
        self.universe = tuple(universe)
        self.k = len(self.universe)
        self.nx = 1 << self.k
        self.umask = self.nx - 1
        self.ubit = {a: 1 << i for i, a in enumerate(self.universe)}
        moves = []
        init_vis = []
        for i in range(self.n):
            row = []
            vis = 0
            for lab in sorted(lts.out_labels(i), key=_label_order):
                for j in iter_bits(lts.succ_mask(i, lab)):
                    row.append((lab, j))
                if lab not in ("tau", "t"):
                    bit = self.ubit.get(lab)
                    if bit is None:
                        raise TxbisimError(
                            f"label {lab!r} is outside the environment universe"
                        )
                    vis |= bit
            moves.append(tuple(row))
            init_vis.append(vis)
        self.moves = tuple(moves)
        self.init_vis = tuple(init_vis)
        self.stable = tuple(lts.is_stable(i) for i in range(self.n))
        self.notinit = tuple(
            self.umask & ~vis for vis in init_vis
        )
        self._subs = {}

    def env_names(self, xmask):
        return tuple(a for a in self.universe if self.ubit[a] & xmask)

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


_label_order = label_sort_key


# --------------------------------------------------------------------------
# the generalized (pairs + triples) fixpoint


@dataclass
class _GenResult:
    pair: list
    trip: list
    records: dict
    rounds: int

    def pair_has(self, p, q):
        return bool(self.pair[p] >> q & 1)

    def trip_has(self, p, x, q):
        return bool(self.trip[p][x] >> q & 1)

    def pair_record(self, p, q):
        """Own-orientation record if present, else the mirror's (negated)."""
        rec = self.records.get(("p", p, q))
        if rec is not None:
            return rec, False
        rec = self.records.get(("p", q, p))
        if rec is None:
            raise TxbisimError("removed pair has no removal record")
        return rec, True

    def trip_record(self, p, x, q):
        rec = self.records.get(("t", p, x, q))
        if rec is not None:
            return rec, False
        rec = self.records.get(("t", q, x, p))
        if rec is None:
            raise TxbisimError("removed triple has no removal record")
        return rec, True

    def pair_round(self, p, q):
        """Removal round of a pair, or None while it is still related."""
        if self.pair_has(p, q):
            return None
        return self.pair_record(p, q)[0].round

    def trip_round(self, p, x, q):
        if self.trip_has(p, x, q):
            return None
        return self.trip_record(p, x, q)[0].round


def _scan_pair_row(pf, p, row, snap_pair, snap_trip, restricted, sink, rnd):
    """Entries of ``row`` that violate some pair clause against the snapshot."""
    lts = pf.lts
    remaining = row
    bad_total = 0
    within = row if restricted else -1

    def drop(fresh, rec):
        nonlocal remaining, bad_total
        if sink is not None:
            for q in iter_bits(fresh):
                sink[("p", p, q)] = rec
        bad_total |= fresh
        remaining &= ~fresh

    for lab, p2 in pf.moves[p]:
        if not remaining:
            return bad_total
        if lab != "t":
            # every instantaneous move needs a branching match whose endpoints
            # stay related to the source and the target respectively
            target = snap_pair[p2]
            base = 0
            for q1 in range(pf.n):
                if lts.succ_mask(q1, lab) & target:
                    base |= 1 << q1
            if lab == "tau":
                base |= target
            base &= snap_pair[p]
            ok = lts.backward_tau_closure(base, within)
            fresh = remaining & ~ok
            if fresh:
                drop(fresh, Removal(rnd, "move", lab, p2))
        elif pf.stable[p]:
            # a time-out must be matched under every environment the source
            # is quiescent for, landing in the matching triple
            for x in pf.submasks_of(pf.notinit[p]):
                if not remaining:
                    return bad_total
                target = snap_trip[p2][x]
                base = 0
                for q1 in range(pf.n):
                    if lts.succ_mask(q1, "t") & target:
                        base |= 1 << q1
                ok = lts.backward_tau_closure(base)
                fresh = remaining & ~ok
                if fresh:
                    drop(fresh, Removal(rnd, "timeout", "t", p2, pf.env_names(x)))
    if pf.stable[p] and remaining:
        fresh = remaining & ~lts.can_reach_stable_mask
        if fresh:
            drop(fresh, Removal(rnd, "stability"))
    return bad_total


def _scan_trip_row(pf, p, x, row, snap_pair, snap_trip, restricted, sink, rnd):
    """Entries of a triple row that violate some triple clause."""
    lts = pf.lts
    remaining = row
    bad_total = 0
    within = row if restricted else -1
    quiet = pf.deadend(p, x)

    def drop(fresh, rec):
        nonlocal remaining, bad_total
        if sink is not None:
            for q in iter_bits(fresh):
                sink[("t", p, x, q)] = rec
        bad_total |= fresh
        remaining &= ~fresh

    for lab, p2 in pf.moves[p]:
        if not remaining:
            return bad_total
        if lab == "tau":
            target = snap_trip[p2][x]
            base = target
            for q1 in range(pf.n):
                if lts.succ_mask(q1, "tau") & target:
                    base |= 1 << q1
            base &= snap_trip[p][x]
            ok = lts.backward_tau_closure(base, within)
            fresh = remaining & ~ok
            if fresh:
                drop(fresh, Removal(rnd, "move", lab, p2))
        elif lab == "t":
            if quiet:
                # time-outs fire under any environment extending the current
                # one with further refused actions
                for y in pf.submasks_of(pf.notinit[p]):
                    if not remaining:
                        return bad_total
                    target = snap_trip[p2][y]
                    base = 0
                    for q1 in range(pf.n):
                        if lts.succ_mask(q1, "t") & target:
                            base |= 1 << q1
                    ok = lts.backward_tau_closure(base)
                    fresh = remaining & ~ok
                    if fresh:
                        drop(
                            fresh,
                            Removal(rnd, "timeout", "t", p2, pf.env_names(y)),
                        )
        else:
            # visible moves count only when allowed or fired blindly from a
            # dead end; the match drops back into the plain pair relation
            if pf.ubit[lab] & x or quiet:
                target = snap_pair[p2]
                base = 0
                for q1 in range(pf.n):
                    if lts.succ_mask(q1, lab) & target:
                        base |= 1 << q1
                base &= snap_trip[p][x]
                ok = lts.backward_tau_closure(base, within)
                fresh = remaining & ~ok
                if fresh:
                    drop(fresh, Removal(rnd, "move", lab, p2))
    if pf.stable[p] and remaining:
        fresh = remaining & ~lts.can_reach_stable_mask
        if fresh:
            drop(fresh, Removal(rnd, "stability"))
    return bad_total


def _generalized_fixpoint(pf, restricted=False, record=True):
    """Greatest relation closed under the pair and triple clauses.

    ``restricted=False`` follows the clauses literally: the internal runs
    that precede a match may pass through unrelated states.  With
    ``restricted=True`` runs are confined to the current row, the classical
    optimisation; the two agree on the greatest fixpoint, which the test
    suite checks by direct comparison.
    """
    n = pf.n
    full = pf.full
    nx = pf.nx
    pair = [full] * n
    trip = [[full] * nx for _ in range(n)]
    records: dict | None = {} if record else None
    rounds = 0
    while True:
        rounds += 1
        snap_pair = pair[:]
        snap_trip = [row[:] for row in trip]
        rem_pair = []
        rem_trip = []
        changed = False
        for p in range(n):
            row = snap_pair[p]
            bad = (
                _scan_pair_row(
                    pf, p, row, snap_pair, snap_trip, restricted, records, rounds
                )
                if row
                else 0
            )
            if bad:
                rem_pair.append((p, bad))
            for x in range(nx):
                rowt = snap_trip[p][x]
                if not rowt:
                    continue
                bad = _scan_trip_row(
                    pf, p, x, rowt, snap_pair, snap_trip, restricted, records, rounds
                )
                if bad:
                    rem_trip.append((p, x, bad))
        for p, bad in rem_pair:
            pair[p] &= ~bad
            for q in iter_bits(bad):
                pair[q] &= ~(1 << p)
            changed = True
        for p, x, bad in rem_trip:
            trip[p][x] &= ~bad
            for q in iter_bits(bad):
                trip[q][x] &= ~(1 << p)
            changed = True
        if not changed:
            break
    return _GenResult(pair, trip, records or {}, rounds)


# --------------------------------------------------------------------------
# plain fixpoints over pairs only


@dataclass
class _PairResult:
    rel: list
    records: dict
    rounds: int

    def has(self, p, q):
        return bool(self.rel[p] >> q & 1)

    def record(self, p, q):
        rec = self.records.get((p, q))
        if rec is not None:
            return rec, False
        rec = self.records.get((q, p))
        if rec is None:
            raise TxbisimError("removed pair has no removal record")
        return rec, True


class _Separations(Mapping):
    """The ordered pairs a partition puts in different blocks.

    Looking a pair up scans its branching clauses, in both orientations,
    against the partition with the pair joined, and gives the first that
    fails as ``(removal, mirrored)``.  The partition is the greatest
    relation, so some clause fails.  Nothing is scanned until a pair is
    looked up; the count comes from the block sizes.
    """

    def __init__(self, lts, rel):
        self.lts = lts
        self.rel = rel

    def __len__(self):
        return self.lts.n_states**2 - sum(row.bit_count() for row in self.rel)

    def __iter__(self):
        full = (1 << self.lts.n_states) - 1
        for p, row in enumerate(self.rel):
            for q in iter_bits(full & ~row):
                yield p, q

    def __getitem__(self, pair):
        p, q = pair
        if self.rel[p] >> q & 1:
            raise KeyError(pair)
        rel = self.rel[:]
        rel[p] |= 1 << q
        rel[q] |= 1 << p
        for mirror, (a, b) in enumerate(((p, q), (q, p))):
            rec = _branching_fail(self.lts, rel, a, 1 << b)
            if rec is not None:
                return rec, bool(mirror)
        raise TxbisimError("unrelated pair violates no branching clause")


class _PartitionResult(_PairResult):
    """A partition as a relation; ``records`` are its :class:`_Separations`."""

    def record(self, p, q):
        return self.records[p, q]


def _branching_fail(lts, rel, p, row):
    """First stability respecting branching clause of state ``p`` that some
    entry of ``row`` fails against the relation ``rel``, as a round-0
    removal; None when every entry passes."""
    for lab in sorted(lts.out_labels(p), key=_label_order):
        for p2 in iter_bits(lts.succ_mask(p, lab)):
            target = rel[p2]
            base = 0
            for q1 in range(lts.n_states):
                if lts.succ_mask(q1, lab) & target:
                    base |= 1 << q1
            if lab == "tau":
                base |= target
            base &= rel[p]
            if row & ~lts.backward_tau_closure(base):
                return Removal(0, "move", lab, p2)
    if lts.is_stable(p) and row & ~lts.can_reach_stable_mask:
        return Removal(0, "stability")
    return None


def _tau_sccs(lts):
    """Strongly connected components of the tau steps, each a list of state
    indices, every component after all components it reaches (Tarjan's
    order, iteratively)."""
    succ = [tuple(iter_bits(lts.succ_mask(i, "tau"))) for i in range(lts.n_states)]
    index = [-1] * lts.n_states
    low = [0] * lts.n_states
    on_stack = [False] * lts.n_states
    stack = []
    sccs = []
    seen = 0
    for root in range(lts.n_states):
        if index[root] >= 0:
            continue
        index[root] = low[root] = seen
        seen += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, 0)]
        while work:
            v, k = work[-1]
            if k < len(succ[v]):
                work[-1] = (v, k + 1)
                w = succ[v][k]
                if index[w] < 0:
                    index[w] = low[w] = seen
                    seen += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, 0))
                elif on_stack[w]:
                    low[v] = min(low[v], index[w])
                continue
            work.pop()
            if work:
                u = work[-1][0]
                low[u] = min(low[u], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                sccs.append(comp)
    return sccs


def _branching_fixpoint(lts):
    """Greatest stability respecting branching bisimulation, every label
    treated uniformly and matched up to preceding internal steps.

    Signature refinement in the manner of Blom and Orzan.  Members of a tau
    cycle are always related, so blocks are unions of tau components.  The
    first split, states that can reach a stable state against the rest, is
    the stability clause.  A round gives every component the signature
    ``{(label, block of target)}`` over its own moves and those of the
    components it reaches by inert tau steps (inside its block, and left
    out themselves), computed successors first, then splits each block by
    signature.  ``rel[i]`` is the block of state ``i``; ``records`` are the
    pairs the blocks separate; ``rounds`` counts the rounds, the last of
    which splits nothing.
    """
    sccs = _tau_sccs(lts)
    comp = [0] * lts.n_states
    for c, members in enumerate(sccs):
        for i in members:
            comp[i] = c
    # a signature entry (label, block) is the integer block * width + label
    codes = {lab: k for k, lab in enumerate(lts.labels)}
    width = len(codes)
    tau = codes.get("tau")
    moves = []
    exits = []
    for c, members in enumerate(sccs):
        own = set()
        out = set()
        for i in members:
            for lab in lts.out_labels(i):
                succ = lts.succ_mask(i, lab)
                if lab == "tau":
                    out.update(comp[j] for j in iter_bits(succ) if comp[j] != c)
                else:
                    own.update((codes[lab], comp[j]) for j in iter_bits(succ))
        moves.append(tuple(own))
        exits.append(tuple(out))
    reach = lts.can_reach_stable_mask
    block = [0 if reach >> members[0] & 1 else 1 for members in sccs]
    count = len(set(block))
    rounds = 0
    while True:
        rounds += 1
        sigs = []
        ids = {}
        fresh = []
        for c in range(len(sccs)):
            b = block[c]
            sig = {block[d] * width + k for k, d in moves[c]}
            for d in exits[c]:
                if block[d] == b:
                    sig |= sigs[d]
                else:
                    sig.add(block[d] * width + tau)
            sig = frozenset(sig)
            sigs.append(sig)
            fresh.append(ids.setdefault((b, sig), len(ids)))
        block = fresh
        if len(ids) == count:
            break
        count = len(ids)
    masks = [0] * count
    for i, c in enumerate(comp):
        masks[block[c]] |= 1 << i
    rel = [masks[block[c]] for c in comp]
    return _PartitionResult(rel, _Separations(lts, rel), rounds)


def _strong_fixpoint(lts, record=True):
    """Greatest strong bisimulation: every move matched by a single step."""
    n = lts.n_states
    full = (1 << n) - 1
    moves = tuple(
        tuple(
            (lab, j)
            for lab in sorted(lts.out_labels(i), key=_label_order)
            for j in iter_bits(lts.succ_mask(i, lab))
        )
        for i in range(n)
    )
    rel = [full] * n
    records: dict | None = {} if record else None
    rounds = 0
    while True:
        rounds += 1
        snap = rel[:]
        removals = []
        for p in range(n):
            remaining = snap[p]
            if not remaining:
                continue
            bad_total = 0
            for lab, p2 in moves[p]:
                if not remaining:
                    break
                target = snap[p2]
                ok = 0
                for q1 in range(n):
                    if lts.succ_mask(q1, lab) & target:
                        ok |= 1 << q1
                fresh = remaining & ~ok
                if fresh:
                    if records is not None:
                        for q in iter_bits(fresh):
                            records.setdefault(
                                (p, q), Removal(rounds, "move", lab, p2)
                            )
                    bad_total |= fresh
                    remaining &= ~fresh
            if bad_total:
                removals.append((p, bad_total))
        if not removals:
            break
        for p, bad in removals:
            rel[p] &= ~bad
            for q in iter_bits(bad):
                rel[q] &= ~(1 << p)
    return _PairResult(rel, records or {}, rounds)


# --------------------------------------------------------------------------
# rooted conditions on top of the unrooted fixpoints


def _rooted_pair_fail(pf, res, p, q):
    """First-step condition for rooted equivalence of a state pair, both
    orientations.  Returns None when satisfied, else (side, removal)."""
    lts = pf.lts
    for side, (a, b) in enumerate(((p, q), (q, p))):
        for lab, a2 in pf.moves[a]:
            if lab == "t":
                if not pf.stable[a]:
                    continue
                tmask = lts.succ_mask(b, "t")
                for x in pf.submasks_of(pf.notinit[a]):
                    if not tmask & res.trip[a2][x]:
                        return side, Removal(0, "timeout", "t", a2, pf.env_names(x))
            else:
                if not lts.succ_mask(b, lab) & res.pair[a2]:
                    return side, Removal(0, "move", lab, a2)
    return None


def _rooted_pair_check(pf, res, p, q):
    fail = _rooted_pair_fail(pf, res, p, q)
    if fail is None:
        return None
    return _reason(pf.lts, fail[0], fail[1])


def _rooted_trip_fail(pf, res, p, x, q):
    lts = pf.lts
    for side, (a, b) in enumerate(((p, q), (q, p))):
        quiet = pf.deadend(a, x)
        for lab, a2 in pf.moves[a]:
            if lab == "tau":
                if not lts.succ_mask(b, "tau") & res.trip[a2][x]:
                    return side, Removal(0, "move", lab, a2)
            elif lab == "t":
                if not quiet:
                    continue
                tmask = lts.succ_mask(b, "t")
                for y in pf.submasks_of(pf.notinit[a]):
                    if not tmask & res.trip[a2][y]:
                        return side, Removal(0, "timeout", "t", a2, pf.env_names(y))
            else:
                if pf.ubit[lab] & x or quiet:
                    if not lts.succ_mask(b, lab) & res.pair[a2]:
                        return side, Removal(0, "move", lab, a2)
    return None


def _rooted_trip_check(pf, res, p, x, q):
    fail = _rooted_trip_fail(pf, res, p, x, q)
    if fail is None:
        return None
    return _reason(pf.lts, fail[0], fail[1])


def _rooted_branching_check(lts, res, p, q):
    """First-step condition on a plain system: every move matched strongly
    into the unrooted relation."""
    for side, (a, b) in enumerate(((p, q), (q, p))):
        for lab in sorted(lts.out_labels(a), key=_label_order):
            for a2 in iter_bits(lts.succ_mask(a, lab)):
                if not lts.succ_mask(b, lab) & res.rel[a2]:
                    return _reason(lts, side, Removal(0, "move", lab, a2))
    return None


def _reason(lts, side, rec, round_=None):
    out = {
        "side": ("left", "right")[side],
        "clause": rec.clause,
    }
    if round_ is not None or rec.round:
        out["round"] = round_ if round_ is not None else rec.round
    if rec.label is not None:
        out["label"] = rec.label
    if rec.succ is not None:
        out["successor"] = lts.state_text(lts.states[rec.succ])
    if rec.env is not None:
        out["env"] = list(rec.env)
    return out


# --------------------------------------------------------------------------
# witnesses


def _gen_store(lts, universe, pf, res):
    pairs = set()
    triples = set()
    for p in range(pf.n):
        for q in iter_bits(res.pair[p]):
            pairs.add((lts.states[p], lts.states[q]))
        for x in range(pf.nx):
            names = pf.env_names(x)
            for q in iter_bits(res.trip[p][x]):
                triples.add((lts.states[p], envset(names), lts.states[q]))
    return RelationStore(frozenset(pairs), frozenset(triples))


def _pair_store(lts, rel):
    pairs = set()
    for p in range(lts.n_states):
        for q in iter_bits(rel[p]):
            pairs.add((lts.states[p], lts.states[q]))
    return RelationStore(frozenset(pairs), frozenset())


def _store_masks(lts, pf, store):
    """Masks from a relation store, checking symmetry on the way."""
    n = lts.n_states
    pair = [0] * n
    trip = [[0] * pf.nx for _ in range(n)] if pf is not None else None
    for s, t in store.pairs:
        i, j = lts.index[s], lts.index[t]
        pair[i] |= 1 << j
    for p in range(n):
        for q in iter_bits(pair[p]):
            if not pair[q] >> p & 1:
                return None, None
    for s, x, t in store.triples:
        if pf is None:
            return None, None
        i, j = lts.index[s], lts.index[t]
        trip[i][pf.env_mask(x)] |= 1 << j
    if trip is not None:
        for p in range(n):
            for x in range(pf.nx):
                for q in iter_bits(trip[p][x]):
                    if not trip[q][x] >> p & 1:
                        return None, None
    return pair, trip


def generalized_witness_ok(lts, universe, store):
    """One literal pass of every clause over an alleged relation.

    True exactly when the store is a symmetric branching reactive
    bisimulation (pairs also closed under all environment triples) on the
    given system.
    """
    pf = _Profile(lts, universe)
    pair, trip = _store_masks(lts, pf, store)
    if pair is None:
        return False
    # a pair must also stand as a triple for every environment
    for p in range(pf.n):
        for x in range(pf.nx):
            if pair[p] & ~trip[p][x]:
                return False
    for p in range(pf.n):
        if pair[p] and _scan_pair_row(pf, p, pair[p], pair, trip, False, None, 0):
            return False
        for x in range(pf.nx):
            row = trip[p][x]
            if row and _scan_trip_row(pf, p, x, row, pair, trip, False, None, 0):
                return False
    return True


def branching_witness_ok(lts, store):
    """One literal pass of the stability respecting branching clauses."""
    if store.triples:
        return False
    pair, _ = _store_masks(lts, None, store)
    if pair is None:
        return False
    return all(
        not pair[p] or _branching_fail(lts, pair, p, pair[p]) is None
        for p in range(lts.n_states)
    )


def strong_witness_ok(lts, store):
    if store.triples:
        return False
    pair, _ = _store_masks(lts, None, store)
    if pair is None:
        return False
    for p in range(lts.n_states):
        if not pair[p]:
            continue
        for lab in sorted(lts.out_labels(p), key=_label_order):
            for p2 in iter_bits(lts.succ_mask(p, lab)):
                ok = 0
                for q1 in range(lts.n_states):
                    if lts.succ_mask(q1, lab) & pair[p2]:
                        ok |= 1 << q1
                if pair[p] & ~ok:
                    return False
    return True


# --------------------------------------------------------------------------
# system-level checks


def strong(lts, s, t):
    """Strong bisimilarity of two states of one system."""
    res = _strong_fixpoint(lts)
    return _pair_verdict(lts, res, s, t, "direct")


def sr_branching(lts, s, t):
    """Stability respecting branching bisimilarity of two states."""
    res = _branching_fixpoint(lts)
    return _pair_verdict(lts, res, s, t, "direct")


def r_sr_branching(lts, s, t):
    """Rooted stability respecting branching bisimilarity of two states."""
    res = _branching_fixpoint(lts)
    i, j = lts.index[s], lts.index[t]
    reason = _rooted_branching_check(lts, res, i, j)
    if reason is None:
        return Verdict(True, "direct", _pair_store(lts, res.rel), lts=lts)
    return Verdict(False, "direct", reason=reason, lts=lts)


def brb_states(lts, s, t, universe=None, rooted=False):
    """Branching reactive bisimilarity of two states of one raw system.

    Unlike :func:`brb` this works on an already-explored system whose states
    need not be terms (a quotient, an import, a union).  The environment
    universe defaults to all visible labels of the system.  With ``rooted``
    the first step on each side is matched strongly.
    """
    if universe is None:
        labels = {lab for _, lab, _ in lts.transitions()}
        universe = envset(lab for lab in labels if lab not in ("tau", "t"))
    pf = _Profile(lts, universe)
    res = _generalized_fixpoint(pf)
    i, j = lts.index[s], lts.index[t]
    if rooted:
        fail = _rooted_pair_fail(pf, res, i, j)
        if fail is None:
            store = _gen_store(lts, universe, pf, res)
            return Verdict(True, "direct", store, lts=lts, universe=universe)
        side, rec = fail
        return Verdict(
            False, "direct", reason=_reason(lts, side, rec), lts=lts,
            universe=universe,
        )
    if res.pair_has(i, j):
        store = _gen_store(lts, universe, pf, res)
        return Verdict(True, "direct", store, lts=lts, universe=universe)
    rec, mirror = res.pair_record(i, j)
    return Verdict(
        False, "direct",
        reason=_reason(lts, 1 if mirror else 0, rec), lts=lts,
        universe=universe,
    )


def _pair_verdict(lts, res, s, t, method):
    i, j = lts.index[s], lts.index[t]
    if res.has(i, j):
        return Verdict(True, method, _pair_store(lts, res.rel), lts=lts)
    rec, mirror = res.record(i, j)
    return Verdict(
        False, method, reason=_reason(lts, 1 if mirror else 0, rec), lts=lts
    )


# --------------------------------------------------------------------------
# term-level checks


class Analysis:
    """Shared state space, universe, and fixpoints for one term pair.

    Everything is computed lazily and at most once; the modal module reuses
    an analysis to synthesise distinguishing formulas from the recorded
    removals.
    """

    def __init__(self, p, q, opts=None):
        self.opts = opts or CheckOptions()
        self.p = p
        self.q = q
        self.universe = process_universe(p, q, limit=self.opts.max_alphabet)

    @cached_property
    def lts(self):
        return explore((self.p, self.q), self.opts.max_states)

    @property
    def ip(self):
        return self.lts.index[self.p]

    @property
    def iq(self):
        return self.lts.index[self.q]

    @cached_property
    def profile(self):
        return _Profile(self.lts, self.universe)

    @cached_property
    def gen(self):
        return _generalized_fixpoint(self.profile)

    @cached_property
    def encoded(self):
        return encode(self.lts, self.universe, self.opts.max_states)

    @cached_property
    def enc_branch(self):
        return _branching_fixpoint(self.encoded)

    def enc_index(self, mode, term):
        return self.encoded.index[EncState(mode, term)]

    def canonical_env(self, x):
        return envset(x).intersection(self.universe)

    # -- encoded-relation projections

    def _enc_pair_has(self, mode, s, t):
        i = self.enc_index(mode, s)
        j = self.enc_index(mode, t)
        return self.enc_branch.has(i, j)

    def gen_store(self):
        return _gen_store(self.lts, self.universe, self.profile, self.gen)

    def encoded_projection(self):
        """The direct-style relation read off the encoded fixpoint: related
        triggered wrappers become pairs, related allowing wrappers triples."""
        pairs = set()
        triples = set()
        enc = self.encoded
        rel = self.enc_branch.rel
        for i, st in enumerate(enc.states):
            for j in iter_bits(rel[i]):
                other = enc.states[j]
                if st.mode is None and other.mode is None:
                    pairs.add((st.inner, other.inner))
                elif st.mode is not None and st.mode == other.mode:
                    triples.add((st.inner, envset(st.mode), other.inner))
        return RelationStore(frozenset(pairs), frozenset(triples))


def _term_check(p, q, opts, direct_fn, encode_fn):
    """Run one or both methods and reconcile their verdicts."""
    an = Analysis(p, q, opts)
    method = an.opts.method
    if method == "direct":
        return direct_fn(an)
    if method == "encode":
        return encode_fn(an)
    d = direct_fn(an)
    e = encode_fn(an)
    if d.equivalent != e.equivalent:
        raise MethodDisagreementError(
            f"direct says {d.equivalent}, encoding says {e.equivalent} "
            f"for {term_text(p)} vs {term_text(q)}"
        )
    return replace(d, method="both")


def brb(p, q, opts=None):
    """Branching reactive bisimilarity of two closed terms."""

    def direct(an):
        res = an.gen
        if res.pair_has(an.ip, an.iq):
            return Verdict(
                True, "direct", an.gen_store(), lts=an.lts, universe=an.universe
            )
        rec, mirror = res.pair_record(an.ip, an.iq)
        return Verdict(
            False,
            "direct",
            reason=_reason(an.lts, 1 if mirror else 0, rec),
            lts=an.lts,
            universe=an.universe,
        )

    def encoded(an):
        if an._enc_pair_has(None, an.p, an.q):
            return Verdict(
                True,
                "encode",
                an.encoded_projection(),
                lts=an.lts,
                universe=an.universe,
            )
        i, j = an.enc_index(None, an.p), an.enc_index(None, an.q)
        rec, mirror = an.enc_branch.record(i, j)
        return Verdict(
            False,
            "encode",
            reason=_reason(an.encoded, 1 if mirror else 0, rec),
            lts=an.lts,
            universe=an.universe,
        )

    return _term_check(p, q, opts, direct, encoded)


def brb_x(p, q, x, opts=None):
    """Branching reactive bisimilarity in a fixed environment ``x``.

    The environment is canonicalised to the actions the two terms can
    actually perform; allowing impossible actions changes nothing.
    """

    def direct(an):
        xe = an.canonical_env(x)
        xmask = an.profile.env_mask(xe)
        res = an.gen
        if res.trip_has(an.ip, xmask, an.iq):
            return Verdict(
                True, "direct", an.gen_store(), lts=an.lts, universe=an.universe
            )
        rec, mirror = res.trip_record(an.ip, xmask, an.iq)
        return Verdict(
            False,
            "direct",
            reason=_reason(an.lts, 1 if mirror else 0, rec),
            lts=an.lts,
            universe=an.universe,
        )

    def encoded(an):
        xe = an.canonical_env(x)
        mode = tuple(xe)
        if an._enc_pair_has(mode, an.p, an.q):
            return Verdict(
                True,
                "encode",
                an.encoded_projection(),
                lts=an.lts,
                universe=an.universe,
            )
        i, j = an.enc_index(mode, an.p), an.enc_index(mode, an.q)
        rec, mirror = an.enc_branch.record(i, j)
        return Verdict(
            False,
            "encode",
            reason=_reason(an.encoded, 1 if mirror else 0, rec),
            lts=an.lts,
            universe=an.universe,
        )

    return _term_check(p, q, opts, direct, encoded)


def rbrb(p, q, opts=None):
    """Rooted branching reactive bisimilarity: congruence-grade equality."""

    def direct(an):
        reason = _rooted_pair_check(an.profile, an.gen, an.ip, an.iq)
        if reason is None:
            return Verdict(
                True, "direct", an.gen_store(), lts=an.lts, universe=an.universe
            )
        return Verdict(
            False, "direct", reason=reason, lts=an.lts, universe=an.universe
        )

    def encoded(an):
        i, j = an.enc_index(None, an.p), an.enc_index(None, an.q)
        reason = _rooted_branching_check(an.encoded, an.enc_branch, i, j)
        if reason is None:
            return Verdict(
                True,
                "encode",
                an.encoded_projection(),
                lts=an.lts,
                universe=an.universe,
            )
        return Verdict(
            False, "encode", reason=reason, lts=an.lts, universe=an.universe
        )

    return _term_check(p, q, opts, direct, encoded)


def rbrb_x(p, q, x, opts=None):
    """Rooted branching reactive bisimilarity in a fixed environment."""

    def direct(an):
        xe = an.canonical_env(x)
        xmask = an.profile.env_mask(xe)
        reason = _rooted_trip_check(an.profile, an.gen, an.ip, xmask, an.iq)
        if reason is None:
            return Verdict(
                True, "direct", an.gen_store(), lts=an.lts, universe=an.universe
            )
        return Verdict(
            False, "direct", reason=reason, lts=an.lts, universe=an.universe
        )

    def encoded(an):
        xe = an.canonical_env(x)
        mode = tuple(xe)
        i, j = an.enc_index(mode, an.p), an.enc_index(mode, an.q)
        reason = _rooted_branching_check(an.encoded, an.enc_branch, i, j)
        if reason is None:
            return Verdict(
                True,
                "encode",
                an.encoded_projection(),
                lts=an.lts,
                universe=an.universe,
            )
        return Verdict(
            False, "encode", reason=reason, lts=an.lts, universe=an.universe
        )

    return _term_check(p, q, opts, direct, encoded)


def brb_partition(roots, opts=None):
    """State space of the given terms and its partition into equivalence
    classes of branching reactive bisimilarity."""
    opts = opts or CheckOptions()
    roots = (roots,) if isinstance(roots, Term) else tuple(roots)
    universe = process_universe(*roots, limit=opts.max_alphabet)
    lts = explore(roots, opts.max_states)
    pf = _Profile(lts, universe)
    res = _generalized_fixpoint(pf, record=False)
    seen = {}
    for p in range(pf.n):
        row = res.pair[p]
        assert row >> p & 1, "greatest relation lost reflexivity"
        for q in iter_bits(row):
            # rows of related states must agree, else this is no equivalence
            assert res.pair[q] == row
        seen.setdefault(row, None)
    blocks = [tuple(iter_bits(mask)) for mask in seen]
    return lts, Partition(lts, blocks)
