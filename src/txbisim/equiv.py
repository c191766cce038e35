"""Deciders for branching reactive equivalences and their plain cousins.

Two independent routes lead to each reactive verdict:

* the *direct* route runs a greatest fixpoint over state pairs and
  environment-indexed state triples, following the coinductive clauses of
  branching reactive bisimilarity literally;
* the *encode* route closes the system under a most general environment
  (:mod:`txbisim.encoding`), its allowing wrappers keyed by the relevant
  part of their sets and settled on only in the columns the question
  reads, and decides ordinary stability respecting branching
  bisimilarity on the result, reading reactive verdicts off its
  projection onto the explored states (:attr:`Analysis.projection`), the
  triggered and allowing wrappers' relation in the direct route's table
  form, each keyed wrapper spread over the columns it stands for.

Both routes give the same answers and the same reasons, by one rule: a
negative verdict names the first clause the queried pair fails against
the relation that relates everything, or if none fails there, against the
final relation, with the pair joined when unrooted (:func:`_first_fail`);
a rooted clause is a first step, matched by one step of the other side
(:func:`_rooted_fail`).  Either route's relation is read as a table of the
direct route's form.  A pair that fails a clause against the full
relation is inequivalent, so the first pass of its own kind decides it
before any closure or fixpoint is built.  Otherwise ``method="both"``,
which checks its answer without trusting the encoding, decides by the
encode route, reading an unrooted entry straight off its partition: a
positive answer is certified by one literal pass of the direct route's
clauses over the off-diagonal entries of the encode route's relation
projected onto the explored states, in the columns the question reads
(:func:`_clauses_hold`), a negative one, which builds no projection when unrooted, is checked against the
direct fixpoint, and either check raises
:class:`~txbisim.errors.MethodDisagreementError` if the routes split.

Both routes read one profile of the explored system,
:class:`~txbisim.encoding._Profile`, which lives beside the closure it
feeds.  The direct route keeps its relation as one table ``rows[p][x]`` of
successor-set masks: a column per environment mask and one more,
:attr:`_Profile.trig`, for the pairs, judged like a triple row in which
every visible move counts.  The clauses are compiled once per state and
visible footprint (:meth:`_Profile.clauses`) and scanned in one place,
:func:`_round`, a set-at-a-time pass over a list of live rows that the
fixpoint loops and the reason and the witness check run once.  Match sets
and backward tau closures are kept by value for every pass of one check
(:attr:`Analysis.memo`).  Each row is judged against the table as it
stands, successors first, so a chain takes two passes; the fixpoint never
judges a state against itself.  A question reads its own column and the
columns its clauses read, so the fixpoint judges only those
(:meth:`_Profile.reads`): the pair column for a partition or a formula,
and the query column too for a check.  Where a whole relation is needed,
as for a positive ``direct`` verdict's witness, the same result is
continued over the other columns (:meth:`_GenResult.complete`).  Every
removal is recorded as the stamp of its row judgement and the compiled
clause that failed, for the synthesis of distinguishing formulas in
:mod:`txbisim.modal` alone.  The plain
relations, stability respecting branching bisimilarity
(which the encode route decides on the index-level closure,
:class:`~txbisim.encoding.Closure`, building no wrapper object) and strong
bisimilarity, share one partition refinement (:func:`_refine`) that
reads the system's own coded moves and recomputes only the signatures a
split can change, so a chain's time grows about linearly with its
length.  A partition is a plain relation, and :func:`_plain` names the
failing clause of a separated pair.  All four reactive checks, plain or
rooted and triggered or in a fixed environment, go through
:func:`_check`.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from heapq import heapify, heappop, heappush

from .encoding import Closure, _Profile, env_columns
from .errors import MethodDisagreementError, TxbisimError
from .lts import Lts, Partition, iter_bits
from .semantics import explore
from .terms import Term, alphabet, envset, term_text

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
    ``"both"`` (the encode route, its answers certified or cross-checked,
    see :func:`_check`).  ``max_states`` bounds the explored states and
    the wrappers of each closure built: a check's own, which settles only
    into the columns its question reads, and the closure over every
    column that a positive ``"encode"`` or ``"both"`` verdict's witness is
    projected from when first read, so that reading it can raise
    :class:`~txbisim.errors.StateBudgetError` where the verdict did not.
    It must be positive, and None defers to ``TXBISIM_MAX_STATES`` or the
    built-in default.  Outside ``"encode"`` a negative answer the first
    pass of the clauses finds builds no encoding, so only the explored
    states count against it.  No option
    bounds the alphabet: the compared terms may have at most
    :data:`~txbisim.encoding.MAX_UNIVERSE` visible actions, the ceiling
    :func:`process_universe` enforces.
    """

    method: str = "both"
    max_states: int | None = None

    def __post_init__(self):
        if self.method not in ("direct", "encode", "both"):
            raise TxbisimError(f"unknown method {self.method!r}")
        if self.max_states is not None and self.max_states <= 0:
            raise TxbisimError("state budget must be positive")


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

    For a positive verdict ``witness`` holds a relation that independent
    single-pass validators can check.  The direct route gives the full
    greatest relation over the explored states; the encode route, and
    ``"both"``, the relation projected from the wrappers that the closure
    over every column reaches, each keyed wrapper spread over every
    environment whose cut it is, which may be smaller (under ``"both"``
    its off-diagonal entries pass the literal check over every column
    before it is handed out, which proves it a bisimulation once joined
    with the identity).  The check itself read a closure that settles only
    into the columns its question reads; unless that is every column, the
    witness's closure is built when the witness is first read, within
    ``max_states`` as well, so reading it may raise
    :class:`~txbisim.errors.StateBudgetError` where the verdict did not.
    It is built by ``build_witness`` when first read, and kept.  For a negative verdict
    ``reason`` names the first clause the queried pair fails, the same
    under every method (see the module's text).
    """

    equivalent: bool
    method: str
    reason: dict | None = None
    lts: Lts | None = field(default=None, repr=False)
    universe: tuple | None = field(default=None, repr=False)
    build_witness: Callable[[], RelationStore] | None = field(
        default=None, repr=False, compare=False
    )

    def __bool__(self):
        return self.equivalent

    @cached_property
    def witness(self) -> RelationStore | None:
        return None if self.build_witness is None else self.build_witness()

    def to_json_dict(self):
        out = {
            "equivalent": self.equivalent,
            "method": self.method,
            "witness_size": self.witness.size if self.witness else 0,
        }
        if self.reason is not None:
            out["removal_trace"] = self.reason
        return out


# the stability clause in the form of a compiled step clause ``(label, p2,
# col, env)`` (:meth:`_Profile.clauses`); no step has the label None, while
# ``stability`` is a legal action name
_STABILITY = (None, None, None, None)


def process_universe(*terms):
    """Smallest canonical environment universe for comparing closed terms:
    the union of the actions occurring in them.  More than
    :data:`~txbisim.encoding.MAX_UNIVERSE` actions are refused with
    :class:`~txbisim.errors.AlphabetLimitError` before any state is
    explored, by :func:`~txbisim.encoding.env_columns`, which caches the
    columns that the check's profile, :class:`~txbisim.encoding._Profile`,
    then reads, and through it the closure."""
    u = envset(name for t in terms for name in alphabet(t))
    env_columns(u)
    return u


# --------------------------------------------------------------------------
# the generalized (pairs + triples) fixpoint


@dataclass
class _GenResult:
    """The direct route's relation as one table: ``rows[p][x]`` is the row
    of state ``p`` under the environment mask ``x``, and ``rows[p][trig]``
    its pair row (:attr:`_Profile.trig`).  ``records`` maps every removed
    entry ``(p, x, q)`` to ``(stamp, clause)`` when the fixpoint records
    them (:class:`_RowRecords`, empty otherwise): the number of the row
    judgement that removed it, and the compiled clause it failed
    (:meth:`_Profile.clauses`, or :data:`_STABILITY`); ``rounds`` counts its
    passes, and each run over new columns ends with one that removes
    nothing.  Only the columns outside ``pending`` are judged; the rows of
    a pending column still hold every state, :meth:`has` and :meth:`stamp`
    refuse to read them, and :meth:`complete` judges them.  The encode
    route's projection (:func:`_projection`) takes the same form, with no
    records and no passes, its pending columns those its closure did not
    settle into, whose rows hold nothing.
    """

    rows: list
    records: Mapping
    rounds: int
    pending: frozenset = frozenset()
    # what continuing the fixpoint needs: the profile, the record sink
    # (None when not recording) and the stamp of the next row judgement
    pf: _Profile | None = field(default=None, repr=False)
    sink: dict | None = field(default=None, repr=False)
    next_stamp: int = 1

    def has(self, p, x, q):
        """Whether the entry ``(p, x, q)`` is related; a pending column
        holds no answer, so asking in one raises :class:`TxbisimError`."""
        if x in self.pending:
            raise TxbisimError(f"column {x} is pending: its rows are unjudged")
        return bool(self.rows[p][x] >> q & 1)

    def stamp(self, p, x, q):
        """The stamp of an entry's removal, from its own orientation's
        record or else its mirror's, or None while it is still related;
        raises in a pending column, as :meth:`has` does."""
        if self.has(p, x, q):
            return None
        return (self.records.get((p, x, q)) or self.records[q, x, p])[0]

    def complete(self, memo=None):
        """This result with every column judged: the same fixpoint
        continued in place over the pending columns, its stamps after all
        earlier ones, with :func:`_round`'s ``memo`` (a fresh one unless
        given)."""
        if self.pending:
            _judge(self, None, {} if memo is None else memo)
        return self


class _RowRecords(Mapping):
    """The direct fixpoint's removals, kept per row: ``by_row[p, x]`` lists
    ``(mask, stamp, clause)``, one per judgement and failing clause, which
    removed ``mask`` from the row of ``p`` in column ``x``.  Read as a
    mapping from each removed entry ``(p, x, q)`` to ``(stamp, clause)``."""

    def __init__(self, by_row):
        self.by_row = by_row

    def __len__(self):
        return sum(
            mask.bit_count() for recs in self.by_row.values() for mask, _, _ in recs
        )

    def __iter__(self):
        for (p, x), recs in self.by_row.items():
            for mask, _, _ in recs:
                for q in iter_bits(mask):
                    yield p, x, q

    def get(self, key, default=None):
        p, x, q = key
        for mask, stamp, clause in self.by_row.get((p, x), ()):
            if mask >> q & 1:
                return stamp, clause
        return default

    def __getitem__(self, key):
        rec = self.get(key)
        if rec is None:
            raise KeyError(key)
        return rec


def _round(pf, rows, live, memo, sink, stamp):
    """One pass of every clause over the live rows of the table ``rows``,
    in order: each ``(p, x, keep, clauses)`` judges the row ``rows[p][x] &
    keep`` by its step clauses (:meth:`_Profile.clauses`, whose target
    column None is the row's own column ``x``), then stability, against
    the table as it stands, and writes its removals and their mirror
    entries into ``rows`` before the next row is judged.

    A clause reads the ``lab`` predecessors of its target row, joined by
    the row itself for tau (an internal step may be matched by standing
    still); a time-out under the environment ``col`` is matched by internal
    steps to a state idle there (:meth:`_Profile.idle`), then its time-out.
    ``memo`` keeps a move's match set by ``(lab, row value)``, a time-out's
    by ``(col, row value)``, and a move's backward tau closure by the set it
    closes; its entries depend on the system alone, so one ``memo``
    (:attr:`Analysis.memo`) serves every pass over it, on any table.
    Unless ``sink`` is None each removal goes to ``sink[p, x]`` as ``(mask,
    stamp, clause)``, one per failing clause of a row: ``stamp`` plus the
    row's position in ``live``, and the compiled clause itself, or
    :data:`_STABILITY`.

    The encoding fires time-outs from idle wrappers alone, as here, and the
    greatest relation is that of the looser clause taking the time-out of
    any ``q ==> q1``.  Let ``B`` be the latter's, ``(p, x, q)`` in it, ``p``
    a dead end under ``x``, ``p -t-> p2`` and ``y`` refused by ``p``.  The
    stable ``p`` matches each tau step of ``q`` by standing still, so all of
    ``q ==> q0`` is related to ``p`` in ``x``, and by stability so is some
    stable ``qs`` with ``q0 ==> qs``.  ``p`` matches no step of ``qs``
    allowed by ``x``, so ``qs`` is a dead end under ``x``, where all its
    visible steps count and ``p`` matches each directly: ``qs`` refuses
    ``y`` too.  So the loose clause on ``(p, x, qs)`` gives ``qs -t-> q'``
    with ``(p2, y, q')`` in ``B``, and ``B`` is closed under the idle one.

    Returns whether it removed anything, and the live rows that still hold
    an entry to judge.
    """
    lts = pf.lts
    pred = lts.pred_mask
    closure = lts.backward_tau_closure
    stable, unstable, idle = pf.stable, pf.unstable, pf.idle
    unreach = ~lts.can_reach_stable_mask
    changed = False
    still = []
    for s, item in enumerate(live, stamp):
        p, x, keep, clauses = item
        own = rows[p][x]
        row = remaining = own & keep
        if not row:
            continue
        for cl in clauses:
            lab, p2, col, env = cl
            target = rows[p2][x if col is None else col]
            key = (lab if env is None else col), target
            base = memo.get(key)
            if base is None:
                base = pred(lab, target)
                if lab == "tau":
                    base |= target
                elif env is not None:
                    base = closure(base & idle(col))
                memo[key] = base
            if env is None:
                # a move needs a branching match whose endpoints stay
                # related to the source and the target respectively; the
                # backward tau closure adds only unstable states, so it is
                # taken only when an unstable entry is still unmatched
                base &= own
                fresh = remaining & ~base
                if fresh & unstable:
                    closed = memo.get(base)
                    if closed is None:
                        closed = memo[base] = closure(base)
                    fresh &= ~closed
            else:
                # matched by internal steps to an idle state, then its time-out
                fresh = remaining & ~base
            if fresh:
                if sink is not None:
                    sink.setdefault((p, x), []).append((fresh, s, cl))
                remaining &= ~fresh
                if not remaining:
                    break
        else:
            fresh = remaining & unreach if stable[p] else 0
            if fresh:
                if sink is not None:
                    sink.setdefault((p, x), []).append((fresh, s, _STABILITY))
                remaining &= ~fresh
        if remaining != row:
            bad = row & ~remaining
            rows[p][x] = own & ~bad
            clear = ~(1 << p)
            while bad:
                low = bad & -bad
                rows[low.bit_length() - 1][x] &= clear
                bad ^= low
            changed = True
        if remaining:
            still.append(item)
    return changed, still


def _generalized_fixpoint(pf, cols=None, record=True, memo=None):
    """Greatest relation closed under the pair and triple clauses, judged
    over the columns ``cols`` and every column they read
    (:meth:`_Profile.reads`), or over every column when ``cols`` is None.

    The clauses are followed literally: the internal runs that precede a
    match may pass through unrelated states.  A pass is one :func:`_round`
    over the live rows, state by state in depth-first finish order
    (:func:`_finish_order`), until a pass removes nothing: a chain or a fan
    takes two.  The order costs passes, never the answer (chaotic
    iteration; Cousot and Cousot 1977): the table always contains the
    greatest relation ``G``, whose entries and their mirrors match every
    clause inside ``G``, own row included, and a pass that removes nothing
    judged every row against one table, which is thus closed under the
    clauses and within ``G``.  The judged columns read no other column,
    and a removal's mirror entry lies in its own column, so their rows
    evolve as in the fixpoint over every column, in the same order: they
    end equal to ``G``'s, with the same records, whose stamps keep their
    order.  The other columns stay pending until
    :meth:`_GenResult.complete` continues the same fixpoint over them.
    With ``record`` every removal is stamped with its row judgement and
    clause in ``records``: a record stamped ``s`` failed against the table
    less the entries stamped below ``s``, in either orientation, so every
    entry it reads left strictly earlier.  Match sets and tau closures are
    kept by value in ``memo``, a fresh one unless given, so the first pass
    can reuse those of :func:`_first_fail`.  The greatest relation is
    reflexive, so a row is judged without its own state, and leaves the
    live rows once that is all it holds.
    """
    sink = {} if record else None
    res = _GenResult(
        [[pf.full] * (pf.trig + 1) for _ in range(pf.n)],
        _RowRecords({} if sink is None else sink), 0,
        frozenset(range(pf.trig + 1)), pf, sink,
    )
    return _judge(res, cols, {} if memo is None else memo)


def _judge(res, cols, memo):
    """Run the fixpoint of ``res`` over the pending columns among
    ``pf.reads(cols)`` until a pass removes nothing, and return ``res``."""
    pf = res.pf
    new = [x for x in pf.reads(cols) if x in res.pending]
    if not new:
        return res
    live = [(p, x, ~(1 << p), pf.clauses(p, x))
            for p in _finish_order(pf.lts) for x in new]
    stamp = res.next_stamp
    changed = True
    while changed:
        res.rounds += 1
        judged = len(live)
        changed, live = _round(pf, res.rows, live, memo, res.sink, stamp)
        stamp += judged
    res.next_stamp = stamp
    res.pending = res.pending.difference(new)
    return res


def _finish_order(lts):
    """The states in depth-first finish order over all steps, searched from
    state 0 upward, iteratively: on acyclic parts a state comes after every
    state it reaches."""
    seen = [False] * lts.n_states
    order = []
    for root in range(lts.n_states):
        stack = [] if seen[root] else [(root, iter(lts.moves[root]))]
        seen[root] = True
        while stack:
            p, steps = stack[-1]
            for _, q in steps:
                if not seen[q]:
                    seen[q] = True
                    stack.append((q, iter(lts.moves[q])))
                    break
            else:
                stack.pop()
                order.append(p)
    return order


def _first_fail(pf, p, x, q, memo, rows=None):
    """The first clause the entry ``(p, x, q)`` fails, as ``(side,
    clause)`` (:func:`_pair_fail`), or None: a :func:`_round` over the row
    of ``p`` in column ``x`` judged on ``q``, then the row of ``q`` judged
    on ``p``, against the relation that relates everything, then, if none
    fails there and ``rows`` is given, against the table ``rows`` with the
    entry joined, where some clause must fail.  An entry the first pass
    fails lies outside every bisimulation, and the direct fixpoint removes
    it in its first pass.  Only the rows of ``p`` and ``q`` are written,
    and both are copies.  ``memo`` is :func:`_round`'s."""
    full = [[pf.full] * (pf.trig + 1)] * pf.n
    tables = [full[:]] if rows is None else [full[:], rows[:]]
    for table in tables:
        for a, b in ((p, q), (q, p)):
            table[a] = table[a][:]
            table[a][x] |= 1 << b

    def fail(table, a, row):
        sink = {}
        _round(pf, table, [(a, x, row, pf.clauses(a, x))], memo, sink, 0)
        return sink[a, x][0][2] if sink else None

    found = _pair_fail(fail, tables, p, q)
    if found is None and rows is not None:
        raise TxbisimError("unrelated entry violates no clause")
    return found


# --------------------------------------------------------------------------
# plain relations by partition refinement


@dataclass
class _PairResult:
    """A partition as a relation: ``rel[i]`` is the block of state ``i``,
    ``records`` are the pairs it separates (:class:`_Separations`), and
    ``rounds`` counts the refinement rounds, the last of which splits
    nothing."""

    rel: list
    records: _Separations
    rounds: int


class _Separations:
    """The ordered pairs a partition puts in different blocks, counted from
    the block sizes."""

    def __init__(self, rel):
        self.rel = rel

    def __len__(self):
        return len(self.rel) ** 2 - sum(row.bit_count() for row in self.rel)


def _pair_fail(fail, rels, p, q):
    """The first clause ``fail(rel, a, row)`` finds for the pair ``(p, q)``,
    scanning both orientations against each relation of ``rels`` in turn,
    as ``(side, clause)``; None when the pair passes them all."""
    for rel in rels:
        for side, (a, b) in enumerate(((p, q), (q, p))):
            rec = fail(rel, a, 1 << b)
            if rec is not None:
                return side, rec
    return None


def _strong_fail(lts, rel, p, row):
    """First strong bisimulation clause of state ``p`` that some entry of
    ``row`` fails against the relation ``rel``, as a move clause ``(lab,
    p2, None, None)`` in the form of :meth:`_Profile.clauses`; None when
    every entry passes."""
    for lab, p2 in lts.moves[p]:
        if row & ~lts.pred_mask(lab, rel[p2]):
            return lab, p2, None, None
    return None


def _branching_fail(lts, rel, p, row):
    """Likewise for the stability respecting branching clauses."""
    for lab, p2 in lts.moves[p]:
        target = rel[p2]
        base = lts.pred_mask(lab, target)
        if lab == "tau":
            base |= target
        if row & ~lts.backward_tau_closure(base & rel[p]):
            return lab, p2, None, None
    if lts.is_stable(p) and row & ~lts.can_reach_stable_mask:
        return _STABILITY
    return None


# below this many components every round is a full one.  Small closures
# refine in a few rounds, where the predecessor lists a marked round needs
# cost about what it saves: on the benchmark's corpus and fuzz closures a
# floor of 16 made the refinement 3-4 % slower than never marking, none
# 4-7 %, and 32 or 48 no slower; chains of more than a few links lie
# above it
_MARK_FLOOR = 48


def _refine(labels, tau, parts, coded, block):
    """Greatest relation by signature refinement in the manner of Blom and
    Orzan, as a :class:`_PairResult`.

    Component ``c`` holds the states ``parts[c]`` and starts in the block
    ``block[c]``; the components are refined whole.  State ``i`` has the
    steps ``coded[i]``, pairs ``(code, j)`` whose label is
    ``labels[code]``, the system's own coded moves; ``tau`` is the code of
    the internal step, or None to make every step a plain move.  A round
    gives every component, in order, a signature over its members' steps:
    a step not coded ``tau`` adds ``(code, block of its target's
    component)``; a tau step into another component, an *exit* to one
    earlier in order, adds that component's signature when the two share
    a block (an inert step) and ``(tau, its block)`` otherwise; a tau step
    inside the component adds nothing.  Then every block splits by
    signature, until a round splits nothing.

    A *full* round computes every signature and names each block by its
    first member, so a block that does not split keeps its name (the
    initial names are any integers, and round 1 may rename every block;
    that only makes round 2 a full one).  A signature can change only
    where a block name it reads changed, its own or a target's, or where the
    signature of an inert exit's target changed.  So the round after one
    that renamed at most a quarter of the components is a *marked* round,
    in the manner of Groote and Vaandrager: it recomputes only the renamed
    components and those with a step into one, and, in component order,
    those with an inert exit into a component whose signature it changed.
    Every member of a block had the block's signature, so a recomputed
    member leaves its block exactly when its signature changed.  The
    leavers are grouped by signature; the members that stay keep the
    block's name (if none stays, the first group keeps it), and each other
    group takes a fresh one.  A marked round thus splits every block as a
    full round would, and the rounds and the partition are those of
    recomputing every signature in every round.  Below
    :data:`_MARK_FLOOR` components every round is a full one.
    """
    # a signature entry (label, block) is the integer block * width + code
    width = len(labels)
    n = len(parts)
    comp = [0] * len(coded)
    for c, members in enumerate(parts):
        for i in members:
            comp[i] = c

    def popped(heap):
        while heap:
            yield heappop(heap)

    count = len(set(block))
    moved = None  # the components the last round renamed, if few
    preds = None
    rounds = 0
    while True:
        rounds += 1
        marked = moved is not None
        if marked:
            if preds is None:
                # who reads a component's name, and who its signature
                preds = [[] for _ in range(n)]
                inert = [[] for _ in range(n)]
                for c, members in enumerate(parts):
                    for i in members:
                        for k, j in coded[i]:
                            d = comp[j]
                            if k != tau:
                                preds[d].append(c)
                            elif d != c:
                                preds[d].append(c)
                                inert[d].append(c)
                stamp = [0] * n
            heap = []
            for d in moved:
                for c in (d, *preds[d]):
                    if stamp[c] != rounds:
                        stamp[c] = rounds
                        heap.append(c)
            heapify(heap)
            groups = {}
            order = popped(heap)
        else:
            sigs = []
            ids = {}
            fresh = []
            order = range(n)
        for c in order:
            b = block[c]
            sig = set()
            for i in parts[c]:
                for k, j in coded[i]:
                    d = comp[j]
                    if k != tau:
                        sig.add(block[d] * width + k)
                    elif d != c:
                        if block[d] == b:
                            sig |= sigs[d]
                        else:
                            sig.add(block[d] * width + tau)
            sig = frozenset(sig)
            if not marked:
                sigs.append(sig)
                fresh.append(ids.setdefault((b, sig), c))
            elif sig != sigs[c]:
                sigs[c] = sig
                groups.setdefault((b, sig), []).append(c)
                for e in inert[c]:
                    if block[e] == b and stamp[e] != rounds:
                        stamp[e] = rounds
                        heappush(heap, e)
        if not marked:
            if len(ids) == count:
                block = fresh
                break
            count = len(ids)
            if n >= _MARK_FLOOR:
                moved = [c for c, b in enumerate(block) if fresh[c] != b]
                if 4 * len(moved) <= n:
                    # block sizes by name; fresh names are appended
                    size = [0] * n
                    for b in fresh:
                        size[b] += 1
            block = fresh
        else:
            left = {}
            for (b, _), members in groups.items():
                left[b] = left.get(b, 0) + len(members)
            # judged on the sizes before this round's splits
            emptied = {b for b, k in left.items() if k == size[b]}
            moved = []
            for (b, _), members in groups.items():
                if b in emptied:
                    emptied.discard(b)
                    continue
                size[b] -= len(members)
                for c in members:
                    block[c] = len(size)
                size.append(len(members))
                moved += members
                count += 1
            if not moved:
                break
        if moved is not None and 4 * len(moved) > n:
            moved = None
    # names lie below the size list's length once a round was marked
    masks = [0] * (n if preds is None else len(size))
    for i, c in enumerate(comp):
        masks[block[c]] |= 1 << i
    rel = [masks[block[c]] for c in comp]
    return _PairResult(rel, _Separations(rel), rounds)


def _branching_fixpoint(system):
    """Greatest stability respecting branching bisimulation, every label
    treated uniformly and matched up to preceding internal steps.

    ``system`` is an :class:`~txbisim.lts.Lts` or an encoding
    :class:`~txbisim.encoding.Closure`: the fixpoint reads only their
    ``labels``, ``coded_moves``, ``tau_sccs`` and ``can_reach_stable_mask``.
    Members of a tau cycle are always related, so :func:`_refine` refines
    the tau components in Tarjan's order, reading the system's coded moves
    with the code of tau.  The first split, states that can reach a stable
    state against the rest, is the stability clause.
    """
    labels = system.labels
    reach = system.can_reach_stable_mask
    sccs = system.tau_sccs
    block = [0 if reach >> members[0] & 1 else 1 for members in sccs]
    tau = labels.index("tau") if "tau" in labels else None
    return _refine(labels, tau, sccs, system.coded_moves, block)


def _strong_fixpoint(lts):
    """Greatest strong bisimulation: every move matched by a single step.

    Every state is its own component, tau is a plain move, and all states
    start in one block.
    """
    n = lts.n_states
    return _refine(lts.labels, None, [(i,) for i in range(n)], lts.coded_moves, [0] * n)


# --------------------------------------------------------------------------
# rooted conditions on top of the unrooted fixpoints


def _rooted_fail(pf, rows, p, x, q):
    """First-step condition for rooted equivalence of the entry
    ``(p, x, q)``, both orientations (:func:`_pair_fail`): every step
    clause of the row (:meth:`_Profile.clauses`) is matched into the
    unrooted relation by a step :meth:`_Profile.first_step` names, first
    in the relation that relates everything, then in the table ``rows``
    if given.  Returns None when satisfied, else ``(side, clause)``."""

    def fail(table, a, row):
        b = row.bit_length() - 1
        for clause in pf.clauses(a, x):
            succ, y = pf.first_step(b, clause, x)
            if not succ & table[clause[1]][y]:
                return clause
        return None

    full = [[pf.full] * (pf.trig + 1)] * pf.n
    return _pair_fail(fail, (full,) if rows is None else (full, rows), p, q)


def _reason(lts, side, clause):
    """The reason dict of a failed clause ``(label, p2, col, env)`` on the
    given side: a stability clause (:data:`_STABILITY`) has no label, a
    move no environment, and anything else is a time-out."""
    lab, succ, _, env = clause
    out = {
        "side": ("left", "right")[side],
        "clause": "stability" if lab is None else "move" if env is None else "timeout",
    }
    if lab is not None:
        out["label"] = lab
    if succ is not None:
        out["successor"] = lts.state_text(lts.states[succ])
    if env is not None:
        out["env"] = list(env)
    return out


# --------------------------------------------------------------------------
# witnesses


def _gen_store(pf, res):
    states = pf.lts.states
    pairs = set()
    triples = set()
    for p, cols in enumerate(res.rows):
        s = states[p]
        for x, row in enumerate(cols):
            if x == pf.trig:
                pairs.update((s, states[q]) for q in iter_bits(row))
            else:
                env = pf.names[x]
                triples.update((s, env, states[q]) for q in iter_bits(row))
    return RelationStore(frozenset(pairs), frozenset(triples))


def _projection(pf, enc, rel):
    """The encode route's relation ``rel`` on the wrappers of the closure
    ``enc``, as a table of the direct route's form with no records:
    related triggered wrappers give pairs, related allowing wrappers in one
    environment give triples.  A wrapper of state ``i`` keyed by column
    ``y`` stands for every column ``x`` it is the cut of, ``x &
    enc.relevant[i] == y`` (:meth:`~txbisim.encoding.Closure.index`): the
    literal closure's wrapper of ``i`` in ``x`` is strongly bisimilar to
    it, so ``(i, x, j)`` is related exactly when the keyed wrappers of
    ``i`` and ``j`` in ``x`` share a block.  ``rel`` is a partition, so
    each block is spread over its members' columns once, and its members
    share the parts.  A closure that settles only into ``enc.columns``
    is spread into those alone, and the other columns stay pending.  Only
    the wrappers the encoding reaches appear, so this can be a proper part
    of the direct route's greatest relation."""
    wraps = enc.wrappings()
    trig = pf.trig
    cols = enc.columns
    # the actions outside a state's relevant mask, whose subsets ``z`` give
    # the columns ``y | z`` that its wrapper keyed ``y`` stands for
    free = [pf.submasks_of(pf.umask & ~keep) for keep in enc.relevant]
    rows = [[0] * (trig + 1) for _ in range(pf.n)]
    for block in dict.fromkeys(rel):
        members = []
        for k in iter_bits(block):
            i, y = wraps[k]
            spread = (0,) if y == trig else free[i]
            if cols is not None:
                spread = [z for z in spread if y | z in cols]
            members.append((i, y, spread))
        parts = {}
        for i, y, spread in members:
            for z in spread:
                parts[y | z] = parts.get(y | z, 0) | 1 << i
        for i, y, spread in members:
            row = rows[i]
            for z in spread:
                row[y | z] = parts[y | z]
    pending = frozenset() if cols is None else frozenset(range(trig + 1)) - cols
    return _GenResult(rows, {}, 0, pending)


def _pair_store(lts, rel):
    pairs = set()
    for p in range(lts.n_states):
        for q in iter_bits(rel[p]):
            pairs.add((lts.states[p], lts.states[q]))
    return RelationStore(frozenset(pairs), frozenset())


def _store_masks(lts, pf, store):
    """The table ``rows[p][x]`` of a relation store, in the columns of
    ``pf`` (None for pairs only, in the one column 0), or None when the
    store is not symmetric, names a state outside the system, holds a pair
    that is no 2-tuple or a triple that is no 3-tuple, or has a triple
    whose environment is not a tuple of names in the universe of ``pf``."""
    index = lts.index
    trig = 0 if pf is None else pf.trig
    rows = [[0] * (trig + 1) for _ in range(lts.n_states)]

    def put(s, x, t):
        if s not in index or t not in index:
            return False
        rows[index[s]][x] |= 1 << index[t]
        return True

    for pair in store.pairs:
        if not (isinstance(pair, tuple) and len(pair) == 2):
            return None
        if not put(pair[0], trig, pair[1]):
            return None
    for triple in store.triples:
        if pf is None or not (isinstance(triple, tuple) and len(triple) == 3):
            return None
        s, x, t = triple
        if not (isinstance(x, tuple) and all(a in pf.ubit for a in x)):
            return None
        if not put(s, pf.env_mask(x), t):
            return None
    for p, cols in enumerate(rows):
        for x, row in enumerate(cols):
            for q in iter_bits(row):
                if not rows[q][x] >> p & 1:
                    return None
    return rows


def generalized_witness_ok(lts, universe, store):
    """One literal pass of every clause over an alleged relation.

    True exactly when the store is a symmetric branching reactive
    bisimulation (pairs also closed under all environment triples) on the
    given system.
    """
    pf = _Profile(lts, universe)
    rows = _store_masks(lts, pf, store)
    return rows is not None and _clauses_hold(pf, rows, {})


def _clauses_hold(pf, rows, memo, off_diagonal=False, cols=None):
    """One literal pass of every clause over the table ``rows``: True when
    every pair also stands as a triple for every environment, and one
    :func:`_round` over every nonempty row, judged whole, removes nothing,
    which writes ``rows`` only when it fails, where every caller raises or
    returns False.  ``memo`` is :func:`_round`'s.  With ``cols``, a set of
    columns closed under what their rows' clauses read
    (:meth:`_Profile.reads`), only the rows and environments of ``cols``
    are judged: the table over them is then closed under those clauses,
    which read no other column, so it lies inside the greatest relation,
    as in :func:`_generalized_fixpoint`.

    With ``off_diagonal`` the pass judges each row without its own state
    (``keep = ~(1 << p)``), and skips a row that holds nothing else.  It
    then proves that the table joined with the identity in every column is
    a bisimulation, which is all a certificate needs.  The identity is
    one: each clause of ``(p, x, p)`` is matched by the same step, and a
    dead end matches its own time-out.  A union of bisimulations is a
    bisimulation, and an entry that passes against ``rows`` passes against
    any table that contains it, so if every off-diagonal entry passes, the
    join passes whole."""
    xs = range(pf.trig + 1) if cols is None else cols
    if any(row[pf.trig] & ~row[x] for row in rows for x in xs):
        return False
    keep = [~(1 << p) if off_diagonal else -1 for p in range(pf.n)]
    live = [(p, x, keep[p], pf.clauses(p, x))
            for p, row in enumerate(rows) for x in xs if row[x] & keep[p]]
    return not _round(pf, rows, live, memo, None, 0)[0]


def _pair_witness_ok(lts, store, fail):
    """One literal pass of the plain clauses ``fail`` over a pair store."""
    rows = _store_masks(lts, None, store)
    if rows is None:
        return False
    pair = [cols[0] for cols in rows]
    return all(
        not pair[p] or fail(lts, pair, p, pair[p]) is None
        for p in range(lts.n_states)
    )


def branching_witness_ok(lts, store):
    """One literal pass of the stability respecting branching clauses."""
    return _pair_witness_ok(lts, store, _branching_fail)


def strong_witness_ok(lts, store):
    """One literal pass of the strong bisimulation clauses."""
    return _pair_witness_ok(lts, store, _strong_fail)


# --------------------------------------------------------------------------
# verdicts


def _verdict(method, fail, store, lts, universe=None):
    """A negative verdict naming the failing clause ``fail``, a pair
    ``(side, clause)`` over ``lts``, or with ``fail`` None a positive one
    whose witness ``store()`` builds."""
    if fail is None:
        return Verdict(True, method, lts=lts, universe=universe, build_witness=store)
    return Verdict(
        False, method, reason=_reason(lts, *fail), lts=lts, universe=universe
    )


def _direct(method, pf, res, i, j, x, rooted, store, memo):
    """The verdict by ``method`` of the table ``res`` on states ``i`` and
    ``j`` in column ``x``, over the universe of ``pf``, with the reason
    :func:`_rooted_fail` or :func:`_first_fail` (with ``memo``) names."""
    if rooted:
        fail = _rooted_fail(pf, res.rows, i, x, j)
    elif res.has(i, x, j):
        fail = None
    else:
        fail = _first_fail(pf, i, x, j, memo, res.rows)
    return _verdict(method, fail, store, pf.lts, pf.names[pf.umask])


def _plain(lts, res, fail, s, t, rooted=False):
    """The verdict of the partition ``res`` on the states ``s`` and ``t``,
    whose clauses are ``fail(lts, rel, p, row)``.  A separated pair names
    the first clause it fails (:func:`_pair_fail`) against the relation
    that relates everything, or if none fails there, against the partition
    with the pair joined, as :func:`_first_fail` does on the direct route;
    the partition is the greatest relation, so some clause fails.  With
    ``rooted`` the first step is matched strongly, into the full relation,
    then the partition."""
    i, j = lts.index_of(s), lts.index_of(t)
    rel = res.rel
    full = [(1 << lts.n_states) - 1] * lts.n_states
    if rooted:
        found = _pair_fail(partial(_strong_fail, lts), (full, rel), i, j)
    elif rel[i] >> j & 1:
        found = None
    else:
        joined = rel[:]
        joined[i] |= 1 << j
        joined[j] |= 1 << i
        found = _pair_fail(partial(fail, lts), (full, joined), i, j)
        if found is None:
            raise TxbisimError("unrelated pair violates no clause")
    return _verdict("direct", found, lambda: _pair_store(lts, rel), lts)


# --------------------------------------------------------------------------
# system-level checks


def strong(lts, s, t):
    """Strong bisimilarity of two states of one system."""
    return _plain(lts, _strong_fixpoint(lts), _strong_fail, s, t)


def sr_branching(lts, s, t):
    """Stability respecting branching bisimilarity of two states."""
    return _plain(lts, _branching_fixpoint(lts), _branching_fail, s, t)


def r_sr_branching(lts, s, t):
    """Rooted stability respecting branching bisimilarity of two states."""
    return _plain(lts, _branching_fixpoint(lts), _branching_fail, s, t, True)


def brb_states(lts, s, t, universe=None, rooted=False):
    """Branching reactive bisimilarity of two states of one raw system.

    Unlike :func:`brb` this works on an already-explored system whose states
    need not be terms (a quotient, an import, a union).  The environment
    universe defaults to all visible labels of the system.  With ``rooted``
    the first step on each side is matched strongly; reasons as :func:`_direct`.
    A pair the first pass of its kind catches runs no fixpoint, as in
    :func:`_check`; any other runs it over the pair column and the columns
    that reads, and a positive verdict's witness completes it.
    """
    if universe is None:
        universe = (lab for lab in lts.labels if lab not in ("tau", "t"))
    # sorted, so that the witness's triples hold canonical sets
    universe = envset(universe)
    pf = _Profile(lts, universe)
    i, j, memo = lts.index_of(s), lts.index_of(t), {}
    caught = (_rooted_fail(pf, None, i, pf.trig, j) if rooted
              else _first_fail(pf, i, pf.trig, j, memo))
    if caught is not None:
        return _verdict("direct", caught, None, lts, pf.names[pf.umask])
    res = _generalized_fixpoint(pf, (pf.trig,), memo=memo)
    return _direct(
        "direct", pf, res, i, j, pf.trig, rooted,
        lambda: _gen_store(pf, res.complete()), memo,
    )


# --------------------------------------------------------------------------
# term-level checks


class Analysis:
    """Shared state space, universe, and fixpoints for one term pair and
    one question.

    The question is named once, at construction: ``cols`` are the columns
    of :func:`~txbisim.encoding.env_columns` it asks about, or None for
    every column.  A caller that named them from :func:`process_universe`
    passes that ``universe`` along, so that it is not computed twice.  The
    direct fixpoint (:attr:`gen`) judges them and the columns they read,
    and the closure (:attr:`encoded`) settles only into those,
    :attr:`reads`; so the encode route's relation (:attr:`projection`)
    holds those columns alone.  Everything is computed lazily and at most
    once; the modal module reuses an analysis to synthesise distinguishing
    formulas from the recorded removals.
    """

    def __init__(self, p, q, opts=None, cols=None, universe=None):
        self.opts = opts or CheckOptions()
        self.p = p
        self.q = q
        self.universe = process_universe(p, q) if universe is None else universe
        self.cols = cols

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
    def memo(self):
        """The match sets and tau closures of :func:`_round` on :attr:`lts`,
        shared by the first pass, the direct fixpoint, the reason and the
        certificate.  A verdict's witness does not hold them."""
        return {}

    @cached_property
    def reads(self):
        """The columns the question reads, :meth:`_Profile.reads` of
        ``cols``, ascending; None when that is every column."""
        if self.cols is None:
            return None
        got = self.profile.reads(self.cols)
        return None if len(got) > self.profile.trig else got

    @cached_property
    def gen(self):
        """The direct fixpoint over ``cols`` and the columns they read
        (:func:`_generalized_fixpoint`); ``gen.complete(memo)`` judges the
        rest."""
        return _generalized_fixpoint(self.profile, self.cols, memo=self.memo)

    @cached_property
    def encoded(self):
        """The environment closure of :attr:`lts`, on indices, keyed by
        relevant environments, its triggered wrappers settling only into
        the allowing columns of :attr:`reads`; its wrapper system is
        ``encoded.lts``."""
        return Closure(self.profile, self.opts.max_states, columns=self.reads)

    @cached_property
    def enc_branch(self):
        return _branching_fixpoint(self.encoded)

    @cached_property
    def projection(self):
        """The encode route's relation on the explored states, in the
        direct route's table form (:func:`_projection`), over the columns
        of :attr:`reads`."""
        return _projection(self.profile, self.encoded, self.enc_branch.rel)

    def gen_store(self):
        return _gen_store(self.profile, self.gen.complete(self.memo))

    def encoded_projection(self):
        """The encode route's relation store: :attr:`projection`'s pairs
        and triples."""
        return _gen_store(self.profile, self.projection)


def _store_thunk(an, name, *parts, certify=False):
    """A thunk running the :class:`Analysis` method ``name`` on a stand-in,
    a bare analysis that asks every column and holds only the ``parts`` of
    ``an``, and computes any other stage it reads from them when the thunk
    runs, so that a verdict keeps no more than its store needs: a witness
    is over every column, whatever the check's question read.  With
    ``certify`` the stand-in's projection, built there, must first pass
    :func:`_certify` over every column.  The method is looked up when the
    thunk runs, so a wrapper set on the class in the meantime is honoured.
    Once the store is built the stand-in goes, and a second call returns
    the same store.
    """
    held = object.__new__(Analysis)
    held.cols = None
    held.__dict__.update((part, getattr(an, part)) for part in parts)
    store = None

    def build():
        nonlocal held, store
        if store is None:
            if certify:
                _certify(held)
            store = getattr(Analysis, name)(held)
            held = None
        return store

    return build


def _certify(an):
    """Raise :class:`~txbisim.errors.MethodDisagreementError` unless the
    off-diagonal entries of the encode route's relation pass the clauses of
    the rows it holds (:func:`_clauses_hold` over :attr:`Analysis.reads`),
    which proves them, joined with the identity, a bisimulation."""
    if not _clauses_hold(an.profile, an.projection.rows, an.memo, True, an.reads):
        raise MethodDisagreementError(
            f"encoding says True for {term_text(an.p)} vs {term_text(an.q)}, "
            "but its relation fails the clauses of branching reactive "
            "bisimulation"
        )


def _encoded_store(an):
    """The thunk of the encode route's witness, the projection of the
    closure over every column: the check's own when it settled into every
    column, else one the stand-in builds, under ``"both"`` certified over
    every column."""
    if an.reads is None:
        return _store_thunk(an, "encoded_projection", "profile", "projection")
    return _store_thunk(
        an, "encoded_projection", "p", "q", "opts", "profile",
        certify=an.opts.method == "both",
    )


def _check(p, q, env, rooted, opts):
    """Decide one of the four reactive relations of two closed terms:
    triggered when ``env`` is None, else in the environment ``env``, and
    rooted or not, in one column ``x`` of
    :func:`~txbisim.encoding.env_columns` for either route.  The analysis
    is built for the question ``(trig, x)``, so its direct fixpoint judges
    and its closure settles into only the columns that reads.
    ``opts.method`` picks the route.  ``"encode"`` reads its answer and its
    reason off :attr:`Analysis.projection`: the pair's closure holds every
    wrapper its clauses read, as both routes fire a time-out from an idle
    state alone (:func:`_round`).  Any other check
    first runs the first pass of its own kind, :func:`_rooted_fail` with
    no table or :func:`_first_fail`, and reports a clause it finds at once.
    Then ``"direct"`` decides by the direct fixpoint over the pair column
    and column ``x`` (:func:`_direct_check`), and ``"both"`` by the encode
    route.  An unrooted answer is the queried entry, read off the partition
    through :meth:`~txbisim.encoding.Closure.index`, so a negative one
    builds no projection; a rooted answer matches the first steps into the
    projection, which a positive answer needs anyway.  A positive answer
    is certified by :func:`_clauses_hold` over the projection's
    off-diagonal entries (:func:`_certify`), and raises if that fails; a
    negative one is checked against the direct route, whose verdict is
    reported.  A positive encode route's witness is projected from the
    closure over every column (:func:`_encoded_store`)."""
    universe = process_universe(p, q)
    bit, _, trig = env_columns(universe)
    x = trig if env is None else sum(bit.get(a, 0) for a in envset(env))
    an = Analysis(p, q, opts, (trig, x), universe)
    method = an.opts.method
    pf = an.profile
    if method == "encode":
        return _direct(
            "encode", pf, an.projection, an.ip, an.iq, x, rooted,
            _encoded_store(an), an.memo,
        )
    caught = (_rooted_fail(pf, None, an.ip, x, an.iq) if rooted
              else _first_fail(pf, an.ip, x, an.iq, an.memo))
    if caught is not None:
        return _verdict(method, caught, None, an.lts, an.universe)
    if method == "direct":
        return _direct_check(an, x, rooted)
    if rooted:
        related = _rooted_fail(pf, an.projection.rows, an.ip, x, an.iq) is None
    else:
        enc, rel = an.encoded, an.enc_branch.rel
        related = rel[enc.index(x, an.ip)] >> enc.index(x, an.iq) & 1
    if related:
        _certify(an)
        return _verdict("both", None, _encoded_store(an), an.lts, an.universe)
    d = _direct_check(an, x, rooted)
    if d.equivalent:
        raise MethodDisagreementError(
            "direct says True, encoding says False "
            f"for {term_text(p)} vs {term_text(q)}"
        )
    return replace(d, method="both")


def _direct_check(an, x, rooted):
    """The direct route's verdict on the analysis' pair in column ``x``,
    by the fixpoint over the analysis' columns, the pair column and ``x``;
    a positive verdict's witness completes it."""
    store = _store_thunk(an, "gen_store", "profile", "gen")
    return _direct(
        "direct", an.profile, an.gen, an.ip, an.iq, x, rooted, store, an.memo
    )


def brb(p, q, opts=None):
    """Branching reactive bisimilarity of two closed terms."""
    return _check(p, q, None, False, opts)


def brb_x(p, q, x, opts=None):
    """Branching reactive bisimilarity in a fixed environment ``x``.

    The environment is canonicalised to the actions the two terms can
    actually perform; allowing impossible actions changes nothing.
    """
    return _check(p, q, x, False, opts)


def rbrb(p, q, opts=None):
    """Rooted branching reactive bisimilarity: congruence-grade equality."""
    return _check(p, q, None, True, opts)


def rbrb_x(p, q, x, opts=None):
    """Rooted branching reactive bisimilarity in a fixed environment."""
    return _check(p, q, x, True, opts)


def brb_partition(roots, opts=None):
    """State space of the given terms and its partition into equivalence
    classes of branching reactive bisimilarity."""
    opts = opts or CheckOptions()
    roots = (roots,) if isinstance(roots, Term) else tuple(roots)
    universe = process_universe(*roots)
    lts = explore(roots, opts.max_states)
    pf = _Profile(lts, universe)
    res = _generalized_fixpoint(pf, (pf.trig,), record=False)
    seen = {}
    for p, cols in enumerate(res.rows):
        row = cols[pf.trig]
        assert row >> p & 1, "greatest relation lost reflexivity"
        if row not in seen:
            # rows of related states must agree, else this is no
            # equivalence; a row seen before has passed already
            for q in iter_bits(row):
                assert res.rows[q][pf.trig] == row
            seen[row] = None
    blocks = [tuple(iter_bits(mask)) for mask in seen]
    return lts, Partition(lts, blocks)
