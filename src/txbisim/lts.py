"""Labelled transition systems over string labels.

States are arbitrary hashable objects (interned process terms, plain
integers from an imported file, or blocks of a quotient); internally every
state has a dense integer index, and successor sets are kept as integer
bitmasks so the equivalence checkers can work set-at-a-time.

Label conventions: ``"tau"`` is the internal step, ``"t"`` the time-out,
any other plain identifier a visible action.  Systems produced by the
environment encoding additionally use ``"t_eps"`` and ``"eps_{a,b}"``.
"""

from __future__ import annotations

import json
import re

from .errors import ParseError, TxbisimError

__all__ = [
    "Lts",
    "Partition",
    "label_sort_key",
    "quotient",
    "disjoint_union",
    "tau_closure",
    "parse_aut",
    "export_aut",
    "import_aut",
]

_LABEL_CLASS = {"tau": 0, "t": 2, "t_eps": 3}


def label_sort_key(label):
    """Deterministic label order: tau, visible names, t, t_eps, eps sets."""
    if label in _LABEL_CLASS:
        return (_LABEL_CLASS[label], label)
    if label.startswith("eps_"):
        return (4, label)
    return (1, label)


class lazy:
    """An attribute computed from its instance when first read and kept in
    the instance's ``__dict__``, where every later read finds it first:
    :func:`functools.cached_property` without the lock that Python 3.11's
    takes on each first read.  ``func`` is the function it computes, which
    a caller may wrap and install again."""

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


class Lts:
    """An immutable labelled transition system with designated roots.

    Each state index ``i`` has its successor masks per label, read by
    :meth:`succ_mask`, and its steps :attr:`moves`, both built in one pass
    over the transitions; every other view (the labels, the coded moves,
    the tau structure) is computed from them when first read and kept.
    """

    def __init__(self, states, transitions, roots, state_text=str):
        states = tuple(states)
        index = _index_of(states)
        try:
            triples = [(index[src], lab, index[dst]) for src, lab, dst in transitions]
        except KeyError as missing:
            raise TxbisimError(
                f"transition state {missing.args[0]!r} is not a state"
            ) from None
        self._build(states, index, triples, roots, state_text)

    @classmethod
    def from_indexed(cls, states, triples, roots, state_text=str):
        """A system whose transitions are given as index triples
        ``(i, label, j)`` into ``states``, for callers that number their
        states as they find them."""
        states = tuple(states)
        lts = cls.__new__(cls)
        lts._build(states, _index_of(states), triples, roots, state_text)
        return lts

    def _build(self, states, index, triples, roots, state_text):
        self.states = states
        self.index = index
        self.roots = tuple(roots)
        for r in self.roots:
            if r not in index:
                raise TxbisimError("root is not a state")
        self.state_text = state_text
        succ: list[dict[str, int]] = [dict() for _ in states]
        kept = []
        keys = {}
        for t in triples:
            i, lab, j = t
            bucket = succ[i]
            before = bucket.get(lab, 0)
            if not before >> j & 1:
                bucket[lab] = before | 1 << j
                kept.append(t)
                if lab not in keys:
                    if not isinstance(lab, str):
                        raise TxbisimError(f"transition label {lab!r} is not a string")
                    keys[lab] = label_sort_key(lab)
        kept.sort(key=lambda t: (t[0], keys[t[1]], t[2]))
        self._succ = succ
        self.trans_idx = tuple(kept)
        moves = [[] for _ in states]
        for i, lab, j in kept:
            moves[i].append((lab, j))
        # per state index, its steps ``(label, j)`` in label order, then by
        # target index
        self.moves = tuple(map(tuple, moves))

    # -- basic queries

    @property
    def n_states(self):
        return len(self.states)

    @property
    def n_transitions(self):
        return len(self.trans_idx)

    @lazy
    def labels(self):
        return tuple(sorted({lab for _, lab, _ in self.trans_idx}, key=label_sort_key))

    def transitions(self):
        """All transitions as (src, label, dst) over state objects."""
        return tuple(
            (self.states[i], lab, self.states[j]) for i, lab, j in self.trans_idx
        )

    def index_of(self, state):
        """The index of ``state``; a state outside the system is an error."""
        try:
            return self.index[state]
        except (KeyError, TypeError):
            raise TxbisimError(f"{state!r} is not a state of the system") from None

    def succ_mask(self, i, label):
        """Bitmask of successor indices of state index ``i`` under ``label``."""
        return self._succ[i].get(label, 0)

    def out_labels(self, i):
        return self._succ[i].keys()

    def successors(self, state, label):
        mask = self.succ_mask(self.index_of(state), label)
        return tuple(self.states[j] for j in iter_bits(mask))

    @lazy
    def coded_moves(self):
        """:attr:`moves` with each label given by its position in
        :attr:`labels`."""
        codes = {lab: k for k, lab in enumerate(self.labels)}
        return tuple(
            tuple((codes[lab], j) for lab, j in own) for own in self.moves
        )

    def transitions_from(self, state):
        return tuple(
            (lab, self.states[j]) for lab, j in self.moves[self.index_of(state)]
        )

    # -- tau structure

    @lazy
    def _tau_pred(self):
        """Per state its tau predecessors as a mask, and the mask of the
        states that have one."""
        pred = [0] * self.n_states
        reached = 0
        for i, succ in enumerate(self._succ):
            for j in iter_bits(succ.get("tau", 0)):
                pred[j] |= 1 << i
                reached |= 1 << j
        return pred, reached

    def is_stable(self, i):
        return self.succ_mask(i, "tau") == 0

    @lazy
    def stable_mask(self):
        mask = 0
        for i, succ in enumerate(self._succ):
            if "tau" not in succ:
                mask |= 1 << i
        return mask

    def tau_closure(self, mask):
        """Forward closure of a state set under tau steps."""
        frontier = mask
        while frontier:
            grown = 0
            for i in iter_bits(frontier):
                grown |= self.succ_mask(i, "tau")
            frontier = grown & ~mask
            mask |= frontier
        return mask

    def backward_tau_closure(self, mask):
        """States that reach ``mask`` by tau steps.  Only states with a tau
        predecessor are expanded."""
        pred, reached = self._tau_pred
        frontier = mask & reached
        while frontier:
            grown = 0
            # bits peeled inline: the direct fixpoint spends much of its
            # time in this loop
            while frontier:
                low = frontier & -frontier
                grown |= pred[low.bit_length() - 1]
                frontier ^= low
            grown &= ~mask
            mask |= grown
            frontier = grown & reached
        return mask

    @lazy
    def _steps(self):
        """Per label, the states that carry it as ``(bit, successor mask)``."""
        steps = {}
        for i, succ in enumerate(self._succ):
            for lab, mask in succ.items():
                steps.setdefault(lab, []).append((1 << i, mask))
        return steps

    def pred_mask(self, label, target):
        """States with a ``label`` step into the state set ``target``."""
        base = 0
        for bit, succ in self._steps.get(label, ()):
            if succ & target:
                base |= bit
        return base

    @lazy
    def can_reach_stable_mask(self):
        """States having some tau path to a stable state."""
        return self.backward_tau_closure(self.stable_mask)

    @lazy
    def tau_sccs(self):
        """Strongly connected components of the tau steps, each a list of
        state indices, every component after all components it reaches
        (Tarjan's order, iteratively)."""
        n = self.n_states
        succ = [tuple(iter_bits(own.get("tau", 0))) for own in self._succ]
        index = [-1] * n
        low = [0] * n
        on_stack = [False] * n
        stack = []
        sccs = []
        seen = 0
        for root in range(n):
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

    @lazy
    def divergent(self):
        """Whether some state lies on a cycle of internal steps."""
        return any(len(comp) > 1 for comp in self.tau_sccs) or any(
            self.succ_mask(i, "tau") >> i & 1 for i in range(self.n_states)
        )

    # -- serialisation

    def to_aut(self):
        """Aldebaran text.  The first root is the initial state."""
        root = self.index[self.roots[0]] if self.roots else 0
        lines = [f"des ({root},{self.n_transitions},{self.n_states})"]
        for i, lab, j in self.trans_idx:
            lines.append(f'({i},"{lab}",{j})')
        return "\n".join(lines) + "\n"

    def to_json_dict(self):
        return {
            "states": [
                {"id": i, "name": self.state_text(s)} for i, s in enumerate(self.states)
            ],
            "roots": [self.index[r] for r in self.roots],
            "transitions": [
                {"from": i, "label": lab, "to": j} for i, lab, j in self.trans_idx
            ],
        }

    def to_json(self, **kwargs):
        return json.dumps(self.to_json_dict(), **kwargs)


def _index_of(states):
    index = {s: i for i, s in enumerate(states)}
    if len(index) != len(states):
        raise TxbisimError("duplicate states in transition system")
    return index


def iter_bits(mask):
    """Indices of the set bits of a nonnegative integer, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def tau_closure(lts, state):
    """States reachable from ``state`` by internal steps, itself included."""
    mask = lts.tau_closure(1 << lts.index_of(state))
    return tuple(lts.states[i] for i in iter_bits(mask))


_AUT_HEADER = re.compile(r"des\s*\(\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\)\s*\Z")
_AUT_EDGE = re.compile(r'\(\s*(\d+)\s*,\s*"([^"]*)"\s*,\s*(\d+)\s*\)\s*\Z')


def parse_aut(text):
    """Parse Aldebaran text into a system whose states are integers."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParseError("empty file")
    head = _AUT_HEADER.match(lines[0])
    if not head:
        raise ParseError("malformed header; expected des (root,transitions,states)", 1)
    root, n_trans, n_states = (int(g) for g in head.groups())
    if root >= n_states:
        raise ParseError("initial state out of range", 1)
    edges = []
    for lineno, ln in enumerate(lines[1:], start=2):
        m = _AUT_EDGE.match(ln)
        if not m:
            raise ParseError('malformed transition; expected (src,"label",dst)', lineno)
        src, lab, dst = int(m.group(1)), m.group(2), int(m.group(3))
        if src >= n_states or dst >= n_states:
            raise ParseError("state number out of range", lineno)
        edges.append((src, lab, dst))
    if len(edges) != n_trans:
        raise ParseError(
            f"header promises {n_trans} transitions, file has {len(edges)}"
        )
    return Lts(range(n_states), edges, (root,))


def export_aut(lts, sink):
    """Write Aldebaran text to a path or an open text file."""
    text = lts.to_aut()
    if hasattr(sink, "write"):
        sink.write(text)
    else:
        with open(sink, "w", encoding="utf-8") as fh:
            fh.write(text)


def import_aut(source):
    """Read Aldebaran text from a path or an open text file."""
    if hasattr(source, "read"):
        return parse_aut(source.read())
    with open(source, encoding="utf-8") as fh:
        return parse_aut(fh.read())


def disjoint_union(a, b):
    """One system holding tagged copies of two systems, roots concatenated."""

    def text(tagged):
        side, s = tagged
        return (a if side == 0 else b).state_text(s)

    states = [(0, s) for s in a.states] + [(1, s) for s in b.states]
    edges = [((0, s), lab, (0, d)) for s, lab, d in a.transitions()] + [
        ((1, s), lab, (1, d)) for s, lab, d in b.transitions()
    ]
    roots = [(0, r) for r in a.roots] + [(1, r) for r in b.roots]
    return Lts(states, edges, roots, state_text=text)


class Partition:
    """A partition of the state indices of a system into blocks."""

    def __init__(self, lts, blocks):
        self.lts = lts
        self.block_of = {}
        indices = range(lts.n_states)
        checked = []
        for bid, block in enumerate(blocks):
            try:
                block = tuple(block)
            except TypeError:
                raise TxbisimError(f"partition block {block!r} isn't iterable") from None
            if not block:
                raise TxbisimError("empty partition block")
            for i in block:
                if not isinstance(i, int) or i not in indices:
                    raise TxbisimError(
                        f"partition block holds {i!r}, not a state index of "
                        f"the {len(indices)}-state system"
                    )
                if i in self.block_of:
                    raise TxbisimError("overlapping partition blocks")
                self.block_of[i] = bid
            checked.append(tuple(sorted(block)))
        self.blocks = tuple(checked)
        if len(self.block_of) != lts.n_states:
            raise TxbisimError("partition does not cover all states")

    def __len__(self):
        return len(self.blocks)

    def block_mask(self, bid):
        mask = 0
        for i in self.blocks[bid]:
            mask |= 1 << i
        return mask

    def same(self, i, j):
        return self.block_of[i] == self.block_of[j]


def quotient(lts, partition):
    """Collapse a system by a partition of its states.

    Each block turns into one state.  Instantaneous transitions of a block
    are those its representative can reach by internal steps and then
    perform from inside the block, except that internal self-loops on a
    block are dropped; time-out transitions additionally need the inner
    source to be stable.  With the partition induced by branching reactive
    equivalence this yields a minimised system equivalent to the original.

    A block's representative is its lowest-indexed member.  Only defined for
    strongly guarded systems: with a cycle of internal steps the
    representative could miss block behaviour, so that case is rejected,
    as is a partition of another system.
    """
    if partition.lts is not lts:
        raise TxbisimError("the partition is of another system")
    if lts.divergent:
        raise TxbisimError(
            "quotient needs a strongly guarded system (no cycle of internal steps)"
        )
    block_states = tuple(
        tuple(lts.states[i] for i in block) for block in partition.blocks
    )

    def text(block):
        return "{" + ",".join(lts.state_text(s) for s in block) + "}"

    edges = []
    for bid, block in enumerate(partition.blocks):
        reach = lts.tau_closure(1 << block[0])
        inner = reach & partition.block_mask(bid)
        for p1 in iter_bits(inner):
            stable = lts.is_stable(p1)
            for lab, p2 in lts.moves[p1]:
                tid = partition.block_of[p2]
                if lab == "t":
                    if stable:
                        edges.append((block_states[bid], lab, block_states[tid]))
                elif lab == "tau" and tid == bid:
                    continue
                else:
                    edges.append((block_states[bid], lab, block_states[tid]))
    out = Lts(
        block_states,
        edges,
        tuple(dict.fromkeys(block_states[partition.block_of[lts.index[r]]] for r in lts.roots)),
        state_text=text,
    )
    for i in range(out.n_states):
        # a block that times out must be internally quiescent
        assert out.succ_mask(i, "t") == 0 or out.is_stable(i), (
            "quotient block has both an internal step and a time-out"
        )
    return out
