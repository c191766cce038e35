"""Modal formulas over reactive systems.

The logic observes a process together with the environment it runs in.  A
formula is evaluated either *triggered* (the environment is busy choosing
what to allow next, written mode ``None``) or under a set ``Y`` of allowed
actions.  The operators:

``T``              truth
``phi & phi``      conjunction (any width)
``~phi``           negation
``<tau>phi``       one internal step, same mode
``<a>phi``         one ``a`` step; under a mode the environment must allow
                   ``a`` or the process must be at a dead end, and the step
                   lands triggered
``<{a,b}>phi``     a time-out observed while the environment allows exactly
                   the written set; the target is judged under that set
``<eps>phi``       any number of internal steps, same mode
``<^a>phi``        like ``<a>`` but for ``tau`` also satisfied by staying put

Time-outs have no plain diamond: ``<t>`` is rejected, the environment set
form is the only way to see one fire.

Two sublogics matter: the characteristic one for branching reactive
bisimilarity (``"Lbc"``), whose modalities always sit under an ``<eps>``,
and its rooted refinement (``"Lbcr"``), which adds one leading strong
modality.  :func:`distinguish` synthesises a formula in the appropriate
sublogic for any inequivalent pair of terms, replaying the recorded
refutation of the fixpoint computation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .encoding import env_columns
from .equiv import Analysis, _first_fail, _rooted_fail, process_universe
from .errors import ParseError, TxbisimError, WitnessError
from .lts import iter_bits
from .terms import MAX_NESTING, envset, visible

__all__ = [
    "And",
    "Diamond",
    "EnvDiamond",
    "Eps",
    "Formula",
    "HatDiamond",
    "Not",
    "TOP",
    "Top",
    "distinguish",
    "formula_text",
    "in_subclass",
    "parse_formula",
    "satisfies",
]


# --------------------------------------------------------------------------
# syntax


class Formula:
    """A formula node.  Each node keeps its hash, the hash of its fields as
    a frozen dataclass's would be, taken once at construction from its
    children's kept hashes, so that hashing a node of any depth, as
    :func:`conjunction` does, costs no walk and no stack frame."""

    __slots__ = ("_hash",)

    def __post_init__(self):
        fields = tuple(getattr(self, name) for name in self.__match_args__)
        object.__setattr__(self, "_hash", hash(fields))

    def __hash__(self):
        return self._hash

    def __str__(self):
        return formula_text(self)


def _node(cls):
    """``cls`` as a frozen formula dataclass that keeps the hash
    :meth:`Formula.__post_init__` takes."""
    cls = dataclass(frozen=True, slots=True)(cls)
    cls.__hash__ = Formula.__hash__
    return cls


@_node
class Top(Formula):
    pass


@_node
class And(Formula):
    children: tuple

    def __post_init__(self):
        if len(self.children) < 2:
            raise TxbisimError("a conjunction needs at least two conjuncts")
        Formula.__post_init__(self)


@_node
class Not(Formula):
    sub: Formula


@_node
class Diamond(Formula):
    """One strong step: label ``tau`` or a visible action, never ``t``."""

    label: str
    sub: Formula

    def __post_init__(self):
        _check_diamond_label(self.label)
        Formula.__post_init__(self)


@_node
class HatDiamond(Formula):
    """Like Diamond, but ``tau`` may also be satisfied without moving."""

    label: str
    sub: Formula

    def __post_init__(self):
        _check_diamond_label(self.label)
        Formula.__post_init__(self)


@_node
class EnvDiamond(Formula):
    """A time-out fired while the environment allows exactly ``names``."""

    names: tuple
    sub: Formula

    def __post_init__(self):
        object.__setattr__(self, "names", envset(self.names))
        Formula.__post_init__(self)


@_node
class Eps(Formula):
    sub: Formula


TOP = Top()


def _check_diamond_label(label):
    if label in ("t", "t_eps") or label.startswith("eps"):
        raise TxbisimError(
            f"<{label}> is not a modality; time-outs are observed with <{{...}}>"
        )
    if label != "tau":
        visible(label)


def conjunction(formulas):
    """Conjunction of a possibly empty, possibly redundant list."""
    unique = tuple(dict.fromkeys(formulas))
    if not unique:
        return TOP
    if len(unique) == 1:
        return unique[0]
    return And(unique)


def formula_text(phi):
    """The textual syntax of a formula, by one iterative post-order walk
    over its nodes, so that depth costs no stack frames; a subformula
    shared by several parents is written once and reused."""
    texts: dict = {}
    stack = [phi]
    while stack:
        node = stack[-1]
        if id(node) in texts:
            stack.pop()
            continue
        op, subs = _layout(node)
        todo = [sub for sub in subs if id(sub) not in texts]
        if todo:
            stack.extend(todo)
            continue
        stack.pop()
        parts = [
            f"({texts[id(sub)]})" if isinstance(sub, And) else texts[id(sub)]
            for sub in subs
        ]
        texts[id(node)] = " & ".join(parts) if op is None else op + "".join(parts)
    return texts[id(phi)]


def _layout(phi):
    """A node's operator text, written before its one subformula (None for
    a conjunction, whose conjuncts are joined), and its subformulas."""
    match phi:
        case Top():
            return "T", ()
        case And(children):
            return None, children
        case Not(sub):
            return "~", (sub,)
        case Diamond(label, sub):
            return f"<{label}>", (sub,)
        case HatDiamond(label, sub):
            return f"<^{label}>", (sub,)
        case EnvDiamond(names, sub):
            return "<{" + ",".join(names) + "}>", (sub,)
        case Eps(sub):
            return "<eps>", (sub,)
    raise TxbisimError(f"not a formula: {phi!r}")


_TOKEN = re.compile(
    r"""\s*(?P<start>)(?:
        (?P<top>T\b)
      | (?P<not>~)
      | (?P<and>&)
      | (?P<lpar>\()
      | (?P<rpar>\))
      | <\s*eps\s*>               (?P<eps>)
      | <\s*\^\s*(?P<hat>[A-Za-z_][A-Za-z0-9_]*)\s*>
      | <\s*\{(?P<env>[^}]*)\}\s*>
      | <\s*(?P<diamond>[A-Za-z_][A-Za-z0-9_]*)\s*>
    )""",
    re.VERBOSE,
)

# each unary operator's kind of token, and how it wraps a formula given the
# token's text
_UNARY = {
    "not": lambda _, sub: Not(sub),
    "eps": lambda _, sub: Eps(sub),
    "hat": HatDiamond,
    "diamond": Diamond,
    "env": lambda raw, sub: EnvDiamond(
        tuple(n.strip() for n in raw.split(",") if n.strip()), sub
    ),
}


def parse_formula(text):
    """Parse the textual formula syntax; unary operators bind tighter
    than ``&``.  Unary operators and parentheses nest at most
    ``terms.MAX_NESTING`` deep."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            rest = text[pos:].strip()
            if not rest:
                break
            raise ParseError.at(
                f"cannot read formula at {rest[:12]!r}", text, text.index(rest, pos)
            )
        pos = m.end()
        # every alternative ends in a named group
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start("start"), pos))
    tokens.append(("end", None, len(text), len(text)))

    at = 0
    depth = 0

    def peek():
        return tokens[at][0]

    def fail(expected):
        kind, _, start, stop = tokens[at]
        found = "end of input" if kind == "end" else repr(text[start:stop])
        raise ParseError.at(f"expected {expected}, found {found}", text, start)

    def take():
        nonlocal at
        at += 1
        return tokens[at - 1][1]

    def expect(kind, expected):
        if tokens[at][0] != kind:
            fail(expected)
        take()

    def parse_conj():
        parts = [parse_unary()]
        while peek() == "and":
            take()
            parts.append(parse_unary())
        if len(parts) == 1:
            return parts[0]
        return And(tuple(parts))

    def parse_unary():
        # a run of unary operators in a loop, so that only parentheses
        # recurse; the operators wrap the formula innermost first
        nonlocal depth
        outer = depth
        wraps = []
        while True:
            kind = peek()
            if kind == "top":
                take()
                phi = TOP
                break
            if kind not in _UNARY and kind != "lpar":
                fail("a formula")
            start = tokens[at][2]
            if depth >= MAX_NESTING:
                raise ParseError.at(
                    f"nesting deeper than {MAX_NESTING} levels", text, start
                )
            depth += 1
            value = take()
            if kind == "lpar":
                phi = parse_conj()
                expect("rpar", "')'")
                break
            try:
                # the operator checks its label or names here, where the
                # error can name its place
                _UNARY[kind](value, TOP)
            except TxbisimError as exc:
                raise ParseError.at(str(exc), text, start) from None
            wraps.append((_UNARY[kind], value))
        for wrap, value in reversed(wraps):
            phi = wrap(value, phi)
        depth = outer
        return phi

    result = parse_conj()
    expect("end", "end of input")
    return result


# --------------------------------------------------------------------------
# satisfaction


def satisfies(lts, state, formula, mode=None):
    """Whether a state satisfies a formula, triggered (``mode=None``) or
    under a set of allowed actions: one bit of :func:`_sat_mask`."""
    m = None if mode is None else envset(mode)
    i = lts.index_of(state)
    return _sat_mask(lts, formula, m) >> i & 1 == 1


def _sat_mask(lts, formula, mode):
    """The states of ``lts`` that satisfy ``formula`` under ``mode``, as a
    mask: the global labelling of CTL model checking (Clarke, Emerson and
    Sistla, 1986).

    One iterative post-order sweep computes the satisfying states of each
    pair of a subformula and a mode that the formula reads, once, keyed by
    node identity (every node of ``formula`` stays alive meanwhile, so no
    id is reused):

    - ``T`` is every state, ``&`` the intersection, ``~`` the complement;
    - ``<tau>phi`` is the states with a tau step into ``phi``'s set, and
      ``<^tau>phi`` adds that set;
    - ``<a>phi`` and ``<^a>phi`` are the states with an ``a`` step into
      ``phi``'s triggered set, cut to the mode's dead ends when the mode
      does not allow ``a``;
    - ``<{X}>phi`` is the dead ends under ``X`` and the mode with a ``t``
      step into ``phi``'s set under ``X``;
    - ``<eps>phi`` is the states with a tau path into ``phi``'s set.

    A dead end under a set of actions is a stable state with no step on an
    action of that set (:func:`_dead_ends`).
    """
    full = (1 << lts.n_states) - 1
    got: dict = {}
    idle: dict = {}
    stack = [(formula, mode)]
    while stack:
        phi, env = stack[-1]
        key = (id(phi), env)
        if key in got:
            stack.pop()
            continue
        # dispatched on the node's class: a match statement here made the
        # sweep about twice as slow
        kind = type(phi)
        if kind not in _KINDS:
            raise TxbisimError(f"not a formula: {phi!r}")
        if kind is And:
            mask = full
            todo = False
            for c in phi.children:
                inner = got.get((id(c), env))
                if inner is None:
                    stack.append((c, env))
                    todo = True
                elif not todo:
                    mask &= inner
            if todo:
                continue
        elif kind is Top:
            mask = full
        else:
            if kind is EnvDiamond:
                at = phi.names
            elif kind is Not or kind is Eps:
                at = env
            else:
                label = phi.label
                at = env if label == "tau" else None
            inner = got.get((id(phi.sub), at))
            if inner is None:
                stack.append((phi.sub, at))
                continue
            if kind is Eps:
                mask = lts.backward_tau_closure(inner)
            elif kind is Not:
                mask = full & ~inner
            elif kind is EnvDiamond:
                mask = _dead_ends(lts, at, idle) & lts.pred_mask("t", inner)
                if env is not None:
                    mask &= _dead_ends(lts, env, idle)
            else:
                mask = lts.pred_mask(label, inner)
                if label == "tau":
                    if kind is HatDiamond:
                        mask |= inner
                elif env is not None and label not in env:
                    mask &= _dead_ends(lts, env, idle)
        stack.pop()
        got[key] = mask
    return got[id(formula), mode]


_KINDS = frozenset((Top, And, Not, Diamond, HatDiamond, EnvDiamond, Eps))


def _dead_ends(lts, names, known):
    """The stable states of ``lts`` with no step on an action of
    ``names``, kept in ``known`` by set."""
    got = known.get(names)
    if got is None:
        got = lts.stable_mask
        for name in names:
            # a target of -1 holds every state
            got &= ~lts.pred_mask(name, -1)
        known[names] = got
    return got


# --------------------------------------------------------------------------
# the characteristic sublogics


def in_subclass(phi, cls):
    """Membership in the characteristic sublogic ``"Lbc"`` (unrooted) or
    ``"Lbcr"`` (rooted).

    A formula is a member exactly when each of the memberships it names
    (:func:`_needs`) holds, so one iterative walk over those obligations
    decides it, each pair of a node and a sublogic once."""
    if cls not in ("Lbc", "Lbcr"):
        raise TxbisimError(f"unknown sublogic {cls!r}")
    seen = set()
    stack = [(phi, cls)]
    while stack:
        node, want = stack.pop()
        if (id(node), want) in seen:
            continue
        seen.add((id(node), want))
        needs = _needs(node, want)
        if needs is None:
            return False
        stack.extend(needs)
    return True


def _needs(phi, cls):
    """The memberships ``(subformula, sublogic)`` that together make
    ``phi`` a member of ``cls``, or None if nothing does."""
    match phi:
        case Top():
            return ()
        case And(children):
            return [(c, cls) for c in children]
        case Not(sub):
            return [(sub, cls)]
        case Eps(And((first, HatDiamond(_, second)))) if cls == "Lbc":
            return [(first, cls), (second, cls)]
        case Eps(EnvDiamond(_, sub)) if cls == "Lbc":
            return [(sub, cls)]
        case Eps(Not(Diamond("tau", Top()))) if cls == "Lbc":
            return ()
        case Diamond(_, sub) | EnvDiamond(_, sub) if cls == "Lbcr":
            return [(sub, "Lbc")]
    return None


# --------------------------------------------------------------------------
# synthesis of distinguishing formulas


class _Synthesizer:
    """Turns removal records into formulas.

    For a removed entry ``(p, x, q)`` of the direct route's table, ``x``
    the pair column or an environment mask, the produced formula holds at
    ``p`` and fails at ``q`` in that column.  Its record is ``(stamp,
    clause)``, the compiled clause ``(label, p2, col, env)`` it failed
    (:meth:`~txbisim.encoding._Profile.clauses`), whose target column
    ``col`` None is ``x``.  An entry the fixpoint's start excluded has no
    record: one side reaches by tau steps an action ``b`` of the column
    that the other does not (:meth:`~txbisim.encoding._Profile.apart`),
    and ``<eps>(T & <^b>T)`` for the lowest such ``b``, negated when ``q``
    is the side that reaches it, tells them apart in one step.  A record
    stamped ``s`` only ever refers to entries removed strictly earlier, or
    excluded, whose stamp is 0, so the recursion terminates; a clause
    replayed at stamp 0 failed against the relation that relates
    everything, where a failing move or time-out has no candidate
    successor, so nothing needs refuting and no table is read.  A
    time-out's formula refutes the timed successors of the states idle
    under its set and the column alone, as :func:`satisfies`.
    :meth:`caught` turns a failed clause of the queried pair, rooted or
    not, into its formula.
    """

    def __init__(self, analysis):
        self.an = analysis
        self.lts = analysis.lts
        self.pf = analysis.profile
        self._memo: dict = {}

    def formula(self, p, x, q):
        key = (p, x, q)
        got = self._memo.get(key)
        if got is None:
            apart = self.pf.apart(p, x, q)
            if apart:
                b = apart & -apart
                got = Eps(And((TOP, HatDiamond(self.pf.names[b][0], TOP))))
                if not self.pf.mtau[p] & b:
                    got = Not(got)
            else:
                rec = self.an.gen.records.get(key)
                if rec is None:
                    got = Not(self.formula(q, x, p))
                else:
                    got = self._from(p, x, q, *rec)
            self._memo[key] = got
        return got

    def caught(self, side, clause, rooted):
        """The formula of the queried pair whose side ``side`` fails
        ``clause`` of its pair row.  Unrooted, the clause failed against
        the relation that relates everything (stamp 0).  Rooted, it is a
        first step the other side cannot match into the relation: the
        formula refutes each step of the other side's that may match it
        (:meth:`~txbisim.encoding._Profile.first_step`), which reads the
        table only when there is one."""
        a, b = (self.an.iq, self.an.ip) if side else (self.an.ip, self.an.iq)
        if rooted:
            lab, a2, _, env = clause
            succ, y = self.pf.first_step(b, clause, self.pf.trig)
            body = conjunction(self.formula(a2, y, b2) for b2 in iter_bits(succ))
            psi = Diamond(lab, body) if env is None else EnvDiamond(env, body)
        else:
            psi = self._from(a, self.pf.trig, b, 0, clause)
        return psi if side == 0 else Not(psi)

    # -- clause replay

    def _closure(self, q):
        return list(iter_bits(self.lts.tau_closure(1 << q)))

    def _refuted(self, p, x, qs, stamp):
        """Conjunction refuting ``(p, x, q)`` for every ``q`` of ``qs``,
        each removed before ``stamp``."""
        qs = list(dict.fromkeys(qs))
        for q in qs:
            assert _earlier(self.an.gen.stamp(p, x, q), stamp)
        return conjunction(self.formula(p, x, q) for q in qs)

    def _from(self, p, x, q, stamp, clause):
        lab, p2, col, env = clause
        if lab is None:
            return Eps(Not(Diamond("tau", TOP)))
        lts = self.lts
        y = x if col is None else col
        if env is None:
            # closure members refuted before the recorded stamp vs the rest;
            # stamp 0 reads no table
            bad1, good = [], []
            for q1 in self._closure(q):
                early = stamp and _earlier(self.an.gen.stamp(p, x, q1), stamp)
                (bad1 if early else good).append(q1)
            bad2 = []
            for q1 in good:
                bad2.extend(iter_bits(lts.succ_mask(q1, lab)))
                if lab == "tau":
                    bad2.append(q1)
            first = conjunction(self.formula(p, x, q1) for q1 in bad1)
            second = self._refuted(p2, y, bad2, stamp)
            return Eps(And((first, HatDiamond(lab, second))))
        # timeout: every timed successor of a closure member idle under the
        # set and the column (trig's bit is no action's) is already refuted
        bad = [q2 for q1 in self._closure(q) if self.pf.deadend(q1, y | x)
               for q2 in iter_bits(lts.succ_mask(q1, "t"))]
        return Eps(EnvDiamond(env, self._refuted(p2, y, bad, stamp)))


def _earlier(stamp, bound):
    return stamp is not None and stamp < bound


def distinguish(p, q, rooted=False, opts=None):
    """A formula telling two closed terms apart, or None if none exists.

    The result lies in the characteristic sublogic of the chosen
    equivalence, holds at ``p`` and fails at ``q``; both facts are checked
    before returning, the second two read off one sweep of
    :func:`_sat_mask`.  The first pass of the check's own kind comes first,
    against the relation that relates everything, as in the checks: a
    clause it catches has no candidate match to refute, so its formula
    needs no direct fixpoint.
    Any other pair runs the fixpoint over the pair column and the columns
    it reads, and replays its records.
    """
    universe = process_universe(p, q)
    an = Analysis(p, q, opts, (env_columns(universe)[2],), universe)
    pf, i, j = an.profile, an.ip, an.iq
    syn = _Synthesizer(an)
    fail = (_rooted_fail(pf, None, i, pf.trig, j) if rooted
            else _first_fail(pf, i, pf.trig, j, an.memo))
    if fail is not None:
        phi = syn.caught(*fail, rooted)
    elif rooted:
        fail = _rooted_fail(pf, an.gen.rows, i, pf.trig, j)
        phi = fail and syn.caught(*fail, rooted)
    else:
        phi = None if an.gen.has(i, pf.trig, j) else syn.formula(i, pf.trig, j)
    if phi is None:
        return None
    cls = "Lbcr" if rooted else "Lbc"
    if not in_subclass(phi, cls):
        raise WitnessError(f"synthesised formula left {cls}: {formula_text(phi)}")
    holds = _sat_mask(an.lts, phi, None)
    if not holds >> i & 1 or holds >> j & 1:
        raise WitnessError(
            f"synthesised formula fails to separate the terms: {formula_text(phi)}"
        )
    return phi
