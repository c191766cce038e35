"""Process terms: construction, interning, parsing, printing, substitution.

The term language has deadlock ``0``, action prefixing ``alpha.E`` (where an
action is a visible name, the internal step ``tau``, or the time-out ``t``),
binary choice ``E + F``, synchronised parallel composition ``E ||{S} F``,
abstraction ``tau{I}(E)``, relational renaming ``ren{a->b,...}(E)``, the
environment operators ``theta{L;U}(E)`` and ``psi{X}(E)``, and recursion via
named specifications ``<x|S>``.

Terms are interned: construction goes through the ``mk_*`` factories, which
normalise sums (flatten, drop ``0`` summands, sort children) and return a
shared node per distinct structure.  Identical structure therefore means
identical object, and every node carries a stable integer ``uid``.  Summand
duplication is deliberately kept: ``x + x`` does not collapse to ``x``.

The store is append-only after construction; concurrent readers are safe,
construction itself is single-writer.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import InvalidTermError, ParseError, UndefinedNameError

__all__ = [
    "Action",
    "TAU",
    "TIMEOUT",
    "visible",
    "EnvSet",
    "envset",
    "EMPTY_ENV",
    "Term",
    "Nil",
    "Prefix",
    "Choice",
    "Par",
    "Abstract",
    "Rename",
    "Theta",
    "Psi",
    "Var",
    "RecCall",
    "RecSpec",
    "NIL",
    "mk_prefix",
    "mk_choice",
    "sum_of",
    "summands",
    "mk_par",
    "mk_abstract",
    "mk_rename",
    "mk_theta",
    "mk_psi",
    "mk_var",
    "mk_recspec",
    "mk_reccall",
    "operands",
    "with_operand",
    "spec_close",
    "free_vars",
    "validate",
    "ValidationReport",
    "substitute",
    "alphabet",
    "Definitions",
    "parse_file",
    "parse_term",
    "term_text",
    "definitions_text",
]

# Names reserved for the action and label namespace.  ``tau`` and ``t`` are
# the internal step and the time-out; the remaining spellings are claimed by
# the transition-system label conventions.
RESERVED = frozenset({"tau", "t", "t_eps", "def", "spec", "theta", "psi", "ren"})

# Deepest nesting of parentheses and operator bodies the parser accepts.
# Each level costs it a few stack frames, so deeper input would otherwise
# exhaust Python's recursion limit.
MAX_NESTING = 200

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")
_ACT_RE = re.compile(r"[a-z][a-z0-9_]*\Z")


def _check_action_name(name):
    if not _ACT_RE.match(name):
        raise InvalidTermError(f"action names are lowercase identifiers: {name!r}")
    if name in RESERVED or name.startswith("eps_"):
        raise InvalidTermError(f"reserved spelling cannot name a visible action: {name!r}")


# ---------------------------------------------------------------------------
# Actions


@dataclass(frozen=True, slots=True)
class Action:
    """A transition label at the term level: visible name, ``tau``, or ``t``."""

    kind: str  # "vis" | "tau" | "t"
    name: str

    @property
    def is_visible(self):
        return self.kind == "vis"

    @property
    def in_a_tau(self):
        """Membership in the instantaneous actions (visible or ``tau``)."""
        return self.kind != "t"

    def sort_key(self):
        return ({"vis": 0, "tau": 1, "t": 2}[self.kind], self.name)

    def __str__(self):
        return self.name


TAU = Action("tau", "tau")
TIMEOUT = Action("t", "t")

_VISIBLE_CACHE: dict[str, Action] = {}


def visible(name):
    """The visible action with the given (validated) name."""
    act = _VISIBLE_CACHE.get(name)
    if act is None:
        _check_action_name(name)
        act = Action("vis", name)
        _VISIBLE_CACHE[name] = act
    return act


# ---------------------------------------------------------------------------
# Environment sets


class EnvSet:
    """An immutable, canonically ordered set of visible action names."""

    __slots__ = ("names", "_set")

    def __init__(self, names):
        object.__setattr__(self, "names", tuple(names))
        object.__setattr__(self, "_set", frozenset(self.names))

    def __contains__(self, name):
        return name in self._set

    def __iter__(self):
        return iter(self.names)

    def __len__(self):
        return len(self.names)

    def __eq__(self, other):
        return isinstance(other, EnvSet) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __le__(self, other):
        return self._set <= other._set

    def union(self, other):
        return envset(self._set | set(other))

    def intersection(self, other):
        return envset(self._set & set(other))

    def isdisjoint(self, other):
        return self._set.isdisjoint(set(other))

    def text(self):
        return "{" + ",".join(self.names) + "}"

    def __repr__(self):
        return f"EnvSet({self.names!r})"


_ENVSET_CACHE: dict[tuple, EnvSet] = {}


def envset(names=()):
    """Canonical EnvSet over the given visible action names."""
    ordered = tuple(sorted(set(names)))
    cached = _ENVSET_CACHE.get(ordered)
    if cached is None:
        for n in ordered:
            _check_action_name(n)
        cached = EnvSet(ordered)
        _ENVSET_CACHE[ordered] = cached
    return cached


EMPTY_ENV = envset()


# ---------------------------------------------------------------------------
# Term nodes

_INTERN: dict[tuple, "Term"] = {}
_UID = 0


def _next_uid():
    global _UID
    _UID += 1
    return _UID


class Term:
    """Base class of interned process terms.

    A node is made once, by :func:`_interned`, which sets its fields (the
    subclass's slots), a stable ``uid`` and two static facts derived from
    its parts: ``closed``, true when no variable occurs free, and ``valid``,
    false when the term reaches a recursive specification that has a
    ``theta``/``psi`` above one of its own variables.

    Three more slots cache what a node computes on first request and never
    changes: ``alpha`` holds :func:`alphabet`'s set, ``moves`` holds
    :func:`~txbisim.semantics.derive`'s transitions and ``init`` holds
    :func:`~txbisim.semantics.init_set`'s names.  Each is None until its
    function fills it; ``semantics`` fills the last two.
    """

    __slots__ = ("uid", "closed", "valid", "alpha", "moves", "init")

    kindname = "term"

    def __repr__(self):
        return f"<{term_text(self)}>"


class Nil(Term):
    __slots__ = ()
    kindname = "nil"


class Prefix(Term):
    __slots__ = ("action", "body")
    kindname = "prefix"


class Choice(Term):
    __slots__ = ("left", "right")
    kindname = "choice"


class Par(Term):
    __slots__ = ("left", "sync", "right")
    kindname = "par"


class Abstract(Term):
    __slots__ = ("hide", "body")
    kindname = "abstract"


class Rename(Term):
    __slots__ = ("pairs", "body")
    kindname = "rename"


class Theta(Term):
    __slots__ = ("lower", "upper", "body")
    kindname = "theta"


class Psi(Term):
    __slots__ = ("env", "body")
    kindname = "psi"


class Var(Term):
    __slots__ = ("name",)
    kindname = "var"


class RecCall(Term):
    __slots__ = ("var", "spec")
    kindname = "reccall"


def operands(term):
    """The process operands of a term, in order: the body of a prefix or a
    unary operator, the two sides of a sum or a parallel composition.  A
    recursive call has none; its specification's bodies are no operands."""
    if isinstance(term, (Choice, Par)):
        return (term.left, term.right)
    if isinstance(term, (Prefix, Abstract, Rename, Theta, Psi)):
        return (term.body,)
    return ()


def _interned(key, cls, *fields):
    """The one node of class ``cls`` with ``fields`` (its slots, in order),
    made under ``key`` on first request.

    Its facts come from its operands.  A variable is open; a recursive call
    has no operands, is closed, as every specification is, and is valid
    when its specification is.
    """
    node = _INTERN.get(key)
    if node is not None:
        return node
    node = cls()
    for slot, value in zip(cls.__slots__, fields):
        setattr(node, slot, value)
    node.uid = _next_uid()
    node.alpha = node.moves = node.init = None
    closed, valid = cls is not Var, True
    for part in operands(node):
        closed = closed and part.closed
        valid = valid and part.valid
    if cls is RecCall:
        valid = node.spec.valid
    node.closed, node.valid = closed, valid
    _INTERN[key] = node
    return node


NIL = _interned(("nil",), Nil)


class RecSpec:
    """A recursive specification: one defining equation per variable.

    Interned like terms; equality is object identity.  The display name used
    by the concrete syntax lives in ``Definitions``, not here, so the same
    specification parsed under two names is shared.  A specification is
    closed: its bodies have no free variable but its own, so every call of
    it is a closed term.
    """

    __slots__ = ("uid", "vars", "bodies", "valid")

    def __init__(self, vars_, bodies):
        occurrences = set().union(*(_free_occurrences(b) for b in bodies))
        stray = sorted({name for name, _ in occurrences} - set(vars_))
        if stray:
            raise InvalidTermError(
                "a specification may use no free variable but its own: "
                + ", ".join(stray)
            )
        self.vars = vars_
        self.bodies = bodies
        self.uid = _next_uid()
        # the capture check: every variable left is bound here, so one below
        # a theta/psi would put that operator inside the recursion
        self.valid = all(b.valid for b in bodies) and not any(
            under_env for _, under_env in occurrences
        )

    def body(self, var):
        return self.bodies[self.vars.index(var)]

    def equations(self):
        return dict(zip(self.vars, self.bodies))

    def __repr__(self):
        eqs = "; ".join(f"{v} = {term_text(b)}" for v, b in zip(self.vars, self.bodies))
        return f"<spec {eqs}>"


_SPEC_INTERN: dict[tuple, RecSpec] = {}


def mk_recspec(equations):
    """Intern a recursive specification from a var -> term mapping; a body
    with a free variable that is not a key is refused."""
    if not equations:
        raise InvalidTermError("a recursive specification needs at least one equation")
    items = sorted(equations.items())
    for v, _ in items:
        if not _NAME_RE.match(v) or v in RESERVED:
            raise InvalidTermError(f"bad specification variable: {v!r}")
    key = tuple((v, b.uid) for v, b in items)
    spec = _SPEC_INTERN.get(key)
    if spec is None:
        spec = RecSpec(tuple(v for v, _ in items), tuple(b for _, b in items))
        _SPEC_INTERN[key] = spec
    return spec


# ---------------------------------------------------------------------------
# Factories


def mk_prefix(action, body):
    if not isinstance(action, Action):
        raise InvalidTermError(f"prefix needs an Action, got {action!r}")
    return _interned(("pre", action.kind, action.name, body.uid), Prefix, action, body)


def summands(term):
    """The flat summand list of a sum (a non-sum term is its own summand)."""
    out = []
    stack = [term]
    while stack:
        node = stack.pop()
        if isinstance(node, Choice):
            stack.append(node.left)
            stack.append(node.right)
        else:
            out.append(node)
    out.reverse()
    return out


def mk_choice(left, right):
    """Sum of two terms, normalised: flattened, ``0`` dropped, sorted.

    Duplicate summands are kept; idempotence is an equivalence to be proved,
    not a structural identity.
    """
    items = [s for s in summands(left) + summands(right) if s is not NIL]
    if not items:
        return NIL
    items.sort(key=lambda t: t.uid)
    acc = items[0]
    for item in items[1:]:
        # a plain binary node, left-nested in summand order
        acc = _interned(("cho", acc.uid, item.uid), Choice, acc, item)
    return acc


def sum_of(terms):
    acc = NIL
    for term in terms:
        acc = mk_choice(acc, term)
    return acc


def mk_par(left, sync, right):
    return _interned(("par", left.uid, sync.names, right.uid), Par, left, sync, right)


def mk_abstract(hide, body):
    return _interned(("abs", hide.names, body.uid), Abstract, hide, body)


def mk_rename(pairs, body):
    """Renaming by a finite relation on visible actions, given as (src, dst) pairs."""
    canon = tuple(sorted(set(pairs)))
    for src, dst in canon:
        _check_action_name(src)
        _check_action_name(dst)
    return _interned(("ren", canon, body.uid), Rename, canon, body)


def mk_theta(lower, upper, body):
    if not lower <= upper:
        raise InvalidTermError(
            f"theta needs lower within upper: {lower.text()} vs {upper.text()}"
        )
    return _interned(
        ("theta", lower.names, upper.names, body.uid), Theta, lower, upper, body
    )


def mk_psi(env, body):
    return _interned(("psi", env.names, body.uid), Psi, env, body)


def mk_var(name):
    if not _NAME_RE.match(name) or name in RESERVED:
        raise InvalidTermError(f"bad variable name: {name!r}")
    return _interned(("var", name), Var, name)


def mk_reccall(var, spec):
    if var not in spec.vars:
        raise InvalidTermError(f"{var!r} is not a variable of the specification")
    return _interned(("rec", var, spec.uid), RecCall, var, spec)


def with_operand(term, slot, child):
    """The term with its operand number ``slot`` (of :func:`operands`)
    replaced by ``child``, built by the term's own factory."""
    if isinstance(term, (Choice, Par)):
        left, right = (child, term.right) if slot == 0 else (term.left, child)
        if isinstance(term, Choice):
            return mk_choice(left, right)
        return mk_par(left, term.sync, right)
    if isinstance(term, Prefix):
        return mk_prefix(term.action, child)
    if isinstance(term, Abstract):
        return mk_abstract(term.hide, child)
    if isinstance(term, Rename):
        return mk_rename(term.pairs, child)
    if isinstance(term, Theta):
        return mk_theta(term.lower, term.upper, child)
    if isinstance(term, Psi):
        return mk_psi(term.env, child)
    raise InvalidTermError(f"{term.kindname} has no operand {slot}")


def spec_close(term, spec):
    """The derived call binding a term by a specification.

    Substitutes ``<y|spec>`` for every specification variable ``y`` free in
    the term.
    """
    return substitute(term, {v: mk_reccall(v, spec) for v in spec.vars})


# ---------------------------------------------------------------------------
# Queries


def _free_occurrences(term):
    """The free variable occurrences of a term as ``(name, under_env)``
    pairs, ``under_env`` telling whether a ``theta``/``psi`` lies above the
    occurrence.  The walk skips closed subterms, so it never enters a
    recursive call, and visits a shared subterm once per value of
    ``under_env``."""
    found = set()
    seen = set()
    stack = [(term, False)]
    while stack:
        node, under_env = stack.pop()
        if node.closed or (node, under_env) in seen:
            continue
        seen.add((node, under_env))
        if isinstance(node, Var):
            found.add((node.name, under_env))
        else:
            under_env = under_env or isinstance(node, (Theta, Psi))
            stack.extend((child, under_env) for child in operands(node))
    return found


def free_vars(term):
    """Variables with a free occurrence; spec-bound occurrences do not count."""
    return frozenset(name for name, _ in _free_occurrences(term))


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    closed: bool
    violations: tuple[str, ...]

    @property
    def is_process(self):
        return self.ok and self.closed


def validate(term):
    """Check the static restriction on the environment operators.

    A term is rejected when some ``theta``/``psi`` body has a variable
    occurrence that is free in the body but bound by a surrounding recursive
    specification: the operator would otherwise be smuggled into a recursion
    it must not guard.  Violations are reported as paths from the root.
    """
    if term.valid:
        return ValidationReport(True, term.closed, ())
    violations = []
    # entries (node, path, in_body): in_body tells whether the node lies in
    # a specification body, whose free variables that specification binds
    stack = [(term, "", False)]
    while stack:
        node, path, in_body = stack.pop()
        if node.valid and (node.closed or not in_body):
            continue
        if in_body and isinstance(node, (Theta, Psi)) and not node.body.closed:
            violations.append(
                f"{path or 'root'}: {node.kindname} body has bound variable(s) "
                + ", ".join(sorted(free_vars(node.body)))
            )
        if isinstance(node, RecCall):
            steps = [
                (f"<{node.var}|...>.{v}", b) for v, b in node.spec.equations().items()
            ]
            in_body = True
        elif isinstance(node, Choice):
            steps = [(f"sum[{i}]", s) for i, s in enumerate(summands(node))]
        elif isinstance(node, Par):
            steps = [("par.left", node.left), ("par.right", node.right)]
        else:
            steps = [(node.kindname, child) for child in operands(node)]
        stack.extend(
            (child, f"{path}.{step}", in_body) for step, child in reversed(steps)
        )
    return ValidationReport(False, term.closed, tuple(violations))


# ---------------------------------------------------------------------------
# Substitution


def substitute(term, mapping):
    """Simultaneous substitution of terms for free variables.

    Specifications are closed, so no binder lies between a term's root and
    its free variables and no image can be captured; closed subterms,
    recursive calls among them, are left as they are.  A run of prefixes is
    taken in a loop, so deep chains substitute without deep recursion.
    """
    if term.closed:
        return term
    actions = []
    while isinstance(term, Prefix):
        actions.append(term.action)
        term = term.body
    if isinstance(term, Var):
        term = mapping.get(term.name, term)
    elif isinstance(term, Choice):
        term = sum_of(substitute(s, mapping) for s in summands(term))
    elif isinstance(term, Par):
        left, right = (substitute(side, mapping) for side in (term.left, term.right))
        term = mk_par(left, term.sync, right)
    else:
        term = with_operand(term, 0, substitute(term.body, mapping))
    for action in reversed(actions):
        term = mk_prefix(action, term)
    return term


# ---------------------------------------------------------------------------
# Alphabet

def alphabet(term):
    """A finite superset of every visible action the term can ever perform.

    Collects the syntactically occurring visible prefix actions together
    with the sources and targets of every renaming.  The operator index sets
    cannot enable actions of their own, so they do not contribute.
    """
    if term.alpha is not None:
        return term.alpha
    names: set[str] = set()
    seen: set[Term] = set()
    stack = [term]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        if isinstance(node, Prefix) and node.action.is_visible:
            names.add(node.action.name)
        elif isinstance(node, Rename):
            for src, dst in node.pairs:
                names.add(src)
                names.add(dst)
        elif isinstance(node, RecCall):
            stack.extend(node.spec.bodies)
        stack.extend(operands(node))
    term.alpha = envset(names)
    return term.alpha


# ---------------------------------------------------------------------------
# Concrete syntax: tokenizer


_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+|\#[^\n]*)
    | (?P<arrow>->)
    | (?P<parpipe>\|\|)
    | (?P<ident>[A-Za-z][A-Za-z0-9_]*)
    | (?P<zero>0)
    | (?P<punct>[+.(){};,<>|=])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Tok:
    kind: str
    text: str
    line: int
    col: int


def _tokenize(text):
    toks = []
    pos = 0
    line = 1
    line_start = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(
                f"unexpected character {text[pos]!r}", line, pos - line_start + 1
            )
        kind = m.lastgroup
        chunk = m.group()
        if kind != "ws":
            toks.append(_Tok(kind, chunk, line, pos - line_start + 1))
        line += chunk.count("\n")
        if "\n" in chunk:
            line_start = pos + chunk.rindex("\n") + 1
        pos = m.end()
    toks.append(_Tok("eof", "", line, pos - line_start + 1))
    return toks


class _Parser:
    """Recursive-descent parser for process files and standalone terms."""

    def __init__(self, text, definitions=None):
        self.toks = _tokenize(text)
        self.pos = 0
        self.defs = definitions if definitions is not None else Definitions()
        self.spec_vars: frozenset[str] = frozenset()
        self.depth = 0

    # -- token plumbing

    def peek(self, ahead=0):
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def next(self):
        tok = self.toks[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, text):
        tok = self.next()
        if tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text or 'end of input'!r}",
                             tok.line, tok.col)
        return tok

    def fail(self, message, tok=None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col)

    # -- items

    def parse_items(self):
        while self.peek().kind != "eof":
            tok = self.peek()
            if tok.text == "def":
                self.parse_def()
            elif tok.text == "spec":
                self.parse_spec()
            else:
                self.fail(f"expected 'def' or 'spec', found {tok.text!r}")
        return self.defs

    def parse_def(self):
        self.expect("def")
        name_tok = self.next()
        name = name_tok.text
        if name_tok.kind != "ident" or name in RESERVED:
            self.fail(f"bad definition name {name!r}", name_tok)
        if name in self.defs.defs or name in self.defs.specs:
            self.fail(f"duplicate name {name!r}", name_tok)
        self.expect("=")
        term = self.parse_proc()
        self.expect(";")
        term = self.resolve_names(term, name_tok)
        report = validate(term)
        if not report.ok:
            self.fail(f"invalid definition {name!r}: {report.violations[0]}", name_tok)
        self.defs.add_def(name, term)

    def parse_spec(self):
        self.expect("spec")
        name_tok = self.next()
        name = name_tok.text
        if name_tok.kind != "ident" or name in RESERVED:
            self.fail(f"bad specification name {name!r}", name_tok)
        if name in self.defs.defs or name in self.defs.specs:
            self.fail(f"duplicate name {name!r}", name_tok)
        self.expect("{")
        raw = []
        var_names = set()
        while self.peek().text != "}":
            var_tok = self.next()
            if var_tok.kind != "ident" or var_tok.text in RESERVED:
                self.fail(f"bad specification variable {var_tok.text!r}", var_tok)
            if var_tok.text in var_names:
                self.fail(f"duplicate equation for {var_tok.text!r}", var_tok)
            self.expect("=")
            body = self.parse_proc()
            self.expect(";")
            raw.append((var_tok, body))
            var_names.add(var_tok.text)
        self.expect("}")
        self.spec_vars = frozenset(var_names)
        try:
            equations = {}
            for var_tok, body in raw:
                equations[var_tok.text] = self.resolve_names(body, var_tok)
            spec = mk_recspec(equations)
        finally:
            self.spec_vars = frozenset()
        if not spec.valid:
            sample = mk_reccall(spec.vars[0], spec)
            self.fail(
                f"invalid specification {name!r}: {validate(sample).violations[0]}",
                name_tok,
            )
        self.defs.add_spec(name, spec)

    def resolve_names(self, term, at_tok):
        """Resolve bare identifiers against earlier definitions.

        Identifiers bound by the specification being parsed stay variables;
        everything else must name an earlier ``def`` and is inlined.
        """
        if term.closed:
            return term
        pending = free_vars(term) - self.spec_vars
        images = {}
        for n in sorted(pending):
            if n in self.defs.defs:
                images[n] = self.defs.defs[n]
            elif n in self.defs.specs:
                raise UndefinedNameError(
                    f"{n!r} names a specification, not a process",
                    at_tok.line, at_tok.col,
                )
            else:
                raise UndefinedNameError(
                    f"reference to undefined name {n!r}", at_tok.line, at_tok.col
                )
        return substitute(term, images) if images else term

    # -- processes

    def parse_proc(self):
        term = self.parse_par()
        while self.peek().text == "+":
            self.next()
            term = mk_choice(term, self.parse_par())
        return term

    def parse_par(self):
        term = self.parse_prefix()
        while self.peek().kind == "parpipe":
            self.next()
            self.expect("{")
            sync = self.parse_acts("}")
            self.expect("}")
            term = mk_par(term, sync, self.parse_prefix())
        return term

    def parse_prefix(self):
        # a run of prefixes in a loop, so deep chains parse without deep
        # recursion; the prefixes are built innermost first
        actions = []
        while True:
            tok = self.peek()
            if tok.kind != "ident" or self.peek(1).text != "." or tok.text in (
                "theta", "psi", "ren",
            ):
                break
            self.next()
            self.next()
            actions.append(self.action_for(tok))
        term = self.parse_atom()
        for action in reversed(actions):
            term = mk_prefix(action, term)
        return term

    def action_for(self, tok):
        if tok.text == "tau":
            return TAU
        if tok.text == "t":
            return TIMEOUT
        try:
            return visible(tok.text)
        except InvalidTermError as exc:
            self.fail(str(exc), tok)

    def parse_atom(self):
        tok = self.peek()
        if tok.kind == "zero":
            self.next()
            return NIL
        if tok.text == "<":
            return self.parse_reccall()
        if tok.text == "(":
            self.next()
            wrap = None
        elif tok.text in _OPERATORS and self.peek(1).text == "{":
            wrap = _OPERATORS[tok.text](self)
        elif tok.kind == "ident":
            if tok.text in RESERVED:
                self.fail(f"reserved word {tok.text!r} cannot stand alone here")
            self.next()
            return mk_var(tok.text)
        else:
            self.fail(f"expected a process, found {tok.text or 'end of input'!r}")
        if self.depth >= MAX_NESTING:
            self.fail(f"nesting deeper than {MAX_NESTING} levels", tok)
        self.depth += 1
        term = self.parse_proc()
        self.depth -= 1
        self.expect(")")
        return term if wrap is None else wrap(term)

    def parse_reccall(self):
        self.expect("<")
        var_tok = self.next()
        if var_tok.kind != "ident" or var_tok.text in RESERVED:
            self.fail(f"bad variable {var_tok.text!r}", var_tok)
        self.expect("|")
        name_tok = self.next()
        spec = self.defs.specs.get(name_tok.text)
        if spec is None:
            raise UndefinedNameError(
                f"reference to undefined specification {name_tok.text!r}",
                name_tok.line, name_tok.col,
            )
        self.expect(">")
        if var_tok.text not in spec.vars:
            self.fail(
                f"{var_tok.text!r} is not a variable of {name_tok.text!r}", var_tok
            )
        return mk_reccall(var_tok.text, spec)

    def parse_acts(self, closer, minimum=0):
        names = []
        while self.peek().text != closer:
            tok = self.next()
            if tok.kind != "ident":
                self.fail(f"expected an action name, found {tok.text!r}", tok)
            try:
                names.append(visible(tok.text).name)
            except InvalidTermError as exc:
                self.fail(str(exc), tok)
            if self.peek().text == ",":
                self.next()
            elif self.peek().text != closer:
                self.fail(f"expected ',' or {closer!r}")
        if len(names) < minimum:
            self.fail("this operator needs at least one action")
        return envset(names)

    # -- operator heads: each reads an operator up to the opening
    # parenthesis of its body and returns the function that makes the term, so
    # that bodies nest through parse_atom alone

    def abstract_head(self):
        self.next()
        self.expect("{")
        hide = self.parse_acts("}", minimum=1)
        self.expect("}")
        self.expect("(")
        return lambda body: mk_abstract(hide, body)

    def rename_head(self):
        self.next()
        self.expect("{")
        pairs = []
        while self.peek().text != "}":
            src = self.next()
            self.expect("->")
            dst = self.next()
            for tok in (src, dst):
                if tok.kind != "ident":
                    self.fail(f"expected an action name, found {tok.text!r}", tok)
            try:
                pairs.append((visible(src.text).name, visible(dst.text).name))
            except InvalidTermError as exc:
                self.fail(str(exc), src)
            if self.peek().text == ",":
                self.next()
        self.expect("}")
        if not pairs:
            self.fail("a renaming needs at least one pair")
        self.expect("(")
        return lambda body: mk_rename(pairs, body)

    def theta_head(self):
        open_tok = self.next()
        self.expect("{")
        lower = self.parse_acts(";")
        self.expect(";")
        upper = self.parse_acts("}")
        self.expect("}")
        self.expect("(")

        def build(body):
            try:
                return mk_theta(lower, upper, body)
            except InvalidTermError as exc:
                self.fail(str(exc), open_tok)

        return build

    def psi_head(self):
        self.next()
        self.expect("{")
        env = self.parse_acts("}")
        self.expect("}")
        self.expect("(")
        return lambda body: mk_psi(env, body)


_OPERATORS = {
    "tau": _Parser.abstract_head,
    "ren": _Parser.rename_head,
    "theta": _Parser.theta_head,
    "psi": _Parser.psi_head,
}


class Definitions:
    """Named processes and specifications from one source file."""

    def __init__(self):
        self.defs: dict[str, Term] = {}
        self.specs: dict[str, RecSpec] = {}
        self.order: list[tuple[str, str]] = []

    def add_def(self, name, term):
        self.defs[name] = term
        self.order.append(("def", name))

    def add_spec(self, name, spec):
        self.specs[name] = spec
        self.order.append(("spec", name))

    def spec_names(self):
        return {spec.uid: name for name, spec in self.specs.items()}

    def __eq__(self, other):
        return (
            isinstance(other, Definitions)
            and self.order == other.order
            and self.defs == other.defs
            and self.specs == other.specs
        )


def parse_file(text):
    """Parse a process file into definitions with resolved cross-references."""
    return _Parser(text).parse_items()


def parse_term(text, definitions=None, allow_free=False):
    """Parse a single process expression.

    Earlier definitions may be supplied for name resolution; otherwise bare
    identifiers are errors unless ``allow_free`` keeps them as variables.
    """
    parser = _Parser(text, definitions)
    term = parser.parse_proc()
    tok = parser.peek()
    if tok.kind != "eof":
        parser.fail(f"trailing input {tok.text!r}")
    if not allow_free:
        term = parser.resolve_names(term, parser.toks[0])
    return term


# ---------------------------------------------------------------------------
# Printing


def _level(term):
    if isinstance(term, Choice):
        return 0
    if isinstance(term, Par):
        return 1
    if isinstance(term, Prefix):
        return 2
    return 3


def term_text(term, spec_names=None):
    """Concrete syntax for a term; inverse of ``parse_term`` on its output."""
    names = spec_names or {}

    def render(node, min_level):
        text = plain(node)
        return f"({text})" if _level(node) < min_level else text

    def plain(node):
        if node is NIL:
            return "0"
        if isinstance(node, Var):
            return node.name
        if isinstance(node, Prefix):
            # a run of prefixes in a loop, so deep chains print without
            # deep recursion
            heads = []
            while isinstance(node, Prefix):
                heads.append(f"{node.action}.")
                node = node.body
            return "".join(heads) + render(node, 2)
        if isinstance(node, Choice):
            return " + ".join(render(s, 1) for s in summands(node))
        if isinstance(node, Par):
            chain = []
            cursor = node
            while isinstance(cursor, Par):
                chain.append((cursor.sync, cursor.right))
                cursor = cursor.left
            parts = [render(cursor, 2)]
            for sync, right in reversed(chain):
                parts.append(f"||{{{','.join(sync.names)}}} {render(right, 2)}")
            return " ".join(parts)
        if isinstance(node, Abstract):
            return f"tau{{{','.join(node.hide.names)}}}({plain(node.body)})"
        if isinstance(node, Rename):
            pairs = ",".join(f"{s}->{d}" for s, d in node.pairs)
            return f"ren{{{pairs}}}({plain(node.body)})"
        if isinstance(node, Theta):
            return (
                f"theta{{{','.join(node.lower.names)};"
                f"{','.join(node.upper.names)}}}({plain(node.body)})"
            )
        if isinstance(node, Psi):
            return f"psi{{{','.join(node.env.names)}}}({plain(node.body)})"
        if isinstance(node, RecCall):
            name = names.get(node.spec.uid, f"S{node.spec.uid}")
            return f"<{node.var}|{name}>"
        raise InvalidTermError(f"cannot print {node!r}")

    return plain(term)


def _collect_specs(term, found, order):
    stack = [term]
    while stack:
        node = stack.pop()
        stack.extend(operands(node))
        if isinstance(node, RecCall) and node.spec.uid not in found:
            found.add(node.spec.uid)
            for b in node.spec.bodies:
                _collect_specs(b, found, order)
            order.append(node.spec)


def definitions_text(definitions):
    """Render definitions back to file syntax; parses to equal definitions."""
    names = definitions.spec_names()
    lines = []
    emitted: set[int] = set()

    def emit_spec(spec, name):
        eqs = "".join(
            f" {v} = {term_text(b, names)};" for v, b in zip(spec.vars, spec.bodies)
        )
        lines.append(f"spec {name} {{{eqs} }}")
        emitted.add(spec.uid)

    for kind, name in definitions.order:
        if kind == "spec":
            spec = definitions.specs[name]
            if spec.uid not in emitted:
                emit_spec(spec, name)
        else:
            term = definitions.defs[name]
            found: set[int] = set(emitted)
            fresh: list[RecSpec] = []
            _collect_specs(term, found, fresh)
            for spec in fresh:
                emit_spec(spec, names.setdefault(spec.uid, f"S{spec.uid}"))
            lines.append(f"def {name} = {term_text(term, names)};")
    return "\n".join(lines) + "\n"
