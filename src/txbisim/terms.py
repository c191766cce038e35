"""Process terms: construction, interning, parsing, printing, substitution.

The term language has deadlock ``0``, action prefixing ``alpha.E`` (where an
action is a visible name, the internal step ``tau``, or the time-out ``t``),
binary choice ``E + F``, synchronised parallel composition ``E ||{S} F``,
abstraction ``tau{I}(E)``, relational renaming ``ren{a->b,...}(E)``, the
environment operators ``theta{L;U}(E)`` and ``psi{X}(E)``, and recursion via
named specifications ``<x|S>``.  An action is a plain string at every
layer: :data:`TAU` is ``"tau"``, :data:`TIMEOUT` is ``"t"``, and
:func:`visible` returns a visible name once it has checked it.  An
environment set (the ``S``, ``I``, ``L``, ``U`` and ``X`` above) is a
sorted tuple of distinct visible names, and :func:`envset` returns one
shared tuple per set: ``envset(("b", "a")) == ("a", "b")``.

Terms are interned: construction goes through the ``mk_*`` factories, which
normalise sums (flatten, drop ``0`` summands, sort children) and return a
shared node per distinct structure.  Identical structure therefore means
identical object, and every node carries a stable integer ``uid``.  Summand
duplication is deliberately kept: ``x + x`` does not collapse to ``x``.

The store is append-only after construction; concurrent readers are safe,
construction itself is single-writer.
"""

from __future__ import annotations

import itertools
import re
import string
from dataclasses import dataclass

from .errors import InvalidTermError, ParseError, UndefinedNameError

__all__ = [
    "TAU",
    "TIMEOUT",
    "visible",
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


# ---------------------------------------------------------------------------
# Actions: plain strings.  Environment sets hold visible names only, so
# ``label in env`` needs no test of the label's kind.

TAU = "tau"
TIMEOUT = "t"

_VISIBLE: set[str] = set()


def visible(name):
    """The visible action name ``name``, once validated."""
    if isinstance(name, str) and name in _VISIBLE:
        return name
    if not isinstance(name, str) or not _ACT_RE.match(name):
        raise InvalidTermError(f"action names are lowercase identifiers: {name!r}")
    if name in RESERVED or name.startswith("eps_"):
        raise InvalidTermError(
            f"reserved spelling cannot name a visible action: {name!r}"
        )
    _VISIBLE.add(name)
    return name


# ---------------------------------------------------------------------------
# Environment sets: sorted tuples of distinct visible names, one shared
# tuple per set

_ENVSETS: dict[tuple, tuple] = {}


def envset(names=()):
    """The environment set of the visible action names ``names``: their
    sorted tuple, the same object for every call with the same set."""
    hit = _ENVSETS.get(names) if type(names) is tuple else None
    if hit is None:
        ordered = tuple(sorted({visible(name) for name in names}))
        hit = _ENVSETS.setdefault(ordered, ordered)
    return hit


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
    """``action.body`` for a label ``action``: ``tau``, ``t`` or a valid
    visible name."""
    if action != TAU and action != TIMEOUT:
        visible(action)
    return _interned(("pre", action, body.uid), Prefix, action, body)


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
    not a structural identity.  A single summand that sorts after the whole
    of a sum joins it without a walk, so a ``+`` chain builds in linear
    time.
    """
    if left is not NIL and right is not NIL and not isinstance(right, Choice):
        last = left.right if isinstance(left, Choice) else left
        if right.uid >= last.uid:
            return _interned(("cho", left.uid, right.uid), Choice, left, right)
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
    sync = envset(sync)
    return _interned(("par", left.uid, sync, right.uid), Par, left, sync, right)


def mk_abstract(hide, body):
    hide = envset(hide)
    return _interned(("abs", hide, body.uid), Abstract, hide, body)


def mk_rename(pairs, body):
    """Renaming by a finite relation on visible actions, given as (src, dst) pairs."""
    canon = tuple(sorted(set(pairs)))
    for src, dst in canon:
        visible(src)
        visible(dst)
    return _interned(("ren", canon, body.uid), Rename, canon, body)


def mk_theta(lower, upper, body):
    lower, upper = envset(lower), envset(upper)
    if not set(lower) <= set(upper):
        raise InvalidTermError(
            "theta needs lower within upper: "
            f"{{{','.join(lower)}}} vs {{{','.join(upper)}}}"
        )
    return _interned(("theta", lower, upper, body.uid), Theta, lower, upper, body)


def mk_psi(env, body):
    env = envset(env)
    return _interned(("psi", env, body.uid), Psi, env, body)


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
        if isinstance(node, Prefix) and node.action not in (TAU, TIMEOUT):
            names.add(node.action)
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

# A token is an identifier (it starts with a letter), ``0``, ``->``, ``||`` or
# one punctuation character; whitespace and ``#`` comments separate tokens.
# Any other character scans as a one-character token that is neither a
# letter nor in ``_ONE_CHAR``, which ``_tokenize`` refuses.  A comment scans
# as ``""``.
_SCAN_RE = re.compile(r"#[^\n]*|(->|\|\||[A-Za-z][A-Za-z0-9_]*|0|[+.(){};,<>|=]|\S)")
_ONE_CHAR = frozenset("0+.(){};,<>|=" + string.ascii_letters)


def _tokenize(text):
    """The tokens of ``text`` as strings, then two ``""`` end sentinels."""
    toks = _SCAN_RE.findall(text)
    if "#" in text:
        toks = [tok for tok in toks if tok]
    bad = {tok for tok in set(toks) if len(tok) == 1 and tok not in _ONE_CHAR}
    if bad:
        first = next(i for i, tok in enumerate(toks) if tok in bad)
        raise ParseError.at(f"unexpected character {toks[first]!r}", text,
                            _token_start(text, first))
    toks += ("", "")
    return toks


def _token_start(text, index):
    """The offset of token ``index`` in ``text``, or its length for a
    sentinel; rescans, so only errors pay for positions."""
    starts = (m.start() for m in _SCAN_RE.finditer(text) if m.group(1))
    return next(itertools.islice(starts, index, None), len(text))


class _Parser:
    """Recursive-descent parser for process files and standalone terms.

    Tokens are plain strings and the parser keeps token indices; a token is
    an identifier exactly when ``str.isidentifier`` holds, and ``""`` is the
    end of input.
    """

    def __init__(self, text, definitions=None):
        self.text = text
        self.toks = _tokenize(text)
        self.pos = 0
        self.defs = definitions if definitions is not None else Definitions()
        self.spec_vars: frozenset[str] = frozenset()
        self.depth = 0

    # -- token plumbing

    def next(self):
        """The current token's index; advances unless at the end of input."""
        at = self.pos
        if self.toks[at]:
            self.pos = at + 1
        return at

    def expect(self, text):
        at = self.pos
        tok = self.toks[at]
        if tok != text:
            self.fail(f"expected {text!r}, found {tok or 'end of input'!r}", at)
        self.pos = at + 1

    def fail(self, message, at=None, error=ParseError):
        """Raise ``error`` located at token ``at`` (default: the current one)."""
        at = self.pos if at is None else at
        raise error.at(message, self.text, _token_start(self.text, at))

    # -- items

    def parse_items(self):
        toks = self.toks
        while toks[self.pos]:
            tok = toks[self.pos]
            if tok == "def":
                self.parse_def()
            elif tok == "spec":
                self.parse_spec()
            else:
                self.fail(f"expected 'def' or 'spec', found {tok!r}")
        return self.defs

    def parse_new_name(self, what):
        """Read the name a ``def`` or ``spec`` introduces; its token index."""
        at = self.next()
        name = self.toks[at]
        if not name.isidentifier() or name in RESERVED:
            self.fail(f"bad {what} name {name!r}", at)
        if name in self.defs.defs or name in self.defs.specs:
            self.fail(f"duplicate name {name!r}", at)
        return at

    def parse_def(self):
        self.expect("def")
        at = self.parse_new_name("definition")
        name = self.toks[at]
        self.expect("=")
        term = self.parse_proc()
        self.expect(";")
        term = self.resolve_names(term, at)
        report = validate(term)
        if not report.ok:
            self.fail(f"invalid definition {name!r}: {report.violations[0]}", at)
        self.defs.add_def(name, term)

    def parse_spec(self):
        self.expect("spec")
        at = self.parse_new_name("specification")
        name = self.toks[at]
        self.expect("{")
        toks = self.toks
        raw = []
        var_names = set()
        while toks[self.pos] != "}":
            var_at = self.next()
            var = toks[var_at]
            if not var.isidentifier() or var in RESERVED:
                self.fail(f"bad specification variable {var!r}", var_at)
            if var in var_names:
                self.fail(f"duplicate equation for {var!r}", var_at)
            self.expect("=")
            body = self.parse_proc()
            self.expect(";")
            raw.append((var_at, body))
            var_names.add(var)
        self.expect("}")
        self.spec_vars = frozenset(var_names)
        try:
            equations = {}
            for var_at, body in raw:
                equations[toks[var_at]] = self.resolve_names(body, var_at)
            spec = mk_recspec(equations)
        finally:
            self.spec_vars = frozenset()
        if not spec.valid:
            sample = mk_reccall(spec.vars[0], spec)
            self.fail(
                f"invalid specification {name!r}: {validate(sample).violations[0]}", at
            )
        self.defs.add_spec(name, spec)

    def resolve_names(self, term, at):
        """Resolve bare identifiers against earlier definitions.

        Identifiers bound by the specification being parsed stay variables;
        everything else must name an earlier ``def`` and is inlined.  A
        failure is located at token ``at``.
        """
        if term.closed:
            return term
        pending = free_vars(term) - self.spec_vars
        images = {}
        for n in sorted(pending):
            if n in self.defs.defs:
                images[n] = self.defs.defs[n]
            elif n in self.defs.specs:
                self.fail(f"{n!r} names a specification, not a process", at,
                          UndefinedNameError)
            else:
                self.fail(f"reference to undefined name {n!r}", at, UndefinedNameError)
        return substitute(term, images) if images else term

    # -- processes

    def parse_proc(self):
        term = self.parse_par()
        toks = self.toks
        while toks[self.pos] == "+":
            self.pos += 1
            term = mk_choice(term, self.parse_par())
        return term

    def parse_par(self):
        term = self.parse_prefix()
        toks = self.toks
        while toks[self.pos] == "||":
            self.pos += 1
            self.expect("{")
            sync = self.parse_acts("}")
            self.expect("}")
            term = mk_par(term, sync, self.parse_prefix())
        return term

    def parse_prefix(self):
        # a run of prefixes in a loop, so deep chains parse without deep
        # recursion; the prefixes are built innermost first
        toks = self.toks
        at = self.pos
        actions = []
        while toks[at + 1] == "." and toks[at].isidentifier() and toks[at] not in (
            "theta", "psi", "ren",
        ):
            actions.append(self.action_at(at))
            at += 2
        self.pos = at
        term = self.parse_atom()
        for action in reversed(actions):
            term = mk_prefix(action, term)
        return term

    def action_at(self, at):
        tok = self.toks[at]
        if tok == "tau":
            return TAU
        if tok == "t":
            return TIMEOUT
        try:
            return visible(tok)
        except InvalidTermError as exc:
            self.fail(str(exc), at)

    def parse_atom(self):
        at = self.pos
        tok = self.toks[at]
        if tok == "0":
            self.pos = at + 1
            return NIL
        if tok == "<":
            return self.parse_reccall()
        if tok == "(":
            self.pos = at + 1
            wrap = None
        elif tok in _OPERATORS and self.toks[at + 1] == "{":
            wrap = _OPERATORS[tok](self)
        elif tok.isidentifier():
            if tok in RESERVED:
                self.fail(f"reserved word {tok!r} cannot stand alone here")
            self.pos = at + 1
            return mk_var(tok)
        else:
            self.fail(f"expected a process, found {tok or 'end of input'!r}")
        if self.depth >= MAX_NESTING:
            self.fail(f"nesting deeper than {MAX_NESTING} levels", at)
        self.depth += 1
        term = self.parse_proc()
        self.depth -= 1
        self.expect(")")
        return term if wrap is None else wrap(term)

    def parse_reccall(self):
        self.expect("<")
        var_at = self.next()
        var = self.toks[var_at]
        if not var.isidentifier() or var in RESERVED:
            self.fail(f"bad variable {var!r}", var_at)
        self.expect("|")
        name_at = self.next()
        name = self.toks[name_at]
        spec = self.defs.specs.get(name)
        if spec is None:
            self.fail(f"reference to undefined specification {name!r}", name_at,
                      UndefinedNameError)
        self.expect(">")
        if var not in spec.vars:
            self.fail(f"{var!r} is not a variable of {name!r}", var_at)
        return mk_reccall(var, spec)

    def parse_acts(self, closer, minimum=0):
        toks = self.toks
        names = []
        while toks[self.pos] != closer:
            at = self.next()
            tok = toks[at]
            if not tok.isidentifier():
                self.fail(f"expected an action name, found {tok!r}", at)
            try:
                names.append(visible(tok))
            except InvalidTermError as exc:
                self.fail(str(exc), at)
            if toks[self.pos] == ",":
                self.pos += 1
            elif toks[self.pos] != closer:
                self.fail(f"expected ',' or {closer!r}")
        if len(names) < minimum:
            self.fail("this operator needs at least one action")
        return envset(names)

    # -- operator heads: each reads an operator up to the opening
    # parenthesis of its body and returns the function that makes the term, so
    # that bodies nest through parse_atom alone

    def abstract_head(self):
        self.pos += 1
        self.expect("{")
        hide = self.parse_acts("}", minimum=1)
        self.expect("}")
        self.expect("(")
        return lambda body: mk_abstract(hide, body)

    def rename_head(self):
        self.pos += 1
        self.expect("{")
        toks = self.toks
        pairs = []
        while toks[self.pos] != "}":
            src = self.next()
            self.expect("->")
            dst = self.next()
            for at in (src, dst):
                if not toks[at].isidentifier():
                    self.fail(f"expected an action name, found {toks[at]!r}", at)
            try:
                pairs.append((visible(toks[src]), visible(toks[dst])))
            except InvalidTermError as exc:
                self.fail(str(exc), src)
            if toks[self.pos] == ",":
                self.pos += 1
        self.expect("}")
        if not pairs:
            self.fail("a renaming needs at least one pair")
        self.expect("(")
        return lambda body: mk_rename(pairs, body)

    def theta_head(self):
        open_at = self.pos
        self.pos += 1
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
                self.fail(str(exc), open_at)

        return build

    def psi_head(self):
        self.pos += 1
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
    tok = parser.toks[parser.pos]
    if tok:
        parser.fail(f"trailing input {tok!r}")
    if not allow_free:
        term = parser.resolve_names(term, 0)
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
                parts.append(f"||{{{','.join(sync)}}} {render(right, 2)}")
            return " ".join(parts)
        if isinstance(node, Abstract):
            return f"tau{{{','.join(node.hide)}}}({plain(node.body)})"
        if isinstance(node, Rename):
            pairs = ",".join(f"{s}->{d}" for s, d in node.pairs)
            return f"ren{{{pairs}}}({plain(node.body)})"
        if isinstance(node, Theta):
            return (
                f"theta{{{','.join(node.lower)};"
                f"{','.join(node.upper)}}}({plain(node.body)})"
            )
        if isinstance(node, Psi):
            return f"psi{{{','.join(node.env)}}}({plain(node.body)})"
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
