"""A reference evaluator for the modal logic, independent of txbisim.modal.

``distinguish`` re-checks its own formulas with ``txbisim.modal.satisfies``,
so the benchmark cannot use that function to judge them.  This evaluator
computes, bottom-up, the set of states that satisfy each subformula, as a
bitmask over the explored system, and reads only the system's transition
relation.  Subformulas are memoised by value, so no key can outlive the
object it names.

Semantics (``env`` is None when triggered, else the set of allowed actions):

- ``<tau>phi``: a tau step to a state satisfying phi under ``env``;
- ``<a>phi``: an a step to a state satisfying phi, triggered; when ``a`` is
  not allowed by ``env``, the state must also be stable with no allowed
  visible action;
- ``<^tau>phi``: phi under ``env``, here or after one tau step; ``<^a>phi``
  is ``<a>phi``;
- ``<X>phi`` (a time-out under X): the state is stable with no visible action
  in X (joined with ``env`` when not triggered), and a ``t`` step leads to a
  state satisfying phi under X;
- ``<eps>phi``: phi under ``env`` somewhere along tau steps, here included.
"""

from txbisim.modal import And, Diamond, Eps, EnvDiamond, HatDiamond, Not, Top

INTERNAL = ("tau", "t")


def _pre(lts, label, target):
    """States with a ``label`` step into the mask ``target``."""
    mask = 0
    for i in range(lts.n_states):
        if lts.succ_mask(i, label) & target:
            mask |= 1 << i
    return mask


def _deadends(lts, allowed):
    """Stable states with no visible action in ``allowed``."""
    mask = 0
    for i in range(lts.n_states):
        if lts.succ_mask(i, "tau"):
            continue
        if all(lab in INTERNAL or lab not in allowed for lab in lts.out_labels(i)):
            mask |= 1 << i
    return mask


def _tau_backward(lts, target):
    """States from which tau steps reach the mask ``target``."""
    mask = target
    while True:
        grown = mask | _pre(lts, "tau", mask)
        if grown == mask:
            return mask
        mask = grown


def sat_mask(lts, phi, env=None, memo=None):
    """The bitmask of states of ``lts`` that satisfy ``phi`` under ``env``
    (None, or a frozenset of action names)."""
    memo = {} if memo is None else memo
    key = (phi, env)
    if key in memo:
        return memo[key]
    everything = (1 << lts.n_states) - 1

    def sub(psi, mode=env):
        return sat_mask(lts, psi, mode, memo)

    if isinstance(phi, Top):
        mask = everything
    elif isinstance(phi, And):
        mask = everything
        for child in phi.children:
            mask &= sub(child)
    elif isinstance(phi, Not):
        mask = everything & ~sub(phi.sub)
    elif isinstance(phi, (Diamond, HatDiamond)) and phi.label == "tau":
        inner = sub(phi.sub)
        mask = _pre(lts, "tau", inner)
        if isinstance(phi, HatDiamond):
            mask |= inner
    elif isinstance(phi, (Diamond, HatDiamond)):
        mask = _pre(lts, phi.label, sub(phi.sub, None))
        if env is not None and phi.label not in env:
            mask &= _deadends(lts, env)
    elif isinstance(phi, EnvDiamond):
        names = frozenset(phi.names)
        blocked = names if env is None else names | env
        mask = _deadends(lts, blocked) & _pre(lts, "t", sub(phi.sub, names))
    elif isinstance(phi, Eps):
        mask = _tau_backward(lts, sub(phi.sub))
    else:
        raise TypeError(f"not a formula: {phi!r}")
    memo[key] = mask
    return mask


def satisfies(lts, state, phi):
    """Whether ``state`` satisfies ``phi``, triggered."""
    return bool(sat_mask(lts, phi) >> lts.index[state] & 1)
