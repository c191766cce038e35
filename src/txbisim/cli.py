"""Command-line front end.

Subcommands: ``parse``, ``lts``, ``check``, ``modal``, ``distinguish``,
``quotient``, ``fuzz-axioms``.  Exit codes are uniform: 0 for success (and
for "equivalent" / "satisfied" verdicts), 1 for a negative verdict, 2 for
any error.  ``TXBISIM_MAX_STATES`` overrides the exploration budget unless
``--max-states`` is given explicitly.  Each subcommand runs as
``cmd_*(opts, args)``: one :class:`~txbisim.equiv.CheckOptions` built from
``--method`` and ``--max-states``, and the parsed arguments, which it reads
``--output`` and the rest from.  No flag sets the alphabet: a command that
forms an environment universe refuses more than
:data:`~txbisim.encoding.MAX_UNIVERSE` visible actions, with exit 2, before
it explores a state.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys

from .axioms import fuzz_axioms
from .encoding import encode
from .equiv import (
    CheckOptions,
    brb,
    brb_partition,
    brb_x,
    process_universe,
    r_sr_branching,
    rbrb,
    rbrb_x,
    sr_branching,
    strong,
)
from .errors import TxbisimError
from .gen import GenConfig
from .lts import quotient as lts_quotient
from .modal import formula_text, in_subclass, parse_formula, satisfies
from .modal import distinguish as modal_distinguish
from .semantics import explore
from .terms import definitions_text, envset, parse_file, term_text

__all__ = ["main"]

RELATIONS = ("brb", "rbrb", "brb-x", "rbrb-x", "strong", "srbb", "rsrbb")


def _load(path):
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise TxbisimError(f"cannot read {path}: {exc.strerror}") from exc
    return parse_file(text)


def _lookup(defs, path, name):
    try:
        return defs.defs[name]
    except KeyError:
        known = ", ".join(sorted(defs.defs)) or "none"
        raise TxbisimError(
            f"{name!r} is not defined in {path} (defined: {known})"
        ) from None


def _parse_env(text):
    """``triggered`` maps to no environment, otherwise a set of action
    names: ``{a,b}``, ``{}``, or a bare comma list."""
    text = text.strip()
    if text == "triggered":
        return None
    if text.startswith("{"):
        if not text.endswith("}"):
            raise TxbisimError(f"unclosed environment set {text!r}")
        text = text[1:-1]
    names = [part.strip() for part in text.split(",") if part.strip()]
    return envset(names)


def _emit(args, payload, text_lines):
    if args.output == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


# --------------------------------------------------------------------------
# subcommands


def cmd_parse(opts, args):
    defs = _load(args.file)
    if args.output == "json":
        spec_names = defs.spec_names()
        payload = {
            "definitions": {
                name: term_text(term, spec_names)
                for name, term in defs.defs.items()
            },
            "specs": sorted(defs.specs),
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        sys.stdout.write(definitions_text(defs))
    return 0


def cmd_lts(opts, args):
    defs = _load(args.file)
    term = _lookup(defs, args.file, args.name)
    # formed first, so an alphabet over the ceiling explores nothing
    universe = process_universe(term) if args.encoded else None
    lts = explore(term, opts.max_states)
    if args.encoded:
        lts = encode(lts, universe, opts.max_states)
    if args.format == "aut":
        sys.stdout.write(lts.to_aut())
    else:
        print(lts.to_json())
    return 0


def _check_verdict(opts, relation, env, p, q):
    if relation in ("brb-x", "rbrb-x"):
        if env is None:
            raise TxbisimError(f"relation {relation} needs --env with a set")
        fn = brb_x if relation == "brb-x" else rbrb_x
        return fn(p, q, env, opts)
    if env is not None:
        use = f"{relation}-x" if relation in ("brb", "rbrb") else "brb-x or rbrb-x"
        raise TxbisimError(
            f"relation {relation} takes no environment set; use {use} with --env"
        )
    if relation == "brb":
        return brb(p, q, opts)
    if relation == "rbrb":
        return rbrb(p, q, opts)
    lts = explore((p, q), opts.max_states)
    fn = {"strong": strong, "srbb": sr_branching, "rsrbb": r_sr_branching}[
        relation
    ]
    return fn(lts, p, q)


def cmd_check(opts, args):
    defs = _load(args.file)
    p = _lookup(defs, args.file, args.name1)
    q = _lookup(defs, args.file, args.name2)
    env = _parse_env(args.env) if args.env is not None else None
    verdict = _check_verdict(opts, args.relation, env, p, q)
    payload = verdict.to_json_dict()
    payload.update(
        relation=args.relation,
        left=args.name1,
        right=args.name2,
    )
    if verdict.lts is not None:
        payload["states"] = verdict.lts.n_states
    lines = [
        f"relation: {args.relation}",
        f"processes: {args.name1}, {args.name2}",
        f"verdict: {'equivalent' if verdict else 'not equivalent'}",
        f"method: {verdict.method}",
    ]
    if verdict.lts is not None:
        lines.append(f"states explored: {verdict.lts.n_states}")
    if verdict.witness is not None:
        lines.append(f"witness size: {verdict.witness.size}")
    if verdict.reason is not None:
        lines.append(f"first failure: {verdict.reason}")
    _emit(args, payload, lines)
    return 0 if verdict else 1


def cmd_modal(opts, args):
    defs = _load(args.file)
    term = _lookup(defs, args.file, args.name)
    phi = parse_formula(args.formula)
    mode = _parse_env(args.env)
    lts = explore(term, opts.max_states)
    holds = satisfies(lts, term, phi, mode)
    payload = {
        "process": args.name,
        "formula": formula_text(phi),
        "environment": "triggered" if mode is None else sorted(mode),
        "holds": holds,
        "subclass": {
            "Lbc": in_subclass(phi, "Lbc"),
            "Lbcr": in_subclass(phi, "Lbcr"),
        },
    }
    lines = [
        f"{args.name} {'satisfies' if holds else 'does not satisfy'} "
        f"{formula_text(phi)}"
        + ("" if mode is None else f" under {{{','.join(sorted(mode))}}}")
    ]
    _emit(args, payload, lines)
    return 0 if holds else 1


def cmd_distinguish(opts, args):
    defs = _load(args.file)
    p = _lookup(defs, args.file, args.name1)
    q = _lookup(defs, args.file, args.name2)
    phi = modal_distinguish(p, q, rooted=args.rooted, opts=opts)
    if phi is None:
        _emit(
            args,
            {"equivalent": True, "formula": None},
            ["equivalent"],
        )
        return 0
    subclass = "Lbcr" if args.rooted else "Lbc"
    payload = {
        "equivalent": False,
        "formula": formula_text(phi),
        "subclass": subclass,
        "holds_in": args.name1,
        "fails_in": args.name2,
    }
    lines = [
        f"{formula_text(phi)}",
        f"holds in {args.name1}, fails in {args.name2} ({subclass})",
    ]
    _emit(args, payload, lines)
    return 1


def cmd_quotient(opts, args):
    defs = _load(args.file)
    term = _lookup(defs, args.file, args.name)
    lts, partition = brb_partition(term, opts)
    reduced = lts_quotient(lts, partition)
    if args.format == "aut":
        sys.stdout.write(reduced.to_aut())
    else:
        print(reduced.to_json())
    return 0


def cmd_fuzz_axioms(opts, args):
    alphabet = tuple(
        part.strip() for part in args.alphabet.split(",") if part.strip()
    )
    gen_cfg = GenConfig(alphabet=alphabet, max_depth=args.depth)
    results = fuzz_axioms(
        instances=args.count,
        seed=args.seed,
        cfg=gen_cfg,
        opts=opts,
    )
    payload = {
        "seed": args.seed,
        "count": args.count,
        "results": [r.to_json_dict() for r in results],
        "all_expected": all(r.ok for r in results),
    }
    lines = []
    for r in results:
        status = "ok" if r.ok else "UNEXPECTED"
        line = f"{r.name:26s} {r.failures:4d}/{r.instances} failures  {status}"
        if r.vacuous:
            line += f"  {r.vacuous} vacuous"
        if r.counterexample:
            line += f"  e.g. {r.counterexample[0]}  !=  {r.counterexample[1]}"
        lines.append(line)
    lines.append(
        "all laws behaved as expected"
        if payload["all_expected"]
        else "some laws did not behave as expected"
    )
    _emit(args, payload, lines)
    return 0 if payload["all_expected"] else 1


# --------------------------------------------------------------------------
# argument parsing


def _add_common(parser, suppress):
    """The shared flags, valid both before and after the subcommand."""
    default = argparse.SUPPRESS if suppress else None
    parser.add_argument(
        "--output", choices=("text", "json"),
        default=default if suppress else "text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--max-states", type=int, default=default, metavar="N",
        help="state budget per exploration (default: 10000 or "
        "TXBISIM_MAX_STATES)",
    )


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="txbisim",
        description=(
            "Equivalence checking, model checking, and quotients for "
            "processes with time-outs."
        ),
    )
    _add_common(parser, suppress=False)
    common = argparse.ArgumentParser(add_help=False)
    _add_common(common, suppress=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "parse", help="parse a process file and reprint it", parents=[common]
    )
    p.add_argument("file")
    p.set_defaults(run=cmd_parse)

    p = sub.add_parser(
        "lts", help="explore a process into a transition system",
        parents=[common],
    )
    p.add_argument("file")
    p.add_argument("name")
    p.add_argument("--format", choices=("aut", "json"), default="aut")
    p.add_argument(
        "--encoded", action="store_true",
        help="apply the environment-operator encoding before export",
    )
    p.set_defaults(run=cmd_lts)

    p = sub.add_parser(
        "check", help="decide an equivalence between two processes",
        parents=[common],
    )
    p.add_argument("file")
    p.add_argument("name1")
    p.add_argument("name2")
    p.add_argument("relation", choices=RELATIONS)
    p.add_argument(
        "--env", default=None, metavar="SET",
        help="environment for the -x relations, e.g. '{a,b}' or '{}'; "
        "the other relations refuse a set",
    )
    p.add_argument(
        "--method", choices=("both", "direct", "encode"), default="both",
        help="decision procedure (default: both, cross-checked)",
    )
    p.set_defaults(run=cmd_check)

    p = sub.add_parser(
        "modal", help="model-check a formula on a process", parents=[common]
    )
    p.add_argument("file")
    p.add_argument("name")
    p.add_argument("--formula", required=True)
    p.add_argument(
        "--env", default="triggered",
        help="'triggered' (default) or an action set like '{a}'",
    )
    p.set_defaults(run=cmd_modal)

    p = sub.add_parser(
        "distinguish", help="synthesise a formula separating two processes",
        parents=[common],
    )
    p.add_argument("file")
    p.add_argument("name1")
    p.add_argument("name2")
    p.add_argument(
        "--rooted", action="store_true",
        help="separate up to the rooted equivalence",
    )
    p.set_defaults(run=cmd_distinguish)

    p = sub.add_parser(
        "quotient", help="minimise a process by equivalence classes",
        parents=[common],
    )
    p.add_argument("file")
    p.add_argument("name")
    p.add_argument("--format", choices=("aut", "json"), default="aut")
    p.set_defaults(run=cmd_quotient)

    p = sub.add_parser(
        "fuzz-axioms", help="probe the equational laws", parents=[common]
    )
    p.add_argument("--count", type=int, default=50, metavar="N")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--alphabet", default="a,b")
    p.add_argument("--depth", type=int, default=3)
    p.set_defaults(run=cmd_fuzz_axioms)

    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        opts = CheckOptions(
            method=getattr(args, "method", "both"),
            max_states=args.max_states,
        )
        return args.run(opts, args)
    except TxbisimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # exit 1 means a negative verdict, so no failure may leave through it
        logging.getLogger("txbisim").debug("unexpected failure", exc_info=True)
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
