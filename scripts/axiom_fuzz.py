"""Long-running fuzz of the equational laws.

A deeper version of ``txbisim fuzz-axioms``: more instances, optionally a
larger alphabet and deeper terms, and a per-law table with vacuity counts
and the first counterexample.  The unsound law is expected to fail; every
other law failing, or the unsound one surviving, makes the run exit 1;
input the harness refuses makes it exit 2.

    python3 scripts/axiom_fuzz.py --instances 500 --depth 4
"""

import argparse
import sys
import time

from txbisim import CheckOptions, GenConfig, TxbisimError
from txbisim.axioms import fuzz_axioms


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--instances", type=int, default=500, metavar="N")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--alphabet", default="a,b")
    parser.add_argument("--depth", type=int, default=3)
    parser.add_argument(
        "--names", default=None,
        help="comma-separated subset of laws to fuzz (default: all)",
    )
    args = parser.parse_args(argv)

    names = args.names.split(",") if args.names else None
    t0 = time.perf_counter()
    try:
        cfg = GenConfig(
            alphabet=tuple(args.alphabet.split(",")), max_depth=args.depth
        )
        results = fuzz_axioms(
            instances=args.instances,
            seed=args.seed,
            cfg=cfg,
            opts=CheckOptions(method="direct", max_states=4000),
            names=names,
        )
    except TxbisimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - t0

    width = max(len(r.name) for r in results)
    for r in results:
        status = "ok" if r.ok else "UNEXPECTED"
        line = (
            f"{r.name:{width}s}  {r.failures:5d}/{r.instances} failures"
            f"  {r.vacuous:5d} vacuous  {status}"
        )
        print(line)
        if r.counterexample:
            print(f"{'':{width}s}  e.g. {r.counterexample[0]}")
        if r.counterexample:
            print(f"{'':{width}s}   !=  {r.counterexample[1]}")
    print(f"\n{len(results)} laws, {args.instances} instances each, "
          f"{elapsed:.1f}s")
    return 0 if all(r.ok for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
