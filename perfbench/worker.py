"""One pass of one workload, in a fresh interpreter.

The parent (``run.py``) writes the workload spec as JSON to stdin and passes
its launch time (``time.monotonic()``, which is system-wide on Linux).  The
process imports txbisim, parses the spec's process file, notes its set-up
time, runs every op once, checks each answer against the spec's reference
outside the timed sections, and prints one JSON line.  With ``--trace`` the calls into
each layer are wrapped in spans recorded here, not in the library.
"""

import argparse
import functools
import json
import os
import resource
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

import txbisim
from txbisim import axioms, equiv, modal, term_text
from txbisim.errors import TxbisimError, WitnessError
from txbisim.modal import And

import reference

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# The host's speed drifts by up to a third within seconds, in CPU time too.
# A fixed pure-Python loop, timed in the same process every CALIBRATE_EVERY
# seconds of a pass, measures that drift.  Every reported time is scaled to
# a host on which the loop takes REFERENCE_CALIBRATION_S: an op, and each
# stretch of a pass between two calibrations, by the loop times around it;
# set-up by the process's median.
CALIBRATION_LOOPS = 20_000
CALIBRATE_EVERY = 0.25
REFERENCE_CALIBRATION_S = 0.01
# The known defect: on some inequivalent pairs ``distinguish`` synthesises a
# formula that its own re-check rejects, although the verdict is right; the
# re-check goes through txbisim.satisfies, whose id()-keyed memo can return
# stale answers (see README.md), so which pairs hit it varies.  It
# is reported apart from the failures (see Pass.timed), so that a run's
# ``failed`` counts only what nobody knew would fail.
KNOWN_DEFECT = "synthesised formula fails to separate the terms"


def calibrate():
    """Seconds one fixed loop of wide-integer mask operations, small tuples
    and dict stores, the staple of the fixpoints, takes right now.  Over
    5-second windows its ratio to txbisim's own check time varied by 2-6 %
    where the time itself varied by 19 %; a plain arithmetic loop left 8 %."""
    start = time.perf_counter()
    full = (1 << 300) - 1
    acc = 0
    rows = {}
    for i in range(CALIBRATION_LOOPS):
        acc |= (full >> (i % 290)) & ~acc
        rows[i & 1023] = (acc & 255, i)
    return time.perf_counter() - start


class Tracer:
    """Nested spans kept in memory as, per name, the summed self time: the
    span minus the part its child spans cover."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._children = []

    @contextmanager
    def span(self, name):
        self._children.append(0.0)
        start = time.perf_counter()
        try:
            yield
        finally:
            took = time.perf_counter() - start
            inner = self._children.pop()
            self.self_s[name] += took - inner
            if self._children:
                self._children[-1] += took


class NoTracer:
    def __init__(self):
        self.counts = defaultdict(int)

    def span(self, name):
        return nullcontext()


def instrument(tracer):
    """Wrap the public stages of ``Analysis`` and the checks ``axioms``
    makes, so that every verdict decomposes into layer spans."""
    cls = equiv.Analysis
    counts = tracer.counts

    def count_lts(an, lts):
        counts["semantics.states"] += lts.n_states
        counts["semantics.transitions"] += lts.n_transitions

    def count_gen(an, res):
        counts["equiv.direct_rounds"] += res.rounds
        counts["equiv.direct_removals"] += len(res.records)
        counts["equiv.direct_states"] += an.lts.n_states

    def count_encoded(an, enc):
        counts["encoding.states"] += enc.n_states
        counts["encoding.transitions"] += enc.n_transitions
        counts["encoding.base_states"] += an.lts.n_states

    def count_enc_branch(an, res):
        counts["equiv.encoded_rounds"] += res.rounds
        counts["equiv.encoded_removals"] += len(res.records)

    stages = {
        "lts": ("semantics.explore", count_lts),
        "profile": ("equiv.profile", None),
        "gen": ("equiv.direct", count_gen),
        "encoded": ("encoding.encode", count_encoded),
        "enc_branch": ("equiv.encoded", count_enc_branch),
    }
    for attr, (name, count) in stages.items():
        func = cls.__dict__[attr].func

        def stage(an, func=func, name=name, count=count):
            with tracer.span(name):
                value = func(an)
            if count is not None:
                count(an, value)
            return value

        prop = functools.cached_property(stage)
        prop.__set_name__(cls, attr)
        setattr(cls, attr, prop)

    # distinguish re-checks its formula through the module's global name
    satisfies = modal.satisfies

    def traced_satisfies(*args, **kwargs):
        with tracer.span("modal.satisfies"):
            return satisfies(*args, **kwargs)

    modal.satisfies = traced_satisfies

    for attr in ("gen_store", "encoded_projection"):
        method = getattr(cls, attr)

        def witness(an, method=method):
            with tracer.span("equiv.witness"):
                store = method(an)
            counts["equiv.witness_size"] += store.size
            return store

        setattr(cls, attr, witness)


def pair_text(p, q):
    return f"{term_text(p)} / {term_text(q)}"


def formula_size(phi):
    """Distinct formula nodes; synthesised formulas share subformulas."""
    seen = set()
    stack = [phi]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, And):
            stack.extend(node.children)
        elif hasattr(node, "sub"):
            stack.append(node.sub)
    return len(seen)


class Pass:
    """Runs the ops of one spec and collects samples, checks and counts."""

    def __init__(self, spec, terms, tracer):
        self.spec = spec
        self.terms = terms
        self.tr = tracer
        self.samples = {"verdict": [], "explain": [], "minimise": []}
        self.attempted = 0
        self.failed = []
        self.known = []
        self.wrong = []
        self.refused = 0
        self.check_s = 0.0
        self.law_failed = set()
        self.calibration = []
        self.marks = []  # time outside the checks at each calibration
        self._start = None
        self._calibrated_at = None
        self._oracles = None

    # -- bookkeeping

    @contextmanager
    def checking(self):
        """Answer checks: excluded from the pass's wall time."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.check_s += time.perf_counter() - start

    def calibrate_if_due(self):
        now = time.perf_counter()
        if self._calibrated_at is None or now - self._calibrated_at >= CALIBRATE_EVERY:
            self.marks.append(now - self._start - self.check_s)
            with self.checking():
                self.calibration.append(calibrate())
            self._calibrated_at = time.perf_counter()

    def scaled_samples(self):
        """Each op's time, scaled by the mean of the calibrations taken
        just before and just after it."""
        cal = self.calibration
        return {
            kind: [t * REFERENCE_CALIBRATION_S * 2 / (cal[i] + cal[i + 1])
                   for t, i in samples]
            for kind, samples in self.samples.items()
        }

    def scaled_wall(self):
        """The pass's time outside the checks, each stretch between two
        calibrations scaled by the mean of the two."""
        cal, marks = self.calibration, self.marks
        return sum(
            (marks[i + 1] - marks[i]) * REFERENCE_CALIBRATION_S * 2
            / (cal[i] + cal[i + 1])
            for i in range(len(marks) - 1)
        )

    def timed(self, kind, span, func, *args, **kwargs):
        """One attempted operation; returns (ok, value).  A ``distinguish``
        call that raises the known defect is not counted as attempted: it is
        listed in ``known`` instead, and in error_rate with its base."""
        checked = self.check_s
        start = time.perf_counter()
        try:
            with self.tr.span(span):
                value = func(*args, **kwargs)
        except Exception as exc:  # counted in error_rate, the pass goes on
            line = f"{span}: {type(exc).__name__}: {exc}"
            if (span == "modal.distinguish" and isinstance(exc, WitnessError)
                    and str(exc).startswith(KNOWN_DEFECT)):
                self.known.append(line)
            else:
                self.attempted += 1
                self.failed.append(line)
            return False, None
        self.attempted += 1
        # fuzz calls validate witnesses inside the call; that is not theirs
        took = time.perf_counter() - start - (self.check_s - checked)
        self.samples[kind].append((took, len(self.calibration) - 1))
        return True, value

    # -- checks

    def check_witness(self, verdict):
        with self.checking(), self.tr.span("equiv.witness_check"):
            ok = equiv.generalized_witness_ok(
                verdict.lts, verdict.universe, verdict.witness
            )
        if not ok:
            self.wrong.append("witness rejected by generalized_witness_ok")

    def check_formula(self, p, q, phi, rooted):
        # not txbisim.satisfies: distinguish checks its formulas with that
        with self.checking():
            lts = txbisim.explore((p, q))
            ok = (
                txbisim.in_subclass(phi, "Lbcr" if rooted else "Lbc")
                and reference.satisfies(lts, p, phi)
                and not reference.satisfies(lts, q, phi)
            )
        if not ok:
            self.wrong.append(f"formula does not separate {pair_text(p, q)}")

    def oracle_blocks(self, p, q):
        with self.checking():
            # imported late: only fuzz counterexamples need the oracle here
            from inputs import load_oracles, oracle_answers

            if self._oracles is None:
                self._oracles = load_oracles(ROOT)
            return oracle_answers(self._oracles, p, q)[2]

    # -- ops

    def verdict(self, op):
        p, q = self.terms[op["p"]], self.terms[op["q"]]
        fn = getattr(txbisim, op["rel"])
        args = (p, q) if op["env"] is None else (p, q, txbisim.envset(op["env"]))
        ok, v = self.timed("verdict", "equiv.check", fn, *args)
        if not ok:
            return
        if v.equivalent != op["expect"]:
            self.wrong.append(
                f"{op['rel']} {pair_text(p, q)}: {v.equivalent}, "
                f"expected {op['expect']}"
            )
        elif v.equivalent:
            self.check_witness(v)

    def explain(self, p, q, rooted):
        ok, phi = self.timed(
            "explain", "modal.distinguish", txbisim.distinguish, p, q,
            rooted=rooted,
        )
        if not ok:
            return
        if phi is None:
            self.wrong.append(f"no formula for inequivalent {pair_text(p, q)}")
            return
        self.tr.counts["modal.formula_size"] += formula_size(phi)
        self.check_formula(p, q, phi, rooted)

    def minimise(self, p, q, blocks):
        self.attempted += 1
        lts = None
        start = time.perf_counter()
        try:
            with self.tr.span("lts.partition"):
                lts, part = txbisim.brb_partition((p, q))
            with self.tr.span("lts.quotient"):
                small = txbisim.quotient(lts, part)
        except Exception as exc:  # counted in error_rate, the pass goes on
            if isinstance(exc, TxbisimError) and lts is not None and lts.divergent:
                # documented refusal: internal cycles have no quotient
                self.refused += 1
            else:
                self.failed.append(f"minimise: {type(exc).__name__}: {exc}")
            return
        self.samples["minimise"].append(
            (time.perf_counter() - start, len(self.calibration) - 1)
        )
        self.tr.counts["lts.blocks"] += len(part)
        self.tr.counts["lts.states"] += lts.n_states
        if blocks is None:
            blocks = self.oracle_blocks(p, q)
        if len(part) != blocks or small.n_states != blocks:
            self.wrong.append(
                f"{len(part)} blocks for {pair_text(p, q)}, expected {blocks}"
            )

    def fuzz(self, op):
        ok, results = self.timed(
            "verdict", "axioms.law", axioms.fuzz_axioms,
            instances=1, seed=op["seed"], names=[op["law"]],
        )
        if not ok:
            return
        (res,) = results
        self.tr.counts["axioms.instances"] += res.instances
        if res.failures:
            self.law_failed.add(op["law"])
        if res.failures and op["sound"]:
            self.wrong.append(f"sound law {op['law']} failed: {res.counterexample}")
            return
        if res.counterexample is None:
            return
        with self.checking():
            # counterexamples print recursion as calls that do not parse:
            # rebuild the instance from its seed, and check it is the same
            from inputs import law_instance

            lhs, rhs = law_instance(op["law"], op["seed"])
            same = (term_text(lhs), term_text(rhs)) == tuple(res.counterexample)
        if not same:
            self.wrong.append(f"counterexample of {op['law']} not reproduced")
            return
        self.explain(lhs, rhs, rooted=True)
        self.minimise(lhs, rhs, None)

    def wrap_axiom_checks(self):
        """Validate the witness of every positive rooted verdict that the
        fuzz harness computes internally."""
        check = axioms.rbrb

        def rbrb(p, q, opts=None):
            with self.tr.span("equiv.check"):
                v = check(p, q, opts)
            if v.equivalent:
                self.check_witness(v)
            return v

        axioms.rbrb = rbrb

    def run(self):
        if self.spec["workload"] == "fuzz":
            self.wrap_axiom_checks()
        self._start = time.perf_counter()
        for op in self.spec["ops"]:
            self.calibrate_if_due()
            kind = op["op"]
            if kind == "verdict":
                self.verdict(op)
            elif kind == "explain":
                self.explain(self.terms[op["p"]], self.terms[op["q"]], op["rooted"])
            elif kind == "minimise":
                self.minimise(self.terms[op["p"]], self.terms[op["q"]], op["blocks"])
            elif kind == "fuzz":
                self.fuzz(op)
        self._calibrated_at = None
        self.calibrate_if_due()
        unsound = {op["law"] for op in self.spec["ops"]
                   if op["op"] == "fuzz" and not op["sound"]}
        for law in sorted(unsound - self.law_failed):
            self.wrong.append(f"unsound law {law} never failed")
        return self.scaled_wall()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--launched", type=float, required=True,
                        help="time.monotonic() when the parent started us")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    tracer = Tracer() if args.trace else NoTracer()
    spec = json.load(sys.stdin)
    with tracer.span("terms.parse"):
        defs = txbisim.parse_file(spec["source"]).defs
    terms = [defs[f"T{i}"] for i in range(len(defs))]
    setup_s = time.monotonic() - args.launched
    if args.setup_only:
        calibration = [calibrate() for _ in range(5)]
    else:
        if args.trace:
            instrument(tracer)
        job = Pass(spec, terms, tracer)
        wall = job.run()
        calibration = job.calibration
    scale = REFERENCE_CALIBRATION_S / statistics.median(calibration)
    out = {"setup_s": setup_s * scale,
           "calibration_s": statistics.median(calibration)}
    if not args.setup_only:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out.update(
            wall_s=wall,
            peak_rss_mb=rss,
            samples=job.scaled_samples(),
            attempted=job.attempted,
            failed=job.failed,
            known=job.known,
            wrong=job.wrong,
            refused=job.refused,
            counts=dict(tracer.counts),
        )
        if args.trace:
            out["self_s"] = {k: t * scale for k, t in tracer.self_s.items()}
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
