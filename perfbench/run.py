"""txbisim benchmark: time to verdict, explanation and minimisation.

Run from the root of a checkout:

    python3 perfbench/run.py --workload chains --seed 1 --seconds 26 --trace 0

The workload's inputs are built from ``--seed`` with their reference
answers.  Then, for ``--seconds``, one client runs passes one after another
(a closed loop); every pass is a fresh interpreter (``worker.py``), because
txbisim's intern and derive caches are process-global.  Corpus and fuzz are
dealt into shards of equal cost mix; a pass runs one shard, the shards take
turns, and pass totals are summed over the shards.  ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics and
the tracing overhead instead of the end-to-end ones.  Every time is scaled
to a reference host by a calibration loop timed in the same process (see
``worker.calibrate``).  The last line of output is one JSON object; the
lines before it print every metric by name, unit and sample count, the
error rate with its base, and the provenance.  The exit code is 1 when any
answer disagrees with its reference.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("chains", "cells", "corpus", "fuzz")
SETUP_PROBES = 7
CHILD_TIMEOUT_S = 150

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("verdict_s_p50", "s"),
    ("explain_s_p50", "s"),
    ("minimise_s_p50", "s"),
    ("peak_rss_mb", "MB"),
)

# (metric, unit, source): the summed self time of a span, a count, or a
# ratio of two counts, each per traced pass over every shard; or the self
# time of a set-up span, which every pass has once, per pass.
SELF, COUNT, RATIO, SETUP = "self", "count", "ratio", "setup"
PER_LAYER = (
    ("terms.parse_s", "s", (SETUP, "terms.parse")),
    ("semantics.explore_s", "s", (SELF, "semantics.explore")),
    ("semantics.states", "count", (COUNT, "semantics.states")),
    ("semantics.transitions", "count", (COUNT, "semantics.transitions")),
    ("equiv.profile_s", "s", (SELF, "equiv.profile")),
    ("equiv.direct_s", "s", (SELF, "equiv.direct")),
    ("equiv.direct_rounds", "count", (COUNT, "equiv.direct_rounds")),
    ("equiv.direct_removals", "count", (COUNT, "equiv.direct_removals")),
    ("equiv.direct_rounds_per_state", "ratio",
     (RATIO, "equiv.direct_rounds", "equiv.direct_states")),
    ("encoding.encode_s", "s", (SELF, "encoding.encode")),
    ("encoding.states", "count", (COUNT, "encoding.states")),
    ("encoding.transitions", "count", (COUNT, "encoding.transitions")),
    ("encoding.blowup", "ratio",
     (RATIO, "encoding.states", "encoding.base_states")),
    ("equiv.encoded_s", "s", (SELF, "equiv.encoded")),
    ("equiv.encoded_rounds", "count", (COUNT, "equiv.encoded_rounds")),
    ("equiv.encoded_removals", "count", (COUNT, "equiv.encoded_removals")),
    ("equiv.witness_s", "s", (SELF, "equiv.witness")),
    ("equiv.witness_size", "count", (COUNT, "equiv.witness_size")),
    ("equiv.witness_check_s", "s", (SELF, "equiv.witness_check")),
    ("equiv.check_self_s", "s", (SELF, "equiv.check")),
    ("modal.distinguish_s", "s", (SELF, "modal.distinguish")),
    ("modal.formula_size", "count", (COUNT, "modal.formula_size")),
    ("modal.satisfies_s", "s", (SELF, "modal.satisfies")),
    ("lts.partition_s", "s", (SELF, "lts.partition")),
    ("lts.quotient_s", "s", (SELF, "lts.quotient")),
    ("lts.blocks", "count", (COUNT, "lts.blocks")),
    ("lts.reduction", "ratio", (RATIO, "lts.blocks", "lts.states")),
    ("axioms.instances", "count", (COUNT, "axioms.instances")),
    ("trace.overhead", "ratio", None),
)
# Printed but not in the JSON result: a time that is 0, so the same on every
# run, on the three workloads that never call the axioms layer.
FUZZ_ONLY = (("axioms.law_s", "s", (SELF, "axioms.law")),)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def provenance(seed):
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "txbisim")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    try:
        # the ceiling keeps git from taking the commit of an enclosing repo
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, env=env,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "seed": seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "source_sha256": digest.hexdigest()[:16],
    }


def launch(spec, trace=False, setup_only=False):
    """One workload process; returns its JSON line as a dict."""
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=SRC)
    launched = time.monotonic()
    cmd = [sys.executable, WORKER, "--launched", repr(launched)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(
        cmd, input=spec, capture_output=True, env=env, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        fail(f"workload process exited {proc.returncode}:\n"
             + proc.stderr.decode(errors="replace"))
    out = json.loads(proc.stdout.decode().splitlines()[-1])
    out["traced"] = trace
    out["elapsed_s"] = time.monotonic() - launched
    return out


def shard_specs(spec):
    """One spec per shard, each with the ops of that shard."""
    return [
        json.dumps(dict(spec, ops=[op for op in spec["ops"]
                                   if op.get("shard", 0) == shard])).encode()
        for shard in range(spec.get("shards", 1))
    ]


def run_passes(specs, seconds, trace):
    """Passes, the shards in turn, until the next one would end after
    ``seconds``; at least one untraced pass of every shard, and with
    ``trace`` a traced pass of every shard too."""
    start = time.monotonic()
    passes = []
    while True:
        i = len(passes)
        shard = (i // 2 if trace else i) % len(specs)
        traced = trace and i % 2 == 1
        passes.append(launch(specs[shard], trace=traced))
        passes[-1]["shard"] = shard
        done = len({(p["shard"], p["traced"]) for p in passes}) == (
            len(specs) * (2 if trace else 1))
        took = statistics.median(p["elapsed_s"] for p in passes)
        if done and time.monotonic() + took > start + seconds:
            return passes


def per_shard_sum(passes, value):
    """A whole pass over every shard: per shard the median of ``value``
    over its passes, summed over the shards."""
    shards = sorted({p["shard"] for p in passes})
    return sum(statistics.median(value(p) for p in passes if p["shard"] == s)
               for s in shards)


def pooled(passes, kind):
    return [t for p in passes for t in p["samples"][kind]]


def end_to_end(passes, setups):
    """Every end-to-end metric as (value, sample count)."""
    untraced = [p for p in passes if not p["traced"]]
    out = {
        "setup_s": (statistics.median(setups), len(setups)),
        "wall_s": (per_shard_sum(untraced, lambda p: p["wall_s"]),
                   len(untraced)),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in untraced),
                        len(untraced)),
    }
    # the median over the passes of each pass's median: the host slows whole
    # passes at a time, and one slow pass in five would shift a pooled median
    for kind in ("verdict", "explain", "minimise"):
        medians = [statistics.median(p["samples"][kind]) for p in untraced
                   if p["samples"][kind]]
        if not medians:
            fail(f"no {kind} samples: every {kind} operation failed")
        out[f"{kind}_s_p50"] = (statistics.median(medians),
                                len(pooled(untraced, kind)))
    per_pass = len(untraced[0]["samples"]["verdict"])
    if per_pass >= 100:
        samples = pooled(untraced, "verdict")
        out["verdict_s_p90"] = (statistics.quantiles(samples, n=10)[-1],
                                len(samples))
    return out


def per_layer(passes):
    """The per-layer metrics of one traced pass over every shard."""
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]

    def total(field, key):
        return per_shard_sum(traced, lambda p: p[field].get(key, 0))

    out = {}
    for name, _, source in PER_LAYER + FUZZ_ONLY:
        if source is None:
            continue
        if source[0] == SETUP:
            value = statistics.median(p["self_s"][source[1]] for p in traced)
        elif source[0] == SELF:
            value = total("self_s", source[1])
        elif source[0] == COUNT:
            value = total("counts", source[1])
        else:
            den = total("counts", source[2])
            value = total("counts", source[1]) / den if den else 0.0
        out[name] = (value, len(traced))
    out["trace.overhead"] = (
        per_shard_sum(traced, lambda p: p["wall_s"])
        / per_shard_sum(untraced, lambda p: p["wall_s"]),
        len(traced),
    )
    return out


UNITS = dict([(n, u) for n, u in END_TO_END] + [("verdict_s_p90", "s")]
             + [(n, u) for n, u, _ in PER_LAYER + FUZZ_ONLY])


def run_workload(workload, seed, seconds, trace):
    import inputs  # these need txbisim, which main() has checked for
    import worker

    specs = shard_specs(inputs.build(workload, seed, ROOT))
    # the first probe also compiles the bytecode; it is not counted
    probes = [launch(specs[0], setup_only=True)
              for _ in range(SETUP_PROBES + 1)][1:]
    passes = run_passes(specs, seconds, trace)
    setups = [p["setup_s"] for p in probes + passes]
    calibration = statistics.median(p["calibration_s"] for p in probes + passes)
    e2e = end_to_end(passes, setups)
    layers = per_layer(passes) if trace else {}

    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failed"]]
    known = [f for p in passes for f in p["known"]]
    wrong = [w for p in passes for w in p["wrong"]]
    refused = sum(p["refused"] for p in passes)

    info = provenance(seed)
    print(f"workload {workload}  " + "  ".join(f"{k} {v}" for k, v in info.items()))
    print(f"passes {sum(not p['traced'] for p in passes)} untraced, "
          f"{sum(p['traced'] for p in passes)} traced, "
          f"over {len(specs)} shard(s); "
          f"{SETUP_PROBES} set-up probes; calibration loop "
          f"{calibration * 1e3:.2f} ms (median), times below scaled to "
          f"{worker.REFERENCE_CALIBRATION_S * 1e3:g} ms")
    for name, (value, n) in list(e2e.items()) + list(layers.items()):
        print(f"  {name:34s} {value:14.6g} {UNITS[name]:6s} n={n}")
    raised = len(failures) + len(known)
    print(f"  {'error_rate':34s} {raised / (attempted + len(known)):14.6g} ratio  "
          f"{raised} raised / {attempted + len(known)} operations attempted "
          f"(verdict, distinguish, partition+quotient, fuzz calls); "
          f"{len(known)} of them the known distinguish defect, "
          f"left out of the result's attempted and failed")
    print(f"  {'wrong_verdicts':34s} {len(wrong):14d} count")
    print(f"  quotient refusals (internal cycles, expected): {refused}")
    for line in sorted(set(failures)):
        print(f"  raised: {line}")
    for line in sorted(set(known)):
        print(f"  known defect: {line}")
    for line in sorted(set(wrong)):
        print(f"  WRONG: {line}")

    chosen = ([(n, u) for n, u, _ in PER_LAYER] if trace else END_TO_END)
    metrics = {name: {"value": (layers if trace else e2e)[name][0], "unit": unit}
               for name, unit in chosen}
    print(json.dumps({"correct": not wrong, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return not wrong


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=26.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for needed in (os.path.join(SRC, "txbisim", "__init__.py"),
                   os.path.join(ROOT, "tests", "oracles.py")):
        if not os.path.isfile(needed):
            fail(f"{os.path.relpath(needed, ROOT)} is missing; "
                 "run from the root of a txbisim checkout")
    sys.path.insert(0, SRC)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    ok = True
    for name in names:
        ok &= run_workload(name, args.seed, args.seconds, bool(args.trace))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
