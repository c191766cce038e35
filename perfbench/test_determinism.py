"""Two traced passes of the same seed must count exactly the same work.

Run from the root of a checkout (takes about a minute):

    python3 -m pytest -q perfbench
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import inputs  # noqa: E402
import run  # noqa: E402


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_same_counts(workload):
    spec = json.dumps(inputs.build(workload, 7, run.ROOT)).encode()
    first, second = (run.launch(spec, trace=True) for _ in range(2))
    counts = first["counts"]
    # states, encoded states, rounds, removals, witness and formula sizes,
    # blocks: every one of them is exercised
    for key in ("semantics.states", "encoding.states", "equiv.direct_rounds",
                "equiv.encoded_removals", "equiv.witness_size",
                "modal.formula_size", "lts.blocks"):
        assert counts.get(key, 0) > 0, key
    assert counts == second["counts"]
    for kind in ("verdict", "explain", "minimise"):
        assert len(first["samples"][kind]) == len(second["samples"][kind])
    assert first["wrong"] == second["wrong"] == []
    assert first["failed"] == second["failed"]
