"""The engine digest script: its cross-checks pass on the engines as they
are, and fail, naming the pair, when one route is broken."""

import importlib.util
from pathlib import Path

import pytest

from txbisim import equiv

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "engine_digest.py"


@pytest.fixture
def digest():
    spec = importlib.util.spec_from_file_location("engine_digest", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digest_finds_the_routes_agreeing(digest, capsys):
    assert digest.main(["--seeds", "1", "--per-seed", "4"]) == 0
    out, err = capsys.readouterr()
    assert out.splitlines()[0] == "pairs 4"
    assert err == ""


def test_digest_reports_a_broken_route(digest, capsys, monkeypatch):
    def reflexive(pf, enc, rel):
        # the encode route relates each state only to itself
        rows = [[1 << i] * (pf.trig + 1) for i in range(pf.n)]
        return equiv._GenResult(rows, {}, 0)

    monkeypatch.setattr(equiv, "_projection", reflexive)
    assert digest.main(["--seeds", "1", "--per-seed", "4"]) == 1
    complaints = capsys.readouterr().err.splitlines()
    assert complaints
    assert all(" / " in line for line in complaints)
    assert any(" encode gives " in line for line in complaints)
