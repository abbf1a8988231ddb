"""The acceptance gate: every verification criterion at its pinned count.

The suite is executed once per test session with a fixed seed; each
criterion is then asserted (and printed) separately, followed by the
runtime budgets: the bridge criterion under 10 s, the indefinite-integral
criterion under 20 s, and the whole suite under 60 s.  The criteria
widened by the seeded down-set lattices, [3], [7] and [9], also pass at
suite seed 1, so their case counts are not tuned to seed 0.  A criterion
that raises is reported as a FAIL line, the others still run, and
``locint verify`` exits 1.
"""

import json

import pytest

from locint import verify
from locint.cli import main
from locint.corpus import seeded_corpus

SEED = 0


@pytest.fixture(scope="module")
def results():
    res = verify.run_all(seed=SEED)
    for line in verify.format_lines(res):
        print(line)
    return res


@pytest.mark.parametrize("number", range(1, 10))
def test_criterion(results, number):
    r = results[number - 1]
    status = "PASS" if r.passed else "FAIL"
    print(f"{status} {r.number} {r.name}: {r.detail} ({r.seconds:.2f}s)")
    assert r.passed, f"criterion {r.number} ({r.name}): {r.detail}"


def test_runtime_budgets(results):
    by_number = {r.number: r for r in results}
    assert by_number[1].seconds < 10.0, "bridge criterion exceeded its 10 s budget"
    assert by_number[2].seconds < 20.0, "indefinite-integral criterion exceeded its 20 s budget"
    total = sum(r.seconds for r in results)
    print(f"total verification time: {total:.2f}s")
    assert total < 60.0, "the full suite exceeded its 60 s budget"


@pytest.mark.parametrize("number", [3, 7, 9])
def test_widened_criteria_pass_at_seed_1(number):
    """Seeded as ``run_all(1)`` seeds them; every down-set lattice they add
    is non-Boolean with at least two centre atoms."""
    for entry in seeded_corpus():
        assert not entry.lattice.is_boolean() and len(entry.lattice._centre_atoms()) >= 2
    verify.CRITERIA[number - 1][1](1 * 1000 + number)  # raises on a failure


def test_a_failing_criterion_is_reported_and_the_others_still_run(monkeypatch, capsys):
    names = [name for name, _ in verify.CRITERIA]
    criteria = [(name, lambda seed: f"seed {seed}") for name in names]
    criteria[4] = (names[4], lambda seed: verify.check(False, "x"))
    monkeypatch.setattr(verify, "CRITERIA", criteria)
    lines = [f"PASS {n} {name}: seed {n}" for n, name in enumerate(names, 1)]
    lines[4:] = ["FAIL 5 evaluation tables: AssertionError: x"] + lines[5:] + ["result: FAILURES present"]
    assert verify.format_lines(verify.run_all(0)) == lines
    assert main(["verify"]) == 1 and capsys.readouterr().out.splitlines() == lines
    assert main(["verify", "--format", "json"]) == 1
    assert json.loads(capsys.readouterr().out)["passed"] is False
