"""Smoke test of the benchmark's own code at a tiny size.

    PYTHONPATH=src python3 -m pytest -q qbench/tests
"""
import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import littleq.cli as cli  # noqa: E402
import littleq.darboux as darboux  # noqa: E402
import littleq.exact as exact  # noqa: E402
import mpmath  # noqa: E402

from check import canonical, judge  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402
from refkernel import NOMINAL_REF_S, speed_factor, timed_ref  # noqa: E402
from run import Ledger  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import SWEEP_CELLS, SWEEP_SESSIONS, cell_key, workload_passes  # noqa: E402

TINY = ["--indices", "1", "--nmax", "1"]


def run(command, point=TINY):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([command, *point])
    return {"code": code, "stdout": out.getvalue()}


@pytest.mark.parametrize("command", ["construct", "verify", "table", "zeros"])
def test_reference_comparison(command):
    result = run(command)
    reference = canonical(command, result["code"], result["stdout"])
    assert judge(command, result, reference) is None
    assert judge(command, {"error": "ZeroDivisionError: x"}, reference)[0] == "exception"
    assert judge(command, dict(result, code=7), reference)[0] == "exit"
    assert judge(command, dict(result, stdout=""), reference)[0] == "wrong"
    # a point that raised when references were recorded passes once it works
    assert judge(command, result, None) is None


def test_reference_ignores_witness_text_but_not_status():
    result = run("verify")
    reference = canonical("verify", 0, result["stdout"])
    report = json.loads(result["stdout"])
    report["checks"][0]["witness"] = "different text"
    assert canonical("verify", 0, json.dumps(report)) == reference
    report["checks"][0]["status"] = "fail"
    assert canonical("verify", 0, json.dumps(report)) != reference


def test_zero_values_compared_to_fixed_places():
    header = "index,real,imag,physical,precision_dps\n"
    a = canonical("zeros", 0, header + "0,0.25000000000000000000000000000000000001,1e-80,1,77\n")
    b = canonical("zeros", 0, header + "0,0.25000000000000000000000000000000000002,-1e-79,1,77\n")
    c = canonical("zeros", 0, header + "0,0.2500000000000000000000000001,0.0,1,77\n")
    assert a == b != c


def test_reference_kernel_correction():
    assert timed_ref() > 0
    assert speed_factor([NOMINAL_REF_S, NOMINAL_REF_S]) == pytest.approx(1.0)
    # a machine running at half speed doubles both the call and the kernel
    assert 2.0 * speed_factor([2 * NOMINAL_REF_S] * 3) == pytest.approx(1.0)
    assert speed_factor([NOMINAL_REF_S, 3 * NOMINAL_REF_S]) == pytest.approx(0.5)


def test_tracer_install_and_uninstall():
    originals = (exact.LaurentPoly.__mul__, exact.LaurentPoly.__sub__,
                 darboux.det_laurent, darboux.multi_indexed_poly_y, mpmath.polyroots)
    tracer = Tracer()
    tracer.install()
    try:
        assert darboux.det_laurent is exact.det_laurent is not originals[2]
        # a point no other test uses, so that littleq's caches are cold
        point = ["--q", "1/2", "--b", "1/32", "--indices", "2", "--nmax", "1"]
        with tracer.span("cli.construct"):
            run("construct", point)
        run("zeros", point)
    finally:
        tracer.uninstall()
    assert (exact.LaurentPoly.__mul__, exact.LaurentPoly.__sub__, darboux.det_laurent,
            darboux.multi_indexed_poly_y, mpmath.polyroots) == originals
    groups = tracer.groups
    assert groups["exact.mul"].calls > 0 and groups["exact.mul"].busy_s > 0
    assert groups["darboux.multi_indexed_poly_y"].calls == 3  # levels 0, 1; 1 again
    assert groups["verify.zeros"].calls == 1 == len(tracer.root_levels)
    assert groups["exact"].counters["max_coeff_bits"] > 0
    cli_span = groups["cli.construct"]
    assert 0 < cli_span.self_s < cli_span.busy_s
    for group, start, end, parent in tracer.spans:
        assert start <= end and parent < len(tracer.spans)
    # a - b is one add/sub call although __sub__ calls __add__
    before = groups["exact.addsub"].calls
    tracer.install()
    try:
        exact.LaurentPoly.one(exact.Fraction(1, 2)) - exact.LaurentPoly.var(exact.Fraction(1, 2))
    finally:
        tracer.uninstall()
    assert groups["exact.addsub"].calls == before + 1


def test_sweep_passes_are_seeded_and_cover_every_cell():
    pool = {cell_key(*cell): [[cell_key(*cell), str(k)] for k in range(6)]
            for cell in SWEEP_CELLS}
    sessions = workload_passes("sweep", 1, pool)
    assert sessions == workload_passes("sweep", 1, pool) != workload_passes("sweep", 2, pool)
    assert len(sessions) == SWEEP_SESSIONS
    for session in sessions:
        assert [p[0] for p in session] == list(pool)
    # within a cell each session gets another pool entry
    assert all(len({tuple(s[i]) for s in sessions}) == SWEEP_SESSIONS for i in range(len(pool)))


def test_ledger_counts_each_operation_once():
    ledger = Ledger({"p": {"verify": None}})
    crash = {"argv": ["verify", "p"], "error": "ZeroDivisionError"}
    for _ in range(3):  # the same operation in three passes
        ledger.check([{"samples": [dict(crash)]}])
    assert (ledger.attempted, ledger.failed, ledger.executions) == (1, 1, 3)
    assert len(ledger.failures) == 3 and ledger.correct


def test_benchmark_json_matches_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] \
        == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [m[:3] for m in PER_LAYER]
