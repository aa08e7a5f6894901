"""Tests of the benchmark itself:  python3 -m pytest benchmark -q

They check that the output checks reject planted wrong answers, that the
traced self times of an operation add up to its measured time, and that
every workload runs to its end at a tiny size with no failed operation.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import statistics
import time

import pytest

import oracle
import run
import tracing
import workloads


@pytest.fixture
def wh():
    return run.load_package()


def tiny_ops(wh, name, seed=3):
    """The first round of a workload at the tiny size."""
    return workloads.WORKLOADS[name](wh, random.Random(f"{name}:{seed}"), True)()


# ---------------------------------------------------------------------------
# the output checks


def test_check_accepts_right_and_rejects_planted_answers(wh):
    ops = tiny_ops(wh, "check")
    valid = next(op for op in ops if not op.tags["rejected"])
    res = valid.run()
    assert valid.verify(res)
    lemmas, anti, dt, ds = res
    assert not valid.verify((lemmas, anti, dt + 1, ds))
    assert not valid.verify((False, anti, dt, ds))

    for bad in (op for op in ops if op.tags["rejected"]):
        law, witness = bad.run()
        assert bad.verify((law, witness))
        assert not bad.verify(None)  # a perturbed document that was accepted
        assert not bad.verify(("no-such-law", witness))


def test_check_rejects_a_witness_where_the_law_holds(wh):
    for bad in (op for op in tiny_ops(wh, "check") if op.tags["rejected"]):
        law, witness = bad.run()
        raw = bad.tags["raw"]
        candidates = itertools.product(range(raw.n), repeat=len(witness))
        holding = next(w for w in candidates if not oracle.violation_holds(raw, law, w))
        assert not bad.verify((law, holding))


def test_decompose_accepts_right_and_rejects_planted_answers(wh):
    op = tiny_ops(wh, "decompose-dense")[0]
    idems, dims, certs, pieces = op.run()
    assert op.verify((idems, dims, certs, pieces))
    e0 = list(idems[0])
    e0[0] = e0[0] + 1
    assert not op.verify(([tuple(e0)] + list(idems[1:]), dims, certs, pieces))  # bumped idempotent
    assert not op.verify((idems[:1], dims[:1], certs[:1], pieces))  # a block missing
    assert not op.verify((idems, dims, ["undecided-over-field"] * len(certs), pieces))


def test_reconstruct_accepts_right_and_rejects_planted_answers(wh):
    ops = tiny_ops(wh, "reconstruct")
    clean = next(op for op in ops if op.tags["corrupt"] is None and "auto (1, 0)" in op.label)
    phi, verdicts, first = clean.run()
    assert clean.verify((phi, verdicts, first))
    swapped = [row[1:] + row[:1] for row in phi]
    assert not clean.verify((swapped, verdicts, first))  # a swapped phi
    for corrupt in (op for op in ops if op.tags["corrupt"]):
        phi, verdicts, first = corrupt.run()
        assert corrupt.verify((phi, verdicts, first))
        other = "unit-morphism" if first != "unit-morphism" else "comodule-validity"
        assert not corrupt.verify((phi, verdicts, other))  # a wrong layer name
        assert not clean.verify((clean.run()[0], verdicts, first))  # a clean table failing


def test_oracle_change_of_basis_keeps_the_laws(wh):
    h = workloads.cyclic(wh, 2, wh.exactla.QQ)
    raw = oracle.raw_from_text(workloads.doc_text(wh, h))
    moved = oracle.change_basis(raw, [[1, 1], [0, 1]])
    for law, witnesses in (
        ("associativity", [(i, j, k) for i in range(2) for j in range(2) for k in range(2)]),
        ("WH1", [(i, j) for i in range(2) for j in range(2)]),
        ("WH4(iii)", [(0,), (1,)]),
        ("counit-left", [(0,), (1,)]),
    ):
        for w in witnesses:
            assert not oracle.violation_holds(moved, law, w), (law, w)
    h2, _ = wh.serialize.wba_from_document(json.loads(oracle.text_from_raw(moved)))
    assert h2.dim == 2
    for p in (0, 5):
        fld = wh.exactla.GF(p) if p else wh.exactla.QQ
        k2 = wh.decomp.direct_sum(*[workloads.cyclic(wh, 1, fld)] * 2)
        scaled = oracle.scale_basis(oracle.raw_from_text(workloads.doc_text(wh, k2)), [3, -2])
        for law in ("associativity", "WH1", "counit-left", "counit-right", "unit-left"):
            arity = 3 if law == "associativity" else 2 if law == "WH1" else 1
            for w in itertools.product(range(2), repeat=arity):
                assert not oracle.violation_holds(scaled, law, w), (p, law, w)


def test_rounds_draw_fresh_inputs(wh):
    rng = random.Random("fresh")
    dense = workloads.WORKLOADS["decompose-dense"](wh, rng, True)
    texts = [{op.tags["text"] for op in dense()} for _ in range(2)]
    assert texts[0].isdisjoint(texts[1])
    recon = workloads.WORKLOADS["reconstruct"](wh, random.Random("fresh"), True)
    first, second = recon(), recon()
    shared = {id(a) for a, b in zip(first, second) if a is b}
    one_shot = [op for op in first if id(op) not in shared]
    assert shared and one_shot  # automorphism tables kept, one-shot maps made again
    assert all(op.label.startswith("k^2") for op in one_shot)


# ---------------------------------------------------------------------------
# tracing


def wrapper_cost(calls: int = 20000) -> float:
    """Seconds a tracing wrapper adds to one call: a wrapped no-op against a plain one."""
    def noop():
        return None

    wrapped = tracing.Tracer()._wrap("bench.noop", noop)

    def per_call(fn):
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            for _ in range(calls):
                fn()
            best = min(best, (time.perf_counter() - t0) / calls)
        return best

    return per_call(wrapped) - per_call(noop)


def test_traced_self_times_add_up_to_the_operation_time(wh):
    op = next(o for o in tiny_ops(wh, "reconstruct") if o.tags["corrupt"] is None)
    cost = wrapper_cost()
    ratios = []
    for _ in range(7):  # untraced and traced runs interleaved, against drifts in machine speed
        t0 = time.perf_counter()
        op.run()
        untraced = time.perf_counter() - t0
        tracer = tracing.Tracer()
        tracer.install()
        try:
            _, dt = tracer.run_op(0, op.run)
        finally:
            tracer.uninstall()
        covered, _, _, dur = tracer.span_table()
        self_total = sum(dur[sid] - covered[sid] for sid in tracer.ids)
        spans = len(tracer.ids)
        # the traced run's own clock around the operation misses only the
        # root wrapper's bookkeeping
        assert 0 <= dt - self_total <= max(10 * cost, 1e-4), (dt, self_total)
        # against the untraced run, the self times add what the wrappers cost
        ratios.append(self_total / (untraced + spans * cost))
    assert 0.8 <= statistics.median(ratios) <= 1.25, ratios
    assert wh.comod.tensor_over_source.__name__ == "tensor_over_source"
    assert not hasattr(wh.comod.tensor_over_source, "__wrapped__")  # uninstalled


def test_tracer_wraps_every_lookup_site(wh):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert hasattr(wh.weakbia.comultiply, "__wrapped__")
        assert wh.weakbia.comultiply is wh.structure.comultiply
        assert hasattr(wh.exactla.Matrix.mul, "__wrapped__")
    finally:
        tracer.uninstall()
    assert not hasattr(wh.weakbia.comultiply, "__wrapped__")


# ---------------------------------------------------------------------------
# whole runs at a tiny size


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", (0, 1))
def test_tiny_run_ends_with_no_failed_operation(workload, trace):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run.main(["--workload", workload, "--seed", "4", "--seconds", "0.05",
                         "--trace", str(trace), "--size", "tiny"])
    assert code == 0
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
