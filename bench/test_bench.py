"""Tests of the benchmark itself: python3 -m pytest bench -q"""

import json
import sys

import pytest

import corpus
import run
import tracer

# One small ideal per field, so each workload runs in well under a second.
TINY = {
    "betti": (4, 3), "resolve": (4, 3), "minimize": (4, 3), "classify": (3, 3),
}


def tiny_spec(workload):
    r, n = TINY[workload]
    stratum = corpus.Stratum(r, n, 1, "L", 0)
    return {fld: {"strata": [stratum]} for fld in corpus.FIELDS}


@pytest.fixture
def setup_tiny(tmp_path):
    run.use_checkout_sources()

    def make(workload):
        _, items = run.setup(workload, 7, tmp_path, tiny_spec(workload))
        return items

    return make


def error_rate(samples):
    return sum(s.reason is not None for s in samples) / len(samples)


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_every_workload_runs_a_one_ideal_per_field_corpus(setup_tiny, workload):
    items = setup_tiny(workload)
    assert {fld: len(v) for fld, v in items.items()} == {"qq": 1, "gf": 1}
    with run.Runner(workload, {}, False) as runner:
        for fld in corpus.FIELDS:
            runner.run_pass(items[fld], 0)
    assert [s.reason for s in runner.samples] == [None, None]


def test_same_seed_same_inputs_and_seed_changes_them():
    run.use_checkout_sources()
    run.fresh_import()
    spec = corpus.SPECS["minimize"]
    a = corpus.build_corpus("minimize", 3, spec)
    b = corpus.build_corpus("minimize", 3, spec)
    c = corpus.build_corpus("minimize", 4, spec)
    texts = lambda cp: [i.text for f in corpus.FIELDS for i in cp[f]]  # noqa: E731
    assert texts(a) == texts(b)
    assert texts(a) != texts(c)
    assert [i.size for i in a["qq"]] == [i.size for i in c["qq"]]


def test_wrong_digest_raises_error_rate(setup_tiny):
    items = setup_tiny("betti")
    with run.Runner("betti", {}, False) as runner:
        runner.run_pass(items["qq"], 0)
        assert error_rate(runner.samples) == 0
        key = run.digest_key("betti", items["qq"][0])
        runner.digests = {key: [[0, "0" * 64]]}
        runner.run_pass(items["qq"], 1)
    assert runner.samples[-1].reason == "output digest differs from the recorded one"
    assert error_rate(runner.samples) == 0.5


def test_missing_digest_fails_when_required(setup_tiny):
    items = setup_tiny("betti")
    with run.Runner("betti", {}, True) as runner:
        runner.run_pass(items["qq"], 0)
    assert runner.samples[0].reason == "no recorded output digest for this input"


def test_timed_out_ideal_raises_error_rate(setup_tiny):
    items = setup_tiny("resolve")
    with run.Runner("resolve", {}, False, timeout=1e-4) as runner:
        runner.run_pass(items["qq"], 0)
    assert runner.samples[0].reason.startswith("timeout")
    assert error_rate(runner.samples) == 1


def test_wrong_betti_table_breaks_the_euler_check(setup_tiny):
    items = setup_tiny("betti")
    item = items["qq"][0]
    with run.Runner("betti", {}, False) as runner:
        _, out, _ = runner._call(["betti", item.path])
    assert corpus.check_outputs("betti", item, [out]) is None
    line = next(x for x in out.splitlines() if x.startswith("b_1,"))
    bad = out.replace(line, line[:-1] + str(int(line[-1]) + 1), 1)
    assert corpus.check_outputs("betti", item, [bad]) is not None


def test_unreadable_output_is_a_failure_not_a_crash(setup_tiny):
    items = setup_tiny("resolve")
    with run.Runner("resolve", {}, False) as runner:
        reason = runner._check(items["qq"][0], [(0, "not json", ""), (0, "", "")])
    assert reason.startswith("unreadable output")


def test_mobius_of_the_triangle():
    mu = corpus.mobius(corpus.lcm_lattice([(1, 1, 0), (1, 0, 1), (0, 1, 1)]))
    assert mu[(0, 0, 0)] == 1
    assert mu[(1, 1, 0)] == -1
    assert mu[(1, 1, 1)] == 2
    assert sum(mu.values()) == 0


def test_untraced_run_calls_the_library_originals(setup_tiny):
    items = setup_tiny("resolve")
    linalg = sys.modules["monres.linalg"]
    resolutions = sys.modules["monres.resolutions"]
    classify = sys.modules["monres.classify"]
    rref = linalg.Matrix.__dict__["rref"]
    lift = resolutions.lift_cycle_in_simplex
    original = tracer.bindings(tracer.resolve_targets())
    assert (classify, "lift_cycle_in_simplex", lift) in [b[1:] for b in original]

    t = tracer.Tracer()
    with run.Runner("resolve", {}, False) as runner:
        runner.run_pass(items["gf"], 0)
        assert t.spans == []
        runner.tracer = t
        with t:
            assert linalg.Matrix.__dict__["rref"] is not rref
            assert classify.lift_cycle_in_simplex is not lift
            assert classify.lift_cycle_in_simplex is resolutions.lift_cycle_in_simplex
            runner.run_pass(items["gf"], 1)
        runner.tracer = None
        runner.run_pass(items["gf"], 2)
    assert [s.reason for s in runner.samples] == [None] * 3
    assert tracer.untraced(original)
    assert linalg.Matrix.__dict__["rref"] is rref
    names = {t.names[s[3]] for s in t.spans}
    assert {"cli.main", "linalg.rref", "resolutions.lift_cycle_in_simplex"} <= names
    assert {s[2] for s in t.spans} == {1}  # every span carries the traced ideal's id


def test_metrics_match_benchmark_json(setup_tiny):
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    items = setup_tiny("classify")
    t = tracer.Tracer()
    with run.Runner("classify", {}, False) as runner:
        untraced, traced = run.measure(runner, items, 0, t)
    e2e = run.end_to_end(untraced, [0.1])
    layers = run.per_layer(t, traced, untraced)
    assert sorted(e2e) == sorted(m["name"] for m in bench["end_to_end"])
    assert sorted(layers) == sorted(m["name"] for m in bench["per_layer"])
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    assert all(units[k] == v[1] for k, v in {**e2e, **layers}.items())
    assert all(v[0] > 0 for v in e2e.values())
    assert 0.9 < layers["trace.coverage_min"][0] <= 1.0
