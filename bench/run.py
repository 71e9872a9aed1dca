"""monres benchmark: seeded CLI workloads in QQ and GF(32003).

    python3 bench/run.py --workload betti --seed 0 --seconds 20 --trace 0

One process, one thread, closed loop: each ideal goes through
``monres.cli.main(argv)`` in-process with stdout captured, and the next
starts when it is done.  A run sets up the corpus, then alternates whole
passes over the QQ and the GF corpus until `--seconds` are used.  With
``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced passes and prints per-layer metrics from
spans recorded around the library's public functions (see tracer.py).
The last line of stdout is one JSON object; a record of the run goes to
bench/results/.  See bench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
DIGESTS = BENCH / "digests.json"

sys.path.insert(0, str(BENCH))

import corpus as corpus_mod  # noqa: E402
import tracer as tracer_mod  # noqa: E402
from corpus import FIELD_ARGS, FIELDS, WORKLOADS  # noqa: E402

DEFAULT_SEED = 0
SETUP_REPS = 5
IDEAL_TIMEOUT_S = 20.0
# Past --seconds plus this slack, the ideals left in a pass are failed
# unrun, so a run with hanging ideals still ends within its time limit.
DEADLINE_SLACK_S = 90.0


class IdealTimeout(BaseException):
    """Raised by SIGALRM inside an ideal; a BaseException so no handler in the library swallows it."""


def _on_alarm(signum, frame):
    raise IdealTimeout()


def use_checkout_sources():
    """Import monres from this checkout's src/, or exit non-zero."""
    src = ROOT / "src"
    if not (src / "monres" / "__init__.py").is_file():
        raise SystemExit(f"bench: no monres sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


def fresh_import():
    """Drop every loaded monres module and import the CLI (and so all layers) again."""
    for name in [m for m in sys.modules if m == "monres" or m.startswith("monres.")]:
        del sys.modules[name]
    cli = importlib.import_module("monres.cli")
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"bench: monres imported from {cli.__file__}, not from this checkout")
    return cli


def setup(workload, seed, workdir, spec=None):
    """Import monres, build the seeded corpus and write its files; returns (seconds, corpus)."""
    start = time.perf_counter()
    fresh_import()
    corpus = corpus_mod.build_corpus(workload, seed, spec)
    corpus_mod.write_corpus(corpus, workdir)
    return time.perf_counter() - start, corpus


def digest_key(workload, item):
    return f"{workload}|{item.field}|{hashlib.sha256(item.text.encode()).hexdigest()[:16]}"


def load_digests():
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


@dataclass
class Sample:
    item: str
    field: str
    pass_no: int
    tag: int            # ideal id shared with the spans of a traced pass
    latency: float
    reason: str | None  # None when the ideal completed correctly


class Runner:
    """Runs the items of one workload through the CLI and checks what they print.

    Use as a context manager: it owns the SIGALRM handler behind the
    per-ideal timeout and restores the previous one on exit.
    """

    def __init__(self, workload, digests, require_digests, timeout=IDEAL_TIMEOUT_S, deadline=None):
        self.workload = workload
        self.digests = digests
        self.require_digests = require_digests
        self.timeout = timeout
        self.deadline = deadline
        self.tracer = None
        self.samples = []
        self.outputs = {}   # digest key -> [[exit code, stdout sha256], ...] of the last run
        self._cli = sys.modules["monres.cli"]
        self._old_handler = None

    def __enter__(self):
        self._old_handler = signal.signal(signal.SIGALRM, _on_alarm)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old_handler)

    def _call(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = self._cli.main(argv)
            except SystemExit as e:
                code = e.code if isinstance(e.code, int) else 1
        return code, out.getvalue(), err.getvalue()

    def _calls(self, item):
        pre = FIELD_ARGS[item.field]
        if self.workload != "resolve":
            return [self._call(pre + [self.workload, item.path])]
        first = self._call(pre + ["--json", "resolve", item.path])
        if first[0] != 0:
            return [first]
        dump = item.path + ".dump.json"
        with open(dump, "w", encoding="utf-8") as fh:
            fh.write(first[1])
        return [first, self._call(["verify", dump])]

    def run_item(self, item):
        """(latency, failure reason or None) for one ideal."""
        results = []
        start = time.perf_counter()
        try:
            try:
                signal.setitimer(signal.ITIMER_REAL, self.timeout)
                results = self._calls(item)
                end = time.perf_counter()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except IdealTimeout:
            return time.perf_counter() - start, f"timeout after {self.timeout} s"
        except Exception as e:  # an exception escaping main() is a failed ideal
            return time.perf_counter() - start, f"exception {type(e).__name__}: {e}"
        return end - start, self._check(item, results)

    def _check(self, item, results):
        for code, _, err in results:
            if code != 0:
                return f"exit {code}: {err.strip()[:200]}"
        key = digest_key(self.workload, item)
        got = [[code, hashlib.sha256(out.encode()).hexdigest()] for code, out, _ in results]
        self.outputs[key] = got
        want = self.digests.get(key)
        if want is None and self.require_digests:
            return "no recorded output digest for this input"
        if want is not None and want != got:
            return "output digest differs from the recorded one"
        try:
            return corpus_mod.check_outputs(self.workload, item, [out for _, out, _ in results])
        except (ValueError, KeyError, IndexError) as e:
            return f"unreadable output: {type(e).__name__}: {e}"

    def run_pass(self, items, pass_no):
        out = []
        for item in items:
            tag = len(self.samples)
            if self.tracer is not None:
                self.tracer.ideal = tag
            if self.deadline is not None and time.perf_counter() > self.deadline:
                latency, reason = 0.0, "not run: run deadline passed"
            else:
                latency, reason = self.run_item(item)
            sample = Sample(item.id, item.field, pass_no, tag, latency, reason)
            self.samples.append(sample)
            out.append(sample)
        return out


def measure(runner, corpus, seconds, tracer=None):
    """Alternate QQ and GF passes until `seconds` are used, at least one cycle.

    Returns {field: [pass]} of untraced passes and, with a tracer, of
    traced passes; a traced run puts an untraced pass before each traced one.
    """
    untraced = {f: [] for f in FIELDS}
    traced = {f: [] for f in FIELDS}
    start = time.perf_counter()
    cycles = 0
    while True:
        for fld in FIELDS:
            gc.collect()
            untraced[fld].append(runner.run_pass(corpus[fld], cycles))
            if tracer is not None:
                gc.collect()
                runner.tracer = tracer
                with tracer:
                    traced[fld].append(runner.run_pass(corpus[fld], cycles))
                runner.tracer = None
        cycles += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / cycles > seconds:
            return untraced, traced


def _quantile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(untraced, setup_times):
    metrics = {"setup_s": (statistics.median(setup_times), "s", len(setup_times))}
    for fld in FIELDS:
        passes = untraced[fld]
        lat = [s.latency for p in passes for s in p]
        done = sum(s.reason is None for p in passes for s in p)
        metrics[f"{fld}.ideals_per_s"] = (done / sum(lat) if done else 0.0, "ideals/s", len(passes))
        metrics[f"{fld}.latency_p50_s"] = (statistics.median(lat), "s", len(lat))
        metrics[f"{fld}.latency_p90_s"] = (_quantile(lat, 90), "s", len(lat))
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB", 1)
    return metrics


PER_LAYER_CALLS = [
    "linalg.rref", "linalg.rank", "linalg.solve", "linalg.kernel_basis",
    "vcomplex.complex_of_facets", "vcomplex.homology", "vcomplex.exact_closure",
    "vcomplex.class_in_homology", "lattice.from_ideal", "lattice.homology_at", "lattice.closure",
    "chains.boundary", "resolutions.lift_cycle_in_simplex", "resolutions.consecutive_cancellation",
    "posetres.certified_constant_rank",
]
PER_LAYER_SELF = [
    "linalg.rref", "vcomplex.complex_of_facets", "vcomplex.homology", "vcomplex.exact_closure",
    "lattice.from_ideal", "lattice.closure", "lattice.is_scarf_multidegree", "chains.boundary",
    "resolutions.atomic_lattice_resolution", "resolutions.lift_cycle_in_simplex",
    "resolutions.verify_resolution", "resolutions.taylor_resolution",
    "resolutions.consecutive_cancellation", "resolutions.find_unit_entry",
    "posetres.poset_construction", "posetres.rlm_construction", "posetres.rlm_symbolic",
    "posetres.certified_constant_rank", "cli.main", "monomials.parse_ideal_text",
]
PER_LAYER_INCL = [
    "classify.is_scarf", "classify.is_nearly_scarf", "classify.is_homologically_monotonic",
    "classify.is_rigid", "classify.is_nearly_hm", "classify.is_betti_linear",
    "classify.is_lattice_linear", "classify.analyse_rlm",
]
COUNTERS = ["linalg.rref.cells", "vcomplex.faces", "lattice.elements"]


def per_layer(tracer, traced, untraced):
    """Per-layer metrics: counts per cycle (one traced pass of each field), times as shares.

    A time is given as a share of all traced self time, and the total is
    `trace.self_s`.  A layer that a workload never enters then reads 0
    as a share, not as 0 s on every run, and shares do not move with
    the machine's speed from one run to the next.
    """
    cycles = len(traced[FIELDS[0]])
    names = tracer.names
    name_of = {}
    calls, self_s, incl = {}, {}, {}
    raised = {m: 0 for m in tracer_mod.MODULES}
    per_ideal_self = {}
    for sid, _, _, idx, _, _, _, _ in tracer.spans:
        name_of[sid] = names[idx]
    misses = 0
    for sid, parent, ideal, idx, start, end, own, exc in tracer.spans:
        name = names[idx]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own
        parent_name = name_of.get(parent)
        if parent_name != name:
            incl[name] = incl.get(name, 0.0) + (end - start)
        if exc:
            raised[name.split(".")[0]] += 1
        if name == "vcomplex.reduced_homology" and parent_name == "lattice.homology_at":
            misses += 1
        per_ideal_self[ideal] = per_ideal_self.get(ideal, 0.0) + own
    total_self = sum(self_s.values())
    m = {}
    for n in PER_LAYER_CALLS:
        m[f"{n}.calls"] = (calls.get(n, 0) / cycles, "count")
    for n in PER_LAYER_SELF:
        m[f"{n}.self_share"] = (self_s.get(n, 0.0) / total_self, "ratio")
    for n in PER_LAYER_INCL:
        m[f"{n}.incl_share"] = (incl.get(n, 0.0) / total_self, "ratio")
    for n in COUNTERS:
        m[n] = (tracer.counters.get(n, 0) / cycles, "count")
    h_calls = calls.get("lattice.homology_at", 0)
    m["lattice.homology_at.misses"] = (misses / cycles, "count")
    m["lattice.homology_at.hits"] = ((h_calls - misses) / cycles, "count")
    m["lattice.homology_at.hit_ratio"] = ((h_calls - misses) / h_calls if h_calls else 0.0, "ratio")
    for mod in tracer_mod.MODULES:
        mine = [n for n in calls if n.split(".")[0] == mod]
        m[f"{mod}.calls"] = (sum(calls[n] for n in mine) / cycles, "count")
        m[f"{mod}.self_share"] = (sum(self_s[n] for n in mine) / total_self, "ratio")
        m[f"{mod}.exceptions"] = (raised[mod] / cycles, "count")
    m["trace.self_s"] = (total_self / cycles, "s")
    t_traced = sum(s.latency for f in FIELDS for p in traced[f] for s in p)
    t_plain = sum(s.latency for f in FIELDS for p in untraced[f] for s in p)
    m["trace.overhead_frac"] = (t_traced / t_plain - 1.0, "ratio")
    coverage = [per_ideal_self.get(s.tag, 0.0) / s.latency
                for f in FIELDS for p in traced[f] for s in p if s.latency > 0]
    m["trace.coverage_min"] = (min(coverage), "ratio")
    return m


def record_digests(workload, runner, corpus):
    """Store the exit codes and stdout digests of one pass per field."""
    for fld in FIELDS:
        for s in runner.run_pass(corpus[fld], 0):
            if s.reason is not None:
                raise SystemExit(f"bench: {s.item} failed, not recording: {s.reason}")
    digests = load_digests() if DIGESTS.exists() else {}
    digests = {k: v for k, v in digests.items() if not k.startswith(workload + "|")}
    digests.update(runner.outputs)
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(dict(sorted(digests.items())), fh, indent=1)
        fh.write("\n")
    print(f"recorded {len(runner.outputs)} digests for {workload} in {DIGESTS.relative_to(ROOT)}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="run one pass per field and store its output digests (default seed only)")
    args = parser.parse_args(argv)
    if args.record_digests and args.seed != DEFAULT_SEED:
        parser.error("digests are recorded on the default seed")

    use_checkout_sources()
    os.environ.pop("MONRES_FIELD", None)
    RESULTS.mkdir(exist_ok=True)
    workdir = RESULTS / f"inputs-{os.getpid()}"
    workdir.mkdir()
    try:
        setup_times = []
        for _ in range(SETUP_REPS):
            t, corpus = setup(args.workload, args.seed, workdir)
            setup_times.append(t)
        digests = {} if args.record_digests else load_digests()
        original = tracer_mod.bindings(tracer_mod.resolve_targets())
        deadline = time.perf_counter() + args.seconds + DEADLINE_SLACK_S
        require = args.seed == DEFAULT_SEED and not args.record_digests
        with Runner(args.workload, digests, require, deadline=deadline) as runner:
            if args.record_digests:
                record_digests(args.workload, runner, corpus)
                return 0
            tracer = tracer_mod.Tracer() if args.trace else None
            untraced, traced = measure(runner, corpus, args.seconds, tracer)
        if not tracer_mod.untraced(original):
            raise SystemExit("bench: tracer wrappers were left installed")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    samples = runner.samples
    failed = [s for s in samples if s.reason is not None]
    e2e = end_to_end(untraced, setup_times)
    layers = per_layer(tracer, traced, untraced) if tracer else {}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "items": [{"id": i.id, "field": i.field, "r": i.r, "n": i.n, "L": i.size}
                  for f in FIELDS for i in corpus[f]],
        "setup_s": setup_times,
        "samples": [s.__dict__ for s in samples],
        "end_to_end": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in e2e.items()},
        "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in layers.items()},
    }
    with open(RESULTS / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if tracer:
        tracer.write(RESULTS / f"{stem}-spans.txt.gz")

    print(f"workload {args.workload}  seed {args.seed}  python {record['python']}  "
          f"nproc {record['nproc']}  items qq={len(corpus['qq'])} gf={len(corpus['gf'])}")
    for i in record["items"]:
        print(f"  item {i['id']:<22} r={i['r']:<3} n={i['n']:<3} |L|={i['L']}")
    for s in failed[:10]:
        print(f"  FAILED {s.item} pass {s.pass_no}: {s.reason}")
    error_rate = len(failed) / len(samples)
    for k, (v, u, n) in e2e.items():
        print(f"  {k:<22} {v:12.6g} {u:<9} samples={n}")
    print(f"  {'error_rate':<22} {error_rate:12.6g} {'fraction':<9} samples={len(samples)}")
    for k, (v, u) in layers.items():
        print(f"  {k:<46} {v:14.6g} {u}")
    metrics = e2e if not args.trace else layers
    print(json.dumps({
        "correct": not failed,
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
