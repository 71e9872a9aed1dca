"""The benchmark's tracer finds every library entry point it names.

`bench/run.py` resolves the tracer's targets on every run, traced or
not, so a renamed or deleted target breaks every benchmark run.
"""

from pathlib import Path

import monres.cli  # loads every layer the targets live in

from conftest import IDEALS

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_targets_resolve(capsys, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer

    targets = tracer.resolve_targets()
    assert len(targets) == sum(len(names) for names in tracer.TARGETS.values())
    path = tmp_path / "triangle.ideal"
    path.write_text(IDEALS["triangle"] + "\n")
    original = tracer.bindings(targets)
    with tracer.Tracer() as t:
        assert monres.cli.main(["betti", str(path)]) == 0
    assert tracer.untraced(original)
    assert {"cli.main", "lattice.from_ideal", "lattice.betti_numbers"} <= {
        t.names[span[3]] for span in t.spans}
