"""Command line behaviour: formats, round trips, exit codes."""

import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

import monres
from monres.chains import format_face
from monres.cli import main
from monres.resolutions import scarf_complex

from conftest import IDEALS, LATTICES


@pytest.fixture
def ideal_file(tmp_path):
    def write(name):
        p = tmp_path / f"{name}.ideal"
        p.write_text(IDEALS[name] + "\n")
        return str(p)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_lattice_text_and_json(capsys, ideal_file):
    path = ideal_file("cone3")
    code, out = run(capsys, "lattice", path)
    assert code == 0
    assert "A={1,2,3}" in out.replace(" ", "")
    code, out = run(capsys, "--json", "lattice", path)
    doc = json.loads(out)
    assert {tuple(e["A"]) for e in doc["elements"]} == {
        (), (1,), (2,), (3,), (1, 2), (1, 2, 3)}


def test_betti_totals(capsys, ideal_file):
    code, out = run(capsys, "betti", ideal_file("hexagon"))
    assert code == 0
    assert out.strip().splitlines()[-1] == "totals: 1 6 9 6 2"


def test_resolve_verify_roundtrip(capsys, ideal_file, tmp_path):
    code, out = run(capsys, "--json", "resolve", ideal_file("four_gens"))
    assert code == 0
    dump = tmp_path / "res.json"
    dump.write_text(out)
    code, report = run(capsys, "verify", str(dump))
    assert code == 0
    assert "resolution: PASS" in report
    # byte-equal frames after re-emitting
    doc1 = json.loads(out)
    from monres.resolutions import MultigradedComplex

    doc2 = json.loads(MultigradedComplex.from_json(out).to_json())
    assert doc1["frames"] == doc2["frames"]


@pytest.mark.parametrize("command", ["taylor", "minimize", "resolve"])
@pytest.mark.parametrize("name", sorted(IDEALS))
def test_own_dumps_verify(capsys, ideal_file, tmp_path, command, name):
    # every basis multidegree of the program's own resolutions lies in the lcm-lattice
    code, out = run(capsys, "--json", command, ideal_file(name))
    assert code == 0
    dump = tmp_path / "res.json"
    dump.write_text(out)
    code, report = run(capsys, "verify", str(dump))
    assert code == 0 and report.endswith("resolution: PASS\n")


@pytest.mark.parametrize("doc, mdeg", [
    # exact below x, the one element of L above 1, yet S(-x^2) lies in the kernel
    ({"char": 0, "vars": ["x"], "gens": ["x"], "levels": [[{"mdeg": "1"}], [{"mdeg": "x"}, {"mdeg": "x^2"}]],
      "frames": [[["1", "0"]]]}, "x^2"),
    # exact below x, yet H_1 = S/(x)(-y)
    ({"char": 0, "vars": ["x", "y"], "gens": ["x"],
      "levels": [[{"mdeg": "1"}], [{"mdeg": "x"}, {"mdeg": "y"}], [{"mdeg": "x*y"}]],
      "frames": [[["1", "0"]], [["0"], ["1"]]]}, "y"),
], ids=["kernel", "homology"])
def test_basis_off_the_lattice_is_unverifiable(capsys, tmp_path, doc, mdeg):
    dump = tmp_path / "off.json"
    dump.write_text(json.dumps(doc))
    code, report = run(capsys, "verify", str(dump))
    skipped = f"basis multidegree {mdeg} is not an element of the lcm-lattice"
    assert code == 2
    assert f"restricted frames exact: skipped ({skipped})" in report.splitlines()
    assert report.endswith("resolution: FAIL\n")
    code, out = run(capsys, "--json", "verify", str(dump))
    doc = json.loads(out)
    assert code == 2 and doc["restriction_failure"] is None and doc["restriction_skipped"] == skipped


def test_verify_failure_exit_code(capsys, ideal_file, tmp_path):
    code, out = run(capsys, "--json", "resolve", ideal_file("triangle"))
    doc = json.loads(out)
    doc["frames"][1][0][0] = "0"  # break the top map
    dump = tmp_path / "broken.json"
    dump.write_text(json.dumps(doc))
    code, report = run(capsys, "verify", str(dump))
    assert code == 2
    assert "FAIL" in report


def test_poset_rlm_commands(capsys, ideal_file, tmp_path):
    code, out = run(capsys, "poset", ideal_file("cone3"))
    assert code == 2  # not a resolution: verification exit code
    assert "complex=no" in out
    code, out = run(capsys, "rlm", ideal_file("cone3b"))
    assert code == 0
    assert "resolution=yes" in out
    choices = tmp_path / "choices.json"
    choices.write_text(json.dumps({
        "bases": [{"A": [1, 2, 3], "dim": 0, "chains": ["-1+3"]}],
        "preimages": [{"A": [1, 2, 3], "dim": 0, "j": 0, "chain": "-2+3"}],
    }))
    code, out = run(capsys, "rlm", ideal_file("cone3b"), "--choices", str(choices))
    assert code == 0 and "-b^2" in out


@pytest.mark.parametrize("char", ["0", "2"])
@pytest.mark.parametrize("name", sorted(IDEALS) + sorted(LATTICES))
def test_construction_json_scalar_matrices_are_the_frames(capsys, ideal_file, tmp_path, name, char):
    # the scalar maps of poset/rlm are the homogenized complex's frames
    if name in IDEALS:
        path = ideal_file(name)
    else:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"elements": [{"A": list(a)} for a in LATTICES[name]]}))
    for cmd in ("poset", "rlm"):
        code, out = run(capsys, "--char", char, "--json", cmd, str(path))
        doc = json.loads(out)
        assert code in (0, 2) and doc["scalar_matrices"] == doc["frames"]


def test_classify_json(capsys, ideal_file):
    code, out = run(capsys, "--json", "classify", ideal_file("rigid4"))
    doc = json.loads(out)
    assert doc["rigid"]["verdict"] == "yes"
    assert doc["betti_linear"]["verdict"] == "yes"
    assert doc["scarf"]["verdict"] == "no"


def test_scarf_json(capsys, ideal_file, lattices):
    path = ideal_file("four_gens")
    code, out = run(capsys, "--json", "scarf", path)
    assert code == 0
    faces = json.loads(out)["faces"]
    assert faces == [list(f) for f in scarf_complex(lattices["four_gens"])]
    assert run(capsys, "scarf", path)[1] == " ".join(format_face(tuple(f)) for f in faces) + "\n"


def test_scarf_command(capsys, ideal_file):
    code, out = run(capsys, "scarf", ideal_file("triangle"))
    assert code == 0
    assert out.split() == ["{}", "1", "2", "3"]


def test_minimize_and_taylor(capsys, ideal_file):
    code, out = run(capsys, "taylor", ideal_file("triangle"))
    assert code == 0 and "degree 3" in out
    code, out = run(capsys, "minimize", ideal_file("triangle"))
    assert code == 0 and "degree 3" not in out and "taylor basis" in out


def test_approx_command(capsys, ideal_file):
    code, out = run(capsys, "approx", ideal_file("four_gens"))
    assert code == 0
    assert "complex: no" in out


def test_random_reproducible(capsys):
    _, out1 = run(capsys, "random", "--r", "4", "--n", "3", "--maxdeg", "3",
                  "--seed", "11", "--count", "3")
    _, out2 = run(capsys, "random", "--r", "4", "--n", "3", "--maxdeg", "3",
                  "--seed", "11", "--count", "3")
    assert out1 == out2
    _, out3 = run(capsys, "random", "--r", "4", "--n", "3", "--maxdeg", "3",
                  "--seed", "12", "--count", "3")
    assert out1 != out3


@pytest.mark.parametrize("kind, reason", [
    ("missing", "No such file or directory"),
    ("directory", "Is a directory"),
    ("not-utf8", "is not UTF-8 text: 'utf-8' codec can't decode"),
])
def test_unreadable_input_is_parse_error(capsys, tmp_path, kind, reason):
    path = tmp_path / "input.ideal"
    if kind == "directory":
        path.mkdir()
    elif kind == "not-utf8":
        path.write_bytes("vars x; gens x\u00e9".encode("latin-1"))
    assert main(["betti", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("parse error: ") and str(path) in err and reason in err


@pytest.mark.parametrize("argv", [["--r", "3", "--n", "0"], ["--r", "2", "--n", "2", "--maxdeg", "0"],
                                  ["--r", "2", "--n", "-1"]])
def test_random_rejects_empty_grids(capsys, argv):
    assert main(["random", *argv]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: could not build an antichain") and "at least 1" in err


@pytest.mark.parametrize("count", ["0", "-1"])
def test_random_rejects_empty_count(capsys, count):
    assert main(["random", "--r", "2", "--n", "2", "--count", count]) == 4
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: --count must be at least 1, got {count}\n"


def test_parse_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.ideal"
    bad.write_text("vars x; gens y*z")
    assert main(["lattice", str(bad)]) == 3


@pytest.mark.parametrize("text, message", [
    ("vars x y x; gens x*y y^2", "line 1: duplicate variable 'x'"),
    ("vars x y x\ngens x*y y^2", "line 1: duplicate variable 'x'"),
    ("vars x y; gens x y; char 2; char 3;", "line 1: duplicate char statement"),
    ("vars x y; vars y x; gens x y", "line 1: duplicate vars statement"),
    ("vars x y\ngens x y\ngens x", "line 3: duplicate gens statement"),
    ("vars x y; gens x x", "line 1: duplicate generator x"),
    ("vars x y\ngens x*y x^2 y x*y", "line 2: duplicate generator x*y"),
])
def test_repeated_declaration_is_parse_error(capsys, tmp_path, text, message):
    bad = tmp_path / "bad.ideal"
    bad.write_text(text)
    assert main(["betti", str(bad)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == f"parse error: {message}\n"


@pytest.mark.parametrize("text, message", [
    ("vars x y; gens x y; char x", "line 1: char expects one integer"),
    ("vars x y; char 2", "missing gens statement"),
    ("vars x y\ngens\n", "line 2: empty generator list"),
])
def test_malformed_statement_is_parse_error(capsys, tmp_path, text, message):
    bad = tmp_path / "bad.ideal"
    bad.write_text(text)
    assert main(["betti", str(bad)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == f"parse error: {message}\n"


def test_stdin_input(capsys, ideal_file, monkeypatch):
    want = run(capsys, "betti", ideal_file("four_gens"))
    monkeypatch.setattr(sys, "stdin", io.StringIO(IDEALS["four_gens"]))
    assert run(capsys, "betti", "-") == want


def test_precondition_exit_code(capsys, tmp_path):
    bad = tmp_path / "nonmin.ideal"
    bad.write_text("vars x y; gens x x*y")
    assert main(["lattice", str(bad)]) == 3  # rejected at parse time
    ok = main(["--minimize-gens", "lattice", str(bad)])
    assert ok == 0


def test_char_flag_and_env(capsys, ideal_file, monkeypatch):
    path = ideal_file("triangle")
    code, out = run(capsys, "--char", "2", "betti", path)
    assert code == 0 and out.strip().splitlines()[-1] == "totals: 1 3 2"
    monkeypatch.setenv("MONRES_FIELD", "3")
    code, out = run(capsys, "betti", path)
    assert code == 0
    monkeypatch.delenv("MONRES_FIELD")
    code, _ = run(capsys, "--char", "4", "betti", path)
    assert code == 4  # not a prime


def test_char_statement_in_file(capsys, tmp_path, monkeypatch):
    path = tmp_path / "char2.ideal"
    path.write_text("vars x y z; gens x*y x*z y*z; char 2;\n")

    def char_used(*flags):
        code, out = run(capsys, *flags, "--json", "taylor", str(path))
        assert code == 0
        return json.loads(out)["char"]

    monkeypatch.delenv("MONRES_FIELD", raising=False)
    assert char_used() == 2
    assert char_used("--char", "3") == 3
    assert char_used("--char", "0") == 0
    monkeypatch.setenv("MONRES_FIELD", "5")
    assert char_used() == 2
    assert char_used("--char", "3") == 3


@pytest.mark.parametrize("text, line, char", [
    ("vars x y; gens x y; char 4;", 1, 4),
    ("vars x y\ngens x y\n# 2^31 is no prime, and too big\nchar 2147483648", 4, 2147483648),
])
@pytest.mark.parametrize("flags", [[], ["--char", "3"], ["--char", "0"]])
def test_bad_char_statement_is_parse_error_at_its_line(capsys, tmp_path, monkeypatch, text, line, char, flags):
    # the statement is checked where it is parsed, whichever field the flags pick
    path = tmp_path / "bad.ideal"
    path.write_text(text)
    monkeypatch.setenv("MONRES_FIELD", "5")
    assert main([*flags, "betti", str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == f"parse error: line {line}: characteristic must be 0 or a prime < 2^31, got {char}\n"


def test_char_statement_takes_any_valid_characteristic(capsys, tmp_path, monkeypatch):
    monkeypatch.delenv("MONRES_FIELD", raising=False)
    path = tmp_path / "ok.ideal"
    for p in (0, 2, 2147483647):
        path.write_text(f"vars x y z; gens x*y x*z y*z; char {p};")
        code, out = run(capsys, "--json", "taylor", str(path))
        assert code == 0 and json.loads(out)["char"] == p


def test_verify_bad_number_is_parse_error(capsys, ideal_file, tmp_path):
    code, out = run(capsys, "--json", "resolve", ideal_file("triangle"))
    assert code == 0
    dump = tmp_path / "bad.json"
    for char, entry in ((0, "1/0"), (32003, "1/32003")):
        doc = json.loads(out)
        doc["char"] = char
        doc["frames"][0][0][0] = entry
        dump.write_text(json.dumps(doc))
        assert main(["verify", str(dump)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("parse error:") and entry in err


def test_lattice_json_input(capsys, ideal_file, tmp_path):
    code, out = run(capsys, "--json", "lattice", ideal_file("cone3"))
    lat_file = tmp_path / "lat.json"
    lat_file.write_text(out)
    code, out2 = run(capsys, "classify", str(lat_file))
    assert code == 0 and "nearly_hm" in out2
    # abstract lattice: labels only
    doc = {"elements": [{"A": list(a)} for a in
                        [(), (1,), (2,), (3,), (1, 2), (1, 2, 3)]]}
    abstract = tmp_path / "abstract.json"
    abstract.write_text(json.dumps(doc))
    code, out3 = run(capsys, "betti", str(abstract))
    assert code == 0
    assert out3.strip().splitlines()[-1] == "totals: 1 3 2"


@pytest.mark.parametrize("ideal", [{}, {"vars": ["x", "y"], "gens": ["x", "y"]}], ids=["labels", "ideal"])
@pytest.mark.parametrize("elements, message", [
    pytest.param([[], [1, 1]], "elements[1]: label [1, 1] repeats a generator", id="repeated-index"),
    pytest.param([[], [1], [1]], "elements[2]: label [1] is listed twice", id="repeated-label"),
])
def test_lattice_json_lists_each_element_once(capsys, tmp_path, ideal, elements, message):
    if ideal:
        elements = elements + [[2], [1, 2]]
    dump = tmp_path / "lattice.json"
    dump.write_text(json.dumps({**ideal, "elements": [{"A": A} for A in elements]}))
    assert main(["lattice", str(dump)]) == 4
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: the lattice JSON: {message}\n"


def test_lattice_json_with_a_repeated_variable_is_rejected(capsys, tmp_path):
    # the ideal itself refuses two variables of one name, on every input path;
    # a dump naming an ideal that cannot be built is malformed input
    elements = [{"A": []}, {"A": [1]}, {"A": [2]}, {"A": [1, 2]}]
    for vars_, gens, message in [(["x", "y", "x"], ["x*y", "y^2"], "duplicate variable 'x'"),
                                 (["x", "y"], ["x", "x*y"], "non-minimal generators: x divides x*y"),
                                 (["x", "y"], ["y", "y"], "duplicate generator y")]:
        dump = tmp_path / "bad.json"
        dump.write_text(json.dumps({"vars": vars_, "gens": gens, "elements": elements}))
        assert main(["betti", str(dump)]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err == f"parse error: the lattice JSON: {message}\n"


@pytest.mark.parametrize("doc, message", [
    pytest.param({"elements": [[], [1], [3], [1, 3]]}, "atoms must be numbered 1..r", id="atoms-not-1..r"),
    pytest.param({"elements": [[1], [2], [1, 2]]}, "labels must include bottom, atoms and top; missing [[]]",
                 id="no-bottom"),
    pytest.param({"elements": [[], [1], [1, 2]]}, "labels must include bottom, atoms and top; missing [[2]]",
                 id="no-atom"),
    pytest.param({"elements": [[], [1], [2], [3], [1, 2]]},
                 "labels must include bottom, atoms and top; missing [[1, 2, 3]]", id="no-top"),
    pytest.param({"elements": [[]]}, "an ideal needs at least one generator", id="no-generator"),
    pytest.param({"elements": [[]] + [[i] for i in range(1, 65)] + [list(range(1, 65))]},
                 "at most 63 atoms supported", id="64-atoms"),
    pytest.param({"vars": ["x", "y"], "gens": ["x", "y"], "elements": [[], [1], [2]]},
                 "element list does not match the lattice of the given ideal", id="not-the-ideals-lattice"),
])
def test_lattice_json_naming_no_lattice_is_precondition(capsys, tmp_path, doc, message):
    dump = tmp_path / "lattice.json"
    dump.write_text(json.dumps({**doc, "elements": [{"A": A} for A in doc["elements"]]}))
    assert main(["betti", str(dump)]) == 4
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"


def test_more_generators_than_the_lattice_supports_is_precondition(capsys, tmp_path):
    ideal = tmp_path / "staircase.ideal"
    ideal.write_text("vars x y; gens " + " ".join(f"x^{i}*y^{63 - i}" for i in range(64)))
    assert main(["betti", str(ideal)]) == 4
    out, err = capsys.readouterr()
    assert out == "" and err == "error: at most 63 generators supported\n"


@pytest.mark.parametrize("kind", ["lattice", "verify", "choices"])
@pytest.mark.parametrize("text, message", [
    pytest.param('{"elements": ' + "[" * 100000, "maximum recursion depth exceeded", id="nested"),
    pytest.param('{"elements": [', "Expecting value: line 1 column 15 (char 14)", id="truncated"),
])
def test_undecodable_json_is_parse_error(capsys, ideal_file, tmp_path, kind, text, message):
    path = tmp_path / "input.json"
    path.write_text(text)
    argv = {"lattice": ["lattice", str(path)], "verify": ["verify", str(path)],
            "choices": ["rlm", ideal_file("cone3b"), "--choices", str(path)]}[kind]
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"parse error: {message}")


def test_bound_command(capsys, ideal_file):
    code, out = run(capsys, "bound", ideal_file("triangle"))
    assert code == 0 and out.strip() == "2"


@pytest.mark.parametrize("choices", [
    {"bases": [{"A": [1, 2, 3], "dim": 0, "chains": ["1/0*1+3"]}]},
    {"bases": [{"A": [1, 2, 3], "dim": 0, "chains": ["1+"]}]},
    {"preimages": [{"A": [1, 2, 3], "dim": 0, "j": 0, "chain": "x"}]},
    {"bases": [{"A": [1, 2, 3], "dim": 0, "chains": [13]}]},
    [1, 2],
    {"bases": [1]},
    {"bases": {"A": [1, 2, 3]}},
    {"bases": [{"A": [1, 2, 3], "chains": ["-1+3"]}]},
    {"bases": [{"dim": 0, "chains": ["-1+3"]}]},
    {"bases": [{"A": [1, 2, 3], "dim": 0}]},
    {"bases": [{"A": [1, 2, 3], "dim": 0, "chains": 13}]},
    {"bases": [{"A": 5, "dim": 0, "chains": ["-1+3"]}]},
    {"bases": [{"A": [[1]], "dim": 0, "chains": ["-1+3"]}]},
    {"bases": [{"A": [1, 2, 3], "dim": "0", "chains": ["-1+3"]}]},
    {"preimages": ["x"]},
    {"preimages": [{"A": [1, 2, 3], "dim": 0, "j": 0}]},
    {"preimages": [{"A": [1, 2, 3], "dim": 0, "j": [0], "chain": "-2+3"}]},
    {"bases": [{"A": [1, 2, 3], "dim": 0, "chains": ["1e5*12"]}]},
    {"preimages": [{"A": [1, 2, 3], "dim": 0, "j": 0, "chain": "0.5*12"}]},
    {"preimages": [{"A": [1, 2, 3], "dim": 0, "j": 0, "chain": "0"}]},
    {"bases": [{"A": [1, 2, 3], "dim": 0, "chains": ["1-1"]}]},
])
def test_malformed_choices_chain_is_parse_error(capsys, ideal_file, tmp_path, choices):
    path = tmp_path / "choices.json"
    path.write_text(json.dumps(choices))
    assert main(["rlm", ideal_file("cone3b"), "--choices", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("parse error:") and "Traceback" not in err


@pytest.mark.parametrize("command, choices", [
    ("poset", {"bases": [{"A": [1, 2, 3], "dim": 0, "chains": ["3"]}]}),
    ("rlm", {"preimages": [{"A": [1, 2, 3], "dim": 0, "j": 0, "chain": "3"}]}),
])
def test_choices_non_cycle_is_precondition(capsys, ideal_file, tmp_path, command, choices):
    # the vertex 3 lies in Delta at the top of cone3b and in the preimage's
    # subcomplex, but its boundary is the empty face
    path = tmp_path / "choices.json"
    path.write_text(json.dumps(choices))
    assert main([command, ideal_file("cone3b"), "--choices", str(path)]) == 4
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and err.endswith(": not a cycle\n")


@pytest.mark.parametrize("entry, message", [
    ({"A": [1], "dim": -1, "chains": ["{}"]}, "the homology basis at dimension -1 is pinned to the empty chain"),
    ({"A": [1, 2, 3], "dim": 0, "chains": ["-1+3", "-2+3"]}, "expected 1 classes in dimension 0"),
    ({"A": [1, 2, 3], "dim": 0, "chains": ["-1+2"]}, "given classes are dependent in homology"),
])
def test_choices_basis_that_is_no_basis_is_precondition(capsys, ideal_file, tmp_path, entry, message):
    # on cone3b, Delta at the top is the edge 12 and the vertex 3: one class, of -1+3
    path = tmp_path / "choices.json"
    path.write_text(json.dumps({"bases": [entry]}))
    assert main(["poset", ideal_file("cone3b"), "--choices", str(path)]) == 4
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.endswith(f"{message}\n")


@pytest.mark.parametrize("choices, vertex", [
    ({"preimages": [{"A": [1, 2, 3], "dim": 0, "j": 0, "chain": "12"}]}, 12),
    ({"preimages": [{"A": [1, 2, 3], "dim": 0, "j": 0, "chain": "-0+3"}]}, 0),
    ({"bases": [{"A": [1, 2, 3], "dim": 0, "chains": ["-1+12"]}]}, 12),
    ({"bases": [{"A": [1, 2, 3], "dim": 0, "chains": ["-0+3"]}]}, 0),
])
def test_choices_vertex_outside_the_generators_is_parse_error(capsys, ideal_file, tmp_path, choices, vertex):
    # cone3b has the generators 1..3
    path = tmp_path / "choices.json"
    path.write_text(json.dumps(choices))
    assert main(["rlm", ideal_file("cone3b"), "--choices", str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("parse error:") and f"vertex {vertex} is not a generator 1..3" in err


def test_choices_label_outside_lattice_is_precondition(capsys, ideal_file, tmp_path):
    path = tmp_path / "choices.json"
    path.write_text(json.dumps({"bases": [{"A": [2, 3], "dim": 0, "chains": ["-2+3"]}]}))
    assert main(["rlm", ideal_file("cone3b"), "--choices", str(path)]) == 4
    assert capsys.readouterr().err.startswith("error:")


def test_choices_label_outside_lattice_is_named_unquoted(capsys, ideal_file, tmp_path):
    path = tmp_path / "choices.json"
    # lcm(a*c, b^2*c) is divisible by a*b: {2, 3} closes to the top
    path.write_text(json.dumps({"preimages": [{"A": [3, 2], "dim": 0, "chain": "-2+3"}]}))
    assert main(["rlm", ideal_file("cone3b"), "--choices", str(path)]) == 4
    assert capsys.readouterr().err == "error: no lattice element with label [2, 3]\n"


def test_monres_field_that_is_no_integer_is_named(capsys, ideal_file, monkeypatch):
    monkeypatch.setenv("MONRES_FIELD", "abc")
    assert main(["betti", ideal_file("triangle")]) == 4
    out, err = capsys.readouterr()
    assert out == "" and err == "error: MONRES_FIELD='abc' is not an integer characteristic\n"


def _complex_doc(capsys, ideal_file):
    code, out = run(capsys, "--json", "resolve", ideal_file("triangle"))
    assert code == 0
    return json.loads(out)


@pytest.mark.parametrize("vars_, gens, message", [
    (["x", "y", "x"], ["x*y", "y^2"], "duplicate variable 'x'"),
    (["x", "y"], ["x", "x*y"], "non-minimal generators: x divides x*y"),
    (["x", "y"], ["x", "z"], "gens[1]: undeclared variable 'z'"),
    (["x", "y"], ["x*y", "x*y"], "duplicate generator x*y"),
])
def test_complex_dump_naming_no_ideal_is_parse_error(capsys, ideal_file, tmp_path, vars_, gens, message):
    # as for a lattice dump: a resolution dump whose ideal cannot be built is malformed input
    dump = tmp_path / "bad.json"
    dump.write_text(json.dumps({**_complex_doc(capsys, ideal_file), "vars": vars_, "gens": gens}))
    assert main(["verify", str(dump)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == f"parse error: the complex JSON: {message}\n"


@pytest.mark.parametrize("key, breakage", [
    pytest.param("frames", lambda d: {**d, "frames": d["frames"] + [[]]}, id="extra-frame"),
    pytest.param("frames", lambda d: {**d, "frames": d["frames"][:-1]}, id="missing-frame"),
    pytest.param("frames", lambda d: {**d, "frames": [[r[:-1] for r in d["frames"][0]]] + d["frames"][1:]},
                 id="short-row"),
    pytest.param("frames", lambda d: {**d, "frames": d["frames"][:1] + [d["frames"][1][:-1]]},
                 id="missing-row"),
    pytest.param("frames", lambda d: {**d, "frames": [[]] + d["frames"][1:]}, id="emptied-frame"),
    pytest.param("frames", lambda d: {**d, "frames": ["1"] + d["frames"][1:]}, id="frame-not-list"),
    pytest.param("frames", lambda d: {**d, "frames": [["1"]] + d["frames"][1:]}, id="row-not-list"),
    pytest.param("object", lambda d: [d], id="top-not-object"),
    pytest.param("vars", lambda d: {k: v for k, v in d.items() if k != "vars"}, id="no-vars"),
    pytest.param("gens", lambda d: {**d, "gens": "x*y"}, id="gens-not-list"),
    pytest.param("levels", lambda d: {**d, "levels": 3}, id="levels-not-list"),
    pytest.param("levels[0][0]", lambda d: {**d, "levels": [[5]] + d["levels"][1:]}, id="entry-not-object"),
    pytest.param("mdeg", lambda d: {**d, "levels": [[{"label": "1"}]] + d["levels"][1:]}, id="no-mdeg"),
    pytest.param("char", lambda d: {**d, "char": "2"}, id="char-not-int"),
    *(pytest.param(f"the complex JSON: characteristic must be 0 or a prime < 2^31, got {p}",
                   lambda d, p=p: {**d, "char": p}, id=f"char-{p}") for p in (4, 9, -3, 2147483648)),
    pytest.param("the complex JSON: levels[1][2]: bad monomial factor ''",
                 lambda d: {**d, "levels": [d["levels"][0], d["levels"][1][:2] + [{"mdeg": "x**y"}]]
                            + d["levels"][2:]}, id="mdeg-not-a-monomial"),
])
def test_malformed_complex_dump_is_parse_error(capsys, ideal_file, tmp_path, key, breakage):
    dump = tmp_path / "broken.json"
    dump.write_text(json.dumps(breakage(_complex_doc(capsys, ideal_file))))
    assert main(["verify", str(dump)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("parse error:") and key in err and "Traceback" not in err


def test_complex_dump_takes_a_valid_characteristic(capsys, ideal_file, tmp_path):
    dump = tmp_path / "ok.json"
    for p in (0, 32003):
        dump.write_text(json.dumps({**_complex_doc(capsys, ideal_file), "char": p}))
        code, out = run(capsys, "verify", str(dump))
        assert code == 0 and "PASS" in out


@pytest.mark.parametrize("kind, key", [("lattice", "'A'"), ("complex", "'char'"),
                                       ("bases", "'dim'"), ("preimages", "'j'")])
def test_json_boolean_is_not_an_int(capsys, ideal_file, tmp_path, kind, key):
    # bool subclasses int in Python, but true/false is a value of the wrong type
    path = tmp_path / "doc.json"
    if kind == "lattice":
        doc, argv = {"elements": [{"A": []}, {"A": [True]}]}, ["betti"]
    elif kind == "complex":
        doc, argv = {**_complex_doc(capsys, ideal_file), "char": False}, ["verify"]
    else:
        entry = {"A": [1, 2, 3], "dim": 0, "chains": ["-1+3"], "j": 0, "chain": "-2+3"}
        doc = {kind: [{**entry, key.strip("'"): True}]}
        argv = ["rlm", ideal_file("cone3b"), "--choices"]
    path.write_text(json.dumps(doc))
    assert main([*argv, str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("parse error:") and f"{key} is" in err


@pytest.mark.parametrize("entry, message", [
    (True, "true is not an int or a string"),
    (0.1, "0.1 is not an int or a string"),
    (1.0, "1.0 is not an int or a string"),
    ("1/0", "'1/0' is not an element of QQ"),
    # an exact number is an int or a/b in ASCII digits: no exponent, no decimal point, no space
    ("1e10000000", "'1e10000000' is not an element of QQ"),
    ("0.5", "'0.5' is not an element of QQ"),
    (" 3", "' 3' is not an element of QQ"),
])
def test_frame_entry_of_the_wrong_type_is_parse_error(capsys, ideal_file, tmp_path, entry, message):
    # frame entries are ints or exact strings: true is not 1, and 0.1 is not a binary fraction
    doc = _complex_doc(capsys, ideal_file)
    doc["frames"][0][0][0] = entry
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == f"parse error: frame entry {message}\n"


@pytest.mark.parametrize("key, doc", [
    ("elements", {"elements": 5}),
    ("elements", {"vars": ["x"], "gens": ["x"]}),
    ("A", {"elements": [{"A": [[1]]}]}),
    ("A", {"elements": [{"A": "12"}]}),
    ("A", {"elements": [{}]}),
    ("elements[0]", {"elements": [5]}),
    ("vars", {"vars": "x", "gens": ["x"], "elements": [{"A": []}, {"A": [1]}]}),
])
def test_malformed_lattice_dump_is_parse_error(capsys, tmp_path, key, doc):
    dump = tmp_path / "lattice.json"
    dump.write_text(json.dumps(doc))
    assert main(["betti", str(dump)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("parse error:") and key in err and "Traceback" not in err


@pytest.mark.parametrize("entry", [
    {"A": [1], "dim": -1, "chain": "{}"},
    {"A": [1, 2, 3], "dim": 1, "chain": "12"},
    {"A": [1, 2, 3], "dim": 0, "j": 1, "chain": "-2+3"},
])
def test_choices_preimage_without_column_is_precondition(capsys, ideal_file, tmp_path, entry):
    path = tmp_path / "choices.json"
    path.write_text(json.dumps({"preimages": [entry]}))
    assert main(["rlm", ideal_file("cone3b"), "--choices", str(path)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: preimage at") and "names no construction column" in err


def test_choices_read_a_vertex_above_9(capsys, tmp_path):
    # `format_chain` writes the vertex {10} bare, `10`; dim 0 reads it as one vertex, not the face {0, 1}
    ideal = tmp_path / "ten.ideal"
    ideal.write_text("vars a b c d e f g h i j k; gens a*k b*k c d e f g h i j\n")
    path = tmp_path / "choices.json"
    path.write_text(json.dumps({"bases": [{"A": [1, 10], "dim": 0, "chains": ["-1+10"]}]}))
    code, out = run(capsys, "poset", str(ideal), "--choices", str(path))
    assert code == 0 and out.endswith("minimal=yes\n")


def test_python_dash_m_runs_the_cli(capsys):
    src = str(pathlib.Path(monres.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = ["random", "--r", "3", "--n", "2"]
    done = subprocess.run([sys.executable, "-m", "monres", *argv], capture_output=True, text=True, env=env,
                          timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (*run(capsys, *argv), "")


@pytest.mark.parametrize("given, missing", [("vars", "gens"), ("gens", "vars")])
def test_lattice_json_with_half_an_ideal_names_the_missing_key(capsys, tmp_path, given, missing):
    # without the other key the dump would silently fall back to its labels
    elements = [{"A": []}, {"A": [1]}, {"A": [2]}, {"A": [1, 2]}]
    dump = tmp_path / "lattice.json"
    dump.write_text(json.dumps({"elements": elements, given: ["x", "y"]}))
    assert main(["betti", str(dump)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == f"parse error: the lattice JSON: {missing!r} is missing or not a list of str\n"


@pytest.mark.parametrize("choices, message", [
    pytest.param({"bases": [{"A": [1, 2, 3], "dim": 0, "chains": ["-1+3"]},
                            {"A": [3, 2, 1], "dim": 0, "chains": ["-1+2"]}]},
                 "bases entries 0 and 1 in the choices file both name A [1, 2, 3], dim 0", id="basis"),
    pytest.param({"bases": [{"A": [1, 2, 3], "dim": 0, "chains": ["-1+2"]},
                            {"A": [1, 2, 3], "dim": 0, "chains": ["-1+3"]}]},
                 "bases entries 0 and 1 in the choices file both name A [1, 2, 3], dim 0", id="basis-reversed"),
    pytest.param({"preimages": [{"A": [1, 2, 3], "dim": 0, "j": 0, "chain": "-1+3"},
                                {"A": [1, 2], "dim": 0, "chain": "-1+2"},
                                {"A": [2, 1, 3], "dim": 0, "chain": "-2+3"}]},
                 "preimages entries 0 and 2 in the choices file both name A [1, 2, 3], dim 0, j 0", id="preimage"),
])
def test_choices_entry_given_twice_is_parse_error(capsys, ideal_file, tmp_path, choices, message):
    # either order of the two entries is refused, and neither is kept silently
    path = tmp_path / "choices.json"
    path.write_text(json.dumps(choices))
    assert main(["rlm", ideal_file("cone3b"), "--choices", str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == f"parse error: {message}\n"


def test_choices_entries_differing_in_dim_or_j_are_distinct(capsys, ideal_file, tmp_path):
    # one label may carry entries in two dimensions, or for two classes
    path = tmp_path / "choices.json"
    path.write_text(json.dumps({"preimages": [{"A": [1, 2, 3], "dim": 0, "chain": "-1+3"},
                                              {"A": [1, 2, 3], "dim": 0, "j": 1, "chain": "-2+3"}]}))
    assert main(["rlm", ideal_file("cone3b"), "--choices", str(path)]) == 4
    assert capsys.readouterr().err == "error: preimage at (5, 0, 1) names no construction column\n"
