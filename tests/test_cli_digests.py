"""Byte-identical CLI output: exit code and stdout digest of every command.

Each named ideal and label lattice of the conftest, and a few seeded
random ideals with fewer variables than generators, runs through the
commands below in QQ, GF(32003) and GF(2); the exit code and the sha256
of stdout must match `cli_digests.json`.  A change that is meant to alter
an output re-records the file with

    PYTHONPATH=src python3 tests/test_cli_digests.py
"""

import contextlib
import hashlib
import io
import json
import pathlib
import random
import tempfile

import pytest

from monres.cli import main
from monres.monomials import random_minimal_ideal

from conftest import IDEALS, LATTICES

COMMANDS = ("lattice", "betti", "--json betti", "taylor", "minimize", "resolve", "approx",
            "poset", "rlm", "classify", "scarf", "bound")
# (r, n, seed) of `random_minimal_ideal(r, n, 3, random.Random(seed))`: with n < r
# the nerve of Delta_m's facets is the smaller model at most elements
RANDOM = {"random_r7_n3_s1": (7, 3, 1), "random_r8_n4_s3": (8, 4, 3),
          "random_r9_n4_s4": (9, 4, 4), "random_r9_n3_s6": (9, 3, 6)}
INPUTS = [*IDEALS, *LATTICES, *RANDOM]
CHARS = (0, 32003, 2)
RECORD = pathlib.Path(__file__).with_name("cli_digests.json")


def write_input(name, directory):
    """The input file of a conftest ideal or label lattice; returns its path."""
    path = pathlib.Path(directory) / name
    if name in IDEALS:
        path.write_text(IDEALS[name] + "\n")
    elif name in RANDOM:
        r, n, seed = RANDOM[name]
        path.write_text(random_minimal_ideal(r, n, 3, random.Random(seed)).to_text() + "\n")
    else:
        path.write_text(json.dumps({"elements": [{"A": list(A)} for A in LATTICES[name]]}))
    return str(path)


def digests(name, directory):
    """{"<command> --char <p>": "<exit code> <sha256 of stdout>"} for one input."""
    path = write_input(name, directory)
    out = {}
    for char in CHARS:
        for cmd in COMMANDS:
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                code = main(["--char", str(char), *cmd.split(), path])
            sha = hashlib.sha256(stdout.getvalue().encode()).hexdigest()
            out[f"{cmd} --char {char}"] = f"{code} {sha}"
    return out


@pytest.fixture(scope="module")
def recorded():
    return json.loads(RECORD.read_text())


@pytest.mark.parametrize("name", INPUTS)
def test_cli_output_matches_record(recorded, tmp_path, name):
    assert digests(name, tmp_path) == recorded[name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        doc = {name: digests(name, tmp) for name in INPUTS}
    RECORD.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
