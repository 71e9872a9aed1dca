"""Command line front-end.

Commands take an ideal file (``vars a b c; gens a^2 a*b ...``) or a
lattice JSON dump; ``--char``, else the file's ``char p;``, else
MONRES_FIELD picks the coefficient field, ``--json`` switches the output
format.  Exit codes: 0 success, 2 verification failure, 3 parse error,
4 precondition violation.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys

from monres.chains import format_face, parse_chain
from monres.classify import classify
from monres.lattice import LcmLattice
from monres.linalg import Field
from monres.monomials import (IdealParseError, json_document, json_object, parse_ideal_text,
                              random_minimal_ideal)
from monres.posetres import HomologyBasis, poset_construction, rlm_construction
from monres.resolutions import (MultigradedComplex, atomic_lattice_resolution,
                                maximal_approximation, minimize_resolution,
                                projdim_bound, scarf_complex, taylor_resolution,
                                verify_resolution)

EXIT_OK = 0
EXIT_VERIFY = 2
EXIT_PARSE = 3
EXIT_PRECONDITION = 4


def _read_input(path: str) -> str:
    """The text of `path` ('-' is stdin); an unreadable input is a parse error."""
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise IdealParseError(f"cannot read {path}: {e.strerror}") from e
    except UnicodeDecodeError as e:
        raise IdealParseError(f"{path} is not UTF-8 text: {e}") from e


def _load_lattice(path: str, minimize_gens: bool):
    """(lattice, the file's ``char`` statement or None)."""
    text = _read_input(path)
    if text.lstrip().startswith("{"):
        return LcmLattice.from_json(text), None
    ideal, char = parse_ideal_text(text, minimize=minimize_gens)
    return LcmLattice.from_ideal(ideal), char


def _field(args, char) -> Field:
    """``--char``, else the input's ``char`` statement, else MONRES_FIELD, else QQ."""
    if args.char is not None:
        return Field(args.char)
    if char is not None:
        return Field(char)
    env = os.environ.get("MONRES_FIELD")
    if env:
        try:
            char = int(env)
        except ValueError:
            raise ValueError(f"MONRES_FIELD={env!r} is not an integer characteristic") from None
        return Field(char)
    return Field(0)


def _print(text):
    sys.stdout.write(text + ("\n" if not text.endswith("\n") else ""))


def cmd_lattice(args):
    lat, _ = _load_lattice(args.input, args.minimize_gens)
    if args.json:
        _print(lat.to_json())
    else:
        names = lat.ideal.names
        for e in lat.elements:
            cov = ",".join(str(c) for c in sorted(e.covers))
            _print(f"{e.id}: mdeg={e.mdeg.to_str(names)} A={{{','.join(map(str, sorted(e.A)))}}} "
                   f"rank={e.rank} covers=[{cov}]")
    return EXIT_OK


def cmd_betti(args):
    lat, char = _load_lattice(args.input, args.minimize_gens)
    field = _field(args, char)
    table = lat.betti_numbers(field)
    names = lat.ideal.names
    totals: dict = {}
    for (i, m), n in table.items():
        totals[i] = totals.get(i, 0) + n
    if args.json:
        doc = {
            "entries": [
                {"i": i, "mdeg": lat.element(m).mdeg.to_str(names), "betti": n}
                for (i, m), n in sorted(table.items())
            ],
            "totals": [totals.get(i, 0) for i in range(max(totals) + 1)],
        }
        _print(json.dumps(doc, indent=2))
    else:
        for (i, m), n in sorted(table.items()):
            _print(f"b_{i},{lat.element(m).mdeg.to_str(names)} = {n}")
        _print("totals: " + " ".join(str(totals.get(i, 0)) for i in range(max(totals) + 1)))
    return EXIT_OK


def _emit_resolution(args, C, extra_text=""):
    if args.json:
        _print(C.to_json())
    else:
        _print(C.render_text())
        if extra_text:
            _print(extra_text)
    return EXIT_OK


def cmd_taylor(args):
    lat, char = _load_lattice(args.input, args.minimize_gens)
    field = _field(args, char)
    return _emit_resolution(args, taylor_resolution(lat.ideal, field))


def cmd_minimize(args):
    lat, char = _load_lattice(args.input, args.minimize_gens)
    field = _field(args, char)
    C, basis = minimize_resolution(taylor_resolution(lat.ideal, field), lat)
    return _emit_resolution(args, C, "taylor basis:\n" + basis.to_text())


def cmd_resolve(args):
    lat, char = _load_lattice(args.input, args.minimize_gens)
    field = _field(args, char)
    basis, C = atomic_lattice_resolution(lat, field)
    return _emit_resolution(args, C, "taylor basis:\n" + basis.to_text())


def cmd_approx(args):
    lat, char = _load_lattice(args.input, args.minimize_gens)
    field = _field(args, char)
    _, C = atomic_lattice_resolution(lat, field)
    A = maximal_approximation(C)
    code = _emit_resolution(args, A)
    if not args.json:
        _print(f"complex: {'yes' if A.is_complex() else 'no'}")
    return code


def _choice_chain(field, text, dim, r):
    """The chain `text` of dimension `dim` on the generators 1..r; a parse error otherwise."""
    try:
        chain = parse_chain(field, text, dim)
    except (ValueError, ZeroDivisionError) as e:
        raise IdealParseError(f"chain {text!r} in the choices file: {e}") from e
    bad = next((v for f in chain.faces() for v in f if not 1 <= v <= r), None)
    if bad is not None:
        raise IdealParseError(f"chain {text!r} in the choices file: vertex {bad} is not a generator 1..{r}")
    return chain


def _choice_entries(doc, key, fields, names):
    """The `key` list of a choices file: objects holding `fields` (see `json_object`),
    no two naming one label (as a set) with equal values at the keys `names`."""
    entries = doc.get(key, [])
    if not isinstance(entries, list):
        raise IdealParseError(f"{key!r} in the choices file is not a list")
    seen: dict = {}
    for k, entry in enumerate(entries):
        where = f"{key} entry {k} in the choices file"
        json_object(entry, {"A": (list, int), **fields}, where)
        if type(entry.get("j", 0)) is not int:
            raise IdealParseError(f"{where}: 'j' is not an int")
        values = [entry.get(n, 0) for n in names]
        first = seen.setdefault((frozenset(entry["A"]), *values), k)
        if first != k:
            named = ", ".join(f"{n} {v}" for n, v in zip(names, values))
            raise IdealParseError(f"{key} entries {first} and {k} in the choices file both name "
                                  f"A {sorted(set(entry['A']))}, {named}")
    return entries


def _load_choices(lat, field, path):
    """Explicit homology bases / preimages from a JSON file."""
    doc = json_document(_read_input(path), {}, "the choices file")
    bases = _choice_entries(doc, "bases", {"dim": int, "chains": (list, str)}, ("dim",))
    lifts = _choice_entries(doc, "preimages", {"dim": int, "chain": str}, ("dim", "j"))
    hb = HomologyBasis.canonical(lat, field)
    given = {}
    for entry in bases:
        m = lat.id_of_label(entry["A"])
        given[(m, entry["dim"])] = [_choice_chain(field, t, entry["dim"], lat.r) for t in entry["chains"]]
    if given:
        hb = hb.with_chains(given)
    preimages = {}
    for entry in lifts:
        m = lat.id_of_label(entry["A"])
        preimages[(m, entry["dim"], entry.get("j", 0))] = _choice_chain(field, entry["chain"], entry["dim"], lat.r)
    return hb, preimages


def _emit_construction(args, lat, out):
    verdict = {
        "complex": out.is_complex,
        "resolution": out.is_minimal_resolution(),
        "minimal": out.is_minimal_resolution(),
    }
    if args.json:
        doc = json.loads(out.homogenized.to_json())
        doc["scalar_matrices"] = doc["frames"]  # out.matrices are the homogenized frames
        doc["verdicts"] = verdict
        _print(json.dumps(doc, indent=2))
    else:
        names = lat.ideal.names
        for i in range(len(out.labels) - 1, 0, -1):
            mat = out.matrices[i]
            rows = "; ".join(" ".join(str(mat[r, c]) for c in range(mat.ncols))
                             for r in range(mat.nrows))
            _print(f"scalar map {i}: [{rows}]")
        _print(out.homogenized.render_text())
        _print("verdicts: " + " ".join(f"{k}={'yes' if v else 'no'}" for k, v in verdict.items()))
    return EXIT_OK if verdict["resolution"] else EXIT_VERIFY


def cmd_poset(args):
    lat, char = _load_lattice(args.input, args.minimize_gens)
    field = _field(args, char)
    hb, _ = _load_choices(lat, field, args.choices) if args.choices else (None, {})
    return _emit_construction(args, lat, poset_construction(lat, field, hb))


def cmd_rlm(args):
    lat, char = _load_lattice(args.input, args.minimize_gens)
    field = _field(args, char)
    hb, preimages = _load_choices(lat, field, args.choices) if args.choices else (None, {})
    return _emit_construction(args, lat, rlm_construction(lat, field, hb, preimages=preimages))


def cmd_classify(args):
    lat, char = _load_lattice(args.input, args.minimize_gens)
    field = _field(args, char)
    report = classify(lat, field)
    if args.json:
        doc = {name: {"verdict": v, "witness": w} for name, v, w in report.rows()}
        _print(json.dumps(doc, indent=2))
    else:
        _print(report.to_text())
    return EXIT_OK


def cmd_verify(args):
    C = MultigradedComplex.from_json(_read_input(args.input))
    lat = LcmLattice.from_ideal(C.ideal)
    report = verify_resolution(C, lat)
    if args.json:
        _print(json.dumps({
            "homogeneous": report.homogeneous,
            "complex": report.complex,
            "h0_ok": report.h0_ok,
            "restriction_failure": report.restriction_failure,
            "restriction_skipped": report.restriction_skipped,
            "resolution": report.is_resolution,
            "minimal": report.is_minimal,
        }, indent=2))
    else:
        _print(report.summary())
    return EXIT_OK if report.is_resolution else EXIT_VERIFY


def cmd_scarf(args):
    lat, _ = _load_lattice(args.input, args.minimize_gens)
    faces = scarf_complex(lat)
    if args.json:
        _print(json.dumps({"faces": [list(f) for f in faces]}))
    else:
        _print(" ".join(format_face(f) for f in faces))
    return EXIT_OK


def cmd_random(args):
    if args.count < 1:
        raise ValueError(f"--count must be at least 1, got {args.count}")
    rng = random.Random(args.seed)
    out = []
    for _ in range(args.count):
        ideal = random_minimal_ideal(args.r, args.n, args.maxdeg, rng)
        out.append(ideal.to_text())
    _print("\n".join(out))
    return EXIT_OK


def cmd_bound(args):
    lat, _ = _load_lattice(args.input, args.minimize_gens)
    _print(str(projdim_bound(lat)))
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monres",
        description="Minimal free resolutions of monomial ideals from their lcm-lattices.",
    )
    parser.add_argument("--char", type=int, default=None,
                        help="field characteristic (0 = rationals; default from MONRES_FIELD or 0)")
    parser.add_argument("--json", action="store_true", help="emit JSON instead of text")
    parser.add_argument("--minimize-gens", action="store_true",
                        help="drop redundant generators instead of rejecting them")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text, with_input=True):
        p = sub.add_parser(name, help=help_text)
        if with_input:
            p.add_argument("input", help="ideal file or lattice JSON ('-' for stdin)")
        p.set_defaults(fn=fn)
        return p

    add("lattice", cmd_lattice, "print the lcm-lattice")
    add("betti", cmd_betti, "multigraded Betti numbers (homology formula)")
    add("taylor", cmd_taylor, "the Taylor resolution")
    add("minimize", cmd_minimize, "minimize the Taylor resolution by consecutive cancellations")
    add("resolve", cmd_resolve, "the atomic lattice resolution (minimal)")
    add("approx", cmd_approx, "maximal approximation of the atomic resolution")
    p = add("poset", cmd_poset, "the poset construction D/F")
    p.add_argument("--choices", help="JSON file with explicit homology bases")
    p = add("rlm", cmd_rlm, "the homology-approximation construction R/G")
    p.add_argument("--choices", help="JSON file with explicit homology bases and preimages")
    add("classify", cmd_classify, "ideal class membership table")
    add("verify", cmd_verify, "verify a resolution JSON dump")
    add("scarf", cmd_scarf, "the Scarf complex")
    add("bound", cmd_bound, "projective dimension bound (lattice rank)")
    p = add("random", cmd_random, "emit reproducible random ideals", with_input=False)
    p.add_argument("--r", type=int, required=True, help="number of generators")
    p.add_argument("--n", type=int, required=True, help="number of variables")
    p.add_argument("--maxdeg", type=int, default=3, help="maximum exponent")
    p.add_argument("--seed", type=int, default=0, help="RNG seed")
    p.add_argument("--count", type=int, default=1, help="how many ideals")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except IdealParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except (ValueError, KeyError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
