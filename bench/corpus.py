"""Seeded inputs for the benchmark, and the checks on the program's outputs.

Everything here is independent of the library under test except the
ideal generator (`monres.monomials.random_minimal_ideal`, the same one
behind `monres random`): the lcm-lattice, its Moebius function and the
output parsers are the benchmark's own, so the invariants below are a
second opinion on the program, not a replay of it.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field

FIELDS = ("qq", "gf")
FIELD_ARGS = {"qq": [], "gf": ["--char", "32003"]}
WORKLOADS = ("betti", "resolve", "minimize", "classify")

# Copied from tests/conftest.py so that editing the test fixtures never
# changes the benchmark's inputs.
GOLDEN_IDEALS = {
    "triangle": "vars x y z; gens x*y x*z y*z",
    "four_gens": "vars a b c d; gens a^2*b a*c a*d b*c*d",
    "rigid4": "vars a b c; gens a^2 a*b b*c c^2",
    "hexagon": "vars x1 x2 x3 x4 x5 x6; gens x1*x2 x2*x3 x3*x4 x4*x5 x5*x6 x1*x6",
    "cone3": "vars a b c d; gens a*b a*c b*c*d",
    "cone3b": "vars a b c; gens a*b a*c b^2*c",
    "stable7": "vars x y z; gens x^2 x*y x*z y^3 y^2*z y*z^2 z^3",
    "principal": "vars x; gens x^3",
    "two_gens": "vars x y z; gens x*y x*z",
}
GOLDEN_LATTICES = {
    "wide6": [(), (1,), (2,), (3,), (4,), (5,), (6,),
              (1, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5), (3, 6), (4, 6), (5, 6),
              (1, 2, 3), (1, 2, 3, 4, 5), (3, 4, 6), (3, 5, 6), (4, 5, 6),
              (1, 2, 3, 4, 5, 6)],
    "split6": [(), (1,), (2,), (3,), (4,), (5,), (6,),
               (1, 2), (4, 5), (4, 6), (5, 6), (1, 2, 3), (1, 2, 3, 4, 5, 6)],
    "fan5": [(), (1,), (2,), (3,), (4,), (5,),
             (1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (2, 3, 4, 5), (1, 2, 3, 4, 5)],
    "three_petals": [(), (1,), (2,), (3,), (4,), (5,), (6,),
                     (1, 2), (1, 3), (2, 3), (1, 2, 4), (1, 3, 5), (2, 3, 6),
                     (1, 2, 3, 4, 5, 6)],
    "nearly_scarf5": [(), (1,), (2,), (3,), (4,), (5,),
                      (1, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5),
                      (1, 2, 3), (1, 2, 3, 4, 5)],
    "flag4": [(), (1,), (2,), (3,), (4,), (1, 2, 3), (1, 2, 3, 4)],
}


@dataclass(frozen=True)
class Stratum:
    """`count` random minimal ideals with r generators in n variables.

    A pool of POOL_FACTOR * count candidates is drawn from BASE_SEED and
    the `count` whose size proxy lies closest to `target` are kept (see
    `PROXIES`).  The run's seed then shuffles the variables and the
    generator order of each.  Random ideals of one (r, n) differ in cost
    by up to 20x, so drawing them from the run's seed made the pass time
    swing by about +-50% between seeds; relabelling gives every seed new
    input files with the same amount of work.
    """

    r: int
    n: int
    count: int
    proxy: str
    target: float


POOL_FACTOR = 4
BASE_SEED = "monres-bench-1"

# Per workload and field: the strata, plus the fixed members that every
# seed shares.  Sizes keep one pass of a field near 2-3 s on a 2-core
# machine, so a run holds several passes of each field.  The cheap group
# holds about 60% of a field's items and the expensive group the rest, so
# the p50 and p90 latencies fall inside a group, not on the jump between
# groups, where they would swing with noise.  Each target is the median
# proxy of seeded pools for that (r, n).
SPECS = {
    "betti": {
        "qq": {"strata": [Stratum(6, 4, 6, "s2", 216), Stratum(7, 4, 3, "s2", 408)]},
        "gf": {"strata": [Stratum(7, 4, 8, "s2", 394), Stratum(8, 4, 5, "s2", 734)]},
    },
    "resolve": {
        "qq": {"cycles": [8], "strata": [Stratum(8, 5, 3, "mu", 32), Stratum(10, 5, 1, "mu", 45)]},
        "gf": {"cycles": [8], "strata": [Stratum(10, 5, 3, "mu", 46), Stratum(11, 5, 3, "mu", 52)]},
    },
    "minimize": {
        "qq": {"strata": [Stratum(7, 4, 5, "mu", 22), Stratum(8, 4, 3, "mu", 26)]},
        "gf": {"strata": [Stratum(8, 4, 5, "mu", 27), Stratum(9, 4, 3, "mu", 30)]},
    },
    "classify": {
        "qq": {"golden": True, "strata": [Stratum(5, 4, 4, "L", 17), Stratum(6, 4, 3, "L", 22)]},
        "gf": {"golden": True, "strata": [Stratum(5, 4, 6, "L", 17), Stratum(6, 4, 6, "L", 22)]},
    },
}


@dataclass
class Item:
    """One input of a pass: an ideal file or a lattice JSON dump."""

    id: str
    field: str
    text: str
    r: int
    n: int
    names: list = field(default_factory=list)  # variables; empty for label lattices
    size: int = 0                               # |L|
    mobius: dict = field(default_factory=dict)  # exponent tuple -> mu(0, m)
    path: str = ""


# -- the benchmark's own lcm-lattice ---------------------------------------


def lcm_lattice(gens):
    """Elements of the lcm-lattice as {exponent tuple: label bitmask}."""
    n = len(gens[0])
    elems = {tuple([0] * n): 0}
    frontier = set(gens)
    for g in gens:
        elems[g] = 0
    while frontier:
        new = set()
        for m in frontier:
            for g in gens:
                j = tuple(max(a, b) for a, b in zip(m, g))
                if j not in elems:
                    elems[j] = 0
                    new.add(j)
        frontier = new
    for m in elems:
        elems[m] = sum(1 << i for i, g in enumerate(gens) if all(a <= b for a, b in zip(g, m)))
    return elems


def mobius(elems):
    """mu(0, m) for every element, by the recursion over label inclusion."""
    masks = sorted(elems.values(), key=lambda A: bin(A).count("1"))
    mu = {}
    for A in masks:
        mu[A] = 1 if A == 0 else -sum(v for B, v in mu.items() if B & A == B)
    return {m: mu[A] for m, A in elems.items()}


def _popcount(A):
    return bin(A).count("1")


# Size proxies, chosen by how well they predicted a CLI call's wall time
# on seeded samples (log-log correlation): betti 0.9 for s2 (faces of the
# complexes at the elements); resolve and minimize 0.6-0.8 for sum |mu|
# (a lower bound on the total Betti number); classify 0.75 for |L|.
PROXIES = {
    "s2": lambda elems, mu: sum(2 ** _popcount(A) for A in elems.values() if _popcount(A) >= 2),
    "mu": lambda elems, mu: sum(abs(v) for v in mu.values()),
    "L": lambda elems, mu: len(elems),
}


def ideal_text(names, gens):
    def mono(e):
        parts = [v if k == 1 else f"{v}^{k}" for v, k in zip(names, e) if k]
        return "*".join(parts) or "1"

    return f"vars {' '.join(names)}; gens {' '.join(mono(g) for g in gens)}"


def _ideal_item(item_id, fld, names, gens):
    elems = lcm_lattice(gens)
    return Item(item_id, fld, ideal_text(names, gens), len(gens), len(names),
                list(names), len(elems), mobius(elems))


def cycle_gens(k):
    """Edge ideal of the k-cycle."""
    gens = []
    for i in range(k):
        e = [0] * k
        e[i] = e[(i + 1) % k] = 1
        gens.append(tuple(e))
    return [f"x{i + 1}" for i in range(k)], gens


def _draw_stratum(workload, fld, st):
    """The base ideals of a stratum: drawn from BASE_SEED, not from the run's seed."""
    from monres.monomials import random_minimal_ideal

    rng = random.Random(f"{BASE_SEED}/{workload}/{fld}/{st.r}/{st.n}")
    pool = []
    for _ in range(POOL_FACTOR * st.count):
        gens = [g.exponents for g in random_minimal_ideal(st.r, st.n, 3, rng).gens]
        elems = lcm_lattice(gens)
        mu = mobius(elems)
        pool.append((abs(PROXIES[st.proxy](elems, mu) - st.target), len(pool), gens, len(elems), mu))
    pool.sort(key=lambda c: c[:2])
    return [(gens, size, mu) for _, _, gens, size, mu in sorted(pool[: st.count], key=lambda c: c[1])]


def _relabel(gens, mu, rng):
    """Shuffle the variables and the generator order: same lattice, new input text."""
    n = len(gens[0])
    perm = rng.sample(range(n), n)
    move = lambda e: tuple(e[perm[j]] for j in range(n))  # noqa: E731
    return [move(g) for g in rng.sample(gens, len(gens))], {move(m): v for m, v in mu.items()}


def build_corpus(workload, seed, spec=None):
    """{field: [Item]} for one workload; the same seed gives the same items."""
    spec = SPECS[workload] if spec is None else spec
    corpus = {}
    for fld in FIELDS:
        fs = spec.get(fld, {})
        items = []
        for k in fs.get("cycles", []):
            items.append(_ideal_item(f"{fld}/cycle{k}", fld, *cycle_gens(k)))
        if fs.get("golden"):
            for name, text in GOLDEN_IDEALS.items():
                names = text.split(";")[0].split()[1:]
                gens = [parse_mdeg(tok, names) for tok in text.split("gens", 1)[1].split()]
                items.append(_ideal_item(f"{fld}/{name}", fld, names, gens))
            for name, labels in GOLDEN_LATTICES.items():
                # the CLI realises a label lattice with one variable per nonbottom element, plus z
                doc = json.dumps({"elements": [{"A": list(A)} for A in labels]})
                items.append(Item(f"{fld}/{name}", fld, doc, max(max(A, default=0) for A in labels),
                                  len(labels), size=len(labels)))
        for st in fs.get("strata", []):
            rng = random.Random(f"{workload}/{fld}/{st.r}/{st.n}/{seed}")
            for k, (gens, size, mu) in enumerate(_draw_stratum(workload, fld, st)):
                gens, mu = _relabel(gens, mu, rng)
                names = [f"x{i + 1}" for i in range(st.n)]
                items.append(Item(f"{fld}/r{st.r}n{st.n}/{k}", fld, ideal_text(names, gens),
                                  st.r, st.n, names, size, mu))
        corpus[fld] = items
    return corpus


def write_corpus(corpus, directory):
    for items in corpus.values():
        for k, item in enumerate(items):
            item.path = f"{directory}/{item.field}-{k}.in"
            with open(item.path, "w", encoding="utf-8") as fh:
                fh.write(item.text)


# -- output checks -----------------------------------------------------------


_BETTI_LINE = re.compile(r"^b_(\d+),(\S+) = (\d+)$")
_DEGREE_LINE = re.compile(r"^degree (\d+): basis multidegrees \[(.*)\]$")


def parse_mdeg(text, names):
    """Exponent tuple of a printed monomial such as ``x1^2*x3`` or ``1``."""
    e = [0] * len(names)
    if text != "1":
        index = {v: i for i, v in enumerate(names)}
        for factor in text.split("*"):
            name, _, power = factor.partition("^")
            e[index[name]] += int(power) if power else 1
    return tuple(e)


def euler_mismatch(item, counts):
    """First element where sum_i (-1)^i counts[i, m] differs from mu(0, m), or None.

    `counts` maps (homological degree, exponent tuple) to a number of
    basis elements (or a Betti number).  Multidegrees outside the
    lcm-lattice are mismatches too.
    """
    chi = {}
    for (i, m), c in counts.items():
        if m not in item.mobius:
            return f"multidegree {m} is not in the lcm-lattice"
        chi[m] = chi.get(m, 0) + (-1) ** i * c
    for m, mu in item.mobius.items():
        if chi.get(m, 0) != mu:
            return f"Euler characteristic {chi.get(m, 0)} != mu {mu} at {m}"
    return None


def betti_counts(stdout, names):
    counts = {}
    for line in stdout.splitlines():
        hit = _BETTI_LINE.match(line)
        if hit:
            key = (int(hit.group(1)), parse_mdeg(hit.group(2), names))
            counts[key] = counts.get(key, 0) + int(hit.group(3))
    return counts


def rendered_counts(stdout, names):
    """Basis multidegree counts from `MultigradedComplex.render_text` output."""
    counts = {}
    for line in stdout.splitlines():
        hit = _DEGREE_LINE.match(line)
        if hit:
            for tok in hit.group(2).split():
                key = (int(hit.group(1)), parse_mdeg(tok, names))
                counts[key] = counts.get(key, 0) + 1
    return counts


def json_counts(stdout, names):
    counts = {}
    for i, level in enumerate(json.loads(stdout)["levels"]):
        for e in level:
            key = (i, parse_mdeg(e["mdeg"], names))
            counts[key] = counts.get(key, 0) + 1
    return counts


def check_outputs(workload, item, stdouts):
    """None if the outputs of one item satisfy the seed-independent invariants."""
    if workload == "classify":
        return None  # an inconsistent report raises, which main() does not catch
    if workload == "betti":
        counts = betti_counts(stdouts[0], item.names)
    elif workload == "minimize":
        counts = rendered_counts(stdouts[0], item.names)
    else:
        counts = json_counts(stdouts[0], item.names)
        lines = stdouts[1].splitlines()
        if "resolution: PASS" not in lines or "minimal: yes" not in lines:
            return "verify did not report a minimal resolution"
    return euler_mismatch(item, counts)
