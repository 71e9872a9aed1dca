"""Monomials as exponent vectors, monomial ideals, and the text grammar.

A monomial lives in a fixed ambient ring with ``n`` named variables; the
constant monomial 1 is the all-zero exponent vector.  A monomial ideal
is an ordered list of generators that must be a minimal generating set:
no generator divides another.  Generator indices ``1..r`` are used
everywhere downstream (they are the vertex labels of the generator
simplex).
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from operator import le

from monres.linalg import Field


@dataclass(frozen=True)
class Monomial:
    """Exponent vector; ``exponents[i]`` is the power of variable i."""

    exponents: tuple

    def __post_init__(self):
        exponents = tuple(map(int, self.exponents))
        if exponents and min(exponents) < 0:
            raise ValueError("negative exponent")
        object.__setattr__(self, "exponents", exponents)

    @property
    def n(self) -> int:
        return len(self.exponents)

    def is_one(self) -> bool:
        return all(e == 0 for e in self.exponents)

    def _check(self, other: "Monomial"):
        if self.n != other.n:
            raise ValueError(f"variable count mismatch: {self.n} vs {other.n}")

    def lcm(self, other: "Monomial") -> "Monomial":
        self._check(other)
        return Monomial(tuple(max(a, b) for a, b in zip(self.exponents, other.exponents)))

    def divides(self, other: "Monomial") -> bool:
        self._check(other)
        return all(a <= b for a, b in zip(self.exponents, other.exponents))

    def quotient(self, other: "Monomial") -> "Monomial":
        """self / other; requires other | self."""
        if not other.divides(self):
            raise ValueError("quotient of non-divisible monomials")
        return Monomial(tuple(a - b for a, b in zip(self.exponents, other.exponents)))

    def to_str(self, names) -> str:
        parts = []
        for name, e in zip(names, self.exponents):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts) if parts else "1"


_FACTOR_RE = re.compile(r"^([A-Za-z_][A-Za-z_0-9]*)(?:\^(\d+))?$")


def parse_monomial(text: str, names) -> Monomial:
    """Parse ``a^2*b`` style text against a declared variable list."""
    text = "".join(text.split())
    if text in ("1", ""):
        return Monomial((0,) * len(names))
    index = {name: i for i, name in enumerate(names)}
    exps = [0] * len(names)
    for factor in text.split("*"):
        m = _FACTOR_RE.match(factor)
        if not m:
            raise ValueError(f"bad monomial factor {factor!r}")
        name, power = m.group(1), m.group(2)
        if name not in index:
            raise ValueError(f"undeclared variable {name!r}")
        exps[index[name]] += int(power) if power else 1
    return Monomial(tuple(exps))


def distinct_names(names) -> list:
    """The variable names as a list; a name given twice is an error."""
    names = list(names)
    for k, name in enumerate(names):
        if name in names[:k]:
            raise ValueError(f"duplicate variable {name!r}")
    return names


class MonomialIdeal:
    """A monomial ideal given by its minimal generating set, in order."""

    def __init__(self, names, gens, minimize: bool = False):
        self.names = distinct_names(names)
        self.n = len(self.names)
        gens = list(gens)
        for g in gens:
            if g.n != self.n:
                raise ValueError("generator in wrong ambient ring")
            if g.is_one():
                raise ValueError("the unit 1 cannot be a generator")
        if not gens:
            raise ValueError("an ideal needs at least one generator")
        # one row-major scan over the pairs g_i | g_j, i != j: the first one is an error, or
        # with `minimize` each such g_j is dropped, of equal generators all but the first
        exps = [g.exponents for g in gens]
        drop = set()
        for i, a in enumerate(exps):
            for j, b in enumerate(exps):
                if i != j and all(map(le, a, b)):
                    if not minimize:
                        g, h = gens[i].to_str(self.names), gens[j].to_str(self.names)
                        raise ValueError(f"duplicate generator {g}" if a == b
                                         else f"non-minimal generators: {g} divides {h}")
                    if i < j or a != b:
                        drop.add(j)
        self.gens = [g for j, g in enumerate(gens) if j not in drop]
        self.r = len(self.gens)

    def __repr__(self):
        return f"MonomialIdeal({', '.join(g.to_str(self.names) for g in self.gens)})"

    def one(self) -> Monomial:
        return Monomial((0,) * self.n)

    def generator(self, i: int) -> Monomial:
        """1-based generator access; indices double as the simplex vertex labels."""
        if not 1 <= i <= self.r:
            raise IndexError(f"generator index {i} out of range 1..{self.r}")
        return self.gens[i - 1]

    def mdeg_of_subset(self, A) -> Monomial:
        """lcm of the generators indexed by A (1-based); mdeg of the empty set is 1."""
        m = self.one()
        for i in A:
            m = m.lcm(self.generator(i))
        return m

    def contains_monomial(self, m: Monomial) -> bool:
        return any(g.divides(m) for g in self.gens)

    def to_text(self) -> str:
        gens = " ".join(g.to_str(self.names) for g in self.gens)
        return f"vars {' '.join(self.names)}; gens {gens}"


class IdealParseError(ValueError):
    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


def json_object(value, fields, where: str):
    """`value`, checked to be a JSON object holding the typed `fields`.

    `fields` maps a key to a type, or to (list, t) for a list of t.  A
    missing key or a wrong type is a parse error naming `where` and the key.
    Types match exactly, so a JSON boolean is not an int.
    """
    if not isinstance(value, dict):
        raise IdealParseError(f"{where} is not an object")
    for key, kind in fields.items():
        kind, item = kind if isinstance(kind, tuple) else (kind, None)
        v = value.get(key)
        if type(v) is not kind or (item and any(type(x) is not item for x in v)):
            what = kind.__name__ + (f" of {item.__name__}" if item else "")
            raise IdealParseError(f"{where}: {key!r} is missing or not a {what}")
    return value


def json_document(text: str, fields, where: str):
    """The JSON text `text`, checked by `json_object` to be an object holding `fields`.

    Text that does not decode, or that nests deeper than the decoder can
    follow, is a parse error.
    """
    try:
        value = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:
        raise IdealParseError(str(e)) from e
    return json_object(value, fields, where)


def parse_ideal_text(text: str, minimize: bool = False):
    """Parse an ideal file: ``vars a b c; gens a^2 a*b b*c; [char p;]``.

    Statements are separated by ';' or newlines.  Returns
    ``(MonomialIdeal, characteristic or None)``.
    """
    names = None
    gen_tokens = None
    char = None
    statements = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0]
        for stmt in line.split(";"):
            if stmt.strip():
                statements.append((lineno, stmt.strip()))
    for lineno, stmt in statements:
        words = stmt.split()
        head, rest = words[0], words[1:]
        if head == "vars":
            if names is not None:
                raise IdealParseError("duplicate vars statement", lineno)
            try:
                names = distinct_names(rest)
            except ValueError as e:
                raise IdealParseError(str(e), lineno) from e
        elif head == "gens":
            if gen_tokens is not None:
                raise IdealParseError("duplicate gens statement", lineno)
            gen_tokens = (lineno, rest)
        elif head == "char":
            if char is not None:
                raise IdealParseError("duplicate char statement", lineno)
            if len(rest) != 1 or not rest[0].isdigit():
                raise IdealParseError("char expects one integer", lineno)
            char = int(rest[0])
            try:
                Field(char)
            except ValueError as e:
                raise IdealParseError(str(e), lineno) from e
        else:
            raise IdealParseError(f"unknown statement {head!r}", lineno)
    if gen_tokens is None:
        raise IdealParseError("missing gens statement")
    lineno, tokens = gen_tokens
    if not tokens:
        raise IdealParseError("empty generator list", lineno)
    if names is None:
        # infer variable names from the generators, in order of appearance
        names = []
        for tok in tokens:
            for factor in tok.split("*"):
                name = factor.split("^", 1)[0]
                if name != "1" and name not in names:
                    names.append(name)
    try:
        gens = [parse_monomial(tok, names) for tok in tokens]
        ideal = MonomialIdeal(names, gens, minimize=minimize)
    except ValueError as e:
        raise IdealParseError(str(e), lineno) from e
    return ideal, char


def random_minimal_ideal(r: int, n: int, maxdeg: int, rng: random.Random) -> MonomialIdeal:
    """A reproducible random ideal with exactly r minimal generators.

    Candidates are mostly drawn from the two middle total-degree layers
    of the exponent grid (distinct monomials of one degree are never
    comparable, so the antichain always extends), with occasional fully
    random draws for variety; comparable candidates are rejected.
    """
    if n < 1 or maxdeg < 1:
        raise RuntimeError(f"could not build an antichain in {n} vars with exponents up to {maxdeg}: "
                           "both must be at least 1")
    names = [f"x{i + 1}" for i in range(n)]
    mid = max(1, (n * maxdeg) // 2)
    layer = [0] * (n * maxdeg + 1)
    layer[0] = 1
    for _ in range(n):
        nxt = [0] * len(layer)
        for s, cnt in enumerate(layer):
            for e in range(maxdeg + 1):
                if s + e < len(nxt):
                    nxt[s + e] += cnt
        layer = nxt
    if r > layer[mid]:
        raise RuntimeError(f"could not build an antichain of {r} monomials in {n} vars")
    for round_ in range(12):
        strict_layer = round_ >= 2
        gens: list[Monomial] = []
        for attempt in range(4000):
            exps = tuple(rng.randint(0, maxdeg) for _ in range(n))
            degree = sum(exps)
            if strict_layer:
                if degree != mid:
                    continue
            elif attempt % 4 != 0 and degree not in (mid, mid + 1):
                continue
            cand = Monomial(exps)
            if cand.is_one():
                continue
            if any(cand.divides(g) or g.divides(cand) for g in gens):
                continue
            gens.append(cand)
            if len(gens) == r:
                return MonomialIdeal(names, gens)
    raise RuntimeError(f"could not build an antichain of {r} monomials in {n} vars")
