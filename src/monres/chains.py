"""Simplicial chains on the generator simplex.

Faces are sorted tuples of generator indices ``1..r``; the empty face
``()`` is allowed (it generates homological degree 0 of the augmented
complex).  A chain is a field-coefficient combination of distinct faces
of one common dimension.  Orientation is fixed by sorted vertex order:
the face obtained by dropping the vertex in sorted position j carries
sign (-1)^j, and the boundary of a vertex is the empty face.
"""

from __future__ import annotations

from monres.linalg import Field


def face(vertices) -> tuple:
    vs = [int(v) for v in vertices]
    t = tuple(sorted(set(vs)))
    if len(t) != len(vs):
        raise ValueError(f"face with repeated vertices: {vs}")
    return t


class Chain:
    """An equi-dimensional chain: sparse map face -> nonzero scalar."""

    __slots__ = ("field", "dim", "terms")

    def __init__(self, field: Field, terms, dim=None):
        self.field = field
        clean = {}
        for f, c in dict(terms).items():
            if c:
                clean[tuple(f)] = c
        dims = {len(f) - 1 for f in clean}
        if len(dims) > 1:
            raise ValueError(f"chain of mixed dimensions: {sorted(dims)}")
        if dims:
            self.dim = dims.pop()
            if dim is not None and dim != self.dim:
                raise ValueError("declared dimension does not match faces")
        else:
            if dim is None:
                raise ValueError("zero chain needs an explicit dimension")
            self.dim = dim
        self.terms = clean

    # -- constructors ------------------------------------------------
    @staticmethod
    def from_face(field: Field, vertices, coeff=None) -> "Chain":
        f = face(vertices)
        return Chain(field, {f: field.one if coeff is None else coeff})

    @staticmethod
    def zero(field: Field, dim: int) -> "Chain":
        return Chain(field, {}, dim=dim)

    # -- structure ---------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def faces(self):
        return sorted(self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, Chain)
            and self.field == other.field
            and self.dim == other.dim
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.dim, frozenset(self.terms.items())))

    def __repr__(self):
        return f"Chain({format_chain(self)})"

    # -- arithmetic --------------------------------------------------
    def add(self, other: "Chain") -> "Chain":
        if self.dim != other.dim:
            raise ValueError("adding chains of different dimensions")
        f = self.field
        terms = dict(self.terms)
        for fc, c in other.terms.items():
            terms[fc] = f.add(terms.get(fc, f.zero), c)
        return Chain(f, terms, dim=self.dim)

    def scale(self, c) -> "Chain":
        f = self.field
        return Chain(f, {fc: f.mul(c, x) for fc, x in self.terms.items()}, dim=self.dim)

    def sub(self, other: "Chain") -> "Chain":
        return self.add(other.scale(self.field.neg(self.field.one)))

    @staticmethod
    def combine(field: Field, pairs, dim: int) -> "Chain":
        """Field-linear combination of (coefficient, chain) pairs."""
        terms: dict = {}
        for c, ch in pairs:
            if not c or ch.is_zero():
                continue
            if ch.dim != dim:
                raise ValueError("adding chains of different dimensions")
            for fc, x in ch.terms.items():
                terms[fc] = field.add(terms.get(fc, field.zero), field.mul(c, x))
        return Chain(field, terms, dim=dim)


def boundary(c: Chain) -> Chain:
    """Augmented simplicial boundary; the boundary of a vertex is the empty face."""
    if c.dim < 0:
        raise ValueError("boundary of a (-1)-dimensional chain is undefined")
    f = c.field
    terms: dict = {}
    for fc, coeff in c.terms.items():
        for j in range(len(fc)):
            sub = fc[:j] + fc[j + 1:]
            sign = coeff if j % 2 == 0 else f.neg(coeff)
            terms[sub] = f.add(terms.get(sub, f.zero), sign)
    return Chain(f, terms, dim=c.dim - 1)


def support(c: Chain):
    """Union of the faces of a nonzero chain, as a sorted tuple."""
    if c.is_zero():
        raise ValueError("support of the zero chain")
    out: set = set()
    for fc in c.terms:
        out.update(fc)
    return tuple(sorted(out))


def mdeg_chain(ideal, c: Chain):
    """lcm of the face multidegrees of a nonzero chain."""
    if c.is_zero():
        raise ValueError("multidegree of the zero chain")
    m = ideal.one()
    for fc in c.terms:
        m = m.lcm(ideal.mdeg_of_subset(fc))
    return m


def initial_part(ideal, c: Chain) -> Chain:
    """Keep exactly the terms whose face multidegree equals mdeg(c)."""
    m = mdeg_chain(ideal, c)
    keep = {fc: x for fc, x in c.terms.items() if ideal.mdeg_of_subset(fc) == m}
    return Chain(c.field, keep, dim=c.dim)


# -- text format -----------------------------------------------------
#
# `1245-1456+1234` (unit coefficients implicit); an explicit coefficient
# is written `3*124` or `-1/2*13`.  A face with a vertex above 9 is
# dot-separated, `1.10.12`, but a single vertex is written bare, `10`, so
# a reader needs the chain's dimension.  The empty face is `{}`.


def format_face(f) -> str:
    if not f:
        return "{}"
    if all(v <= 9 for v in f):
        return "".join(str(v) for v in f)
    return ".".join(str(v) for v in f)


def parse_face(text: str, dim: int) -> tuple:
    """A dotless face is dim + 1 digits, or one vertex when dim = 0."""
    text = text.strip()
    if text in ("{}", "()"):
        return ()
    if "." in text or dim == 0:
        return face(int(p) for p in text.split("."))
    return face(int(ch) for ch in text)


def format_chain(c: Chain) -> str:
    if c.is_zero():
        return "0"
    f = c.field
    parts = []
    for fc in sorted(c.terms):
        x = c.terms[fc]
        neg = str(x).startswith("-")
        mag = str(x)[1:] if neg else str(x)
        body = format_face(fc) if mag == "1" else f"{mag}*{format_face(fc)}"
        if not parts:
            parts.append(("-" if neg else "") + body)
        else:
            parts.append(("-" if neg else "+") + body)
    return "".join(parts)


def parse_chain(field: Field, text: str, dim: int) -> Chain:
    """The nonzero dim-chain written `text` (see `format_chain`)."""
    text = "".join(text.split())
    if text in ("0", ""):
        raise ValueError("cannot parse a zero chain")
    terms: dict = {}
    token = ""
    chunks = []
    for ch in text:
        if ch in "+-" and token:
            chunks.append(token)
            token = ch
        else:
            token += ch
    chunks.append(token)
    for chunk in chunks:
        sign = field.one
        if chunk.startswith("-"):
            sign = field.neg(field.one)
            chunk = chunk[1:]
        elif chunk.startswith("+"):
            chunk = chunk[1:]
        if "*" in chunk:
            coeff_text, face_text = chunk.rsplit("*", 1)
            coeff = field.mul(sign, field.of(coeff_text))
        else:
            coeff, face_text = sign, chunk
        if not face_text:
            raise ValueError(f"empty term in chain {text!r}")
        f = parse_face(face_text, dim)
        terms[f] = field.add(terms.get(f, field.zero), coeff)
    c = Chain(field, terms, dim=dim)
    if c.is_zero():
        raise ValueError("cannot parse a zero chain")
    return c
