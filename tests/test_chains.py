"""Chains on the generator simplex: boundary, multidegree, Taylor tests."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from monres.chains import (Chain, boundary, format_chain, initial_part, mdeg_chain,
                           parse_chain, support)
from monres.lattice import LcmLattice
from monres.linalg import Field
from monres.monomials import parse_ideal_text, parse_monomial

from conftest import ch, is_taylor_chain_at


QQ = Field(0)


def test_boundary_edge():
    assert boundary(ch("12")) == ch("-1+2")


def test_boundary_hexagon_convention():
    assert boundary(ch("123+134")) == ch("12-14+23+34")


def test_boundary_vertex_is_empty_face():
    b = boundary(ch("1"))
    assert b.terms == {(): QQ.one}


def test_boundary_squared_zero():
    rng = random.Random(5)
    for _ in range(25):
        verts = tuple(sorted(rng.sample(range(1, 8), rng.randint(2, 5))))
        c = Chain.from_face(QQ, verts)
        assert boundary(boundary(c)).is_zero()


def test_boundary_of_empty_face_rejected():
    with pytest.raises(ValueError):
        boundary(Chain.from_face(QQ, ()))


def test_mixed_dimension_rejected():
    with pytest.raises(ValueError):
        Chain(QQ, {(1,): QQ.one, (1, 2): QQ.one})


def test_support_union():
    assert support(ch("123+134")) == (1, 2, 3, 4)
    with pytest.raises(ValueError):
        support(Chain.zero(QQ, 1))


def test_mdeg_chain():
    ideal, _ = parse_ideal_text("vars x y z; gens x*y x*z y*z")
    assert mdeg_chain(ideal, ch("12")) == parse_monomial("x*y*z", ideal.names)
    hexagon, _ = parse_ideal_text(
        "vars x1 x2 x3 x4 x5 x6; gens x1*x2 x2*x3 x3*x4 x4*x5 x5*x6 x1*x6")
    m = mdeg_chain(hexagon, ch("1245-1456+1234"))
    assert all(hexagon.generator(i).divides(m) for i in range(1, 7))


def test_initial_part_and_taylor_chain():
    ideal, _ = parse_ideal_text("vars a b c d; gens a*b a*c b*c*d")
    lat = LcmLattice.from_ideal(ideal)
    c = ch("13+2*23")  # both faces have the full multidegree
    assert initial_part(ideal, c) == c
    top = lat.id_of_label({1, 2, 3})
    assert is_taylor_chain_at(lat, c, top)
    # single face whose closure is the element
    assert is_taylor_chain_at(lat, ch("12"), lat.id_of_label({1, 2}))
    # support closes to the top but no face does: not a Taylor chain there
    mixed = ch("1+3")
    assert not is_taylor_chain_at(lat, mixed, top)


def test_initial_part_keeps_top_faces_only():
    ideal, _ = parse_ideal_text("vars a b c d; gens a^2*b a*c a*d b*c*d")
    c = ch("12+13")  # mdeg(12) = a^2bc, mdeg(13) = a^2bd, chain mdeg = a^2bcd
    assert initial_part(ideal, c).is_zero()
    c2 = ch("24+23")  # mdeg(24) = abcd = chain mdeg, mdeg(23) = acd
    assert initial_part(ideal, c2) == ch("24")


def test_boundary_mdeg_divides():
    ideal, _ = parse_ideal_text("vars a b c d; gens a^2*b a*c a*d b*c*d")
    for text in ("123", "12+13", "234"):
        c = ch(text)
        assert mdeg_chain(ideal, boundary(c)).divides(mdeg_chain(ideal, c))


def test_format_parse_roundtrip():
    for text in ("1245-1456+1234", "-1+2", "3*12-1/2*13", "123"):
        c = ch(text)
        assert parse_chain(QQ, format_chain(c), c.dim) == c
    for text in ("1+", "1++2", "+"):
        with pytest.raises(ValueError, match="empty term"):
            ch(text)


def test_format_many_vertices():
    c = Chain.from_face(QQ, (1, 10, 12))
    assert format_chain(c) == "1.10.12"
    assert parse_chain(QQ, "1.10.12", 2) == c
    # a lone vertex above 9 is written bare; its dimension says it is one vertex
    assert format_chain(ch("-1+3").add(Chain.from_face(QQ, (10,)))) == "-1+3+10"
    assert parse_chain(QQ, "-1+10", 0) == Chain(QQ, {(1,): -QQ.one, (10,): QQ.one})
    assert parse_chain(QQ, "10", 1) == Chain.from_face(QQ, (0, 1))
    with pytest.raises(ValueError, match="declared dimension"):
        parse_chain(QQ, "1.10", 0)


@st.composite
def nonzero_chains(draw):
    """A nonzero chain on at most 13 vertices, over QQ, GF(2) or GF(32003)."""
    field = Field(draw(st.sampled_from([0, 2, 32003])))
    n = draw(st.integers(1, 13))
    dim = draw(st.integers(-1, min(n, 4) - 1))
    faces = draw(st.lists(st.lists(st.integers(1, n), min_size=dim + 1, max_size=dim + 1, unique=True),
                          min_size=1, max_size=6))
    ints = st.integers(-40, 40)
    coeffs = st.builds(Fraction, ints, st.integers(1, 9)) if field.char == 0 else ints
    terms: dict = {}
    for f in faces:
        key = tuple(sorted(f))
        terms[key] = field.add(terms.get(key, field.zero), field.of(draw(coeffs)))
    c = Chain(field, terms, dim=dim)
    if c.is_zero():
        c = Chain.from_face(field, sorted(faces[0]))
    return c


@settings(max_examples=300, deadline=None)
@given(c=nonzero_chains())
def test_chain_text_round_trip(c):
    assert parse_chain(c.field, format_chain(c), c.dim) == c


def test_chain_combination():
    a, b = ch("12"), ch("13")
    out = Chain.combine(QQ, [(QQ.of(2), a), (QQ.of(-1), b)], dim=1)
    assert out == ch("2*12-13")
