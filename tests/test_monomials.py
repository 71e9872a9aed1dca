"""Monomials, ideals, the text grammar, the random generator."""

import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from monres.monomials import (IdealParseError, Monomial, MonomialIdeal,
                              parse_ideal_text, parse_monomial, random_minimal_ideal)


NAMES = ["a", "b", "c", "d"]


def mono(text):
    return parse_monomial(text, NAMES)


def test_lcm_examples():
    assert mono("a*b").lcm(mono("a*c")) == mono("a*b*c")
    assert mono("a*b").lcm(mono("1")) == mono("a*b")
    assert mono("a^2*b").lcm(mono("b*c*d")) == mono("a^2*b*c*d")


def test_divides_examples():
    assert mono("a*c").divides(mono("a*b*c*d"))
    assert mono("a*c").divides(mono("a*c"))
    assert not mono("a*b").divides(mono("a*c"))


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        mono("a").lcm(Monomial((1, 0)))
    with pytest.raises(ValueError):
        mono("a").divides(Monomial((1,)))


def test_mdeg_of_subset():
    ideal, _ = parse_ideal_text("vars x y z; gens x*y x*z y*z")
    assert ideal.mdeg_of_subset([1, 2, 3]) == parse_monomial("x*y*z", ideal.names)
    assert ideal.mdeg_of_subset([]) == Monomial((0, 0, 0))
    ideal2, _ = parse_ideal_text("vars a b c d; gens a^2*b a*c a*d b*c*d")
    assert ideal2.mdeg_of_subset([1, 4]) == parse_monomial("a^2*b*c*d", NAMES)


def test_mdeg_monotone():
    ideal, _ = parse_ideal_text("vars a b c d; gens a^2*b a*c a*d b*c*d")
    subsets = [(1,), (1, 2), (1, 2, 3), (1, 2, 3, 4)]
    for small, big in zip(subsets, subsets[1:]):
        assert ideal.mdeg_of_subset(small).divides(ideal.mdeg_of_subset(big))


def test_lcm_algebraic_laws():
    rng = random.Random(3)
    ms = [Monomial(tuple(rng.randint(0, 3) for _ in range(4))) for _ in range(12)]
    for a in ms[:5]:
        for b in ms[5:10]:
            assert a.lcm(b) == b.lcm(a)
            assert a.lcm(a) == a
            for c in ms[10:]:
                assert a.lcm(b.lcm(c)) == a.lcm(b).lcm(c)


def test_minimality_rejected():
    with pytest.raises(ValueError):
        parse_ideal_text("vars x y; gens x x*y")
    with pytest.raises(IdealParseError):
        parse_ideal_text("gens x*y x*y")
    ideal, _ = parse_ideal_text("vars x y; gens x x*y", minimize=True)
    assert ideal.r == 1


def ref_minimal_subset(gens):
    """The generators that no other one strictly divides, each once, in order."""
    out = []
    for g in gens:
        if not any(h.divides(g) and h != g for h in gens) and g not in out:
            out.append(g)
    return out


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(*[st.integers(0, 2)] * 3).filter(any), min_size=1, max_size=7))
def test_one_scan_keeps_the_minimal_generators_or_names_the_first_pair(exps):
    names, gens = ["x", "y", "z"], [Monomial(e) for e in exps]
    assert MonomialIdeal(names, gens, minimize=True).gens == ref_minimal_subset(gens)
    pairs = [(g, h) for i, g in enumerate(gens) for j, h in enumerate(gens) if i != j and g.divides(h)]
    if not pairs:
        assert MonomialIdeal(names, gens).gens == gens
        return
    g, h = pairs[0]
    want = (f"duplicate generator {g.to_str(names)}" if g == h
            else f"non-minimal generators: {g.to_str(names)} divides {h.to_str(names)}")
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        MonomialIdeal(names, gens)


def test_parse_grammar():
    ideal, char = parse_ideal_text("vars a b c;\ngens a^2 a*b b*c c^2; char 5")
    assert [g.to_str(ideal.names) for g in ideal.gens] == ["a^2", "a*b", "b*c", "c^2"]
    assert char == 5
    principal, _ = parse_ideal_text("vars x; gens x^3")
    assert principal.r == 1
    with pytest.raises(IdealParseError):
        parse_ideal_text("vars x; gens y")
    with pytest.raises(IdealParseError):
        parse_ideal_text("vars x; flurb x")


def test_parse_infers_names():
    ideal, _ = parse_ideal_text("gens x*y y*z")
    assert ideal.names == ["x", "y", "z"]


def test_unit_generator_rejected():
    with pytest.raises(IdealParseError):
        parse_ideal_text("vars x; gens 1")


def test_random_ideal_reproducible_antichain():
    a = random_minimal_ideal(5, 4, 3, random.Random(99))
    b = random_minimal_ideal(5, 4, 3, random.Random(99))
    assert [g.exponents for g in a.gens] == [g.exponents for g in b.gens]
    for i, g in enumerate(a.gens):
        for j, h in enumerate(a.gens):
            if i != j:
                assert not g.divides(h)


def test_to_text_roundtrip():
    ideal, _ = parse_ideal_text("vars a b c d; gens a^2*b a*c a*d b*c*d")
    again, _ = parse_ideal_text(ideal.to_text())
    assert [g.exponents for g in again.gens] == [g.exponents for g in ideal.gens]
