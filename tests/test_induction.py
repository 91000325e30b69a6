"""Presentation induction: the split-extension lemma and Hall composition."""

from __future__ import annotations

import pytest

from helpers import group_order

from gpq.backends import cyclic_group
from gpq.errors import ArityMismatch, DoesNotCloseUp, NonPositiveRelator, NotSplit
from gpq.induction import (
    SplitExtensionData,
    YLetter,
    basic_relation,
    conjugate_relation,
    hall_compose,
    induce_presentation,
    product_presentation,
    y_letter_name,
)
from gpq.parsing import document_of, parse_document, print_document
from gpq.presentations import FiniteEquivalenceTrace, Presentation, T2
from gpq.words import Word


def W(p, text):
    return Word.from_str(p.alphabet, text)


@pytest.fixture(scope="module")
def klein_data():
    # G = Klein four on x, s; F = Z/2 via p(s) = f, p(x) = e; K = <x>
    G = Presentation.make("x!, s!", ["x x", "s s", "(x s)^2"], "klein4")
    F = cyclic_group(2, "s")
    return SplitExtensionData(
        G,
        F,
        p_map=(0, F.generator_map[0]),
        lifts=(Word.identity(G.alphabet), W(G, "s")),
    )


def test_induced_klein_presents_order_two(klein_data):
    ind = induce_presentation(klein_data)
    assert ind.pre_simplification_generator_count == 4  # |F| * |S|
    assert ind.presentation.alphabet.letters == ("x", "x_s")
    assert group_order(ind.presentation) == 2
    assert ind.eliminated_generators == ("s", "s_s")
    assert len(ind.dropped_relators) == 2  # s s induces nothing


def test_trivial_quotient_relabels(klein_data):
    G = Presentation.make("x!", ["x x"], "z2")
    F = cyclic_group(1, "e")
    d = SplitExtensionData(G, F, p_map=(0,), lifts=(Word.identity(G.alphabet),))
    ind = induce_presentation(d)
    assert ind.presentation.alphabet.letters == ("x",)
    assert [str(r) for r in ind.presentation.relators] == ["x x"]
    assert group_order(ind.presentation) == 2


def test_grigorchuk_b_generators(grig):
    ind = induce_presentation(grig.b_extension)
    assert ind.pre_simplification_generator_count == 24
    assert ind.presentation.alphabet.letters == (
        "b",
        "b_a",
        "b_d",
        "b_ad",
        "b_da",
        "b_ada",
        "b_dad",
        "b_adad",
    )


def test_basic_relation_w1_conjugators(grig):
    w1 = grig.relator_family("abd", "w", 1)
    t = basic_relation(w1, grig.b_extension)
    assert len(t) == 8  # one per b occurrence
    names = [str(grig.d8.element_names[yl.conjugator]).replace(" ", "") for yl in t]
    assert names[:2] == ["a", "ada"]
    assert names == ["a", "ada", "dad", "d", "a", "ada", "dad", "d"]


def test_b_free_relator_induces_nothing(grig):
    w0 = grig.relator_family("abd", "w", 0)
    assert basic_relation(w0, grig.b_extension) == ()


def test_non_closing_word_rejected(grig):
    with pytest.raises(DoesNotCloseUp):
        basic_relation(Word.from_str(grig.abd, "a"), grig.b_extension)


def test_conjugation_is_group_action(grig):
    w1 = grig.relator_family("abd", "w", 1)
    t = basic_relation(w1, grig.b_extension)
    F = grig.d8
    for x in range(F.order):
        for y in range(F.order):
            lhs = conjugate_relation(conjugate_relation(t, y, grig.b_extension), x, grig.b_extension)
            rhs = conjugate_relation(t, F.mul[x][y], grig.b_extension)
            assert lhs == rhs
    assert conjugate_relation(t, 0, grig.b_extension) == t


def test_conjugating_by_inverse_returns(grig):
    w1 = grig.relator_family("abd", "w", 1)
    t = basic_relation(w1, grig.b_extension)
    F = grig.d8
    for x in range(F.order):
        assert conjugate_relation(conjugate_relation(t, x, grig.b_extension), F.inv[x], grig.b_extension) == t


def test_validation_rejects_negative_relators():
    G = Presentation.make("x, s!", ["x s x' s"], "bad")
    F = cyclic_group(2, "s")
    with pytest.raises(NonPositiveRelator):
        SplitExtensionData(G, F, p_map=(0, F.generator_map[0]),
                           lifts=(Word.identity(G.alphabet), W(G, "s")))


def test_validation_rejects_bad_lifts():
    G = Presentation.make("x!, s!", ["x x", "s s", "(x s)^2"], "klein4")
    F = cyclic_group(2, "s")
    with pytest.raises(NotSplit):
        SplitExtensionData(G, F, p_map=(0, F.generator_map[0]),
                           lifts=(Word.identity(G.alphabet), W(G, "x")))


def test_validation_rejects_non_dying_relator():
    G = Presentation.make("x!, s!", ["x x", "s s", "x s x s s"], "bad")
    F = cyclic_group(2, "s")
    with pytest.raises(NotSplit):
        SplitExtensionData(G, F, p_map=(0, F.generator_map[0]),
                           lifts=(Word.identity(G.alphabet), W(G, "s")))


def test_round_trip_orders_desk_scale():
    # |induced group| = |G| / |F| for small split extensions
    cases = []
    # D8 = <x, s>, F = Z/2 by killing x; K has order 4
    cases.append((Presentation.make("x!, s!", ["x x", "s s", "(x s)^4"], "d8"), 8))
    # Klein four again, order 4
    cases.append((Presentation.make("x!, s!", ["x x", "s s", "(x s)^2"], "v4"), 4))
    for G, order in cases:
        F = cyclic_group(2, "s")
        d = SplitExtensionData(
            G, F, p_map=(0, F.generator_map[0]),
            lifts=(Word.identity(G.alphabet), W(G, "s")),
        )
        assert group_order(G) == order
        ind = induce_presentation(d)
        assert group_order(ind.presentation) == order // 2
        assert ind.pre_simplification_generator_count == 2 * len(G.alphabet)


def test_hall_compose_z2_by_z2():
    K = Presentation.make("k!", ["k k"], "K")
    F = Presentation.make("m!", ["m m"], "F")
    composed = hall_compose(
        K, F, (Word.identity(K.alphabet),), {(0, 0): W(K, "k")}
    )
    assert [str(r) for r in composed.relators] == ["k k", "m m", "m k m k"]
    assert group_order(composed) == 4


def test_hall_compose_trivial_sides():
    K = Presentation.make("k!", ["k k"], "K")
    F0 = Presentation.make("m", ["m"], "T")  # trivial group
    composed = hall_compose(K, F0, (Word.identity(K.alphabet),), {(0, 0): W(K, "k")})
    assert group_order(composed) == 2
    K0 = Presentation.make("k", ["k"], "T")
    F = Presentation.make("m!", ["m m"], "F")
    composed2 = hall_compose(K0, F, (Word.identity(K0.alphabet),), {(0, 0): W(K0, "k")})
    assert group_order(composed2) == 2


def test_hall_compose_arity_checks():
    K = Presentation.make("k!", ["k k"], "K")
    F = Presentation.make("m!", ["m m"], "F")
    with pytest.raises(ArityMismatch):
        hall_compose(K, F, (), {(0, 0): W(K, "k")})
    with pytest.raises(ArityMismatch):
        hall_compose(K, F, (Word.identity(K.alphabet),), {})


def test_product_presentation_grigorchuk(grig):
    pg = grig.presentation("abcd", 0)
    prod = product_presentation(pg, pg)
    assert len(prod.alphabet) == 8
    assert prod.alphabet.letters[:4] == ("a1", "b1", "c1", "d1")
    commutators = [r for r in prod.relators if len(r) == 4 and len({i for i, _ in r.letters}) == 2]
    assert len(commutators) == 16


def test_product_presentation_z_z():
    p1 = Presentation.make("a", [], "Z")
    p2 = Presentation.make("b", [], "Z")
    prod = product_presentation(p1, p2)
    assert [str(r) for r in prod.relators] == ["a1 b2 a1' b2'"]


def test_product_with_empty_presentation_adds_nothing():
    from gpq.words import Alphabet

    p1 = Presentation.make("a", [], "Z")
    trivial = Presentation(Alphabet((), ()), (), "1")
    prod = product_presentation(p1, trivial)
    assert prod.alphabet.letters == ("a1",)
    assert prod.relators == ()


def test_y_letter_names(grig):
    d = grig.b_extension
    assert y_letter_name(d, YLetter(0, 1)) == "b"
    assert y_letter_name(d, YLetter(1, 1)) == "b_a"
    ad = next(f for f, name in enumerate(grig.d8.element_names) if str(name) == "a d")
    assert y_letter_name(d, YLetter(ad, 1)) == "b_ad"


def _z3_data():
    # G = <x, t | t^3, (x t)^3>, F = Z/3 = <t>: the element t^2 is named t',
    # whose letter is an inverse one
    G = Presentation.make("x!, t", ["t t t", "x t x t x t"], "g")
    F = cyclic_group(3, "t")
    lifts = tuple(W(G, text) for text in ("", "t", "t t"))
    return SplitExtensionData(G, F, p_map=(0, F.generator_map[0]), lifts=lifts)


def test_an_inverse_letter_of_a_conjugator_is_named_with_an_i():
    ind = induce_presentation(_z3_data())
    assert ind.presentation.alphabet.letters == ("x", "x_t", "x_ti")
    assert ind.eliminated_generators == ("t", "t_t", "t_ti")


@pytest.mark.parametrize("which", ["grigorchuk", "z3"])
def test_induced_presentations_print_and_parse_back(grig, which):
    data = grig.b_extension if which == "grigorchuk" else _z3_data()
    p = induce_presentation(data).presentation
    assert parse_document(print_document(document_of(p))).presentation() == p


def test_t2_of_an_induced_letter_inverts():
    # G = <x, a, s | a s x s>, all involutions, F = Z/2 = <s>: the induced
    # relators are a x_s and a_s x, so T2 eliminates a_s and T1 restores it
    G = Presentation.make("x!, a!, s!", ["a s x s"], "g")
    F = cyclic_group(2, "s")
    data = SplitExtensionData(G, F, p_map=(0, 0, F.generator_map[0]), lifts=(Word.identity(G.alphabet), W(G, "s")))
    p = induce_presentation(data).presentation
    assert [str(r) for r in p.relators] == ["a x_s", "a_s x"]
    trace = FiniteEquivalenceTrace(p)
    assert trace.apply(T2("a_s")).alphabet.letters == ("x", "x_s", "a")
    assert trace.invert() == p


def test_conjugation_renormalizes_in_quotient(grig):
    # conjugating ^a T(w_1) by a: the first conjugator a becomes a*a = e
    w1 = grig.relator_family("abd", "w", 1)
    t = basic_relation(w1, grig.b_extension)
    a_elem = grig.d8.generator_map[0]
    conj = conjugate_relation(t, a_elem, grig.b_extension)
    assert t[0].conjugator == a_elem
    assert conj[0].conjugator == 0


def test_induced_presentation_json_export(klein_data):
    import json

    ind = induce_presentation(klein_data)
    payload = json.loads(json.dumps(ind.to_dict(), sort_keys=True))
    assert payload["generators"] == ["x", "x_s"]
    assert payload["pre_simplification_generator_count"] == 4
    assert payload["eliminated_generators"] == ["s", "s_s"]
    assert payload["log"]
