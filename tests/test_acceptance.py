"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with  pytest tests/test_acceptance.py -v -s  to see the criterion lines.
"""

from __future__ import annotations

import random
import time

import pytest

from helpers import group_order, phi0_letterwise

from gpq.backends import bs_oracle, cyclic_group, dihedral_group, free_abelian_oracle, free_oracle
from gpq.balls import build_ball, pi1_generators, pi1_kill_radius
from gpq.endo import EndomorphicPresentation, hnn_presentation, sigma_decode, stable_projection
from gpq.errors import DerivationDoesNotReduce, InvalidMove, NotInImage
from gpq.grigorchuk import make_grigorchuk_data, run_full_verification
from gpq.induction import SplitExtensionData, hall_compose, induce_presentation
from gpq.parsing import document_of, print_document
from gpq.presentations import Presentation, T1, T2, T3, T4, apply_move
from gpq.rewriting import (
    NullHomotopyCertificate,
    ball_null_homotopy_witness,
    dihedral_rewriting_system,
)
from gpq.words import Word, apply_substitution, free_reduce


def _report(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num}: {label}" + (f"  ({detail})" if detail else ""))
    assert ok, f"criterion {num} failed: {label} {detail}"


@pytest.fixture(scope="module")
def data():
    return make_grigorchuk_data()


def test_criterion_1_full_verification(data):
    t0 = time.monotonic()
    reports, summary = run_full_verification(data, 3)
    dt3 = time.monotonic() - t0
    ok = (
        summary.total == 96
        and summary.all_equal
        and all(r.level in ("free", "klein", "dihedral") for r in reports)
        and dt3 < 10.0
    )
    t0 = time.monotonic()
    _, summary4 = run_full_verification(data, 4)
    dt4 = time.monotonic() - t0
    ok = ok and summary4.all_equal and dt4 < 60.0
    _report(
        1,
        "96/96 identities verified with per-case level",
        ok,
        f"levels={summary.by_level}, {dt3:.2f}s for n<=3, {dt4:.2f}s for n<=4",
    )


def test_criterion_2_substitution_coherence(data):
    rng = random.Random(20240)
    mismatches = 0
    for _ in range(1000):
        n = rng.randrange(51)
        w = Word(data.abd, tuple((rng.randrange(3), 1) for _ in range(n)))
        lhs = phi0_letterwise(data, w)
        rhs = data.translate_bd_to_cd(apply_substitution(data.sigma_abd, w))
        if lhs != rhs:
            mismatches += 1
    _report(2, "letterwise phi0 = translate . sigma on 1000 random words", mismatches == 0,
            f"{mismatches} mismatches")


def test_criterion_3_decoder_round_trip(data):
    rng = random.Random(30303)
    failures = 0
    for sub in (data.sigma_acd, data.sigma_abd):
        for _ in range(1000):
            n = rng.randrange(101)
            w = Word(sub.alphabet, tuple((rng.randrange(3), 1) for _ in range(n)))
            if sigma_decode(sub, apply_substitution(sub, w)) != w:
                failures += 1

    def brute_in_image(sub, word):
        images = [img.letters for img in sub.images]
        target = word.letters
        memo = {}

        def rec(pos):
            if pos == len(target):
                return True
            if pos not in memo:
                memo[pos] = any(
                    target[pos : pos + len(img)] == img and rec(pos + len(img))
                    for img in images
                )
            return memo[pos]

        return rec(0)

    non_images = 0
    attempts = 0
    while non_images < 100 and attempts < 10_000:
        attempts += 1
        n = rng.randrange(1, 13)
        w = Word(data.acd, tuple((rng.randrange(3), 1) for _ in range(n)))
        if brute_in_image(data.sigma_acd, w):
            continue
        non_images += 1
        try:
            sigma_decode(data.sigma_acd, w)
            failures += 1
        except NotInImage:
            pass
    _report(3, "decoder round-trips 1000 words and rejects 100 non-images",
            failures == 0 and non_images == 100,
            f"{failures} failures, {non_images} non-images checked")


def test_criterion_4_loop_generator_bound():
    z2 = Presentation.make("a, b", ["a b a' b'"], "z2")
    f2 = Presentation.make("a, b", [], "f2")
    d8p = Presentation.make("a!, d!", ["a a", "d d", "(a d)^4"], "d8")
    bs = Presentation.make("a, b", ["a b a' b' b'"], "bs12")
    setups = [
        (z2, free_abelian_oracle(2, z2.alphabet)),
        (f2, free_oracle(2, f2.alphabet)),
        (d8p, dihedral_group(8, ("a", "d"))),
        (bs, bs_oracle(1, 2)),
    ]
    ok = True
    checked = 0
    for p, oracle in setups:
        for r in range(4):
            ball = build_ball(oracle, p, r)
            lcs = pi1_generators(ball)
            ok = ok and lcs.rank == len(ball.edges) - len(ball.vertices) + 1
            ok = ok and all(len(g) <= 2 * r + 1 for g in lcs.generators)
            checked += 1
    _report(4, "generator length <= 2r+1 and rank = E-V+1 on 4 backends, r <= 3",
            ok, f"{checked} balls")


def test_criterion_5_witness_and_kill_radius_consistency():
    rs = dihedral_rewriting_system(8, ("a", "d"))
    p = Presentation.make("a!, d!", ["a a", "d d", "(a d)^4"], "d8")
    oracle = dihedral_group(8, ("a", "d"))
    ok = True
    for r in (1, 2):
        cert = ball_null_homotopy_witness(rs, p, r)
        ok = ok and isinstance(cert, NullHomotopyCertificate)
        for _, trace in cert.witnesses:
            lengths = [len(s.before) for s in trace.steps] + [
                len(trace.steps[-1].after) if trace.steps else 0
            ]
            ok = ok and all(l1 >= l2 for l1, l2 in zip(lengths, lengths[1:]))
        ok = ok and pi1_kill_radius(oracle, p, r, r + 2) == r
    _report(5, "geodesic witnesses exist for r <= 2 and kill radius = r", ok)


def test_criterion_6_lattice_ball_counts():
    from itertools import product as iproduct

    ok = True
    details = []
    for k in (1, 2, 3):
        letters = ["a", "b", "c"][:k]
        rels = [
            f"{letters[i]} {letters[j]} {letters[i]}' {letters[j]}'"
            for i in range(k)
            for j in range(i + 1, k)
        ]
        p = Presentation.make(", ".join(letters), rels, f"z{k}")
        oracle = free_abelian_oracle(k, p.alphabet)
        for r in range(5):
            expected = sum(
                1
                for xs in iproduct(range(-r, r + 1), repeat=k)
                if sum(map(abs, xs)) <= r
            )
            got = len(build_ball(oracle, p, r).vertices)
            ok = ok and got == expected
            if k == 2 and r == 2:
                details.append(f"Z^2 r=2: {got}")
    _report(6, "lattice ball vertex counts match integer-point enumeration", ok,
            "; ".join(details))


def test_criterion_7_induction_orders():
    G = Presentation.make("x!, s!", ["x x", "s s", "(x s)^2"], "klein4")
    F = cyclic_group(2, "s")
    d = SplitExtensionData(
        G, F, p_map=(0, F.generator_map[0]),
        lifts=(Word.identity(G.alphabet), Word.from_str(G.alphabet, "s")),
    )
    ind = induce_presentation(d)
    order_k = group_order(ind.presentation)
    ok = order_k == 2 and ind.pre_simplification_generator_count == F.order * len(G.alphabet)

    K = Presentation.make("k!", ["k k"], "K")
    Fp = Presentation.make("m!", ["m m"], "F")
    composed = hall_compose(
        K, Fp, (Word.identity(K.alphabet),),
        {(0, 0): Word.from_str(K.alphabet, "k")},
    )
    order_g = group_order(composed)
    ok = ok and order_g == 4
    _report(7, "induced Klein-four kernel has order 2; Hall composition has order 4",
            ok, f"orders {order_k} and {order_g}")


def test_criterion_8_tietze_inversion():
    rng = random.Random(8080)
    p = Presentation.make("a, b!", ["a b a' b", "(b a)^3"], "seed")

    def random_word(alphabet, max_len=6):
        letters = []
        for _ in range(rng.randrange(max_len + 1)):
            i = rng.randrange(len(alphabet))
            e = 1 if alphabet.involutive[i] else rng.choice((1, -1))
            letters.append((i, e))
        return Word(alphabet, tuple(letters))

    failures = 0
    for k in range(500):
        if rng.random() < 0.5:
            move = T1(f"g{k}", random_word(p.alphabet))
        else:
            cert = tuple(
                (random_word(p.alphabet), rng.randrange(len(p.relators)), rng.choice((1, -1)))
                for _ in range(rng.randrange(1, 4))
            )
            prod = Word.identity(p.alphabet)
            for conj, idx, exp in cert:
                base = p.relators[idx] if exp == 1 else p.relators[idx].inverse()
                prod = prod * conj * base * conj.inverse()
            move = T3(free_reduce(prod), cert)
        q, inverse = apply_move(p, move)
        restored, _ = apply_move(q, inverse)
        if restored != p:
            failures += 1
        p = q

    rejected = 0
    try:
        apply_move(p, T2("a"))  # 'a' is not a lone defined generator
    except InvalidMove:
        rejected += 1
    try:
        apply_move(p, T4(0, ()))  # empty certificate cannot derive a relator
    except (InvalidMove, DerivationDoesNotReduce):
        rejected += 1
    _report(8, "500 random T1/T3 moves invert byte-identically; bad T2/T4 rejected",
            failures == 0 and rejected == 2, f"{failures} inversion failures")


def test_criterion_9_hnn_golden_and_projection(data):
    from pathlib import Path

    ep = EndomorphicPresentation(
        alphabet=data.acd,
        q_relators=(),
        substitutions=(data.sigma_acd,),
        r_relators=(
            Word.from_str(data.acd, "a a"),
            Word.from_str(data.acd, "(a d)^4"),
            Word.from_str(data.acd, "(a d a c a c)^4"),
        ),
        stable_names=("t",),
        name="grigorchuk_acd",
    )
    hp = hnn_presentation(ep)
    rendered = "# conjugacy orientation: t s t' = image(s)\n" + print_document(document_of(hp))
    golden = (Path(__file__).parent / "golden" / "grigorchuk_hnn.gp").read_text()
    ok = rendered == golden

    rng = random.Random(909)
    comb = ep.combined_alphabet()
    t_idx = comb.index("t")
    bad = 0
    for _ in range(1000):
        letters = []
        for _ in range(rng.randrange(15)):
            i = rng.randrange(len(comb))
            e = 1 if comb.involutive[i] else rng.choice((1, -1))
            letters.append((i, e))
        w = Word(comb, tuple(letters))
        proj = stable_projection(ep, w)
        # append the inverse projection to land in the kernel
        kernel_word = w * Word(comb, tuple((t_idx, -e) for _, e in reversed(proj.letters)))
        if not stable_projection(ep, kernel_word).is_empty():
            bad += 1
            continue
        net = sum(e for i, e in kernel_word.letters if i == t_idx)
        if net != 0:
            bad += 1
    _report(9, "HNN presentation matches the golden file; kernel words have zero net exponent",
            ok and bad == 0, f"golden={'ok' if ok else 'DIFFERS'}, {bad} bad kernel words")
