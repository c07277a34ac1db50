import hashlib
import itertools

import pytest

from equidiv import (
    LazyBij,
    Perm,
    SymbolPerm,
    build_counterexample,
    lazy_apply_symbols,
    lazy_check_symmetry,
    lazy_equal,
    ordering_gadget,
    parse_cycles,
    render_lazy,
)
from equidiv.cli import main
from equidiv.corpus import check_lazy_tables

#: sha256 of ``gallery thm4 GAMMA --labels LABELS --window W`` stdout (first
#: 16 hex digits) at W = 1, |C| and 3|C|, for every cycle type on at most six
#: labels whose nontrivial cycles share one length.  The fixed labels come
#: first, and the cycles interleave.
THM4_DIGESTS = {
    ("(a,b)", "a b"): ("a7402312c9330969", "19d031a679a4fb81", "b69c57958cdf41bc"),
    ("(b,c)", "a b c"): ("d59c2c2c5a796f3a", "426107d853277c87", "f1cd747eb1bb7300"),
    ("(a,b,c)", "a b c"): ("ac668702c8b3fc45", "2ba519621dcf6aa6", "9f4c48470338eaac"),
    ("(c,d)", "a b c d"): ("173347fa28256509", "4eab97d7dc3c9217", "962b0a1fa7a224cb"),
    ("(a,c)(b,d)", "a b c d"): ("f58a5b5c99d5e06e", "7c3992fbdccfda32", "335c10a67faa8d48"),
    ("(b,c,d)", "a b c d"): ("391473396f0cf547", "7295ab36352e5408", "13ef163bc4881585"),
    ("(a,b,c,d)", "a b c d"): ("a97047da4a5b9567", "dd4f6cb36ba9b7c4", "7003d44bdabad9fc"),
    ("(d,e)", "a b c d e"): ("0cb19e1473232b16", "d96f195c6d4fcc92", "cf55c2869793db8a"),
    ("(b,d)(c,e)", "a b c d e"): ("26aee42826156f3e", "a129e780802a2c00", "cc511c7ac4b35cc3"),
    ("(c,d,e)", "a b c d e"): ("e777f2d50d610245", "18d0ba582a8792e0", "1d65b9a1645bc7d6"),
    ("(b,c,d,e)", "a b c d e"): ("26aee42826156f3e", "25ba33d1062c48f3", "911dc5581923cde3"),
    ("(a,b,c,d,e)", "a b c d e"): ("7ab0f0495a1849d5", "495c8a82f946408d", "9bc5662fccd54c11"),
    ("(e,f)", "a b c d e f"): ("badb89ea506397b6", "f2843ac0068b2d7b", "a3dc791f6be5b5f9"),
    ("(c,e)(d,f)", "a b c d e f"): ("161763d537035445", "9c8f70638df14d0e", "22338edd9abe0b0e"),
    ("(a,d)(b,e)(c,f)", "a b c d e f"): (
        "526f4c8f864e0611", "3c3a27c5c91d59bb", "fe64f78437dc8aee"
    ),
    ("(d,e,f)", "a b c d e f"): ("e60ceafe7acfc9a7", "d0d02f446cfefe14", "8d7d53c6e90408b8"),
    ("(a,c,e)(b,d,f)", "a b c d e f"): (
        "9acc3ebe4ff81d67", "570e3bb65d661d41", "28c25cb568d65fb8"
    ),
    ("(c,d,e,f)", "a b c d e f"): ("161763d537035445", "aa04ec0549a03523", "d94a51f053413bb2"),
    ("(b,c,d,e,f)", "a b c d e f"): ("c0defdfa1bedc0f9", "da68e33f1b92b46b", "5d817f3d6aa7dd12"),
    ("(a,b,c,d,e,f)", "a b c d e f"): (
        "92c36425cc937ec6", "a892d83a24a0db4c", "75c59a17b32407d0"
    ),
}
THM4_CASES = list(THM4_DIGESTS)


class TestSymbolPerm:
    def test_fixes_integers(self):
        s = SymbolPerm((("K", "Q"), ("Q", "K")))
        assert s(3) == 3 and s("K") == "Q"

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            SymbolPerm((("K", "Q"), ("Q", "Q")))

    def test_identity(self):
        assert SymbolPerm((("K", "K"),)).is_identity()
        assert not SymbolPerm((("K", "Q"), ("Q", "K"))).is_identity()


class TestBuildCounterexample:
    def test_printed_tables_corpus(self):
        check_lazy_tables()

    def test_rejects_identity(self):
        with pytest.raises(ValueError):
            build_counterexample(Perm.identity(2), ("a", "b"))

    def test_rejects_mixed_cycle_lengths(self):
        gamma = Perm.from_cycles([(0, 1), (2, 3, 4)], 5)
        with pytest.raises(ValueError):
            build_counterexample(gamma, tuple("abcde"))

    def test_semiregular_power_unblocks(self):
        gamma = Perm.from_cycles([(0, 1), (2, 3, 4)], 5)
        power = Perm.from_cycles([(0, 1)], 5)  # the 3-cycle of gamma^3 is fixed points
        assert gamma.then(gamma).then(gamma) == power
        lazy = build_counterexample(power, tuple("abcde"))
        assert lazy_check_symmetry(lazy, lazy.beta_on_symbols, lazy.gamma)

    @pytest.mark.parametrize("gamma,labels", THM4_CASES)
    @pytest.mark.parametrize("k", range(3), ids=["w1", "wC", "w3C"])
    def test_output_digest(self, capsys, gamma, labels, k):
        n_c = len(labels.split())
        window = (1, n_c, 3 * n_c)[k]
        argv = ["gallery", "thm4", gamma, "--labels", labels, "--window", str(window)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == THM4_DIGESTS[gamma, labels][k]

    @pytest.mark.parametrize("gamma,labels", THM4_CASES)
    def test_structural_bijectivity(self, gamma, labels):
        labels = tuple(labels.split())
        lazy = build_counterexample(parse_cycles(gamma, labels), labels)
        n_c = len(labels)
        # no output cell in a window is hit twice, and the symbol cells all are
        outputs = [lazy.eval(n, i) for i in range(n_c) for n in range(1, 3 * n_c + 1)]
        assert len(outputs) == len(set(outputs))
        symbol_cells = {(v, c) for v, c in outputs if isinstance(v, str)}
        assert symbol_cells == set(itertools.product(lazy.symbols, range(n_c)))
        assert all(v >= 1 for v, _ in outputs if isinstance(v, int))
        # the printed beta is the only symbol permutation that goes with gamma
        beta = lazy.beta_on_symbols
        assert lazy_check_symmetry(lazy, beta, lazy.gamma)
        for images in itertools.permutations(lazy.symbols):
            if images != tuple(map(beta, lazy.symbols)):
                other = SymbolPerm(tuple(zip(lazy.symbols, images)))
                assert not lazy_check_symmetry(lazy, other, lazy.gamma)

    @pytest.mark.parametrize(
        "symbol_by_row",
        [
            ("K", "Q"),  # one row too few
            ("K", None, None),  # a moved row without a symbol
            ("K", "Q", "J"),  # a fixed row with one
            ("K", "K", None),  # two rows share a symbol
            ("K", 7, None),  # not a string
        ],
    )
    def test_rejects_inconsistent_rows(self, symbol_by_row):
        with pytest.raises(ValueError):
            LazyBij(tuple("abc"), Perm.from_cycles([(0, 1)], 3), symbol_by_row)

    @pytest.mark.parametrize(
        "gamma,labels,message",
        [
            (Perm.from_cycles([(0, 1)], 2), ("a", "b", "c"), "gamma degree must match |C|"),
            # two rows named a could not say which one a "Ka" entry means
            (Perm.from_cycles([(0, 1)], 3), ("a", "b", "a"), "repeated C label in: ('a', 'b', 'a')"),
        ],
        ids=["degree", "repeated-label"],
    )
    def test_rejects_labels_that_do_not_name_the_rows(self, gamma, labels, message):
        with pytest.raises(ValueError) as exc:
            build_counterexample(gamma, labels)
        assert str(exc.value) == message

    def test_eval_rejects_nonpositive_column(self):
        lazy = ordering_gadget("a", "b", "c")
        with pytest.raises(ValueError):
            lazy.eval(0, 0)

    def test_printed_symmetry_is_halffixed(self):
        lazy = build_counterexample(Perm.from_cycles([(0, 1)], 2), ("a", "b"))
        # alpha is the identity on the positive integers by construction
        assert not lazy.beta_on_symbols.is_identity()


class TestLazyEquality:
    def test_reflexive(self):
        g = ordering_gadget("a", "b", "c")
        assert lazy_equal(g, g)

    def test_row_matching_by_label(self):
        # same function declared over reordered labels is still equal
        x = build_counterexample(Perm.from_cycles([(0, 1)], 3), ("a", "b", "c"))
        y = build_counterexample(Perm.from_cycles([(1, 0)], 3), ("a", "b", "c"))
        assert lazy_equal(x, y)

    def test_distinguishes_guises(self):
        assert not lazy_equal(ordering_gadget("a", "b", "c"), ordering_gadget("b", "a", "c"))

    def test_different_label_sets_differ(self):
        assert not lazy_equal(ordering_gadget("a", "b", "c"), ordering_gadget("a", "b", "d"))
        two = build_counterexample(Perm.from_cycles([(0, 1)], 2), ("a", "b"))
        assert not lazy_equal(two, ordering_gadget("a", "b", "c"))

    def test_symbol_swap_swaps_guises(self):
        swap = SymbolPerm((("K", "Q"), ("Q", "K")))
        swapped = lazy_apply_symbols(ordering_gadget("a", "b", "c"), swap)
        assert lazy_equal(swapped, ordering_gadget("b", "a", "c"))


class TestRenderLazy:
    def test_window(self):
        text = render_lazy(ordering_gadget("a", "b", "c"), 4)
        assert text.splitlines() == [
            "row a: Ka Kb Kc 1a",
            "row b: Qb Qa Qc 1b",
            "row c: 1c 2c 3c 4c",
        ]

    def test_checker_rejects_wrong_degree(self):
        lazy = ordering_gadget("a", "b", "c")
        with pytest.raises(ValueError):
            lazy_check_symmetry(lazy, lazy.beta_on_symbols, Perm.identity(2))

    def test_checker_rejects_wrong_beta(self):
        lazy = ordering_gadget("a", "b", "c")
        wrong = SymbolPerm((("K", "K"), ("Q", "Q")))
        assert not lazy_check_symmetry(lazy, wrong, lazy.gamma)

    def test_checker_rejects_wrong_gamma(self):
        lazy = ordering_gadget("a", "b", "c")
        bad = Perm.from_cycles([(0, 2)], 3)  # maps a moved row to a fixed row
        assert not lazy_check_symmetry(lazy, lazy.beta_on_symbols, bad)
