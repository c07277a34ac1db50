import pytest

from equidiv import (
    Perm,
    SymbolPerm,
    build_counterexample,
    lazy_apply_symbols,
    lazy_check_symmetry,
    lazy_equal,
    ordering_gadget,
    render_lazy,
)
from equidiv.corpus import check_lazy_tables


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

    def test_structural_bijectivity(self):
        # every output cell in a window is hit exactly once
        lazy = build_counterexample(Perm.from_cycles([(0, 1, 2)], 4), tuple("abcd"))
        outputs = [lazy.eval(n, i) for i in range(4) for n in range(1, 13)]
        assert len(outputs) == len(set(outputs))
        ints = [(v, c) for v, c in outputs if isinstance(v, int)]
        assert all(1 <= v for v, _ in ints)

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
