import random
import tracemalloc

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from equidiv import (
    BijFile,
    FormatError,
    Perm,
    ProdBij,
    parse_bijection,
    parse_symmetries,
    serialize_bijection,
)
from equidiv.cli import main

from conftest import cell, from_nested, identity_table, random_bij, random_perm

sizes = st.tuples(st.integers(1, 4), st.integers(1, 3))


@st.composite
def bijections(draw):
    n_a, n_c = draw(sizes)
    flat = draw(st.permutations(range(n_a * n_c)))
    return ProdBij.from_flat(flat, n_a, n_c)


@st.composite
def nested_tables(draw):
    """(nA, nC, rows) with rows[c][a] = (b, c'), drawn without ProdBij; some parallel."""
    n_a, n_c = draw(st.integers(0, 4)), draw(st.integers(1, 3))
    if draw(st.booleans()):
        cells = draw(st.permutations([(b, c2) for c2 in range(n_c) for b in range(n_a)]))
        return n_a, n_c, [cells[c * n_a:(c + 1) * n_a] for c in range(n_c)]
    perms = [draw(st.permutations(range(n_a))) for _ in range(n_c)]
    return n_a, n_c, [[(b, c) for b in row] for c, row in enumerate(perms)]


# -- by-definition references for the flat operations, on nested rows
# rows[c][a] = (b, c') (built into a table by conftest.from_nested)


def _inverse_reference(n_a, n_c, rows):
    inv = [[(0, 0)] * n_a for _ in range(n_c)]
    for c in range(n_c):
        for a in range(n_a):
            b, c2 = rows[c][a]
            inv[c2][b] = (a, c)
    return from_nested(n_a, n_c, inv)


def _transform_reference(n_a, n_c, rows, alpha, beta, gamma):
    out = [[(0, 0)] * n_a for _ in range(n_c)]
    for c in range(n_c):
        for a in range(n_a):
            b, c2 = rows[c][a]
            out[gamma(c)][alpha(a)] = (beta(b), gamma(c2))
    return from_nested(n_a, n_c, out)


def _serialize_reference(n_a, n_c, rows):
    out = ["EQUIDIV 1", f"bij nA {n_a} nB {n_a} nC {n_c}"]
    for c in range(n_c):
        body = " ".join(f"{b}:{c2}" for b, c2 in rows[c])
        out.append(f"row {c}: {body}".rstrip())
    return "\n".join(out) + "\n"


#: Tokens that are no cell's canonical name, yet some of which int() reads:
#: 01:0, +0:0 and +1:0 as in-range cells, the Arabic-Indic digit in ١:1 as 1,
#: and 1_0:0 as b = 10.
ODD_TOKENS = ("01:0", "+0:0", "+1:0", "١:1", "1_0:0", "1:0:0", ":1", "1:", "2:0")


def _parse_rows_reference(n_a, n_c, row_lines):
    """The table that these row lines hold, read token by token by definition:
    the first error in line order is raised, except that an out-of-range
    entry is reported after the format checks, for the lowest row index."""
    rows, first_out_of_range = {}, {}
    for line in row_lines:
        head, _, body = line.partition(":")
        c = int(head[len("row "):])
        if c in rows or not 0 <= c < n_c:
            raise FormatError(f"bad or duplicate row index in: {line!r}")
        rows[c] = []
        for tok in body.split():
            b_s, _, c_s = tok.partition(":")
            try:
                b, c2 = int(b_s), int(c_s)
            except ValueError:
                raise FormatError(f"bad entry {tok!r}") from None
            if not (0 <= b < n_a and 0 <= c2 < n_c):
                first_out_of_range.setdefault(c, (b, c2))
            rows[c].append(c2 * n_a + b)
        if len(rows[c]) != n_a:
            raise FormatError(f"row {c} has {len(rows[c])} entries, expected {n_a}")
    if set(rows) != set(range(n_c)):
        raise FormatError("missing rows")
    if first_out_of_range:
        raise FormatError(f"entry out of range: {first_out_of_range[min(first_out_of_range)]}")
    try:
        return ProdBij.from_flat([t for c in range(n_c) for t in rows[c]], n_a, n_c)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


@st.composite
def row_lines(draw):
    """(nA, nC, row lines) of a canonical table, then up to four edits: an odd
    token, a dropped token, an added or a repeated cell; rows in any order."""
    n_a, n_c = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    names = [f"{b}:{c2}" for c2 in range(n_c) for b in range(n_a)]
    cells = draw(st.permutations(names))
    rows = [cells[c * n_a:(c + 1) * n_a] for c in range(n_c)]
    for _ in range(draw(st.integers(0, 4))):
        row = rows[draw(st.integers(0, n_c - 1))]
        i = draw(st.integers(0, len(row)))
        edit = draw(st.sampled_from(("odd", "drop", "add", "repeat")))
        if edit == "add":
            row.insert(i, draw(st.sampled_from(names)))
        elif i < len(row):
            if edit == "drop":
                del row[i]
            else:
                row[i] = draw(st.sampled_from(ODD_TOKENS if edit == "odd" else names))
    sep = draw(st.sampled_from((" ", "  ", "\t")))
    order = draw(st.permutations(range(n_c)))
    return n_a, n_c, [f"row {c}: " + sep.join(rows[c]) for c in order]


class TestProdBij:
    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            from_nested(2, 1, (((0, 0), (0, 0)),))
        with pytest.raises(ValueError):
            from_nested(2, 1, (((0, 0), (2, 0)),))
        with pytest.raises(ValueError):
            from_nested(2, 2, (((0, 0), (1, 0)),))  # wrong shape

    @pytest.mark.parametrize(
        "n_a,n_c,entries,message",
        [
            (-1, 0, (), "negative size"),
            (2, -1, (), "negative size"),
            (2, 2, (((0, 0), (1, 0)),), "table shape does not match sizes"),
            (2, 1, (((0, 0),),), "table shape does not match sizes"),
            (2, 1, (((0, 0), (2, 0)),), "entry out of range: (2, 0)"),
            (2, 1, (((0, 0), (1, 1)),), "entry out of range: (1, 1)"),
            (2, 1, (((-1, 0), (1, 0)),), "entry out of range: (-1, 0)"),
            (2, 1, (((0, 0), (0, 0)),), "not a bijection"),
            (2, 2, (((1, 1), (0, 0)), ((1, 0), (0, 0))), "not a bijection"),
            # a repeat before an out-of-range entry still reports the range
            (2, 2, (((0, 0), (0, 0)), ((1, 0), (0, 2))), "entry out of range: (0, 2)"),
        ],
    )
    def test_rejection_messages(self, n_a, n_c, entries, message):
        # the nested reference range-checks each (b, c'); from_flat the rest
        with pytest.raises(ValueError) as exc:
            from_nested(n_a, n_c, entries)
        assert str(exc.value) == message

    def test_list_input_becomes_tuples(self):
        f = ProdBij.from_flat([3, 0, 1, 2], 2, 2)
        assert type(f.fwd) is tuple
        assert f == ProdBij.from_flat(iter(f.fwd), 2, 2)
        assert f == from_nested(2, 2, [[[1, 1], [0, 0]], [[1, 0], [0, 1]]])

    def test_no_public_attribute_added(self):
        f = identity_table(3, 2)
        assert {k for k in vars(f) if not k.startswith("_")} == {"n_a", "n_c", "fwd"}

    def test_built_only_from_flat(self):
        with pytest.raises(TypeError):
            ProdBij(2, 1, (((0, 0), (1, 0)),))

    def test_flat_matches_definition_for_every_constructor(self):
        def by_definition(f):
            fwd = [0] * (f.n_a * f.n_c)
            for c in range(f.n_c):
                for a in range(f.n_a):
                    b, c2 = cell(f, a, c)
                    fwd[c * f.n_a + a] = c2 * f.n_a + b
            inv = [0] * len(fwd)
            for s, t in enumerate(fwd):
                inv[t] = s
            return tuple(fwd), tuple(inv)

        rng = random.Random(41)
        f = random_bij(rng, 5, 3)
        tables = [
            identity_table(4, 3),
            identity_table(0, 2),
            f,
            ProdBij.parallel_from_rows([rng.sample(range(5), 5) for _ in range(3)]),
            f.transform(random_perm(rng, 5), random_perm(rng, 5), random_perm(rng, 3)),
            parse_bijection(serialize_bijection(f)).bij,
            from_nested(5, 3, [[list(cell(f, a, c)) for a in range(5)] for c in range(3)]),
        ]
        for g in tables:
            assert (g.fwd, g.inv) == by_definition(g)

    @given(nested_tables(), st.data())
    def test_flat_readers_match_nested_references(self, table, data):
        n_a, n_c, rows = table
        f = from_nested(n_a, n_c, rows)
        assert all(cell(f, a, c) == rows[c][a] for c in range(n_c) for a in range(n_a))
        assert [f.row(c) for c in range(n_c)] == [tuple(b for b, _ in r) for r in rows]
        assert f.is_parallel() == all(c2 == c for c in range(n_c) for _, c2 in rows[c])
        assert f.inverse() == _inverse_reference(n_a, n_c, rows)
        alpha, beta = (Perm(tuple(data.draw(st.permutations(range(n_a))))) for _ in "ab")
        gamma = Perm(tuple(data.draw(st.permutations(range(n_c)))))
        assert f.transform(alpha, beta, gamma) == _transform_reference(
            n_a, n_c, rows, alpha, beta, gamma
        )
        assert serialize_bijection(f) == _serialize_reference(n_a, n_c, rows)

    @pytest.mark.parametrize(
        "flat,message",
        [
            ((0, 1, 2), "table shape does not match sizes"),
            ((0, 1, 2, 3, 4), "table shape does not match sizes"),
            ((0, 1, 2, 4), "flat index out of range"),
            ((-1, 0, 1, 2), "flat index out of range"),
            ((0, 1, 2, 2), "not a bijection"),
        ],
    )
    def test_from_flat_rejects(self, flat, message):
        with pytest.raises(ValueError) as exc:
            ProdBij.from_flat(flat, 2, 2)
        assert str(exc.value) == message

    # (-1, -2) has a product, 2, that the flat table's length matches
    @pytest.mark.parametrize("n_a,n_c,flat", [(-1, 0, ()), (2, -1, ()), (-1, -2, (0, 1))])
    def test_from_flat_rejects_negative_size(self, n_a, n_c, flat):
        with pytest.raises(ValueError) as exc:
            ProdBij.from_flat(flat, n_a, n_c)
        assert str(exc.value) == "negative size"

    def test_empty_c_rejected(self):
        # C is non-empty in every table, so every table serializes to a file
        # that parse_bijection reads
        empty = r"^nC must be >= 1: C must be non-empty$"
        with pytest.raises(ValueError, match=empty):
            ProdBij.from_flat([], 2, 0)
        with pytest.raises(ValueError, match=empty):
            ProdBij.parallel_from_rows([])

    def test_parallel_rows_must_be_permutations(self):
        # flat 0 2 3 1 is a permutation, but b = 2 and b = -1 are not in A
        with pytest.raises(ValueError):
            ProdBij.parallel_from_rows([(0, 2), (1, -1)])

    def test_identity(self):
        f = identity_table(2, 2)
        assert f.is_parallel()
        assert f.row(0) == (0, 1) and f.row(1) == (0, 1)

    def test_row_range(self):
        with pytest.raises(IndexError):
            identity_table(2, 2).row(2)

    @given(bijections())
    def test_from_flat_roundtrip(self, f):
        flat = [0] * (f.n_a * f.n_c)
        for c in range(f.n_c):
            for a in range(f.n_a):
                b, c2 = cell(f, a, c)
                flat[c * f.n_a + a] = c2 * f.n_a + b
        assert ProdBij.from_flat(flat, f.n_a, f.n_c) == f

    @given(bijections())
    def test_flat_roundtrip(self, f):
        fwd, inv = f.fwd, f.inv
        assert ProdBij.from_flat(fwd, f.n_a, f.n_c) == f
        assert ProdBij.from_flat(inv, f.n_a, f.n_c) == f.inverse()
        assert all(inv[t] == s for s, t in enumerate(fwd))

    @given(bijections())
    def test_inverse_involution(self, f):
        g = f.inverse()
        for c in range(f.n_c):
            for a in range(f.n_a):
                assert cell(g, *cell(f, a, c)) == (a, c)
        assert g.inverse() == f

    @given(bijections())
    def test_transform_identity(self, f):
        ident_a = Perm.identity(f.n_a)
        ident_c = Perm.identity(f.n_c)
        assert f.transform(ident_a, ident_a, ident_c) == f

    def test_transform_group_action(self):
        rng = random.Random(7)
        for _ in range(50):
            f = random_bij(rng, 3, 3)
            a1, b1, g1 = (random_perm(rng, 3) for _ in range(3))
            a2, b2, g2 = (random_perm(rng, 3) for _ in range(3))
            lhs = f.transform(a1, b1, g1).transform(a2, b2, g2)
            rhs = f.transform(a1.then(a2), b1.then(b2), g1.then(g2))
            assert lhs == rhs

    def test_transform_degree_mismatch(self):
        f = identity_table(2, 3)
        with pytest.raises(ValueError):
            f.transform(Perm.identity(3), Perm.identity(2), Perm.identity(3))


class TestSubtract:
    def test_parallel_example(self):
        f = ProdBij.parallel_from_rows([(0, 1, 2), (1, 2, 0)])
        sub, a_kept, b_kept = f.subtract(((0, 0),))
        assert a_kept == (1, 2) and b_kept == (1, 2)
        assert sub.row(0) == (0, 1)

    def test_escape_chain(self):
        # f(a, c) = (a xor c, c); removing 0 -> 0 reroutes through row 1
        f = ProdBij.parallel_from_rows([(0, 1), (1, 0)])
        sub, _, _ = f.subtract(((0, 0),))
        assert sub.n_a == 1
        # survivor must still be a bijection onto (B - {0}) x C
        outs = {cell(sub, 0, c) for c in range(2)}
        assert outs == {(0, 0), (0, 1)}

    def test_covers_exactly(self):
        rng = random.Random(11)
        for _ in range(100):
            f = random_bij(rng, 4, 3)
            k = rng.randrange(4)
            a_rm = rng.sample(range(4), k)
            b_rm = rng.sample(range(4), k)
            sub, a_kept, b_kept = f.subtract(tuple(zip(a_rm, b_rm)))
            assert sub.n_a == 4 - k
            assert set(a_kept) == set(range(4)) - set(a_rm)
            assert set(b_kept) == set(range(4)) - set(b_rm)

    @given(st.data())
    def test_subtraction_composes(self, data):
        # f - j1, then j2 in the survivors' labels, is f - (j1 | j2)
        f = data.draw(bijections())
        a_side = data.draw(st.permutations(range(f.n_a)))
        b_side = data.draw(st.permutations(range(f.n_a)))
        k1 = data.draw(st.integers(0, f.n_a))
        k2 = data.draw(st.integers(0, f.n_a - k1))
        j1 = tuple(zip(a_side[:k1], b_side[:k1]))
        j2 = tuple(zip(a_side[k1:k1 + k2], b_side[k1:k1 + k2]))
        first, a1, b1 = f.subtract(j1)
        second, a2, b2 = first.subtract(tuple((a1.index(a), b1.index(b)) for a, b in j2))
        both, a12, b12 = f.subtract(j1 + j2)
        assert second == both
        assert tuple(a1[i] for i in a2) == a12
        assert tuple(b1[i] for i in b2) == b12

    def test_rejects_noninjective(self):
        # a repeated b, a repeated a, and one pair listed twice
        for pairs in ((0, 0), (1, 0)), ((0, 0), (0, 1)), ((0, 0), (0, 0)):
            with pytest.raises(ValueError, match="^partial map is not injective$"):
                identity_table(2, 1).subtract(pairs)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="^partial map outside index range$"):
            identity_table(2, 1).subtract(((5, 0),))


class TestFileFormat:
    @given(bijections())
    def test_roundtrip(self, f):
        labels = tuple(f"c{i}" for i in range(f.n_c))
        text = serialize_bijection(f, c_labels=labels)
        bf = parse_bijection(text)
        assert bf.bij == f and bf.c_labels == labels
        assert serialize_bijection(bf.bij, c_labels=bf.c_labels) == text

    def test_comments_and_blank_lines(self):
        text = (
            "# comment\nEQUIDIV 1\n\nbij nA 1 nB 1 nC 1  # inline\nrow 0: 0:0\n"
        )
        assert parse_bijection(text).bij == identity_table(1, 1)

    @pytest.mark.parametrize("reader", ["bijection", "symmetries", "regular-rep"])
    def test_line_readers_skip_comments_and_padding(self, reader, tmp_path, capsys):
        """Each line-based reader gives the same result when every line is
        padded and commented, and blank and comment lines come between."""
        if reader == "bijection":
            text = "EQUIDIV 1\nbij nA 2 nB 2 nC 2\nlabels C: a b\nrow 0: 0:0 1:0\nrow 1: 1:1 0:1\n"
            read = parse_bijection
        elif reader == "symmetries":
            text = "alpha ()\nbeta (0,1)\ngamma (a,b)\nalpha (0,1)\nbeta ()\ngamma ()\n"

            def read(text):
                return parse_symmetries(text, ("0", "1"), ("0", "1"), ("a", "b"))
        else:
            text = "0 1 2\n1 2 0\n2 0 1\n"

            def read(text):
                path = tmp_path / "table.txt"
                path.write_text(text)
                code = main(["gallery", "regular-rep", str(path)])
                return code, capsys.readouterr().out

        noisy = "# leading comment\n\n" + "".join(
            f"  {line} \t# trailing\n   \n\t# full line\n" for line in text.splitlines()
        )
        assert read(noisy) == read(text)

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "EQUIDIV 2\nbij nA 1 nB 1 nC 1\nrow 0: 0:0\n",
            "EQUIDIV 1\n",
            "EQUIDIV 1\nbij nA 1 nB 2 nC 1\nrow 0: 0:0\n",
            "EQUIDIV 1\nbij nA 1 nB 1 nC 1\n",
            "EQUIDIV 1\nbij nA 1 nB 1 nC 1\nrow 0: 0:0\nrow 0: 0:0\n",
            "EQUIDIV 1\nbij nA 2 nB 2 nC 1\nrow 0: 0:0\n",
            "EQUIDIV 1\nbij nA 2 nB 2 nC 1\nrow 0: 0:0 0:0\n",
            "EQUIDIV 1\nbij nA 1 nB 1 nC 1\nlabels D: x\nrow 0: 0:0\n",
            "EQUIDIV 1\nbij nA 1 nB 1 nC 1\nlabels C: x y\nrow 0: 0:0\n",
            "EQUIDIV 1\nbij nA 1 nB 1 nC 1\nwhat\nrow 0: 0:0\n",
            # a repeated label, and a second labels line for one side
            "EQUIDIV 1\nbij nA 1 nB 1 nC 2\nlabels C: a a\nrow 0: 0:0\nrow 1: 0:1\n",
            "EQUIDIV 1\nbij nA 1 nB 1 nC 2\nlabels C: a b\nlabels C: b a\n"
            "row 0: 0:0\nrow 1: 0:1\n",
            # C must be non-empty
            "EQUIDIV 1\nbij nA 2 nB 2 nC 0\n",
        ],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(FormatError):
            parse_bijection(text)

    @pytest.mark.parametrize(
        "rows",
        [
            # 2:0 is flat index 2, a cell of row 1, so the flat table 0 2 1 3 is a
            # permutation: only the check on b itself rejects it
            "row 0: 0:0 2:0\nrow 1: 1:0 1:1\n",
            # rows in any order, and a repeat, still report row 0's range first
            "row 1: 0:5 1:1\nrow 0: 0:0 2:0\n",
            "row 0: 0:0 0:0\nrow 1: 2:0 1:1\n",
        ],
    )
    def test_entry_range_checked_per_side(self, rows):
        with pytest.raises(FormatError) as exc:
            parse_bijection("EQUIDIV 1\nbij nA 2 nB 2 nC 2\n" + rows)
        assert str(exc.value) == "entry out of range: (2, 0)"

    @pytest.mark.parametrize("side", ["A", "B", "C"])
    @pytest.mark.parametrize("names", ["x,y z", "() z", "x) y", "x (y"])
    def test_rejects_labels_cycle_notation_cannot_hold(self, side, names):
        """A label with '(', ')' or ',' could not be read back from a listing."""
        rows = "row 0: 0:0 1:0\nrow 1: 1:1 0:1\n"
        text = f"EQUIDIV 1\nbij nA 2 nB 2 nC 2\nlabels {side}: {names}\n{rows}"
        with pytest.raises(FormatError) as exc:
            parse_bijection(text)
        assert str(exc.value) == f"label with '(', ')' or ',' in: 'labels {side}: {names}'"

    @pytest.mark.parametrize(
        "head,rows",
        [
            ("bij nA -1 nB -1 nC 1", "row 0:\n"),
            ("bij nA 2 nB 2 nC -1", ""),
            ("bij nA 2 nB 2 nC -1", "row 0: 0:0 1:0\n"),
            ("bij nA 0 nB 0 nC -2", "row -1:\n"),
        ],
    )
    def test_rejects_negative_size(self, head, rows, tmp_path, capsys):
        """One message that quotes the bij line, whatever lines follow it."""
        text = f"EQUIDIV 1\n{head}\n{rows}"
        with pytest.raises(FormatError) as exc:
            parse_bijection(text)
        assert str(exc.value) == f"negative size in: {head!r}"
        path = tmp_path / "negative.eqd"
        path.write_text(text)
        assert main(["stab", "--in", str(path)]) == 3
        assert capsys.readouterr().err == f"error: negative size in: {head!r}\n"

    @given(row_lines())
    @example((2, 2, ["row 0: +0:0 01:0", "row 1: ١:1 0:1"]))
    @example((2, 2, ["row 0: 0:0 1_0:0", "row 1: 1:1 0:1"]))
    def test_rows_read_as_by_definition(self, case):
        """The same table, or a FormatError with the same message, as the
        token-by-token reference."""
        n_a, n_c, lines = case
        text = f"EQUIDIV 1\nbij nA {n_a} nB {n_a} nC {n_c}\n" + "".join(f"{x}\n" for x in lines)
        try:
            expected = BijFile(_parse_rows_reference(n_a, n_c, lines))
        except FormatError as exc:
            expected = str(exc)
        try:
            got = parse_bijection(text)
        except FormatError as exc:
            got = str(exc)
        assert got == expected

    def test_large_header_short_row_reads_little(self, tmp_path, capsys):
        """A header of 10^10 cells and a row of one: rejected at that row,
        with no table sized by the header."""
        text = "EQUIDIV 1\nbij nA 100000 nB 100000 nC 100000\nrow 0: 0:0\n"
        tracemalloc.start()
        try:
            with pytest.raises(FormatError) as exc:
                parse_bijection(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(exc.value) == "row 0 has 1 entries, expected 100000"
        assert peak < 5 * 2**20
        path = tmp_path / "large.eqd"
        path.write_text(text)
        assert main(["divide", "--in", str(path), "--base", "0"]) == 3
        assert capsys.readouterr().err == "error: row 0 has 1 entries, expected 100000\n"

    def test_labels_for_each_side_once(self):
        text = (
            "EQUIDIV 1\nbij nA 2 nB 2 nC 1\nlabels A: x y\nlabels B: x y\n"
            "labels C: x\nrow 0: 1:0 0:0\n"
        )
        bf = parse_bijection(text)
        assert bf.a_labels == bf.b_labels == ("x", "y") and bf.c_labels == ("x",)
