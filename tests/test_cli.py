import hashlib
import random

import pytest

from equidiv import CayleyTable, ProdBij, regular_rep, serialize_bijection
from equidiv.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def xor_file(tmp_path):
    path = tmp_path / "xor.eqd"
    path.write_text(
        "EQUIDIV 1\n"
        "bij nA 2 nB 2 nC 2\n"
        "labels C: a b\n"
        "row 0: 0:0 1:0\n"
        "row 1: 1:1 0:1\n"
    )
    return str(path)


@pytest.fixture
def empty_c_file(tmp_path):
    """A table with C empty, outside the paper's hypothesis."""
    path = tmp_path / "empty-c.eqd"
    path.write_text("EQUIDIV 1\nbij nA 2 nB 2 nC 0\n")
    return str(path)


@pytest.fixture
def empty_a_file(tmp_path):
    """A table with A empty; only C must be non-empty."""
    path = tmp_path / "empty-a.eqd"
    path.write_text("EQUIDIV 1\nbij nA 0 nB 0 nC 2\nrow 0:\nrow 1:\n")
    return str(path)


class TestUsage:
    def test_no_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["divide", "--nope"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv", [["divide", "--base", "b"], ["parallelize"]], ids=["divide", "parallelize"]
    )
    def test_out_is_not_an_option(self, capsys, tmp_path, xor_file, argv):
        # both commands print to stdout only, like every other command
        dest = tmp_path / "h.txt"
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--in", xor_file, "--out", str(dest)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --out" in capsys.readouterr().err
        assert not dest.exists()

    def test_missing_file_is_invalid_input(self, capsys):
        code, _, err = run(capsys, "divide", "--in", "/nonexistent", "--base", "0")
        assert code == 3 and "error:" in err

    def test_malformed_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.eqd"
        bad.write_text("what\n")
        code, _, err = run(capsys, "divide", "--in", str(bad), "--base", "0")
        assert code == 3 and "EQUIDIV 1" in err

    @pytest.mark.parametrize("command", ["quotient", "stab"])
    def test_empty_c_is_invalid_input(self, capsys, empty_c_file, command):
        code, out, err = run(capsys, command, "--in", empty_c_file)
        assert code == 3 and out == ""
        assert err == "error: nC must be >= 1: C must be non-empty\n"

    @pytest.mark.parametrize("command", ["quotient", "stab"])
    @pytest.mark.parametrize("budget", ["-1", "-5"])
    def test_negative_budget_is_invalid_input(self, capsys, xor_file, command, budget):
        code, out, err = run(capsys, command, "--in", xor_file, "--budget", budget)
        assert code == 3 and out == ""
        assert err == f"error: budget must be >= 0, got {budget}\n"

    @pytest.mark.parametrize("command", ["quotient", "stab"])
    def test_zero_budget_is_exceeded(self, capsys, xor_file, command):
        code, out, err = run(capsys, command, "--in", xor_file, "--budget", "0")
        assert code == 4 and out == ""
        assert err == "error: search exceeded 0 nodes\n"

    def test_bad_group_spec(self, capsys, xor_file):
        code, _, err = run(capsys, "stab", "--in", xor_file, "--group", "weird")
        assert code == 3

    def test_empty_gens_group(self, capsys, xor_file):
        code, out, err = run(capsys, "quotient", "--in", xor_file, "--group", "gens:")
        assert code == 3 and out == ""
        assert err == "error: gens: needs at least one cycle product\n"

    @pytest.mark.parametrize(
        "head, body, message",
        [
            ("bij nA 2 nX 2 nC 1", "row 0: 0:0 1:0", "malformed bij line: 'bij nA 2 nX 2 nC 1'"),
            ("bij nA 2 nB two nC 1", "row 0: 0:0 1:0", "malformed bij line: 'bij nA 2 nB two nC 1'"),
            ("bij nA 2 nB 2 nC 1", "row x: 0:0 1:0", "bad row line: 'row x: 0:0 1:0'"),
        ],
    )
    def test_malformed_table_line(self, capsys, tmp_path, head, body, message):
        bad = tmp_path / "bad.eqd"
        bad.write_text(f"EQUIDIV 1\n{head}\n{body}\n")
        code, out, err = run(capsys, "quotient", "--in", str(bad))
        assert code == 3 and out == ""
        assert err == f"error: {message}\n"


class TestDivide:
    def test_by_label(self, capsys, xor_file):
        code, out, _ = run(capsys, "divide", "--in", xor_file, "--base", "a")
        assert code == 0 and out == "0 1\n"

    def test_by_index(self, capsys, xor_file):
        code, out, _ = run(capsys, "divide", "--in", xor_file, "--base", "1")
        assert code == 0 and out == "1 0\n"

    def test_bad_base(self, capsys, xor_file):
        code, _, err = run(capsys, "divide", "--in", xor_file, "--base", "z")
        assert code == 3

    def test_repeated_c_label_is_invalid_input(self, capsys, tmp_path):
        dup = tmp_path / "dup.eqd"
        dup.write_text(
            "EQUIDIV 1\nbij nA 2 nB 2 nC 2\nlabels C: a a\n"
            "row 0: 0:0 1:0\nrow 1: 1:1 0:1\n"
        )
        code, out, err = run(capsys, "divide", "--in", str(dup), "--base", "a")
        assert code == 3 and out == "" and "repeated label" in err

    @pytest.mark.parametrize("base", ["0", "1"])
    def test_empty_a(self, capsys, empty_a_file, base):
        code, out, err = run(capsys, "divide", "--in", empty_a_file, "--base", base)
        assert code == 0 and out == "\n" and err == ""


#: Exit code and sha256 prefix of the whole output of a division command, on
#: a seeded non-parallel 256x7 table and a seeded 96x6 table labelled on A, B
#: and C.
DIVISION_DIGESTS = {
    ("random 256x7, seed 2", "parallelize"): (0, "c26b97e0a267dd14"),
    ("random 256x7, seed 2", "divide --base 0"): (0, "f2e0a133507af0b0"),
    ("random 256x7, seed 2", "divide --base 5"): (0, "65d4a4b83b0c5779"),
    ("labelled 96x6, seed 3", "parallelize"): (0, "13e152bbd32bf06a"),
}


def _division_table(table: str) -> str:
    n_a, n_c, seed = (96, 6, 3) if table.startswith("labelled") else (256, 7, 2)
    f = ProdBij.from_flat(random.Random(seed).sample(range(n_a * n_c), n_a * n_c), n_a, n_c)
    assert not f.is_parallel()
    if table.startswith("labelled"):
        return serialize_bijection(
            f,
            tuple(f"x{i}" for i in range(n_a)),
            tuple(f"ȳ{i}" for i in range(n_a)),
            tuple(f"c{i}" for i in range(n_c)),
        )
    return serialize_bijection(f)


@pytest.mark.parametrize("table,command", DIVISION_DIGESTS)
def test_division_output_digest(capsys, tmp_path, table, command):
    path = tmp_path / "f.eqd"
    path.write_text(_division_table(table))
    name, *rest = command.split()
    code, out, _ = run(capsys, name, "--in", str(path), *rest)
    assert _digest(code, out) == DIVISION_DIGESTS[table, command]


class TestParallelize:
    def test_roundtrip(self, capsys, xor_file):
        code, out, _ = run(capsys, "parallelize", "--in", xor_file)
        assert code == 0
        assert "row 0: 0:0 1:0" in out and "row 1: 1:1 0:1" in out

    def test_empty_c_is_invalid_input(self, capsys, tmp_path):
        empty = tmp_path / "empty.eqd"
        empty.write_text("EQUIDIV 1\nbij nA 3 nB 3 nC 0\n")
        code, out, err = run(capsys, "parallelize", "--in", str(empty))
        assert code == 3 and out == "" and "nC" in err

    def test_empty_a(self, capsys, empty_a_file):
        code, out, err = run(capsys, "parallelize", "--in", empty_a_file)
        assert code == 0 and err == ""
        with open(empty_a_file) as f:
            assert out == f.read()


class TestStab:
    def test_full(self, capsys, xor_file):
        code, out, _ = run(capsys, "stab", "--in", xor_file)
        lines = out.splitlines()
        assert code == 0 and len(lines) % 3 == 0
        assert "gamma (a,b)" in lines

    def test_trivial(self, capsys, xor_file):
        code, out, _ = run(capsys, "stab", "--in", xor_file, "--group", "trivial")
        assert code == 0 and "gamma (a,b)" not in out

    def test_gens(self, capsys, xor_file):
        code, out, _ = run(capsys, "stab", "--in", xor_file, "--group", "gens:(a,b)")
        assert code == 0 and "gamma (a,b)" in out

    def test_budget_exit(self, capsys, tmp_path):
        ident = tmp_path / "id.eqd"
        ident.write_text(
            "EQUIDIV 1\nbij nA 4 nB 4 nC 1\nrow 0: 0:0 1:0 2:0 3:0\n"
        )
        code, _, err = run(capsys, "stab", "--in", str(ident), "--budget", "2")
        assert code == 4 and "exceeded" in err

    @pytest.mark.parametrize("group,gammas", [("full", ["()", "(0,1)"]), ("trivial", ["()"])])
    def test_empty_a(self, capsys, empty_a_file, group, gammas):
        code, out, _ = run(capsys, "stab", "--in", empty_a_file, "--group", group)
        assert code == 0
        assert out.splitlines() == [x for g in gammas for x in ("alpha ()", "beta ()", f"gamma {g}")]


#: Exit code and sha256 prefix of the whole `quotient --group full` output, on
#: a 1,296-triple checkered product, a 40,320-triple 2.15 MB certificate, the
#: Z5 table (its witness line through the C labels a..e) and a 6x1 table with
#: A and B labels (its `quotient:` line through the B labels).
QUOTIENT_DIGESTS = {
    "checkered (a,b,c)(d,e,f)": (1, "ffe23f50b228689b"),
    "random 8x1, seed 1": (0, "31910fdb3aa52361"),
    "cyclic 5": (1, "1284e06ef2437818"),
    "labelled 6x1, seed 6": (0, "8fc6054fd672d6c1"),
}


#: Exit code and sha256 prefix of the whole `stab --group full` output: the
#: checkered product, whose A and B hold the same permutations under different
#: labels, and the Klein table with C labelled as A and B labelled apart.
STAB_DIGESTS = {
    "checkered (a,b,c)(d,e,f)": (0, "aab882b5789c6a4a"),
    "labelled klein 4x4": (0, "0883d304976c254b"),
}


def _digest(code: int, out: str) -> tuple[int, str]:
    return code, hashlib.sha256(out.encode()).hexdigest()[:16]


def _table_text(capsys, table: str) -> str:
    if table.startswith("checkered"):
        return run(capsys, "gallery", "checkered", "(a,b,c)(d,e,f)")[1]
    if table == "cyclic 5":
        return run(capsys, "gallery", "cyclic", "5")[1]
    if table == "labelled klein 4x4":
        a_labels = ("p0", "p1", "p2", "p3")
        return serialize_bijection(
            regular_rep(CayleyTable.klein()), a_labels, ("q̄0", "q̄1", "q̄2", "q̄3"), a_labels
        )
    if table.startswith("labelled"):
        f = ProdBij.from_flat(random.Random(6).sample(range(6), 6), 6, 1)
        return serialize_bijection(f, tuple("uvwxyz"), ("p0", "p1", "p2", "p3", "p4", "p5"))
    return serialize_bijection(ProdBij.from_flat(random.Random(1).sample(range(8), 8), 8, 1))


class TestQuotient:
    @pytest.mark.parametrize("table", QUOTIENT_DIGESTS)
    def test_output_digest(self, capsys, tmp_path, table):
        path = tmp_path / "f.eqd"
        path.write_text(_table_text(capsys, table))
        code, out, _ = run(capsys, "quotient", "--in", str(path), "--group", "full")
        assert _digest(code, out) == QUOTIENT_DIGESTS[table]

    @pytest.mark.parametrize("table", STAB_DIGESTS)
    def test_stab_output_digest(self, capsys, tmp_path, table):
        path = tmp_path / "f.eqd"
        path.write_text(_table_text(capsys, table))
        code, out, _ = run(capsys, "stab", "--in", str(path), "--group", "full")
        assert _digest(code, out) == STAB_DIGESTS[table]

    def test_subset_mode_digest(self, capsys, tmp_path):
        """Subset mode on every other triple of the checkered (a,b,c)(d,e)
        listing: an orbit-exhaustion certificate in file order."""
        path = tmp_path / "ch5.eqd"
        path.write_text(run(capsys, "gallery", "checkered", "(a,b,c)(d,e)")[1])
        lines = run(capsys, "stab", "--in", str(path))[1].splitlines()
        syms = tmp_path / "half.syms"
        syms.write_text("".join(f"{x}\n" for i in range(0, len(lines), 6) for x in lines[i:i + 3]))
        code, out, _ = run(capsys, "quotient", "--in", str(path), "--symmetries", str(syms))
        assert _digest(code, out) == (1, "13aab28ba38fbf84")

    def test_not_exists_full(self, capsys, xor_file):
        code, out, _ = run(capsys, "quotient", "--in", xor_file, "--group", "full")
        assert code == 1
        assert out.splitlines()[0] == "verdict not-exists"
        assert "witness: alpha () beta (0,1) gamma (a,b)" in out

    def test_exists_trivial(self, capsys, xor_file):
        code, out, _ = run(capsys, "quotient", "--in", xor_file, "--group", "trivial")
        assert code == 0
        assert out.splitlines()[0] == "verdict exists"
        assert "quotient: 0 1" in out

    @pytest.mark.parametrize("group", ["full", "trivial"])
    def test_empty_a_exists(self, capsys, empty_a_file, group):
        code, out, _ = run(capsys, "quotient", "--in", empty_a_file, "--group", group)
        assert code == 0
        assert out.splitlines()[:2] == ["verdict exists", "quotient: "]

    def test_full_group_has_no_order_cap(self, capsys, tmp_path):
        # |S_8| = 40320 is over the group cap, but full never enumerates S_C
        z8 = tmp_path / "Z8.eqd"
        code, out, _ = run(capsys, "gallery", "cyclic", "8")
        z8.write_text(out)
        code, out, err = run(capsys, "quotient", "--in", str(z8), "--group", "full")
        assert code == 1 and err == ""
        assert out.splitlines()[:2] == ["verdict not-exists", "reason: half-fixed-witness"]

    def test_certificate_file(self, capsys, tmp_path, xor_file):
        dest = tmp_path / "cert.txt"
        code, out, _ = run(
            capsys, "quotient", "--in", xor_file, "--certificate", str(dest)
        )
        assert code == 1 and dest.read_text() == out

    def test_symmetry_subset_mode(self, capsys, tmp_path, xor_file):
        syms = tmp_path / "syms.txt"
        syms.write_text("alpha ()\nbeta (0,1)\ngamma (a,b)\n")
        code, out, _ = run(capsys, "quotient", "--in", xor_file, "--symmetries", str(syms))
        assert code == 1 and "half-fixed-witness" in out

    def test_symmetry_subset_undecided(self, capsys, tmp_path, xor_file):
        syms = tmp_path / "syms.txt"
        syms.write_text("alpha (0,1)\nbeta (0,1)\ngamma ()\n")
        code, out, _ = run(capsys, "quotient", "--in", xor_file, "--symmetries", str(syms))
        assert code == 0 and out.startswith("undecided")

    def test_symmetry_subset_checks_gamma_in_group(self, capsys, tmp_path, xor_file):
        """Subset mode reads --group too: a listed gamma outside it is invalid."""
        syms = tmp_path / "syms.txt"
        syms.write_text("alpha ()\nbeta (0,1)\ngamma (a,b)\n")
        argv = ("quotient", "--in", xor_file, "--symmetries", str(syms), "--group")
        code, out, err = run(capsys, *argv, "trivial")
        assert (code, out) == (3, "")
        assert err == "error: supplied triple has gamma outside the group 'trivial'\n"
        code, out, _ = run(capsys, *argv, "gens:(a,b)")
        assert code == 1 and "witness: alpha () beta (0,1) gamma (a,b)" in out
        assert run(capsys, *argv, "unknown")[0] == 3

    def test_symmetry_subset_group_over_cap(self, capsys, tmp_path):
        z8 = tmp_path / "z8.eqd"
        z8.write_text(run(capsys, "gallery", "cyclic", "8")[1])
        syms = tmp_path / "syms.txt"
        syms.write_text("alpha ()\nbeta ()\ngamma ()\n")
        argv = ("quotient", "--in", str(z8), "--symmetries", str(syms))
        code, _, err = run(capsys, *argv, "--group", "gens:(a,b,c,d,e,f,g,h) (a,b)")
        assert code == 4 and "group order exceeds cap" in err

    def test_symmetry_subset_rejects_non_symmetry(self, capsys, tmp_path, xor_file):
        syms = tmp_path / "syms.txt"
        syms.write_text("alpha (0,1)\nbeta ()\ngamma ()\n")
        code, _, err = run(capsys, "quotient", "--in", xor_file, "--symmetries", str(syms))
        assert code == 3


class TestGallery:
    def test_cyclic(self, capsys):
        code, out, _ = run(capsys, "gallery", "cyclic", "2")
        assert code == 0
        assert "row 1: 1:1 0:1" in out

    def test_cyclic_past_26_labels_c_by_number(self, capsys):
        code, out, _ = run(capsys, "gallery", "cyclic", "27")
        assert code == 0
        assert out.splitlines()[2] == "labels C: " + " ".join(map(str, range(27)))

    def test_klein(self, capsys):
        code, out, _ = run(capsys, "gallery", "klein")
        assert code == 0 and "bij nA 4 nB 4 nC 4" in out

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["regular-rep"], "regular-rep needs an argument"),
            (["cyclic"], "cyclic needs an argument"),
            (["checkered"], "checkered needs an argument"),
            (["thm4", "--window", "3"], "thm4 needs an argument"),
            (["gadget-xyz"], "gadget-xyz needs an argument"),
            (["cyclic", ""], "cyclic needs an argument"),
            (["klein", "x"], "klein takes no argument"),
            (["cyclic", "x"], "cyclic needs an integer order, not 'x'"),
            (["cyclic", "2.5"], "cyclic needs an integer order, not '2.5'"),
        ],
    )
    def test_argument_checked_per_kind(self, capsys, argv, message):
        """A missing argument, one given to klein, or a cyclic order that is
        no integer is a usage error that names the kind, before any file is
        read."""
        with pytest.raises(SystemExit) as exc:
            main(["gallery", *argv])
        out = capsys.readouterr()
        assert exc.value.code == 2 and out.out == ""
        assert out.err.endswith(f"equidiv gallery: error: {message}\n")

    def test_regular_rep_from_file(self, capsys, tmp_path):
        table = tmp_path / "z3.txt"
        table.write_text("0 1 2\n1 2 0\n2 0 1\n")
        code, out, _ = run(capsys, "gallery", "regular-rep", str(table))
        assert code == 0 and "bij nA 3 nB 3 nC 3" in out

    def test_regular_rep_rejects_non_group(self, capsys, tmp_path):
        table = tmp_path / "bad.txt"
        table.write_text("0 1\n0 1\n")
        code, _, err = run(capsys, "gallery", "regular-rep", str(table))
        assert code == 3

    def test_regular_rep_names_a_row_that_is_not_integers(self, capsys, xor_file):
        code, out, err = run(capsys, "gallery", "regular-rep", xor_file)
        assert code == 3 and out == ""
        assert err == "error: bad table row: 'EQUIDIV 1'\n"

    def test_empty_group_rejected(self, capsys, tmp_path):
        table = tmp_path / "empty.txt"
        table.write_text("# no rows\n")
        for argv in (["cyclic", "0"], ["regular-rep", str(table)]):
            code, out, err = run(capsys, "gallery", *argv)
            assert code == 3 and out == ""
            assert err == "error: empty table: a group needs at least one element\n"

    def test_checkered(self, capsys):
        code, out, _ = run(capsys, "gallery", "checkered", "(a,b,c)(d,e)")
        assert code == 0 and "bij nA 12 nB 12 nC 5" in out

    def test_checkered_rejects_empty_sigma(self, capsys):
        # degree 0 would give a 1x0 table that no reader accepts
        code, out, err = run(capsys, "gallery", "checkered", "()")
        assert code == 3 and out == ""
        assert err == "error: sigma must move at least one point\n"

    def test_thm4(self, capsys):
        code, out, _ = run(capsys, "gallery", "thm4", "(a,b)", "--window", "3")
        assert code == 0
        assert out.splitlines() == ["row a: Ka Kb 1a", "row b: Qb Qa 1b"]

    def test_thm4_with_labels(self, capsys):
        code, out, _ = run(
            capsys, "gallery", "thm4", "(x,y)", "--labels", "x y z", "--window", "3"
        )
        assert code == 0 and out.splitlines()[0] == "row x: Kx Ky Kz"

    def test_thm4_rejects_repeated_labels(self, capsys):
        code, out, err = run(capsys, "gallery", "thm4", "(a,b)", "--labels", "a a b")
        assert code == 3 and out == ""
        assert err == "error: duplicate labels in universe\n"

    @pytest.mark.parametrize("window", ["0", "-2"])
    def test_thm4_rejects_empty_window(self, capsys, window):
        code, out, err = run(capsys, "gallery", "thm4", "(a,b)", "--window", window)
        assert code == 3 and out == ""
        assert err == f"error: window must be >= 1, got {window}\n"

    def test_gadget_xyz(self, capsys):
        code, out, _ = run(capsys, "gallery", "gadget-xyz", "y,z,x")
        assert code == 0
        assert out.splitlines() == ["row x: 2 0 1", "row y: 0 1 2", "row z: 1 2 0"]

    def test_gadget_xyz_rejects_repeated_label(self, capsys):
        code, out, err = run(capsys, "gallery", "gadget-xyz", "x,x,y")
        assert code == 3 and out == ""
        assert err == "error: order must arrange three distinct C labels\n"


class TestProbeCli:
    def test_exhaustive(self, capsys):
        code, out, _ = run(capsys, "probe", "--nA", "2", "--nC", "2")
        assert code == 0 and "summary counterexamples 12 of 24" in out

    def test_cert_dir(self, capsys, tmp_path):
        certs = tmp_path / "certs"
        code, out, _ = run(
            capsys, "probe", "--nA", "2", "--nC", "2", "--cert-dir", str(certs)
        )
        assert code == 0
        eqds = sorted(p.name for p in certs.glob("*.eqd"))
        assert len(eqds) == 12 and eqds[0] == "cex-000001.eqd"
        assert (certs / "cex-000001.cert").read_text().startswith("verdict not-exists")

    def test_cert_dir_that_is_a_file(self, capsys, tmp_path):
        # the directory is made before the scan, so nothing is printed
        (tmp_path / "certs").write_text("")
        code, out, err = run(
            capsys, "probe", "--nA", "2", "--nC", "2", "--cert-dir", str(tmp_path / "certs")
        )
        assert code == 3 and out == "" and err.startswith("error: ")

    def test_sampled_seeded(self, capsys):
        code1, out1, _ = run(
            capsys, "probe", "--nA", "3", "--nC", "2", "--sample", "20", "--seed", "5"
        )
        code2, out2, _ = run(
            capsys, "probe", "--nA", "3", "--nC", "2", "--sample", "20", "--seed", "5"
        )
        assert code1 == code2 == 0 and out1 == out2

    def test_negative_sample(self, capsys):
        code, out, err = run(capsys, "probe", "--nA", "2", "--nC", "2", "--sample", "-3")
        assert code == 3 and out == ""
        assert err == "error: sample must be >= 0, got -3\n"

    @pytest.mark.parametrize("n_a,n_c", [("-1", "2"), ("2", "-1")])
    def test_negative_size(self, capsys, n_a, n_c):
        code, out, err = run(capsys, "probe", "--nA", n_a, "--nC", n_c)
        assert code == 3 and out == ""
        assert err == f"error: nA and nC must be >= 0, got nA {n_a} nC {n_c}\n"

    def test_empty_c(self, capsys):
        code, out, err = run(capsys, "probe", "--nA", "2", "--nC", "0")
        assert code == 3 and out == ""
        assert err == "error: nC must be >= 1: C must be non-empty\n"

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one(self, capsys, jobs):
        code, out, err = run(capsys, "probe", "--nA", "2", "--nC", "2", "--jobs", jobs)
        assert code == 3 and out == ""
        assert err == f"error: jobs must be >= 1, got {jobs}\n"

    def test_negative_budget(self, capsys):
        code, out, err = run(capsys, "probe", "--nA", "2", "--nC", "2", "--budget", "-1")
        assert code == 3 and out == ""
        assert err == "error: budget must be >= 0, got -1\n"

    def test_zero_budget_is_exceeded(self, capsys):
        code, out, err = run(capsys, "probe", "--nA", "2", "--nC", "2", "--budget", "0")
        assert code == 4 and out == ""
        assert err == "error: search exceeded 0 nodes\n"

    @pytest.mark.parametrize("group", ["full", "trivial"])
    def test_empty_a(self, capsys, group):
        code, out, _ = run(capsys, "probe", "--nA", "0", "--nC", "3", "--group", group)
        assert code == 0 and out.splitlines()[-1] == "summary counterexamples 0 of 1"

    def test_cap_exit(self, capsys):
        code, _, err = run(capsys, "probe", "--nA", "4", "--nC", "4")
        assert code == 4


class TestGensLabels:
    """``gens:`` cycles name C's points as the command writes them: a table's
    ``labels C:`` line, else indices; ``probe``, with no table, uses letters."""

    @pytest.mark.parametrize("gens, want", [("gens:(a,b,c)", 0), ("gens:(0,1,2)", 3)])
    def test_probe_uses_letters(self, capsys, gens, want):
        code, _, err = run(
            capsys, "probe", "--nA", "2", "--nC", "3", "--group", gens, "--sample", "5"
        )
        assert code == want
        assert err == ("" if want == 0 else "error: unknown label '0' in cycle notation\n")

    @pytest.mark.parametrize("gens, want", [("gens:(0,1,2)", 0), ("gens:(a,b,c)", 3)])
    def test_unlabeled_table_uses_indices(self, capsys, tmp_path, gens, want):
        path = tmp_path / "unlabeled.eqd"
        path.write_text(
            "EQUIDIV 1\nbij nA 2 nB 2 nC 3\nrow 0: 0:0 1:0\nrow 1: 0:1 1:1\nrow 2: 0:2 1:2\n"
        )
        code, _, err = run(capsys, "quotient", "--in", str(path), "--group", gens)
        assert code == want
        assert err == ("" if want == 0 else "error: unknown label 'a' in cycle notation\n")


class TestVerifyPaper:
    def test_passes(self, capsys):
        code, out, _ = run(capsys, "verify-paper")
        assert code == 0
        lines = out.splitlines()
        assert lines[-1] == "all checks passed"
        assert all(l.startswith("ok ") for l in lines[:-1])

    def test_failed_check_exits_1(self, capsys, monkeypatch):
        from equidiv import corpus

        def wrong():
            raise AssertionError("count is 3, not 4")

        def bare():
            raise AssertionError

        items = [("fine", lambda: None), ("wrong", wrong), ("bare", bare), ("after", lambda: None)]
        monkeypatch.setattr(corpus, "ITEMS", items)
        code, out, _ = run(capsys, "verify-paper")
        assert code == 1
        assert out.splitlines() == [
            "ok fine", "FAIL wrong: count is 3, not 4", "FAIL bare", "ok after", "some checks FAILED"
        ]


class TestParserReuse:
    """``main()`` builds its parser once per process; reusing it must give
    what a freshly built parser gives, with nothing carried between calls."""

    def _call(self, capsys, argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = ("exit", exc.code)
        out = capsys.readouterr()
        return code, out.out, out.err

    def test_same_as_fresh_parser(self, capsys, tmp_path, xor_file):
        bad = tmp_path / "bad.eqd"
        bad.write_text("what\n")
        calls = [
            ["quotient", "--in", xor_file, "--group", "trivial", "--budget", "0"],
            ["quotient", "--in", xor_file, "--group", "trivial"],
            ["divide", "--in", xor_file, "--nope"],
            ["divide", "--in", str(bad), "--base", "0"],
            ["divide", "--in", xor_file, "--base", "b"],
        ]
        fresh = []
        for argv in calls:
            build_parser.cache_clear()
            fresh.append(self._call(capsys, argv))
        build_parser.cache_clear()
        reused = [self._call(capsys, argv) for argv in calls]
        assert reused == fresh
        assert [r[0] for r in reused] == [4, 0, ("exit", 2), 3, 0]
        assert reused[0][2] == "error: search exceeded 0 nodes\n"
        assert reused[1][1].startswith("verdict exists")  # --budget did not carry over
        assert reused[4][1] == "1 0\n"
        assert build_parser() is build_parser()
