import functools
import itertools
import tracemalloc
from types import SimpleNamespace

import pytest

import equidiv.search as search
from equidiv import (
    BudgetExceeded,
    EquidivError,
    Perm,
    PermGroup,
    ProdBij,
    equivariant_quotient,
    extract_basepoint,
    fp_divide,
    gcd_filter,
    parallelize,
    parse_bijection,
    probe_cancelling,
    render_certificate,
)
from equidiv.corpus import (
    check_basepoint_extraction,
    check_gcd_condition,
    check_probe_2_2,
    check_probe_2_3,
    two_by_two_counterexample,
)
from equidiv.equivariance import DEFAULT_NODE_LIMIT


@pytest.fixture
def serial_pool(monkeypatch):
    """Runs a probe's chunks in process instead of in workers; records the
    pool sizes asked for and the chunks mapped."""
    seen = SimpleNamespace(workers=[], chunks=[])

    class SerialPool:
        def __init__(self, max_workers):
            seen.workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, chunks):
            seen.chunks.extend(chunks)
            return map(fn, chunks)

    monkeypatch.setattr(search, "ProcessPoolExecutor", SerialPool)
    return seen


def written(cert_dir):
    """The files a probe wrote to ``cert_dir``, by name."""
    return {p.name: p.read_text() for p in sorted(cert_dir.iterdir())}


def outcome(report, cert_dir):
    """Everything a probe reports: its text, each counterexample's index and
    reason, and the tables and certificates it wrote to ``cert_dir``."""
    return (
        report.render(),
        [(c.index, c.reason) for c in report.counterexamples],
        written(cert_dir),
    )


#: (nA, nC, mode, sample): sampled and exhaustive scans in both modes, each
#: with counterexamples under ``full``; 41 does not split evenly in two
SCANS = [
    (3, 2, "all", 41),
    (3, 3, "parallel", 40),
    (2, 2, "all", None),
    (3, 2, "parallel", None),
]


class TestGcdFilter:
    def test_corpus_values(self):
        check_gcd_condition()

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            gcd_filter(0, 3)
        with pytest.raises(ValueError):
            gcd_filter(2, 0)

    def test_prime_threshold(self):
        assert gcd_filter(4, 5) is True
        assert gcd_filter(5, 5) is False
        assert gcd_filter(6, 49) is True  # 7 > 6, so 49 shares nothing with 6!
        assert gcd_filter(7, 49) is False
        assert gcd_filter(6, 77) is True


class TestProbe:
    def test_exhaustive_2x2(self):
        check_probe_2_2()

    def test_exhaustive_2x3_clean(self):
        check_probe_2_3()

    def test_parallel_mode_finds_xor(self):
        report = probe_cancelling(2, 2, PermGroup.symmetric(2), "parallel")
        assert report.total == 4
        # candidate 1 of the row-permutation product: rows (0, 1) and (1, 0)
        assert ProdBij.parallel_from_rows([(0, 1), (1, 0)]) == two_by_two_counterexample()
        assert any(c.index == 1 for c in report.counterexamples)

    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            probe_cancelling(2, 2, PermGroup.symmetric(2), "nope")

    def test_rejects_wrong_degree(self):
        with pytest.raises(ValueError):
            probe_cancelling(2, 3, PermGroup.symmetric(2), "all")

    def test_rejects_empty_c(self):
        with pytest.raises(ValueError, match=r"^nC must be >= 1: C must be non-empty$"):
            probe_cancelling(2, 0, PermGroup.trivial(0), "all")

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_rejects_jobs_below_one(self, jobs):
        with pytest.raises(ValueError, match=rf"^jobs must be >= 1, got {jobs}$"):
            probe_cancelling(2, 2, PermGroup.symmetric(2), "all", jobs=jobs)

    def test_rejects_negative_budget_before_any_pool(self, monkeypatch, serial_pool):
        monkeypatch.setattr(search.os, "cpu_count", lambda: 2)
        with pytest.raises(ValueError, match=r"^budget must be >= 0, got -1$"):
            probe_cancelling(2, 2, PermGroup.symmetric(2), "all", jobs=2, node_limit=-1)
        assert serial_pool.workers == [] and serial_pool.chunks == []

    def test_rejects_negative_size(self):
        # checked before the group degree, which -1 cannot match
        with pytest.raises(ValueError, match=r"^nA and nC must be >= 0, got nA 2 nC -1$"):
            probe_cancelling(2, -1, PermGroup.symmetric(2), "all")

    def test_cap_without_sampling(self):
        with pytest.raises(BudgetExceeded):
            probe_cancelling(4, 4, PermGroup.symmetric(4), "all")

    def test_sampling_is_deterministic(self):
        group = PermGroup.symmetric(2)
        r1 = probe_cancelling(3, 2, group, "all", sample=50, seed=42)
        r2 = probe_cancelling(3, 2, group, "all", sample=50, seed=42)
        assert r1.render() == r2.render()
        assert r1.head == "probe nA 3 nC 2 group ? mode all coverage sampled seed 42"
        assert r1.total == 50

    def test_jobs_do_not_change_output(self, tmp_path):
        group = PermGroup.symmetric(2)
        serial, parallel = (
            probe_cancelling(
                2, 2, group, "all", jobs=jobs, group_name="full", cert_dir=tmp_path / f"j{jobs}"
            )
            for jobs in (1, 2)
        )
        assert outcome(serial, tmp_path / "j1") == outcome(parallel, tmp_path / "j2")
        assert len(written(tmp_path / "j1")) == 2 * len(serial.counterexamples) == 24

    def test_jobs_clamped_to_cpu_count(self, monkeypatch, serial_pool):
        monkeypatch.setattr(search.os, "cpu_count", lambda: 2)
        group = PermGroup.symmetric(2)
        report = probe_cancelling(2, 2, group, "all", jobs=64, group_name="full")
        assert serial_pool.workers == [2]
        serial = probe_cancelling(2, 2, group, "all", jobs=1, group_name="full")
        assert report.render() == serial.render()

    @pytest.mark.parametrize("n_a,n_c,mode,sample", SCANS)
    def test_jobs_invariance_in_a_pool(self, tmp_path, n_a, n_c, mode, sample):
        group = PermGroup.symmetric(n_c)
        runs = [
            probe_cancelling(
                n_a, n_c, group, mode, sample=sample, seed=9, jobs=jobs,
                cert_dir=tmp_path / f"j{jobs}",
            )
            for jobs in (1, 2)
        ]
        assert runs[0].counterexamples
        assert outcome(runs[0], tmp_path / "j1") == outcome(runs[1], tmp_path / "j2")

    @pytest.mark.parametrize("n_a,n_c,mode,sample", SCANS)
    def test_chunks_tile_the_scan(
        self, monkeypatch, tmp_path, serial_pool, n_a, n_c, mode, sample
    ):
        monkeypatch.setattr(search.os, "cpu_count", lambda: 2)
        decided = []

        def decide(f, group, budget):
            decided.append(f)
            return equivariant_quotient(f, group, budget)

        monkeypatch.setattr(search, "equivariant_quotient", decide)
        group = PermGroup.symmetric(n_c)
        serial = probe_cancelling(
            n_a, n_c, group, mode, sample=sample, seed=9, cert_dir=tmp_path / "serial"
        )
        chunked = probe_cancelling(
            n_a, n_c, group, mode, sample=sample, seed=9, jobs=2, cert_dir=tmp_path / "chunked"
        )
        assert serial_pool.workers == [2]
        assert outcome(serial, tmp_path / "serial") == outcome(chunked, tmp_path / "chunked")
        # both scans decide every candidate once, in the same order
        assert decided[: serial.total] == decided[serial.total :]
        assert len(decided) == 2 * serial.total
        ranges = [(start, stop) for _, start, stop in serial_pool.chunks]
        bounds = [0] + [stop for _, stop in ranges]
        assert ranges == list(zip(bounds, bounds[1:])) and bounds[-1] == serial.total
        # a chunk names its range and its directory; it carries no candidates
        for params, _, _ in serial_pool.chunks:
            assert not any(isinstance(p, (tuple, list)) for p in params)
            assert params[-1] == tmp_path / "chunked"

    # the first range holds counterexample 362186; the last eight tables have none
    @pytest.mark.parametrize("start", [362180, 362872])
    def test_chunk_memory_does_not_grow_with_skipped_candidates(self, start):
        group = PermGroup.symmetric(3)
        params = (3, 3, group, "all", None, 0, DEFAULT_NODE_LIMIT, None)
        tracemalloc.start()
        try:
            hits = search._scan_chunk((params, start, start + 8))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the exhaustive 3x3 candidate list alone is about 44 MB
        assert peak < 5_000_000
        chunk = itertools.islice(itertools.permutations(range(9)), start, start + 8)
        expected = [
            index
            for index, flat in enumerate(chunk, start)
            if equivariant_quotient(ProdBij.from_flat(flat, 3, 3), group).verdict
            == "not-exists"
        ]
        assert [h.index for h in hits] == expected

    def test_counterexamples_reverified_by_oracle(self, tmp_path):
        from equidiv import quotient_exists_bruteforce

        group = PermGroup.symmetric(2)
        report = probe_cancelling(2, 2, group, "all", cert_dir=tmp_path)
        assert report.counterexamples
        for cex in report.counterexamples:
            cert = (tmp_path / f"cex-{cex.index:06d}.cert").read_text()
            assert cert.startswith("verdict not-exists\n")
            bij = parse_bijection((tmp_path / f"cex-{cex.index:06d}.eqd").read_text()).bij
            assert not quotient_exists_bruteforce(bij, group)

    def test_files_hold_each_records_table_and_certificate(self, tmp_path):
        group = PermGroup.symmetric(2)
        report = probe_cancelling(3, 2, group, "all", cert_dir=tmp_path / "certs")
        files = written(tmp_path / "certs")
        assert len(files) == 2 * len(report.counterexamples) == 432
        # the stream's tables, in index order
        tables = list(itertools.permutations(range(6)))
        for cex in report.counterexamples:
            name = f"cex-{cex.index:06d}"
            bij = ProdBij.from_flat(tables[cex.index], 3, 2)
            assert parse_bijection(files[f"{name}.eqd"]).bij == bij
            cert = equivariant_quotient(bij, group)
            assert files[f"{name}.cert"] == render_certificate(cert)
            assert cert.reason == cex.reason

    def test_report_holds_no_certificates(self):
        # with each Certificate kept, its whole symmetry listing included, this
        # scan held about 690 KB
        group = PermGroup.symmetric(2)
        tracemalloc.start()
        try:
            report = probe_cancelling(3, 2, group, "all")
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(report.counterexamples) == 216
        assert held < 400_000

    def test_records_hold_no_tables(self):
        report = probe_cancelling(3, 2, PermGroup.symmetric(2), "all")
        assert len(report.counterexamples) == 216
        for cex in report.counterexamples:
            assert not any(isinstance(v, ProdBij) for v in vars(cex).values())

    def test_modes_agree_on_cancelling_at_size(self):
        # a counterexample exists in all mode iff one exists in parallel mode
        group = PermGroup.symmetric(2)
        got_all = probe_cancelling(2, 2, group, "all").counterexamples
        got_par = probe_cancelling(2, 2, group, "parallel").counterexamples
        assert bool(got_all) == bool(got_par)

    def test_render_layout(self):
        report = probe_cancelling(2, 2, PermGroup.symmetric(2), "all", group_name="full")
        lines = report.render().splitlines()
        assert lines[0] == "probe nA 2 nC 2 group full mode all coverage exhaustive"
        assert lines[-1] == "summary counterexamples 12 of 24"


class TestGapSearch:
    def test_no_gap_at_2x2(self):
        # probe --mode parallel relies on it: if f has a quotient, so has parallelize(f)
        for group in (PermGroup.symmetric(2), PermGroup.trivial(2)):
            for flat in itertools.permutations(range(4)):
                f = ProdBij.from_flat(flat, 2, 2)
                if equivariant_quotient(f, group).verdict == "exists":
                    assert equivariant_quotient(parallelize(f), group).verdict == "exists"


class TestBasepointExtraction:
    def test_fp_divider_extracts_each_star(self):
        check_basepoint_extraction()

    def test_needs_three_labels(self):
        with pytest.raises(ValueError):
            extract_basepoint(functools.partial(fp_divide, star=0), ("a", "b"))

    @pytest.mark.parametrize(
        "images,message",
        [
            ((0, 2, 1), "quotient does not match a unique row of the gadget"),
            # the identity is the row of each guise's first label
            ((0, 1, 2), "guises disagree on the basepoint: ['a', 'a', 'b', 'b', 'c', 'c']"),
        ],
        ids=["no-row", "row-per-guise"],
    )
    def test_rejects_a_divider_that_is_no_division_method(self, images, message):
        with pytest.raises(EquidivError) as exc:
            extract_basepoint(lambda f: Perm(images), ("a", "b", "c"))
        assert str(exc.value) == message
