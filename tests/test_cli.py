import dataclasses
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import johnson_cliques.cli as cli
import johnson_cliques.combinat as combinat
import johnson_cliques.oracle as oracle
from johnson_cliques import (
    MAX_GROUND_SET,
    CliqueClass,
    JohnsonParams,
    RegimeError,
    SkippedPair,
    binomial,
    clique_partition,
    edge_count,
    enumerate_max_cliques,
    enumerate_min_cliques,
    verify,
)
from johnson_cliques.oracle import VERIFY_PHASES
from helpers import ACCEPTANCE_PAIRS, DEGENERATE_PAIRS, colex_subsets

GOLDEN = Path(__file__).parent / "golden"
needs_dev_full = pytest.mark.skipif(
    not os.path.exists("/dev/full"), reason="needs /dev/full, where every write fails"
)


def run_cli(argv):
    out, err = io.BytesIO(), io.BytesIO()
    code = cli.run(argv, out, err)
    return code, out.getvalue(), err.getvalue()


class TestGen:
    def test_edgelist_line_count(self):
        code, out, err = run_cli(["gen", "--n", "4", "--m", "2", "--format", "edgelist"])
        assert code == 0
        assert out.decode().count("\n") == 12

    def test_json_parses(self):
        code, out, _ = run_cli(["gen", "--n", "5", "--m", "3", "--format", "json"])
        assert code == 0
        payload = json.loads(out.decode())
        assert len(payload["vertices"]) == 10
        assert len(payload["edges"]) == 30

    def test_out_file(self, tmp_path):
        target = tmp_path / "graph.dot"
        code, out, _ = run_cli(
            ["gen", "--n", "3", "--m", "2", "--format", "dot", "--out", str(target)]
        )
        assert code == 0
        assert out == b""
        assert target.read_bytes().startswith(b"graph J_3_2 {")

    def test_cap_env_override(self, monkeypatch):
        monkeypatch.setenv("JOHNSON_MAX_VERTICES", "5")
        code, out, err = run_cli(["gen", "--n", "4", "--m", "2", "--format", "edgelist"])
        assert code == 2
        assert b"cap" in err

    def test_bad_env_value(self, monkeypatch):
        monkeypatch.setenv("JOHNSON_MAX_VERTICES", "lots")
        code, _, err = run_cli(["gen", "--n", "4", "--m", "2", "--format", "edgelist"])
        assert code == 2

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_env_cap_below_1_is_rejected(self, monkeypatch, value):
        monkeypatch.setenv("JOHNSON_MAX_VERTICES", value)
        code, out, err = run_cli(["gen", "--n", "4", "--m", "2", "--format", "edgelist"])
        assert (code, out) == (2, b"")
        assert b"JOHNSON_MAX_VERTICES must be a positive integer" in err

    def test_over_cap_out_file_is_left_untouched(self, tmp_path):
        target = tmp_path / "f.json"
        target.write_bytes(b"earlier output\n")
        code, out, err = run_cli(
            ["gen", "--n", "40", "--m", "20", "--format", "json", "--out", str(target)]
        )
        assert code == 2
        assert out == b""
        assert b"export cap" in err
        assert target.read_bytes() == b"earlier output\n"

    def test_out_file_in_missing_directory_is_a_one_line_error(self, tmp_path):
        target = tmp_path / "missing" / "graph.dot"
        code, out, err = run_cli(
            ["gen", "--n", "4", "--m", "2", "--format", "dot", "--out", str(target)]
        )
        assert code == 1
        assert out == b""
        assert err.startswith(b"error: ") and err.count(b"\n") == 1
        assert not target.parent.exists()

    @needs_dev_full
    def test_failed_write_to_out_file_is_a_one_line_error(self):
        code, out, err = run_cli(
            ["gen", "--n", "5", "--m", "3", "--format", "dot", "--out", "/dev/full"]
        )
        assert (code, out) == (1, b"")
        assert err.startswith(b"error: cannot write --out file: ") and err.count(b"\n") == 1

    def test_empty_out_path_is_an_error_not_stdout(self):
        # As from --out "$UNSET_VAR": a path that cannot be opened, not a
        # request for stdout.
        code, out, err = run_cli(["gen", "--n", "4", "--m", "2", "--format", "edgelist", "--out", ""])
        assert (code, out) == (1, b"")
        assert err.startswith(b"error: cannot write --out file: ") and err.count(b"\n") == 1


class TestAdj:
    def test_true(self):
        assert run_cli(["adj", "--n", "4", "--m", "2", "{1,2}", "{1,3}"])[:2] == (0, b"true\n")

    def test_false(self):
        assert run_cli(["adj", "--n", "4", "--m", "2", "{1,2}", "{3,4}"])[:2] == (0, b"false\n")

    def test_bad_label_syntax(self):
        code, _, err = run_cli(["adj", "--n", "4", "--m", "2", "{1;2}", "{1,3}"])
        assert code == 2
        assert b"label" in err

    def test_label_out_of_range(self):
        code, _, _ = run_cli(["adj", "--n", "4", "--m", "2", "{1,5}", "{1,3}"])
        assert code == 2

    def test_label_size_mismatch(self):
        code, _, _ = run_cli(["adj", "--n", "4", "--m", "2", "{1,2,3}", "{1,3}"])
        assert code == 2


class TestLongLabelText:
    LONG = "{" + "1" * 5000 + "}"

    @pytest.mark.parametrize(
        "argv",
        [
            ["adj", "--n", "4", "--m", "2", LONG, "{1,2}"],
            ["classify", "--n", "4", "--m", "2", LONG],
        ],
        ids=["adj", "classify"],
    )
    def test_element_of_5000_digits_is_a_one_line_error(self, argv):
        code, out, err = run_cli(argv)
        assert (code, out) == (2, b"")
        assert err.startswith(b"error: ") and err.count(b"\n") == 1

    def test_5000_leading_zeros_are_dropped(self):
        argv = ["adj", "--n", "4", "--m", "2", "{1," + "0" * 5000 + "2}", "{1,3}"]
        assert run_cli(argv)[:2] == (0, b"true\n")


class TestCliques:
    def test_all_counts(self):
        code, out, _ = run_cli(["cliques", "--n", "5", "--m", "3"])
        assert code == 0
        lines = out.decode().splitlines()
        assert len(lines) == 15
        classes = [json.loads(ln)["class"] for ln in lines]
        assert classes == ["min"] * 5 + ["max"] * 10

    def test_class_filter(self):
        code, out, _ = run_cli(["cliques", "--n", "5", "--m", "3", "--class", "max"])
        assert code == 0
        assert len(out.decode().splitlines()) == 10

    def test_degenerate_max_is_regime_error(self):
        code, out, err = run_cli(["cliques", "--n", "4", "--m", "3", "--class", "max"])
        assert code == 2
        assert out == b""
        assert b"complete" in err

    def test_degenerate_all_lists_single_clique(self):
        code, out, _ = run_cli(["cliques", "--n", "4", "--m", "3"])
        assert code == 0
        lines = out.decode().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {
            "class": "min",
            "set": [1, 2, 3, 4],
            "n": 4,
            "m": 3,
            "size": 4,
        }


def _expected_stream(argv):
    """(exit code, stdout) that a cliques or partition command must give,
    built from the library's dict form and the standard JSON encoder."""
    p = JohnsonParams(int(argv[2]), int(argv[4]))

    def line(h):
        return json.dumps(h.to_dict(), separators=(",", ":")) + "\n"

    if argv[0] == "partition":
        return 0, json.dumps(clique_partition(p).to_dict(), separators=(",", ":")).encode() + b"\n"
    clique_class = argv[6]
    if clique_class == "max" and p.degenerate:
        return 2, b""
    hs = []
    if clique_class in ("min", "all"):
        hs += enumerate_min_cliques(p)
    if clique_class == "max" or (clique_class == "all" and not p.degenerate):
        hs += enumerate_max_cliques(p)
    return 0, "".join(map(line, hs)).encode()


STREAM_PAIRS = ACCEPTANCE_PAIRS + DEGENERATE_PAIRS + [(16, 4), (62, 2), (62, 61), (20, 17)]


class TestStreamBytes:
    @pytest.mark.parametrize("n,m", STREAM_PAIRS)
    @pytest.mark.parametrize("clique_class", ["min", "max", "all"])
    def test_cliques_equal_encoded_dicts(self, n, m, clique_class):
        argv = ["cliques", "--n", str(n), "--m", str(m), "--class", clique_class]
        code, out, _ = run_cli(argv)
        assert (code, out) == _expected_stream(argv)

    @pytest.mark.parametrize("n,m", STREAM_PAIRS)
    def test_partition_equals_encoded_dict(self, n, m):
        argv = ["partition", "--n", str(n), "--m", str(m)]
        code, out, _ = run_cli(argv)
        assert (code, out) == _expected_stream(argv)

    def test_j_16_4_spans_more_than_one_chunk(self):
        p = JohnsonParams(16, 4)
        assert len(clique_partition(p).parts) == 4368 > combinat._CHUNK_LINES
        assert binomial(16, 5) + binomial(16, 3) == 4928 > combinat._CHUNK_LINES


@st.composite
def family_shapes(draw):
    """(n, m, class, defining-set size) with at most 3,000 defining sets,
    n up to 62, both label-size extremes included."""
    kind = draw(st.sampled_from(CliqueClass))
    n = draw(st.integers(3 if kind is CliqueClass.MIN else 4, MAX_GROUND_SET))
    k_of = (lambda m: m + 1) if kind is CliqueClass.MIN else (lambda m: m - 1)
    ms = [
        m
        for m in range(2, n)
        if not (kind is CliqueClass.MAX and n == m + 1) and binomial(n, k_of(m)) <= 3000
    ]
    m = draw(st.sampled_from(ms))
    return n, m, kind, k_of(m)


class TestFamilyLines:
    @given(family_shapes())
    @example((62, 2, CliqueClass.MAX, 1))
    @example((62, 61, CliqueClass.MIN, 62))
    @example((3, 2, CliqueClass.MIN, 3))
    @example((22, 4, CliqueClass.MAX, 3))
    def test_lines_are_head_set_tail(self, shape):
        n, m, kind, k = shape
        size = m + 1 if kind is CliqueClass.MIN else n - m + 1
        head = f'{{"class":"{kind.value}","set":['
        tail = f'],"n":{n},"m":{m},"size":{size}}}'
        expected = [head + ",".join(map(str, s)) + tail for s in colex_subsets(n, k)]
        chunks = cli._family_chunks(JohnsonParams(n, m), [kind], b"\n")
        assert b"".join(chunks) == "\n".join(expected).encode()

    def test_class_max_is_refused_in_the_degenerate_regime(self):
        with pytest.raises(RegimeError, match="complete"):
            next(cli._family_chunks(JohnsonParams(5, 4), [CliqueClass.MAX], b"\n"))


class _Discard(io.RawIOBase):
    """A byte sink that keeps nothing, so only the command's own memory
    counts; it raises _Full once it has taken ``limit`` bytes."""

    def __init__(self, limit=None):
        self.left = limit

    def writable(self):
        return True

    def write(self, b):
        if self.left is not None:
            self.left -= len(b)
            if self.left <= 0:
                raise _Full
        return len(b)


class _Full(Exception):
    pass


def _peak_mib(argv, limit=None):
    """(exit code, or None if the sink filled up; peak traced MiB) of one run."""
    tracemalloc.start()
    try:
        try:
            code = cli.run(argv, _Discard(limit), io.BytesIO())
        except _Full:
            code = None
        return code, tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


class _Lines(_Discard):
    """A _Discard that records the clique lines of each write."""

    def __init__(self, limit=None):
        super().__init__(limit)
        self.lines = []

    def write(self, b):
        self.lines.append(bytes(b).count(b'{"class":'))
        return super().write(b)


class TestStreamWrites:
    @pytest.mark.parametrize(
        "argv",
        [
            ["cliques", "--n", "22", "--m", "4"],
            ["partition", "--n", "15", "--m", "5"],
            ["partition", "--n", "13", "--m", "7"],
            ["cliques", "--n", "16", "--m", "4"],
            ["partition", "--n", "16", "--m", "4"],
        ],
    )
    def test_no_write_holds_more_than_a_chunk(self, argv):
        sink = _Lines()
        assert cli.run(argv, sink, io.BytesIO()) == 0
        assert 0 < max(sink.lines) <= combinat._CHUNK_LINES

    def test_deep_sets_too(self):
        # The first 2 MB of J(62,31) class min: runs of a few lines each.
        sink = _Lines(2_000_000)
        with pytest.raises(_Full):
            cli.run(["cliques", "--n", "62", "--m", "31", "--class", "min"], sink, io.BytesIO())
        assert max(sink.lines) <= combinat._CHUNK_LINES < sum(sink.lines)


class TestStreamMemory:
    def test_partition_streams_its_parts(self):
        # 74,613 parts (4.3 MB of text): holding them as objects peaks near
        # 15 MiB, streaming them by runs near 0.2 MiB.
        code, peak = _peak_mib(["partition", "--n", "22", "--m", "5"])
        assert code == 0
        assert peak < 4

    def test_cliques_stream_deep_sets_by_runs(self):
        # Most runs of J(62,31) class min hold one line. Streaming its first
        # 2 MB of lines peaks near 0.3 MiB; listing the C(61,31) sets of
        # the larger elements up front would never reach the first write.
        code, peak = _peak_mib(["cliques", "--n", "62", "--m", "31", "--class", "min"], 2_000_000)
        assert code is None
        assert peak < 4

    def test_gen_json_streams_its_edges(self):
        # 25,740 edges: one dict and one json.dumps of the whole graph peak
        # near 4.7 MiB, one chunk per vertex near 0.3 MiB.
        code, peak = _peak_mib(["gen", "--n", "13", "--m", "5", "--format", "json"])
        assert code == 0
        assert peak < 2


class TestClassify:
    def test_already_maximal_fixed_core(self):
        code, out, _ = run_cli(
            ["classify", "--n", "5", "--m", "3", "{1,3,4}", "{2,3,4}", "{3,4,5}"]
        )
        assert code == 0
        payload = json.loads(out.decode())
        assert payload["class"] == "max"
        assert payload["set"] == [3, 4]
        assert payload["kind"] == "already_maximal"

    def test_edge_both(self):
        code, out, _ = run_cli(["classify", "--n", "4", "--m", "2", "{1,2}", "{1,3}"])
        assert code == 0
        payload = json.loads(out.decode())
        assert payload["kind"] == "edge_both"
        assert payload["min"]["set"] == [1, 2, 3]
        assert payload["max"]["set"] == [1]

    def test_singleton(self):
        code, out, _ = run_cli(["classify", "--n", "4", "--m", "2", "{1,2}"])
        assert code == 0
        assert json.loads(out.decode()) == {"kind": "singleton"}

    def test_non_clique_rejected(self):
        code, _, err = run_cli(["classify", "--n", "4", "--m", "2", "{1,2}", "{3,4}"])
        assert code == 2
        assert b"not adjacent" in err


class TestExtend:
    def test_edge_extensions(self):
        code, out, _ = run_cli(["extend", "--n", "4", "--m", "2", "{1,2}", "{1,3}"])
        assert code == 0
        payload = json.loads(out.decode())
        assert [h["class"] for h in payload] == ["min", "max"]
        assert payload[0]["set"] == [1, 2, 3]
        assert payload[1]["set"] == [1]

    def test_singleton_rejected(self):
        code, _, _ = run_cli(["extend", "--n", "4", "--m", "2", "{1,2}"])
        assert code == 2


class TestPartition:
    def test_octahedron(self):
        code, out, _ = run_cli(["partition", "--n", "4", "--m", "2"])
        assert code == 0
        payload = json.loads(out.decode())
        assert payload["cp"] == 4
        assert len(payload["parts"]) == 4

    def test_degenerate_whole_graph_is_one_part(self):
        code, out, _ = run_cli(["partition", "--n", "4", "--m", "3"])
        assert code == 0
        assert out == (
            b'{"cp":1,"parts":[{"class":"min","set":[1,2,3,4],"n":4,"m":3,"size":4}]}\n'
        )


class TestNumber:
    def test_values(self):
        code, out, _ = run_cli(["number", "--n", "5", "--m", "3"])
        assert code == 0
        payload = json.loads(out.decode())
        assert payload == {
            "n": 5,
            "m": 3,
            "clique_number": 4,
            "clique_partition_number": 10,
            "degenerate": False,
        }

    def test_degenerate_value_is_one(self):
        code, out, _ = run_cli(["number", "--n", "4", "--m", "3"])
        assert code == 0
        payload = json.loads(out.decode())
        assert payload == {
            "n": 4,
            "m": 3,
            "clique_number": 4,
            "clique_partition_number": 1,
            "degenerate": True,
        }


class TestVerify:
    def test_small_sweep(self):
        code, out, err = run_cli(["verify", "--m-range", "2..2", "--n-range", "3..6"])
        assert code == 0
        lines = out.decode().splitlines()
        assert len(lines) == 4
        reports = [json.loads(ln) for ln in lines]
        assert all(r["passed"] for r in reports)
        assert [(r["n"], r["m"]) for r in reports] == [(3, 2), (4, 2), (5, 2), (6, 2)]
        assert b"4/4 pairs passed" in err

    def test_jobs_flag_keeps_output_identical(self):
        _, serial, _ = run_cli(["verify", "--m-range", "2..3", "--n-range", "4..6"])
        _, parallel, err = run_cli(
            ["verify", "--m-range", "2..3", "--n-range", "4..6", "--jobs", "3"]
        )
        assert serial == parallel
        assert re.search(rb"pairs passed in \d+\.\d\ds wall time \(\d+\.\d\ds summed over pairs\)", err)

    def test_empty_range_is_usage_error(self):
        code, out, err = run_cli(["verify", "--m-range", "5..2", "--n-range", "3..9"])
        assert code == 1
        assert out == b""
        assert b"usage error" in err and b"no valid (n, m) pair" in err

    @pytest.mark.parametrize(
        "key",
        ["sets_equal", "intersection_sizes_ok", "size_laws_ok",
         "clique_number_ok", "edge_law_ok", "partition_ok"],
    )
    def test_failing_check_exits_3(self, monkeypatch, key):
        real = verify(JohnsonParams(4, 2))
        broken = dataclasses.replace(real, checks={**real.checks, key: False})
        monkeypatch.setattr(oracle, "verify_range", lambda *a, **k: [broken])
        code, out, err = run_cli(["verify", "--m-range", "2..2", "--n-range", "4..4"])
        assert code == 3
        assert b'"passed":false' in out
        assert json.loads(out.decode())[key] is False

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_pair_over_the_cap_is_skipped_and_the_sweep_goes_on(self, monkeypatch, jobs):
        monkeypatch.setenv("JOHNSON_MAX_VERTICES", "20")
        code, out, err = run_cli(
            ["verify", "--m-range", "2..3", "--n-range", "6..7", "--jobs", jobs]
        )
        assert code == 2
        lines = out.decode().splitlines()
        assert len(lines) == 4
        assert lines[0] == run_cli(["verify", "--m-range", "2..2", "--n-range", "6..6"])[1].decode().strip()
        assert lines[2] == run_cli(["verify", "--m-range", "3..3", "--n-range", "6..6"])[1].decode().strip()
        assert json.loads(lines[1]) == {
            "n": 7,
            "m": 2,
            "skipped": "graph has 21 vertices, above the materialization cap 20",
        }
        assert json.loads(lines[3])["skipped"].startswith("graph has 35 vertices")
        assert b"2/4 pairs passed" in err and b"2 skipped" in err

    def test_failed_check_outranks_a_skipped_pair(self, monkeypatch):
        real = verify(JohnsonParams(4, 2))
        broken = dataclasses.replace(real, checks={**real.checks, "sets_equal": False})
        skipped = SkippedPair(JohnsonParams(5, 2), "over the cap")
        monkeypatch.setattr(oracle, "verify_range", lambda *a, **k: [skipped, broken])
        code, out, _ = run_cli(["verify", "--m-range", "2..2", "--n-range", "4..5"])
        assert code == 3
        assert len(out.decode().splitlines()) == 2

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_pair_whose_check_raises_is_one_failed_line(self, monkeypatch, jobs):
        def partition_that_raises(p):
            if p == JohnsonParams(5, 3):
                raise KeyError("boom")
            return clique_partition(p)

        # The pool's workers are forked (the default start method on Linux
        # before Python 3.14), so under --jobs 2 they inherit the patch.
        monkeypatch.setattr("johnson_cliques.cliques.clique_partition", partition_that_raises)
        argv = ["verify", "--m-range", "2..4", "--n-range", "3..9", "--jobs", jobs]
        code, out, err = run_cli(argv)
        assert code == 3
        lines = out.decode().splitlines()
        golden = (GOLDEN / "verify_m2-4_n3-9.jsonl").read_text().splitlines()
        assert len(lines) == len(golden) == 18
        assert lines[8] == '{"n":5,"m":3,"passed":false,"error":"KeyError: \'boom\'"}'
        assert lines[:8] + lines[9:] == golden[:8] + golden[9:]
        assert err.startswith(b"Traceback") and b"KeyError: 'boom'\n17/18 pairs passed" in err

    def test_timings_go_to_stderr_only(self):
        argv = ["verify", "--m-range", "2..3", "--n-range", "4..6"]
        code, plain, _ = run_cli(argv)
        timed_code, timed, err = run_cli(argv + ["--timings"])
        assert code == timed_code == 0
        assert timed == plain
        reports = [json.loads(line) for line in plain.decode().splitlines()]
        timings = [json.loads(line) for line in err.decode().splitlines()[:-1]]
        assert [(t["n"], t["m"]) for t in timings] == [(r["n"], r["m"]) for r in reports]
        for t, r in zip(timings, reports):
            p = JohnsonParams(t["n"], t["m"])
            assert tuple(t["seconds"]) == VERIFY_PHASES
            assert t["counters"]["vertices"] == binomial(p.n, p.m)
            assert t["counters"]["edges"] == edge_count(p)
            assert t["counters"]["cliques_found"] == r["oracle_clique_count"]
            assert t["counters"]["expand_calls"] >= t["counters"]["cliques_found"]

    def test_ranges_of_any_width_visit_only_valid_pairs(self):
        wide = run_cli(["verify", "--m-range", "2..1000000000000", "--n-range", "3..5"])
        assert wide[:2] == run_cli(["verify", "--m-range", "2..4", "--n-range", "3..5"])[:2]

    def test_malformed_range_is_usage_error(self):
        code, _, err = run_cli(["verify", "--m-range", "2-4", "--n-range", "4..6"])
        assert code == 1

    @pytest.mark.parametrize("m_range", ["\u0662..\u0662", "\U0001d7d0..\U0001d7d0", "2..\uff12"])
    def test_range_of_non_ascii_digits_is_usage_error(self, m_range):
        # int() reads Arabic-Indic, mathematical and fullwidth digits as 2.
        code, out, err = run_cli(["verify", "--m-range", m_range, "--n-range", "3..4"])
        assert (code, out) == (1, b"")
        assert b"expected a range like 2..4" in err

    def test_range_past_the_int_digit_limit_is_usage_error(self):
        # int() refuses text of more than 4300 digits with ValueError, which
        # argparse would report under the name of the private range reader.
        m_range = "2.." + "9" * 5000
        code, out, err = run_cli(["verify", "--m-range", m_range, "--n-range", "3..4"])
        assert (code, out) == (1, b"")
        message = f"usage error: argument --m-range: expected a range like 2..4, got {m_range!r}\n"
        assert err == message.encode()

    def test_reads_the_materialization_cap_at_call_time(self, monkeypatch):
        monkeypatch.delenv("JOHNSON_MAX_VERTICES", raising=False)
        monkeypatch.setattr(oracle, "DEFAULT_MATERIALIZE_CAP", 5)
        code, out, err = run_cli(["verify", "--m-range", "3..3", "--n-range", "5..5"])
        assert code == 2
        assert out == (
            b'{"n":5,"m":3,"skipped":"graph has 10 vertices, above the materialization cap 5"}\n'
        )
        assert b"0/1 pairs passed" in err and b"1 skipped over the materialization cap 5" in err

    def test_materialization_cap_env(self, monkeypatch):
        monkeypatch.setenv("JOHNSON_MAX_VERTICES", "5")
        code, _, err = run_cli(["verify", "--m-range", "2..2", "--n-range", "4..4"])
        assert code == 2
        assert b"cap" in err

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_env_cap_below_1_is_rejected(self, monkeypatch, value):
        monkeypatch.setenv("JOHNSON_MAX_VERTICES", value)
        code, out, err = run_cli(["verify", "--m-range", "2..2", "--n-range", "4..4"])
        assert (code, out) == (2, b"")
        assert b"JOHNSON_MAX_VERTICES must be a positive integer" in err

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_1_is_usage_error(self, jobs):
        code, out, err = run_cli(
            ["verify", "--m-range", "2..2", "--n-range", "4..4", "--jobs", jobs]
        )
        assert (code, out) == (1, b"")
        assert b"usage error: --jobs must be at least 1" in err

    def test_full_range_sweep_passes(self):
        code, out, _ = run_cli(["verify", "--m-range", "2..4", "--n-range", "4..9"])
        assert code == 0
        reports = [json.loads(ln) for ln in out.decode().splitlines()]
        assert all(r["passed"] for r in reports)
        assert {(r["n"], r["m"]) for r in reports} >= {
            (n, m) for m in (2, 3, 4) for n in range(m + 2, 10)
        }


class TestExitCodes:
    def test_unknown_command(self):
        assert run_cli(["nonsense"])[0] == 1

    def test_missing_required_flag(self):
        assert run_cli(["gen", "--n", "4"])[0] == 1

    def test_non_integer_parameter(self):
        assert run_cli(["gen", "--n", "four", "--m", "2", "--format", "dot"])[0] == 1

    @pytest.mark.parametrize(
        "text",
        ["\u0665", "\uff15", "1_0", "+5", " 5", "5 ", pytest.param("9" * 5000, id="5000_digits")],
    )
    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["number", "--n", "9", "--m", "3"], "--n"),
            (["number", "--n", "9", "--m", "3"], "--m"),
            (["verify", "--m-range", "2..2", "--n-range", "4..4", "--jobs", "1"], "--jobs"),
        ],
    )
    def test_numbers_take_ascii_digits_only(self, argv, flag, text):
        # int() reads each of these texts as 5 or 10, and refuses the last
        # with ValueError: it has more digits than int() converts.
        argv = [*argv]
        argv[argv.index(flag) + 1] = text
        assert run_cli(argv) == (
            1, b"", f"usage error: argument {flag}: invalid int value: {text!r}\n".encode()
        )

    @pytest.mark.parametrize(
        "text",
        ["\u0661\u0660", "1_0", "+10", " 10", "10 ", pytest.param("9" * 5000, id="5000_digits")],
    )
    def test_env_cap_takes_ascii_digits_only(self, monkeypatch, text):
        monkeypatch.setenv("JOHNSON_MAX_VERTICES", text)
        code, out, err = run_cli(["gen", "--n", "5", "--m", "2", "--format", "edgelist"])
        assert (code, out) == (2, b"")
        message = f"error: JOHNSON_MAX_VERTICES must be a positive integer, got {text!r}\n"
        assert err == message.encode()

    def test_negative_numbers_keep_their_errors(self):
        assert run_cli(["number", "--n", "-1", "--m", "3"]) == (
            2, b"", b"error: n must be an int of at least m+1=4, got n=-1\n"
        )
        argv = ["verify", "--m-range", "2..2", "--n-range", "4..4", "--jobs", "-3"]
        assert run_cli(argv) == (1, b"", b"usage error: --jobs must be at least 1, got -3\n")

    def test_invalid_parameters_are_validation_errors(self):
        assert run_cli(["number", "--n", "4", "--m", "1"])[0] == 2
        assert run_cli(["number", "--n", "2", "--m", "2"])[0] == 2

    def test_help_goes_to_out(self, capsys, monkeypatch, tmp_path):
        code, out, err = run_cli(["verify", "--help"])
        assert code == 0
        assert out.startswith(b"usage: johnson-cliques verify")
        assert err == b""
        assert capsys.readouterr() == ("", "")
        # Every exit path writes only to the streams run() is given, and
        # leaves them open.
        real = verify(JohnsonParams(4, 2))
        failing = dataclasses.replace(real, checks={**real.checks, "sets_equal": False})
        cases = [
            (0, ["gen", "--n", "4", "--m", "2", "--format", "dot"], None),
            (0, ["adj", "--n", "5", "--m", "3", "{1,2,3}", "{1,2,4}"], None),
            (0, ["cliques", "--n", "5", "--m", "3"], None),
            (0, ["classify", "--n", "5", "--m", "3", "{1,2,3}", "{1,2,4}"], None),
            (0, ["extend", "--n", "5", "--m", "3", "{1,2,3}", "{1,2,4}"], None),
            (0, ["partition", "--n", "5", "--m", "3"], None),
            (0, ["number", "--n", "5", "--m", "3"], None),
            (0, ["verify", "--m-range", "2..2", "--n-range", "4..4"], None),
            (1, ["number", "--n", "five", "--m", "3"], None),
            (1, ["gen", "--n", "4", "--m", "2", "--format", "dot",
                 "--out", str(tmp_path / "missing" / "j.dot")], None),
            (2, ["adj", "--n", "5", "--m", "3", "{1,2}", "{1,3,4}"], None),
            (2, ["gen", "--n", "6", "--m", "3", "--format", "dot"],
             lambda mp: mp.setenv("JOHNSON_MAX_VERTICES", "5")),
            (3, ["verify", "--m-range", "2..2", "--n-range", "4..4"],
             lambda mp: mp.setattr(oracle, "verify_range", lambda *a, **k: [failing])),
        ]
        for code, argv, patch in cases:
            with monkeypatch.context() as mp:
                if patch:
                    patch(mp)
                out, err = io.BytesIO(), io.BytesIO()
                assert cli.run(argv, out, err) == code, argv
            assert out.getvalue() or err.getvalue(), argv
            assert not out.closed and not err.closed, argv
            assert capsys.readouterr() == ("", ""), argv

    def test_argument_that_is_not_utf8_is_a_one_line_usage_error(self):
        # A byte that is not UTF-8 reaches argv as a lone surrogate, which
        # stderr gets escaped, as Python's own stderr writes it.
        assert run_cli(["number", "--n", "5", "--m", "3", "\udcff"]) == (
            1, b"", b"usage error: unrecognized arguments: \\udcff\n"
        )

    @pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"]])
    def test_help_bytes_ignore_columns(self, monkeypatch, argv):
        # The text wraps at a fixed width, not at $COLUMNS or the terminal's.
        monkeypatch.setenv("COLUMNS", "40")
        narrow = run_cli(argv)
        monkeypatch.setenv("COLUMNS", "200")
        assert run_cli(argv) == narrow
        assert narrow[0] == 0

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    @pytest.mark.parametrize(
        "bad,good",
        [
            (["cliques", "--n", "5", "--m", "3", "--class", "min", "--bogus"],
             ["cliques", "--n", "5", "--m", "3"]),
            (["verify", "--m-range", "2..2", "--n-range", "3..4", "--timings", "--jobs", "x"],
             ["verify", "--m-range", "2..2", "--n-range", "3..4"]),
            (["gen", "--n", "4", "--m", "2", "--format", "dot", "--out"],
             ["gen", "--n", "4", "--m", "2", "--format", "edgelist"]),
        ],
    )
    def test_usage_error_leaves_nothing_for_the_next_run(self, bad, good):
        _, alone, alone_err = run_cli(good)
        assert run_cli(bad)[0] == 1
        code, out, err = run_cli(good)
        assert (code, out) == (0, alone)
        # verify's stderr summary carries a wall time; only its shape must match.
        assert err.split(b" in ")[0] == alone_err.split(b" in ")[0]


def _buffered_env():
    """The environment for a child ``python -m johnson_cliques`` that imports
    this tree, with the buffered stdout users get (no PYTHONUNBUFFERED)."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = src + os.pathsep + os.environ.get("PYTHONPATH", "")
    return env


class TestModuleEntryPoint:
    @pytest.mark.parametrize("module", ["johnson_cliques", "johnson_cliques.cli"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["number", "--n", "5", "--m", "3"],
            ["adj", "--n", "5", "--m", "3", "{1,2}", "{1,3,4}"],
        ],
    )
    def test_python_dash_m_matches_run(self, module, argv):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        proc = subprocess.run(
            [sys.executable, "-m", module, *argv], capture_output=True, env=env, timeout=60
        )
        code, out, err = run_cli(argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)
        assert code == (0 if argv[0] == "number" else 2)

    def test_help_through_python_dash_m(self):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        proc = subprocess.run(
            [sys.executable, "-m", "johnson_cliques", "--help"],
            capture_output=True, env=env, timeout=60,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == run_cli(["--help"])
        assert proc.stdout.startswith(b"usage: johnson-cliques")

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "--n", "13", "--m", "5", "--format", "edgelist"],
            ["cliques", "--n", "22", "--m", "4"],
        ],
    )
    def test_reader_closing_stdout_exits_141_without_traceback(self, argv):
        # Both outputs are far larger than a pipe buffer, so the writer is
        # still writing when the reader goes away, as under ``| head -1``.
        proc = subprocess.Popen(
            [sys.executable, "-m", "johnson_cliques", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=_buffered_env(),
        )
        assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 141
        assert err == b""  # no traceback

    @pytest.mark.parametrize(
        "argv", [["number", "--n", "5", "--m", "3"], ["cliques", "--n", "6", "--m", "3"]]
    )
    def test_small_output_into_a_closed_pipe_exits_141(self, argv):
        # The whole output fits in stdout's buffer, so the write fails only
        # when run() flushes it; left to the flush at interpreter exit, it
        # would print "Exception ignored" and exit 120.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "johnson_cliques", *argv],
                stdout=write_end, stderr=subprocess.PIPE, env=_buffered_env(), timeout=60,
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (141, b"")

    @needs_dev_full
    @pytest.mark.parametrize(
        "argv",
        [["number", "--n", "5", "--m", "3"], ["gen", "--n", "9", "--m", "4", "--format", "dot"]],
    )
    def test_failed_write_to_stdout_is_a_one_line_error(self, argv):
        # The first output fits in stdout's buffer and fails at run()'s
        # flush; the second fails at a write. Either way the flush at exit
        # finds devnull and cannot fail again.
        with open("/dev/full", "wb") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "johnson_cliques", *argv],
                stdout=full, stderr=subprocess.PIPE, env=_buffered_env(), timeout=60,
            )
        assert proc.returncode == 1
        assert proc.stderr == b"error: [Errno 28] No space left on device\n"

    def test_argument_that_is_not_utf8_gets_no_traceback(self):
        proc = subprocess.run(
            [sys.executable, "-m", "johnson_cliques", "number", "--n", "5", "--m", "3", b"\xff"],
            capture_output=True, env=_buffered_env(), timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (1, b"")
        assert len(proc.stderr.splitlines()) == 1
        assert b"Traceback" not in proc.stderr

    def test_importing_the_cli_loads_no_process_pool(self):
        # Only verify --jobs K with K > 1 needs multiprocessing, which pulls
        # in about 36 modules that every other command would load for nothing.
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        probe = (
            "import sys, johnson_cliques.cli; "
            "print(sorted({'concurrent.futures.process', 'multiprocessing'} & set(sys.modules)))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, env=env, timeout=60
        )
        assert (proc.returncode, proc.stdout) == (0, b"[]\n"), proc.stderr


class TestDeterminismAndRoundTrip:
    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "--n", "4", "--m", "2", "--format", "dot"],
            ["gen", "--n", "5", "--m", "3", "--format", "json"],
            ["cliques", "--n", "5", "--m", "3"],
            ["partition", "--n", "6", "--m", "3"],
            ["number", "--n", "7", "--m", "3"],
            ["verify", "--m-range", "2..2", "--n-range", "3..5"],
        ],
    )
    def test_repeated_runs_byte_identical(self, argv):
        assert run_cli(argv)[1] == run_cli(argv)[1]

    def test_printed_labels_are_accepted_back(self):
        _, out, _ = run_cli(["gen", "--n", "5", "--m", "2", "--format", "edgelist"])
        pairs = [line.split(" -- ") for line in out.decode().splitlines()]
        for left, right in pairs[:10]:
            code, answer, _ = run_cli(["adj", "--n", "5", "--m", "2", left, right])
            assert code == 0
            assert answer == b"true\n"


GOLDEN_CASES = [
    ("j_4_2.dot", ["gen", "--n", "4", "--m", "2", "--format", "dot"]),
    ("j_4_2.edgelist", ["gen", "--n", "4", "--m", "2", "--format", "edgelist"]),
    ("j_4_2.json", ["gen", "--n", "4", "--m", "2", "--format", "json"]),
    ("j_4_2.cliques.jsonl", ["cliques", "--n", "4", "--m", "2", "--class", "all"]),
    ("j_5_3.dot", ["gen", "--n", "5", "--m", "3", "--format", "dot"]),
    ("j_5_3.edgelist", ["gen", "--n", "5", "--m", "3", "--format", "edgelist"]),
    ("j_5_3.json", ["gen", "--n", "5", "--m", "3", "--format", "json"]),
    ("j_5_3.cliques.jsonl", ["cliques", "--n", "5", "--m", "3", "--class", "all"]),
    ("verify_m2-4_n3-9.jsonl", ["verify", "--m-range", "2..4", "--n-range", "3..9"]),
    ("j_5_3.partition.json", ["partition", "--n", "5", "--m", "3"]),
    ("j_6_3.partition.json", ["partition", "--n", "6", "--m", "3"]),
    ("j_4_3.partition.json", ["partition", "--n", "4", "--m", "3"]),
    # The --help bytes follow argparse's layout, recorded under Python 3.11;
    # the top-level description is the cli module docstring.
    ("help_top.txt", ["--help"]),
    *(
        (f"help_{command}.txt", [command, "--help"])
        for command in ("gen", "adj", "cliques", "classify", "extend", "partition", "number", "verify")
    ),
    # verify at sizes the acceptance-range golden above does not reach (n 12..13).
    ("verify_m4-5_n12-13.jsonl", ["verify", "--m-range", "4..5", "--n-range", "12..13"]),
]


class TestGoldenFiles:
    @pytest.mark.parametrize("name,argv", GOLDEN_CASES)
    def test_matches_golden(self, name, argv):
        code, out, _ = run_cli(argv)
        assert code == 0
        assert out == (GOLDEN / name).read_bytes()

    def test_golden_edgelist_is_sorted_and_labelled(self):
        text = (GOLDEN / "j_5_3.edgelist").read_text()
        line_re = re.compile(r"\{\d(,\d)*\} -- \{\d(,\d)*\}$")
        lines = text.splitlines()
        assert len(lines) == 30
        assert all(line_re.match(ln) for ln in lines)
