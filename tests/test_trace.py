"""Trace line grammar, structural checks in ``ingest``, JSONL export."""

import hashlib
import io
import json
import random
import re
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cct_lens.cct import ingest, serialize_forest
from cct_lens.compare import load_snapshot_file
from cct_lens.trace import (
    ECHO_CAP,
    ENTER,
    EXIT,
    LINE_CAP,
    READ_SIZE,
    WRITE_BATCH,
    TraceEvent,
    TraceParseError,
    TraceStructureError,
    format_trace_line,
    iter_trace,
    join_lines,
    jsonl_lines,
    load_json_file,
    parse_trace_line,
    text_lines,
    write_lines,
)
from cct_lens.workload import load_workload_spec_file

from conftest import random_trace, rescan_bad_byte, trace_lines


class TestParseTraceLine:
    def test_enter(self):
        assert parse_trace_line("0\t1\tE\ta") == TraceEvent(0, 1, ENTER, "a")

    def test_exit(self):
        assert parse_trace_line("10\t1\tX\ta") == TraceEvent(10, 1, EXIT, "a")

    def test_unknown_event_kind(self):
        with pytest.raises(TraceParseError, match="event kind"):
            parse_trace_line("10\t1\tQ\ta")

    def test_comment_and_blank(self):
        assert parse_trace_line("# a comment") is None
        assert parse_trace_line("") is None
        assert parse_trace_line("   \n") is None

    def test_field_count(self):
        with pytest.raises(TraceParseError, match="4 tab-separated fields"):
            parse_trace_line("0\t1\tE")
        with pytest.raises(TraceParseError):
            parse_trace_line("0\t1\tE\ta\textra")

    def test_bad_timestamp(self):
        with pytest.raises(TraceParseError, match="timestamp"):
            parse_trace_line("soon\t1\tE\ta")

    def test_bad_tid(self):
        with pytest.raises(TraceParseError, match="thread id"):
            parse_trace_line("0\tx\tE\ta")
        with pytest.raises(TraceParseError, match="thread id"):
            parse_trace_line("0\t-1\tE\ta")

    def test_bad_method(self):
        # any character for which str.isspace() holds, not only space
        for method in ("a b", "a\x0cb", "a\xa0b", "a\u2028b", "\x1fa"):
            with pytest.raises(TraceParseError, match="whitespace"):
                parse_trace_line(f"0\t1\tE\t{method}")

    def test_error_names_line_number(self):
        with pytest.raises(TraceParseError, match="line 7"):
            parse_trace_line("0\t1\tQ\ta", lineno=7)
        try:
            parse_trace_line("0\t1\tQ\ta", lineno=7)
        except TraceParseError as exc:
            assert exc.lineno == 7

    def test_negative_timestamp_allowed(self):
        # clock origin is arbitrary
        assert parse_trace_line("-5\t1\tE\ta").ts == -5

    def test_timestamp_outside_64_bits(self):
        assert parse_trace_line(f"{-2**63}\t1\tE\ta").ts == -2**63
        assert parse_trace_line(f"{2**63 - 1}\t1\tE\ta").ts == 2**63 - 1
        for ts in [-2**63 - 1, 2**63, 10**400]:
            with pytest.raises(TraceStructureError, match="^tid 3, line 7: timestamp outside "
                                                          "the signed 64-bit range$"):
                parse_trace_line(f"{ts}\t3\tE\ta", lineno=7)
        # the grammar is checked first
        with pytest.raises(TraceParseError, match="^line 7: bad event kind"):
            parse_trace_line(f"{2**63}\t3\tQ\ta", lineno=7)

    @pytest.mark.parametrize("fields, message", [
        (("T", "1", "E", "a"), "bad timestamp {}"),
        (("0", "T", "E", "a"), "bad thread id {}"),
        (("0", "1", "T", "a"), "bad event kind {} (expected E or X)"),
        (("0", "1", "E", "T b"), "method name contains whitespace: {}"),
    ])
    def test_echoes_are_cut(self, fields, message):
        # a field of ECHO_CAP characters is quoted whole, a longer one cut
        for size in (ECHO_CAP - 2, ECHO_CAP + 1, LINE_CAP - 20):
            text = "x" * size
            line = "\t".join(field.replace("T", text) for field in fields)
            echo = [field for field in fields if "T" in field][0].replace("T", text)
            if len(echo) > ECHO_CAP:
                echo = f"{echo[:ECHO_CAP]!r}... ({len(echo)} characters)"
            else:
                echo = repr(echo)
            with pytest.raises(TraceParseError) as info:
                parse_trace_line(line, 2)
            assert str(info.value) == "line 2: " + message.format(echo)
            assert len(str(info.value)) < 300

    def test_negative_tid_echo_is_cut(self):
        with pytest.raises(TraceParseError) as info:
            parse_trace_line("0\t-" + "9" * 4000 + "\tE\ta")
        cut = "-" + "9" * (ECHO_CAP - 1)
        assert str(info.value) == f"negative thread id {cut}... (4001 characters)"

    def test_method_with_signature(self):
        line = "0\t1\tE\tgetConnection(java.lang.String,java.lang.String,java.lang.String)"
        event = parse_trace_line(line)
        assert event.method.startswith("getConnection(")


valid_methods = st.text(
    alphabet="abcdefghijklmnop._()<>$0123456789,", min_size=1, max_size=40
)


class TestRoundTrip:
    @given(
        ts=st.integers(min_value=-(10**15), max_value=10**18),
        tid=st.integers(min_value=0, max_value=10**6),
        kind=st.sampled_from([ENTER, EXIT]),
        method=valid_methods,
    )
    def test_format_then_parse_is_identity(self, ts, tid, kind, method):
        event = TraceEvent(ts, tid, kind, method)
        assert parse_trace_line(format_trace_line(event)) == event


class TestReadTrace:
    """Reading trace text into per-thread trees through ``ingest``."""

    def test_single_thread_partition(self):
        lines = ["0\t1\tE\ta", "1\t1\tE\tb", "2\t1\tX\tb", "3\t1\tX\ta"]
        forest = ingest(lines)
        assert list(forest) == [1]
        assert forest[1].node_count() == 3

    def test_interleaved_partition_keeps_file_order(self):
        lines = ["0\t1\tE\ta", "1\t2\tE\tb", "5\t1\tX\ta", "6\t2\tX\tb"]
        forest = ingest(lines)
        assert list(forest) == [1, 2]
        assert list(forest[1].children) == ["a"]
        assert forest[2].children["b"].total_time == 5

    def test_timestamp_regression_strict(self):
        lines = ["5\t1\tE\ta", "3\t1\tX\ta"]
        with pytest.raises(TraceStructureError, match="tid 1, line 2"):
            ingest(lines)
        try:
            ingest(lines)
        except TraceStructureError as exc:
            assert exc.tid == 1 and exc.lineno == 2

    def test_timestamp_regression_lenient_warns(self):
        lines = ["5\t1\tE\ta", "3\t1\tX\ta"]
        warnings: list[str] = []
        forest = ingest(lines, lenient=True, warn=warnings.append)
        assert forest[1].children["a"].invocations == 1
        assert len(warnings) == 1 and "regression" in warnings[0]
        assert warnings[0].startswith("tid 1, line 2:")

    def test_cross_thread_regression_is_fine(self):
        # per-tid clocks are independent
        lines = ["100\t1\tE\ta", "5\t2\tE\tb", "110\t1\tX\ta", "9\t2\tX\tb"]
        forest = ingest(lines)
        assert len(forest) == 2

    def test_parse_error_carries_line_number(self):
        lines = ["0\t1\tE\ta", "broken line"]
        with pytest.raises(TraceParseError, match="line 2"):
            ingest(lines)

    def test_comments_do_not_shift_line_numbers(self):
        lines = ["# header", "", "0\t1\tQ\ta"]
        with pytest.raises(TraceParseError, match="line 3"):
            ingest(lines)
        lines = ["# header", "", "0\t1\tE\ta", "1\t1\tX\tb"]
        with pytest.raises(TraceStructureError, match="tid 1, line 4"):
            ingest(lines)

    def test_file_reader(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("# c\n0\t1\tE\ta\n2\t1\tX\ta\n", encoding="utf-8")
        with open(path, encoding="utf-8") as fh:
            forest = ingest(fh)
        assert forest[1].children["a"].total_time == 2


class TestValidateTrace:
    """The structural rules ``ingest`` enforces, strict and lenient."""

    def test_balanced_trace_all_zero(self):
        warnings: list[str] = []
        lines = ["0\t1\tE\ta", "1\t1\tE\tb", "2\t1\tX\tb", "3\t1\tX\ta"]
        assert ingest(lines, lenient=True, warn=warnings.append) == ingest(lines)
        assert warnings == []

    def test_mismatched_exit_is_orphan(self):
        lines = ["0\t1\tE\ta", "1\t1\tE\tb", "2\t1\tX\ta"]
        with pytest.raises(TraceStructureError, match="tid 1, line 3: mismatched exit"):
            ingest(lines)
        warnings: list[str] = []
        forest = ingest(lines, lenient=True, warn=warnings.append)
        # the dropped exit leaves both enters open, closed at the end
        assert len(warnings) == 2
        assert "line 3" in warnings[0] and "mismatched" in warnings[0]
        assert "closed 2 frame(s)" in warnings[1]
        a = forest[1].children["a"]
        assert a.truncated and a.children["b"].truncated

    def test_unmatched_enter(self):
        with pytest.raises(TraceStructureError, match="tid 1, line 2: 1 frame"):
            ingest(["0\t1\tE\ta", "# trailer"])

    def test_exit_on_empty_stack(self):
        with pytest.raises(TraceStructureError, match="tid 1, line 1: orphan exit"):
            ingest(["0\t1\tX\ta"])
        warnings: list[str] = []
        forest = ingest(["0\t1\tX\ta"], lenient=True, warn=warnings.append)
        assert len(warnings) == 1 and "orphan" in warnings[0]
        assert not forest[1].children

    def test_ordering_violation_counted(self):
        warnings: list[str] = []
        ingest(["5\t1\tE\ta", "3\t1\tX\ta", "4\t1\tE\tb", "9\t1\tX\tb"],
               lenient=True, warn=warnings.append)
        # clamped to the running maximum 5, so 4 regresses too
        assert len(warnings) == 2
        assert all("regression" in w for w in warnings)

    @given(st.integers(min_value=0, max_value=10**6))
    def test_interleaving_insensitive(self, seed):
        rng = random.Random(seed)
        events = random_trace(rng, max_events=80)
        by_tid: dict[int, list[TraceEvent]] = {}
        for event in events:
            by_tid.setdefault(event.tid, []).append(event)
        # same per-tid groups presented in reversed thread order
        shuffled = [line for tid in reversed(list(by_tid)) for line in trace_lines(by_tid[tid])]
        baseline = ingest(trace_lines(events))
        assert ingest(shuffled) == baseline
        assert serialize_forest(ingest(shuffled)) == serialize_forest(baseline)

    @given(st.integers(min_value=0, max_value=10**6))
    def test_random_interleavings_read_identically(self, seed):
        rng = random.Random(seed)
        events = random_trace(rng, max_events=60)
        lines_a = trace_lines(events)
        by_tid_order: dict[int, list[TraceEvent]] = {}
        for event in events:
            by_tid_order.setdefault(event.tid, []).append(event)
        # a second interleaving: thread groups concatenated wholesale, with
        # comments and blank lines between them
        lines_b = ["# second interleaving"]
        for tid in by_tid_order:
            lines_b += trace_lines(by_tid_order[tid]) + [""]
        warn_a: list[str] = []
        warn_b: list[str] = []
        a = ingest(lines_a, lenient=True, warn=warn_a.append)
        b = ingest(lines_b, lenient=True, warn=warn_b.append)
        assert serialize_forest(a) == serialize_forest(b)
        assert warn_a == warn_b == []


def _mutations(line: str):
    """Ways to damage a valid line, each a function of the line."""
    ts, tid, kind, method = line.split("\t")
    return [
        lambda: line + "\textra",
        lambda: "\t".join((ts, tid, kind)),
        lambda: "\t".join((ts, tid, kind + method)),
        lambda: line + "  ",
        lambda: line + "\t\t",
        lambda: line + " \t ",
        lambda: "\t".join((ts, tid, kind, method[:1] + " " + method[1:])),
        lambda: "\t".join((ts, tid, kind, " " + method)),
        lambda: "\t".join(("+5", tid, kind, method)),
        lambda: "\t".join(("1_0", tid, kind, method)),
        lambda: "\t".join(("x", tid, kind, method)),
        lambda: "\t".join((ts, "+5", kind, method)),
        lambda: "\t".join((ts, "1_0", kind, method)),
        lambda: "\t".join((ts, "x", kind, method)),
        lambda: "\t".join((ts, "-" + tid, kind, method)),
        lambda: "\t".join((ts, tid, "Q", method)),
        lambda: "\t".join((ts, tid, kind.lower(), method)),
        lambda: "\t".join((ts, tid, "", method)),
        lambda: "\t".join((ts, tid, kind, "")),
        lambda: "#" + line,
        lambda: "   ",
        lambda: "",
        lambda: line,
    ]


def _outcome(parse):
    """What a grammar check made of a line: the error text, or None."""
    try:
        parse()
    except TraceParseError as exc:
        return str(exc)
    return None


# names that may also hold whitespace beyond space, tab and newline:
# form feed, no-break space, line separator
any_methods = st.text(
    alphabet="abcdefghijklmnop._()<>$0123456789,\x0c\xa0\u2028", min_size=1, max_size=40
)


class TestIngestGrammar:
    """``ingest`` and ``jsonl_lines`` keep every line check of ``parse_trace_line``,
    word for word."""

    @given(
        ts=st.integers(min_value=-(10**12), max_value=10**15),
        tid=st.integers(min_value=0, max_value=999),
        kind=st.sampled_from([ENTER, EXIT]),
        method=any_methods,
        which=st.integers(min_value=0, max_value=22),
    )
    def test_same_verdict_as_parse_trace_line(self, ts, tid, kind, method, which):
        valid = format_trace_line(TraceEvent(ts, tid, kind, method))
        line = _mutations(valid)[which]()
        # once a valid primer admits the thread and the method name, only
        # the quick checks run
        primer = format_trace_line(TraceEvent(ts, tid, ENTER, method))
        alone = _outcome(lambda: parse_trace_line(line, 1))
        primed = (_outcome(lambda: parse_trace_line(primer, 1))
                  or _outcome(lambda: parse_trace_line(line, 2)))
        for loop in (lambda lines: ingest(lines, lenient=True),
                     lambda lines: list(jsonl_lines(lines))):
            assert _outcome(lambda: loop([line])) == alone
            assert _outcome(lambda: loop([primer, line])) == primed

    def test_accepted_line_builds_its_event(self):
        forest = ingest(["7\t3\tE\ta", "9\t3\tX\ta"])
        assert forest[3].children["a"].total_time == 2

    def test_thread_id_spellings_name_one_thread(self):
        forest = ingest(["7\t3\tE\ta", "8\t03\tE\tb", "9\t+3\tX\tb", "9\t 3\tX\ta"])
        assert list(forest) == [3]
        a = forest[3].children["a"]
        assert (a.total_time, a.children["b"].total_time) == (2, 1)


def _dumps(event: TraceEvent) -> str:
    return json.dumps({"ts": event.ts, "tid": event.tid, "ev": event.kind, "m": event.method})


def _jsonl_event(line: str) -> TraceEvent:
    """The event one JSON line holds; the package has no reader for these lines."""
    obj = json.loads(line)
    assert list(obj) == ["ts", "tid", "ev", "m"], line
    assert type(obj["ts"]) is int and type(obj["tid"]) is int, line
    return TraceEvent(*obj.values())


class TestJsonl:
    @given(
        ts=st.integers(min_value=-(10**12), max_value=10**15),
        tid=st.integers(min_value=0, max_value=999),
        kind=st.sampled_from([ENTER, EXIT]),
        method=st.text(alphabet='abc._()<>$09,"\\\x7f\xe9\u2603\U0001f600', min_size=1,
                       max_size=20),
    )
    def test_same_text_as_json_dumps(self, ts, tid, kind, method):
        event = TraceEvent(ts, tid, kind, method)
        line = format_trace_line(event)
        # the second line takes the quick path, with the name's cached text
        primer = format_trace_line(TraceEvent(ts, tid, ENTER, method))
        assert list(jsonl_lines([line])) == [_dumps(event)]
        assert list(jsonl_lines([primer, line]))[1] == _dumps(event)

    def test_thread_id_and_timestamp_spellings(self):
        lines = ["7\t3\tE\ta", "+8\t03\tE\tb", "9\t+3\tX\tb", "# c", "", "1_0\t3\tX\ta"]
        assert list(jsonl_lines(lines)) == [
            _dumps(TraceEvent(7, 3, ENTER, "a")), _dumps(TraceEvent(8, 3, ENTER, "b")),
            _dumps(TraceEvent(9, 3, EXIT, "b")), _dumps(TraceEvent(10, 3, EXIT, "a"))]

    def test_memory_does_not_grow_with_the_lines(self):
        def peak(repeats: int) -> int:
            # 4 threads, 10 method names, every line read once
            lines = (f"{i}\t{i % 4}\t{'EX'[i // 4 % 2]}\tm{i // 8 % 10}()"
                     for i in range(2000 * repeats))
            tracemalloc.start()
            try:
                for _ in jsonl_lines(lines):
                    pass
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(8) <= 1.5 * peak(1)

    def test_round_trip(self):
        lines = ["0\t1\tE\ta()", "7\t1\tX\ta()", "# c", "2\t2\tE\tb.<init>()",
                 "3\t2\tX\tb.<init>()"]
        got = [_jsonl_event(line) for line in jsonl_lines(lines)]
        assert got == [parse_trace_line(line) for line in lines if line[0] != "#"]

    @given(
        ts=st.integers(min_value=-(10**12), max_value=10**15),
        tid=st.integers(min_value=0, max_value=999),
        kind=st.sampled_from([ENTER, EXIT]),
        method=valid_methods,
    )
    def test_round_trip_property(self, ts, tid, kind, method):
        line = format_trace_line(TraceEvent(ts, tid, kind, method))
        # the second line takes the quick path
        lines = [f"{ts}\t{tid}\tE\t{method}", line]
        got = [_jsonl_event(text) for text in jsonl_lines(lines)]
        assert got == [parse_trace_line(text) for text in lines]

    # export --format jsonl writes only events that meet the line grammar;
    # each bad line follows a good one of its thread and name
    def test_rejects_non_integer_fields(self):
        for line, message in [("1.5\t1\tE\ta", "bad timestamp '1.5'"),
                              ("True\t1\tE\ta", "bad timestamp 'True'"),
                              ("0\t-2\tE\ta", "negative thread id -2")]:
            with pytest.raises(TraceParseError, match=f"^line 2: {re.escape(message)}$"):
                list(jsonl_lines(["0\t1\tE\ta", line]))

    def test_rejects_missing_field_and_bad_json(self):
        for line, fields in [("0\t1\tE", 3), ('{"ts": 0, "tid": 1, "ev": "E", "m": "a"}', 1)]:
            with pytest.raises(TraceParseError,
                               match=f"^line 2: expected 4 tab-separated fields, got {fields}$"):
                list(jsonl_lines(["0\t1\tE\ta", line]))

    def test_rejects_whitespace_method(self):
        with pytest.raises(TraceParseError,
                           match="^line 2: method name contains whitespace: 'a b'$"):
            list(jsonl_lines(["0\t1\tE\ta", "0\t1\tE\ta b"]))


class ShortReads:
    """A binary stream whose reads return at most the next of ``sizes``
    bytes each, taking the sizes in turn."""

    def __init__(self, data: bytes, sizes: list[int]):
        self.data, self.sizes, self.pos, self.reads = data, sizes, 0, 0

    def read(self, n: int) -> bytes:
        size = min(n, self.sizes[self.reads % len(self.sizes)])
        self.reads += 1
        chunk = self.data[self.pos:self.pos + size]
        self.pos += len(chunk)
        return chunk


# each line ending, characters of one to four UTF-8 bytes, and the characters
# str.splitlines() also cuts at, which a text file keeps inside a line
PIECES = ["\n", "\r", "\r\n", "a", "\u00e9", "\U0001f600", "\x0c", "\x1e", "\x85", "\u2028"]


def text_file_lines(data: bytes) -> list[str]:
    """The lines of ``data`` read as a text file, without their endings."""
    return [line.removesuffix("\n")
            for line in io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")]


class TestTextLines:
    """``text_lines`` splits and decodes as a text file does, read by read."""

    def check(self, data: bytes, sizes: list[int]) -> None:
        sha256 = hashlib.sha256()
        assert list(text_lines(ShortReads(data, sizes), sha256)) == text_file_lines(data)
        assert sha256.hexdigest() == hashlib.sha256(data).hexdigest()

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(PIECES)).map("".join),
           st.lists(st.integers(1, 9), min_size=1))
    @example("", [1])
    @example("a\r\nb", [2])  # a read ends between the \r and its \n
    @example("\U0001f600\u00e9", [1, 2, 3])  # reads end inside both characters
    def test_lines_and_digest_match_a_text_file(self, text, sizes):
        self.check(text.encode("utf-8"), sizes)

    def test_every_cut_of_one_text(self):
        data = "".join(PIECES * 2).encode("utf-8")
        for cut in range(len(data) + 1):
            self.check(data, [cut or 1, len(data)])

    def test_bad_byte_raises_after_the_lines_of_earlier_reads(self):
        data = b"a\nb\n" + b"c\xffd\ne\n"
        lines = text_lines(ShortReads(data, [4, 100]))
        assert [next(lines), next(lines)] == ["a", "b"]
        with pytest.raises(ValueError, match="^line 3: byte 0xff is not UTF-8"):
            next(lines)
        with pytest.raises(ValueError, match=r"^line 2: .*\(unexpected end of data\)$"):
            list(text_lines(io.BytesIO(b"a\n\xe2\x82")))

    def test_a_line_of_the_cap_is_read(self):
        line = "x" * LINE_CAP
        assert list(text_lines(io.BytesIO(f"a\r\n{line}\rb".encode()))) == ["a", line, "b"]

    @pytest.mark.parametrize("data, lineno", [
        (b"a\nb\n" + b"x" * (LINE_CAP + 1), 3),  # the line is the rest of every read
        (b"a\n" + b"x" * (LINE_CAP + 1) + b"\nb\n", 2),  # it ends inside a read
        (b"\xc3\xa9" * (LINE_CAP + 1), 1),  # characters, not bytes, count
    ], ids=["held-back", "ended", "two-byte"])
    def test_a_longer_line_is_refused_before_the_rest_is_read(self, data, lineno):
        stream = ShortReads(data + b"y" * (4 * LINE_CAP), [READ_SIZE])
        with pytest.raises(ValueError,
                           match=f"^line {lineno}: line longer than {LINE_CAP} characters$"):
            list(text_lines(stream))
        assert stream.pos <= len(data) + READ_SIZE


# line endings and characters of one to four bytes, then a byte that starts
# no character, a lone continuation byte, sequences cut short (at the end of
# the data, they end it early) and a surrogate, which UTF-8 does not encode
BYTE_PIECES = [piece.encode() for piece in ["\n", "\r", "\r\n", "a", "\u00e9", "\u20ac",
                                            "\U0001f600"]]
BAD_BYTES = [b"\xff", b"\x80", b"\xc3", b"\xe2\x82", b"\xf0\x9f\x98", b"\xed\xa0\x80"]


@pytest.fixture(scope="class")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("docs") / "doc.json"


class TestBadByteLine:
    """Every reader names the line that a second read of the file names,
    wherever the reads fall."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(BYTE_PIECES)).map(b"".join), st.sampled_from(BAD_BYTES),
           st.lists(st.sampled_from(BYTE_PIECES)).map(b"".join),
           st.lists(st.integers(1, 9), min_size=1))
    @example(b"a\r", b"\xff", b"", [2])  # the decoder holds the \r as the byte comes
    @example(b"a\r\n", b"\xff", b"", [2])  # a read ends between the \r and its \n
    @example(b"\r\xe2", b"\xff", b"", [2])  # a \r, then a character the read cut
    @example("\u00e9\U0001f600".encode(), b"\xff", b"\n", [1, 2, 3])  # reads cut characters
    @example(b"\r", b"\xe2\x82", b"", [1])  # cut short at the end, after a held \r
    def test_the_line_of_a_rescan(self, doc_path, before, bad, after, sizes):
        data = before + bad + after
        line, byte = rescan_bad_byte(data)
        with pytest.raises(ValueError, match=f"^line {line}: byte 0x{byte:02x} is not UTF-8 "):
            list(text_lines(ShortReads(data, sizes)))
        # the JSON loaders decode the whole file; a snapshot must start with {
        doc_path.write_bytes(b"{" + data)
        line, byte = rescan_bad_byte(b"{" + data)
        message = f"{doc_path}: line {line}: byte 0x{byte:02x} is not UTF-8 ("
        for load in (load_snapshot_file, load_workload_spec_file):
            with pytest.raises(ValueError) as caught:
                load(doc_path)
            assert str(caught.value).startswith(message)


class TestLoadJsonFile:
    @pytest.mark.parametrize("data", [b"", b" \t\r\n", b"\n {}", b"{\xc3\xa9\r\n"])
    def test_object_or_blank_is_read_whole(self, tmp_path, data):
        path = tmp_path / "doc.json"
        path.write_bytes(data)
        text = load_json_file(path, lambda text: text, "refused")
        assert text == data.decode("utf-8").replace("\r\n", "\n")

    @pytest.mark.parametrize("data", [b"[1]", b" \n\xff{}", b"\x1f\x8b" + bytes(10**5)])
    def test_non_object_is_refused_naming_the_file(self, tmp_path, data):
        path = tmp_path / "doc.json"
        path.write_bytes(data)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: refused$"):
            load_json_file(path, lambda text: pytest.fail("loaded"), "refused")


class TestOneLineProtocol:
    """``join_lines`` is the text ``write_lines`` writes, batch by batch."""

    # no lines, one empty line, lines that span lines or hold a bare "\r",
    # and more lines, or one longer line, than a batch holds
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.text(st.sampled_from(["a", "\n", "\r", "\u00e9", "\U0001f600"]),
                            max_size=5), max_size=8))
    @example([])
    @example([""])
    @example(["{\n  \"a\": 1", "}"])
    @example(["", "\n", "x\n\ny", "\r"])
    @example(["line %d" % i for i in range(3 * WRITE_BATCH // 6)])
    @example(["x" * (WRITE_BATCH + 3), "", "y" * (2 * WRITE_BATCH)])
    def test_join_lines_is_what_write_lines_writes(self, lines):
        digest = hashlib.sha256()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "out"
            write_lines(iter(lines), path, digest)
            written = path.read_bytes()
        text = join_lines(iter(lines))
        assert written == text.encode("utf-8")
        assert digest.hexdigest() == hashlib.sha256(written).hexdigest()
        assert text == "".join(line + "\n" for line in lines)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.text(st.sampled_from(["a", "\n", "\u00e9", "\U0001f600"]), max_size=5),
                    max_size=8))
    @example([])
    @example([""])
    @example(["piece %d" % i for i in range(3 * WRITE_BATCH // 7)])
    @example(["x" * (WRITE_BATCH + 3), "", "y" * (2 * WRITE_BATCH)])
    def test_pieces_make_one_line(self, pieces):
        digest = hashlib.sha256()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "out"
            write_lines(iter(pieces), path, digest, pieces=True)
            written = path.read_bytes()
        assert written == join_lines(["".join(pieces)]).encode("utf-8")
        assert digest.hexdigest() == hashlib.sha256(written).hexdigest()

    def test_the_pieces_before_a_raising_producer_are_written(self, tmp_path):
        def produce():
            yield from ("x" * 100 for _ in range(WRITE_BATCH // 50))
            raise ValueError("stop")

        with pytest.raises(ValueError, match="^stop$"):
            write_lines(produce(), tmp_path / "out", pieces=True)
        assert (tmp_path / "out").read_text() == "x" * 100 * (WRITE_BATCH // 50)

    def test_pieces_are_written_in_batches(self, monkeypatch):
        writes = []

        class Counting(io.StringIO):
            def write(self, text):
                writes.append(text)
                return len(text)

        monkeypatch.setattr(sys, "stdout", Counting())
        write_lines(("ab" for _ in range(WRITE_BATCH)), pieces=True)
        assert "".join(writes) == "ab" * WRITE_BATCH + "\n"
        assert len(writes) == 3 and len(writes[0]) == WRITE_BATCH
