"""Dynamic call trace format: one method enter/exit event per line.

The on-disk format is UTF-8 text, tab separated, four fields per line::

    <ts> TAB <tid> TAB <E|X> TAB <method>

``ts`` is signed 64-bit integer nanoseconds on a monotonic clock with an
arbitrary per-run origin, ``tid`` is a non-negative thread id, ``E``/``X``
marks method enter/exit, and ``method`` is a fully qualified method name
that contains no whitespace: no character for which ``str.isspace()``
holds.  Lines starting with ``#`` are comments; blank lines are ignored.
Per thread, timestamps must be non-decreasing and enters/exits must nest
like a stack.

This module owns the line grammar (``parse_trace_line``), the timestamp
range included, so every reader refuses a timestamp out of range on its
line.  The structural checks, nesting and per-thread timestamp order,
live in ``cct.ingest``, which parses, checks and builds a tree in one pass.

``text_lines`` reads every trace and catalog: a binary stream, in reads
of ``READ_SIZE`` bytes, to lines of at most ``LINE_CAP`` characters.
``jsonl_lines`` streams a JSON-lines rendering with keys
``ts``/``tid``/``ev``/``m``; the tab-separated form is canonical.
``decode`` decodes every input file and names the line of a byte that is
not UTF-8; ``errors_in`` names the file in the errors of every file
reader, ``load_json_file`` reads snapshots and specs, and ``json_field``
type-checks their fields.  ``write_lines``, the one writer of every
output, names the output in its failed writes.  Producers yield lines
without newlines: ``write_lines`` ends each, or with ``pieces`` the one
line they make; ``join_lines`` gives the same text as one string.
``REPORT_FORMATS`` names the report formats; ``json_rows`` gives the rows
of the JSON reports and snapshots, as ``json.dumps(obj, indent=2)`` does.
"""

from __future__ import annotations

import codecs
import contextlib
import io
import os
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii as _json_string
from typing import Iterable, Iterator, NamedTuple, Sequence

ENTER = "E"
EXIT = "X"

# timestamps are signed 64-bit nanoseconds: each thread's times stay below
# 2**64, so the tables of fewer than 2**32 threads stay below the 2**96 that
# snapshot loading allows
TS_RANGE = range(-2**63, 2**63)
TS_RANGE_ERROR = "timestamp outside the signed 64-bit range"


class TraceError(ValueError):
    """Base class for trace format and trace structure problems.

    The message starts with ``tid T, line N: `` for the parts given.
    """

    def __init__(self, message: str, lineno: int | None = None, tid: int | None = None):
        self.lineno = lineno
        self.tid = tid
        where = ", ".join(f"{name} {value}" for name, value in (("tid", tid), ("line", lineno))
                          if value is not None)
        super().__init__(f"{where}: {message}" if where else message)


class TraceParseError(TraceError):
    """A line that does not conform to the trace grammar."""


class TraceStructureError(TraceError):
    """A structurally broken trace: bad nesting, timestamp regression, or a
    timestamp outside the signed 64-bit range.

    Lenient consumers repair or drop the offending events instead, except
    for a timestamp out of range, which both modes refuse.
    """


@contextlib.contextmanager
def errors_in(path):
    """Name ``path`` in a ValueError (a TraceError too) raised in the block."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


# bytes per read: what the text layer reads, so a byte that is not UTF-8
# stops a command after the same lines as a text-mode read does
READ_SIZE = 1 << 13
# characters per line: the JVM keeps a constant-pool string, and so a
# method name, under 65,535 bytes (JVM spec §4.4.7)
LINE_CAP = 1 << 20
_UTF8 = codecs.getincrementaldecoder("utf-8")
# characters of a name or value that an error or warning quotes
ECHO_CAP = 200


def clip(text: str, form=str) -> str:
    """``form(text)``; of a text over ``ECHO_CAP`` characters, ``form`` of its
    first ``ECHO_CAP``, an ellipsis and its length."""
    cut = len(text) > ECHO_CAP
    return f"{form(text[:ECHO_CAP])}... ({len(text)} characters)" if cut else form(text)


def decode(data: bytes, decoder=None, line: int = 1) -> str:
    """The UTF-8 text of ``data``, each ``\\r\\n`` and lone ``\\r`` made ``\\n``.
    ``data`` is a whole file, or one read, starting on ``line``, of a file
    that ``decoder`` decodes read by read, up to an empty read.  A byte that
    is not UTF-8 raises ValueError: ``line N: byte 0xXX is not UTF-8 (reason)``."""
    final = decoder is None or not data
    decoder = decoder or io.IncrementalNewlineDecoder(_UTF8(), True)
    try:
        return decoder.decode(data, final)
    except UnicodeDecodeError as exc:
        # the breaks before it: a \r held from the last read, then this read's
        before = b"\r"[:decoder.getstate()[1] & 1] + exc.object[:exc.start]
        line += before.count(b"\n") + before.count(b"\r") - before.count(b"\r\n")
        raise ValueError(f"line {line}: byte 0x{exc.object[exc.start]:02x} "
                         f"is not UTF-8 ({exc.reason})") from None


def load_json_file(path, load, refusal: str):
    """``load`` of the text of the file ``path``, a JSON object; errors name
    the file.  A file whose first read's first non-blank byte is not ``{``
    raises ValueError(``refusal``) before the rest is read or decoded."""
    with errors_in(path), open(path, "rb") as fh:
        if fh.peek().lstrip(b" \t\n\r")[:1] not in (b"{", b""):
            raise ValueError(refusal)
        return load(decode(fh.read()))


def text_lines(stream, sha256=None) -> Iterator[str]:
    """The lines, without their endings, of the UTF-8 text of the binary
    ``stream``, split as ``open(path, encoding="utf-8")`` splits them.
    ``sha256``, if given, takes every byte read.  A byte that is not UTF-8
    raises ``decode``'s ValueError as its read is decoded, and a line over
    ``LINE_CAP`` characters ValueError before the rest of it is read."""
    return chain.from_iterable(_read_lines(stream, sha256))


def _read_lines(stream, sha256) -> Iterator[list[str]]:
    """``text_lines`` read by read: the list of the lines each read ends."""
    decoder = io.IncrementalNewlineDecoder(_UTF8(), True)
    line, rest = 1, ""
    while True:
        data = stream.read(READ_SIZE)
        if sha256 is not None:
            sha256.update(data)
        lines = (rest + decode(data, decoder, line)).split("\n")
        # only the first line can span reads: it starts with the rest of the last
        if len(lines[0]) > LINE_CAP:
            raise ValueError(f"line {line}: line longer than {LINE_CAP} characters")
        rest = lines.pop()
        yield lines
        line += len(lines)
        if not data:
            break
    if rest:
        yield [rest]


# characters per write: enough that the system call costs little against
# making the lines, few enough to add nothing that shows in peak memory
WRITE_BATCH = 1 << 14


def join_lines(lines: Iterable[str]) -> str:
    """The text ``write_lines`` writes for ``lines``: each line and a newline."""
    return "\n".join([*lines, ""])


def _write_batch(out, batch: list[str], sha256, join) -> None:
    if batch:
        text = join(batch)
        batch.clear()
        out.write(text)
        if sha256 is not None:
            sha256.update(text.encode("utf-8"))


def write_lines(lines: Iterable[str], path=None, sha256=None, *, pieces: bool = False) -> None:
    """Write ``lines`` to the file ``path``, or to stdout if it is None: each
    line and a newline after it, as ``join_lines`` joins them; with ``pieces``,
    the pieces of one line ``lines`` gives, and one newline.

    The lines are joined into batches of about ``WRITE_BATCH`` characters
    (more if one line is longer), one write each.  ``sha256``, if given,
    takes the UTF-8 bytes of each batch.  If ``lines`` raises, the lines it
    gave before are written first, so they stay in the output.  A failed
    write or flush names the output in the OSError's file name, as in
    ``[Errno 28] ...: 'out.txt'``: ``path``, or ``<stdout>``.  After one on
    stdout, the stdout descriptor points at ``os.devnull``, so what stdout
    still buffers does not fail again at exit.
    """
    join, lines = ("".join, chain(lines, ["\n"])) if pieces else (join_lines, lines)
    to_stdout = path is None
    try:
        with (contextlib.nullcontext(sys.stdout) if to_stdout
              else open(path, "w", encoding="utf-8", newline="")) as out:
            batch: list[str] = []
            size = 0
            try:
                for line in lines:
                    batch.append(line)
                    size += len(line)
                    if size >= WRITE_BATCH:
                        _write_batch(out, batch, sha256, join)
                        size = 0
            finally:
                _write_batch(out, batch, sha256, join)
            out.flush()
    except OSError as exc:
        if exc.filename is None:
            exc.filename = "<stdout>" if to_stdout else str(path)
        if to_stdout and sys.stdout is sys.__stdout__:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        raise


def json_field(obj, key: str, kind: type | tuple, minimum: int | None = None,
               where: str = ""):
    """``obj[key]`` if it has type ``kind``, or a type in a tuple ``kind``
    (and is at least ``minimum``)."""
    if not isinstance(obj, dict) or key not in obj:
        raise ValueError(f"{where}missing field {key!r}")
    value = obj[key]
    # bool is an int subclass; reject it explicitly
    if (not isinstance(value, kind) or isinstance(value, bool)
            or (minimum is not None and value < minimum)):
        bound = "" if minimum is None else f" >= {minimum}"
        names = " or ".join(k.__name__ for k in (kind if isinstance(kind, tuple) else (kind,)))
        got = clip(value, repr) if isinstance(value, str) else clip(repr(value))
        raise ValueError(f"{where}{clip(key, repr)} must be a {names}{bound}, got {got}")
    return value


# the formats of the analysis and diff reports
TEXT, CSV, JSON = "text", "csv", "json"
REPORT_FORMATS = (TEXT, CSV, JSON)


# the text json.dumps writes for each type of value in a report or snapshot
_JSON_SCALAR = {str: _json_string, int: int.__repr__, float: float.__repr__,
                type(None): lambda _: "null"}


def json_members(names: Sequence[str], values: Sequence, pad: str) -> str:
    """The members ``names[i]: values[i]`` of an object at indentation
    ``pad``, joined by ``",\\n"``, as ``json.dumps(obj, indent=2)`` writes
    them that deep.  Each value is a str, int, float or None."""
    return ",\n".join(f"{pad}{_json_string(name)}: {_JSON_SCALAR[type(value)](value)}"
                      for name, value in zip(names, values))


def json_rows(key: str, names: Sequence[str], rows: Iterable[Sequence], pad: str,
              last: bool) -> Iterator[str]:
    """The member ``"key": [...]`` of an object at indentation ``pad``, a list
    of objects with the members ``names``, one row of values each (see
    ``json_members``), as ``json.dumps(obj, indent=2)`` writes it, with a
    comma after it unless it is the ``last``.

    One item per row, which spans several lines but does not end with a
    newline: a row is given once the next one shows that it is not the last.
    """
    inner = pad + "  "
    heads = [f"{inner}  {_json_string(name)}: " for name in names]
    start, end = f"{inner}{{\n", f"\n{inner}}}"
    head, row = f"{pad}{_json_string(key)}: [", None
    for values in rows:
        yield head if row is None else f"{row},"
        # json_members, with the names written once
        members = ",\n".join(map(str.__add__, heads,
                                 [_JSON_SCALAR[type(value)](value) for value in values]))
        row = f"{start}{members}{end}"
    close = "" if last else ","
    yield f"{head}]{close}" if row is None else f"{row}\n{pad}]{close}"


class TraceEvent(NamedTuple):
    ts: int
    tid: int
    kind: str  # ENTER or EXIT
    method: str


def parse_trace_line(line: str, lineno: int | None = None) -> TraceEvent | None:
    """Parse one line of canonical trace text.

    Returns None for blank lines and ``#`` comments.  Raises
    TraceParseError on malformed input, naming the offending line, and
    then TraceStructureError, naming the thread and the line, on a
    timestamp outside the signed 64-bit range.
    """
    line = line.rstrip()
    if not line or line.startswith("#"):
        return None
    parts = line.split("\t")
    if len(parts) != 4:
        raise TraceParseError(f"expected 4 tab-separated fields, got {len(parts)}", lineno)
    raw_ts, raw_tid, kind, method = parts
    try:
        ts = int(raw_ts)
    except ValueError:
        raise TraceParseError(f"bad timestamp {clip(raw_ts, repr)}", lineno) from None
    try:
        tid = int(raw_tid)
    except ValueError:
        raise TraceParseError(f"bad thread id {clip(raw_tid, repr)}", lineno) from None
    if tid < 0:
        raise TraceParseError(f"negative thread id {clip(str(tid))}", lineno)
    if kind != ENTER and kind != EXIT:
        raise TraceParseError(f"bad event kind {clip(kind, repr)} (expected E or X)", lineno)
    if not method:
        raise TraceParseError("empty method name", lineno)
    # str.split() cuts at exactly the characters for which str.isspace() holds
    if method.split() != [method]:
        raise TraceParseError(f"method name contains whitespace: {clip(method, repr)}", lineno)
    if ts not in TS_RANGE:
        raise TraceStructureError(TS_RANGE_ERROR, lineno, tid)
    return TraceEvent(ts, tid, kind, method)


def format_trace_line(event: TraceEvent) -> str:
    """Render an event in canonical tab-separated form (no newline)."""
    return f"{event.ts}\t{event.tid}\t{event.kind}\t{event.method}"


def iter_trace(lines: Iterable[str]) -> Iterator[TraceEvent]:
    """Yield events from trace text, skipping comments and blank lines.

    Streams: suitable for arbitrarily large inputs.  Only the line grammar
    is checked; nesting and timestamp order are checked by ``cct.ingest``.
    """
    for lineno, line in enumerate(lines, 1):
        event = parse_trace_line(line, lineno)
        if event is not None:
            yield event


def jsonl_lines(lines: Iterable[str]) -> Iterator[str]:
    """Render trace text as JSON lines, one object per event, as the lines come.

    Objects read ``{"ts": ..., "tid": ..., "ev": ..., "m": ...}``, as
    ``json.dumps`` writes them.  The line checks are those of
    ``cct.ingest``: a line whose thread id text or method name has not
    been seen, or that any quick check refuses, goes through
    ``parse_trace_line``, which raises its ``line N: ...`` error, or its
    ``tid T, line N: ...`` one for a timestamp out of range.  Memory is
    bounded by the threads and the method names entered, not by the
    number of lines.
    """
    # canonical thread id texts, and the JSON text of each method name
    # that passed the grammar check on an enter
    tids: set[str] = set()
    names: dict[str, str] = {}
    for lineno, line in enumerate(lines, 1):
        line = line.rstrip()
        if not line or line[0] == "#":
            continue
        try:
            raw_ts, tid, kind, method = line.split("\t")
            ts = int(raw_ts)
            name = names[method]
            # the range parse_trace_line checks, as two compares: a range
            # test costs three times as much
            known = (tid in tids and (kind == ENTER or kind == EXIT)
                     and -2**63 <= ts < 2**63)
        except (ValueError, KeyError):
            known = False
        if not known:
            # raises the grammar error, or admits a new thread or method name
            event = parse_trace_line(line, lineno)
            ts, tid, kind, method = event.ts, str(event.tid), event.kind, event.method
            tids.add(tid)
            name = names.get(method) or _json_string(method)
            if kind == ENTER:
                names[method] = name
        yield f'{{"ts": {ts}, "tid": {tid}, "ev": "{kind}", "m": {name}}}'


def events_to_jsonl(events: Iterable[TraceEvent]) -> Iterator[str]:
    """Render events as JSON-lines text, one object per line: ``jsonl_lines`` on their lines.

    Each event must meet the line grammar, or its error is raised with
    the events counted from 1 as lines.
    """
    return jsonl_lines(map(format_trace_line, events))
