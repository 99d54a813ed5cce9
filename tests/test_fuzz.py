"""Byte-level fuzzing of every input file the CLI reads.

Each case takes a small valid trace, snapshot, workload spec or component
catalog, inserts, deletes or copies bytes drawn from the characters their
grammars give meaning to, and runs every command that reads that file
in-process.  A command must succeed, or exit 1 with exactly one ``error:``
line that names the mutated file (after any lenient ``warning:`` lines);
any other exception fails the test.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from cct_lens import workload as wl
from cct_lens.cli import main
from cct_lens.snapshot import dump_snapshot, take_snapshot

TOKENS = [b"\t", b"\n", b"\r", b"#", *(b"%d" % d for d in range(10)), b"E", b"X", b" ",
          b"\xff", b"\x0c", *(bytes([c]) for c in b'{}[]":,'), b"\x00", b"1e400"]

SPEC = b'{"executions": {"login_page": 1, "register": 1}, "thread_count": 2, "seed": 3}\n'
TRACE = wl.simulate(wl.load_workload_spec(SPEC.decode())).encode()
SNAPSHOT = dump_snapshot(take_snapshot("base", 1, TRACE)).encode()
CATALOG = (b"# tier\tcomponent\tpattern\n"
           b"dao\t*\tcom.mycompany.hr.dao.*\n"
           b"business\tEmployeeBean\tcom.mycompany.hr.process.EmployeeBeanBean*\n"
           b"web\t*\torg.apache.jsp.*\n")

# (operation, position, source position, token, length); positions wrap
EDITS = st.lists(st.tuples(st.sampled_from(["insert", "delete", "copy"]),
                           st.integers(0, 2**16), st.integers(0, 2**16),
                           st.sampled_from(TOKENS), st.integers(1, 12)),
                 min_size=1, max_size=4)

FUZZ = settings(max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def mutate(data: bytes, edits) -> bytes:
    buf = bytearray(data)
    for op, at, source, token, length in edits:
        at %= len(buf) + 1
        if op == "insert":
            buf[at:at] = token
        elif op == "delete":
            del buf[at:at + length]
        else:
            source %= len(buf) + 1
            buf[at:at] = buf[source:source + length]
    return bytes(buf)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    work = tmp_path_factory.mktemp("fuzz")
    for name, data in (("trace.tsv", TRACE), ("snapshot.json", SNAPSHOT),
                       ("spec.json", SPEC), ("catalog.tsv", CATALOG)):
        (work / name).write_bytes(data)
    return work


def check_runs(capsys, path, data: bytes, runs) -> None:
    """Write ``data`` to ``path``, then run each argv; ``None`` in one stands for ``path``."""
    path.write_bytes(data)
    for argv in runs:
        code = main([str(path if a is None else a) for a in argv])
        err = capsys.readouterr().err
        if code == 1:
            # lenient repairs are reported as they happen, before any error
            errors = [line for line in err.splitlines() if not line.startswith("warning: ")]
            assert len(errors) == 1 and errors[0].startswith("error: "), (argv, err)
            assert str(path) in errors[0], (argv, err)
        else:
            assert code == 0, (argv, code, err)


@FUZZ
@given(EDITS)
def test_trace(capsys, files, edits):
    out = files / "out"
    check_runs(capsys, files / "mutated.tsv", mutate(TRACE, edits), [
        ("analyze", None),
        ("analyze", None, "--lenient", "--per-thread"),
        ("analyze", None, "--snapshot-out", out),
        ("analyze", None, "--catalog", files / "catalog.tsv"),
        ("callgraph", None, "--format", "folded"),
        ("export", None, "--format", "jsonl", "-o", out),
        ("export", None, "--format", "forest"),
    ])


@FUZZ
@given(EDITS)
def test_snapshot(capsys, files, edits):
    good = files / "snapshot.json"
    check_runs(capsys, files / "mutated.json", mutate(SNAPSHOT, edits),
               [("diff", None, good), ("diff", good, None)])


@FUZZ
@given(EDITS)
def test_spec(capsys, files, edits):
    data = mutate(SPEC, edits)
    try:
        spec = wl.load_workload_spec(data.decode("utf-8"))
    except ValueError:
        pass
    else:
        # a spec may ask for a trace of any length; keep each case short
        assume(spec.event_count() <= 20_000)
    check_runs(capsys, files / "mutated-spec.json", data,
               [("simulate", "--spec", None, "-o", files / "out")])


@FUZZ
@given(EDITS)
def test_catalog(capsys, files, edits):
    check_runs(capsys, files / "mutated-catalog.tsv", mutate(CATALOG, edits),
               [("analyze", files / "trace.tsv", "--catalog", None)])
