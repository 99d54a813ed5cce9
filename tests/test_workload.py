"""Chain templates, the latency model, and the deterministic simulator."""

import hashlib
import json
import re
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cct_lens import workload as wl
from cct_lens.cct import ingest, merge_ccts
from cct_lens.metrics import format_ms, hotspots
from cct_lens.trace import TraceStructureError, iter_trace


def analyze(text: str):
    return merge_ccts(ingest(text.splitlines()))


def chain_methods(frames) -> list[str]:
    """Every method of a chain's frames, preorder, duplicates kept."""
    out = []
    stack = list(reversed(frames))
    while stack:
        f = stack.pop()
        out.append(f.method)
        stack.extend(reversed(f.children))
    return out


def events_by_tid(text: str):
    """Per-thread event lists in file order."""
    by_tid: dict = {}
    for event in iter_trace(text.splitlines()):
        by_tid.setdefault(event.tid, []).append(event)
    return by_tid


USE_CASES = ("register", "login", "add_interview_result", "recruit", "view_result")


class TestChains:
    def test_five_use_cases(self):
        # the portal's use cases come first; page views and class construction follow
        assert tuple(wl.CHAINS)[:5] == USE_CASES
        assert set(wl.CHAINS) - set(USE_CASES) == {
            "login_page", "addcandidate_page", "hrprocess_page", "welcome_page",
            "viewprofile_page", "container_init",
        }

    def test_register_has_exactly_two_getconnection_frames(self):
        methods = chain_methods(wl.CHAINS["register"])
        assert methods.count(wl.GET_CONNECTION) == 2

    def test_login_has_one_getconnection_frame(self):
        methods = chain_methods(wl.CHAINS["login"])
        assert methods.count(wl.GET_CONNECTION) == 1

    def test_login_dao_frame_is_authenticate_employee(self):
        methods = chain_methods(wl.CHAINS["login"])
        dao_calls = [m for m in methods if ".dao.EmployeeDAO." in m and "<init>" not in m]
        assert dao_calls == [wl.DAO_AUTHENTICATE_EMPLOYEE]

    def test_recruit_bean_frame(self):
        methods = chain_methods(wl.CHAINS["recruit"])
        assert wl.BEAN_RECRUIT in methods
        assert wl.DAO_RECRUIT_EMPLOYEE in methods

    def test_every_chain_reaches_the_database(self):
        for name in USE_CASES:
            assert wl.GET_CONNECTION in chain_methods(wl.CHAINS[name]), name

    def test_chain_methods_contain_no_whitespace(self):
        for frames in wl.CHAINS.values():
            for method in chain_methods(frames):
                assert " " not in method and "\t" not in method

    def test_register_nesting_order(self):
        methods = chain_methods(wl.CHAINS["register"])
        jsp = methods.index(wl.REGISTER_JSP)
        servlet = methods.index(wl.REGISTRATION_SERVLET_PROCESS_REQUEST)
        stub = methods.index(wl.STUB_ADD_CANDIDATE_PROFILE)
        wrapper = methods.index(wl.WRAPPER_ADD_CANDIDATE_PROFILE)
        bean = methods.index(wl.BEAN_ADD_CANDIDATE_PROFILE)
        dao = methods.index(wl.DAO_ADD_CANDIDATE_PROFILE)
        assert jsp < servlet < stub < wrapper < bean < dao

    def test_frame_count_matches_methods(self):
        for frames in wl.CHAINS.values():
            assert wl.frame_count(frames) == len(chain_methods(frames))


def self_duration_ns(model: wl.LatencyModel, method: str, seed: int, use_case: str,
                     execution_index: int, frame_index: int) -> int:
    """The reference self time of one frame: its base, scaled by the jitter
    that the blake2b hash of the frame's identity draws."""
    base = model.base_ns.get(method, model.default_base_ns)
    if model.jitter == 0.0 or base == 0:
        return base
    key = f"{seed}|{use_case}|{execution_index}|{frame_index}".encode()
    return jittered(base, model.jitter, hashlib.blake2b(key, digest_size=8).digest())


def jittered(base: int, jitter: float, digest: bytes) -> int:
    """``base`` scaled by a factor in [1 - jitter, 1 + jitter) that ``digest`` picks."""
    unit = int.from_bytes(digest, "big") / 2**64  # uniform in [0, 1)
    factor = 1.0 + jitter * (2.0 * unit - 1.0)
    return max(0, round(base * factor))


class TestLatencyModel:
    def test_zero_jitter_returns_base(self):
        model = wl.LatencyModel(base_ns={"a": 500}, default_base_ns=7)
        assert self_duration_ns(model, "a", 1, "register", 0, 0) == 500
        assert self_duration_ns(model, "unknown", 1, "register", 0, 0) == 7

    def test_jitter_bounds(self):
        model = wl.LatencyModel(base_ns={"a": 1_000_000}, jitter=0.1)
        for i in range(200):
            d = self_duration_ns(model, "a", 3, "register", i, 0)
            assert 900_000 <= d <= 1_100_000

    def test_jitter_deterministic(self):
        model = wl.LatencyModel(base_ns={"a": 1_000_000}, jitter=0.25)
        a = [self_duration_ns(model, "a", 9, "login", i, j) for i in range(5) for j in range(5)]
        b = [self_duration_ns(model, "a", 9, "login", i, j) for i in range(5) for j in range(5)]
        assert a == b

    def test_jitter_varies_across_frames(self):
        model = wl.LatencyModel(base_ns={"a": 1_000_000}, jitter=0.3)
        draws = {self_duration_ns(model, "a", 5, "register", 0, j) for j in range(30)}
        assert len(draws) > 1

    def test_invalid_jitter(self):
        with pytest.raises(ValueError, match="jitter"):
            wl.LatencyModel(base_ns={}, jitter=1.0)
        with pytest.raises(ValueError, match="jitter"):
            wl.LatencyModel(base_ns={}, jitter=-0.1)

    def test_negative_base_rejected(self):
        with pytest.raises(ValueError, match="negative base"):
            wl.LatencyModel(base_ns={"a": -1})

    def test_base_of_64_bits_rejected(self):
        # a jittered duration is computed in floating point
        with pytest.raises(ValueError, match=r"^default_base_ns must be below 2\*\*63$"):
            wl.LatencyModel(base_ns={}, default_base_ns=2**63, jitter=0.1)
        with pytest.raises(ValueError, match=r"^base duration for a must be below 2\*\*63$"):
            wl.LatencyModel(base_ns={"a": 10**400}, jitter=0.1)
        model = wl.LatencyModel(base_ns={"a": 2**63 - 1}, jitter=0.5)
        assert 0 < self_duration_ns(model, "a", 0, "login", 0, 0) < 2**64

    @given(x=st.integers(min_value=0, max_value=2**64 - 1),
           base=st.integers(min_value=0, max_value=2**63 - 1),
           jitter=st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
    @example(x=0, base=2**63 - 1, jitter=0.9999999)
    @example(x=2**64 - 1, base=2**63 - 1, jitter=0.9999999)
    @example(x=0, base=1, jitter=0.9999999)
    @settings(max_examples=500, deadline=None)
    def test_simulator_formula_is_the_reference_to_the_bit(self, x, base, jitter):
        # the simulator's form: no big-int division, no clamp at 0
        fast = round(base * (1.0 + jitter * (x * 2.0**-63 - 1.0)))
        assert fast == jittered(base, jitter, x.to_bytes(8, "big"))


def simulate_by_sorting(spec: wl.WorkloadSpec) -> str:
    """The reference expansion: every row of every thread, sorted by (ts, tid, per-tid order)."""
    rows = []
    clocks: dict[int, int] = {}
    global_index = 0
    for use_case in sorted(spec.executions):
        for execution_index in range(spec.executions[use_case]):
            tid = 1 + global_index % spec.thread_count
            global_index += 1
            frame_index = 0

            def emit(fr, start):
                nonlocal frame_index
                duration = self_duration_ns(spec.latency, fr.method, spec.seed, use_case,
                                            execution_index, frame_index)
                frame_index += 1
                rows.append((start, tid, len(rows), f"{start}\t{tid}\tE\t{fr.method}"))
                end = start + duration
                for child in fr.children:
                    end = emit(child, end)
                rows.append((end, tid, len(rows), f"{end}\t{tid}\tX\t{fr.method}"))
                return end

            t = clocks.get(tid, 0)
            for root in wl.CHAINS[use_case]:
                t = emit(root, t)
            clocks[tid] = t
    rows.sort()
    mix = " ".join(f"{name}={spec.executions[name]}" for name in sorted(spec.executions))
    header = ["# synthetic enter/exit trace", f"# workload: {mix if mix else '(empty)'}",
              f"# seed={spec.seed} jitter={spec.latency.jitter} threads={spec.thread_count} "
              f"events={len(rows)}"]
    return "\n".join(header + [r[3] for r in rows]) + "\n"


class TestSimulate:
    def test_figure8_trace_bytes_pinned(self):
        digest = hashlib.sha256(wl.simulate(wl.figure8_preset()).encode("utf-8")).hexdigest()
        assert digest == "5b99baeba5e740c377cca7566294c7d7ef8bc7ef7186a087b2bc813afb9ae9bf"

    @given(
        executions=st.dictionaries(
            st.sampled_from(["register", "login", "recruit", "welcome_page", "container_init"]),
            st.integers(min_value=0, max_value=5), max_size=5),
        threads=st.integers(min_value=1, max_value=5),
        # zero durations make timestamp ties within and across threads
        base=st.sampled_from([0, 1, 1000]),
        jitter=st.sampled_from([0.0, 0.5]),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=60, deadline=None)
    def test_same_text_as_sorting_every_row(self, executions, threads, base, jitter, seed):
        spec = wl.WorkloadSpec(executions=executions, seed=seed, thread_count=threads,
                               latency=wl.LatencyModel(base_ns={}, default_base_ns=base,
                                                       jitter=jitter))
        assert wl.simulate(spec) == simulate_by_sorting(spec)

    MIXED_USE_CASES = ("register", "login", "recruit", "hrprocess_page", "container_init")

    @given(
        executions=st.dictionaries(st.sampled_from(MIXED_USE_CASES),
                                   st.integers(min_value=0, max_value=4), max_size=5),
        # often more threads than executions
        threads=st.integers(min_value=1, max_value=30),
        # methods left out take the default 0: one execution mixes hashed and unhashed frames
        base_ns=st.dictionaries(
            st.sampled_from(sorted({m for name in MIXED_USE_CASES
                                    for m in chain_methods(wl.CHAINS[name])})),
            st.one_of(st.just(0), st.integers(min_value=1, max_value=1000),
                      st.integers(min_value=0, max_value=2**40))),
        jitter=st.sampled_from([0.0, 0.1, 0.5]),
        seed=st.integers(min_value=-2**64, max_value=2**32),
    )
    @settings(max_examples=60, deadline=None)
    def test_same_text_as_sorting_per_method_bases(self, executions, threads, base_ns, jitter,
                                                    seed):
        spec = wl.WorkloadSpec(executions=executions, seed=seed, thread_count=threads,
                               latency=wl.LatencyModel(base_ns=base_ns, default_base_ns=0,
                                                       jitter=jitter))
        assert wl.simulate(spec) == simulate_by_sorting(spec)

    def test_timeline_past_64_bits_refused(self):
        def spec(second_ns):
            # tid 1 runs the page view, tid 2 the servlet frame and its callee
            return wl.WorkloadSpec(
                executions={"addcandidate_page": 1, "hrprocess_page": 1}, thread_count=2,
                latency=wl.LatencyModel(base_ns={wl.HRPROCESS_SERVLET_DOGET: 2**62,
                                                 wl.HRPROCESS_PROCESS_REQUEST: second_ns}))

        lines = []
        with pytest.raises(TraceStructureError,
                           match=r"^tid 2: timestamp outside the signed 64-bit range$"):
            lines.extend(wl.simulate_lines(spec(2**62)))
        assert not any(line.split("\t")[1:2] == ["2"] for line in lines)
        # one nanosecond less reaches 2**63 - 1 exactly, which a trace may hold
        text = wl.simulate(spec(2**62 - 1))
        assert text.endswith(f"{2**63 - 1}\t2\tX\t{wl.HRPROCESS_SERVLET_DOGET}\n")
        ingest(text.splitlines())

    def test_threads_start_only_with_executions(self, monkeypatch):
        started = []
        thread_runs = wl._thread_runs
        monkeypatch.setattr(wl, "_thread_runs", lambda spec, programs, tid: (
            started.append(tid) or thread_runs(spec, programs, tid)))
        spec = wl.WorkloadSpec(executions={"login": 3}, thread_count=1000)
        text = wl.simulate(spec)
        assert started == [1, 2, 3]
        assert "threads=1000" in text.splitlines()[2]
        assert text == simulate_by_sorting(spec)

    def test_memory_does_not_grow_with_executions(self):
        def peak(scale: int) -> int:
            spec = wl.WorkloadSpec(executions={"register": 10 * scale, "login": 10 * scale},
                                   latency=wl.calibrated_latency(0.1), thread_count=4)
            tracemalloc.start()
            try:
                for _ in wl.simulate_lines(spec):
                    pass
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(8) <= 1.5 * peak(1)

    def test_memory_per_busy_thread(self):
        # each busy thread holds one execution's stamps and lines, never a copy
        # of a chain's program
        threads = 2000
        spec = wl.WorkloadSpec(executions={"login_page": threads}, thread_count=threads)
        tracemalloc.start()
        try:
            lines = sum(1 for _ in wl.simulate_lines(spec))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert lines == 3 + 2 * threads
        assert peak < 3000 * threads

    def test_reference_invocation_counts(self):
        spec = wl.WorkloadSpec(
            executions={"register": 20, "login": 10},
            seed=1,
            latency=wl.calibrated_latency(),
            thread_count=4,
        )
        merged = analyze(wl.simulate(spec))
        inv = {r.method: r.invocations for r in hotspots(merged)}
        assert inv[wl.GET_CONNECTION] == 50
        assert inv[wl.DAO_ADD_CANDIDATE_PROFILE] == 20
        assert inv[wl.DAO_ADD_EMPLOYEE_CREDENTIALS] == 20
        assert inv[wl.DAO_AUTHENTICATE_EMPLOYEE] == 10

    def test_empty_workload_is_comments_only(self):
        spec = wl.WorkloadSpec(executions={"register": 0, "login": 0})
        text = wl.simulate(spec)
        lines = text.splitlines()
        assert lines and all(line.startswith("#") for line in lines)

    def test_byte_identical_across_runs(self):
        spec_a = wl.figure8_preset()
        spec_b = wl.figure8_preset()
        assert wl.simulate(spec_a) == wl.simulate(spec_b)

    def test_seed_changes_output_with_jitter(self):
        def text(seed):
            spec = wl.load_preset(2, jitter=0.2, seed=seed)
            return wl.simulate(spec)

        assert text(1) != text(2)

    def test_all_generated_traces_validate_clean(self):
        for spec in (
            wl.figure8_preset(),
            wl.load_preset(3, jitter=0.1),
            wl.WorkloadSpec(executions={"recruit": 5, "view_result": 2}, thread_count=2),
        ):
            # strict ingest rejects any nesting or timestamp-order defect
            ingest(wl.simulate(spec).splitlines())

    def test_linearity_of_invocation_counts(self):
        def counts(n):
            spec = wl.WorkloadSpec(
                executions={"register": n}, latency=wl.calibrated_latency(), thread_count=3
            )
            merged = analyze(wl.simulate(spec))
            return {r.method: r.invocations for r in hotspots(merged)}

        once, thrice = counts(4), counts(12)
        assert set(once) == set(thrice)
        for method, n in once.items():
            assert thrice[method] == 3 * n

    def test_round_robin_uses_all_threads(self):
        spec = wl.WorkloadSpec(executions={"login": 8}, thread_count=4)
        forest = ingest(wl.simulate(spec).splitlines())
        assert sorted(forest) == [1, 2, 3, 4]

    def test_per_tid_timestamps_nondecreasing_and_nested(self):
        spec = wl.load_preset(5, jitter=0.3, seed=2)
        text = wl.simulate(spec)
        for events in events_by_tid(text).values():
            assert all(a.ts <= b.ts for a, b in zip(events, events[1:]))
        ingest(text.splitlines())

    def test_executions_on_one_tid_do_not_overlap(self):
        spec = wl.WorkloadSpec(
            executions={"login": 6},
            thread_count=2,
            latency=wl.LatencyModel(base_ns={}, default_base_ns=1000),
        )
        by_tid = events_by_tid(wl.simulate(spec))
        for events in by_tid.values():
            depth = 0
            spans = []
            for e in events:
                if e.kind == "E":
                    if depth == 0:
                        start = e.ts
                    depth += 1
                else:
                    depth -= 1
                    if depth == 0:
                        spans.append((start, e.ts))
            for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
                assert e1 <= s2

    def test_unknown_use_case_rejected(self):
        with pytest.raises(ValueError, match="unknown use case"):
            wl.WorkloadSpec(executions={"nonsense": 1})

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="negative execution count"):
            wl.WorkloadSpec(executions={"login": -1})

    def test_bad_thread_count_rejected(self):
        with pytest.raises(ValueError, match="thread_count"):
            wl.WorkloadSpec(executions={}, thread_count=0)
        with pytest.raises(ValueError, match=r"^thread_count must be below 2\*\*63$"):
            wl.WorkloadSpec(executions={"login": 2}, thread_count=2**63)
        assert wl.WorkloadSpec(executions={}, thread_count=2**63 - 1).thread_count == 2**63 - 1

    @given(
        register=st.integers(min_value=0, max_value=6),
        login=st.integers(min_value=0, max_value=6),
        threads=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=40, deadline=None)
    def test_structure_independent_of_seed_and_jitter(self, register, login, threads, seed):
        def structure(jitter):
            spec = wl.WorkloadSpec(
                executions={"register": register, "login": login},
                seed=seed,
                latency=wl.calibrated_latency(jitter),
                thread_count=threads,
            )
            text = wl.simulate(spec)
            ingest(text.splitlines())
            by_tid = events_by_tid(text)
            return {
                tid: [(e.kind, e.method) for e in events] for tid, events in by_tid.items()
            }

        assert structure(0.0) == structure(0.4)


class TestFigure8Preset:
    def setup_method(self):
        self.merged = analyze(wl.simulate(wl.figure8_preset()))
        self.rows = {r.method: r for r in hotspots(self.merged)}

    def test_top_row_self_time(self):
        assert format_ms(self.rows[wl.GET_CONNECTION].self_time) == "1267 ms"

    def test_add_candidate_profile_row(self):
        row = self.rows[wl.DAO_ADD_CANDIDATE_PROFILE]
        assert format_ms(row.self_time) == "946 ms"
        assert row.invocations == 20

    def test_authenticate_avg(self):
        row = self.rows[wl.DAO_AUTHENTICATE_EMPLOYEE]
        assert format_ms(row.self_time) == "85.8 ms"
        assert Fraction(row.self_time, row.invocations) == 8_580_000

    def test_every_reference_row_reproduced(self):
        for method, self_ms, invocations in wl.FIGURE8_TABLE:
            row = self.rows[method]
            assert row.invocations == invocations, method
            assert format_ms(row.self_time) == format_ms(round(self_ms * 1e6)), method

    def test_self_times_exact_at_nanosecond_resolution(self):
        # jitter 0: every aggregate equals base * invocations exactly
        for method, _self_ms, invocations in wl.FIGURE8_TABLE:
            expected = wl._CALIBRATED_BASE_NS[method] * invocations
            assert self.rows[method].self_time == expected, method

    def test_only_uncalibrated_extras_are_registration_frames(self):
        extras = set(self.rows) - {m for m, _, _ in wl.FIGURE8_TABLE}
        assert extras == {wl.REGISTER_JSP, wl.REGISTRATION_SERVLET_PROCESS_REQUEST}
        assert all(self.rows[m].self_time == 0 for m in extras)


class TestLoadPreset:
    def test_scales_volume_not_latency(self):
        a = wl.load_preset(1)
        b = wl.load_preset(20)
        assert b.executions["register"] == 20 * a.executions["register"]
        assert a.latency.base_ns == b.latency.base_ns

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError, match="user_count"):
            wl.load_preset(0)

    def test_presets_registry(self):
        assert "figure8" in wl.PRESETS
        spec = wl.PRESETS["figure8"]()
        assert spec.executions["register"] == 20


class TestSpecFiles:
    def test_round_trip(self):
        spec = wl.load_workload_spec(
            '{"executions": {"register": 3, "login": 1}, "seed": 77, "thread_count": 2,'
            ' "jitter": 0.25, "default_base_ns": 5, "base_ns": {"a": 10}}')
        assert spec.executions == {"register": 3, "login": 1}
        assert (spec.seed, spec.thread_count) == (77, 2)
        assert spec.latency == wl.LatencyModel(base_ns={"a": 10}, default_base_ns=5,
                                               jitter=0.25)

    def test_round_trip_simulates_identically(self):
        spec = wl.WorkloadSpec(
            executions={"recruit": 4},
            seed=5,
            latency=wl.LatencyModel(base_ns={}, default_base_ns=100, jitter=0.5),
            thread_count=3,
        )
        text = ('{"executions": {"recruit": 4}, "seed": 5, "thread_count": 3,'
                ' "jitter": 0.5, "default_base_ns": 100}')
        assert wl.simulate(wl.load_workload_spec(text)) == wl.simulate(spec)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown workload spec keys: sede"):
            wl.load_workload_spec('{"executions": {}, "sede": 1}')

    def test_missing_executions_rejected(self):
        with pytest.raises(ValueError, match="executions"):
            wl.load_workload_spec('{"seed": 3}')

    def test_bad_json_rejected(self):
        with pytest.raises(ValueError, match="bad workload spec"):
            wl.load_workload_spec("{nope")
        with pytest.raises(ValueError, match="JSON object"):
            wl.load_workload_spec("[1]")

    def test_non_integer_count_rejected(self):
        with pytest.raises(ValueError, match="must be an integer"):
            wl.load_workload_spec('{"executions": {"login": 1.5}}')

    @pytest.mark.parametrize("field, message", [
        ('"seed": "x"', "'seed' must be a int, got 'x'"),
        ('"seed": 2.5', "'seed' must be a int, got 2.5"),
        ('"thread_count": 1.9', "'thread_count' must be a int, got 1.9"),
        ('"jitter": true', "'jitter' must be a int or float, got True"),
        ('"base_ns": {"a": "zz"}', "base_ns: 'a' must be a int, got 'zz'"),
    ])
    def test_mistyped_field_named(self, field, message):
        with pytest.raises(ValueError) as excinfo:
            wl.load_workload_spec('{"executions": {}, %s}' % field)
        assert str(excinfo.value) == message

    def test_integer_jitter_read_as_float(self):
        spec = wl.load_workload_spec('{"executions": {}, "jitter": 0}')
        assert repr(spec.latency.jitter) == "0.0"

    def test_file_loader_names_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text('{"executions": {}, "seed": "x"}', encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: 'seed' must be"):
            wl.load_workload_spec_file(path)

    def test_unknown_use_case_in_file(self):
        with pytest.raises(ValueError, match="unknown use case"):
            wl.load_workload_spec('{"executions": {"bogus": 1}}')

    def test_file_loader(self, tmp_path):
        path = tmp_path / "spec.json"
        preset = wl.figure8_preset()
        path.write_text(json.dumps({
            "executions": preset.executions, "seed": preset.seed,
            "thread_count": preset.thread_count, "jitter": preset.latency.jitter,
            "default_base_ns": preset.latency.default_base_ns,
            "base_ns": preset.latency.base_ns}), encoding="utf-8")
        spec = wl.load_workload_spec_file(path)
        digest_a = hashlib.sha256(wl.simulate(spec).encode()).hexdigest()
        digest_b = hashlib.sha256(wl.simulate(wl.figure8_preset()).encode()).hexdigest()
        assert digest_a == digest_b
