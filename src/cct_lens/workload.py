"""Deterministic synthetic workload generator for an HR portal scenario.

Use cases are the ``CHAINS`` table: each names the trees of method frames
one execution runs, matching the portal's three-tier design (JSP/servlet
web tier, stateless session beans behind EJB container stubs and wrappers,
DAO classes on JDBC).  A WorkloadSpec says how many times to run each
chain, on how many threads, and under which LatencyModel, and is checked
when it is built; ``simulate_lines`` expands it into a balanced enter/exit
trace, line by line.

Each chain a spec runs compiles once, into tables of line tails and
self times.  Randomness is counter-based: a jittered frame's
self duration hashes (seed, use case, execution index, frame index) over
a copy of its execution's key prefix, so generation order and host
parallelism cannot change the output: identical specs, identical bytes.

``figure8_preset`` pins a 20-user snapshot of this portal whose analysis
reproduces the reference hot-spot table in ``FIGURE8_TABLE`` exactly:
the registration and login flows carry the DAO load, and background
page-view chains plus a one-time container-init chain cover the
remaining rows.
"""

from __future__ import annotations

import heapq
import itertools
import json
from bisect import bisect_left
from hashlib import blake2b
from typing import Iterator, Mapping, NamedTuple

from .trace import (ENTER, EXIT, TS_RANGE_ERROR, TraceStructureError, clip, join_lines,
                    json_field, load_json_file)

SERVLET_ARGS = ("javax.servlet.http.HttpServletRequest,"
                "javax.servlet.http.HttpServletResponse")

_JSP = "org.apache.jsp"
_SERVLET = "com.mycompany.hr.servlet"
_PROCESS = "com.mycompany.hr.process"
_DAO = "com.mycompany.hr.dao"
_VO = "com.mycompany.hr.vo"
_STUB = f"{_PROCESS}._EmployeeBeanRemoteRemote_DynamicStub"
_WRAPPER = f"{_PROCESS}._EmployeeBeanRemoteRemoteWrapper"

CANDIDATE_PROFILE = f"{_VO}.CandidateProfile"
EMPLOYEE_CREDENTIALS = f"{_VO}.EmployeeCredentials"

# fully qualified method names used by the chain templates
GET_CONNECTION = f"{_DAO}.BaseDAO.getConnection()"
BASEDAO_INIT = f"{_DAO}.BaseDAO.<init>()"
EMPLOYEEDAO_INIT = f"{_DAO}.EmployeeDAO.<init>()"
DAO_ADD_CANDIDATE_PROFILE = f"{_DAO}.EmployeeDAO.addCandidateProfile({CANDIDATE_PROFILE})"
DAO_ADD_EMPLOYEE_CREDENTIALS = f"{_DAO}.EmployeeDAO.addEmployeeCredentials({EMPLOYEE_CREDENTIALS})"
DAO_AUTHENTICATE_EMPLOYEE = f"{_DAO}.EmployeeDAO.authenticateEmployee({EMPLOYEE_CREDENTIALS})"
DAO_ADD_INTERVIEW_RESULTS = f"{_DAO}.InterviewDAO.addInterviewResults(java.lang.String)"
DAO_VIEW_INTERVIEW_RESULTS = f"{_DAO}.InterviewDAO.viewInterviewResults(java.lang.String)"
DAO_RECRUIT_EMPLOYEE = f"{_DAO}.HRDAO.recruitEmployee(java.lang.String)"

BEAN_ADD_CANDIDATE_PROFILE = f"{_PROCESS}.EmployeeBeanBean.addCandidateProfile({CANDIDATE_PROFILE})"
BEAN_ADD_CREDENTIALS = f"{_PROCESS}.EmployeeBeanBean.addCredentials({EMPLOYEE_CREDENTIALS})"
BEAN_AUTHENTICATE = f"{_PROCESS}.EmployeeBeanBean.authenticate({EMPLOYEE_CREDENTIALS})"
BEAN_ADD_INTERVIEW_RESULTS = f"{_PROCESS}.InterviewResultsBean.addInterviewResults(java.lang.String)"
BEAN_VIEW_INTERVIEW_RESULTS = f"{_PROCESS}.InterviewResultsBean.viewInterviewResults(java.lang.String)"
BEAN_RECRUIT = f"{_PROCESS}.HRProcessBean.recruit(java.lang.String)"

STUB_ADD_CANDIDATE_PROFILE = f"{_STUB}.addCandidateProfile({CANDIDATE_PROFILE})"
STUB_ADD_EMPLOYEE_CREDENTIALS = f"{_STUB}.addEmployeeCredentials({EMPLOYEE_CREDENTIALS})"
STUB_AUTHENTICATE = f"{_STUB}.authenticate({EMPLOYEE_CREDENTIALS})"
STUB_INIT = f"{_STUB}.<init>()"
WRAPPER_ADD_CANDIDATE_PROFILE = f"{_WRAPPER}.addCandidateProfile({CANDIDATE_PROFILE})"
WRAPPER_ADD_EMPLOYEE_CREDENTIALS = f"{_WRAPPER}.addEmployeeCredentials({EMPLOYEE_CREDENTIALS})"
WRAPPER_AUTHENTICATE = f"{_WRAPPER}.authenticate({EMPLOYEE_CREDENTIALS})"
WRAPPER_INIT = f"{_WRAPPER}.<init>()"

CANDIDATE_PROFILE_INIT = f"{CANDIDATE_PROFILE}.<init>()"
EMPLOYEE_CREDENTIALS_INIT = f"{EMPLOYEE_CREDENTIALS}.<init>()"

REGISTER_JSP = f"{_JSP}.Register_jsp._jspService({SERVLET_ARGS})"
LOGIN_JSP = f"{_JSP}.Login_jsp._jspService({SERVLET_ARGS})"
ADDCANDIDATE_JSP = f"{_JSP}.AddCandidate_jsp._jspService({SERVLET_ARGS})"
WELCOME_JSP = f"{_JSP}.Welcome_jsp._jspService({SERVLET_ARGS})"
VIEWPROFILE_JSP = f"{_JSP}.ViewProfile_jsp._jspService({SERVLET_ARGS})"
INTERVIEWINFO_JSP = f"{_JSP}.InterviewInfoPage_jsp._jspService({SERVLET_ARGS})"
RECRUITMENT_JSP = f"{_JSP}.RecruitmentPage_jsp._jspService({SERVLET_ARGS})"
VIEWRESULT_JSP = f"{_JSP}.ViewResult_jsp._jspService({SERVLET_ARGS})"
JSP_LOGINSERVLET_PROCESS_REQUEST = f"{_JSP}.LoginServlet.processRequest({SERVLET_ARGS})"

REGISTRATION_SERVLET_PROCESS_REQUEST = f"{_SERVLET}.RegistrationServlet.processRequest({SERVLET_ARGS})"
LOGINSERVLET_DOPOST = f"{_SERVLET}.LoginServlet.doPost({SERVLET_ARGS})"
LOGINSERVLET_INIT = f"{_SERVLET}.LoginServlet.<init>()"
INTERVIEWRESULT_SERVLET_PROCESS_REQUEST = f"{_SERVLET}.InterviewResultServlet.processRequest({SERVLET_ARGS})"
HRPROCESS_SERVLET_DOGET = f"{_SERVLET}.HRProcessServlet.doGet({SERVLET_ARGS})"
HRPROCESS_SERVLET_INIT = f"{_SERVLET}.HRProcessServlet.<init>()"
# this servlet class is deployed under the process package
HRPROCESS_PROCESS_REQUEST = f"{_PROCESS}.HRProcessServlet.processRequest({SERVLET_ARGS})"


class Frame(NamedTuple):
    """One method call in a chain template, with nested callees."""

    method: str
    children: tuple["Frame", ...] = ()


def frame(method: str, *children: Frame) -> Frame:
    return Frame(method, children)


def frame_count(frames: tuple[Frame, ...]) -> int:
    """The frames in ``frames`` and all their callees."""
    return len(_chain_program(frames, LatencyModel({}))[0]) // 2


def _chain_program(chain, latency):
    """A chain's events in order, as line tails and clock steps (an enter moves
    the clock by its frame's self time, an exit by nothing), and (event, key,
    base) of each jittered frame, whose key is its index in preorder."""
    tails, steps, hashed, frames = [], [], [], 0
    # frames still to enter, and the methods of open frames still to exit
    stack = list(reversed(chain))
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            tails.append(f"\t{EXIT}\t{item}")
            steps.append(0)
            continue
        base = latency.base_ns.get(item.method, latency.default_base_ns)
        if base and latency.jitter:
            hashed.append((len(steps), str(frames).encode(), base))
        tails.append(f"\t{ENTER}\t{item.method}")
        steps.append(base)
        frames += 1
        stack += item.method, *reversed(item.children)
    return tails, steps, hashed


# a bean builds a fresh DAO for each call
_NEW_DAO = frame(EMPLOYEEDAO_INIT, frame(BASEDAO_INIT))

# Use case -> the top-level frames one execution runs, in order.  The first
# five are the portal's use cases.  The rest are standalone page views and
# one-shot class construction (several constructor frames back to back):
# they carry the hot-spot rows that no use-case flow explains.
CHAINS: dict[str, tuple[Frame, ...]] = {
    "register": (
        frame(REGISTER_JSP,
              frame(REGISTRATION_SERVLET_PROCESS_REQUEST,
                    frame(CANDIDATE_PROFILE_INIT),
                    frame(STUB_ADD_CANDIDATE_PROFILE,
                          frame(WRAPPER_ADD_CANDIDATE_PROFILE,
                                frame(CANDIDATE_PROFILE_INIT),
                                frame(BEAN_ADD_CANDIDATE_PROFILE,
                                      _NEW_DAO,
                                      frame(DAO_ADD_CANDIDATE_PROFILE,
                                            frame(GET_CONNECTION))))),
                    frame(EMPLOYEE_CREDENTIALS_INIT),
                    frame(STUB_ADD_EMPLOYEE_CREDENTIALS,
                          frame(WRAPPER_ADD_EMPLOYEE_CREDENTIALS,
                                frame(EMPLOYEE_CREDENTIALS_INIT),
                                frame(BEAN_ADD_CREDENTIALS,
                                      _NEW_DAO,
                                      frame(DAO_ADD_EMPLOYEE_CREDENTIALS,
                                            frame(GET_CONNECTION))))))),
    ),
    "login": (
        frame(LOGIN_JSP,
              frame(LOGINSERVLET_DOPOST,
                    frame(JSP_LOGINSERVLET_PROCESS_REQUEST,
                          frame(EMPLOYEE_CREDENTIALS_INIT),
                          frame(STUB_AUTHENTICATE,
                                frame(WRAPPER_AUTHENTICATE,
                                      frame(EMPLOYEE_CREDENTIALS_INIT),
                                      frame(BEAN_AUTHENTICATE,
                                            _NEW_DAO,
                                            frame(DAO_AUTHENTICATE_EMPLOYEE,
                                                  frame(GET_CONNECTION)))))))),
    ),
    "add_interview_result": (
        frame(INTERVIEWINFO_JSP,
              frame(INTERVIEWRESULT_SERVLET_PROCESS_REQUEST,
                    frame(BEAN_ADD_INTERVIEW_RESULTS,
                          frame(DAO_ADD_INTERVIEW_RESULTS,
                                frame(GET_CONNECTION))))),
    ),
    "recruit": (
        frame(RECRUITMENT_JSP,
              frame(HRPROCESS_SERVLET_DOGET,
                    frame(HRPROCESS_PROCESS_REQUEST,
                          frame(BEAN_RECRUIT,
                                frame(DAO_RECRUIT_EMPLOYEE,
                                      frame(GET_CONNECTION)))))),
    ),
    "view_result": (
        frame(VIEWRESULT_JSP,
              frame(BEAN_VIEW_INTERVIEW_RESULTS,
                    frame(DAO_VIEW_INTERVIEW_RESULTS,
                          frame(GET_CONNECTION)))),
    ),
    "login_page": (frame(LOGIN_JSP),),
    "addcandidate_page": (frame(ADDCANDIDATE_JSP),),
    "hrprocess_page": (frame(HRPROCESS_SERVLET_DOGET, frame(HRPROCESS_PROCESS_REQUEST)),),
    "welcome_page": (frame(WELCOME_JSP),),
    "viewprofile_page": (frame(VIEWPROFILE_JSP),),
    "container_init": (
        frame(LOGINSERVLET_INIT),
        frame(HRPROCESS_SERVLET_INIT),
        frame(STUB_INIT),
        frame(WRAPPER_INIT),
        frame(WRAPPER_INIT),
    ),
}


class _Latency(NamedTuple):
    base_ns: Mapping[str, int]
    default_base_ns: int = 1_000_000
    jitter: float = 0.0


class LatencyModel(_Latency):
    """Per-method self durations with optional seeded jitter.

    ``jitter`` is a half-width fraction in [0, 1): each frame's duration
    is its base scaled by a factor drawn uniformly from
    [1 - jitter, 1 + jitter).  The draw hashes the frame's identity, so
    it is independent of generation order.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {self.jitter}")
        # a jittered base must convert to a float
        if self.default_base_ns < 0:
            raise ValueError("default_base_ns must be >= 0")
        if self.default_base_ns >= 2**63:
            raise ValueError("default_base_ns must be below 2**63")
        for method, base in self.base_ns.items():
            if base < 0:
                raise ValueError(f"negative base duration for {method}")
            if base >= 2**63:
                raise ValueError(f"base duration for {method} must be below 2**63")
        return self


class WorkloadSpec:
    """Declarative scenario, checked when built: which chains run how often, on which threads."""

    def __init__(self, executions: dict[str, int], seed: int = 0,
                 latency: LatencyModel | None = None, thread_count: int = 1):
        if thread_count < 1:
            raise ValueError(f"thread_count must be >= 1, got {thread_count}")
        # thread ids stay within the signed 64-bit range
        if thread_count >= 2**63:
            raise ValueError("thread_count must be below 2**63")
        for name, count in executions.items():
            if name not in CHAINS:
                known = ", ".join(sorted(CHAINS))
                raise ValueError(f"unknown use case {clip(name, repr)} (known: {known})")
            if count < 0:
                raise ValueError(f"negative execution count for {clip(name, repr)}: {count}")
        self.executions = executions
        self.seed = seed
        self.latency = LatencyModel(base_ns={}) if latency is None else latency
        self.thread_count = thread_count

    def event_count(self) -> int:
        """The enter and exit events the spec expands to."""
        return 2 * sum(count * frame_count(CHAINS[use_case])
                       for use_case, count in self.executions.items())


# Reference hot-spot table for the 20-user portal snapshot, top to
# bottom: (method, self time in ms, invocations).  figure8_preset() is
# calibrated so a jitter-0 analysis reproduces every row at display
# precision and every invocation count exactly.
FIGURE8_TABLE: tuple[tuple[str, float, int], ...] = (
    (GET_CONNECTION, 1267.0, 50),
    (DAO_ADD_CANDIDATE_PROFILE, 946.0, 20),
    (DAO_ADD_EMPLOYEE_CREDENTIALS, 624.0, 20),
    (DAO_AUTHENTICATE_EMPLOYEE, 85.8, 10),
    (LOGIN_JSP, 54.6, 20),
    (STUB_ADD_CANDIDATE_PROFILE, 30.8, 20),
    (STUB_AUTHENTICATE, 15.2, 10),
    (HRPROCESS_PROCESS_REQUEST, 13.3, 22),
    (STUB_ADD_EMPLOYEE_CREDENTIALS, 8.7, 20),
    (ADDCANDIDATE_JSP, 5.47, 23),
    (JSP_LOGINSERVLET_PROCESS_REQUEST, 3.21, 10),
    (WELCOME_JSP, 1.86, 6),
    (BEAN_AUTHENTICATE, 1.17, 10),
    (VIEWPROFILE_JSP, 0.856, 3),
    (HRPROCESS_SERVLET_DOGET, 0.368, 22),
    (BASEDAO_INIT, 0.235, 50),
    (EMPLOYEEDAO_INIT, 0.195, 50),
    (BEAN_ADD_CREDENTIALS, 0.195, 20),
    (LOGINSERVLET_DOPOST, 0.177, 10),
    (BEAN_ADD_CANDIDATE_PROFILE, 0.175, 20),
    (EMPLOYEE_CREDENTIALS_INIT, 0.117, 60),
    (WRAPPER_ADD_CANDIDATE_PROFILE, 0.114, 20),
    (WRAPPER_ADD_EMPLOYEE_CREDENTIALS, 0.109, 20),
    (CANDIDATE_PROFILE_INIT, 0.104, 40),
    (WRAPPER_AUTHENTICATE, 0.068, 10),
    (WRAPPER_INIT, 0.066, 2),
    (LOGINSERVLET_INIT, 0.033, 1),
    (STUB_INIT, 0.028, 1),
    (HRPROCESS_SERVLET_INIT, 0.026, 1),
)

# per-invocation base durations derived from the table rows
_CALIBRATED_BASE_NS: dict[str, int] = {
    method: round(self_ms * 1e6 / invocations)
    for method, self_ms, invocations in FIGURE8_TABLE
}

# executions per chain behind the 20-user snapshot; the register and
# login flows account for all DAO/bean/stub traffic, the rest is page
# views plus one-time class construction
_FIGURE8_MIX: dict[str, int] = {
    "register": 20,
    "login": 10,
    "login_page": 10,
    "addcandidate_page": 23,
    "hrprocess_page": 22,
    "welcome_page": 6,
    "viewprofile_page": 3,
    "container_init": 1,
}


def calibrated_latency(jitter: float = 0.0) -> LatencyModel:
    """The per-method durations behind FIGURE8_TABLE.

    Methods outside the table (the registration page and servlet, which
    the reference table does not list) default to zero self time so they
    never perturb the calibrated totals.
    """
    return LatencyModel(base_ns=dict(_CALIBRATED_BASE_NS), default_base_ns=0,
                        jitter=jitter)


def figure8_preset() -> WorkloadSpec:
    """The 20-user snapshot workload; analysis reproduces FIGURE8_TABLE."""
    return WorkloadSpec(
        executions=dict(_FIGURE8_MIX),
        seed=20,
        latency=calibrated_latency(),
        thread_count=4,
    )


def load_preset(user_count: int, jitter: float = 0.0, seed: int = 11) -> WorkloadSpec:
    """A load-scaling workload: per-call latency independent of user count.

    Each user registers eight candidates and logs in eight times over the
    capture window; only the volume grows with ``user_count``, never
    the per-call durations, so per-method averages are load-invariant up to
    jitter.  The repeat factor keeps averages stable even at one user: with
    eight samples a 10% jitter moves a per-method mean by a few percent at
    most, so cross-load ratios stay well inside [1 - jitter, 1 + jitter].
    """
    if user_count < 1:
        raise ValueError(f"user_count must be >= 1, got {user_count}")
    volume = user_count * 8
    return WorkloadSpec(
        executions={"register": volume, "login": volume},
        seed=seed,
        latency=calibrated_latency(jitter),
        thread_count=min(user_count, 4),
    )


PRESETS = {"figure8": figure8_preset}


def _thread_runs(spec, programs, tid):
    """One thread's lines in time order, a run at a time: it yields the ts of its
    next line, is sent a bound, and yields its next lines stamped below it."""
    t, step, jitter, tab = 0, spec.thread_count, spec.latency.jitter, f"\t{tid}"
    for use_case, offset, count, tails, bases, hashed in programs:
        for i in range((tid - 1 - offset) % step, count, step):
            steps = bases.copy()
            prefix = blake2b(f"{spec.seed}|{use_case}|{i}|".encode(), digest_size=8)
            for k, key, base in hashed:
                h = prefix.copy()
                h.update(key)
                # the factor 1 + jitter * (2 * digest / 2**64 - 1), to the last bit
                steps[k] = round(base * (1.0 + jitter * (
                    int.from_bytes(h.digest(), "big") * 2.0**-63 - 1.0)))
            stamps = list(itertools.accumulate(steps, initial=t))
            t, k = stamps[-1], 0
            if t >= 2**63:
                raise TraceStructureError(TS_RANGE_ERROR, tid=tid)
            lines = [f"{ts}{tab}{tail}" for ts, tail in zip(stamps, tails)]
            while k < len(lines):
                cut = bisect_left(stamps, (yield stamps[k]), k, len(lines))
                yield lines[k:cut]
                k = cut


def simulate_lines(spec: WorkloadSpec) -> Iterator[str]:
    """Expand a workload spec into canonical trace lines (no newlines), as they come.

    Use cases expand in sorted-name order, and executions go round-robin to
    tids 1..thread_count, each tid's back to back on its own clock; lines are
    ordered by (ts, tid, per-tid order).  A thread whose clock would pass
    ``2**63 - 1`` ns raises ``TraceStructureError`` (a ValueError) before any
    line of that execution.  Time follows the lines written plus the threads
    times the use cases; memory follows the busy threads, each holding one
    execution's lines, plus the length of a chain.
    """
    return itertools.chain.from_iterable(_runs(spec))


def _runs(spec):
    """The header, then the threads' lines merged on (ts, tid), a run of one thread
    at a time.  Each use case compiles once.  A heap holds each thread as (next ts,
    tid, runs); the head gives the lines that sort before the smaller of
    ``heap[1]`` and ``heap[2]``, which at an equal ts is the one of lower tid."""
    cases = sorted(spec.executions.items())
    mix = " ".join(f"{use_case}={count}" for use_case, count in cases)
    yield ["# synthetic enter/exit trace", f"# workload: {mix or '(empty)'}",
           f"# seed={spec.seed} jitter={spec.latency.jitter} threads={spec.thread_count} "
           f"events={spec.event_count()}"]
    programs, offset = [], 0
    for use_case, count in cases:
        programs.append((use_case, offset, count,
                         *_chain_program(CHAINS[use_case], spec.latency)))
        offset += count
    # threads past the last execution would run nothing; all start at ts 0, in heap
    # order.  A finished thread, like the last two entries, sorts after every line.
    heap = [(next(runs), tid, runs) for tid in range(1, min(spec.thread_count, offset) + 1)
            for runs in [_thread_runs(spec, programs, tid)]] + [(2**63, 0)] * 2
    while heap[0][0] < 2**63:
        _, tid, runs = heap[0]
        other = min(heap[1], heap[2])
        yield runs.send(other[0] + (tid < other[1]))
        heapq.heapreplace(heap, (next(runs, 2**63), tid, runs))


def simulate(spec: WorkloadSpec) -> str:
    """``simulate_lines`` as one text, as ``trace.write_lines`` writes it."""
    return join_lines(simulate_lines(spec))


def load_workload_spec(text: str) -> WorkloadSpec:
    """Parse a spec document; its use cases are keys of ``CHAINS``.

    Expected keys: executions (required), seed, thread_count, jitter,
    default_base_ns, base_ns.  Unknown keys are rejected to catch typos;
    counts, seeds and nanoseconds must be integers and jitter a number.
    """
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # past Python's digit limit the reason ends in advice for Python code
        raise ValueError(f"bad workload spec: {str(exc).partition('; use sys.')[0]}") from None
    if not isinstance(doc, dict):
        raise ValueError("workload spec must be a JSON object")
    defaults = {"seed": 0, "thread_count": 1, "jitter": 0.0, "default_base_ns": 1_000_000,
                "base_ns": {}}
    unknown = set(doc) - defaults.keys() - {"executions"}
    if unknown:
        raise ValueError(f"unknown workload spec keys: {', '.join(sorted(unknown))}")
    executions = json_field(doc, "executions", dict)
    for name, count in executions.items():
        if not isinstance(count, int) or isinstance(count, bool):
            raise ValueError(f"execution count for {clip(name, repr)} must be an integer")
    doc = {**defaults, **doc}
    base_ns = json_field(doc, "base_ns", dict)
    latency = LatencyModel(
        base_ns={m: json_field(base_ns, m, int, where="base_ns: ") for m in base_ns},
        default_base_ns=json_field(doc, "default_base_ns", int),
        jitter=json_field(doc, "jitter", (int, float)),
    )
    return WorkloadSpec(
        executions=dict(executions),
        seed=json_field(doc, "seed", int),
        # a float once checked, so trace headers read the same for 0 and 0.0
        latency=latency._replace(jitter=float(latency.jitter)),
        thread_count=json_field(doc, "thread_count", int),
    )


def load_workload_spec_file(path) -> WorkloadSpec:
    """Load a spec file, as ``trace.load_json_file`` loads one."""
    return load_json_file(path, load_workload_spec, "workload spec must be a JSON object")
