"""Command-line verification harness.

Enumerates identity cases over seeded random admissible parameter points,
evaluates every residual exactly, and emits a deterministic machine-readable
report: the same configuration and seed always produce byte-identical JSON.
No floating point appears anywhere in a report; rationals serialize as
"num/den" strings.

`verify` runs its cases on every CPU the process may use: the parent and
its forked workers take tickets from one pipe until it is empty, and each
ticket names an evenly spread share of the case list, so a process that
runs faster builds more of it.  The report stays byte-identical, because each
case draws from a random generator seeded by its id and the records are
sorted by id; the JSON text is rendered case by case through the C string
encoder and joined once.  `--timings` stays per case: each record times its
case in whichever process builds it.

Subcommands: verify, expand, toda, list.  Exit codes: 0 all cases pass,
1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import marshal
import os
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from random import Random

from . import __version__
from .algebra import (
    Laurent,
    Poly,
    rational_str,
    scalar,
    term_sum,
)
from .families import FAMILIES, deformation, make_point
from .burchnall import (
    EXPANSIONS,
    apply_chain,
    closed_expansion_residual,
    chain_expansion_residual,
    operational_residual,
)
from .functional import adjointness_check
from .ops import Carrier, leibniz_check, operator_catalog
from .sampling import sample_deformation, sample_point, sample_rational
from .toda import (
    MODIFIED_EXPANSIONS,
    TODA_SOLUTIONS,
    flow_coefficient_strs,
    flow_index,
    modified_expansion_residual,
    toda_from_recurrence_crosscheck,
    toda_residuals,
)

SCHEMA_VERSION = 1


@dataclass
class SuiteConfig:
    families: list = field(default_factory=list)  # empty = all
    identities: list = field(default_factory=list)  # empty = all
    max_n: int = 3
    max_m: int = 3
    trials: int = 1
    seed: int = 1
    timings: bool = False


def _subseed(seed: int, label: str) -> int:
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _serialized(values: dict) -> dict:
    return {k: rational_str(v) for k, v in values.items()}


def _residual_summary(residuals: tuple) -> str:
    """"zero", or the leading term of the first nonzero residual."""
    res = next((r for r in residuals if r), None)
    if res is None:
        return "zero"
    if isinstance(res, Laurent):
        return f"nonzero, leading term z^{res.degree}: {res.lead}"
    if isinstance(res, Poly):
        return f"nonzero, leading term deg {res.degree}: {res.lead}"
    return f"nonzero: {res}"


def _random_poly(rng: Random, degree: int, carrier: Carrier) -> object:
    return carrier.element([sample_rational(rng, -3, 3) for _ in range(degree + 1)])


def _deformation_record(point, s) -> dict:
    """The report's record of a deformation scalar: {name: "num/den"}, or {} for none."""
    return {} if s is None else {deformation(point.family).scalar.name: rational_str(s)}


# Each runner draws its inputs from rng and returns (params, extras,
# residuals): the sampled parameter values, the other inputs already as
# strings, and a tuple of residuals.  The case passes when all are zero.

def _run_expansion(ident, family, n, m, rng):
    point = sample_point(family, rng)
    return point.as_dict(), {}, (closed_expansion_residual(ident, point, n, m),)


def _run_modified(ident, family, n, m, rng):
    point = sample_point(family, rng)
    s = sample_deformation(rng, point)
    res = modified_expansion_residual(ident, point, n, s)
    return point.as_dict(), _deformation_record(point, s), (res,)


def _run_toda(ident, family, n, m, rng):
    point = sample_point(family, rng)
    nn = flow_index(point, n)
    res = toda_residuals(TODA_SOLUTIONS[family], nn, point)
    return point.as_dict(), {"n_used": str(nn)}, res


def _run_crosscheck(ident, family, n, m, rng):
    point = sample_point(family, rng)
    s = sample_deformation(rng, point)
    nn = flow_index(point, n)
    res = toda_from_recurrence_crosscheck(point, s, nn)
    return point.as_dict(), {**_deformation_record(point, s), "n_used": str(nn)}, res


def _run_adjointness(ident, family, n, m, rng):
    point = sample_point(family, rng)
    rho, pairs, failures = adjointness_check(point, n)
    extras = {"rho": repr(rho), "pairs": str(pairs)}
    return point.as_dict(), extras, tuple(value for *_, value in failures)


def _run_operational(ident, family, n, m, rng):
    spec = FAMILIES[family]
    point = sample_point(family, rng)
    f = _random_poly(rng, 4, spec.carrier)
    chain = apply_chain(point, n, f)
    res = tuple(operational_residual(point, n, f, var.name, chain) for var in spec.variants)
    return point.as_dict(), {}, res


def _run_chain_expansion(ident, family, n, m, rng):
    point = sample_point(family, rng)
    res = tuple(
        chain_expansion_residual(point, n, m, var.name) for var in FAMILIES[family].variants
    )
    return point.as_dict(), {}, res


def _run_leibniz(ident, family, n, m, rng):
    q = sample_rational(rng, 0, 1)
    p = sample_rational(rng, 0, 1)
    residuals = []
    for spec in operator_catalog(q, p).values():
        f = _random_poly(rng, 5, spec.carrier)
        g = _random_poly(rng, 5, spec.carrier)
        residuals.append(leibniz_check(spec, f, g, n))
    return {"q": q, "p": p}, {}, tuple(residuals)


def _grid_nm(max_n: int, max_m: int) -> list:
    return [(n, m) for n in range(max_n + 1) for m in range(max_m + 1)]


def _grid_n0(max_n: int, max_m: int) -> list:
    return [(n, None) for n in range(max_n + 1)]


def _grid_n1(max_n: int, max_m: int) -> list:
    return [(n, None) for n in range(1, max_n + 1)]


# identity kind (as IDENTITIES and `list` name it) -> (grid, runner)
CASE_KINDS = {
    "expansion": (_grid_nm, _run_expansion),
    "chain-expansion": (_grid_nm, _run_chain_expansion),
    "modified": (_grid_n0, _run_modified),
    "operational": (_grid_n0, _run_operational),
    "leibniz": (_grid_n0, _run_leibniz),
    "toda": (_grid_n1, _run_toda),
    "crosscheck": (_grid_n1, _run_crosscheck),
    "adjointness": (_grid_n1, _run_adjointness),
}

_RAISING = tuple(t for t, s in FAMILIES.items() if s.raising is not None)

# identity id -> (kind, families): every runnable identity, its families read
# off the registries and the FamilySpec declarations
IDENTITIES = {
    **{ident: ("expansion", (e.family,)) for ident, e in EXPANSIONS.items()},
    **{ident: ("modified", (e.family,)) for ident, e in MODIFIED_EXPANSIONS.items()},
    "toda-flows": ("toda", tuple(TODA_SOLUTIONS)),
    "toda-crosscheck": ("crosscheck", tuple(TODA_SOLUTIONS)),
    "adjointness": ("adjointness", tuple(t for t, s in FAMILIES.items() if s.adjoint is not None)),
    "operational": ("operational", _RAISING),
    "chain-expansion": ("chain-expansion", _RAISING),
    "leibniz": ("leibniz", ("operators",)),
}


def _case_id(ident, family, n, m, trial) -> str:
    mm = f"m{m}" if m is not None else "m-"
    return f"{ident}/{family}/n{n}{mm}/t{trial}"


def _case_record(ident, family, n, m, trial, config) -> dict:
    """The report record of one case; an error in its runner fails the case."""
    case_id = _case_id(ident, family, n, m, trial)
    rng = Random(_subseed(config.seed, case_id))
    runner = CASE_KINDS[IDENTITIES[ident][0]][1]
    started = time.perf_counter()
    try:
        params, extras, residuals = runner(ident, family, n, m, rng)
        pt = _serialized(params)
        passed = not any(residuals)
        summary = _residual_summary(residuals)
    except Exception as exc:  # inadmissible or internal tripwire
        pt, extras = {}, {}
        passed = False
        summary = f"error: {exc}"
    case = {
        "id": case_id,
        "identity": ident,
        "family": family,
        "params": pt,
        "n": n,
        "m": m,
        "extras": extras,
        "pass": passed,
        "residual_summary": summary,
    }
    if config.timings:
        case["elapsed_ms"] = int((time.perf_counter() - started) * 1000)
    return case


def _worker_count(n_jobs: int) -> int:
    """Processes to build n_jobs case records in: the usable CPUs, 64 cases or more each.

    A fork costs about 10 ms of wall time on a busy two-CPU host, more than
    splitting a run of under 128 cases saves there.
    """
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), n_jobs // 64))


def _take_tickets(tickets: int, jobs: list, count: int, config: SuiteConfig) -> list:
    """The records of jobs[t::count] for each ticket t read from fd tickets until end of file."""
    records = []
    while chunk := os.read(tickets, 4):
        if len(chunk) != 4:
            raise RuntimeError(f"read {len(chunk)} bytes of a 4-byte verify ticket")
        t = int.from_bytes(chunk, "big")
        records.extend(_case_record(*job, config) for job in jobs[t::count])
    return records


def _records(jobs: list, config: SuiteConfig, workers: int) -> list:
    """The case records of jobs, (ident, family, n, m, trial) each, sorted by id.

    Before it forks, the parent writes T = min(len(jobs), 1024) four-byte
    tickets 0..T-1 into one pipe in a single write and closes its write end:
    4096 bytes is PIPE_BUF and the smallest pipe capacity, so the write
    neither blocks nor splits.  Then the parent and its workers - 1 children
    each read one ticket at a time until end of file and build jobs[t::T] for
    ticket t, a share that samples the whole grid, so a process that runs
    faster takes more tickets.  No lock is held: a pipe read of 4 bytes takes
    one whole ticket.  Each child sends its records as one marshal dump over
    its own pipe, loaded by the same interpreter it was forked from; the
    parent reads them and reaps the child.  A child that exits nonzero or
    sends no list of records, a short ticket read, or records whose ids are
    not exactly the jobs' ids raise RuntimeError; every child not yet reaped
    is killed and reaped before this function returns or raises.  A child
    holds only the forking thread; the case code it runs imports nothing and
    takes no lock.
    """
    count = min(len(jobs), 1024)
    tickets, write_end = os.pipe()
    children = []  # (pid, read end of its pipe as a file) of each child not yet reaped
    try:
        with open(write_end, "wb", buffering=0) as end:  # one write(2), then closed
            end.write(b"".join(t.to_bytes(4, "big") for t in range(count)))
        for _ in range(1, workers):
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(read_end)
                os.close(write_end)
                raise
            if pid == 0:  # the child: build the cases of its tickets, send them, leave
                status = 1
                try:
                    part = _take_tickets(tickets, jobs, count, config)
                    with open(write_end, "wb") as pipe:
                        pipe.write(marshal.dumps(part))
                    status = 0
                except BaseException:  # os._exit skips the usual traceback
                    sys.excepthook(*sys.exc_info())
                    sys.stderr.flush()
                finally:
                    os._exit(status)
            # a later child must not hold this write end, or the read never ends
            os.close(write_end)
            children.append((pid, open(read_end, "rb")))
        records = _take_tickets(tickets, jobs, count, config)
        while children:
            pid, pipe = children[0]
            payload = pipe.read()
            # it leaves `children` only once reaped: an interrupt in waitpid must still kill it
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            children.pop(0)
            pipe.close()
            try:
                part = marshal.loads(payload) if status == 0 else None
            except (EOFError, ValueError, TypeError):  # a truncated or malformed payload
                part = None
            if not isinstance(part, list):
                raise RuntimeError(
                    f"verify worker {pid} exited with status {status} after sending "
                    f"{len(payload)} bytes, not a list of records"
                )
            records.extend(part)
        records.sort(key=lambda c: c["id"])
        if [c["id"] for c in records] != sorted(_case_id(*job) for job in jobs):
            raise RuntimeError(
                f"verify built {len(records)} records, not one for each of its {len(jobs)} cases"
            )
        return records
    finally:
        os.close(tickets)
        if children:
            import signal  # only here: the import would add to every run's set-up time

            for pid, pipe in children:
                pipe.close()
                try:  # an interrupt between waitpid and pop leaves a reaped child here
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                except (ProcessLookupError, ChildProcessError):
                    pass


def run_verify(config: SuiteConfig) -> dict:
    if config.max_n < 0 or config.max_m < 0:
        raise UsageError("degree bounds must be >= 0")
    if config.trials < 1:
        raise UsageError("trials must be >= 1")
    _given_once("--identities", config.identities)
    _given_once("--families", config.families)
    idents = config.identities or sorted(IDENTITIES)
    unknown = [i for i in idents if i not in IDENTITIES]
    if unknown:
        raise UsageError(f"unknown identities: {unknown}; see `list`")
    known_families = set().union(*(fams for _, fams in IDENTITIES.values()))
    bad_fams = [f for f in config.families if f not in known_families]
    if bad_fams:
        raise UsageError(f"unknown families: {bad_fams}; see `list`")
    jobs = []
    selected = False  # some identity and family in common, whatever the degree bounds
    for ident in sorted(idents):
        kind, fams = IDENTITIES[ident]
        if config.families:
            fams = tuple(f for f in fams if f in config.families)
        selected = selected or bool(fams)
        grid = CASE_KINDS[kind][0]
        jobs.extend(
            (ident, family, n, m, trial)
            for family in fams
            for n, m in grid(config.max_n, config.max_m)
            for trial in range(config.trials)
        )
    if not selected:
        raise UsageError("the selected identities and families have no case in common; see `list`")
    if not jobs:
        raise UsageError(f"the selected identities start at n = 1, above --max-n {config.max_n}")
    cases = _records(jobs, config, _worker_count(len(jobs)))
    report = {
        "schema": SCHEMA_VERSION,
        "version": __version__,
        "seed": config.seed,
        "config": {
            "families": sorted(config.families),
            "identities": sorted(config.identities),
            "max_n": config.max_n,
            "max_m": config.max_m,
            "trials": config.trials,
        },
        "cases": cases,
        "totals": {
            "cases": len(cases),
            "passed": sum(1 for c in cases if c["pass"]),
            "failed": sum(1 for c in cases if not c["pass"]),
        },
    }
    return report


_json_str = json.encoder.encode_basestring_ascii  # the C encoder's, where it is built


def _json_parts(value, pad: str, parts: list) -> list:
    """parts, extended by the text json.dumps(value, indent=2, sort_keys=True) gives.

    pad is a newline and the indentation of the value's line; dict keys are
    strings, as in every report.  The indent would send json.dumps through its
    pure-Python encoder, which keeps about 50 chunk strings per case until
    its final join.  Here a dict's text is spliced into parts, each list item
    (each case) is rendered to one string, and strings go through the C
    encoder, so the caller builds the whole text with a single join.
    """
    if isinstance(value, str):
        parts.append(_json_str(value))
    elif value is None:
        parts.append("null")
    elif value is True:
        parts.append("true")
    elif value is False:
        parts.append("false")
    elif isinstance(value, int):
        parts.append(int.__repr__(value))
    elif isinstance(value, dict) and value:
        inner = pad + "  "
        sep, comma = "{" + inner, "," + inner
        for key, item in sorted(value.items()):
            parts.append(f"{sep}{_json_str(key)}: ")
            sep = comma
            _json_parts(item, inner, parts)
        parts.append(pad + "}")
    elif isinstance(value, (list, tuple)) and value:
        inner = pad + "  "
        sep, comma = "[" + inner, "," + inner  # one comma string shared by every item
        for item in value:
            parts.append(sep)
            sep = comma
            parts.append("".join(_json_parts(item, inner, [])))
        parts.append(pad + "]")
    else:  # {}, [] or a float: the same text in both encoders
        parts.append(json.dumps(value))
    return parts


def render_report(report: dict, fmt: str) -> str:
    if fmt == "json":
        parts = _json_parts(report, "\n", [])
        parts.append("\n")
        return "".join(parts)
    lines = [
        f"# verification report (schema {report['schema']}, v{report['version']})",
        "",
        f"seed: {report['seed']}  cases: {report['totals']['cases']}  "
        f"passed: {report['totals']['passed']}  failed: {report['totals']['failed']}",
        "",
        "| case | pass | residual |",
        "| --- | --- | --- |",
    ]
    for c in report["cases"]:
        lines.append(f"| {c['id']} | {'yes' if c['pass'] else 'NO'} | {c['residual_summary']} |")
    return "\n".join(lines) + "\n"


class UsageError(Exception):
    pass


def _given_once(flag: str, entries) -> None:
    """The UsageError for a selection that names one entry twice."""
    for i, entry in enumerate(entries):
        if entry in entries[:i]:
            raise UsageError(f"{flag} {entry} is given twice")


def _parse_params(pairs: list) -> dict:
    out = {}
    for chunk in pairs:
        if "=" not in chunk:
            raise UsageError(f"parameter {chunk!r} is not name=value")
        name, _, val = chunk.partition("=")
        name = name.strip()
        if name in out:
            raise UsageError(f"--param {name} is given twice")
        out[name] = val.strip()
    return out


def _values_from_args(ident: str, params: tuple, raw: dict) -> dict:
    """Each --param value parsed and checked against its domain, in domain order."""
    names = [p.name for p in params]
    unknown = [k for k in raw if k not in names]
    if unknown:
        raise UsageError(f"{ident} takes no parameter {unknown[0]!r}")
    values = {}
    for p in params:
        text = raw.get(p.name)
        if text is None:
            raise UsageError(f"{ident} needs --param {p.name}=...")
        try:
            v = int(text) if p.integer else scalar(Fraction(text))
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"--param {p.name}={text} is not a valid number") from None
        if not p.admits(v, values):
            raise UsageError(f"inadmissible parameter {p.name}={text} for {ident}")
        values[p.name] = v
    return values


def _check_writable(path: str) -> None:
    """Reject an --output path before the run rather than after it."""
    if not path:
        raise UsageError("--output needs a file name")
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        raise UsageError(f"cannot write --output {path}: it is a directory")
    if os.path.exists(path):
        if not os.access(path, os.W_OK):
            raise UsageError(f"cannot write --output {path}: the file is not writable")
    elif not os.path.isdir(parent) or not os.access(parent, os.W_OK):
        raise UsageError(f"cannot write --output {path}: {parent} is not a writable directory")


def cmd_verify(args) -> int:
    config = SuiteConfig(
        families=args.families or [],
        identities=args.identities or [],
        max_n=args.max_n,
        max_m=args.max_m,
        trials=args.trials,
        seed=args.seed,
        timings=args.timings,
    )
    if args.output is not None:
        _check_writable(args.output)
    report = run_verify(config)
    text = render_report(report, args.format)
    if args.output is not None:
        try:
            with open(args.output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write --output {args.output}: {exc.strerror}") from None
        print(
            f"wrote {args.output}: {report['totals']['passed']}/{report['totals']['cases']} passed"
        )
    else:
        sys.stdout.write(text)
    return 0 if report["totals"]["failed"] == 0 else 1


def _term_lines(terms) -> list:
    return [f"  k={k}: {t}" for k, t in enumerate(terms)]


def cmd_expand(args) -> int:
    ident = args.identity
    if args.n < 0 or (args.m or 0) < 0:
        raise UsageError("--n and --m must be >= 0")
    e = EXPANSIONS.get(ident) or MODIFIED_EXPANSIONS.get(ident)
    if e is None:
        raise UsageError(f"unknown identity {ident!r}; see `list`")
    modified = ident in MODIFIED_EXPANSIONS
    if modified and args.m is not None:
        raise UsageError(f"{ident} takes no --m")
    if not modified and args.m is None:
        raise UsageError(f"{ident} needs --m")
    spec = FAMILIES[e.family]
    scalars = (spec.deformation.scalar,) if modified and spec.deformation else ()
    values = _values_from_args(ident, spec.domain + scalars, _parse_params(args.param or []))
    point = make_point(e.family, **{p.name: values.pop(p.name) for p in spec.domain})
    s = values.pop(scalars[0].name) if scalars else None
    arg = s if modified else args.m
    lhs, terms = e.lhs(point, args.n, arg), e.build(point, args.n, arg)
    res = lhs - term_sum(terms)
    print(
        f"identity: {ident}  point: {point}  n={args.n}"
        + (f" m={args.m}" if args.m is not None else "")
        + (f" {scalars[0].name}={s}" if scalars else "")
    )
    print("terms:")
    for line in _term_lines(terms):
        print(line)
    print(f"lhs: {lhs}")
    print(f"residual: {res if res else 0}")
    return 0 if not res else 1


def cmd_toda(args) -> int:
    if args.max_n < 1:
        raise UsageError("--max-n must be >= 1")
    _given_once("--families", args.families or ())
    fams = args.families or sorted(TODA_SOLUTIONS)
    bad = [f for f in fams if f not in TODA_SOLUTIONS]
    if bad:
        raise UsageError(f"no closed-form flow for families: {bad}")
    failures = 0
    for family in fams:
        sol = TODA_SOLUTIONS[family]
        rng = Random(_subseed(args.seed, f"toda/{family}"))
        point = sample_point(family, rng)
        nmax = flow_index(point, args.max_n)
        print(f"{family} at {point} (variable: {sol.variable.tag})")
        for n in range(1, nmax + 1):
            ok = not any(toda_residuals(sol, n, point))
            failures += 0 if ok else 1
            b, c = flow_coefficient_strs(sol, n, point)
            print(f"  n={n}: b_n = {b}  c_n = {c}  residuals " + ("zero" if ok else "NONZERO"))
    return 0 if failures == 0 else 1


def cmd_list(args) -> int:
    print("families:")
    for tag, spec in FAMILIES.items():
        names = ", ".join(spec.param_names) if spec.param_names else "-"
        chain = "raising chain" if spec.raising is not None else "closed form only"
        print(f"  {tag:22s} params: {names:18s} carrier: {spec.carrier:7s} ({chain})")
    print("identities:")
    for ident, (kind, fams) in sorted(IDENTITIES.items()):
        print(f"  {ident:28s} [{kind}] families: {', '.join(fams)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="askeykit",
        description="Exact verification of raising-chain identities for the Askey scheme",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run identity suites and emit a deterministic report")
    v.add_argument("--families", nargs="*", help="restrict to these family tags")
    v.add_argument("--identities", nargs="*", help="restrict to these identity ids")
    v.add_argument("--max-n", type=int, default=SuiteConfig.max_n, dest="max_n")
    v.add_argument("--max-m", type=int, default=SuiteConfig.max_m, dest="max_m")
    v.add_argument("--trials", type=int, default=SuiteConfig.trials, help="parameter samples per grid cell")
    v.add_argument("--seed", type=int, default=SuiteConfig.seed)
    v.add_argument("--output", help="write the report here instead of stdout")
    v.add_argument("--format", choices=("json", "markdown"), default="json")
    v.add_argument(
        "--timings",
        action="store_true",
        help="include wall-clock per case (breaks byte-identical reruns)",
    )
    v.set_defaults(func=cmd_verify)

    e = sub.add_parser("expand", help="print the exact terms of one identity instance")
    e.add_argument("identity")
    e.add_argument("--n", type=int, required=True)
    e.add_argument("--m", type=int, default=None)
    e.add_argument("--param", action="append", help="name=value, exact rationals", default=[])
    e.set_defaults(func=cmd_expand)

    t = sub.add_parser("toda", help="print closed-form flows and their exact residuals")
    t.add_argument("--families", nargs="*")
    t.add_argument("--max-n", type=int, default=6, dest="max_n")
    t.add_argument("--seed", type=int, default=1)
    t.set_defaults(func=cmd_toda)

    ls = sub.add_parser("list", help="list family tags and identity ids")
    ls.set_defaults(func=cmd_list)
    return parser


def main(argv=None) -> int:
    # exact values are printed whole, past Python's default limit of 4300
    # digits per integer string (3.10.0 to 3.10.6 have no limit)
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
