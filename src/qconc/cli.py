"""Command-line surface: state generation, concurrence reports, Monte-Carlo
validation, region and ladder sweeps.

Exit codes: 0 success, 1 bad input or usage, 2 validation failure, 130
interrupted. Given the same seed and flags every command writes
byte-identical output; stochastic runs record their seed in the report
header.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys

import numpy as np

from .concurrence import ConcurrenceDiagnostics, batch_oracle, concurrence_oracle
from .errors import QconcError
from .estimators import (
    XState,
    assemble_ladder,
    assemble_rank2,
    assemble_xstate,
    estimate_projection2,
    estimate_pure,
    estimate_rank2_sep2,
    ladder_concurrence,
    ladder_from_correlation,
    ladder_matrix,
    reconstruct_rank2,
    xstate_concurrence,
    xstate_concurrence_invariant,
)
from .invariants import InvariantVector, invariant_vector
from .qstate import (
    _BELL_AMPLITUDES,
    BlochDecomposition,
    DensityOperator,
    bell_state,
    check_states,
    decompose,
    random_rank_k,
    rank_of,
    werner_state,
)
from .stateio import (
    _read_stream,
    canonical_dumps,
    read_state,
    report_header,
    state_to_dict,
)


class UsageError(Exception):
    """A command line the CLI cannot run: unknown or malformed options,
    values out of range, conflicting choices. main turns it into exit 1."""


class _Exit(Exception):
    """Ends main with this code, after an error line if a message is given:
    2 when a validate run trips a suite threshold, 0 once --help has printed."""

    def __init__(self, code: int, message: str | None = None):
        super().__init__(message)
        self.code = code
        self.message = message


def _emit(text: str, out_path: str | None) -> None:
    if out_path in (None, "-"):
        sys.stdout.write(text)
        return
    # one unbuffered write, repeated only if the kernel takes part of it
    data = memoryview(text.encode("utf-8"))
    fd = os.open(out_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        while data:
            data = data[os.write(fd, data):]
    finally:
        os.close(fd)


def _load_state(path: str | None) -> DensityOperator:
    """Read a state file, or stdin for None or "-"."""
    if path in (None, "-"):
        return _read_stream(sys.stdin)
    return read_state(path)


def _fmt_float(x: float) -> str:
    return format(float(x), ".12g")


# ---------------------------------------------------------------------------
# named-state registry
# ---------------------------------------------------------------------------


def _parse_named(name: str) -> DensityOperator:
    if name.startswith("bell-") and name[5:] in _BELL_AMPLITUDES:
        return bell_state(name[5:])
    kind, _, arg = name.partition(":")
    try:
        if kind == "werner":
            return werner_state(float(arg))
        if kind == "ladder":
            return assemble_ladder(float(arg))
        if kind == "xstate":
            parts = [float(v) for v in arg.split(",")]
            if len(parts) not in (5, 6):
                raise ValueError(
                    "xstate takes u+,w1,w2,u-,zre[,zim]"
                )
            z = complex(parts[4], parts[5] if len(parts) == 6 else 0.0)
            return assemble_xstate(XState(*parts[:4], z=z))
    except (ValueError, QconcError) as exc:
        raise UsageError(f"invalid named state {name!r}: {exc}") from exc
    bells = sorted("bell-" + k for k in _BELL_AMPLITUDES)
    known = ", ".join(bells + ["werner:p", "xstate:u+,w1,w2,u-,zre[,zim]", "ladder:lam"])
    raise UsageError(f"unknown named state {name!r}; choose from {known}")


# ---------------------------------------------------------------------------
# family detection for the concurrence report
# ---------------------------------------------------------------------------


def _is_ladder(rho: DensityOperator, tol: float) -> bool:
    lam = float(rho.matrix[0, 0].real)
    if not 0.0 <= lam <= 1.0:
        return False
    return bool(np.abs(rho.matrix - ladder_matrix(lam)).max() <= tol)


def _is_xstate(rho: DensityOperator, tol: float) -> bool:
    m = rho.matrix
    off = [m[0, 1], m[0, 2], m[0, 3], m[1, 3], m[2, 3]]
    return bool(max(abs(v) for v in off) <= tol and abs(m[1, 2]) > tol)


def _applicable_estimates(
    rho: DensityOperator, bloch: BlochDecomposition, inv: InvariantVector,
    diag: ConcurrenceDiagnostics, tol: float,
) -> list[dict]:
    """Family estimates that apply to rho, given its decomposition, invariants
    and oracle diagnostics, each with its deviation from the oracle value or
    the QconcError or ValueError that the estimate raised, in the order of
    the table below."""
    m = rho.matrix
    rank2 = diag.rank == 2
    # a state at validation's 1e-10 tolerances can fail a family's 1e-12 checks
    xstate = _is_xstate(rho, tol)
    ladder = _is_ladder(rho, tol)
    # (name, applies, estimate)
    rows = (
        ("pure", diag.rank == 1, lambda: estimate_pure(inv)),
        ("rank2-reconstruction", rank2, lambda: concurrence_oracle(
            assemble_rank2(reconstruct_rank2(bloch.p, bloch.s))).value),
        # both top eigenvalues at 1/2; eigvalsh runs on rank-2 states only
        ("projection2", rank2 and all(abs(e - 0.5) <= 1e-6 for e in rho.eigenvalues()[-2:]),
         lambda: estimate_projection2(inv)),
        ("rank2-sep2", rank2, lambda: estimate_rank2_sep2(inv)),
        ("xstate-direct", xstate, lambda: xstate_concurrence(
            XState(*(float(m[k, k].real) for k in range(4)), complex(m[1, 2])))),
        ("xstate-invariant", xstate, lambda: xstate_concurrence_invariant(inv)),
        ("ladder-rho11", ladder, lambda: ladder_concurrence(float(m[0, 0].real))),
        ("ladder-szpz", ladder, lambda: ladder_from_correlation(float(bloch.pi[2, 2]))),
    )
    entries: list[dict] = []
    for name, applies, estimate in rows:
        if not applies:
            continue
        try:
            value = float(estimate())
        except (QconcError, ValueError) as exc:
            entries.append({"name": name, "error": f"{type(exc).__name__}: {exc}"})
        else:
            entries.append({"name": name, "value": value, "deviation": float(abs(value - diag.value))})
    return entries


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_gen(rank, named, seed, out_path):
    """Generate a state and write it as JSON; rank and purity go to stderr."""
    if (rank is None) == (named is None):
        raise UsageError("give exactly one of --rank or --named")
    if rank is not None:
        rho = random_rank_k(rank, seed)
        header = report_header(seed=seed)
    else:
        rho = _parse_named(named)
        header = report_header()
    payload = {"header": header, **state_to_dict(rho)}
    _emit(canonical_dumps(payload), out_path)
    print(f"rank={rank_of(rho)} purity={_fmt_float(rho.purity())}", file=sys.stderr)


def cmd_concurrence(state_path, tol, out_path, fmt):
    """Report oracle concurrence, spectrum, invariants, and family estimates."""
    rho = _load_state(state_path)
    diag = concurrence_oracle(rho)
    bloch = decompose(rho)
    inv = invariant_vector(bloch)
    estimates = _applicable_estimates(rho, bloch, inv, diag, tol)
    if fmt == "json":
        payload = {
            "header": report_header(tolerance=tol),
            "oracle": diag.value,
            "lambdas": list(diag.lambdas),
            "rank": diag.rank,
            "invariants": inv.to_dict(),
            "estimates": estimates,
        }
        _emit(canonical_dumps(payload), out_path)
        return
    lines = [
        f"oracle      {_fmt_float(diag.value)}",
        "lambdas     " + " ".join(_fmt_float(v) for v in diag.lambdas),
        f"rank        {diag.rank}",
        "invariants  "
        + " ".join(f"{name.upper()}={_fmt_float(v)}" for name, v in inv.to_dict().items()),
    ]
    if estimates:
        for e in estimates:
            if "error" in e:
                lines.append(f"estimate    {e['name']}: {e['error']}")
            else:
                lines.append(
                    f"estimate    {e['name']}: {_fmt_float(e['value'])}"
                    f" (deviation {_fmt_float(e['deviation'])})"
                )
    else:
        lines.append("estimate    none applicable")
    _emit("\n".join(lines) + "\n", out_path)


def cmd_validate(suites, samples, seed, out_path):
    """Run Monte-Carlo suites; exit 2 if any thresholded suite fails."""
    # imported here, so that the other commands load none of the suites
    from .validate import SUITES, run_suites

    names = suites or None
    if names:
        unknown = [n for n in names if n not in SUITES]
        if unknown:
            raise UsageError(
                f"unknown suite(s) {', '.join(unknown)}; choose from {', '.join(SUITES)}"
            )
    reports = run_suites(names, samples=samples, seed=seed)
    payload = {
        "header": report_header(seed=seed, samples=samples),
        "suites": [r.to_dict() for r in reports],
        "all_passed": all(r.passed for r in reports),
    }
    _emit(canonical_dumps(payload), out_path)
    if not payload["all_passed"]:
        failed = ", ".join(r.suite for r in reports if not r.passed)
        raise _Exit(2, f"suite(s) failed: {failed}")


def _emit_grid(rows, columns: list[str], out_path, fmt) -> None:
    """Grid rows as CSV under a header of column names, or as JSON objects
    keyed by them."""
    if fmt == "json":
        payload = {"header": report_header(), "rows": [dict(zip(columns, r)) for r in rows]}
        _emit(canonical_dumps(payload), out_path)
        return
    out = [",".join(columns)]
    for row in rows:
        out.append(",".join(_fmt_float(v) if isinstance(v, float) else str(v) for v in row))
    _emit("\n".join(out) + "\n", out_path)


def cmd_region(resolution, out_path, fmt):
    """Emit the rank-4 weight-plane classification grid."""
    from .bounds import rank4_region

    rows = zip(*(c.tolist() for c in rank4_region(resolution)))
    _emit_grid(rows, ["lambda1", "lambda2", "class"], out_path, fmt)


def cmd_ladder(resolution, out_path, fmt):
    """Sweep the singlet ladder line and emit (lam, C, <sz pz>, rho11)."""
    from .measurement import expectation

    # i / (resolution - 1) for each i, with the bits of the Python division
    lams = np.arange(resolution) / (resolution - 1)
    mats = check_states(ladder_matrix(lams))
    columns = (lams, batch_oracle(mats), expectation(mats, ("z", "z")), mats[:, 0, 0].real)
    rows = zip(*(c.tolist() for c in columns))
    _emit_grid(rows, ["lam", "concurrence", "szpz", "rho11"], out_path, fmt)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


#: a negative number as float() reads it, so that it parses as an option's
#: value and reaches the range check of _number
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$|^-(inf|infinity|nan)$", re.I)


class _Parser(argparse.ArgumentParser):
    """An argparse parser that raises UsageError where argparse would print
    usage and exit 2, since exit code 2 means a suite failed."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own pattern has no exponent, so it would take -1e-5 for
        # an option and report a missing value instead of the range error
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message):
        raise UsageError(message)

    def exit(self, status=0, message=None):
        # reached only after --help has printed, since error() raises
        raise _Exit(status, message)


def _number(kind, low, high=None):
    """An argparse type: text read as kind (int or float) into a finite
    number no less than low and no more than high."""
    bounds = f"x>={low}" if high is None else f"{low}<=x<={high}"

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not a valid {kind.__name__}") from None
        # NaN fails both comparisons; inf passes an open upper bound
        if not low <= value <= (math.inf if high is None else high) or value == math.inf:
            raise argparse.ArgumentTypeError(f"{text} is not in the range {bounds}")
        return value

    return parse


def _build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    """The top-level parser, and each command's own parser by command word."""
    parser = _Parser(
        prog="qconc", description="Two-qubit concurrence toolkit.", allow_abbrev=False
    )
    commands = parser.add_subparsers(title="commands", metavar="COMMAND", required=True)
    parsers = {}

    def command(name, func):
        doc = func.__doc__
        sub = commands.add_parser(name, help=doc, description=doc, allow_abbrev=False)
        sub.set_defaults(run=func)
        parsers[name] = sub
        return sub

    def out(sub):
        sub.add_argument("--out", dest="out_path", default=None, help="output path (default stdout)")

    def seed(sub):
        sub.add_argument("--seed", type=_number(int, 0), default=0, help="(default: 0)")

    def fmt(sub, default, other):
        sub.add_argument(
            "--format", dest="fmt", choices=[default, other], default=default,
            help=f"(default: {default})",
        )

    gen = command("gen", cmd_gen)
    gen.add_argument("--rank", type=_number(int, 1, 4), default=None, help="random state of this rank")
    gen.add_argument("--named", default=None, help="named state, e.g. bell-phi+ or werner:0.5")
    seed(gen)
    out(gen)

    conc = command("concurrence", cmd_concurrence)
    conc.add_argument("state_path", nargs="?", default=None, help="state file; - or none reads stdin")
    # the detectors compare absolute matrix entries with --tol, so a
    # tolerance near the size of an entry would make them meaningless
    conc.add_argument(
        "--tol", type=_number(float, 0.0, 1e-3), default=1e-10,
        help="family-detection tolerance, at most 1e-3 (default: 1e-10)",
    )
    out(conc)
    fmt(conc, "text", "json")

    val = command("validate", cmd_validate)
    val.add_argument(
        "--suite", dest="suites", action="append", default=None,
        help="suite name; repeatable (default all)",
    )
    samples = _number(int, 1, 10**7)  # a suite plans all its chunks first: 4000 at 10^7
    val.add_argument("--samples", type=samples, default=1000, help="at most 10^7 (default: 1000)")
    seed(val)
    out(val)

    for name, func in (("region", cmd_region), ("ladder", cmd_ladder)):
        grid = command(name, func)
        grid.add_argument("--resolution", type=_number(int, 2), default=101, help="(default: 101)")
        out(grid)
        fmt(grid, "csv", "json")

    return parser, parsers


#: built once per process
_PARSER, _COMMAND_PARSERS = _build_parser()


def main(argv=None) -> int:
    """Entry point mapping errors to exit codes: 1 bad input or usage, or a
    request too large to allocate, 2 validation failure, 130 an interrupt
    (Ctrl-C), the shell's code for SIGINT.

    The first word of the command line picks the parser: a command word
    hands the rest to that command's own parser, which is the one the
    top-level parser would hand it to, and any other line (--help, an empty
    line, an unknown word) goes to the top-level parser."""
    argv = sys.argv[1:] if argv is None else argv
    try:
        if argv and argv[0] in _COMMAND_PARSERS:
            args = vars(_COMMAND_PARSERS[argv[0]].parse_args(argv[1:]))
        else:
            args = vars(_PARSER.parse_args(argv))
        args.pop("run")(**args)
    except _Exit as exc:
        if exc.message:
            print(f"error: {exc.message}", file=sys.stderr)
        return exc.code
    except (UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except QconcError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130
    return 0


if __name__ == "__main__":
    sys.exit(main())
