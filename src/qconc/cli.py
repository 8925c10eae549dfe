"""Command-line surface: state generation, concurrence reports, Monte-Carlo
validation, region and ladder sweeps.

Exit codes: 0 success, 1 bad input, 2 validation failure. Given the same
seed and flags every command writes byte-identical output; stochastic runs
record their seed in the report header.
"""

from __future__ import annotations

import json
import sys

import click
import numpy as np

from .bounds import rank4_region
from .concurrence import concurrence_oracle
from .errors import (
    DomainError,
    I1Zero,
    InvalidState,
    NotPure,
    QconcError,
    ReconstructionDegenerate,
)
from .estimators import (
    XState,
    assemble_ladder,
    assemble_rank2,
    assemble_xstate,
    estimate_projection2,
    estimate_pure,
    estimate_rank2_sep2,
    ladder_from_correlation,
    ladder_matrix,
    reconstruct_rank2,
    xstate_concurrence,
    xstate_concurrence_invariant,
)
from .invariants import InvariantVector, invariant_vector
from .measurement import expectation
from .qstate import (
    BlochDecomposition,
    DensityOperator,
    bell_state,
    decompose,
    random_rank_k,
    rank_of,
    werner_state,
)
from .stateio import (
    canonical_dumps,
    read_state,
    report_header,
    state_from_dict,
    state_to_dict,
)
from .validate import SUITES, run_suites


class _ValidationFailed(Exception):
    """Internal signal that a validate run tripped a suite threshold."""


def _emit(text: str, out_path: str | None) -> None:
    if out_path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_state(path: str | None) -> DensityOperator:
    """Read a state file, or stdin for None or "-"; text that is not UTF-8,
    not JSON, or nested past the parser's recursion limit raises InvalidState."""
    try:
        if path in (None, "-"):
            return state_from_dict(json.load(sys.stdin))
        return read_state(path)
    except json.JSONDecodeError as exc:
        raise InvalidState(f"input is not valid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InvalidState(f"input is not UTF-8 text: {exc}") from exc
    except RecursionError as exc:
        raise InvalidState(f"input is nested too deeply: {exc}") from exc


def _fmt_float(x: float) -> str:
    return format(float(x), ".12g")


# ---------------------------------------------------------------------------
# named-state registry
# ---------------------------------------------------------------------------

_BELL_NAMES = {
    "bell-phi+": "phi+",
    "bell-phi-": "phi-",
    "bell-psi+": "psi+",
    "bell-psi-": "psi-",
}


def _parse_named(name: str) -> DensityOperator:
    if name in _BELL_NAMES:
        return bell_state(_BELL_NAMES[name]).density()
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
            return assemble_xstate(
                XState(
                    u_plus=parts[0],
                    w1=parts[1],
                    w2=parts[2],
                    u_minus=parts[3],
                    z=z,
                )
            )
    except (ValueError, QconcError) as exc:
        raise click.UsageError(f"invalid named state {name!r}: {exc}") from exc
    known = ", ".join(sorted(_BELL_NAMES) + ["werner:p", "xstate:u+,w1,w2,u-,zre[,zim]", "ladder:lam"])
    raise click.UsageError(f"unknown named state {name!r}; choose from {known}")


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
    rho: DensityOperator,
    bloch: BlochDecomposition,
    inv: InvariantVector,
    rank: int,
    oracle: float,
    tol: float,
) -> list[dict]:
    """Family estimates that apply to rho, given its decomposition, invariants
    and rank, each with its deviation from the oracle value."""
    entries: list[dict] = []

    def add(name: str, value: float) -> None:
        entries.append(
            {"name": name, "value": float(value), "deviation": float(abs(value - oracle))}
        )

    def fail(name: str, exc: Exception) -> None:
        entries.append({"name": name, "error": f"{type(exc).__name__}: {exc}"})

    if rank == 1:
        try:
            add("pure", estimate_pure(inv))
        except NotPure as exc:
            fail("pure", exc)

    if rank == 2:
        try:
            rec = reconstruct_rank2(bloch.p, bloch.s)
            add("rank2-reconstruction", concurrence_oracle(assemble_rank2(rec)).value)
        except (ReconstructionDegenerate, QconcError) as exc:
            fail("rank2-reconstruction", exc)
        eigs = np.linalg.eigvalsh(rho.matrix)
        if abs(eigs[-1] - 0.5) <= 1e-6 and abs(eigs[-2] - 0.5) <= 1e-6:
            try:
                add("projection2", estimate_projection2(inv))
            except DomainError as exc:
                fail("projection2", exc)
        try:
            add("rank2-sep2", estimate_rank2_sep2(inv))
        except DomainError as exc:
            fail("rank2-sep2", exc)

    if _is_xstate(rho, tol):
        m = rho.matrix
        x = XState(
            u_plus=float(m[0, 0].real),
            w1=float(m[1, 1].real),
            w2=float(m[2, 2].real),
            u_minus=float(m[3, 3].real),
            z=complex(m[1, 2]),
        )
        add("xstate-direct", xstate_concurrence(x))
        try:
            add("xstate-invariant", xstate_concurrence_invariant(inv))
        except (I1Zero, DomainError) as exc:
            fail("xstate-invariant", exc)

    if _is_ladder(rho, tol):
        add("ladder-rho11", 1.0 - float(rho.matrix[0, 0].real))
        add("ladder-szpz", ladder_from_correlation(expectation(rho, ("z", "z"))))

    return entries


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


@click.group()
def cli() -> None:
    """Two-qubit concurrence toolkit."""


@cli.command("gen")
@click.option("--rank", type=click.IntRange(1, 4), default=None, help="random state of this rank")
@click.option("--named", default=None, help="named state, e.g. bell-phi+ or werner:0.5")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", "out_path", default=None, help="output path (default stdout)")
def cmd_gen(rank, named, seed, out_path):
    """Generate a state and write it as JSON; rank and purity go to stderr."""
    if (rank is None) == (named is None):
        raise click.UsageError("give exactly one of --rank or --named")
    if rank is not None:
        rho = random_rank_k(rank, seed)
        header = report_header(seed=seed)
    else:
        rho = _parse_named(named)
        header = report_header()
    payload = {"header": header, **state_to_dict(rho)}
    _emit(canonical_dumps(payload), out_path)
    click.echo(f"rank={rank_of(rho)} purity={_fmt_float(rho.purity())}", err=True)


@cli.command("concurrence")
@click.argument("state_path", required=False, default=None)
@click.option("--tol", type=float, default=1e-10, show_default=True, help="family-detection tolerance")
@click.option("--out", "out_path", default=None)
@click.option("--format", "fmt", type=click.Choice(["json", "text"]), default="text", show_default=True)
def cmd_concurrence(state_path, tol, out_path, fmt):
    """Report oracle concurrence, spectrum, invariants, and family estimates."""
    rho = _load_state(state_path)
    diag = concurrence_oracle(rho)
    bloch = decompose(rho)
    inv = invariant_vector(bloch)
    rank = rank_of(rho)
    estimates = _applicable_estimates(rho, bloch, inv, rank, diag.value, tol)
    if fmt == "json":
        payload = {
            "header": report_header(tolerance=tol),
            "oracle": diag.value,
            "lambdas": list(diag.lambdas),
            "rank": rank,
            "invariants": inv.to_dict(),
            "estimates": estimates,
        }
        _emit(canonical_dumps(payload), out_path)
        return
    lines = [
        f"oracle      {_fmt_float(diag.value)}",
        "lambdas     " + " ".join(_fmt_float(v) for v in diag.lambdas),
        f"rank        {rank}",
        "invariants  "
        + " ".join(f"I{k}={_fmt_float(v)}" for k, v in enumerate(inv.as_array(), start=1)),
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


@cli.command("validate")
@click.option("--suite", "suites", multiple=True, help="suite name; repeatable (default all)")
@click.option("--samples", type=click.IntRange(min=1), default=1000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", "out_path", default=None)
def cmd_validate(suites, samples, seed, out_path):
    """Run Monte-Carlo suites; exit 2 if any thresholded suite fails."""
    names = list(suites) if suites else None
    if names:
        unknown = [n for n in names if n not in SUITES]
        if unknown:
            raise click.UsageError(
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
        raise _ValidationFailed(f"suite(s) failed: {failed}")


def _csv(rows: list[list], header: list[str]) -> str:
    out = [",".join(header)]
    for row in rows:
        out.append(",".join(_fmt_float(v) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(out) + "\n"


@cli.command("region")
@click.option("--resolution", type=click.IntRange(min=2), default=101, show_default=True)
@click.option("--out", "out_path", default=None)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv", show_default=True)
def cmd_region(resolution, out_path, fmt):
    """Emit the rank-4 weight-plane classification grid."""
    rows = rank4_region(resolution)
    if fmt == "json":
        payload = {
            "header": report_header(),
            "rows": [
                {"lambda1": l1, "lambda2": l2, "class": k} for l1, l2, k in rows
            ],
        }
        _emit(canonical_dumps(payload), out_path)
        return
    _emit(_csv([list(r) for r in rows], ["lambda1", "lambda2", "class"]), out_path)


@cli.command("ladder")
@click.option("--resolution", type=click.IntRange(min=2), default=101, show_default=True)
@click.option("--out", "out_path", default=None)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv", show_default=True)
def cmd_ladder(resolution, out_path, fmt):
    """Sweep the singlet ladder line and emit (lam, C, <sz pz>, rho11)."""
    rows = []
    for i in range(resolution):
        lam = i / (resolution - 1)
        rho = assemble_ladder(lam)
        szpz = expectation(rho, ("z", "z"))
        rows.append(
            [lam, concurrence_oracle(rho).value, szpz, float(rho.matrix[0, 0].real)]
        )
    if fmt == "json":
        payload = {
            "header": report_header(),
            "rows": [
                {"lam": r[0], "concurrence": r[1], "szpz": r[2], "rho11": r[3]}
                for r in rows
            ],
        }
        _emit(canonical_dumps(payload), out_path)
        return
    _emit(_csv(rows, ["lam", "concurrence", "szpz", "rho11"]), out_path)


def main(argv=None) -> int:
    """Entry point mapping errors to exit codes: 1 bad input, 2 validation failure."""
    try:
        cli.main(args=argv, standalone_mode=False)
    except _ValidationFailed as exc:
        click.echo(f"error: {exc}", err=True)
        return 2
    except click.UsageError as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        return 1
    except click.ClickException as exc:
        exc.show()
        return 1
    except click.exceptions.Abort:
        click.echo("aborted", err=True)
        return 1
    except click.exceptions.Exit as exc:
        return int(exc.exit_code)
    except QconcError as exc:
        click.echo(f"error: {type(exc).__name__}: {exc}", err=True)
        return 1
    except OSError as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
