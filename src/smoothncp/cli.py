"""Command line front end.

Subcommands: `solve` (single runs from a vector of ones), `bench` (the
full protocol: 11 starts per problem, worst-case aggregation), `trace`
(per-iteration CSV dumps for trajectory plots), `analyze` (kernel
property checks emitting JSON).  Exit codes: 0 all converged / property
holds, 1 failure or violation, 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from .analysis import (
    check_concavity,
    check_speed_bound,
    check_subadditivity,
    limit_probe,
    log_grid,
    v_function,
)
from .kernels import check_Ha, kernel_from_selector
from .ncp import EvaluationError, NcpProblem
from .problems import ProblemSpec
from .solver import SolverConfig, SolveStatus, continuation_solve

__all__ = [
    "BenchRun",
    "generate_starts",
    "run_bench",
    "format_table",
    "run_trace",
    "run_analyze",
    "main",
]

BENCH_COLUMNS = (
    "problem", "n", "kernel", "OutIter", "InIter", "Res", "Feas", "converged", "wall_s",
)
DETAIL_COLUMNS = (
    "problem", "n", "kernel", "start", "status", "OutIter", "InIter", "Res", "Feas", "wall_s",
)
DEFAULT_SUITE = ("analytic2d", "ks", "monotone:10", "monotone:100", "hphard:20", "nash5")
DEFAULT_KERNELS = ("rational", "exp")

_BENCH_NOTES = (
    "worst-case aggregation per (problem, kernel): max OutIter and InIter over "
    "all starts, max Res and Feas over converged starts, converged = count/starts",
    "monotone:* rows are a synthetic tridiagonal family standing in for cited "
    "test problems whose definitions are not recoverable",
    "wall_s is elapsed wall-clock seconds (time.perf_counter), not CPU time; it is "
    "not reproducible and excluded from every comparison",
)

_ANALYZE_PAIRS = ((1.0, 2.0), (0.5, 0.3), (3.0, 3.0), (0.1, 5.0))


def generate_starts(n: int, count: int, seed: int) -> list:
    """Protocol starting points: a vector of ones, then uniform (0,20) draws.

    Coordinate j of draw i uses its own seed sequence [seed, i, j], so any
    entry is the same no matter how many starts or coordinates are
    requested, and starts may be generated in parallel.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    starts = [np.ones(n)]
    for i in range(1, count):
        starts.append(np.array([
            np.random.default_rng([seed, i, j]).uniform(0.0, 20.0)
            for j in range(n)
        ]))
    return starts


@dataclasses.dataclass(frozen=True)
class BenchRun:
    """One benchmark campaign: problems x kernels x protocol starts."""

    problems: tuple
    kernels: tuple
    starts_per_problem: int = 11
    rng_seed: int = 1
    tol: float = 1e-8

    def __post_init__(self):
        if self.starts_per_problem < 1:
            raise ValueError("starts_per_problem must be at least 1")
        for sel in self.kernels:
            kernel_from_selector(sel)
        for spec in self.problems:
            if not isinstance(spec, ProblemSpec):
                raise TypeError("problems must be ProblemSpec instances")


def run_bench(run: BenchRun):
    """Execute a campaign; aggregate worst-case rows per (problem, kernel).

    Returns (rows, per_start_detail, all_converged).  Failures never abort
    the suite; they lower the converged count and flip the exit flag.
    """
    cfg = SolverConfig(outer_tol=run.tol)
    rows = []
    detail = []
    all_ok = True
    for pspec in run.problems:
        problem = pspec.build()
        starts = generate_starts(problem.n, run.starts_per_problem, run.rng_seed)
        for ksel in run.kernels:
            kernel = kernel_from_selector(ksel)
            reports = [continuation_solve(problem, kernel, x0, cfg) for x0 in starts]
            conv = [rep for rep in reports if rep.status is SolveStatus.CONVERGED]
            pool = conv if conv else reports
            rows.append({
                "problem": problem.name,
                "n": problem.n,
                "kernel": ksel,
                "OutIter": max(rep.out_iter for rep in reports),
                "InIter": max(rep.in_iter for rep in reports),
                "Res": max(rep.res for rep in pool),
                "Feas": max(rep.feas for rep in pool),
                "converged": f"{len(conv)}/{len(reports)}",
                "wall_s": sum(rep.wall_time for rep in reports),
            })
            if len(conv) < len(reports):
                all_ok = False
            for i, rep in enumerate(reports):
                detail.append({
                    "problem": problem.name,
                    "n": problem.n,
                    "kernel": ksel,
                    "start": i,
                    "status": rep.status.value,
                    "OutIter": rep.out_iter,
                    "InIter": rep.in_iter,
                    "Res": rep.res,
                    "Feas": rep.feas,
                    "wall_s": rep.wall_time,
                })
    return rows, detail, all_ok


def _fmt_cell(key, value):
    if key in ("Res", "Feas"):
        return f"{value:.3e}"
    if key == "wall_s":
        return f"{value:.3f}"
    return str(value)


def format_table(rows, fmt: str, detail=None) -> str:
    """Render benchmark rows as markdown, CSV, or JSON text."""
    if fmt == "json":
        payload = {
            "notes": list(_BENCH_NOTES),
            "columns": list(BENCH_COLUMNS),
            "rows": rows,
        }
        if detail is not None:
            payload["per_start"] = detail
        return json.dumps(payload, indent=2, default=_np_default)
    main_cells = [[_fmt_cell(k, row[k]) for k in BENCH_COLUMNS] for row in rows]
    detail_cells = None
    if detail is not None:
        detail_cells = [[_fmt_cell(k, d[k]) for k in DETAIL_COLUMNS] for d in detail]
    if fmt == "csv":
        out = [f"# {note}" for note in _BENCH_NOTES]
        out.append(",".join(BENCH_COLUMNS))
        out.extend(",".join(cells) for cells in main_cells)
        if detail_cells is not None:
            out.append("# per-start detail")
            out.append(",".join(DETAIL_COLUMNS))
            out.extend(",".join(cells) for cells in detail_cells)
        return "\n".join(out)
    if fmt != "md":
        raise ValueError(f"unknown output format {fmt!r}")
    out = [f"> {note}" for note in _BENCH_NOTES]
    out.append("")
    out.append("| " + " | ".join(BENCH_COLUMNS) + " |")
    out.append("|" + "|".join("---" for _ in BENCH_COLUMNS) + "|")
    out.extend("| " + " | ".join(cells) + " |" for cells in main_cells)
    if detail_cells is not None:
        out.append("")
        out.append("per-start detail")
        out.append("")
        out.append("| " + " | ".join(DETAIL_COLUMNS) + " |")
        out.append("|" + "|".join("---" for _ in DETAIL_COLUMNS) + "|")
        out.extend("| " + " | ".join(cells) + " |" for cells in detail_cells)
    return "\n".join(out)


def run_trace(problem: NcpProblem, kernel_selectors, x0, cfg: SolverConfig | None = None):
    """Solve once per kernel and dump every trace point as CSV lines.

    Columns: kernel, outer_index, r, x_1..x_n, F_1..F_n, res, feas.  Values
    are printed with 17 significant digits so the file round-trips floats.
    """
    x0 = np.asarray(x0, dtype=float)
    if cfg is None:
        cfg = SolverConfig()
    names = (
        ["kernel", "outer_index", "r"]
        + [f"x_{i + 1}" for i in range(problem.n)]
        + [f"F_{i + 1}" for i in range(problem.n)]
        + ["res", "feas"]
    )
    lines = [",".join(names)]
    for ksel in kernel_selectors:
        kernel = kernel_from_selector(ksel)
        report = continuation_solve(problem, kernel, x0, cfg)
        for tp in report.trace:
            try:
                fx = problem.F(tp.x)
            except EvaluationError:
                fx = np.full(problem.n, math.nan)
            values = (
                [f"{tp.r:.17g}"]
                + [f"{v:.17g}" for v in tp.x]
                + [f"{v:.17g}" for v in fx]
                + [f"{tp.res:.17g}", f"{tp.feas:.17g}"]
            )
            lines.append(",".join([ksel, str(tp.outer_index)] + values))
    return lines


def run_analyze(kernel_selector: str, check: str, a: float = 0.25, s_max: float = 50.0) -> dict:
    """Dispatch one property check and return a JSON-ready dict."""
    kernel = kernel_from_selector(kernel_selector)
    if check == "ha":
        rep = check_Ha(kernel, a=a, s_max=s_max)
        return {
            "check": "ha",
            "kernel": kernel.name,
            "outcome": "holds" if rep.satisfied else "violated",
            "a": rep.a,
            "s_max": rep.s_max,
            "holds_from": rep.holds_from,
            "violated_at": rep.violated_at,
        }
    if check == "limits":
        # the limit depends on the kernel tail (min(s,t) or a strict
        # underestimate of it); what always holds is limit <= min(s,t)
        probes = []
        ok = True
        for s, t in _ANALYZE_PAIRS:
            est = limit_probe(kernel, s, t)
            defect = est.limit - min(s, t)
            good = est.consistent and defect <= 1e-9
            ok = ok and good
            probes.append({
                "s": s, "t": t,
                "limit": est.limit,
                "min": min(s, t),
                "defect": defect,
                "consistent": est.consistent,
            })
        return {
            "check": "limits",
            "kernel": kernel.name,
            "outcome": "holds" if ok else "violated",
            "probes": probes,
        }
    if check == "subadd_v":
        grid = log_grid(0.01, 100.0, points_per_decade=16)
        rep = check_subadditivity(lambda y: v_function(kernel, y), grid, name="V")
        return {"check": "subadd_v", "kernel": kernel.name, **dataclasses.asdict(rep)}
    if check == "concavity":
        rep = check_concavity(kernel, log_grid(0.1, 10.0, points_per_decade=32))
        return {"check": "concavity", "kernel": kernel.name, **dataclasses.asdict(rep)}
    if check == "speed":
        reports = [check_speed_bound(kernel, s, t, r0=1.0) for s, t in _ANALYZE_PAIRS]
        ok = all(r.holds for r in reports)
        return {
            "check": "speed",
            "kernel": kernel.name,
            "outcome": "holds" if ok else "violated",
            "probes": [dataclasses.asdict(r) for r in reports],
        }
    raise ValueError(f"unknown check {check!r}")


def _np_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _emit(text: str, out_path: str | None):
    if out_path is None:
        print(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _apply_n(selectors, n):
    # bare family names get the --n suffix; explicit selectors pass through
    if n is None:
        return list(selectors)
    rewritten = []
    for sel in selectors:
        if sel in ("hphard", "monotone", "linspd"):
            rewritten.append(f"{sel}:{n}")
        elif sel == "nash":
            rewritten.append(f"nash{n}")
        else:
            rewritten.append(sel)
    return rewritten


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smoothncp",
        description="soft-min smoothing solver and benchmark driver for complementarity problems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve_p = sub.add_parser("solve", help="solve problems from a vector of ones")
    solve_p.add_argument("--problem", action="append",
                         help="problem selector, repeatable (default analytic2d)")
    solve_p.add_argument("--theta", action="append",
                         help="kernel selector, repeatable (default rational and exp)")
    solve_p.add_argument("--n", type=int, default=None, help="size for bare family selectors")
    solve_p.add_argument("--tol", type=float, default=1e-8)
    solve_p.add_argument("--out", default=None)

    bench_p = sub.add_parser("bench", help="run the benchmark protocol and print a table")
    bench_p.add_argument("--problem", action="append",
                         help="problem selector, repeatable (default: the shipped suite)")
    bench_p.add_argument("--theta", action="append",
                         help="kernel selector, repeatable (default rational and exp)")
    bench_p.add_argument("--n", type=int, default=None)
    bench_p.add_argument("--seed", type=int, default=1)
    bench_p.add_argument("--starts", type=int, default=11)
    bench_p.add_argument("--tol", type=float, default=1e-8)
    bench_p.add_argument("--format", choices=("md", "csv", "json"), default="md")
    bench_p.add_argument("--out", default=None)
    bench_p.add_argument("--verbose", action="store_true",
                         help="append per-start rows to the table")

    trace_p = sub.add_parser("trace", help="dump per-iteration trajectories as CSV")
    trace_p.add_argument("--problem", default="analytic2d")
    trace_p.add_argument("--theta", action="append")
    trace_p.add_argument("--n", type=int, default=None)
    trace_p.add_argument("--tol", type=float, default=1e-8)
    trace_p.add_argument("--out", default=None)

    analyze_p = sub.add_parser("analyze", help="run one kernel property check, emit JSON")
    analyze_p.add_argument("--theta", action="append",
                           help="kernel selector (first one is used; default exp)")
    analyze_p.add_argument("--check", required=True,
                           choices=("ha", "limits", "subadd_v", "concavity", "speed"))
    analyze_p.add_argument("--a", type=float, default=0.25,
                           help="scale factor for the ha check")
    analyze_p.add_argument("--smax", type=float, default=50.0,
                           help="scan limit for the ha check")
    analyze_p.add_argument("--out", default=None)
    return parser


def _cmd_solve(args) -> int:
    selectors = _apply_n(args.problem or ["analytic2d"], args.n)
    kernels = args.theta or list(DEFAULT_KERNELS)
    cfg = SolverConfig(outer_tol=args.tol)
    lines = []
    ok = True
    for psel in selectors:
        problem = ProblemSpec.from_selector(psel).build()
        x0 = np.ones(problem.n)
        for ksel in kernels:
            rep = continuation_solve(problem, kernel_from_selector(ksel), x0, cfg)
            if rep.status is not SolveStatus.CONVERGED:
                ok = False
            lines.append(
                f"{problem.name} theta={ksel} status={rep.status.value} "
                f"OutIter={rep.out_iter} InIter={rep.in_iter} "
                f"Res={rep.res:.3e} Feas={rep.feas:.3e} time={rep.wall_time:.3f}s"
            )
    _emit("\n".join(lines), args.out)
    return 0 if ok else 1


def _cmd_bench(args) -> int:
    selectors = _apply_n(args.problem or list(DEFAULT_SUITE), args.n)
    run = BenchRun(
        problems=tuple(ProblemSpec.from_selector(s) for s in selectors),
        kernels=tuple(args.theta or DEFAULT_KERNELS),
        starts_per_problem=args.starts,
        rng_seed=args.seed,
        tol=args.tol,
    )
    rows, detail, all_ok = run_bench(run)
    text = format_table(rows, args.format, detail if args.verbose else None)
    _emit(text, args.out)
    return 0 if all_ok else 1


def _cmd_trace(args) -> int:
    selectors = _apply_n([args.problem], args.n)
    problem = ProblemSpec.from_selector(selectors[0]).build()
    kernels = args.theta or list(DEFAULT_KERNELS)
    cfg = SolverConfig(outer_tol=args.tol)
    lines = run_trace(problem, kernels, np.ones(problem.n), cfg)
    _emit("\n".join(lines), args.out)
    return 0


def _cmd_analyze(args) -> int:
    selector = (args.theta or ["exp"])[0]
    result = run_analyze(selector, args.check, a=args.a, s_max=args.smax)
    _emit(json.dumps(result, indent=2, default=_np_default), args.out)
    return 0 if result["outcome"] == "holds" else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "bench":
            return _cmd_bench(args)
        if args.command == "trace":
            return _cmd_trace(args)
        return _cmd_analyze(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
