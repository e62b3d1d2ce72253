"""Command line front end.

Subcommands: `solve` (single runs from a vector of ones), `bench` (the
full protocol: 11 starts per problem, worst-case aggregation), `trace`
(per-iteration CSV dumps for trajectory plots), `analyze` (kernel
property checks emitting JSON).  Exit codes: 0 all converged / property
holds, 1 failure or violation, 2 usage error or a kernel whose arithmetic
fails on the requested check.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import numbers
import sys

import numpy as np

from .kernels import kernel_from_selector
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

    Coordinate j of draw i is the first draw of its own seed sequence
    [seed, i, j], so any entry is the same no matter how many starts or
    coordinates are requested; all of them are drawn in one vectorized pass.
    """
    from ._draws import first_uniforms, seed_words

    if count < 1:
        raise ValueError("count must be at least 1")
    words = seed_words(seed)
    i = np.repeat(np.arange(1, count, dtype=np.uint32), n)
    j = np.tile(np.arange(n, dtype=np.uint32), count - 1)
    entropy = [np.full(i.shape, word, dtype=np.uint32) for word in words] + [i, j]
    return [np.ones(n), *first_uniforms(entropy, 0.0, 20.0).reshape(count - 1, n)]


@dataclasses.dataclass(frozen=True)
class BenchRun:
    """One benchmark campaign: problems x kernels x protocol starts."""

    problems: tuple
    kernels: tuple
    starts_per_problem: int = 11
    rng_seed: int = 1
    tol: float = SolverConfig.outer_tol

    def __post_init__(self):
        for name in ("starts_per_problem", "rng_seed"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ValueError(f"{name} must be an integer")
        if self.starts_per_problem < 1:
            raise ValueError("starts_per_problem must be at least 1")
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be >= 0, got {self.rng_seed}")
        for sel in self.kernels:
            kernel_from_selector(sel)
        for spec in self.problems:
            if not isinstance(spec, ProblemSpec):
                raise TypeError("problems must be ProblemSpec instances")


def _campaign(run: BenchRun):
    """Solve a campaign row by row: yield (problem, kernel selector, reports),
    one report per protocol start.  Each problem is built, and its starts
    drawn, once for all kernels."""
    cfg = SolverConfig(outer_tol=run.tol)
    for pspec in run.problems:
        problem = pspec.build()
        starts = generate_starts(problem.n, run.starts_per_problem, run.rng_seed)
        for ksel in run.kernels:
            kernel = kernel_from_selector(ksel)
            yield problem, ksel, [continuation_solve(problem, kernel, x0, cfg) for x0 in starts]


def run_bench(run: BenchRun):
    """Execute a campaign; aggregate worst-case rows per (problem, kernel).

    Returns (rows, per_start_detail, all_converged).  Failures never abort
    the suite; they lower the converged count and flip the exit flag.
    """
    rows = []
    detail = []
    for problem, ksel, reports in _campaign(run):
        records = [{
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
        } for i, rep in enumerate(reports)]
        conv = [rec for rec in records if rec["status"] == SolveStatus.CONVERGED.value]
        pool = conv or records
        rows.append({
            **{key: records[0][key] for key in ("problem", "n", "kernel")},
            **{key: max(rec[key] for rec in records) for key in ("OutIter", "InIter")},
            **{key: max(rec[key] for rec in pool) for key in ("Res", "Feas")},
            "converged": f"{len(conv)}/{len(records)}",
            "wall_s": sum(rec["wall_s"] for rec in records),
        })
        detail.extend(records)
    return rows, detail, all(rec["status"] == SolveStatus.CONVERGED.value for rec in detail)


def _fmt_cell(key, value):
    if key in ("Res", "Feas"):
        return f"{value:.3e}"
    if key == "wall_s":
        return f"{value:.3f}"
    return str(value)


def _table(columns, records, md: bool) -> list:
    """The header and one line per record, as a markdown table or as CSV."""
    lines = [columns] + [[_fmt_cell(key, rec[key]) for key in columns] for rec in records]
    if not md:
        return [",".join(cells) for cells in lines]
    lines = ["| " + " | ".join(cells) + " |" for cells in lines]
    lines.insert(1, "|" + "|".join("---" for _ in columns) + "|")
    return lines


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
        return json.dumps(payload, indent=2)
    if fmt not in ("md", "csv"):
        raise ValueError(f"unknown output format {fmt!r}")
    md = fmt == "md"
    out = [("> " if md else "# ") + note for note in _BENCH_NOTES] + ([""] if md else [])
    out += _table(BENCH_COLUMNS, rows, md)
    if detail is not None:
        out += ["", "per-start detail", ""] if md else ["# per-start detail"]
        out += _table(DETAIL_COLUMNS, detail, md)
    return "\n".join(out)


def run_trace(run: BenchRun):
    """Render every trace point of a campaign as CSV lines.

    Columns: kernel, outer_index, r, x_1..x_n, F_1..F_n, res, feas, under a
    header line for each problem, and one block of rows per start.  Values
    are printed with 17 significant digits so the file round-trips floats.
    Returns (lines, all_converged).
    """
    lines = []
    all_ok = True
    headed = None
    for problem, ksel, reports in _campaign(run):
        if problem is not headed:
            headed = problem
            lines.append(",".join(
                ["kernel", "outer_index", "r"]
                + [f"{name}_{i + 1}" for name in "xF" for i in range(problem.n)]
                + ["res", "feas"]
            ))
        for rep in reports:
            all_ok = all_ok and rep.status is SolveStatus.CONVERGED
            for level, tp in enumerate(rep.trace):
                values = [tp.r, *tp.x, *tp.fx, tp.res, tp.feas]
                lines.append(",".join([ksel, str(level)] + [f"{v:.17g}" for v in values]))
    return lines, all_ok


def run_analyze(kernel_selector: str, check: str, a: float = 0.25, s_max: float = 50.0) -> dict:
    """Dispatch one property check and return a JSON-ready dict."""
    # only analyze uses the kernel checks, so bench, solve and trace skip loading them
    from .analysis import (
        check_Ha,
        check_concavity,
        check_speed_bound,
        check_subadditivity,
        limit_probe,
        log_grid,
        v_function,
    )

    kernel = kernel_from_selector(kernel_selector)
    head = {"check": check, "kernel": kernel.name}
    if check == "ha":
        rep = check_Ha(kernel, a=a, s_max=s_max)
        return {
            **head,
            "outcome": "holds" if rep.satisfied else "violated",
            "a": rep.a,
            "s_max": rep.s_max,
            "holds_from": rep.holds_from,
            "violated_at": rep.violated_at,
        }
    if check == "subadd_v":
        grid = log_grid(0.01, 100.0, points_per_decade=16)
        rep = check_subadditivity(lambda y: v_function(kernel, y), grid, name="V")
        return {**head, **dataclasses.asdict(rep)}
    if check == "concavity":
        rep = check_concavity(kernel, log_grid(0.1, 10.0, points_per_decade=32))
        return {**head, **dataclasses.asdict(rep)}
    if check == "limits":
        # the limit depends on the kernel tail (min(s,t) or a strict
        # underestimate of it); what always holds is limit <= min(s,t)
        probes = []
        for s, t in _ANALYZE_PAIRS:
            est = limit_probe(kernel, s, t)
            probes.append({
                "s": s, "t": t,
                "limit": est.limit,
                "min": min(s, t),
                "defect": est.limit - min(s, t),
                "consistent": est.consistent,
            })
        ok = all(p["consistent"] and p["defect"] <= 1e-9 for p in probes)
    elif check == "speed":
        reports = [check_speed_bound(kernel, s, t, r0=1.0) for s, t in _ANALYZE_PAIRS]
        ok = all(rep.holds for rep in reports)
        probes = [dataclasses.asdict(rep) for rep in reports]
    else:
        raise ValueError(f"unknown check {check!r}")
    return {**head, "outcome": "holds" if ok else "violated", "probes": probes}


def _emit(text: str, out_path: str | None):
    if out_path is None:
        print(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smoothncp",
        description="soft-min smoothing solver and benchmark driver for complementarity problems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve_p = sub.add_parser("solve", help="solve problems from a vector of ones")
    solve_p.set_defaults(run=_cmd_solve)
    solve_p.add_argument("--problem", action="append",
                         help="problem selector, repeatable (default analytic2d)")
    solve_p.add_argument("--theta", action="append",
                         help="kernel selector, repeatable (default rational and exp)")
    solve_p.add_argument("--tol", type=float, default=SolverConfig.outer_tol)
    solve_p.add_argument("--out", default=None)

    bench_p = sub.add_parser("bench", help="run the benchmark protocol and print a table")
    bench_p.set_defaults(run=_cmd_bench)
    bench_p.add_argument("--problem", action="append",
                         help="problem selector, repeatable (default: the shipped suite)")
    bench_p.add_argument("--theta", action="append",
                         help="kernel selector, repeatable (default rational and exp)")
    bench_p.add_argument("--seed", type=int, default=BenchRun.rng_seed)
    bench_p.add_argument("--starts", type=int, default=BenchRun.starts_per_problem)
    bench_p.add_argument("--tol", type=float, default=SolverConfig.outer_tol)
    bench_p.add_argument("--format", choices=("md", "csv", "json"), default="md")
    bench_p.add_argument("--out", default=None)
    bench_p.add_argument("--verbose", action="store_true",
                         help="append per-start rows to the table")

    trace_p = sub.add_parser("trace", help="dump per-iteration trajectories as CSV")
    trace_p.set_defaults(run=_cmd_trace)
    trace_p.add_argument("--problem", default="analytic2d")
    trace_p.add_argument("--theta", action="append")
    trace_p.add_argument("--tol", type=float, default=SolverConfig.outer_tol)
    trace_p.add_argument("--out", default=None)

    analyze_p = sub.add_parser("analyze", help="run one kernel property check, emit JSON")
    analyze_p.set_defaults(run=_cmd_analyze)
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


def _bench_run(args, problems) -> BenchRun:
    """The campaign of a solve, bench or trace command.  solve and trace run
    the first protocol start only: the vector of ones."""
    return BenchRun(
        problems=tuple(ProblemSpec.from_selector(s) for s in problems),
        kernels=tuple(args.theta or DEFAULT_KERNELS),
        starts_per_problem=getattr(args, "starts", 1),
        rng_seed=getattr(args, "seed", BenchRun.rng_seed),
        tol=args.tol,
    )


def _cmd_solve(args) -> int:
    _, detail, all_ok = run_bench(_bench_run(args, args.problem or ["analytic2d"]))
    lines = [
        f"{d['problem']} theta={d['kernel']} status={d['status']} "
        f"OutIter={d['OutIter']} InIter={d['InIter']} "
        f"Res={d['Res']:.3e} Feas={d['Feas']:.3e} time={d['wall_s']:.3f}s"
        for d in detail
    ]
    _emit("\n".join(lines), args.out)
    return 0 if all_ok else 1


def _cmd_bench(args) -> int:
    rows, detail, all_ok = run_bench(_bench_run(args, args.problem or DEFAULT_SUITE))
    text = format_table(rows, args.format, detail if args.verbose else None)
    _emit(text, args.out)
    return 0 if all_ok else 1


def _cmd_trace(args) -> int:
    lines, all_ok = run_trace(_bench_run(args, [args.problem]))
    _emit("\n".join(lines), args.out)
    return 0 if all_ok else 1


def _cmd_analyze(args) -> int:
    selector = (args.theta or ["exp"])[0]
    result = run_analyze(selector, args.check, a=args.a, s_max=args.smax)
    _emit(json.dumps(result, indent=2), args.out)
    return 0 if result["outcome"] == "holds" else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
