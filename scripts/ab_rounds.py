"""Time two checkouts on benchmark workloads, round by round, in one process.

Usage::

    python scripts/ab_rounds.py A B [--workload NAME|all] [--rounds N]
                                [--seed N] [--out DIR]

A and B are two checkouts of this repository (say, a parent commit and a
change). Each one's ``src/rflowlab`` is loaded under its own package name
(``rflowlab_a``, ``rflowlab_b``) in this one process. The workload is one
of ``perfbench/bench_workloads.py`` (default ``rset-suspension``), read
from the checkout that holds this script, or ``all``: every workload in
turn, each with its own rounds and its own block of results. A
workload's config is built with each side's own ``cli.ExperimentConfig``,
at ``workers=1``.

A round runs ``cli.run`` once on each side, in alternating order (A first
in even rounds), each into a cleared directory ``DIR/a`` or ``DIR/b`` (a
fresh temporary directory by default). Load on a shared host comes in
spells longer than a round, so rounds taken back to back see about the
same host speed, and the per-round ratio B/A cancels most of it. After
the rounds, the script prints a block of results: each side's median
round time, the median B/A ratio with its quartiles, the rounds B won,
and whether the two sides wrote byte-identical files in every round
(``manifest.json``, which records wall time, left out). Then each side
runs ``MEM_ROUNDS`` more rounds, untimed and in the same alternating
order, under ``tracemalloc``, and the block ends with each side's median
peak of traced memory: a change that holds more state at once shows
there before it shows in a benchmark's peak resident memory. Last, each
side runs one more untimed round with a counter on its
``integrate._rk_step``, and the block ends with each side's DP5
row-steps per round: the rows passed to ``_rk_step``, summed over its
calls, a count that no host load moves. The timed rounds are never
traced or counted.

The exit status is 1 when a run does not exit 0 or when the two sides'
outputs differ in any round, so one command is both the timing check and
the byte gate.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import shutil
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
MEM_ROUNDS = 3      # untimed rounds per side under tracemalloc


def _load(name, repo):
    """``repo``'s rflowlab package, imported as ``name``; its ``cli`` module."""
    pkg = Path(repo).resolve() / "src" / "rflowlab"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli")


def _files(outdir):
    """The bytes of every file a run wrote, keyed by relative path."""
    return {str(p.relative_to(outdir)): p.read_bytes()
            for p in sorted(outdir.rglob("*"))
            if p.is_file() and p.name != "manifest.json"}


def _config(cli, workload, seed, outdir):
    """The workload's config, at one worker, into a cleared ``outdir``."""
    shutil.rmtree(outdir, ignore_errors=True)
    return cli.ExperimentConfig(flow=workload.flow, command=workload.command,
                                params=dict(workload.params),
                                output_dir=str(outdir), seed=seed, workers=1)


def _timed_run(cli, workload, seed, outdir):
    config = _config(cli, workload, seed, outdir)
    start = time.perf_counter()
    code = cli.run(config)
    return time.perf_counter() - start, code


def _traced_peak(cli, workload, seed, outdir):
    """Peak traced memory of one untimed run, in MiB, and its exit code."""
    config = _config(cli, workload, seed, outdir)
    tracemalloc.start()
    try:
        code = cli.run(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20, code


def _row_steps(cli, workload, seed, outdir):
    """DP5 row-steps of one untimed run: the rows passed to the side's
    ``integrate._rk_step``, summed over its calls; and the run's exit
    code."""
    integrate = importlib.import_module(f"{cli.__package__}.integrate")
    real, rows = integrate._rk_step, [0]

    def counted(field, y, f0, h):
        rows[0] += y.shape[1]
        return real(field, y, f0, h)

    config = _config(cli, workload, seed, outdir)
    integrate._rk_step = counted
    try:
        code = cli.run(config)
    finally:
        integrate._rk_step = real
    return rows[0], code


def _quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _compare(sides, name, workload, rounds, seed, out, repos):
    """Run ``rounds`` alternating rounds of one workload and print its
    block of results; returns the messages of runs that did not exit 0,
    and one more when the two sides' outputs differ in any round."""
    times = {"a": [], "b": []}
    identical, failed = True, []
    for r in range(rounds):
        for side in ("ab" if r % 2 == 0 else "ba"):
            dt, code = _timed_run(sides[side], workload, seed, out / side)
            if code != 0:
                failed.append(f"{name} round {r}: {side.upper()} exited {code}")
            times[side].append(dt)
        identical &= _files(out / "a") == _files(out / "b")
        print(f"{name} round {r}: A {times['a'][-1]:.4f} s, "
              f"B {times['b'][-1]:.4f} s", file=sys.stderr, flush=True)

    ratios = [b / a for a, b in zip(times["a"], times["b"])]
    r1, r2, r3 = _quartiles(ratios)
    print(f"workload {name}, seed {seed}, {rounds} rounds")
    for side, repo in zip("ab", repos):
        print(f"{side.upper()} median {statistics.median(times[side]):.4f} s "
              f"({repo})")
    print(f"B/A median {r2:.3f} (quartiles {r1:.3f} .. {r3:.3f})")
    print(f"B won {sum(b < a for a, b in zip(times['a'], times['b']))} "
          f"of {rounds} rounds")
    print(f"outputs byte-identical: {'yes' if identical else 'no'}", flush=True)
    peaks = {"a": [], "b": []}
    for r in range(MEM_ROUNDS):
        for side in ("ab" if r % 2 == 0 else "ba"):
            peak, code = _traced_peak(sides[side], workload, seed, out / side)
            if code != 0:
                failed.append(f"{name} traced round {r}: {side.upper()} "
                              f"exited {code}")
            peaks[side].append(peak)
    print(f"tracemalloc peak median over {MEM_ROUNDS} untimed rounds: "
          + ", ".join(f"{side.upper()} {statistics.median(peaks[side]):.3f} MiB"
                      for side in "ab"), flush=True)
    counts = {}
    for side in "ab":
        counts[side], code = _row_steps(sides[side], workload, seed, out / side)
        if code != 0:
            failed.append(f"{name} counted round: {side.upper()} exited {code}")
    print("DP5 row-steps per round: "
          + ", ".join(f"{side.upper()} {counts[side]}" for side in "ab"),
          flush=True)
    if not identical:
        failed.append(f"{name}: outputs differ between A and B")
    return failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, metavar="A")
    parser.add_argument("b", type=Path, metavar="B")
    parser.add_argument("--workload", default="rset-suspension")
    parser.add_argument("--rounds", type=int, default=40)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    if args.rounds < 2:
        parser.error("--rounds must be at least 2")

    sys.path.insert(0, str(HERE.parent / "perfbench"))
    from bench_workloads import WORKLOADS
    if args.workload != "all" and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"available: all, {', '.join(WORKLOADS)}")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    sides = {"a": _load("rflowlab_a", args.a), "b": _load("rflowlab_b", args.b)}
    out = args.out or Path(tempfile.mkdtemp(prefix="ab_rounds_"))

    failed = []
    for i, name in enumerate(names):
        if i:
            print()
        failed += _compare(sides, name, WORKLOADS[name], args.rounds,
                           args.seed, out, (args.a, args.b))
    for msg in failed:
        print(f"ab_rounds: {msg}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
