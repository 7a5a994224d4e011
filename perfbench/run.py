"""Benchmark of rflowlab's front door, ``rflowlab.cli.run``.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --seed N --seconds S          # every workload

One workload runs in one process, at ``workers=1``, as a closed loop of
rounds: each round is one ``run()`` on the workload's config, timed from
validated config to written reports and then checked. Rounds repeat until
``--seconds`` have passed, so every run attempts whole rounds.

``--trace 0`` reports the end-to-end metrics. Set-up is timed in fresh
processes (``setup_probe.py``) spread over the run. Other load on the shared
host moves the same round's time by up to 1.9x, in spells from under a
second to minutes, so the fastest or the median round of a 20 s run moved by
a quarter between two sets of runs. While each round runs, a timer therefore
samples a small fixed reference computation (``bench_speed.py``), and every
time is divided by the run's speed factor, the median sample time over its
fastest time: ``wall_s`` is the mean round time (without the samples) and
``setup_s`` the median probe time, both in seconds at that reference speed.
The first round is timed like the others: a command-line user pays its
first-call costs on every call.
``--trace 1`` runs untraced rounds for half the time and traced rounds for
the rest, and reports the per-layer metrics of the fastest traced round plus
the tracing overhead (fastest traced minus fastest untraced round time), in
measured seconds.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 7
IMPORT_PROBES = 3
PROBE_TIMEOUT_S = 120

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MiB",
    "items_per_s": "items/s",
}


def _probe(config_path, importtime=False):
    """One fresh-process set-up: (seconds, stderr)."""
    cmd = [sys.executable]
    if importtime:
        cmd += ["-X", "importtime"]
    cmd += [str(HERE / "setup_probe.py"), str(SRC), str(config_path)]
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=PROBE_TIMEOUT_S)
    if res.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {res.stderr.strip()}")
    return float(res.stdout.split()[-1]), res.stderr


def _import_seconds(importtime_log, module):
    """Cumulative import time of ``module`` from a ``-X importtime`` log."""
    for line in importtime_log.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == module:
            return int(parts[1]) * 1e-6
    raise RuntimeError(f"{module} not in the import-time log")


def _round(cli, workload, seed, outdir, tracer=None, sampler=None):
    """One timed ``run()`` and its check: (seconds, Outcome). The time of
    ``sampler``'s reference samples taken during the run is not counted."""
    from bench_workloads import Outcome

    shutil.rmtree(outdir, ignore_errors=True)
    config = workload.config(seed, outdir)
    ops = workload.ops(workload.params)
    if tracer is not None:
        tracer.reset()
        tracer.install()
    t0 = time.perf_counter()
    try:
        if sampler is None:
            code = cli.run(config)
        else:
            with sampler:
                code = cli.run(config)
    except Exception:  # a crash fails the round's operations, not the run
        code = traceback.format_exc(limit=3)
    finally:
        dt = time.perf_counter() - t0
        if sampler is not None:
            dt -= sampler.spent
        if tracer is not None:
            tracer.uninstall()
    if code != 0:
        return dt, Outcome(ops, ops, 0, [f"run() returned {code}"])
    return dt, workload.check(outdir, workload.params, seed)


def _loop(cli, workload, seed, outdir, until, tracer=None, sampler=None,
          between=None):
    """Rounds until the clock passes ``until`` (at least one); ``between``
    runs after each round."""
    rounds = []
    while True:
        dt, outcome = _round(cli, workload, seed, outdir, tracer, sampler)
        snap = tracer.snapshot() if tracer is not None else None
        rounds.append((dt, outcome, snap))
        if between is not None:
            between()
        if time.perf_counter() >= until:
            return rounds


def run_workload(name, seed, seconds, trace):
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import rflowlab.cli as cli
    from bench_trace import PER_LAYER, Tracer, ratios
    from bench_workloads import WORKLOADS

    workload = WORKLOADS[name]
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config_path = work / "config.json"
    config_path.write_text(json.dumps(asdict(workload.config(seed, work / "out"))))

    start = time.perf_counter()
    if trace:
        logs = [_probe(config_path, importtime=True)[1]
                for _ in range(IMPORT_PROBES)]
        import_s = min(_import_seconds(log, "rflowlab.entropy") for log in logs)
        plain = _loop(cli, workload, seed, work / "out", start + seconds / 2)
        traced = _loop(cli, workload, seed, work / "out", start + seconds,
                       Tracer())
        rounds = plain + traced
    else:
        from bench_speed import SAMPLE_S, Sampler, reference_sample

        sampler = Sampler()
        # set-up probes are spread over the run, like the rounds
        probes = []

        def probe_when_due():
            while len(probes) < SETUP_PROBES and time.perf_counter() >= \
                    start + len(probes) * seconds / SETUP_PROBES:
                probes.append(_probe(config_path)[0])

        rounds = _loop(cli, workload, seed, work / "out", start + seconds,
                       sampler=sampler, between=probe_when_due)
        while len(probes) < SETUP_PROBES:
            probes.append(_probe(config_path)[0])
        # rounds shorter than the sampling interval leave no samples
        samples = sampler.samples or [reference_sample()]
        speed = statistics.median(samples) / SAMPLE_S

    attempted = sum(o.ops for _, o, _ in rounds)
    failed = sum(o.failed for _, o, _ in rounds)
    problems = [p for _, o, _ in rounds for p in o.problems]
    if trace:
        counts = traced[0][2][0]
        if any(snap[0] != counts for _, _, snap in traced):
            problems.append("per-layer counters differ between identical rounds")
        fastest = min(traced, key=lambda r: r[0])
        values = dict(counts)
        values.update(ratios(counts))
        values.update(fastest[2][1])
        values["entropy.import_s"] = import_s
        values["trace.overhead_s"] = fastest[0] - min(dt for dt, _, _ in plain)
        metrics = {k: {"value": values[k], "unit": unit}
                   for k, (unit, _) in PER_LAYER.items()}
    else:
        wall_s = statistics.fmean(dt for dt, _, _ in rounds) / speed
        rate = statistics.fmean(o.items for _, o, _ in rounds) / wall_s
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = {"setup_s": statistics.median(probes) / speed,
                  "wall_s": wall_s, "peak_rss_mb": peak, "items_per_s": rate}
        metrics = {k: {"value": values[k], "unit": unit}
                   for k, unit in END_TO_END.items()}

    for p in problems[:20]:
        print(f"perfbench: {name}: {p}", file=sys.stderr)
    print(f"{name} seed {seed}: {len(rounds)} rounds, {attempted} operations "
          f"attempted, {failed} failed")
    for key, m in metrics.items():
        print(f"  {key} = {m['value']:.6g} {m['unit']}")
    if not trace:
        print(f"  (speed factor {speed:.4g} from {len(samples)} "
              f"reference samples; measured round s: "
              f"{' '.join(f'{dt:.3f}' for dt, _, _ in rounds)})")
        alias, unit = workload.rate
        print(f"  ({alias} = {values['items_per_s']:.6g} {unit})")
    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(seed, seconds, trace):
    """Each workload in its own process; a table of the results."""
    sys.path.insert(0, str(HERE))
    from bench_workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        res = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(res.stderr)
        sys.stdout.write("\n".join(res.stdout.splitlines()[:-1]) + "\n")
        status = status or res.returncode
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rflowlab" / "cli.py").is_file():
        print(f"perfbench: no rflowlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    from bench_workloads import WORKLOADS
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)} or all")
    return run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
