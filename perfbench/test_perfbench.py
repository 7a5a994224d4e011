"""Smoke test of the benchmark at tiny sizes: checks, trace wrappers, exits.

Run with ``python -m pytest -q perfbench``.
"""

import csv
import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import bench_speed  # noqa: E402
import bench_trace  # noqa: E402
import bench_workloads as bw  # noqa: E402
import run as bench_run  # noqa: E402
import rflowlab.cli as cli  # noqa: E402
from rflowlab.geometry import ModelManifold  # noqa: E402

TINY = {
    "holonomy-suspension": {"n_samples": 4, "n_bases": 2,
                            "t_choices": [0.5, 1.0]},
    "rset-suspension": {"n_points": 1},
    "rset-singular": {"resolution": 11, "n_points": 1},
}


def tiny(name):
    w = bw.WORKLOADS[name]
    return replace(w, params=dict(w.params, **TINY[name]))


def _edit_csv(path, edit):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    edit(rows)
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        w.writeheader()
        w.writerows(rows)


@pytest.mark.parametrize("name", sorted(TINY))
def test_round_passes_its_check(tmp_path, name):
    w = tiny(name)
    dt, out = bench_run._round(cli, w, 3, tmp_path / "out")
    assert dt > 0
    assert (out.ops, out.failed, out.problems) == (w.ops(w.params), 0, [])
    assert out.items > 0


def test_holonomy_check_catches_a_wrong_image(tmp_path):
    w = tiny("holonomy-suspension")
    bench_run._round(cli, w, 3, tmp_path)

    def nudge(rows):
        rows[1]["img_u1"] = repr(float(rows[1]["img_u1"]) + 1e-5)
    _edit_csv(tmp_path / "holonomy_samples.csv", nudge)
    out = w.check(tmp_path, w.params, 3)
    assert out.failed == 1 and "image off" in out.problems[0]


def test_rset_checks_catch_a_flipped_member(tmp_path):
    for name in ("rset-suspension", "rset-singular"):
        w = tiny(name)
        bench_run._round(cli, w, 3, tmp_path / name)
        res = w.params["resolution"]
        corner = (res // 2 + 1) * res + res // 2   # the cell next to the center

        def flip(rows):
            rows[corner]["member"] = "0" if rows[corner]["member"] == "1" else "1"
        _edit_csv(tmp_path / name / "rset_point00_stable.csv", flip)
        out = w.check(tmp_path / name, w.params, 3)
        assert out.failed == 1, name


def _write_entropy(outdir, p, counts, verdict):
    outdir.mkdir()
    with open(outdir / "entropy_counts.csv", "w") as fh:
        fh.write("eps,t,count\n")
        for t, c in zip(p["t_list"], counts):
            fh.write(f"{p['eps_list'][0]!r},{t!r},{c}\n")
    (outdir / "entropy_summary.json").write_text(json.dumps({"verdict": verdict}))


def test_entropy_check(tmp_path):
    p = bw.WORKLOADS["entropy-suspension"].params
    lo, hi = p["fit_window"]
    tt = [t for t in p["t_list"] if lo <= t <= hi]
    for label, rate, fudge, failed in (("good", 0.9, 0, 0), ("slow", 0.6, 0, 1),
                                       ("stale", 0.9, 0.01, 1)):
        counts = [round(45 * math.exp(rate * t)) for t in p["t_list"]]
        sel = [c for t, c in zip(p["t_list"], counts) if lo <= t <= hi]
        fit = float(np.polyfit(tt, np.log(sel), 1)[0])
        _write_entropy(tmp_path / label, p, counts, fit + fudge)
        out = bw.check_entropy(tmp_path / label, p, 0)
        assert out.failed == failed, (label, out.problems)
    counts[3] = counts[2] - 1
    _write_entropy(tmp_path / "dip", p, counts, 0.9)
    assert "decrease in t" in bw.check_entropy(tmp_path / "dip", p, 0).problems[0]


def test_tracer_counts_repeat_and_uninstall_restores(tmp_path):
    w = tiny("holonomy-suspension")
    originals = (cli.holonomy, cli.get_flow, ModelManifold.displacement)
    tracer = bench_trace.Tracer()
    snaps = [bench_run._loop(cli, w, 3, tmp_path, 0.0, tracer)[0][2]
             for _ in range(2)]
    assert (cli.holonomy, cli.get_flow, ModelManifold.displacement) == originals
    counts, seconds = snaps[0]
    assert counts == snaps[1][0]
    assert counts["sections.holonomy.calls"] == 4
    assert counts["integrate.first_crossing.calls"] == 4
    assert counts["integrate.orbit_batch.points"] == 8   # two-point tube checks
    assert counts["flows.field.points"] >= counts["flows.field.calls"] > 0
    assert seconds["integrate.first_crossing.s"] > 0
    assert 0 < seconds["sections.holonomy.self_s"] < sum(
        seconds[k] for k in ("integrate.first_crossing.s",
                             "integrate.flow_map.s"))
    ratios = bench_trace.ratios(counts)
    assert set(counts) | set(seconds) | set(ratios) | {
        "entropy.import_s", "trace.overhead_s"} == set(bench_trace.PER_LAYER)


def test_sampler_times_reference_samples_during_a_round(tmp_path):
    import signal

    handler = signal.getsignal(signal.SIGALRM)
    sampler = bench_speed.Sampler()
    w = tiny("rset-singular")
    dt, out = bench_run._round(cli, w, 3, tmp_path, sampler=sampler)
    assert out.failed == 0 and dt > 0
    assert sampler.samples and sampler.spent == pytest.approx(
        sum(sampler.samples))
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert 0.2 * bench_speed.SAMPLE_S < min(sampler.samples) \
        < bench_speed.INTERVAL_S


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    res = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload",
                          "rset-singular", "--seed", "1", "--seconds", "1",
                          "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True,
                         timeout=60)
    assert res.returncode != 0 and res.stdout == ""


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench_run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == bench_trace.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(bw.WORKLOADS)
