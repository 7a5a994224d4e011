"""Batch front door: named experiments driven by JSON configs.

Subcommands: ``holonomy``, ``rset``, ``expansivity``, ``entropy``, ``uef``,
``demo``. Each reads a config (JSON object with ``flow``, ``command``,
``params``, ``output_dir``, ``seed``, ``workers``), validates parameters
before any computation, writes CSV/JSON reports plus a run manifest, and
exits 0 on success, 2 on validation error, 3 on computation error with
partial outputs preserved.

All randomness flows from the single config seed. Worker parallelism fans
out over independent per-point tasks and merges results by index, so
outputs are byte-identical for any worker count.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import numbers
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .entropy import entropy_estimate
from .errors import RFlowError
from .flows import FLOW_NAMES, get_flow, sample_points
from .rsets import (
    check_expansivity,
    compute_rset,
    sphere_reach,
    uniform_expansiveness_scan,
)
from .sections import holonomy, make_section, section_point

COMMANDS = ("holonomy", "rset", "expansivity", "entropy", "uef", "demo")

_SAMPLING_KEYS = ("tol", "x_range", "disk_radius_max")
_LIST_KEYS = ("x_range", "t_choices", "grid", "eps_list", "t_list",
              "fit_window")
_INT_KEYS = ("n_samples", "n_bases", "n_max", "resolution", "n_points",
             "count", "horizon_budget", "n_directions", "grid")
# null means "use the default" (or, for holonomy's t, "draw from t_choices")
_NULLABLE = ("gamma", "gamma_factor", "x_range", "disk_radius_max", "grid",
             "fit_window", "jitter")
_DIRECTIONS = ("stable", "unstable", "both")
# the params each command's _run_* reads; any other key is rejected
PARAM_KEYS = {
    "holonomy": ("beta", "n_samples", "n_bases", "t", "t_choices",
                 "domain_frac") + _SAMPLING_KEYS,
    "rset": ("beta", "t", "n_max", "resolution", "n_points", "gamma",
             "gamma_factor", "direction") + _SAMPLING_KEYS,
    "expansivity": ("beta", "t", "n_max", "resolution", "n_points")
    + _SAMPLING_KEYS,
    "entropy": ("count", "grid", "jitter", "eps_list", "t_list", "orbit_step",
                "fit_window") + _SAMPLING_KEYS,
    "uef": ("eta", "beta", "t", "horizon_budget", "n_points", "n_directions")
    + _SAMPLING_KEYS,
    "demo": (),
}


@dataclass
class ExperimentConfig:
    flow: str
    command: str
    params: dict = field(default_factory=dict)
    output_dir: str = "out"
    seed: int = 0
    workers: int = 1


def load_config(path=None, overrides=None) -> ExperimentConfig:
    data = {}
    if path is not None:
        with open(path) as fh:
            data = json.load(fh)
    overrides = overrides or {}
    params = dict(data.get("params", {}))
    params.update(overrides.get("params", {}))
    merged = {
        "flow": overrides.get("flow", data.get("flow")),
        "command": overrides.get("command", data.get("command")),
        "params": params,
        "output_dir": overrides.get("output_dir", data.get("output_dir", "out")),
        "seed": int(overrides.get("seed", data.get("seed", 0))),
        "workers": int(overrides.get("workers", data.get("workers", 1))),
    }
    return ExperimentConfig(**merged)


def _is_number(v):
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def _is_int(v):
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _wrong_kind(command, key, value):
    """The kind of value ``key`` needs, if ``value`` is not one; else None."""
    if value is None:
        nullable = key in _NULLABLE or (command == "holonomy"
                                        and key in ("t", "t_choices"))
        return None if nullable else "given (not null)"
    if key == "direction":
        return None if value in _DIRECTIONS else f"one of {_DIRECTIONS}"
    if key == "jitter":
        return None
    is_kind, one, many = ((_is_int, "an integer", "integers")
                          if key in _INT_KEYS else
                          (_is_number, "a number", "numbers"))
    if key in _LIST_KEYS:
        ok = isinstance(value, (list, tuple)) and all(map(is_kind, value))
        return None if ok else f"a list of {many}"
    return None if is_kind(value) else one


def validate(config: ExperimentConfig):
    """Static parameter checks; returns a list of problems (empty = valid)."""
    bad = []
    if config.flow not in FLOW_NAMES:
        bad.append(f"unknown flow {config.flow!r}")
    if config.command not in COMMANDS:
        bad.append(f"unknown command {config.command!r}")
    if config.workers < 1:
        bad.append("workers must be >= 1")
    p = config.params
    if bad:
        return bad
    unknown = sorted(set(p) - set(PARAM_KEYS[config.command]))
    if unknown:
        bad.append(f"unknown {config.command} params: {', '.join(unknown)}")
    bad += [f"{k} must be {kind}, not {json.dumps(v, default=str)}"
            for k, v in p.items()
            if k not in unknown and (kind := _wrong_kind(config.command, k, v))]
    if bad:
        return bad
    flow = get_flow(config.flow)
    beta = p.get("beta")
    if beta is not None and beta > flow.rescale.beta0 + 1e-12:
        bad.append(f"beta={beta} exceeds beta0={flow.rescale.beta0}")
    if beta is not None and beta <= 0:
        bad.append("beta must be positive")
    for key in ("t", "n_max", "resolution", "n_points", "n_samples", "n_bases",
                "horizon_budget", "count"):
        if p.get(key) is not None and p[key] <= 0:
            bad.append(f"{key} must be positive, not {p[key]}")
    if p.get("resolution") is not None and p["resolution"] % 2 == 0:
        bad.append("resolution must be odd")
    eps_list = p.get("eps_list")
    if eps_list is not None and any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        bad.append("eps_list must be strictly decreasing")
    t_list = p.get("t_list")
    if t_list is not None and any(b <= a for a, b in zip(t_list, t_list[1:])):
        bad.append("t_list must be strictly increasing")
    if config.command == "holonomy" and p.get("t") is None \
            and not p.get("t_choices"):
        bad.append("holonomy needs t or a non-empty t_choices, not "
                   f"t={json.dumps(p.get('t'))}, "
                   f"t_choices={json.dumps(p.get('t_choices'))}")
    if config.command == "uef":
        eta = p.get("eta")
        if eta is None or eta <= 0:
            bad.append("uef needs eta > 0")
    return bad


def _parallel_map(workers, fn, items):
    """Order-preserving map with a thread pool; results keyed by index."""
    if workers <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def _fmt(x):
    return f"{float(x):.17g}"


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ------------------------------------------------------------------ experiments

def _sample_kwargs(flow, p):
    kw = {}
    if p.get("x_range") is not None:
        kw["x_range"] = tuple(p["x_range"])
    if p.get("disk_radius_max") is not None:
        kw["disk_radius_max"] = float(p["disk_radius_max"])
    return kw


def _run_holonomy(config, outdir):
    flow = get_flow(config.flow)
    p = config.params
    beta = float(p.get("beta", 0.1))
    n_samples = int(p.get("n_samples", 1000))
    n_bases = int(p.get("n_bases", 25))
    t_fixed = p.get("t")
    t_choices = p.get("t_choices")
    domain_frac = float(p.get("domain_frac", 0.98))
    tol = float(p.get("tol", 1e-9))
    L = flow.rescale.L

    bases = sample_points(flow, n_bases, seed=config.seed,
                          **_sample_kwargs(flow, p))
    per_base = int(math.ceil(n_samples / n_bases))

    def work(item):
        b_idx, base = item
        rng = np.random.default_rng(config.seed + 1000 + b_idx)
        rows = []
        sec = make_section(flow, base, beta)
        for s_idx in range(per_base):
            t = float(t_fixed) if t_fixed is not None else \
                float(rng.choice(t_choices))
            dom = (beta / L ** abs(t)) * sec.base_field_norm
            u = rng.uniform(-1.0, 1.0, size=2)
            u *= rng.uniform(0.0, domain_frac) * dom / max(np.linalg.norm(u), 1e-12)
            y = section_point(flow, sec, u)
            res = holonomy(flow, sec, t, y, tol=tol, radius_slack=4.0)
            if flow.analytic_holonomy is not None:
                ana = flow.analytic_holonomy(base, t, u)
                err = float(np.linalg.norm(res.image_coords - ana))
            else:
                ana = (math.nan, math.nan)
                err = math.nan
            rows.append([b_idx, s_idx, _fmt(u[0]), _fmt(u[1]), _fmt(t),
                         _fmt(res.hit_time), _fmt(res.image_coords[0]),
                         _fmt(res.image_coords[1]), _fmt(ana[0]), _fmt(ana[1]),
                         _fmt(err), int(res.tube_ok)])
        return rows

    all_rows = _parallel_map(config.workers, work, list(enumerate(bases)))
    rows = [r for chunk in all_rows for r in chunk]
    _write_csv(outdir / "holonomy_samples.csv",
               ["base", "sample", "u1", "u2", "t", "hit_time", "img_u1",
                "img_u2", "ana_u1", "ana_u2", "err", "tube_ok"], rows)
    errs = [float(r[10]) for r in rows if not math.isnan(float(r[10]))]
    tube_viol = sum(1 for r in rows if not int(r[11]))
    summary = {
        "flow": config.flow, "n_samples": len(rows), "beta": beta,
        "sup_err": max(errs) if errs else None,
        "tube_violations": tube_viol,
    }
    _write_json(outdir / "holonomy_summary.json", summary)
    return summary


def _run_rset(config, outdir):
    flow = get_flow(config.flow)
    p = config.params
    beta = float(p.get("beta", 0.1))
    t = float(p.get("t", 1.0))
    n_max = int(p.get("n_max", 12))
    resolution = int(p.get("resolution", 101))
    n_points = int(p.get("n_points", 20))
    gamma = p.get("gamma")
    if gamma is None and p.get("gamma_factor") is not None:
        # sphere radius factor expressed relative to the shrunken section
        gamma = float(p["gamma_factor"]) * beta / flow.rescale.L ** t
    directions = {"both": ("stable", "unstable")}.get(
        p.get("direction", "both"), (p.get("direction", "both"),))
    tol = float(p.get("tol", 1e-9))

    pts = sample_points(flow, n_points, seed=config.seed,
                        **_sample_kwargs(flow, p))
    tasks = [(i, x, d) for i, x in enumerate(pts) for d in directions]

    def work(task):
        i, x, d = task
        g = compute_rset(flow, x, beta, t, n_max, resolution, d, tol=tol)
        path = outdir / f"rset_point{i:02d}_{d}.csv"
        g.to_csv(path)
        counts = g.counts()
        entry = {
            "point": [float(v) for v in x.coords], "direction": d,
            "members": counts["members"],
            "center_only": counts["members"] == 1,
            "horizon_certified": g.horizon_certified,
            "truncation_reason": g.truncation_reason,
            "error_tally": counts["error_states"],
            "grid_csv": path.name,
        }
        if gamma is not None:
            entry["sphere_reach"] = bool(sphere_reach(g, float(gamma)))
        return entry

    entries = _parallel_map(config.workers, work, tasks)
    summary = {
        "flow": config.flow,
        "params": {"beta": beta, "t": t, "n_max": n_max,
                   "resolution": resolution, "gamma": gamma},
        "points": entries,
        "all_center_only": all(e["center_only"] for e in entries),
    }
    if gamma is not None:
        summary["sphere_reach_all"] = all(e.get("sphere_reach", False)
                                          for e in entries)
    _write_json(outdir / "rset_summary.json", summary)
    return summary


def _run_expansivity(config, outdir):
    flow = get_flow(config.flow)
    p = config.params
    beta = float(p.get("beta", 0.1))
    t = float(p.get("t", 1.0))
    n_max = int(p.get("n_max", 12))
    resolution = int(p.get("resolution", 41))
    n_points = int(p.get("n_points", 20))
    tol = float(p.get("tol", 1e-9))
    pts = sample_points(flow, n_points, seed=config.seed,
                        **_sample_kwargs(flow, p))

    def work(chunk):
        return check_expansivity(flow, chunk, beta, t, n_max, resolution,
                                 tol=tol).per_point

    chunks = [[x] for x in pts]
    per_point = [e for res in _parallel_map(config.workers, work, chunks)
                 for e in res]
    overall = "counterexample-found" if any(not e["trivial_intersection"]
                                            for e in per_point) \
        else "consistent-with-R-expansive"
    rows = [[i, _fmt(e["point"][0]), _fmt(e["point"][1]), _fmt(e["point"][2]),
             int(e["trivial_intersection"]), e["intersection_cells"],
             e["stable_members"], e["unstable_members"]]
            for i, e in enumerate(per_point)]
    _write_csv(outdir / "expansivity_points.csv",
               ["idx", "x0", "x1", "x2", "trivial", "intersection_cells",
                "stable_members", "unstable_members"], rows)
    summary = {
        "flow": config.flow, "overall": overall,
        "params": {"beta": beta, "t": t, "n_max": n_max,
                   "resolution": resolution},
        "points": per_point,
    }
    _write_json(outdir / "expansivity.json", summary)
    return summary


def _run_entropy(config, outdir):
    flow = get_flow(config.flow)
    p = config.params
    spec = {"count": int(p.get("count", 4000)), "seed": config.seed,
            **_sample_kwargs(flow, p)}
    if p.get("grid") is not None:
        spec["grid"] = [int(v) for v in p["grid"]]
        spec["jitter"] = bool(p.get("jitter", True))
    rep = entropy_estimate(flow, spec, p.get("eps_list", [0.2, 0.1]),
                           p.get("t_list", list(np.arange(0.0, 8.5, 1.0))),
                           float(p.get("orbit_step", 0.05)),
                           tol=float(p.get("tol", 1e-7)),
                           fit_window=p.get("fit_window"))
    rep.to_csv(outdir / "entropy_counts.csv")
    rep.to_json(outdir / "entropy_summary.json")
    rep.to_dat(outdir / "entropy_eps{eps}.dat")
    return {"flow": config.flow, "verdict": rep.verdict,
            "uncertainty": rep.uncertainty,
            "known_entropy": flow.known_entropy}


def _run_uef(config, outdir):
    flow = get_flow(config.flow)
    p = config.params
    eta = float(p["eta"])
    beta = float(p.get("beta", 0.1))
    t = float(p.get("t", 1.0))
    budget = int(p.get("horizon_budget", 20))
    n_points = int(p.get("n_points", 10))
    n_dirs = int(p.get("n_directions", 16))
    pts = sample_points(flow, n_points, seed=config.seed,
                        **_sample_kwargs(flow, p))
    rep = uniform_expansiveness_scan(flow, pts, eta, beta, t, budget,
                                     n_directions=n_dirs,
                                     tol=float(p.get("tol", 1e-9)),
                                     on_budget="report")
    rows = [[pi, di, n] for pi, di, n in rep.witnesses]
    _write_csv(outdir / "uef_witnesses.csv",
               ["point", "direction", "first_separation"], rows)
    summary = {
        "flow": config.flow, "eta": eta, "beta": beta, "t": t,
        "A": rep.A, "N_eta": rep.N_eta, "vacuous": rep.vacuous,
        "skipped_pairs": rep.skipped_pairs,
        "exhausted_pair": rep.exhausted_pair,
    }
    _write_json(outdir / "uef.json", summary)
    return summary


def _run_demo(config, outdir):
    """A quick tour: one small run of each experiment on suitable flows."""
    results = {}
    base_seed = config.seed
    runs = [
        ("holonomy", "cat_suspension",
         {"beta": 0.1, "t": 1.0, "n_samples": 60, "n_bases": 6}),
        ("rset", "solid_torus",
         {"beta": 0.1, "t": 1.0, "n_max": 20, "resolution": 41,
          "n_points": 2, "x_range": (0.1, 1.0)}),
        ("expansivity", "rigid_rotation",
         {"beta": 0.1, "t": 1.0, "n_max": 6, "resolution": 21, "n_points": 3}),
        ("entropy", "rigid_rotation",
         {"count": 400, "eps_list": [0.2], "t_list": [0.0, 1.0, 2.0, 3.0],
          "orbit_step": 0.05}),
        ("uef", "cat_suspension",
         {"eta": 0.01, "beta": 0.1, "t": 1.0, "horizon_budget": 10,
          "n_points": 2, "n_directions": 8}),
    ]
    for cmd, flow_name, params in runs:
        sub = ExperimentConfig(flow=flow_name, command=cmd, params=params,
                               output_dir=str(outdir / cmd), seed=base_seed,
                               workers=config.workers)
        subdir = outdir / cmd
        subdir.mkdir(parents=True, exist_ok=True)
        results[cmd] = _EXPERIMENTS[cmd](sub, subdir)
    _write_json(outdir / "demo_summary.json", results)
    return results


_EXPERIMENTS = {
    "holonomy": _run_holonomy,
    "rset": _run_rset,
    "expansivity": _run_expansivity,
    "entropy": _run_entropy,
    "uef": _run_uef,
    "demo": _run_demo,
}


def run(config: ExperimentConfig) -> int:
    """Validate, dispatch, and write reports plus a run manifest."""
    problems = validate(config)
    if problems:
        for msg in problems:
            print(f"config error: {msg}", file=sys.stderr)
        return 2
    outdir = Path(config.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    started = time.time()
    manifest = {
        "config": asdict(config),
        "version": __version__,
        "numpy": np.__version__,
        "python": sys.version.split()[0],
    }
    try:
        summary = _EXPERIMENTS[config.command](config, outdir)
        manifest["status"] = "ok"
        manifest["summary"] = summary
        code = 0
    except (RFlowError, ValueError) as exc:
        manifest["status"] = "computation-error"
        manifest["error"] = f"{type(exc).__name__}: {exc}"
        code = 3
    manifest["wall_time_s"] = round(time.time() - started, 3)
    manifest["outputs"] = sorted(p.name for p in outdir.iterdir()
                                 if p.is_file() and p.name != "manifest.json")
    _write_json(outdir / "manifest.json", manifest)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rflowlab",
        description="Rescaled-expansiveness experiments on built-in flows.")
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd in COMMANDS:
        sp = sub.add_parser(cmd)
        sp.add_argument("--config", type=str, default=None,
                        help="JSON config file")
        sp.add_argument("--flow", type=str, default=None)
        sp.add_argument("--output-dir", type=str, default=None)
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--workers", type=int, default=None)
        sp.add_argument("--param", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="override a numeric parameter (repeatable)")
    args = parser.parse_args(argv)

    overrides = {"command": args.command, "params": {}}
    for key in ("flow", "output_dir", "seed", "workers"):
        val = getattr(args, key.replace("-", "_"))
        if val is not None:
            overrides[key] = val
    for kv in args.param:
        key, _, raw = kv.partition("=")
        try:
            overrides["params"][key] = json.loads(raw)
        except json.JSONDecodeError:
            overrides["params"][key] = raw
    try:
        config = load_config(args.config, overrides)
    except (OSError, json.JSONDecodeError, TypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
