"""Batch front door: named experiments driven by JSON configs.

Subcommands: ``holonomy``, ``rset``, ``expansivity``, ``entropy``, ``uef``,
``demo``. Each reads a config (JSON object with ``flow``, ``command``,
``params``, ``output_dir``, ``seed``, ``workers``), validates parameters
before any computation, writes CSV/JSON reports plus a run manifest, and
exits 0 on success, 2 on validation error, 3 on computation error with
partial outputs preserved.

All randomness flows from the single config seed. Worker parallelism fans
out over independent tasks (holonomy chunks, rset directions) and merges
results by index, so outputs are byte-identical for any worker count.
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
from .integrate import T_MAX
from .rsets import (
    check_expansivity,
    compute_rset,  # noqa: F401 (unused: perfbench/bench_trace.py patches it)
    raise_first_error,
    rset_grids,
    sphere_reach,
    uniform_expansiveness_scan,
)
from .sections import (RADIUS_SLACK, holonomy, make_section, section_point,
                       tube_batch)

# samples per holonomy tube batch; bounds its memory at any n_samples
TUBE_CHUNK = 256

COMMANDS = ("holonomy", "rset", "expansivity", "entropy", "uef", "demo")

# Each command's params, as its _run_* reads them, with their defaults. A
# default of None means "not given": null is allowed for exactly those keys.
_SAMPLING = {"tol": 1e-9, "x_range": None, "disk_radius_max": None}
DEFAULTS = {
    "holonomy": {"beta": 0.1, "n_samples": 1000, "n_bases": 25, "t": None,
                 "t_choices": None, "domain_frac": 0.98, **_SAMPLING},
    "rset": {"beta": 0.1, "t": 1.0, "n_max": 12, "resolution": 101,
             "n_points": 20, "gamma_factor": None,
             "direction": "both", **_SAMPLING},
    "expansivity": {"beta": 0.1, "t": 1.0, "n_max": 12, "resolution": 41,
                    "n_points": 20, **_SAMPLING},
    "entropy": {"count": 4000, "grid": None, "jitter": True,
                "eps_list": (0.2, 0.1), "t_list": tuple(map(float, range(9))),
                "orbit_step": 0.05, "fit_window": None,
                **_SAMPLING, "tol": 1e-7},
    "uef": {"eta": None, "beta": 0.1, "t": 1.0, "horizon_budget": 20,
            "n_points": 10, "n_directions": 16, **_SAMPLING},
    "demo": {},
}


def _real(v):
    """A number below 1e308 in size (so not NaN or inf); bools are not numbers."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and abs(v) < 1e308


def _int(v, least=1):
    return _real(v) and isinstance(v, numbers.Integral) and v >= least


def _reals(v, n=None):
    return (isinstance(v, (list, tuple)) and all(map(_real, v))
            and (n is None or len(v) == n))


_POSITIVE = (lambda v: _real(v) and v > 0, "a number > 0")
_COUNT = (_int, "an integer > 0")
# key -> (test of a given value, what the test asks for)
CHECKS = {
    "beta": _POSITIVE, "t": _POSITIVE, "eta": _POSITIVE, "tol": _POSITIVE,
    "orbit_step": _POSITIVE,
    "n_samples": _COUNT, "n_bases": _COUNT, "n_max": _COUNT,
    "n_points": _COUNT, "count": _COUNT, "horizon_budget": _COUNT,
    "n_directions": _COUNT,
    "resolution": (lambda v: _int(v, 3) and v % 2 == 1,
                   "an odd integer >= 3"),
    "domain_frac": (lambda v: _real(v) and 0 < v <= 1, "a number in (0, 1]"),
    "gamma_factor": (lambda v: _real(v) and 0 <= v <= 1, "a number in [0, 1]"),
    "disk_radius_max": (lambda v: _real(v) and 0 <= v < 1, "a number in [0, 1)"),
    "direction": (lambda v: v in ("stable", "unstable", "both"),
                  "one of stable, unstable, both"),
    "jitter": (lambda v: isinstance(v, bool), "true or false"),
    "x_range": (lambda v: _reals(v, 2) and 0 <= v[0] <= v[1] <= 2,
                "[lo, hi] with 0 <= lo <= hi <= 2"),
    "t_choices": (lambda v: _reals(v) and all(x > 0 for x in v),
                  "a list of numbers > 0"),
    "grid": (lambda v: isinstance(v, (list, tuple)) and len(v) == 3
             and all(map(_int, v)), "a list of three integers > 0"),
    "eps_list": (lambda v: _reals(v) and len(v) > 0 and v[-1] > 0
                 and all(a > b for a, b in zip(v, v[1:])),
                 "a non-empty, strictly decreasing list of numbers > 0"),
    "t_list": (lambda v: _reals(v) and len(v) > 0 and v[0] >= 0
               and all(a < b for a, b in zip(v, v[1:])),
               "a non-empty, strictly increasing list of numbers >= 0"),
    "fit_window": (lambda v: _reals(v, 2) and v[0] < v[1],
                   "[lo, hi] with lo < hi"),
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
    if not isinstance(data, dict) or not isinstance(data.get("params", {}), dict):
        raise TypeError("a config is a JSON object, with params a JSON object")
    defaults = {"flow": None, "command": None, "output_dir": "out", "seed": 0,
                "workers": 1}
    unknown = sorted(set(data) - set(defaults) - {"params"})
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    overrides = overrides or {}
    merged = {key: overrides.get(key, data.get(key, default))
              for key, default in defaults.items()}
    merged["params"] = {**data.get("params", {}), **overrides.get("params", {})}
    return ExperimentConfig(**merged)


def resolved_params(config: ExperimentConfig) -> dict:
    """Every param of the config's command: the given value, else its default."""
    given = config.params
    return {key: given.get(key, default)
            for key, default in DEFAULTS[config.command].items()}


def validate(config: ExperimentConfig):
    """Static parameter checks; returns a list of problems (empty = valid)."""
    bad = []
    if config.flow not in FLOW_NAMES:
        bad.append(f"unknown flow {config.flow!r}")
    if config.command not in COMMANDS:
        bad.append(f"unknown command {config.command!r}")
    for key, least in (("seed", 0), ("workers", 1)):
        if not _int(getattr(config, key), least):
            bad.append(f"{key} must be an integer >= {least}, not "
                       f"{json.dumps(getattr(config, key), default=str)}")
    if bad:
        return bad
    defaults = DEFAULTS[config.command]
    unknown = sorted(set(config.params) - set(defaults))
    if unknown:
        bad.append(f"unknown {config.command} params: {', '.join(unknown)}")
    bad += [f"{k} must be {CHECKS[k][1]}, not {json.dumps(v, default=str)}"
            for k, v in config.params.items() if k in defaults and not
            (v is None and defaults[k] is None or CHECKS[k][0](v))]
    if bad:
        return bad
    # checks that need the flow or more than one key
    flow = get_flow(config.flow)
    p = resolved_params(config)
    if "beta" in p and p["beta"] > flow.rescale.beta0 + 1e-12:
        bad.append(f"beta={p['beta']} exceeds beta0={flow.rescale.beta0}")
    if "grid" in p and p["grid"] is not None \
            and flow.manifold.disk_axes is not None:
        bad.append(f"grid={json.dumps(p['grid'])} needs the suspension chart; "
                   f"{config.flow} has a solid-torus chart")
    if flow.manifold.disk_axes is None:
        bad += [f"{k}={json.dumps(p[k])} needs the solid-torus chart; "
                f"{config.flow} has the suspension chart"
                for k in ("x_range", "disk_radius_max") if p.get(k) is not None]
    # jitter=true is the default, so only an unjittered lattice asks for grid
    if "jitter" in p and not p["jitter"] and p["grid"] is None:
        bad.append("jitter=false needs grid; without it the sample is not "
                   "a lattice")
    if "count" in config.params and p["grid"] is not None:
        bad.append(f"count={json.dumps(p['count'])} and "
                   f"grid={json.dumps(p['grid'])} both set the sample; give one")
    if p.get("fit_window") is not None:
        lo, hi = p["fit_window"]
        held = sum(lo - 1e-12 <= t <= hi + 1e-12 for t in p["t_list"])
        if held < 3:
            bad.append(f"fit_window={json.dumps(p['fit_window'])} holds {held} "
                       f"of t_list={json.dumps(p['t_list'])}; a fit needs 3")
    if config.command == "holonomy":
        times = f"t={json.dumps(p['t'])}, t_choices={json.dumps(p['t_choices'])}"
        if p["t"] is None and not p["t_choices"]:
            bad.append(f"holonomy needs t or a non-empty t_choices, not {times}")
        if p["t"] is not None and p["t_choices"] is not None:
            bad.append(f"holonomy takes t or t_choices, not both: {times}")
        # the crossing window reaches the target section's radius, at most
        # beta on every catalog flow (||X|| <= 1), past t
        t_top = T_MAX - p["beta"]
        bad += [f"{k}={json.dumps(p[k])} exceeds T_MAX - beta = {t_top:.6g}"
                for k in ("t", "t_choices")
                if p[k] is not None and np.any(np.asarray(p[k]) > t_top)]
    if config.command in ("holonomy", "rset", "expansivity"):
        # these scale their sections by L^-t, and L holds for t >= t_min only
        t_min = flow.rescale.t_min
        bad += [f"{k}={json.dumps(p[k])} goes below the flow's t_min = {t_min:g}"
                for k in ("t", "t_choices")
                if p.get(k) is not None and np.any(np.asarray(p[k]) < t_min)]
    if config.command == "uef" and p["eta"] is None:
        bad.append("uef needs eta")
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

def _run_holonomy(config, p, outdir):
    flow = get_flow(config.flow)
    beta, domain_frac, tol = (float(p[k]) for k in ("beta", "domain_frac", "tol"))
    n_samples, n_bases = int(p["n_samples"]), int(p["n_bases"])
    t_fixed, t_choices = p["t"], p["t_choices"]
    L = flow.rescale.L

    bases = sample_points(flow, n_bases, seed=config.seed,
                          x_range=p["x_range"],
                          disk_radius_max=p["disk_radius_max"])
    per_base = int(math.ceil(n_samples / n_bases))

    # every (t, u) is drawn first, in per-base RNG order, and the samples
    # that share t are grouped across all bases
    samples = []        # (base index, sample index, section, t, u, y)
    groups = {}         # t -> indices into samples
    for b_idx, base in enumerate(bases):
        rng = np.random.default_rng(config.seed + 1000 + b_idx)
        sec = make_section(flow, base, beta)
        for s_idx in range(per_base):
            t = float(t_fixed) if t_fixed is not None else \
                float(rng.choice(t_choices))
            dom = (beta / L ** abs(t)) * sec.base_field_norm
            u = rng.uniform(-1.0, 1.0, size=2)
            u *= rng.uniform(0.0, domain_frac) * dom / max(np.linalg.norm(u), 1e-12)
            groups.setdefault(t, []).append(len(samples))
            samples.append((b_idx, s_idx, sec, t, u, section_point(flow, sec, u)))
    # one tube batch per chunk of a group
    chunks = [idx[k:k + TUBE_CHUNK] for idx in groups.values()
              for k in range(0, len(idx), TUBE_CHUNK)]

    def work(chunk):
        """Rows of a chunk's samples, in order, up to and including the
        first that failed, whose error is kept as a value. A tube batch
        error is every sample's; the chunk's first is the earliest."""
        t = samples[chunk[0]][3]
        try:
            tubes = tube_batch(flow, [samples[i][2] for i in chunk], t,
                               [samples[i][5] for i in chunk], tol)
        except RFlowError as exc:
            return [exc]
        out = []
        for i, tube in zip(chunk, tubes):
            b_idx, s_idx, sec, _, u, y = samples[i]
            try:
                res = holonomy(flow, sec, t, y, tol=tol,
                               radius_slack=RADIUS_SLACK, tube=tube)
            except RFlowError as exc:
                return out + [exc]
            if flow.analytic_holonomy is not None:
                ana = flow.analytic_holonomy(sec.base, t, u)
                err = float(np.linalg.norm(res.image_coords - ana))
            else:
                ana = (math.nan, math.nan)
                err = math.nan
            out.append([b_idx, s_idx, _fmt(u[0]), _fmt(u[1]), _fmt(t),
                        _fmt(res.hit_time), _fmt(res.image_coords[0]),
                        _fmt(res.image_coords[1]), _fmt(ana[0]), _fmt(ana[1]),
                        _fmt(err), int(res.tube_ok)])
        return out

    done = [None] * len(samples)
    for chunk, out in zip(chunks, _parallel_map(config.workers, work, chunks)):
        for i, row in zip(chunk, out):
            done[i] = row
    # a sample without a row follows a failed one of its own chunk
    rows = []
    for (b_idx, s_idx, _, t, _, _), row in zip(samples, done):
        if isinstance(row, RFlowError):   # same type and attributes, named sample
            row.args = (f"base {b_idx} sample {s_idx} (t={t:.6g}): {row}",)
            raise row
        rows.append(row)
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


def _run_rset(config, p, outdir):
    flow = get_flow(config.flow)
    beta, t, tol = (float(p[k]) for k in ("beta", "t", "tol"))
    n_max, resolution, n_points = (int(p[k]) for k in
                                   ("n_max", "resolution", "n_points"))
    # sphere radius factor expressed relative to the shrunken section
    gamma = None if p["gamma_factor"] is None \
        else float(p["gamma_factor"]) * beta / flow.rescale.L ** t
    directions = {"both": ("stable", "unstable")}.get(p["direction"],
                                                      (p["direction"],))

    pts = sample_points(flow, n_points, seed=config.seed,
                        x_range=p["x_range"],
                        disk_radius_max=p["disk_radius_max"])

    def entry(i, d, g):
        """Point i's entry for its grid g in direction d; writes its CSV."""
        path = outdir / f"rset_point{i:02d}_{d}.csv"
        g.to_csv(path)
        counts = g.counts()
        e = {
            "point": [float(v) for v in pts[i].coords], "direction": d,
            "members": counts["members"],
            "center_only": counts["members"] == 1,
            "horizon_certified": g.horizon_certified,
            "truncation_reason": g.truncation_reason,
            "error_tally": counts["error_states"],
            "grid_csv": path.name,
        }
        if gamma is not None:
            e["sphere_reach"] = bool(sphere_reach(g, float(gamma)))
        return e

    def work(d):
        """((point, d), entry) for direction d's grids, marched together,
        each entry made as its grid finishes; an error is its entry."""
        return [((i, d), g if isinstance(g, RFlowError) else entry(i, d, g))
                for i, g in rset_grids(flow, pts, beta, t, n_max, resolution,
                                       d, tol=tol)]

    found = dict(pair for part in _parallel_map(config.workers, work,
                                                directions) for pair in part)
    raise_first_error(found)
    entries = [found[i, d] for i in range(len(pts)) for d in directions]
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


def _run_expansivity(config, p, outdir):
    flow = get_flow(config.flow)
    beta, t, tol = (float(p[k]) for k in ("beta", "t", "tol"))
    n_max, resolution, n_points = (int(p[k]) for k in
                                   ("n_max", "resolution", "n_points"))
    pts = sample_points(flow, n_points, seed=config.seed,
                        x_range=p["x_range"],
                        disk_radius_max=p["disk_radius_max"])
    verdict = check_expansivity(flow, pts, beta, t, n_max, resolution, tol=tol)
    per_point = verdict.per_point
    rows = [[i, _fmt(e["point"][0]), _fmt(e["point"][1]), _fmt(e["point"][2]),
             int(e["trivial_intersection"]), e["intersection_cells"],
             e["stable_members"], e["unstable_members"]]
            for i, e in enumerate(per_point)]
    _write_csv(outdir / "expansivity_points.csv",
               ["idx", "x0", "x1", "x2", "trivial", "intersection_cells",
                "stable_members", "unstable_members"], rows)
    summary = {
        "flow": config.flow, "overall": verdict.overall,
        "params": {"beta": beta, "t": t, "n_max": n_max,
                   "resolution": resolution},
        "points": per_point,
    }
    _write_json(outdir / "expansivity.json", summary)
    return summary


def _run_entropy(config, p, outdir):
    flow = get_flow(config.flow)
    spec = {"count": int(p["count"]), "seed": config.seed,
            **{k: p[k] for k in ("x_range", "disk_radius_max")
               if p[k] is not None}}
    grid, jitter = p["grid"], p["jitter"]
    if grid is not None:
        spec["grid"] = [int(v) for v in grid]
        spec["jitter"] = jitter
    rep = entropy_estimate(flow, spec, p["eps_list"], p["t_list"],
                           float(p["orbit_step"]), tol=float(p["tol"]),
                           fit_window=p["fit_window"])
    rep.to_csv(outdir / "entropy_counts.csv")
    rep.to_json(outdir / "entropy_summary.json")
    rep.to_dat(outdir / "entropy_eps{eps}.dat")
    return {"flow": config.flow, "verdict": rep.verdict,
            "uncertainty": rep.uncertainty,
            "known_entropy": flow.known_entropy}


def _run_uef(config, p, outdir):
    flow = get_flow(config.flow)
    eta, beta, t, tol = (float(p[k]) for k in ("eta", "beta", "t", "tol"))
    budget, n_points, n_dirs = (int(p[k]) for k in
                                ("horizon_budget", "n_points", "n_directions"))
    pts = sample_points(flow, n_points, seed=config.seed,
                        x_range=p["x_range"],
                        disk_radius_max=p["disk_radius_max"])
    rep = uniform_expansiveness_scan(flow, pts, eta, beta, t, budget,
                                     n_directions=n_dirs, tol=tol,
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


def _run_demo(config, p, outdir):
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
        results[cmd] = _EXPERIMENTS[cmd](sub, resolved_params(sub), subdir)
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
    params = resolved_params(config)
    outdir = Path(config.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    started = time.time()
    manifest = {
        "config": asdict(config),
        "params": params,
        "version": __version__,
        "numpy": np.__version__,
        "python": sys.version.split()[0],
    }
    try:
        summary = _EXPERIMENTS[config.command](config, params, outdir)
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
        sp = sub.add_parser(
            cmd, formatter_class=argparse.RawDescriptionHelpFormatter,
            epilog="params (KEY = default: what a value must be; null is "
            "allowed where the default is null):\n" + ("\n".join(
                f"  {k} = {json.dumps(v)}: {CHECKS[k][1]}"
                for k, v in DEFAULTS[cmd].items()) or "  none"))
        sp.add_argument("--config", type=str, default=None,
                        help="JSON config file")
        sp.add_argument("--flow", type=str, default=None)
        sp.add_argument("--output-dir", type=str, default=None)
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--workers", type=int, default=None)
        sp.add_argument("--param", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="set a param; VALUE is read as JSON, else as "
                        "a string (repeatable)")
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
    except (OSError, ValueError, TypeError) as exc:   # JSONDecodeError too
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
