"""Benchmark workloads and their output checks.

Each workload is one ``rflowlab`` command on one flow. A round is one
``cli.run`` call on the workload's config; the config seed is the
benchmark's ``--seed``. Every round's outputs are checked against
computations made here, apart from the program:

- holonomy images against the closed-form section map ``lift(A^k u)``;
- R-set memberships on the suspension against the closed-form ``A^{+-k}``
  images, and the sphere reach of the center component;
- the center-only collapse of every R-set grid on the singular flow;
- the entropy verdict against the known entropy log((3 + sqrt 5) / 2),
  refitted here from the written counts.

An operation is one holonomy sample, one grid or one entropy table. A
round whose ``run`` exits non-zero fails all of its operations.
"""

from __future__ import annotations

import csv
import json
import math
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

CAT = np.array([[2, 1], [1, 1]], dtype=np.int64)
CAT_INV = np.array([[1, -1], [-1, 2]], dtype=np.int64)
LAMBDA_PLUS = (3.0 + math.sqrt(5.0)) / 2.0
# the suspension's rescale constant L: one gluing crossing stretches by
# lambda_plus in one jump, so the catalog takes its square
CAT_L = LAMBDA_PLUS ** 2
CAT_ENTROPY = math.log(LAMBDA_PLUS)

HOLONOMY_ATOL = 1e-6
THRESHOLD_SKIP = 1e-9
VERDICT_RANGE = (0.77, 1.15)


@dataclass
class Outcome:
    """Checked result of one round."""

    ops: int
    failed: int
    items: int              # work items the rate counts
    problems: list


@dataclass(frozen=True)
class Workload:
    name: str
    flow: str
    command: str
    params: dict
    ops: Callable           # params -> operations per round
    check: Callable         # (outdir, params, seed) -> Outcome
    rate: tuple             # (name, unit) of what ``items_per_s`` counts

    def config(self, seed, outdir):
        from rflowlab.cli import ExperimentConfig
        return ExperimentConfig(flow=self.flow, command=self.command,
                                params=dict(self.params),
                                output_dir=str(outdir), seed=int(seed),
                                workers=1)


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _lift(v):
    """Nearest torus representative of transverse offsets (rows)."""
    return v - np.round(v)


def _matrix_power(m, k):
    return np.linalg.matrix_power(m, k).astype(float)


# ------------------------------------------------------------------ holonomy

def holonomy_ops(p):
    return int(math.ceil(p["n_samples"] / p["n_bases"])) * p["n_bases"]


def check_holonomy(outdir, p, seed):
    """Every image equals lift(A^k u), k = floor(s0 + t), to 1e-6; tube ok."""
    from rflowlab.flows import get_flow, sample_points

    expected = holonomy_ops(p)
    problems = []
    try:
        rows = _read_csv(Path(outdir) / "holonomy_samples.csv")
    except OSError as exc:
        return Outcome(expected, expected, 0, [f"no samples: {exc}"])
    # the bases are the program's seeded inputs; only their heights matter
    bases = sample_points(get_flow("cat_suspension"), p["n_bases"], seed=seed)
    s0 = np.array([b.coords[2] for b in bases])
    good = 0
    for r in rows:
        try:
            b, t = int(r["base"]), float(r["t"])
            u = np.array([float(r["u1"]), float(r["u2"])])
            img = np.array([float(r["img_u1"]), float(r["img_u2"])])
            k = math.floor(s0[b] + t)
        except (KeyError, ValueError, IndexError) as exc:
            problems.append(f"unreadable sample row {r}: {exc}")
            continue
        want = _lift(_matrix_power(CAT, k) @ u)
        err = float(np.linalg.norm(img - want))
        if t not in p["t_choices"]:
            problems.append(f"sample {b}/{r['sample']}: t={t} not a choice")
        elif not err <= HOLONOMY_ATOL:
            problems.append(f"sample {b}/{r['sample']}: image off by {err:.3g}")
        elif r["tube_ok"] != "1":
            problems.append(f"sample {b}/{r['sample']}: tube violation")
        else:
            good += 1
    if len(rows) != expected:
        problems.append(f"{len(rows)} samples written, {expected} expected")
    failed = expected - min(good, expected)
    return Outcome(expected, failed, expected - failed, problems)


# -------------------------------------------------------------------- R-sets

def rset_ops(p):
    return 2 * p["n_points"]


def _grid(path, res):
    rows = _read_csv(path)
    if len(rows) != res * res:
        raise ValueError(f"{path.name}: {len(rows)} rows, {res * res} expected")
    u = np.array([[float(r["u"]), float(r["v"])] for r in rows]).reshape(res, res, 2)
    member = np.array([r["member"] == "1" for r in rows]).reshape(res, res)
    state = np.array([r["error_state"] for r in rows]).reshape(res, res)
    return u, member, state


def _center_component(member):
    """Face-adjacent component of the center cell (breadth-first search)."""
    res = member.shape[0]
    c = res // 2
    seen = np.zeros_like(member)
    if not member[c, c]:
        return seen
    seen[c, c] = True
    queue = deque([(c, c)])
    while queue:
        a, b = queue.popleft()
        for na, nb in ((a + 1, b), (a - 1, b), (a, b + 1), (a, b - 1)):
            if 0 <= na < res and 0 <= nb < res and member[na, nb] \
                    and not seen[na, nb]:
                seen[na, nb] = True
                queue.append((na, nb))
    return seen


def _check_cat_grid(u, member, state, direction, p):
    """Closed-form membership and gamma-sphere reach of one suspension grid.

    On the unit suspension ||X|| = 1 and each step of t = 1 crosses the
    gluing once, so the k-th holonomy image of u is lift(A^{+-k} u).
    """
    r = p["beta"] / CAT_L ** p["t"]
    flat = u.reshape(-1, 2)
    unorm = np.linalg.norm(flat, axis=-1)
    m = CAT if direction == "stable" else CAT_INV
    worst = np.zeros(len(flat))
    for k in range(1, p["n_max"] + 1):
        img = _lift(flat @ _matrix_power(m, k).T)
        worst = np.maximum(worst, np.linalg.norm(img, axis=-1))
    in_disk = unorm <= r
    want = in_disk & (worst <= r)
    decided = (np.abs(worst - r) > THRESHOLD_SKIP) \
        & (np.abs(unorm - r) > THRESHOLD_SKIP)
    problems = []
    got_disk = state.reshape(-1) != "outside_section"
    bad = decided & ((member.reshape(-1) != want) | (got_disk != in_disk))
    if np.any(bad):
        problems.append(f"{int(bad.sum())} cells disagree with lift(A^k u)")
    cw = _center_component(member)
    res = member.shape[0]
    gamma_r = p["gamma_factor"] * r
    band = np.abs(np.linalg.norm(u, axis=-1) - gamma_r) <= 2.0 * r / res
    if not np.any(band & cw):
        problems.append("center component misses the gamma-sphere")
    return problems, int(got_disk.sum())


def _check_singular_grid(u, member, state, direction, p):
    """The paper's collapse on the singular flow: the set is its center."""
    problems = []
    c = member.shape[0] // 2
    if not member[c, c] or int(member.sum()) != 1:
        problems.append(f"{int(member.sum())} members, center only expected")
    odd = set(np.unique(state)) - {"ok", "outside_section"}
    if odd:
        problems.append(f"error states {sorted(odd)}")
    return problems, int((state != "outside_section").sum())


def _check_rsets(grid_check):
    def check(outdir, p, seed):
        expected = rset_ops(p)
        failed, items, problems = 0, 0, []
        for i in range(p["n_points"]):
            for d in ("stable", "unstable"):
                path = Path(outdir) / f"rset_point{i:02d}_{d}.csv"
                try:
                    grid = _grid(path, p["resolution"])
                except (OSError, ValueError) as exc:
                    failed += 1
                    problems.append(str(exc))
                    continue
                bad, cells = grid_check(*grid, d, p)
                items += cells
                if bad:
                    failed += 1
                    problems.extend(f"{path.name}: {b}" for b in bad)
        return Outcome(expected, failed, items, problems)
    return check


# ------------------------------------------------------------------- entropy

def check_entropy(outdir, p, seed):
    """Counts monotone in t and 1/eps; refitted verdict near log(lambda+)."""
    problems = []
    eps_list, t_list = p["eps_list"], p["t_list"]
    counts = np.zeros((len(eps_list), len(t_list)), dtype=int)
    try:
        with open(Path(outdir) / "entropy_summary.json") as fh:
            summary = json.load(fh)
        for r in _read_csv(Path(outdir) / "entropy_counts.csv"):
            counts[eps_list.index(float(r["eps"])),
                   t_list.index(float(r["t"]))] = int(r["count"])
    except (OSError, KeyError, ValueError) as exc:
        return Outcome(1, 1, 0, [f"unreadable entropy report: {exc}"])
    n = math.prod(p["grid"])
    if np.any(np.diff(counts, axis=1) < 0):
        problems.append("counts decrease in t")
    if np.any(np.diff(counts, axis=0) < 0):
        problems.append("counts decrease in 1/eps")
    lo, hi = p["fit_window"]
    tt = np.array(t_list)
    sel = (tt >= lo - 1e-12) & (tt <= hi + 1e-12) & (counts[-1] < 0.8 * n)
    if sel.sum() < 3:
        problems.append("fewer than 3 unsaturated counts in the fit window")
        verdict = math.nan
    else:
        verdict = float(np.polyfit(tt[sel], np.log(counts[-1, sel]), 1)[0])
    if not VERDICT_RANGE[0] <= verdict <= VERDICT_RANGE[1]:
        problems.append(f"verdict {verdict:.4g} outside {VERDICT_RANGE} "
                        f"around log(lambda+) = {CAT_ENTROPY:.4f}")
    if not abs(verdict - summary.get("verdict", math.nan)) <= 1e-9:
        problems.append(f"reported verdict {summary.get('verdict')} is not "
                        f"the fit of the written counts ({verdict:.6g})")
    failed = 1 if problems else 0
    return Outcome(1, failed, 0 if failed else n, problems)


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="holonomy-suspension", flow="cat_suspension",
            command="holonomy",
            params={"beta": 0.1, "t_choices": [0.5, 1.0, 1.5, 2.0, 2.5, 3.0],
                    "n_samples": 96, "n_bases": 48, "domain_frac": 0.95,
                    "tol": 1e-9},
            ops=holonomy_ops, check=check_holonomy,
            rate=("holonomy_samples_per_s", "samples/s")),
        Workload(
            name="rset-suspension", flow="cat_suspension", command="rset",
            params={"beta": 0.1, "t": 1.0, "n_max": 4, "resolution": 101,
                    "n_points": 4, "direction": "both", "gamma_factor": 0.5,
                    "tol": 1e-9},
            ops=rset_ops, check=_check_rsets(_check_cat_grid),
            rate=("rset_cells_per_s", "cells/s")),
        Workload(
            name="rset-singular", flow="solid_torus", command="rset",
            params={"beta": 0.1, "t": 1.0, "n_max": 40, "resolution": 51,
                    "n_points": 20, "x_range": [0.1, 1.0], "direction": "both",
                    "tol": 1e-9},
            ops=rset_ops, check=_check_rsets(_check_singular_grid),
            rate=("rset_cells_per_s", "cells/s")),
        Workload(
            name="entropy-suspension", flow="cat_suspension",
            command="entropy",
            params={"grid": [20, 20, 8], "jitter": True, "eps_list": [0.25],
                    "t_list": [0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75],
                    "fit_window": [1.0, 1.75], "orbit_step": 0.05,
                    "tol": 1e-7},
            ops=lambda p: 1, check=check_entropy,
            rate=("entropy_points_per_s", "points/s")),
    )
}
