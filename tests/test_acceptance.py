"""Acceptance suite: every checkable claim at its stated tolerance.

Each criterion prints one PASS line (visible with ``pytest -s`` or in the
captured output). The shipped configs in configs/ drive most criteria, so
the suite exercises the CLI surface end to end; results of the single-
worker runs are shared across tests through a session fixture.
"""

import json
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from oracles import listing_diff, pinned_hashes, sha256
from rflowlab.cli import load_config, run
from rflowlab.flows import CAT_MATRIX, LAMBDA_MINUS, LAMBDA_PLUS, get_flow
from rflowlab.rsets import membership_predicate

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
ALL_CONFIGS = sorted(p.name for p in CONFIG_DIR.glob("*.json"))


def _report(num, name, detail):
    print(f"ACCEPTANCE {num:02d} {name}: PASS ({detail})")


@pytest.fixture(scope="session")
def runs(tmp_path_factory):
    """Single-worker run of every shipped config; returns paths and timings."""
    root = tmp_path_factory.mktemp("acceptance")
    out = {}
    for name in ALL_CONFIGS:
        cfg = load_config(CONFIG_DIR / name,
                          {"output_dir": str(root / name[:-5])})
        started = time.time()
        code = run(cfg)
        out[name] = {
            "dir": Path(cfg.output_dir),
            "code": code,
            "seconds": time.time() - started,
        }
        assert code == 0, f"{name} exited {code}"
    return out


def _summary(runs, config, filename):
    return json.loads((runs[config]["dir"] / filename).read_text())


def test_criterion_01_holonomy_oracle(runs):
    """Numerical holonomy matches the closed-form section map to 1e-6."""
    info = runs["holonomy_cat.json"]
    summary = _summary(runs, "holonomy_cat.json", "holonomy_summary.json")
    assert summary["n_samples"] >= 1000
    assert summary["sup_err"] <= 1e-6
    assert info["seconds"] < 30.0
    _report(1, "holonomy-oracle",
            f"sup_err={summary['sup_err']:.2e}, {info['seconds']:.1f}s")


def test_criterion_02_rescaled_tube(runs):
    """Zero tube violations among admissible samples, every flow."""
    total = 0
    for name in ("tube_cat.json", "tube_torus.json", "tube_rigid.json"):
        summary = _summary(runs, name, "holonomy_summary.json")
        assert summary["n_samples"] >= 1000, name
        assert summary["tube_violations"] == 0, name
        total += summary["n_samples"]
    _report(2, "rescaled-tube", f"{total} admissible samples, 0 violations")


def test_criterion_03_solid_torus_trivial_sets(runs):
    """Both local set grids reduce to the center cell at 20 regular points."""
    info = runs["rset_torus.json"]
    summary = _summary(runs, "rset_torus.json", "rset_summary.json")
    entries = summary["points"]
    assert len(entries) == 40  # 20 points x 2 directions
    assert summary["all_center_only"]
    truncations = Counter(str(e["truncation_reason"]) for e in entries)
    for e in entries:
        assert e["members"] == 1, e
    assert info["seconds"] < 300.0
    _report(3, "solid-torus-trivial-sets",
            f"40 grids center-only, truncation reasons "
            f"{dict(sorted(truncations.items()))}, {info['seconds']:.0f}s")


def test_criterion_04_expansiveness_characterization(runs):
    """Stable/unstable intersections: trivial on the expansive flows,
    a counterexample at every point of the rigid rotation."""
    for name in ("expansivity_cat.json", "expansivity_torus.json"):
        summary = _summary(runs, name, "expansivity.json")
        assert summary["overall"] == "consistent-with-R-expansive", name
        assert all(e["trivial_intersection"] for e in summary["points"])
    rigid = _summary(runs, "expansivity_rigid.json", "expansivity.json")
    assert rigid["overall"] == "counterexample-found"
    assert all(not e["trivial_intersection"] for e in rigid["points"])
    _report(4, "expansiveness-characterization",
            "cat+torus trivial at 20 points each; rigid witnesses at 20/20")


def test_criterion_05_stable_set_contraction():
    """Forward images of stable-set points contract by (3-sqrt5)/2 per step
    within 10 percent, n <= 6."""
    flow = get_flow("cat_suspension")
    _, vecs = np.linalg.eigh(CAT_MATRIX)
    e_minus = vecs[:, 0]
    beta, t, n_max = 0.1, 1.0, 16
    worst = 0.0
    for raw in ((0.31, 0.62, 0.47), (0.85, 0.15, 0.05), (0.5, 0.5, 0.93)):
        x = flow.manifold.wrap(raw)
        R = (beta / flow.rescale.L ** t) * 1.0
        radii = np.array([-0.9, -0.6, -0.3, 0.3, 0.6, 0.9]) * R
        coords = np.outer(radii, e_minus)
        fail, run_data = membership_predicate(flow, x, beta, t, n_max,
                                              "stable", coords, tol=1e-10,
                                              record_tracks=True)
        assert np.all(fail > n_max)
        diam_prev = 1.8 * R
        for k in range(6):
            _, pos = run_data.tracks[k]
            pts = pos[1:]
            dmat = flow.manifold.distance_array(pts[:, None, :],
                                                pts[None, :, :])
            diam = float(np.max(dmat))
            ratio = diam / diam_prev
            rel = abs(ratio - LAMBDA_MINUS) / LAMBDA_MINUS
            worst = max(worst, rel)
            assert rel <= 0.10, (raw, k, ratio)
            diam_prev = diam
    _report(5, "stable-set-contraction",
            f"per-step ratio vs {LAMBDA_MINUS:.5f}, worst rel err {worst:.3f}")


def test_criterion_06_sphere_reach_witness(runs):
    """Connected local sets meet the half-radius sphere in both directions
    at every sampled point of the suspension."""
    summary = _summary(runs, "rset_cat_sphere.json", "rset_summary.json")
    assert len(summary["points"]) == 40
    assert summary["sphere_reach_all"]
    assert all(e["sphere_reach"] for e in summary["points"])
    _report(6, "sphere-reach-witness", "40/40 grids reach the gamma sphere")


def test_criterion_07_uniform_expansiveness_horizon(runs):
    """First-separation horizon matches the top-eigenvalue prediction."""
    summary = _summary(runs, "uef_cat.json", "uef.json")
    expected = int(np.ceil(np.log(summary["beta"] / summary["eta"])
                           / np.log(LAMBDA_PLUS)))
    assert summary["N_eta"] is not None
    assert abs(summary["N_eta"] - expected) <= 1
    rigid = _summary(runs, "uef_rigid.json", "uef.json")
    assert rigid["N_eta"] is None and rigid["exhausted_pair"] is not None
    _report(7, "uniform-expansiveness",
            f"N_eta={summary['N_eta']} vs predicted {expected}; "
            "rigid rotation exhausts its budget")


def test_criterion_08_entropy_positive(runs):
    """Suspension entropy estimate lands in [0.77, 1.15]."""
    info = runs["entropy_cat.json"]
    summary = _summary(runs, "entropy_cat.json", "entropy_summary.json")
    assert 0.77 <= summary["verdict"] <= 1.15
    assert summary["monotone_in_t"] and summary["monotone_in_eps"]
    assert info["seconds"] < 300.0
    _report(8, "entropy-positive",
            f"verdict={summary['verdict']:.4f} "
            f"(oracle {np.log(LAMBDA_PLUS):.4f}), {info['seconds']:.0f}s")


def test_criterion_09_entropy_zero_controls(runs):
    rigid = _summary(runs, "entropy_rigid.json", "entropy_summary.json")
    torus = _summary(runs, "entropy_torus.json", "entropy_summary.json")
    assert abs(rigid["verdict"]) <= 0.02
    assert torus["verdict"] <= 0.05
    _report(9, "entropy-zero-controls",
            f"rigid={rigid['verdict']:.2e}, torus={torus['verdict']:.4f}")


def test_config_outputs_match_the_pinned_hashes(runs):
    """Every file the single-worker runs wrote, ``manifest.json`` left out
    (it records wall time), has the SHA-256 that ``configs/HASHES.txt``
    lists; on a mismatch the message shows the changed lines. A change that
    moves bytes regenerates the file with ``scripts/config_hashes.py`` and
    explains each changed line in CHANGES.md.

    The listing's header names the Python and numpy versions it was made
    with. Under other versions the test compares all the same and fails on
    any moved byte, with both versions named in its message: outputs that
    move with the toolchain are changed numbers too, and are regenerated
    and explained the same way.
    """
    pinned, note = pinned_hashes()
    pinned = {k: v for k, v in pinned.items() if not k.startswith("demos/")}
    got = {f"{name[:-5]}/{path.relative_to(info['dir'])}":
           sha256(path.read_bytes())
           for name, info in runs.items()
           for path in sorted(info["dir"].rglob("*"))
           if path.is_file() and path.name != "manifest.json"}
    assert got == pinned, note + listing_diff(pinned, got)


def test_criterion_10_determinism_across_workers(runs, tmp_path_factory):
    """Byte-identical CSVs for every shipped config at 1, 2, and 8 workers."""
    root = tmp_path_factory.mktemp("determinism")
    compared = 0
    for name in ALL_CONFIGS:
        base_dir = runs[name]["dir"]
        base = {p.relative_to(base_dir): p.read_bytes()
                for p in sorted(base_dir.rglob("*.csv"))}
        for workers in (2, 8):
            cfg = load_config(CONFIG_DIR / name, {
                "output_dir": str(root / f"{name[:-5]}_w{workers}"),
                "workers": workers,
            })
            assert run(cfg) == 0
            out_dir = Path(cfg.output_dir)
            got = {p.relative_to(out_dir): p.read_bytes()
                   for p in sorted(out_dir.rglob("*.csv"))}
            assert got == base, (name, workers)
            compared += len(got)
    _report(10, "determinism", f"{compared} CSVs byte-identical at 1/2/8 workers")
