"""CLI plumbing: config loading, validation exit codes, file outputs,
determinism across worker counts (small scale)."""

import ast
import csv
import json
import math
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rflowlab import cli, rsets, sections
from rflowlab.cli import (CHECKS, COMMANDS, DEFAULTS, ExperimentConfig,
                          load_config, main, resolved_params, run, validate)
from rflowlab.errors import LeftTube, NoCrossing, Timeout
from rflowlab.flows import FLOW_NAMES, get_flow, sample_points

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _write_config(tmp_path, payload):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return path


def test_validate_rejects_bad_flow():
    cfg = ExperimentConfig(flow="nope", command="rset")
    assert validate(cfg)


def test_validate_rejects_even_resolution():
    cfg = ExperimentConfig(flow="cat_suspension", command="rset",
                           params={"resolution": 100})
    assert any("odd" in msg for msg in validate(cfg))


def test_validate_rejects_beta_above_cap():
    cfg = ExperimentConfig(flow="cat_suspension", command="rset",
                           params={"beta": 0.4})
    assert any("beta0" in msg for msg in validate(cfg))


def test_exit_code_2_on_bad_config(tmp_path):
    path = _write_config(tmp_path, {"flow": "bogus", "command": "rset",
                                    "output_dir": str(tmp_path / "o")})
    assert main(["rset", "--config", str(path)]) == 2


def test_unknown_param_key_exits_2(tmp_path, capsys):
    code = main(["holonomy", "--config", str(CONFIGS / "holonomy_cat.json"),
                 "--output-dir", str(tmp_path / "o"),
                 "--param", "n_samples=4", "--param", "n_bases=2",
                 "--param", "n_sample=5"])
    assert code == 2
    assert "n_sample" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("config, override", [
    ("rset_torus.json", "direction=sideways"),
    ("rset_torus.json", "resolution=abc"),
    ("entropy_cat.json", "eps_list=0.2"),
    ("rset_torus.json", "resolution=101.5"),
    ("rset_torus.json", "n_max=null"),
    ("rset_torus.json", "t=null"),
    ("entropy_cat.json", "grid=[30.5, 30, 8]"),
    ("entropy_cat.json", "orbit_step=null"),
    ("uef_cat.json", "n_directions=2.5"),
    ("holonomy_cat.json", "n_bases=0"),
    ("holonomy_cat.json", "n_bases=-2"),
    ("holonomy_cat.json", "beta=null"),
    ("tube_torus.json", "t_choices=[]"),
    ("tube_torus.json", "t_choices=null"),
    ("holonomy_cat.json", "t=300"),
    ("tube_torus.json", "t_choices=[1, 300]"),
    ("holonomy_cat.json", "t=199.99"),
    ("tube_torus.json", "t_choices=[1, 199.95]"),
    ("holonomy_cat.json", "t=0.1"),
    ("tube_cat.json", "t_choices=[0.25, 1.0]"),
    ("expansivity_cat.json", "t=0.4"),
    ("uef_cat.json", "tol=-1"),
    ("uef_cat.json", "tol=NaN"),
    ("entropy_rigid.json", "orbit_step=0"),
    ("entropy_rigid.json", "orbit_step=-0.05"),
    ("entropy_rigid.json", "fit_window=[1]"),
    ("uef_cat.json", "n_directions=0"),
    ("uef_cat.json", "n_directions=-3"),
    ("holonomy_cat.json", "domain_frac=5"),
    ("entropy_cat.json", 'jitter="false"'),
    ("entropy_cat.json", "jitter=null"),
    ("rset_torus.json", "x_range=[1]"),
    ("rset_torus.json", "disk_radius_max=2"),
    ("entropy_cat.json", "grid=[4, 4]"),
    ("entropy_rigid.json", "eps_list=[]"),
    ("entropy_rigid.json", "t_list=[]"),
    ("rset_cat_sphere.json", "resolution=1"),
    ("rset_cat_sphere.json", "gamma_factor=5"),
    ("entropy_torus.json", "grid=[4, 4, 4]"),
    ("uef_cat.json", "x_range=[0.1, 0.2]"),
    ("uef_cat.json", "disk_radius_max=0.01"),
    ("holonomy_cat.json", "x_range=[0.5, 1.5]"),
    ("rset_cat_sphere.json", "disk_radius_max=0.5"),
    ("expansivity_cat.json", "x_range=[0, 2]"),
    ("entropy_cat.json", "disk_radius_max=0.3"),
    ("entropy_rigid.json", "jitter=false"),
    ("entropy_torus.json", "jitter=false"),
    ("tube_cat.json", "t=1.0"),
    ("holonomy_cat.json", "t_choices=[0.5, 1.0]"),
    ("entropy_cat.json", "count=10"),
    ("entropy_rigid.json", "fit_window=[100, 200]"),
])
def test_bad_param_value_exits_2(tmp_path, capsys, config, override):
    key, _, value = override.partition("=")
    command = json.loads((CONFIGS / config).read_text())["command"]
    code = main([command, "--config", str(CONFIGS / config),
                 "--output-dir", str(tmp_path / "o"), "--param", override])
    assert code == 2
    err = capsys.readouterr().err
    assert key in err and value in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("payload, flags, named", [
    ({"seed": "abc"}, [], "seed"),
    ({"seed": 1.5}, [], "seed"),
    ({}, ["--seed", "-1"], "seed"),
    ({"workers": 1.7}, [], "workers"),
    ({"workers": 0}, [], "workers"),
    ({"params": [1, 2]}, [], "params"),
])
def test_bad_config_field_exits_2(tmp_path, capsys, payload, flags, named):
    base = json.loads((CONFIGS / "uef_rigid.json").read_text())
    path = _write_config(tmp_path, {**base, **payload,
                                    "output_dir": str(tmp_path / "o")})
    assert main(["uef", "--config", str(path), *flags]) == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_config_file_that_is_not_an_object_exits_2(tmp_path, capsys):
    path = _write_config(tmp_path, [1, 2])
    assert main(["uef", "--config", str(path),
                 "--output-dir", str(tmp_path / "o")]) == 2
    assert "JSON object" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_unknown_config_key_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)   # where a misspelt output_dir would write
    base = json.loads((CONFIGS / "uef_rigid.json").read_text())
    del base["output_dir"]
    path = _write_config(tmp_path, {**base, "output_dri": "o", "sed": 5,
                                    "wokers": 2})
    assert main(["uef", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert all(key in err for key in ("output_dri", "sed", "wokers"))
    assert not (tmp_path / "o").exists() and not (tmp_path / "out").exists()


def test_holonomy_needs_a_time_exits_2(tmp_path, capsys):
    path = _write_config(tmp_path, {
        "flow": "cat_suspension", "command": "holonomy",
        "params": {"beta": 0.1, "n_samples": 4, "n_bases": 2},
        "output_dir": str(tmp_path / "o")})
    assert main(["holonomy", "--config", str(path)]) == 2
    assert "t_choices" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("config, nulls", [
    ("tube_torus.json", ("t",)),
    ("holonomy_cat.json", ("t_choices", "x_range", "disk_radius_max")),
    ("rset_torus.json", ("gamma_factor", "x_range")),
    ("entropy_cat.json", ("grid", "fit_window")),
])
def test_null_is_kept_where_it_means_the_default(config, nulls):
    cfg = load_config(CONFIGS / config, {"params": dict.fromkeys(nulls)})
    assert validate(cfg) == []


# a small valid run of each command
TINY = {
    "holonomy": ("cat_suspension", {"t": 1.0, "n_samples": 2, "n_bases": 1}),
    "rset": ("cat_suspension", {"n_max": 2, "resolution": 5, "n_points": 1,
                                "gamma_factor": 0.5}),
    "expansivity": ("rigid_rotation", {"n_max": 2, "resolution": 5,
                                       "n_points": 1}),
    "entropy": ("rigid_rotation", {"count": 150, "eps_list": [0.2],
                                   "t_list": [0.0, 1.0, 2.0]}),
    "uef": ("rigid_rotation", {"eta": 0.01, "horizon_budget": 2,
                               "n_points": 1, "n_directions": 2}),
}


def _tiny(command, **params):
    flow, base = TINY[command]
    return ExperimentConfig(flow=flow, command=command,
                            params={**base, **params})


def test_table_has_one_check_per_key_and_defaults_pass_it():
    assert set(CHECKS) == {k for keys in DEFAULTS.values() for k in keys}
    for command, defaults in DEFAULTS.items():
        for key, default in defaults.items():
            assert default is None or CHECKS[key][0](default), (command, key)


@pytest.mark.parametrize("command", sorted(TINY))
def test_null_is_allowed_exactly_where_the_default_is_none(command):
    assert validate(_tiny(command)) == []
    for key, default in DEFAULTS[command].items():
        problems = validate(_tiny(command, **{key: None}))
        assert any(msg.startswith(f"{key} must be") for msg in problems) \
            == (default is not None), (key, problems)


class _Recording(dict):
    """A mapping that records which keys are read."""

    def __init__(self, items):
        super().__init__(items)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


@pytest.mark.parametrize("command", sorted(TINY))
def test_every_table_key_is_read_by_its_command(tmp_path, command):
    cfg = _tiny(command)
    params = _Recording(resolved_params(cfg))
    cli._EXPERIMENTS[command](cfg, params, tmp_path)
    assert params.read == set(DEFAULTS[command])


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8)
# values near the kinds the table asks for, so the cross-key checks run too
_VALUE = (_JSON | st.floats(-1, 3) | st.integers(-2, 120)
          | st.lists(st.floats(-1, 9) | st.integers(-1, 50), max_size=4))


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_validate_returns_a_list_for_any_json_params(data):
    command = data.draw(st.sampled_from(COMMANDS))
    keys = st.sampled_from(sorted(DEFAULTS[command]) + ["not_a_param"])
    cfg = ExperimentConfig(
        flow=data.draw(st.sampled_from(FLOW_NAMES)), command=command,
        params=data.draw(st.dictionaries(keys, _VALUE, max_size=6)),
        seed=data.draw(_VALUE), workers=data.draw(st.just(1) | _VALUE))
    problems = validate(cfg)
    assert isinstance(problems, list)
    assert all(isinstance(msg, str) for msg in problems)


def test_help_lists_each_param_with_its_default(capsys):
    with pytest.raises(SystemExit):
        main(["expansivity", "--help"])
    out = capsys.readouterr().out
    for key, default in DEFAULTS["expansivity"].items():
        assert f"{key} = {json.dumps(default)}" in out


def test_shipped_configs_validate():
    paths = sorted(CONFIGS.glob("*.json"))
    assert paths
    for path in paths:
        assert validate(load_config(path)) == [], path.name


def test_exit_code_3_on_computation_error(tmp_path):
    # eta above beta * A but below beta * max||X||: rejected inside the scan
    cfg = ExperimentConfig(
        flow="solid_torus", command="uef",
        params={"eta": 0.09, "beta": 0.1, "t": 1.0, "horizon_budget": 3,
                "n_points": 4, "n_directions": 4, "x_range": [0.3, 1.9]},
        output_dir=str(tmp_path / "uef_bad"), seed=3)
    code = run(cfg)
    assert code == 3
    manifest = json.loads((tmp_path / "uef_bad" / "manifest.json").read_text())
    assert manifest["status"] == "computation-error"


def _holonomy_samples(outdir):
    """(base, sample, t, u) of each row of a holonomy run's samples CSV."""
    with open(outdir / "holonomy_samples.csv", newline="") as fh:
        return [(int(r["base"]), int(r["sample"]), float(r["t"]),
                 np.array([float(r["u1"]), float(r["u2"])]))
                for r in csv.DictReader(fh)]


@pytest.mark.parametrize("error", [
    lambda: NoCrossing("no section crossing in window [0.9, 1.1]"),
    lambda: LeftTube("crossing at t=1.05 lies off the section",
                     hit_time=1.05, offset=0.2)])
def test_holonomy_error_names_the_failing_sample(tmp_path, monkeypatch, error):
    """A sample's computation error keeps its type and attributes, and the
    manifest names its base, sample and t: the first failing sample in
    (base, sample) order, at any worker count, also when its t group runs
    after another failing sample's, or when a shared tube batch fails."""
    real, calls = cli.holonomy, []

    def fourth_fails(*args, **kwargs):     # base 1, sample 1 at one worker
        calls.append(args)
        if len(calls) == 4:
            raise error()
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "holonomy", fourth_fails)
    cfg = ExperimentConfig(
        flow="cat_suspension", command="holonomy",
        params={"beta": 0.1, "t": 1.0, "n_samples": 4, "n_bases": 2},
        output_dir=str(tmp_path / "hol"), seed=5, workers=1)
    assert run(cfg) == 3
    manifest = json.loads((tmp_path / "hol" / "manifest.json").read_text())
    assert manifest["status"] == "computation-error"
    want = error()
    assert manifest["error"] == (f"{type(want).__name__}: base 1 sample 1 "
                                 f"(t=1): {want}")
    calls.clear()
    with pytest.raises(type(want)) as exc:
        cli._run_holonomy(cfg, resolved_params(cfg), tmp_path / "hol")
    assert vars(exc.value) == vars(want)

    # The first t group runs first. Its last sample fails, and so does the
    # first sample of another t group, which comes earlier in (base,
    # sample) order but runs later.
    params = {"beta": 0.1, "t_choices": [0.5, 1.0, 1.5], "n_samples": 12,
              "n_bases": 4}
    monkeypatch.setattr(cli, "holonomy", real)
    assert run(ExperimentConfig(flow="cat_suspension", command="holonomy",
                                params=params, output_dir=str(tmp_path / "ok"),
                                seed=5)) == 0
    samples = _holonomy_samples(tmp_path / "ok")
    first_t = samples[0][2]
    late = max(i for i, smp in enumerate(samples) if smp[2] == first_t)
    early = min(i for i, smp in enumerate(samples) if smp[2] != first_t)
    assert early < late
    failed = []

    def fails_at(*failing):
        def spy(flow, sec, t, y, *args, **kwargs):
            for i in failing:
                _, _, t_i, u = samples[i]
                if t == t_i and np.array_equal(
                        cli.section_point(flow, sec, u).coords, y.coords):
                    failed.append(i)
                    raise error()
            return real(flow, sec, t, y, *args, **kwargs)
        return spy

    def named(i, exc):
        b, s, t, _ = samples[i]
        return f"{type(exc).__name__}: base {b} sample {s} (t={t:.6g}): {exc}"

    real_batch = sections.orbit_batch

    def timeout_at_early_t(f, coords, times, *args, **kwargs):
        if times[-1] == samples[early][2]:
            raise Timeout("step budget exhausted")
        return real_batch(f, coords, times, *args, **kwargs)

    for workers in (1, 2):
        cfg = ExperimentConfig(flow="cat_suspension", command="holonomy",
                               params=params, seed=5, workers=workers,
                               output_dir=str(tmp_path / f"w{workers}"))
        failed.clear()
        monkeypatch.setattr(cli, "holonomy", fails_at(early, late))
        assert run(cfg) == 3
        if workers == 1:
            assert failed == [late, early]
        manifest = json.loads((Path(cfg.output_dir) / "manifest.json").read_text())
        assert manifest["error"] == named(early, error())
        # a tube batch's error is each of its samples': early names it
        monkeypatch.setattr(cli, "holonomy", fails_at(late))
        monkeypatch.setattr(sections, "orbit_batch", timeout_at_early_t)
        assert run(cfg) == 3
        monkeypatch.setattr(sections, "orbit_batch", real_batch)
        manifest = json.loads((Path(cfg.output_dir) / "manifest.json").read_text())
        assert manifest["error"] == named(early, Timeout("step budget exhausted"))


@pytest.mark.parametrize("flow, params, n_calls", [
    ("cat_suspension", {"t_choices": [0.5, 1.0, 1.5], "n_samples": 12,
                        "n_bases": 4}, 3),
    ("rigid_rotation", {"t": 0.5, "n_samples": 300, "n_bases": 3}, 2)],
    ids=["t_choices", "over_one_chunk"])
def test_holonomy_runs_one_tube_batch_per_t_chunk(tmp_path, monkeypatch,
                                                  flow, params, n_calls):
    """The holonomy command's tube checks run as one ``orbit_batch`` per
    chunk of at most ``TUBE_CHUNK`` samples that share t, across bases:
    two rows (base and point) per sample, and no more calls than chunks.
    The fixed-t run's 300 samples fill more than one chunk."""
    real, rows = sections.orbit_batch, []

    def spy(f, coords, *args, **kwargs):
        rows.append(len(coords))
        return real(f, coords, *args, **kwargs)

    monkeypatch.setattr(sections, "orbit_batch", spy)
    cfg = ExperimentConfig(flow=flow, command="holonomy",
                           params={"beta": 0.1, **params},
                           output_dir=str(tmp_path / "hol"), seed=5)
    assert run(cfg) == 0
    samples = _holonomy_samples(tmp_path / "hol")
    groups = Counter(t for _, _, t, _ in samples).values()
    assert len(rows) == sum(math.ceil(n / cli.TUBE_CHUNK) for n in groups)
    assert len(rows) == n_calls
    assert sum(rows) == 2 * len(samples)
    assert max(rows) <= 2 * cli.TUBE_CHUNK


# command -> (flow, params) of a small run whose grids fail by injection
_GRID_RUNS = {
    "rset": ("solid_torus", {"beta": 0.1, "t": 1.0, "n_max": 40,
                             "resolution": 5, "n_points": 4,
                             "x_range": [0.1, 1.0]}),
    "expansivity": ("solid_torus", {"beta": 0.1, "t": 1.0, "n_max": 40,
                                    "resolution": 5, "n_points": 4,
                                    "x_range": [0.1, 1.0]}),
    "uef": ("cat_suspension", {"eta": 0.01, "beta": 0.1, "t": 1.0,
                               "horizon_budget": 10, "n_points": 4,
                               "n_directions": 8}),
}


@pytest.mark.parametrize("command", sorted(_GRID_RUNS))
@pytest.mark.parametrize("error", [
    lambda: NoCrossing("no section crossing in window [0.9, 1.1]"),
    lambda: LeftTube("crossing at t=1.05 lies off the section",
                     hit_time=1.05, offset=0.2)])
def test_grid_error_names_the_first_failing_grid(tmp_path, monkeypatch,
                                                 command, error):
    """A grid's computation error keeps its type and attributes, and the
    manifest names its point and direction: the first failing grid in
    (point, direction) order, at any worker count. Point 3's grids fail at
    their first step in both directions; point 1's unstable grid fails at
    its fourth, after point 3's has failed in the same march."""
    flow_name, params = _GRID_RUNS[command]
    flow = get_flow(flow_name)
    pts = sample_points(flow, 4, seed=5, x_range=params.get("x_range"))
    _, chain = rsets.membership_predicate(
        flow, pts[1], 0.1, 1.0, 10, "unstable", np.zeros((0, 2)),
        record_tracks=True)
    assert chain.horizon >= 4
    # (base of the failing grid as the failing step starts, step sign)
    failing = [(pts[3].coords, 1.0), (pts[3].coords, -1.0),
               (chain.tracks[2][1][0], -1.0)]
    real = rsets.orbit_batch

    def spy(f, coords, times, *args, **kwargs):
        for base, sign in failing:
            if np.sign(times[-1]) == sign and np.any(np.all(
                    np.abs(coords - base) <= 1e-12, axis=1)):
                raise error()
        return real(f, coords, times, *args, **kwargs)

    monkeypatch.setattr(rsets, "orbit_batch", spy)
    want = error()
    for workers in (1, 2):
        cfg = ExperimentConfig(flow=flow_name, command=command, params=params,
                               seed=5, workers=workers,
                               output_dir=str(tmp_path / f"w{workers}"))
        assert run(cfg) == 3
        manifest = json.loads((Path(cfg.output_dir) / "manifest.json")
                              .read_text())
        assert manifest["error"] == (f"{type(want).__name__}: point 1 "
                                     f"unstable: {want}")
    with pytest.raises(type(want)) as exc:
        cli._EXPERIMENTS[command](cfg, resolved_params(cfg), tmp_path / "w2")
    assert vars(exc.value) == vars(want)


@pytest.mark.parametrize("flow_name, params", [
    ("solid_torus", {"n_max": 40, "resolution": 11, "x_range": [0.1, 1.0]}),
    ("cat_suspension", {"n_max": 4, "resolution": 21})],
    ids=["tails", "pool_at_cap"])
def test_rset_grids_share_tail_calls(tmp_path, monkeypatch, flow_name,
                                     params):
    """The rset command marches the grids of a direction together, so the
    tails of its grids share ``orbit_batch`` calls: fewer calls than the
    grids marched one by one, exactly their rows, and no call above cap,
    the most cells any grid is given. On the solid torus every grid's
    cells but a few fail within its first steps; on the suspension they
    fail over several, and the pool's rows reach cap."""
    params = {"beta": 0.1, "t": 1.0, "n_points": 4, **params}
    real, rows = rsets.orbit_batch, []

    def spy(f, coords, *args, **kwargs):
        rows.append(len(coords))
        return real(f, coords, *args, **kwargs)

    monkeypatch.setattr(rsets, "orbit_batch", spy)
    cfg = ExperimentConfig(flow=flow_name, command="rset", params=params,
                           output_dir=str(tmp_path / "rset"), seed=5)
    assert run(cfg) == 0
    shared = list(rows)
    rows.clear()
    flow, cap = get_flow(flow_name), 0
    for x in sample_points(flow, 4, seed=5, x_range=params.get("x_range")):
        for direction in ("stable", "unstable"):
            g = rsets.compute_rset(flow, x, 0.1, 1.0, params["n_max"],
                                   params["resolution"], direction)
            cap = max(cap, np.count_nonzero(
                g.error_state != rsets.CELL_OUTSIDE_SECTION))
    assert len(shared) < len(rows)
    assert sum(shared) == sum(rows)
    assert max(shared) <= cap


def test_holonomy_run_outputs(tmp_path):
    cfg = ExperimentConfig(
        flow="cat_suspension", command="holonomy",
        params={"beta": 0.1, "t": 1.0, "n_samples": 40, "n_bases": 4},
        output_dir=str(tmp_path / "hol"), seed=5)
    assert run(cfg) == 0
    out = tmp_path / "hol"
    summary = json.loads((out / "holonomy_summary.json").read_text())
    assert summary["sup_err"] < 1e-6
    assert summary["tube_violations"] == 0
    assert (out / "holonomy_samples.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "ok"
    assert "holonomy_samples.csv" in manifest["outputs"]
    assert manifest["params"] == {**DEFAULTS["holonomy"], **cfg.params}


def test_rset_run_outputs(tmp_path):
    cfg = ExperimentConfig(
        flow="solid_torus", command="rset",
        params={"beta": 0.1, "t": 1.0, "n_max": 20, "resolution": 21,
                "n_points": 2, "x_range": [0.1, 1.0]},
        output_dir=str(tmp_path / "rs"), seed=6)
    assert run(cfg) == 0
    summary = json.loads((tmp_path / "rs" / "rset_summary.json").read_text())
    assert summary["all_center_only"]
    grids = list((tmp_path / "rs").glob("rset_point*.csv"))
    assert len(grids) == 4  # 2 points x 2 directions
    header = grids[0].read_text().splitlines()[0]
    assert header == "i,j,u,v,member,component,error_state"


def test_uef_budget_exhausted_is_reported_not_crashed(tmp_path):
    cfg = ExperimentConfig(
        flow="rigid_rotation", command="uef",
        params={"eta": 0.01, "beta": 0.1, "t": 1.0, "horizon_budget": 4,
                "n_points": 1, "n_directions": 4},
        output_dir=str(tmp_path / "uef"), seed=8)
    assert run(cfg) == 0
    rep = json.loads((tmp_path / "uef" / "uef.json").read_text())
    assert rep["N_eta"] is None
    assert rep["exhausted_pair"] is not None


def test_demo_runs(tmp_path):
    cfg = ExperimentConfig(flow="cat_suspension", command="demo", params={},
                           output_dir=str(tmp_path / "demo"), seed=1)
    assert run(cfg) == 0
    summary = json.loads((tmp_path / "demo" / "demo_summary.json").read_text())
    assert set(summary) == {"holonomy", "rset", "expansivity", "entropy", "uef"}


def test_worker_count_does_not_change_bytes(tmp_path):
    outputs = {}
    for workers in (1, 2):
        out = tmp_path / f"w{workers}"
        cfg = ExperimentConfig(
            flow="solid_torus", command="rset",
            params={"beta": 0.1, "t": 1.0, "n_max": 10, "resolution": 21,
                    "n_points": 3, "x_range": [0.1, 1.0]},
            output_dir=str(out), seed=9, workers=workers)
        assert run(cfg) == 0
        outputs[workers] = {p.name: p.read_bytes()
                            for p in sorted(out.glob("*.csv"))}
    assert outputs[1] == outputs[2]


def test_cli_main_with_config_and_overrides(tmp_path):
    path = _write_config(tmp_path, {
        "flow": "rigid_rotation", "command": "entropy",
        "params": {"count": 200, "eps_list": [0.2], "t_list": [0.0, 1.0, 2.0],
                   "orbit_step": 0.05},
        "output_dir": str(tmp_path / "ent"), "seed": 12})
    code = main(["entropy", "--config", str(path),
                 "--output-dir", str(tmp_path / "ent2"),
                 "--param", "count=150"])
    assert code == 0
    summary = json.loads((tmp_path / "ent2" / "entropy_summary.json").read_text())
    assert summary["sample_spec"]["count"] == 150
    assert abs(summary["verdict"]) < 0.02


def test_load_config_roundtrip(tmp_path):
    path = _write_config(tmp_path, {"flow": "cat_suspension",
                                    "command": "rset",
                                    "params": {"beta": 0.1},
                                    "seed": 44, "workers": 2})
    cfg = load_config(path)
    assert cfg.flow == "cat_suspension" and cfg.workers == 2
    assert cfg.params["beta"] == 0.1


def _probe(code):
    """Last line printed by ``code`` run in a fresh interpreter."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    return out.stdout.strip().splitlines()[-1]


def test_import_does_not_load_scipy():
    assert _probe("import sys, rflowlab, rflowlab.cli; "
                  "print('scipy' in sys.modules)") == "False"


def test_no_command_loads_scipy(tmp_path):
    """No command needs scipy: importing scipy.ndimage or scipy.spatial
    after rflowlab.cli raises resident memory from 31 to 55 or 65 MiB, far
    past the 10 % peak-memory bound of every benchmark workload."""
    runs = [{"flow": TINY[c][0], "command": c, "params": TINY[c][1],
             "output_dir": str(tmp_path / c)} for c in sorted(TINY)]
    runs.append({"flow": "rigid_rotation", "command": "demo",
                 "output_dir": str(tmp_path / "demo")})
    assert {r["command"] for r in runs} == set(COMMANDS)
    code = ("import json, sys\n"
            "from rflowlab.cli import ExperimentConfig, run\n"
            f"runs = json.loads({json.dumps(runs)!r})\n"
            "print([run(ExperimentConfig(**c)) for c in runs], "
            "'scipy' in sys.modules)")
    assert _probe(code) == f"{[0] * len(runs)} False"


def test_no_module_imports_scipy():
    src = Path(cli.__file__).resolve().parent
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [(path.name, n) for n in names
                      if n.split(".")[0] == "scipy"]
    assert found == []


def test_numpy_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text())["project"]

    def names(reqs):
        return {re.match(r"[A-Za-z0-9_.-]+", r).group().lower() for r in reqs}

    assert names(project["dependencies"]) == {"numpy"}
    assert "scipy" in names(project["optional-dependencies"]["test"])


def test_config_hashes_rejects_unknown_names_before_running():
    """A NAME that is neither a config's nor a demo's stem exits 2 with one
    line naming it, before any run: the known name before it prints no
    timing line."""
    script = CONFIGS.parent / "scripts" / "config_hashes.py"
    done = subprocess.run([sys.executable, str(script), "tube_cat", "tube_tours"],
                          capture_output=True, text=True)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.splitlines() == [
        "config_hashes: no config or demo named tube_tours"]
