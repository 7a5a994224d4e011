"""Run shipped configs and demos and print the SHA-256 of what they write.

Usage::

    python scripts/config_hashes.py [NAME ...] [--workers N] [--out DIR]
                                    [--repo DIR]

NAME is a config's file stem (``tube_cat``) or a demo's file stem
(``03_local_rsets``); with no NAME, every ``configs/*.json`` and every
``demos/*.py`` runs. Each config runs through ``rflowlab.cli.run`` at the
given worker count, with its output directory moved to ``DIR/<config>``
(a fresh temporary directory by default), and lists one
``<config>/<file> <sha256>`` line per file; ``manifest.json`` is left out
because it records wall time. Each demo runs in a fresh interpreter, in
an empty working directory under ``DIR``, and lists one
``demos/<stem>/stdout <sha256>`` line for its standard output. The
listing is sorted, after one header line naming the Python and numpy
versions that made it, so with no NAME it is ``configs/HASHES.txt``::

    python scripts/config_hashes.py > configs/HASHES.txt

``--repo`` names the checkout whose ``src``,
``configs`` and ``demos`` are used (default: the one holding this
script), so two commits compare with one ``diff`` of two listings. The
wall time of each run goes to standard error as one ``<name> <seconds>``
line, so the listing itself stays the same from run to run.

The exit status is 1 when any config or demo does not exit 0, and 2,
before anything runs, when a NAME is neither a config's nor a demo's stem.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run_config(repo, name, outdir, workers):
    from rflowlab.cli import load_config, run

    config = load_config(repo / "configs" / f"{name}.json",
                         {"output_dir": str(outdir), "workers": workers})
    code = run(config)
    lines = [f"{name}/{path.relative_to(outdir)} {_sha256(path.read_bytes())}"
             for path in sorted(outdir.rglob("*"))
             if path.is_file() and path.name != "manifest.json"]
    return code, lines


def _run_demo(repo, name, workdir):
    workdir.mkdir(parents=True)
    done = subprocess.run([sys.executable, str(repo / "demos" / f"{name}.py")],
                          cwd=workdir, capture_output=True,
                          env={**os.environ, "PYTHONPATH": str(repo / "src")})
    sys.stderr.write(done.stderr.decode(errors="replace"))
    return done.returncode, [f"demos/{name}/stdout {_sha256(done.stdout)}"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", metavar="NAME")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--repo", type=Path,
                        default=Path(__file__).resolve().parents[1])
    args = parser.parse_args(argv)

    repo = args.repo.resolve()
    sys.path.insert(0, str(repo / "src"))
    configs = sorted(p.stem for p in (repo / "configs").glob("*.json"))
    demos = sorted(p.stem for p in (repo / "demos").glob("*.py"))
    unknown = [name for name in args.names if name not in configs + demos]
    if unknown:
        print(f"config_hashes: no config or demo named {' '.join(unknown)}",
              file=sys.stderr)
        return 2
    names = args.names or configs + demos
    out = args.out or Path(tempfile.mkdtemp(prefix="config_hashes_"))
    lines, failed = [], []
    for name in names:
        start = time.perf_counter()
        if name in demos:
            code, listed = _run_demo(repo, name, out / "demos" / name)
        else:
            code, listed = _run_config(repo, name, out / name, args.workers)
        print(f"{name} {time.perf_counter() - start:.2f}", file=sys.stderr,
              flush=True)
        if code != 0:
            failed.append(f"{name} exited {code}")
        lines += listed
    header = f"# python {sys.version.split()[0]} numpy {np.__version__}"
    print("\n".join([header] + sorted(lines)))
    for msg in failed:
        print(f"config_hashes: {msg}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
