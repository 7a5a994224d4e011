"""Run shipped configs and print the SHA-256 of every output file.

Usage::

    python scripts/config_hashes.py [NAME ...] [--workers N] [--out DIR]
                                    [--repo DIR]

NAME is a config's file stem (``tube_cat``) and defaults to every
``configs/*.json``. Each config runs through ``rflowlab.cli.run`` at the
given worker count, with its output directory moved to ``DIR/<config>``
(a fresh temporary directory by default). The output is one sorted
``<config>/<file> <sha256>`` line per file; ``manifest.json`` is left out
because it records wall time. ``--repo`` names the checkout whose ``src``
and ``configs`` are used (default: the one holding this script), so two
commits compare with one ``diff`` of two listings. The wall time of each
config's ``run`` call goes to standard error as one ``<config> <seconds>``
line, so the listing itself stays the same from run to run.

The exit status is 1 when any config does not exit 0.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
import time
from pathlib import Path


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
    from rflowlab.cli import load_config, run

    names = args.names or sorted(p.stem for p in (repo / "configs").glob("*.json"))
    out = args.out or Path(tempfile.mkdtemp(prefix="config_hashes_"))
    lines, failed = [], []
    for name in names:
        outdir = out / name
        config = load_config(repo / "configs" / f"{name}.json",
                             {"output_dir": str(outdir),
                              "workers": args.workers})
        start = time.perf_counter()
        code = run(config)
        print(f"{name} {time.perf_counter() - start:.2f}", file=sys.stderr,
              flush=True)
        if code != 0:
            failed.append(f"{name} exited {code}")
        for path in sorted(outdir.rglob("*")):
            if path.is_file() and path.name != "manifest.json":
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                lines.append(f"{name}/{path.relative_to(outdir)} {digest}")
    print("\n".join(sorted(lines)))
    for msg in failed:
        print(f"config_hashes: {msg}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
