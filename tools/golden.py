#!/usr/bin/env python3
"""Golden-output manifest: pins the simulator's deterministic outputs.

The manifest (GOLDEN.json at the repository root) maps
  - every BENCH_*.json, CAMPAIGN_*.json and TRACE_*.json file in a bench
    directory, with its host-timed "sim_throughput" line dropped, and
  - the stdout of the frozen paper benches (Figures 3-6, Table 1) and of
    the --smoke runs of the sweeps that build many worlds in one process
    (campaigns, multicore, ablation_rings, incast, server, pressure)
to SHA-256 digests. Every BENCH_* and CAMPAIGN_* file must also parse as
JSON (TRACE_* files are checked in depth by tools/validate_traces.py).

Usage, from the directory the benches ran in (CI: build/bench):

    python3 tools/golden.py check GOLDEN.json     # exit 1 on any difference
    python3 tools/golden.py write GOLDEN.json     # regenerate the manifest

--bench-dir (default: the working directory) holds the output files;
--bin-dir (default: the bench directory) holds the bench programs whose
stdout is pinned. Each of those runs in a scratch directory, so it never
touches the outputs being hashed.

A change that moves simulated output regenerates the manifest in the same
commit and explains every changed entry.
"""
import argparse
import glob
import hashlib
import json
import os
import subprocess
import sys
import tempfile

PATTERNS = ("BENCH_*.json", "CAMPAIGN_*.json", "TRACE_*.json")
# Each entry is a bench program and its arguments; the manifest key is the
# command line.
PINNED_STDOUT = (
    ("fig3_single_crossing",),
    ("fig4_udp_loopback",),
    ("fig5_endtoend_cached",),
    ("fig6_endtoend_uncached",),
    ("table1_per_page_costs",),
    ("campaigns", "--smoke"),
    ("multicore", "--smoke"),
    ("ablation_rings", "--smoke"),
    ("incast", "--smoke"),
    ("server", "--smoke"),
    ("pressure", "--smoke"),
)


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def stripped(data):
    """Drops the host-timed line, as CI's replay steps do with grep -v."""
    lines = data.splitlines(keepends=True)
    return b"".join(l for l in lines if b'"sim_throughput"' not in l)


def output_digests(bench_dir):
    files = {}
    for pattern in PATTERNS:
        for path in sorted(glob.glob(os.path.join(bench_dir, pattern))):
            with open(path, "rb") as f:
                data = f.read()
            name = os.path.basename(path)
            if not name.startswith("TRACE_"):
                try:
                    json.loads(data)
                except ValueError as e:
                    sys.exit(f"golden: {name} is not valid JSON: {e}")
            files[name] = sha256(stripped(data))
    return files


def stdout_digests(bin_dir):
    out = {}
    for program, *args in PINNED_STDOUT:
        name = " ".join([program, *args])
        exe = os.path.abspath(os.path.join(bin_dir, program))
        with tempfile.TemporaryDirectory() as scratch:
            run = subprocess.run([exe, *args], cwd=scratch,
                                 stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        if run.returncode != 0:
            sys.stderr.buffer.write(run.stderr)
            sys.exit(f"golden: {name} exited {run.returncode}")
        out[name] = sha256(run.stdout)
    return out


def compute(bench_dir, bin_dir):
    return {"files": output_digests(bench_dir), "stdout": stdout_digests(bin_dir)}


def diff(want, got):
    problems = []
    for section in ("files", "stdout"):
        w, g = want.get(section, {}), got.get(section, {})
        for name in sorted(set(w) | set(g)):
            if name not in g:
                problems.append(f"{section}: {name} missing")
            elif name not in w:
                problems.append(f"{section}: {name} not in the manifest")
            elif w[name] != g[name]:
                problems.append(f"{section}: {name} changed")
    return problems


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("check", "write"))
    ap.add_argument("manifest")
    ap.add_argument("--bench-dir", default=".")
    ap.add_argument("--bin-dir")
    args = ap.parse_args()

    got = compute(args.bench_dir, args.bin_dir or args.bench_dir)
    if args.mode == "write":
        with open(args.manifest, "w") as f:
            json.dump(got, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"golden: wrote {len(got['files'])} files and "
              f"{len(got['stdout'])} stdouts to {args.manifest}")
        return 0
    with open(args.manifest) as f:
        want = json.load(f)
    problems = diff(want, got)
    for p in problems:
        print(f"golden: {p}")
    if problems:
        return 1
    print(f"golden: {len(got['files'])} files and {len(got['stdout'])} "
          "stdouts match the manifest")
    return 0


if __name__ == "__main__":
    sys.exit(main())
