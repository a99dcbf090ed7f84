"""Every output byte of a table of small CLI runs, held against committed digests.

Each case runs through ``cli.main`` in one working directory, in order, so
later cases read the files earlier ones wrote.  A case's record is its exit
status and the sha256 of its stdout, its stderr and each file it writes,
with the manifest's ``duration_s`` and input digests masked (an input
written by an earlier case carries that case's duration).  The bits depend on numpy's
version (the sampler's streams, NEP 19) and on the SIMD features numpy
dispatches, so the record is keyed by both.

Regenerate the record for this platform after a deliberate bit change with

    PYTHONPATH=src python tests/test_payload_digests.py

and list each changed digest in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy._core import _multiarray_umath

from mftroute import Distribution, Scenario, StageCosts, build_gridworld, write_scenario
from mftroute.cli import fig2_scenario, main

RECORD = Path(__file__).with_name("payload_digests.json")

REF = "0.3333333333333333,0.3333333333333333,0.3333333333333333"
GAME = ["--costs", "2,1,3", "--ref", REF, "--alpha", "1"]
FIG2_FILES = ["fig2/heatmap_t20.pgm", "fig2/heatmap_t35.pgm", "fig2/heatmap_t50.pgm", "fig2/flow.csv"]

# (name, argv, files the run writes); grid.scn is the CI grid, rush.scn its per-stage form
CASES = [
    ("gridworld", ["gridworld", "--width", "6", "--height", "5", "--obstacles", "8,14,21", "--origin", "0",
                   "--dest", "29", "--horizon", "12", "--alpha", "0.3", "--out", "grid.scn"], ["grid.scn"]),
    ("validate", ["validate", "--scenario", "grid.scn"], []),
    ("validate invalid", ["validate", "--scenario", "invalid.scn"], []),
    ("mfe", ["mfe", "--scenario", "grid.scn"], []),
    ("mfe outputs", ["mfe", "--scenario", "grid.scn", "--out-policy", "policy.csv", "--out-logphi", "logphi.csv",
                     "--out-flow", "flow.csv"], ["policy.csv", "logphi.csv", "flow.csv"]),
    ("mfe certify", ["mfe", "--scenario", "grid.scn", "--certify-equalizer", "3", "--seed", "5"], []),
    ("mfe per-stage", ["mfe", "--scenario", "rush.scn", "--out-policy", "rush_policy.csv", "--out-logphi",
                       "rush_logphi.csv", "--out-flow", "rush_flow.csv"],
     ["rush_policy.csv", "rush_logphi.csv", "rush_flow.csv"]),
    ("mfe fig2", ["mfe", "--scenario", "fig2.scn", "--out-policy", "fig2_policy.csv"], ["fig2_policy.csv"]),
    ("simulate", ["simulate", "--scenario", "grid.scn", "--policy", "policy.csv", "--agents", "200", "--reps", "2",
                  "--seed", "7", "--out", "simulate.csv"], ["simulate.csv"]),
    ("simulate per-stage", ["simulate", "--scenario", "rush.scn", "--policy", "rush_policy.csv", "--agents", "200",
                            "--reps", "2", "--seed", "7", "--out", "rush_simulate.csv"], ["rush_simulate.csv"]),
    ("simulate fig2", ["simulate", "--scenario", "fig2.scn", "--policy", "fig2_policy.csv", "--agents", "1000",
                       "--seed", "3", "--out", "fig2_simulate.csv"], ["fig2_simulate.csv"]),
    ("simulate bad policy", ["simulate", "--scenario", "grid.scn", "--policy", "bad_policy.csv", "--agents", "10",
                             "--out", "none.csv"], []),
    ("nash-gap", ["nash-gap", "--scenario", "grid.scn", "--agents", "10,100,1000,100000", "--out", "gaps.csv"],
     ["gaps.csv"]),
    ("nash-gap per-stage", ["nash-gap", "--scenario", "rush.scn", "--agents", "100000,10,1000,10", "--out",
                            "rush_gaps.csv"], ["rush_gaps.csv"]),
    ("nash-gap fig2", ["nash-gap", "--scenario", "fig2.scn", "--agents", "10,1000", "--out", "fig2_gaps.csv"],
     ["fig2_gaps.csv"]),
    *[
        case
        for n in (2, 20, 200, 20000)
        for case in (
            (f"fp {n}", ["fp", *GAME, "--agents", str(n), "--days", "30", "--out", f"fp_{n}.csv"], [f"fp_{n}.csv"]),
            (f"symmetric-ne {n}", ["symmetric-ne", *GAME, "--agents", str(n), "--out", f"ne_{n}.csv"],
             [f"ne_{n}.csv"]),
        )
    ],
    ("fp vertex", ["fp", *GAME, "--agents", "50", "--days", "30", "--init", "1,0,0", "--out", "fp_vertex.csv"],
     ["fp_vertex.csv"]),
    ("reproduce fig2", ["reproduce", "fig2", "--out-dir", "fig2"], FIG2_FILES),
    ("reproduce fig4", ["reproduce", "fig4", "--days", "30", "--out-dir", "fig4"],
     ["fig4/fp_n20.csv", "fig4/fp_n200.csv"]),
]

_VARYING = re.compile(rb"^(# manifest: (duration_s|sha256\[\w+\])=).*$", re.MULTILINE)


def platform_key() -> str:
    """numpy's version and the SIMD targets it dispatches to on this machine."""
    features = _multiarray_umath.__cpu_features__
    dispatched = [name for name in _multiarray_umath.__cpu_dispatch__ if features.get(name)]
    return f"numpy={np.__version__} simd={','.join(dispatched) or 'none'}"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _write_inputs(out: Path) -> None:
    """The per-stage grid, fig2, an invalid scenario and a policy CSV with a negative value."""
    base = build_gridworld(6, 5, [8, 14, 21], 0, 29, 12, 0.3)
    moving = base.graph.edge_src != base.graph.edge_dst
    stage = base.costs.stage + 0.25 * np.arange(base.horizon)[:, None] * moving
    rush = Scenario(base.graph, StageCosts(base.horizon, stage, base.costs.terminal), base.reference, base.alpha,
                    base.initial)
    write_scenario(rush, out / "rush.scn")
    write_scenario(fig2_scenario(0.1), out / "fig2.scn")
    mass = np.zeros(base.graph.node_count)
    mass[[0, 1]] = 0.75
    write_scenario(Scenario(base.graph, base.costs, base.reference, base.alpha, Distribution(mass)),
                   out / "invalid.scn")
    (out / "bad_policy.csv").write_text("t,i,j,value\n0,0,0,0.5\n0,0,1,-0.5\n", encoding="utf-8")


def run_cases(out: Path) -> dict:
    """Each case's exit status and digests, run in order in directory out."""
    out.mkdir(exist_ok=True)
    _write_inputs(out)
    record = {}
    cwd = os.getcwd()
    os.chdir(out)
    try:
        for name, argv, files in CASES:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                status = main(argv)
            record[name] = {
                "exit": status,
                "stdout": _sha(stdout.getvalue().encode()),
                "stderr": _sha(stderr.getvalue().encode()),
                **{f: _sha(_VARYING.sub(rb"\1*", Path(f).read_bytes())) for f in files},
            }
    finally:
        os.chdir(cwd)
    return record


def _changed(got: dict, want: dict) -> list[str]:
    """'case: entry' of every digest that differs, is new or is gone."""
    return [
        f"{name}: {entry}"
        for name in sorted(set(got) | set(want))
        for entry in sorted(set(got.get(name, {})) | set(want.get(name, {})))
        if got.get(name, {}).get(entry) != want.get(name, {}).get(entry)
    ]


def test_every_output_byte_matches_the_recorded_digests(tmp_path):
    key = platform_key()
    recorded = json.loads(RECORD.read_text(encoding="utf-8"))
    got = run_cases(tmp_path / "first")
    if key not in recorded:
        again = run_cases(tmp_path / "second")
        assert _changed(got, again) == [], "two runs on one platform wrote different bytes"
        pytest.skip(f"no digests recorded for {key}; the runs were compared only with each other")
    assert _changed(got, recorded[key]) == []


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        record = run_cases(Path(scratch))
    recorded = json.loads(RECORD.read_text(encoding="utf-8")) if RECORD.exists() else {}
    if platform_key() in recorded:
        for line in _changed(record, recorded[platform_key()]):
            print(f"changed: {line}")
    recorded[platform_key()] = record
    RECORD.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(record)} cases for {platform_key()} in {RECORD}", file=sys.stderr)
