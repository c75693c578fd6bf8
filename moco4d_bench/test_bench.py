"""Fast tests of the benchmark itself; run with

    python3 -m pytest moco4d_bench
"""

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import moco4d  # noqa: E402
import moco4d.phantom  # noqa: E402,F401 - loads every module the tracer patches
import moco4d.train  # noqa: E402,F401

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")

# Grids just large enough for the 4-level U-Net and the 9-voxel NCC window.
TINY = {
    "train_b32": dict(grid=(16, 16, 16)),
    "pipeline_s16": dict(grid=(16, 16, 16), frames=5, epochs=2),
    "correct_f64": dict(grid=(32, 32, 32), downsample_factor=2),
}


def _bindings():
    return {(name, attr): value
            for name, mod in sys.modules.items()
            if name == "moco4d" or name.startswith("moco4d.")
            for attr, value in vars(mod).items() if callable(value)}


def test_tracer_restores_every_patched_name():
    before = _bindings()
    tracer = Tracer()
    with tracer:
        tracer.patch(moco4d)
        during = _bindings()
        changed = {key for key in before if during[key] is not before[key]}
        # names bound in more than one module are all patched
        for key in [("train", "loss_terms"), ("losses", "loss_terms"),
                    ("phantom", "parametric_maps"), ("patlak", "parametric_maps"),
                    ("phantom", "nmi"), ("train", "resample_field"),
                    ("autodiff", "conv3d"), ("autodiff", "warp")]:
            assert ("moco4d." + key[0], key[1]) in changed
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_self_time_is_duration_minus_children():
    ticks = iter([0.0, 1.0, 1.5, 4.0, 4.25, 7.0, 9.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    with tracer.span("outer"):                  # 0 .. 10
        with tracer.span("child"):              # 1 .. 4.25
            with tracer.span("grandchild"):     # 1.5 .. 4
                pass
        with tracer.span("child"):              # 7 .. 9
            pass
    assert [s.self_s for s in tracer.spans] == [4.75, 0.75, 2.5, 2.0]
    assert tracer.self_times() == {"outer": 4.75, "child": 2.75, "grandchild": 2.5}
    assert tracer.coverage("outer") == 0.525


def test_metric_names_are_valid_and_unique():
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(names) == len(set(names))
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_smoke_run(name):
    wl = dataclasses.replace(workloads.WORKLOADS[name], **TINY[name])
    seeds = workloads.Seeds(motion=1, init=1, train=1)
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        metrics, attempted, failed, gates, _ = workloads.run(moco4d, wl, seeds, 0.0, trace)
        assert failed == 0, gates
        assert attempted > 0 and all(gates.values())
        assert set(metrics) == {m["name"] for m in SPEC[key]}
        units = {m["name"]: m["unit"] for m in SPEC[key]}
        assert all(units[n] == unit for n, (_, unit) in metrics.items())
    assert metrics["trace.train_coverage"][0] > 0.9


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(__file__).parent, tmp_path / Path(__file__).parent.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", "pipeline_s16",
           "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
