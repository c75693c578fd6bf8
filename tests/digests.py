"""Digests of the job's outputs, for checking that a change keeps them bit for bit.

Run as `PYTHONPATH=src python tests/digests.py`. Each line is a case name and
the first 16 hex digits of a sha256 over that case's corrected series, every
field, the loss trace and the report. The cases are the three benchmark
workloads' `setup` + `run_job` at seeds (1, 1, 1), then one epoch of train,
apply and evaluate per variant on the default phantom. It compares nothing:
run it on two checkouts on the same machine and compare the lines. It is not
a test module, so pytest does not collect it.
"""

import hashlib
import itertools
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "moco4d_bench"))

import moco4d.phantom  # noqa: E402 - loads the package and its modules
import moco4d.train  # noqa: E402
import workloads  # noqa: E402
from moco4d import network as net  # noqa: E402
from moco4d import phantom as ph  # noqa: E402
from moco4d import train as tr  # noqa: E402


def digest(corrected, fields, loss_trace, report):
    h = hashlib.sha256()
    for a in [corrected.data] + [f.data for f in fields]:
        h.update(np.ascontiguousarray(a).tobytes())
    h.update(repr(loss_trace).encode())
    h.update(repr(report).encode())
    return h.hexdigest()[:16]


def workload_digests():
    seeds = workloads.Seeds(motion=1, init=1, train=1)
    for name, wl in workloads.WORKLOADS.items():
        inputs = workloads.setup(moco4d, wl, seeds)
        out = workloads.run_job(moco4d, wl, seeds, inputs)
        yield name, digest(out.corrected, out.fields, out.loss_trace, out.report)


def variant_digests():
    spec = ph.PhantomSpec()
    ifn = ph.sample_input_function()
    truth = ph.simulate_frames(spec, ifn, *ph.default_frame_times())
    moving, true_fields = ph.inject_motion(truth, ph.MotionSpec(seed=2))
    cfg = tr.TrainConfig(learning_rate=1e-3, epochs=1, seed=4, downsample_factor=1)
    for variant in net.NetVariant:
        model = net.init_net_params(variant, np.random.default_rng(3), extents=spec.grid)
        model, trace = tr.train(model, variant, [moving], cfg)
        corrected, fields = tr.apply(model, moving, cfg)
        report = ph.evaluate_correction(corrected, truth, true_fields, fields, spec, ifn)
        yield variant.value, digest(corrected, fields, trace, report)


if __name__ == "__main__":
    for name, hexdigest in itertools.chain(workload_digests(), variant_digests()):
        print(f"{name} {hexdigest}", flush=True)
