"""The benchmark's workloads and the job each one runs through moco4d's
public functions: simulate -> inject motion -> init model -> train -> apply
-> evaluate, with correctness gates on the outputs.

Every workload runs the whole job so that every end-to-end metric is measured
on every workload; what differs is where the time goes:

- train_b32: B-ConvLSTM training on the paper's working grid (128x128x256 / 4
  = 32x32x64, downsample factor 1), one 5-frame window per step. conv3d
  forward and VJP dominate; the recurrent bottleneck is only 2x2x4.
- pipeline_s16: the default 16x16x32 phantom, S-ConvLSTM trained 2 epochs
  over 4 windows (8 steps). The ConvLSTM runs at full working resolution
  with many small unbatched convs, and accuracy is gated.
- correct_f64: a 64x64x128, 8-frame series at the paper's downsample factor
  4. Training is two epochs (8 steps) at the 16x16x32 working grid and the
  library's default learning rate, so the model stays close to its seeded
  init; apply and evaluate are forward-only at full resolution, where warp
  dominates, and their cost does not depend on the weights.
"""

from __future__ import annotations

import hashlib
import math
import resource
import statistics
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

import numpy as np

from tracer import LAYER_ENTRY_POINTS, NAMED_PRIMITIVES, Tracer

CONV_LAYERS = ("enc0", "down1", "down2", "down3", "down4", "dec1", "dec2", "dec3",
               "dec4", "head1", "head2", "flow", "sconv", "bcell", "scell")
SETUP_REPEATS = 3
# per-layer metrics computed from shapes and the tape, not timed; they repeat
# exactly for the same code
COMPUTED = ("autodiff.conv3d.gflop", "autodiff.tape_nodes", "autodiff.tape_mb",
            "autodiff.warp.voxels", "convlstm.steps")


@dataclass(frozen=True)
class Workload:
    name: str
    variant: str
    grid: tuple
    frames: int
    downsample_factor: int
    epochs: int
    gate_accuracy: bool = False    # loss must fall and correction must beat none
    learning_rate: float = 1e-3
    # least samples of the pure phases per untraced run; a single timing of a
    # short phase is too noisy on a shared machine
    min_apply: int = 1
    min_evaluate: int = 1


WORKLOADS = {w.name: w for w in (
    Workload("train_b32", "b_convlstm", (32, 32, 64), frames=5, downsample_factor=1,
             epochs=2, min_evaluate=5),
    Workload("pipeline_s16", "s_convlstm", (16, 16, 32), frames=8, downsample_factor=1,
             epochs=2, gate_accuracy=True, min_apply=3, min_evaluate=9),
    Workload("correct_f64", "b_convlstm", (64, 64, 128), frames=8, downsample_factor=4,
             epochs=2, learning_rate=1e-4, min_apply=2),
)}


@dataclass
class Seeds:
    motion: int
    init: int
    train: int


@dataclass
class Outcome:
    """What one job produced, its timings and the gate results on it."""

    model: object = None
    cfg: object = None
    step_s: list = field(default_factory=list)
    train_s: float = 0.0
    apply_s: list = field(default_factory=list)
    evaluate_s: list = field(default_factory=list)
    loss_trace: list = field(default_factory=list)
    corrected: object = None
    fields: list = field(default_factory=list)
    report: dict = field(default_factory=dict)
    gates: dict = field(default_factory=dict)
    train_conv_flop: float = 0.0  # computed, traced runs only


# -- set-up ------------------------------------------------------------------

def setup(moco4d, wl: Workload, seeds: Seeds):
    """Simulate the motion-free series, inject seeded motion, init the model."""
    ph, net = moco4d.phantom, moco4d.network
    spec = ph.PhantomSpec(grid=wl.grid)
    ifn = ph.sample_input_function()
    mids, durations = ph.default_frame_times(wl.frames)
    truth = ph.simulate_frames(spec, ifn, mids, durations)
    moving, true_fields = ph.inject_motion(truth, ph.MotionSpec(seed=seeds.motion))
    model = net.init_net_params(wl.variant, np.random.default_rng(seeds.init))
    return dict(spec=spec, ifn=ifn, truth=truth, moving=moving,
                true_fields=true_fields, model=model)


def fingerprint(inputs):
    """Digest of the set-up outputs, taken before training changes the model,
    so repeated set-ups can be checked for giving the same inputs."""
    h = hashlib.sha256()
    arrays = [inputs["truth"].data, inputs["moving"].data]
    arrays += [f.data for f in inputs["true_fields"]]
    params = inputs["model"].named()
    arrays += [params[k].data for k in sorted(params)]
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# -- the job -------------------------------------------------------------------

@contextmanager
def step_clock(train_module, stamps):
    """Stamp the end of every optimizer step (one clock read per step)."""
    original = train_module.adam_step

    def stamped(*args, **kwargs):
        out = original(*args, **kwargs)
        stamps.append(time.perf_counter())
        return out

    train_module.adam_step = stamped
    try:
        yield
    finally:
        train_module.adam_step = original


def _all_finite(value):
    if isinstance(value, dict):
        return all(_all_finite(v) for v in value.values())
    return math.isfinite(value)


def _same_fields(a, b):
    return len(a) == len(b) and all(np.array_equal(x.data, y.data) for x, y in zip(a, b))


def run_job(moco4d, wl: Workload, seeds: Seeds, inputs, tracer: Tracer | None = None):
    """Train, apply and evaluate once on prepared inputs; returns an Outcome.

    With a tracer, each phase is a root span so its coverage by layer spans
    can be read off."""
    tr, ph = moco4d.train, moco4d.phantom
    out = Outcome()
    phase = tracer.span if tracer is not None else (lambda _name: nullcontext())
    out.cfg = cfg = tr.TrainConfig(learning_rate=wl.learning_rate, epochs=wl.epochs,
                                   downsample_factor=wl.downsample_factor,
                                   seed=seeds.train)
    counts = tracer.counts if tracer is not None else {"conv3d.flop": 0.0}
    stamps = []
    flop0 = counts["conv3d.flop"]
    t0 = time.perf_counter()
    with phase("bench.train"), step_clock(tr, stamps):
        out.model, out.loss_trace = tr.train(inputs["model"], wl.variant,
                                             [inputs["moving"]], cfg)
    t1 = time.perf_counter()
    out.train_conv_flop = counts["conv3d.flop"] - flop0
    with phase("bench.apply"):
        out.corrected, out.fields = tr.apply(out.model, inputs["moving"], cfg)
    t2 = time.perf_counter()
    with phase("bench.evaluate"):
        out.report = ph.evaluate_correction(out.corrected, inputs["truth"],
                                            inputs["true_fields"], out.fields,
                                            inputs["spec"], inputs["ifn"])
    t3 = time.perf_counter()

    out.step_s = [b - a for a, b in zip([t0] + stamps, stamps)]
    out.train_s, out.apply_s, out.evaluate_s = t1 - t0, [t2 - t1], [t3 - t2]

    ref = cfg.reference_index
    out.gates["reference_frame_bit_exact"] = bool(
        np.array_equal(out.corrected.data[ref], inputs["moving"].data[ref])
        and not out.fields[ref].data.any())
    out.gates["outputs_finite"] = bool(
        all(np.isfinite(f.data).all() for f in out.fields)
        and np.isfinite(out.corrected.data).all()
        and _all_finite(out.report)
        and all(math.isfinite(v) for row in out.loss_trace for v in row))
    if wl.gate_accuracy:
        out.gates["loss_falls"] = out.loss_trace[-1][1] < out.loss_trace[0][1]
        out.gates["correction_beats_none"] = (out.report["endpoint_error_voxels"]
                                              < out.report["endpoint_error_no_correction"])
    return out


# -- metrics -------------------------------------------------------------------

def peak_rss_mb():
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def end_to_end(out: Outcome, setup_s):
    """The user-facing metrics of one untraced run."""
    report = out.report
    apply_s = statistics.median(out.apply_s)
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        # the first step also pays for warm-up
        "train_step_s": (statistics.median(out.step_s[1:]), "s"),
        "time_to_corrected_s": (out.train_s + apply_s, "s"),
        "apply_s": (apply_s, "s"),
        "evaluate_s": (statistics.median(out.evaluate_s), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "endpoint_error_ratio": (report["endpoint_error_voxels"]
                                 / report["endpoint_error_no_correction"], "ratio"),
    }


def per_layer(tracer: Tracer, traced: Outcome, untraced: Outcome):
    """Per-layer metrics of a traced run: self seconds summed over the traced
    job (set-up, training, apply, evaluate), plus computed work counts."""
    self_s = tracer.self_times()
    c = tracer.counts
    m = {}

    def seconds(span):
        m[span + "_s"] = (self_s.get(span, 0.0), "s")

    for layer in CONV_LAYERS:
        seconds(f"autodiff.conv3d.{layer}.fwd")
        seconds(f"autodiff.conv3d.{layer}.vjp")
    for prim in NAMED_PRIMITIVES[1:] + ("pointwise",):    # [0] is conv3d, done above
        seconds(f"autodiff.{prim}.fwd")
        seconds(f"autodiff.{prim}.vjp")
    seconds("autodiff.backward")
    for _module, _function, span in LAYER_ENTRY_POINTS:
        seconds(span)

    conv_s = sum(v for k, v in self_s.items() if k.startswith("autodiff.conv3d."))
    steps = c["tape.steps"]
    m["autodiff.conv3d.gflop"] = (traced.train_conv_flop / len(traced.step_s) / 1e9,
                                  "GFLOP")
    m["autodiff.conv3d.gflops"] = (c["conv3d.flop"] / conv_s / 1e9, "GFLOP/s")
    m["autodiff.tape_nodes"] = (c["tape.nodes"] / steps, "count")
    m["autodiff.tape_mb"] = (c["tape.bytes"] / steps / 1e6, "MB")
    m["autodiff.warp.voxels"] = (c["warp.voxels"], "count")
    m["convlstm.steps"] = (sum(1 for s in tracer.spans if s.name == "convlstm.step"),
                           "count")
    m["trace.overhead_s"] = (statistics.median(traced.step_s[1:])
                             - statistics.median(untraced.step_s[1:]), "s")
    m["trace.train_coverage"] = (tracer.coverage("bench.train"), "ratio")
    m["trace.evaluate_coverage"] = (tracer.coverage("bench.evaluate"), "ratio")
    return m


# -- one run -------------------------------------------------------------------

def _timed_setup(moco4d, wl, seeds):
    t0 = time.perf_counter()
    inputs = setup(moco4d, wl, seeds)
    return inputs, time.perf_counter() - t0, fingerprint(inputs)


def run(moco4d, wl: Workload, seeds: Seeds, seconds: float, trace: bool):
    """One benchmark run; returns (metrics, attempted, failed, gates, notes).

    Untraced: set up and run the job once. The pure phases (set-up, apply,
    evaluate) then repeat, the one with the fewest samples first, until each
    has its least number of samples and no median fits before `seconds` have
    passed since the start. Every repeat must
    reproduce the first result bit for bit. End-to-end metrics are medians
    over the samples.

    Traced: run the job untraced, then set up and run it again traced; gate on
    identical losses and outputs; report per-layer metrics."""
    tr, ph = moco4d.train, moco4d.phantom
    start = time.perf_counter()
    gates = {"setup_deterministic": True}
    operations = failed = 0
    setup_s = []

    def again_setup():
        _inputs, t, again_digest = _timed_setup(moco4d, wl, seeds)
        gates["setup_deterministic"] &= again_digest == digest
        return t

    def again_apply():
        t0 = time.perf_counter()
        corrected, fields = tr.apply(untraced.model, inputs["moving"], untraced.cfg)
        t = time.perf_counter() - t0
        gates["apply_deterministic"] &= (np.array_equal(corrected.data,
                                                        untraced.corrected.data)
                                         and _same_fields(fields, untraced.fields))
        return t

    def again_evaluate():
        t0 = time.perf_counter()
        report = ph.evaluate_correction(untraced.corrected, inputs["truth"],
                                        inputs["true_fields"], untraced.fields,
                                        inputs["spec"], inputs["ifn"])
        t = time.perf_counter() - t0
        gates["evaluate_deterministic"] &= report == untraced.report
        return t

    tracer = traced = None
    try:
        inputs, t, digest = _timed_setup(moco4d, wl, seeds)
        setup_s.append(t)
        untraced = run_job(moco4d, wl, seeds, inputs)
        operations = len(setup_s) + len(untraced.step_s) + 2
        gates.update(untraced.gates)
        if trace:
            tracer = Tracer()
            tracer.patch(moco4d)
            try:
                with tracer.span("bench.setup"):
                    traced_inputs = setup(moco4d, wl, seeds)
                gates["setup_deterministic"] &= fingerprint(traced_inputs) == digest
                traced = run_job(moco4d, wl, seeds, traced_inputs, tracer)
            finally:
                tracer.restore()
            operations += 1 + len(traced.step_s) + 2
            for name, ok in traced.gates.items():
                gates[name] &= ok
            gates["trace_matches_untraced"] = (
                traced.loss_trace == untraced.loss_trace
                and _same_fields(traced.fields, untraced.fields)
                and traced.report == untraced.report)
        else:
            gates["apply_deterministic"] = gates["evaluate_deterministic"] = True
            repeats = ((again_setup, setup_s, SETUP_REPEATS),
                       (again_apply, untraced.apply_s, wl.min_apply),
                       (again_evaluate, untraced.evaluate_s, wl.min_evaluate))
            deadline = start + seconds
            while True:
                due = [(len(samples), i) for i, (_, samples, least) in enumerate(repeats)
                       if len(samples) < least
                       or time.perf_counter() + statistics.median(samples) <= deadline]
                if not due:
                    break
                again, samples, _ = repeats[min(due)[1]]
                samples.append(again())
                operations += 1
    except Exception:  # noqa: BLE001 - a failed operation is reported, not raised
        traceback.print_exc()
        operations += 1
        failed += 1

    failed += sum(1 for ok in gates.values() if not ok)
    attempted = operations + len(gates)
    if failed:
        return {}, attempted, failed, gates, {}
    if trace:
        metrics = per_layer(tracer, traced, untraced)
    else:
        metrics = end_to_end(untraced, setup_s)
    notes = {"samples": {"setup": len(setup_s), "train_step": len(untraced.step_s) - 1,
                         "apply": len(untraced.apply_s),
                         "evaluate": len(untraced.evaluate_s)},
             "endpoint_error_voxels": untraced.report["endpoint_error_voxels"],
             "endpoint_error_no_correction":
                 untraced.report["endpoint_error_no_correction"],
             "epoch_losses": [row[1] for row in untraced.loss_trace]}
    return metrics, attempted, failed, gates, notes
