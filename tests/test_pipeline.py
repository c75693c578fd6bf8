"""The whole job on the default 16x16x32 phantom at working resolution:
simulate -> inject motion -> train -> apply -> evaluate, B-ConvLSTM; and
every variant once end to end on a smaller phantom."""

import tracemalloc
import weakref

import numpy as np
import pytest

from moco4d import autodiff as ad
from moco4d import network as net
from moco4d import phantom as ph
from moco4d import train as tr
from moco4d.errors import ConfigurationError, DimensionError
from moco4d.losses import loss_terms
from moco4d.metrics import global_ncc, nmi
from moco4d.network import NetVariant
from moco4d.patlak import parametric_maps
from moco4d.series import FrameSeries
from moco4d.warping import resample_field, warp_series

from oracles import traced_peak_bytes

VARIANT = NetVariant.B_CONVLSTM


@pytest.fixture(scope="module")
def phantom():
    spec = ph.PhantomSpec()
    ifn = ph.sample_input_function()
    mids, durations = ph.default_frame_times()
    return spec, ifn, ph.simulate_frames(spec, ifn, mids, durations)


def config(epochs=1, seed=0, learning_rate=1e-4, reference_index=0):
    # keywords spelled out, so that test_layout's settable-value guard sees
    # which TrainConfig fields a test sets
    return tr.TrainConfig(learning_rate=learning_rate, epochs=epochs, seed=seed,
                          downsample_factor=1, reference_index=reference_index)


def make_model(seed=1):
    return net.init_net_params(VARIANT, np.random.default_rng(seed))


@pytest.mark.parametrize("motion_seed", range(4))
def test_zero_flow_head_apply_is_identity(phantom, motion_seed):
    spec, ifn, truth = phantom
    moving, true_fields = ph.inject_motion(truth, ph.MotionSpec(seed=motion_seed))
    model = make_model()
    k, b = model.tensors["flow.k"], model.tensors["flow.b"]
    k.data[:] = 0.0
    b.data[:] = 0.0
    corrected, fields = tr.apply(model, moving, config())
    np.testing.assert_array_equal(corrected.data, moving.data)
    assert not any(f.data.any() for f in fields)
    report = ph.evaluate_correction(corrected, truth, true_fields, fields, spec, ifn)
    assert report["endpoint_error_no_correction"] > 0.0
    assert report["endpoint_error_voxels"] == report["endpoint_error_no_correction"]


def test_inject_motion_warps_by_the_stored_fields(phantom):
    # the corrupted series is the truth warped by the float32 fields that
    # inject_motion returns, bit for bit
    _spec, _ifn, truth = phantom
    moving, true_fields = ph.inject_motion(truth, ph.MotionSpec(seed=1))
    assert all(f.data.dtype == np.float32 for f in true_fields)
    assert moving.data.tobytes() == warp_series(truth, true_fields).data.tobytes()


def test_evaluate_motion_condition_is_the_injected_series(phantom):
    # scoring the injected series as the correction reproduces the motion entry
    spec, ifn, truth = phantom
    moving, true_fields = ph.inject_motion(truth, ph.MotionSpec(seed=1))
    report = ph.evaluate_correction(moving, truth, true_fields, true_fields, spec, ifn)
    assert report["motion"] == report["corrected"]
    assert report["motion"] != report["motion_free"]


def test_report_entries_are_recomputed_from_each_condition_maps(phantom):
    # per condition: the tumor's Ki mean and max, the body's NFE mean and max
    # over its non-degenerate voxels, and the NMI and NCC of body Ki and Vb
    spec, ifn, truth = phantom
    moving, true_fields = ph.inject_motion(truth, ph.MotionSpec(seed=1))
    corrected, fields = tr.apply(make_model(), moving, config())
    report = ph.evaluate_correction(corrected, truth, true_fields, fields, spec, ifn)
    body, tumor = spec.body.mask(spec.grid), spec.tumor.mask(spec.grid)
    conditions = {"motion_free": truth, "motion": warp_series(truth, true_fields),
                  "corrected": corrected}
    for name, series in conditions.items():
        maps = parametric_maps(series, ifn)
        nfe = maps.nfe[body & ~maps.degenerate]
        ki, vb = maps.ki[body], maps.vb[body]
        assert report[name] == {
            "nfe_mean": float(nfe.mean()), "nfe_max": float(nfe.max()),
            "ki_mean": float(maps.ki[tumor].mean()), "ki_max": float(maps.ki[tumor].max()),
            "ki_vb_nmi": nmi(ki, vb), "ki_vb_ncc": global_ncc(ki, vb)}


def test_train_and_apply_leave_the_input_series_unchanged(phantom):
    # preprocessing overwrites the voxels above the cutoff in its own copy
    _spec, _ifn, truth = phantom
    moving, _ = ph.inject_motion(truth, ph.MotionSpec(seed=1))
    first5 = FrameSeries(moving.data[:5], moving.mid_times[:5], moving.durations[:5],
                         moving.voxel_size_mm)
    assert (first5.data > tr.CUTOFF).any()
    before = first5.data.copy()
    model, _trace = tr.train(make_model(), VARIANT, [first5], config())
    tr.apply(model, first5, config())
    np.testing.assert_array_equal(first5.data, before)


def test_reference_frame_passes_through_with_zero_field(phantom):
    _spec, _ifn, truth = phantom
    moving, _ = ph.inject_motion(truth, ph.MotionSpec(seed=1))
    cfg = config()
    corrected, fields = tr.apply(make_model(), moving, cfg)
    ref = cfg.reference_index
    np.testing.assert_array_equal(corrected.data[ref], moving.data[ref])
    assert not fields[ref].data.any()
    # every other frame gets the network's small but nonzero field
    assert all(fields[i].data.any() for i in range(moving.frames) if i != ref)


@pytest.mark.parametrize("variant", list(NetVariant))
def test_every_variant_runs_the_job(variant):
    # 16x16x16 phantom, 6 frames, one epoch at factor 1
    spec = ph.PhantomSpec(grid=(16, 16, 16))
    ifn = ph.sample_input_function()
    truth = ph.simulate_frames(spec, ifn, *ph.default_frame_times(n_frames=6))
    moving, true_fields = ph.inject_motion(truth, ph.MotionSpec(seed=1))
    cfg = config()
    model = net.init_net_params(variant, np.random.default_rng(1), extents=spec.grid)
    model, trace = tr.train(model, variant, [moving], cfg)
    assert np.isfinite(np.array(trace)).all()
    corrected, fields = tr.apply(model, moving, cfg)
    ref = cfg.reference_index
    np.testing.assert_array_equal(corrected.data[ref], moving.data[ref])
    assert not fields[ref].data.any()
    assert all(fields[i].data.any() for i in range(moving.frames) if i != ref)
    report = ph.evaluate_correction(corrected, truth, true_fields, fields, spec, ifn)
    values = [v for r in report.values() for v in (r.values() if isinstance(r, dict) else [r])]
    assert np.isfinite(values).all()


def test_apply_is_bit_identical_to_a_taped_forward_pass(phantom):
    # outside a tape the forward pass keeps no graph, and computes the same
    _spec, _ifn, truth = phantom
    moving, _ = ph.inject_motion(truth, ph.MotionSpec(seed=1))
    model, cfg = make_model(), config()
    corrected, fields = tr.apply(model, moving, cfg)
    with ad.Tape() as tape:
        corrected_t, fields_t = tr.apply(model, moving, cfg)
    assert tape.nodes
    np.testing.assert_array_equal(corrected.data, corrected_t.data)
    for f, f_t in zip(fields, fields_t):
        np.testing.assert_array_equal(f.data, f_t.data)


def test_apply_upsamples_no_field_for_the_reference(monkeypatch):
    # factor 4: one resample_field call per moving frame, none for the reference
    truth = ph.simulate_frames(ph.PhantomSpec(grid=(64, 64, 64)), ph.sample_input_function(),
                               *ph.default_frame_times())
    calls = []

    def counted(field, factor):
        calls.append(factor)
        return resample_field(field, factor)

    monkeypatch.setattr(tr, "resample_field", counted)
    _corrected, fields = tr.apply(make_model(), truth, tr.TrainConfig(downsample_factor=4))
    assert calls == [4] * (truth.frames - 1)
    assert len(fields) == truth.frames and not fields[0].data.any()


@pytest.mark.parametrize("variant", list(NetVariant))
def test_apply_runs_one_pass_over_every_frame(phantom, monkeypatch, variant):
    # one network pass over all 8 working frames, the reference first; each
    # moving frame keeps that pass's field bit for bit, the reference a zero one
    _spec, _ifn, truth = phantom
    moving, _ = ph.inject_motion(truth, ph.MotionSpec(seed=1))
    cfg = config()
    model = net.init_net_params(variant, np.random.default_rng(1), extents=truth.grid)
    net_frames, _shape = tr._working_series(moving, cfg, np.random.default_rng(cfg.seed))
    ref = net_frames[cfg.reference_index]
    whole = net.estimate_displacements(model, ref, list(net_frames))
    if variant in (NetVariant.B_CONVLSTM, NetVariant.S_CONVLSTM, NetVariant.B_LSTM):
        # the state runs from frame 0: a window from frame 3 gives frame 7 another field
        tail = net.estimate_displacements(model, ref, list(net_frames[3:]))
        assert not np.array_equal(tail[-1], whole[-1])
    calls, estimate = [], net.estimate_displacements

    def counted(params, reference, moving):
        calls.append(len(moving))
        return estimate(params, reference, moving)

    monkeypatch.setattr(net, "estimate_displacements", counted)
    _corrected, fields = tr.apply(model, moving, cfg)
    assert calls == [moving.frames]
    assert not fields[0].data.any()
    for f, w in zip(fields[1:], whole[1:]):
        np.testing.assert_array_equal(f.data, w)


@pytest.mark.parametrize("variant", [NetVariant.PAIRWISE, NetVariant.MULTI_FRAME])
def test_frame_wise_variants_apply_one_frame_fields(phantom, variant):
    # pairwise and multi-frame mix no frames, so each frame's field is the
    # one it gets registered alone, however apply groups the frames
    _spec, _ifn, truth = phantom
    moving, _ = ph.inject_motion(truth, ph.MotionSpec(seed=1))
    cfg = config()
    model = net.init_net_params(variant, np.random.default_rng(1))
    _corrected, fields = tr.apply(model, moving, cfg)
    net_frames, _shape = tr._working_series(moving, cfg, np.random.default_rng(cfg.seed))
    ref = net_frames[cfg.reference_index]
    for frame, f in zip(net_frames[1:], fields[1:]):
        alone = net.estimate_displacements(model, ref, [frame])
        np.testing.assert_array_equal(f.data, alone[0])


def test_apply_returns_a_one_frame_series_unchanged(phantom):
    # the lone frame is the reference: bit-exact, with one zero field
    _spec, _ifn, truth = phantom
    one = FrameSeries(truth.data[:1], truth.mid_times[:1], truth.durations[:1],
                      truth.voxel_size_mm)
    corrected, fields = tr.apply(make_model(), one, config())
    assert corrected.data.tobytes() == one.data.tobytes()
    [field] = fields
    assert field.data.shape == (3, *one.grid) and not field.data.any()


def test_train_frees_each_step_before_the_next(phantom):
    # a step's graph must die before the next step builds its own; a graph
    # kept alive through the next step puts two steps at about 1.34x one step
    _spec, _ifn, truth = phantom
    first5 = FrameSeries(truth.data[:5], truth.mid_times[:5], truth.durations[:5],
                         truth.voxel_size_mm)

    def peak(epochs):
        cfg = config(epochs=epochs)
        return traced_peak_bytes(lambda: tr.train(make_model(), VARIANT, [first5], cfg))

    assert peak(2) <= 1.15 * peak(1)


def taped_step(model):
    """The taped forward pass and loss of one training step on a 5-frame
    16x16x32 window of random frames; returns (tape, loss)."""
    rng = np.random.default_rng(12)
    ref = rng.normal(size=(16, 16, 32)).astype(np.float32)
    movs = [rng.normal(size=ref.shape).astype(np.float32) for _ in range(5)]
    with ad.Tape() as tape:
        fields = net.forward_fields(model, ref, movs)
        warped = [ad.warp(m, f) for m, f in zip(movs, fields)]
        loss, _sim, _smooth = loss_terms(ad.constant(ref), warped, fields)
    return tape, loss


def test_the_tape_keeps_only_the_values_a_vjp_reads(monkeypatch):
    # resized decoder features feed only concat, and the loss's squares,
    # products and sums feed only sums, adds, box sums, scalar products and a
    # quotient's numerator: no VJP reads them, so they are freed once the
    # forward pass drops them; every value below is read by its own VJP or by
    # its consumer's
    values, original = {}, ad._node

    def recording(data, parents, vjp, op):
        out = original(data, parents, vjp, op)
        values[out.node] = weakref.ref(out.data)
        return out

    monkeypatch.setattr(ad, "_node", recording)
    tape, _loss = taped_step(make_model())
    by_op = {}
    for node in tape.nodes:
        by_op.setdefault(node.op, []).append(node)
    for op in ("interp_resize", "square", "mul", "sum"):
        assert all(values[n]() is None for n in by_op[op]), op
    for op in ("concat", "leaky_relu", "stack", "sigmoid", "tanh", "forward_diff"):
        assert all(values[n]() is not None for n in by_op[op]), op
    # a node's value reads as a zero-stride stand-in of its full size
    for node in by_op["interp_resize"]:
        data = node.data
        assert data.shape == node.shape and data.dtype == node.dtype == np.float32
        assert not any(data.strides) and not data.any()
        assert data.nbytes == np.prod(node.shape) * 4


def test_backward_peaks_at_what_the_forward_pass_holds():
    # the forward pass holds only the values some VJP reads, 0.55 of the
    # tape's values by size here (0.75 when the tape held every value), and
    # backward drops each node's graph and captured values once the walk has
    # passed it, so its peak stays near what the forward pass holds (1.04x
    # here, the conv VJPs' workspace); a walk that keeps every node to the
    # end peaks at about 1.33x
    model = make_model()
    tracemalloc.start()
    try:
        tape, loss = taped_step(model)
        held = tracemalloc.get_traced_memory()[0]
        taped = sum(n.data.nbytes for n in tape.nodes)
        tracemalloc.reset_peak()
        ad.backward(tape, loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert held <= 0.6 * taped
    assert peak <= 1.2 * held


def test_train_is_bit_deterministic(phantom):
    # one epoch over the single window of a series cut to its first five frames
    _spec, _ifn, truth = phantom
    moving, _ = ph.inject_motion(truth, ph.MotionSpec(seed=1))
    first5 = FrameSeries(moving.data[:5], moving.mid_times[:5], moving.durations[:5],
                         moving.voxel_size_mm)
    cfg = config(epochs=1, seed=3)
    (m1, trace1), (m2, trace2) = [tr.train(make_model(), VARIANT, [first5], cfg)
                                  for _ in range(2)]
    assert len(trace1) == 1
    assert trace1 == trace2
    p0, p1, p2 = make_model().named(), m1.named(), m2.named()
    for name in p1:
        np.testing.assert_array_equal(p1[name].data, p2[name].data)
    assert any(not np.array_equal(p0[name].data, p1[name].data) for name in p1)


def test_default_motion_bias_sign_depends_on_seed(phantom):
    spec, ifn, truth = phantom
    tumor = spec.tumor.mask(spec.grid)
    free = parametric_maps(truth, ifn).ki[tumor].mean()
    assert free == pytest.approx(0.0146, rel=1e-6)
    bias = []
    for seed in (0, 1):
        moving, _ = ph.inject_motion(truth, ph.MotionSpec(seed=seed))
        bias.append(parametric_maps(moving, ifn).ki[tumor].mean() - free)
    assert bias[0] > 0.0 > bias[1]


def test_training_lowers_loss_and_endpoint_error(phantom):
    # three epochs over every window of the default series at lr 1e-3
    spec, ifn, truth = phantom
    moving, true_fields = ph.inject_motion(truth, ph.MotionSpec(seed=1))
    cfg = config(epochs=3, learning_rate=1e-3, seed=0)
    model, trace = tr.train(make_model(seed=1), VARIANT, [moving], cfg)
    losses = [row[1] for row in trace]
    assert len(losses) == 3
    assert losses[1] < losses[0] and losses[2] < losses[1]
    corrected, fields = tr.apply(model, moving, cfg)
    report = ph.evaluate_correction(corrected, truth, true_fields, fields, spec, ifn)
    assert report["endpoint_error_voxels"] < report["endpoint_error_no_correction"]


def test_evaluate_rejects_wrong_true_field_count(phantom):
    spec, ifn, truth = phantom
    moving, true_fields = ph.inject_motion(truth, ph.MotionSpec(seed=0))
    for wrong in (true_fields[:-1], true_fields + true_fields[:1]):
        with pytest.raises(DimensionError):
            ph.evaluate_correction(moving, truth, wrong, wrong, spec, ifn)


def test_evaluate_rejects_other_frame_timing(phantom):
    # a corrected series is fitted with the truth's timing or not at all
    spec, ifn, truth = phantom
    moving, true_fields = ph.inject_motion(truth, ph.MotionSpec(seed=0))
    mids, durations, size = moving.mid_times, moving.durations, moving.voxel_size_mm
    for corrected in (FrameSeries(moving.data[:7], mids[:7], durations[:7], size),
                      FrameSeries(moving.data, mids + 3.0, durations, size),
                      FrameSeries(moving.data, mids, durations * 0.5, size)):
        with pytest.raises(DimensionError):
            ph.evaluate_correction(corrected, truth, true_fields, true_fields, spec, ifn)


def test_evaluate_rejects_a_phantom_of_another_grid(phantom):
    # the body and tumor masks come from the spec's grid; a spec of another
    # grid than the series is rejected instead of broadcast
    _spec, ifn, truth = phantom
    moving, true_fields = ph.inject_motion(truth, ph.MotionSpec(seed=0))
    assert truth.grid == (16, 16, 32)
    with pytest.raises(DimensionError):
        ph.evaluate_correction(moving, truth, true_fields, true_fields,
                               ph.PhantomSpec(grid=(16, 16, 16)), ifn)


def test_apply_on_a_downsampled_grid():
    # working grid 16x16x24, padded to 16x16x32 for the U-Net, cropped back
    # and upsampled to 32x32x48
    spec = ph.PhantomSpec(grid=(32, 32, 48))
    truth = ph.simulate_frames(spec, ph.sample_input_function(), *ph.default_frame_times())
    moving, _ = ph.inject_motion(truth, ph.MotionSpec(seed=1))
    cfg = tr.TrainConfig(downsample_factor=2)
    model = make_model()
    k, b = model.tensors["flow.k"], model.tensors["flow.b"]
    k.data[:] = 0.0
    b.data[:] = (0.25, 0.0, 0.0)
    corrected, fields = tr.apply(model, moving, cfg)
    want = np.zeros((3, 32, 32, 48), dtype=np.float32)
    want[0] = 0.5
    for i in range(moving.frames):
        if i == cfg.reference_index:
            continue
        np.testing.assert_array_equal(fields[i].data, want)
        np.testing.assert_array_equal(corrected.data[i],
                                      ad.warp(moving.data[i], ad.constant(fields[i].data)).data)

    b.data[:] = 0.0
    corrected, _ = tr.apply(model, moving, cfg)
    np.testing.assert_array_equal(corrected.data, moving.data)
    with pytest.raises(DimensionError):
        tr.apply(model, moving, tr.TrainConfig(downsample_factor=3))


def test_simulate_frames_rejects_decreasing_mid_times():
    mids, durations = ph.default_frame_times(n_frames=3)
    with pytest.raises(DimensionError):
        ph.simulate_frames(ph.PhantomSpec(), ph.sample_input_function(), mids[::-1], durations)


@pytest.mark.parametrize("grid", [(16, 16), (16.5, 16, 32), (16, 16, 32, 1), (0, 16, 32), 16])
def test_phantom_rejects_a_grid_of_other_than_3_positive_integer_extents(grid):
    # these used to fail further in: an IndexError, numpy's TypeError, a
    # failed unpack in kinetic_maps, a tumor center "outside grid", or a
    # TypeError from len()
    with pytest.raises(DimensionError, match="phantom grid"):
        ph.PhantomSpec(grid=grid)


def test_phantom_accepts_numpy_integer_extents():
    ki, vb = ph.PhantomSpec(grid=tuple(np.int64(n) for n in (16, 16, 32))).kinetic_maps()
    assert ki.shape == vb.shape == (16, 16, 32)


def test_a_series_with_no_frame_is_rejected():
    # an empty schedule used to fail in np.stack, and an empty series in apply
    mids, durations = ph.default_frame_times(0)
    with pytest.raises(DimensionError, match="at least one frame"):
        ph.simulate_frames(ph.PhantomSpec(), ph.sample_input_function(), mids, durations)
    with pytest.raises(DimensionError, match="at least one frame"):
        FrameSeries(np.zeros((0, 16, 16, 32)), [], [])


def test_motion_rejects_negative_reference_index():
    with pytest.raises(ConfigurationError):
        ph.MotionSpec(reference_index=-1)


@pytest.mark.parametrize("field", ["seed", "reference_index"])
def test_motion_rejects_non_integer_seed_and_reference_index(field):
    # a reference index of 0.5 used to pass and leave no frame unmoved
    for bad in (0.5, True, 1.5):
        with pytest.raises(ConfigurationError, match=field):
            ph.MotionSpec(**{field: bad})
    ph.MotionSpec(**{field: np.int64(1)})


def test_inject_motion_rejects_reference_index_past_last_frame(phantom):
    _spec, _ifn, truth = phantom
    with pytest.raises(ConfigurationError):
        ph.inject_motion(truth, ph.MotionSpec(reference_index=truth.frames))


def test_apply_rejects_reference_index_past_last_frame(phantom):
    _spec, _ifn, truth = phantom
    with pytest.raises(ConfigurationError, match="out of range for 8 frames"):
        tr.apply(make_model(), truth, config(reference_index=truth.frames))


def test_train_rejects_reference_index_past_last_frame(phantom):
    _spec, _ifn, truth = phantom
    with pytest.raises(ConfigurationError, match="out of range for 8 frames"):
        tr.train(make_model(), VARIANT, [truth], config(reference_index=truth.frames))


def test_train_rejects_no_windows():
    with pytest.raises(ConfigurationError):
        tr.train(make_model(), VARIANT, [], config(epochs=2))


def test_train_rejects_a_series_shorter_than_the_window(phantom):
    _spec, _ifn, truth = phantom
    first4 = FrameSeries(truth.data[:4], truth.mid_times[:4], truth.durations[:4],
                         truth.voxel_size_mm)
    with pytest.raises(ConfigurationError, match="4 frames < window length 5"):
        tr.train(make_model(), VARIANT, [first4], config())


# per TrainConfig field, values that used to pass the boundary and fail, or
# pass silently, further in: a float count raised TypeError in mean_pool or in
# train, reference_index=1.0 raised IndexError, and a NaN rate was accepted
BAD_TRAIN_CONFIG = {
    "learning_rate": [float("nan"), float("inf"), "1e-3", None],
    "epochs": [1.5, 1.0, True, None],
    "seed": [0.5, "0"],
    "downsample_factor": [2.0, np.float64(2.0), None],
    "reference_index": [1.0, False],
}


@pytest.mark.parametrize("field", sorted(BAD_TRAIN_CONFIG))
def test_train_config_rejects_non_integer_counts_and_non_finite_rates(field):
    for bad in BAD_TRAIN_CONFIG[field]:
        with pytest.raises(ConfigurationError, match=field):
            tr.TrainConfig(**{field: bad})
    # numpy integers and integral rates are accepted
    tr.TrainConfig(epochs=np.int64(2), seed=np.int32(3), learning_rate=1)
