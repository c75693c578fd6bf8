"""Network variants: parameter counts, shape contracts, equivalences."""

import numpy as np
import pytest

from moco4d import autodiff as ad
from moco4d import network as net
from moco4d.errors import DimensionError
from moco4d.network import FramePairSequence, NetVariant

from gradcheck import grad_check, make_gradcheck_instance, window_loss_fn
from oracles import PAPER_EXTENTS, count_params, expected_param_count, traced_peak_bytes

# pinned reference counts for the full-scale configuration
REFERENCE_COUNTS = {
    NetVariant.PAIRWISE: 327_331,
    NetVariant.MULTI_FRAME: 327_331,
    NetVariant.S_CONVLSTM: 501_571,
    NetVariant.B_CONVLSTM: 548_643,
    NetVariant.B_LSTM: 138_744_355,
}


def make_params(variant, seed=0, extents=(16, 16, 32), dtype=np.float64):
    rng = np.random.default_rng(seed)
    return net.init_net_params(variant, rng, extents=extents, dtype=dtype)


def zero_flow_head(params):
    k, b = params.tensors["flow.k"], params.tensors["flow.b"]
    k.data[:] = 0.0
    b.data[:] = 0.0
    return params


def mid_cell_flow_head(params, rng, kernel_std=1e-3):
    """Re-init the flow head so displacement values sit mid-cell (~0.3 voxel),
    away from the trilinear interpolation kinks at integer offsets where the
    warp is not differentiable."""
    k, b = params.tensors["flow.k"], params.tensors["flow.b"]
    k.data[:] = rng.normal(0.0, kernel_std, k.data.shape)
    b.data[:] = 0.3
    return params


class TestCounts:
    @pytest.mark.parametrize("variant", [NetVariant.PAIRWISE, NetVariant.MULTI_FRAME,
                                         NetVariant.S_CONVLSTM, NetVariant.B_CONVLSTM])
    def test_constructed_counts_match_reference(self, variant):
        params = net.init_net_params(variant, np.random.default_rng(0),
                                     extents=PAPER_EXTENTS, dtype=np.float32)
        assert count_params(params) == REFERENCE_COUNTS[variant]

    def test_dense_lstm_reference_count_closed_form(self):
        # full-scale dense-LSTM weights are too large to allocate here; the
        # closed form is validated against construction at desk scale below
        assert expected_param_count(NetVariant.B_LSTM,
                                    PAPER_EXTENTS) == REFERENCE_COUNTS[NetVariant.B_LSTM]

    @pytest.mark.parametrize("variant", list(NetVariant))
    def test_closed_form_matches_construction_at_desk_scale(self, variant):
        extents = (16, 16, 32)
        params = make_params(variant, extents=extents, dtype=np.float32)
        assert count_params(params) == expected_param_count(variant, extents)


class TestShapes:
    @pytest.mark.parametrize("extents", [(16, 16, 32), (32, 16, 16), (16, 16, 16)])
    def test_field_extents_match_input(self, extents):
        params = make_params(NetVariant.MULTI_FRAME, extents=extents, dtype=np.float32)
        rng = np.random.default_rng(1)
        seq = FramePairSequence(rng.normal(size=extents).astype(np.float32),
                                [rng.normal(size=extents).astype(np.float32)
                                 for _ in range(3)])
        fields = net.estimate_displacements(params, seq)
        assert len(fields) == 3
        for f in fields:
            assert f.shape == (3, *extents)

    def test_indivisible_extents_rejected(self):
        params = make_params(NetVariant.PAIRWISE, dtype=np.float32)
        seq = FramePairSequence(np.zeros((20, 16, 16), dtype=np.float32),
                                [np.zeros((20, 16, 16), dtype=np.float32)])
        with pytest.raises(DimensionError):
            net.estimate_displacements(params, seq)

    def test_zero_flow_head_gives_zero_fields(self):
        params = zero_flow_head(make_params(NetVariant.B_CONVLSTM, dtype=np.float32))
        rng = np.random.default_rng(2)
        seq = FramePairSequence(rng.normal(size=(16, 16, 16)).astype(np.float32),
                                [rng.normal(size=(16, 16, 16)).astype(np.float32)
                                 for _ in range(2)])
        for f in net.estimate_displacements(params, seq):
            assert np.all(f == 0.0)


    @pytest.mark.parametrize("extents", [(16, 16, 32), (32, 32, 64)])
    def test_conv_sub_plane_views_end_inside_their_plane_buffer(self, monkeypatch, extents):
        # as_strided checks no bounds: for every conv that the variants run,
        # each sub-plane view of the forward pass, the kernel gradient and the
        # stride-2 scatter (the input's plane layout) and of the stride-1
        # input gradient (the output gradient's) must lie inside its plane
        # buffer
        convs, conv3d = set(), ad.conv3d

        def recording(x, kernels, bias, stride=1):
            convs.add((x.shape, kernels.shape, stride))
            return conv3d(x, kernels, bias, stride)

        monkeypatch.setattr(ad, "conv3d", recording)
        rng = np.random.default_rng(3)
        frames = [rng.normal(size=extents).astype(np.float32) for _ in range(2)]
        for variant in NetVariant:
            params = make_params(variant, extents=extents, dtype=np.float32)
            net.estimate_displacements(params, FramePairSequence(frames[0], frames[1:]))
        assert len(convs) >= 12
        for x_shape, k_shape, stride in convs:
            cout = k_shape[0]
            out = [(n - 1) // stride + 1 for n in x_shape[1:]]
            layouts = [(x_shape, stride)]
            if stride == 1:
                layouts.append(((cout, *out), 1))
            for shape, s in layouts:
                xp = ad._planes(np.zeros(shape, np.float32), s)
                lo = xp.__array_interface__["data"][0]
                do = ad._conv_extents(xp.shape, s)[0][0]
                for _, _, view in ad._sub_plane_views(xp, s, 0, do):
                    start = view.__array_interface__["data"][0]
                    end = start + sum((n - 1) * st for n, st in zip(view.shape, view.strides))
                    assert lo <= start and end + view.itemsize <= lo + xp.nbytes


class TestInference:
    @pytest.mark.parametrize("variant", [NetVariant.B_CONVLSTM, NetVariant.B_LSTM])
    def test_forward_outside_a_tape_keeps_no_graph(self, variant):
        params = make_params(variant, extents=(16, 16, 16), dtype=np.float32)
        rng = np.random.default_rng(3)
        seq = FramePairSequence(rng.normal(size=(16, 16, 16)).astype(np.float32),
                                [rng.normal(size=(16, 16, 16)).astype(np.float32)
                                 for _ in range(2)])
        fields = net.forward_fields(params, seq)
        assert all(f.node.parents == () and f.vjp is None for f in fields)
        with ad.Tape():
            taped = net.forward_fields(params, seq)
        assert all(f.node.parents and f.vjp is not None for f in taped)
        for f, f_t in zip(fields, taped):
            np.testing.assert_array_equal(f.data, f_t.data)

    @pytest.mark.parametrize("variant", [NetVariant.B_CONVLSTM, NetVariant.S_CONVLSTM,
                                         NetVariant.B_LSTM])
    def test_window_prefix_gives_field_prefix(self, variant):
        # frames run one at a time and the cell only looks back, so the first
        # k frames of a window get the fields they get in a window of k
        params = make_params(variant, seed=9, extents=(16, 16, 16), dtype=np.float32)
        rng = np.random.default_rng(9)
        ref = rng.normal(size=(16, 16, 16)).astype(np.float32)
        movs = [rng.normal(size=(16, 16, 16)).astype(np.float32) for _ in range(4)]
        whole = net.estimate_displacements(params, FramePairSequence(ref, movs))
        for k in (1, 3):
            prefix = net.estimate_displacements(params, FramePairSequence(ref, movs[:k]))
            for f_p, f_w in zip(prefix, whole[:k]):
                np.testing.assert_array_equal(f_p, f_w)

    def test_inference_memory_does_not_grow_with_the_window(self):
        # frame-serial inference holds one frame's activations at a time, so
        # a 5-frame window peaks near a 1-frame one (1.14x here); activations
        # held for the whole window put it at about 4.6x
        params = make_params(NetVariant.B_CONVLSTM, extents=(16, 16, 32), dtype=np.float32)
        rng = np.random.default_rng(10)
        ref = rng.normal(size=(16, 16, 32)).astype(np.float32)
        movs = [rng.normal(size=(16, 16, 32)).astype(np.float32) for _ in range(5)]

        def peak(frames):
            seq = FramePairSequence(ref, movs[:frames])
            return traced_peak_bytes(lambda: net.estimate_displacements(params, seq))

        assert peak(5) < 1.5 * peak(1)

    def test_conv_block_activates_the_conv_output_in_place(self, monkeypatch):
        # the pre-activation copy is never made: the activation is written
        # over the conv output, which its VJP does not read
        outputs, conv3d = [], ad.conv3d

        def recording(*args, **kwargs):
            outputs.append(conv3d(*args, **kwargs))
            return outputs[-1]

        monkeypatch.setattr(ad, "conv3d", recording)
        params = make_params(NetVariant.PAIRWISE, dtype=np.float32)
        x = np.random.default_rng(13).normal(size=(2, 16, 16, 32)).astype(np.float32)
        with ad.Tape() as tape:
            y = net._conv_block(params, "enc0", ad.constant(x), stride=1)
        [conv] = outputs
        assert y.node.parents == (conv.node,)
        assert [n.op for n in tape.nodes] == ["conv3d", "leaky_relu"]
        assert np.shares_memory(y.data, conv.data)


class TestEquivalences:
    def test_multi_frame_equals_pairwise_with_shared_weights(self):
        # identical moving frames through the window: every field equals the
        # single pairwise field computed from the same weights
        extents = (16, 16, 16)
        pw = make_params(NetVariant.PAIRWISE, seed=3, extents=extents)
        mf = make_params(NetVariant.MULTI_FRAME, seed=3, extents=extents)
        assert mf.tensors.keys() == pw.tensors.keys()
        for name, p in pw.tensors.items():
            mf.tensors[name].data[:] = p.data
        rng = np.random.default_rng(4)
        ref = rng.normal(size=extents)
        mov = rng.normal(size=extents)
        f_pw = net.estimate_displacements(pw, FramePairSequence(ref, [mov]))[0]
        fs_mf = net.estimate_displacements(mf, FramePairSequence(ref, [mov] * 5))
        # both run the same per-frame code, so the fields are bit-identical
        for f in fs_mf:
            np.testing.assert_array_equal(f, f_pw)

    def test_multi_frame_is_permutation_equivariant(self):
        extents = (16, 16, 16)
        params = make_params(NetVariant.MULTI_FRAME, seed=5, extents=extents)
        rng = np.random.default_rng(6)
        ref = rng.normal(size=extents)
        movs = [rng.normal(size=extents) for _ in range(4)]
        fields = net.estimate_displacements(params, FramePairSequence(ref, movs))
        perm = [2, 0, 3, 1]
        fields_p = net.estimate_displacements(
            params, FramePairSequence(ref, [movs[i] for i in perm]))
        for j, i in enumerate(perm):
            np.testing.assert_array_equal(fields_p[j], fields[i])

    def test_recurrent_variant_is_order_sensitive(self):
        extents = (16, 16, 16)
        params = make_params(NetVariant.B_CONVLSTM, seed=7, extents=extents)
        rng = np.random.default_rng(8)
        mid_cell_flow_head(params, rng, kernel_std=0.05)
        ref = rng.normal(size=extents)
        movs = [rng.normal(size=extents) for _ in range(3)]
        f_fwd = net.estimate_displacements(params, FramePairSequence(ref, movs))
        f_rev = net.estimate_displacements(params, FramePairSequence(ref, movs[::-1]))
        # the last frame of the reversed window is the first of the forward one
        assert not np.allclose(f_rev[-1], f_fwd[0])

    def test_pairwise_window_gives_one_frame_fields(self):
        # every variant runs frame by frame, so a pairwise model on a window
        # returns, bit for bit, the field of each frame registered alone
        extents = (16, 16, 16)
        params = make_params(NetVariant.PAIRWISE, seed=11, extents=extents,
                             dtype=np.float32)
        rng = np.random.default_rng(11)
        mid_cell_flow_head(params, rng, kernel_std=0.05)
        ref = rng.normal(size=extents).astype(np.float32)
        movs = [rng.normal(size=extents).astype(np.float32) for _ in range(5)]
        fields = net.estimate_displacements(params, FramePairSequence(ref, movs))
        assert len(fields) == 5
        for mov, f in zip(movs, fields):
            alone = net.estimate_displacements(params, FramePairSequence(ref, [mov]))
            np.testing.assert_array_equal(f, alone[0])


class TestGradients:
    @pytest.mark.parametrize("variant", [NetVariant.B_CONVLSTM, NetVariant.S_CONVLSTM,
                                         NetVariant.B_LSTM])
    def test_end_to_end_gradient_small(self, variant):
        params, seq, cfg = make_gradcheck_instance(extents=(16, 16, 16), frames=2,
                                                   seed=21, variant=variant)
        f = window_loss_fn(params, seq, cfg)
        err = grad_check(f, params.named(), h=1e-4, samples=40,
                         rng=np.random.default_rng(0), min_grad=1e-3,
                         refine=True, tol=1e-4)
        assert err <= 1e-4
