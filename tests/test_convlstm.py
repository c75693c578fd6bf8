"""The LSTM cell, convolutional and dense, against straight-line oracles, the
network's recurrence over the frames of a window, and gate invariants."""

import numpy as np
import pytest

from moco4d import autodiff as ad
from moco4d import convlstm as cl
from moco4d import network as net
from moco4d.errors import DimensionError

from gradcheck import grad_check
from oracles import convlstm_step_scalar, dense_lstm_step_formula


def random_params(rng, cin, hidden, kernel=(3, 3, 3), dtype=np.float64, prefix="cell"):
    p = cl.init_convlstm_params(rng, cin, hidden, kernel=kernel, dtype=dtype,
                                prefix=prefix)
    # randomize biases too so trivial cases don't hide bugs
    p.b.data[:] = rng.normal(size=4 * hidden)
    return p


def zero_params(cin, hidden, kernel=(3, 3, 3)):
    rng = np.random.default_rng(0)
    p = cl.init_convlstm_params(rng, cin, hidden, kernel=kernel, dtype=np.float64)
    p.k.data[:] = 0.0
    p.b.data[:] = 0.0
    return p


def gate_rows(hidden):
    return {g: slice(n * hidden, (n + 1) * hidden) for n, g in enumerate(cl.GATES)}


def gate_slices(p):
    """Per-gate (w, u, b) dicts cut from the packed kernel, for the scalar oracle."""
    c = p.in_channels
    rows = gate_rows(p.hidden)
    return ({g: p.k.data[r, :c] for g, r in rows.items()},
            {g: p.k.data[r, c:] for g, r in rows.items()},
            {g: p.b.data[r] for g, r in rows.items()})


class TestInit:
    def test_conv_cell_packs_per_gate_draws(self):
        cin, hid, ks = 3, 2, 3
        p = cl.init_convlstm_params(np.random.default_rng(4), cin, hid, kernel=(ks,) * 3,
                                    forget_bias=0.7, dtype=np.float32, prefix="scell")
        assert sorted(p.named()) == ["scell.b", "scell.k"]
        assert p.k.shape == (4 * hid, cin + hid, ks, ks, ks)
        assert (p.in_channels, p.hidden) == (cin, hid)
        # per gate i, f, c, o: W then U, each at its own fan-in limit
        rng = np.random.default_rng(4)
        lim_w, lim_u = np.sqrt(1.0 / (cin * ks ** 3)), np.sqrt(1.0 / (hid * ks ** 3))
        for r in gate_rows(hid).values():
            w = rng.uniform(-lim_w, lim_w, (hid, cin, ks, ks, ks)).astype(np.float32)
            u = rng.uniform(-lim_u, lim_u, (hid, hid, ks, ks, ks)).astype(np.float32)
            np.testing.assert_array_equal(p.k.data[r, :cin], w)
            np.testing.assert_array_equal(p.k.data[r, cin:], u)
        np.testing.assert_array_equal(
            p.b.data, np.array([0.0, 0.0, 0.7, 0.7, 0.0, 0.0, 0.0, 0.0], dtype=np.float32))

    def test_dense_cell_packs_per_gate_draws(self):
        # a 0-D kernel: the packed [4h, features + h] matrix holds, per gate,
        # the W [h, features] then U [h, h] draws at fan-ins features and h
        feat, hid = 5, 3
        p = cl.init_convlstm_params(np.random.default_rng(5), feat, hid, kernel=(),
                                    forget_bias=0.7, dtype=np.float64, prefix="blstm")
        assert sorted(p.named()) == ["blstm.b", "blstm.k"]
        assert p.k.shape == (4 * hid, feat + hid)
        assert (p.in_channels, p.hidden) == (feat, hid)
        rng = np.random.default_rng(5)
        for r in gate_rows(hid).values():
            np.testing.assert_array_equal(
                p.k.data[r, :feat],
                rng.uniform(-np.sqrt(1.0 / feat), np.sqrt(1.0 / feat), (hid, feat)))
            np.testing.assert_array_equal(
                p.k.data[r, feat:],
                rng.uniform(-np.sqrt(1.0 / hid), np.sqrt(1.0 / hid), (hid, hid)))
        np.testing.assert_array_equal(p.b.data, np.repeat([0.0, 0.7, 0.0, 0.0], hid))


class TestStep:
    def test_zero_params_zero_state(self):
        p = zero_params(2, 3)
        x = ad.constant(np.random.default_rng(1).normal(size=(2, 3, 3, 3)))
        st = cl.convlstm_step(p, x, cl.zero_state(3, (3, 3, 3), dtype=np.float64))
        assert np.all(st.c.data == 0.0)
        assert np.all(st.h.data == 0.0)

    def test_zero_params_nonzero_state(self):
        # gates sit at 0.5, so c = 0.5*c0 and h = 0.5*tanh(0.5*c0)
        p = zero_params(2, 3)
        rng = np.random.default_rng(2)
        x = ad.constant(rng.normal(size=(2, 4, 4, 4)))
        h0 = rng.normal(size=(3, 4, 4, 4))
        c0 = rng.normal(size=(3, 4, 4, 4))
        st = cl.convlstm_step(p, x, cl.ConvLstmState(ad.constant(h0), ad.constant(c0)))
        np.testing.assert_allclose(st.c.data, 0.5 * c0, rtol=1e-14)
        np.testing.assert_allclose(st.h.data, 0.5 * np.tanh(0.5 * c0), rtol=1e-14)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_scalar_oracle(self, seed):
        rng = np.random.default_rng(seed)
        p = random_params(rng, 2, 2)
        x = rng.normal(size=(2, 3, 3, 3))
        h0 = rng.normal(size=(2, 3, 3, 3))
        c0 = rng.normal(size=(2, 3, 3, 3))
        st = cl.convlstm_step(p, ad.constant(x),
                              cl.ConvLstmState(ad.constant(h0), ad.constant(c0)))
        w, u, b = gate_slices(p)
        h_ref, c_ref = convlstm_step_scalar(w, u, b, x, h0, c0)
        assert np.abs(st.h.data - h_ref).max() <= 1e-12
        assert np.abs(st.c.data - c_ref).max() <= 1e-12

    def test_shape_mismatch(self):
        p = zero_params(2, 3)
        x = ad.constant(np.zeros((4, 3, 3, 3)))
        with pytest.raises(DimensionError):
            cl.convlstm_step(p, x, cl.zero_state(3, (3, 3, 3), dtype=np.float64))


def window(rng, extents, frames):
    return net.FramePairSequence(rng.normal(size=extents),
                                 [rng.normal(size=extents) for _ in range(frames)])


def pair(seq, t):
    return ad.constant(np.stack([seq.moving[t], seq.reference]))


class TestUnroll:
    """The recurrence in `network.forward_fields`, the one loop every
    recurrent variant runs, against the network's blocks chained by hand."""

    EXTENTS = (16, 16, 16)

    def make(self, variant, seed):
        return net.init_net_params(variant, np.random.default_rng(seed),
                                   extents=self.EXTENTS, dtype=np.float64)

    def test_length_one_equals_step(self):
        # one frame: one cell step at the bottleneck from a zero state
        params = self.make(net.NetVariant.B_CONVLSTM, 5)
        seq = window(np.random.default_rng(5), self.EXTENTS, 1)
        (got,) = net.forward_fields(params, seq)
        skips, bottom = net._encode(params, pair(seq, 0))
        st = cl.convlstm_step(params.cell, bottom,
                              cl.zero_state(32, bottom.shape[1:], dtype=np.float64))
        want = net._flow(params, net._decode(params, skips, st.h))
        np.testing.assert_array_equal(got.data, want.data)

    def test_zero_params_zero_init_all_zero(self):
        p = zero_params(2, 3)
        rng = np.random.default_rng(6)
        st = cl.zero_state(3, (3, 3, 3), dtype=np.float64)
        for _ in range(4):
            st = cl.convlstm_step(p, ad.constant(rng.normal(size=(2, 3, 3, 3))), st)
            assert np.all(st.h.data == 0.0) and np.all(st.c.data == 0.0)
        # so a zeroed bottleneck cell carries nothing between frames: each
        # frame's field is the one it gets in a window of its own
        params = self.make(net.NetVariant.B_CONVLSTM, 6)
        params.cell.k.data[:] = 0.0
        params.cell.b.data[:] = 0.0
        seq = window(rng, self.EXTENTS, 3)
        fields = net.estimate_displacements(params, seq)
        for t in range(3):
            alone = net.FramePairSequence(seq.reference, [seq.moving[t]])
            np.testing.assert_array_equal(fields[t],
                                          net.estimate_displacements(params, alone)[0])

    def test_equals_explicit_chaining(self):
        # S-ConvLSTM: the cell runs after the decoder's serial conv, and its
        # state carries from each frame to the next
        params = self.make(net.NetVariant.S_CONVLSTM, 7)
        seq = window(np.random.default_rng(7), self.EXTENTS, 3)
        fields = net.forward_fields(params, seq)
        st = cl.zero_state(32, self.EXTENTS, dtype=np.float64)
        for t in range(3):
            skips, bottom = net._encode(params, pair(seq, t))
            feat = net._conv_block(params, "sconv", net._decode(params, skips, bottom), 1)
            st = cl.convlstm_step(params.cell, feat, st)
            np.testing.assert_array_equal(fields[t].data, net._flow(params, st.h).data)

    def test_dense_cell_reads_frames_flattened(self):
        # B-LSTM: hidden = bottleneck voxel count; the cell reads each frame's
        # bottleneck flattened and its h comes back as one channel on the grid
        params = self.make(net.NetVariant.B_LSTM, 8)
        spatial = params.bottleneck_spatial
        assert params.cell.hidden == int(np.prod(spatial))
        seq = window(np.random.default_rng(8), self.EXTENTS, 3)
        fields = net.forward_fields(params, seq)
        st = cl.zero_state(params.cell.hidden, (), dtype=np.float64)
        for t in range(3):
            skips, bottom = net._encode(params, pair(seq, t))
            st = cl.convlstm_step(params.cell, ad.constant(bottom.data.ravel()), st)
            h = ad.constant(st.h.data.reshape(1, *spatial))
            feat = net._decode(params, skips, net._conv_block(params, "restore", h, 1))
            np.testing.assert_array_equal(fields[t].data, net._flow(params, feat).data)

    def test_empty_sequence_rejected(self):
        # a window with no moving frame never reaches the recurrence
        with pytest.raises(DimensionError):
            net.FramePairSequence(np.zeros((3, 3, 3)), [])


class TestDense:
    """The dense cell: the same cell with a 0-D kernel, on flat vectors."""

    def test_zero_params_fixed_points(self):
        rng = np.random.default_rng(8)
        p = zero_params(4, 3, kernel=())
        x = ad.constant(rng.normal(size=4))
        c0 = rng.normal(size=3)
        st = cl.convlstm_step(p, x, cl.ConvLstmState(
            ad.constant(np.zeros(3)), ad.constant(c0)))
        np.testing.assert_allclose(st.c.data, 0.5 * c0, rtol=1e-14)
        np.testing.assert_allclose(st.h.data, 0.5 * np.tanh(0.5 * c0), rtol=1e-14)

    def test_two_unit_hand_computed(self):
        # one feature, two hidden units, hand-picked round numbers
        p = zero_params(1, 2, kernel=())
        for r, val in zip(gate_rows(2).values(), (0.5, -0.5, 1.0, 0.25)):
            p.k.data[r, 0] = val
        x = ad.constant(np.array([2.0]))
        st = cl.convlstm_step(p, x, cl.zero_state(2, (), dtype=np.float64))
        sig = lambda v: 1.0 / (1.0 + np.exp(-v))
        i, f, ch, o = sig(1.0), sig(-1.0), np.tanh(2.0), sig(0.5)
        c_want = i * ch
        h_want = o * np.tanh(c_want)
        np.testing.assert_allclose(st.c.data, [c_want, c_want], rtol=1e-14)
        np.testing.assert_allclose(st.h.data, [h_want, h_want], rtol=1e-14)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_separate_matrix_formula(self, seed):
        # one matvec of the packed kernel on concat[x, h] against W x + U h + b
        rng = np.random.default_rng(seed)
        feat, hid = 7, 4
        p = random_params(rng, feat, hid, kernel=())
        x, h0, c0 = rng.normal(size=feat), rng.normal(size=hid), rng.normal(size=hid)
        st = cl.convlstm_step(p, ad.constant(x),
                              cl.ConvLstmState(ad.constant(h0), ad.constant(c0)))
        h_ref, c_ref = dense_lstm_step_formula(p.k.data[:, :feat], p.k.data[:, feat:],
                                               p.b.data, x, h0, c0)
        np.testing.assert_allclose(st.h.data, h_ref, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(st.c.data, c_ref, rtol=1e-12, atol=0.0)

    def test_shape_mismatch(self):
        p = zero_params(4, 3, kernel=())
        with pytest.raises(DimensionError):
            cl.convlstm_step(p, ad.constant(np.zeros(5)), cl.zero_state(3, (), np.float64))
        with pytest.raises(DimensionError):
            cl.convlstm_step(p, ad.constant(np.zeros(4)), cl.zero_state(2, (), np.float64))

    def test_degenerate_equivalence_with_conv_cell(self):
        # a 1x1x1 feature map with 1^3 kernels is exactly the dense cell
        rng = np.random.default_rng(9)
        cin, hid = 3, 2
        conv_p = random_params(rng, cin, hid, kernel=(1, 1, 1))
        dense_p = random_params(rng, cin, hid, kernel=())
        dense_p.k.data[:] = conv_p.k.data[..., 0, 0, 0]
        dense_p.b.data[:] = conv_p.b.data
        x = rng.normal(size=cin)
        h0 = rng.normal(size=hid)
        c0 = rng.normal(size=hid)
        st_conv = cl.convlstm_step(
            conv_p, ad.constant(x.reshape(cin, 1, 1, 1)),
            cl.ConvLstmState(ad.constant(h0.reshape(hid, 1, 1, 1)),
                             ad.constant(c0.reshape(hid, 1, 1, 1))))
        st_dense = cl.convlstm_step(
            dense_p, ad.constant(x),
            cl.ConvLstmState(ad.constant(h0), ad.constant(c0)))
        np.testing.assert_allclose(st_conv.h.data.ravel(), st_dense.h.data, rtol=1e-13)
        np.testing.assert_allclose(st_conv.c.data.ravel(), st_dense.c.data, rtol=1e-13)


class TestInvariants:
    def test_gate_ranges_and_h_bound(self):
        # 1e4 random voxels across instances: i, f, o in (0,1), |h| < 1
        rng = np.random.default_rng(10)
        total = 0
        while total < 10_000:
            p = random_params(rng, 2, 2)
            x = ad.constant(rng.normal(scale=2.0, size=(2, 5, 5, 5)))
            h0 = ad.constant(rng.normal(scale=2.0, size=(2, 5, 5, 5)))
            c0 = ad.constant(rng.normal(scale=2.0, size=(2, 5, 5, 5)))
            st = cl.convlstm_step(p, x, cl.ConvLstmState(h0, c0))
            assert np.abs(st.h.data).max() < 1.0
            # input gate: the first row block of the packed kernel
            pre = ad.conv3d(ad.concat_channels([x, h0]), ad.constant(p.k.data[:p.hidden]),
                            ad.constant(p.b.data[:p.hidden]), 1, 1)
            gate = ad.sigmoid(pre).data
            assert np.all((gate > 0.0) & (gate < 1.0))
            total += st.h.data.size

    def test_cell_state_bound(self):
        # |c_t| <= |c_prev| + 1 elementwise
        rng = np.random.default_rng(11)
        for _ in range(5):
            p = random_params(rng, 2, 2)
            c0 = rng.normal(scale=3.0, size=(2, 4, 4, 4))
            st = cl.convlstm_step(
                p, ad.constant(rng.normal(size=(2, 4, 4, 4))),
                cl.ConvLstmState(ad.constant(rng.normal(size=(2, 4, 4, 4))),
                                 ad.constant(c0)))
            assert np.all(np.abs(st.c.data) <= np.abs(c0) + 1.0)

    def test_gradients_through_two_step_unroll(self):
        rng = np.random.default_rng(12)
        p = random_params(rng, 2, 2, prefix="g")
        xs = [rng.normal(size=(2, 3, 3, 3)) for _ in range(2)]
        params = dict(p.named())

        def f(_):
            st = cl.zero_state(2, (3, 3, 3), dtype=np.float64)
            for x in xs:
                st = cl.convlstm_step(p, ad.constant(x), st)
            return ad.mean_all(ad.square(st.h))

        err = grad_check(f, params, h=1e-4, samples=150, rng=rng)
        assert err <= 1e-4

    def test_pointwise_kernels_commute_with_site_permutation(self):
        # with 1^3 kernels each voxel evolves independently
        rng = np.random.default_rng(13)
        p = random_params(rng, 2, 2, kernel=(1, 1, 1))
        x = rng.normal(size=(2, 1, 1, 6))
        h0 = rng.normal(size=(2, 1, 1, 6))
        c0 = rng.normal(size=(2, 1, 1, 6))
        perm = rng.permutation(6)
        st = cl.convlstm_step(p, ad.constant(x),
                              cl.ConvLstmState(ad.constant(h0), ad.constant(c0)))
        st_p = cl.convlstm_step(p, ad.constant(x[..., perm]),
                                cl.ConvLstmState(ad.constant(h0[..., perm]),
                                                 ad.constant(c0[..., perm])))
        np.testing.assert_allclose(st.h.data[..., perm], st_p.h.data, rtol=1e-13)
