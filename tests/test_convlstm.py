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
    """The cell's (k, b) tensors."""
    p = cl.init_convlstm_params(rng, cin, hidden, kernel=kernel, dtype=dtype,
                                prefix=prefix)
    k, b = p[f"{prefix}.k"], p[f"{prefix}.b"]
    # randomize biases too so trivial cases don't hide bugs
    b.data[:] = rng.normal(size=4 * hidden)
    return k, b


def zero_params(cin, hidden, kernel=(3, 3, 3)):
    rng = np.random.default_rng(0)
    p = cl.init_convlstm_params(rng, cin, hidden, kernel=kernel, dtype=np.float64)
    k, b = p["convlstm.k"], p["convlstm.b"]
    k.data[:] = 0.0
    b.data[:] = 0.0
    return k, b


def state(h, c):
    return cl.ConvLstmState(ad.constant(h), ad.constant(c))


def gate_rows(hidden):
    return {g: slice(n * hidden, (n + 1) * hidden) for n, g in enumerate(cl.GATES)}


def gate_slices(k, b):
    """Per-gate (w, u, b) dicts cut from the packed kernel, for the scalar oracle."""
    hidden = k.shape[0] // 4
    c = k.shape[1] - hidden
    rows = gate_rows(hidden)
    return ({g: k.data[r, :c] for g, r in rows.items()},
            {g: k.data[r, c:] for g, r in rows.items()},
            {g: b.data[r] for g, r in rows.items()})


class TestInit:
    def test_conv_cell_packs_per_gate_draws(self):
        cin, hid, ks = 3, 2, 3
        p = cl.init_convlstm_params(np.random.default_rng(4), cin, hid, kernel=(ks,) * 3,
                                    dtype=np.float32, prefix="scell")
        assert sorted(p) == ["scell.b", "scell.k"]
        k, b = p["scell.k"], p["scell.b"]
        assert (k.name, b.name) == ("scell.k", "scell.b")
        assert k.shape == (4 * hid, cin + hid, ks, ks, ks)
        # a step reads the input and hidden sizes off the kernel's shape
        st = cl.convlstm_step(k, b, ad.constant(np.zeros((cin, 2, 2, 2), np.float32)), None)
        assert st.h.shape == st.c.shape == (hid, 2, 2, 2)
        # per gate i, f, c, o: W then U, each at its own fan-in limit
        rng = np.random.default_rng(4)
        lim_w, lim_u = np.sqrt(1.0 / (cin * ks ** 3)), np.sqrt(1.0 / (hid * ks ** 3))
        for r in gate_rows(hid).values():
            w = rng.uniform(-lim_w, lim_w, (hid, cin, ks, ks, ks)).astype(np.float32)
            u = rng.uniform(-lim_u, lim_u, (hid, hid, ks, ks, ks)).astype(np.float32)
            np.testing.assert_array_equal(k.data[r, :cin], w)
            np.testing.assert_array_equal(k.data[r, cin:], u)
        fb = cl.FORGET_BIAS
        np.testing.assert_array_equal(
            b.data, np.array([0.0, 0.0, fb, fb, 0.0, 0.0, 0.0, 0.0], dtype=np.float32))

    def test_dense_cell_packs_per_gate_draws(self):
        # a 0-D kernel: the packed [4h, features + h] matrix holds, per gate,
        # the W [h, features] then U [h, h] draws at fan-ins features and h
        feat, hid = 5, 3
        p = cl.init_convlstm_params(np.random.default_rng(5), feat, hid, kernel=(),
                                    dtype=np.float64, prefix="blstm")
        assert sorted(p) == ["blstm.b", "blstm.k"]
        k, b = p["blstm.k"], p["blstm.b"]
        assert (k.name, b.name) == ("blstm.k", "blstm.b")
        assert k.shape == (4 * hid, feat + hid)
        st = cl.convlstm_step(k, b, ad.constant(np.zeros(feat)), None)
        assert st.h.shape == st.c.shape == (hid,)
        rng = np.random.default_rng(5)
        for r in gate_rows(hid).values():
            np.testing.assert_array_equal(
                k.data[r, :feat],
                rng.uniform(-np.sqrt(1.0 / feat), np.sqrt(1.0 / feat), (hid, feat)))
            np.testing.assert_array_equal(
                k.data[r, feat:],
                rng.uniform(-np.sqrt(1.0 / hid), np.sqrt(1.0 / hid), (hid, hid)))
        np.testing.assert_array_equal(b.data, np.repeat([0.0, cl.FORGET_BIAS, 0.0, 0.0], hid))


class TestStep:
    def test_zero_params_zero_state(self):
        k, b = zero_params(2, 3)
        x = ad.constant(np.random.default_rng(1).normal(size=(2, 3, 3, 3)))
        st = cl.convlstm_step(k, b, x, None)
        assert np.all(st.c.data == 0.0)
        assert np.all(st.h.data == 0.0)

    def test_zero_params_nonzero_state(self):
        # gates sit at 0.5, so c = 0.5*c0 and h = 0.5*tanh(0.5*c0)
        k, b = zero_params(2, 3)
        rng = np.random.default_rng(2)
        x = ad.constant(rng.normal(size=(2, 4, 4, 4)))
        h0 = rng.normal(size=(3, 4, 4, 4))
        c0 = rng.normal(size=(3, 4, 4, 4))
        st = cl.convlstm_step(k, b, x, state(h0, c0))
        np.testing.assert_allclose(st.c.data, 0.5 * c0, rtol=1e-14)
        np.testing.assert_allclose(st.h.data, 0.5 * np.tanh(0.5 * c0), rtol=1e-14)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_scalar_oracle(self, seed):
        rng = np.random.default_rng(seed)
        k, b = random_params(rng, 2, 2)
        x = rng.normal(size=(2, 3, 3, 3))
        h0 = rng.normal(size=(2, 3, 3, 3))
        c0 = rng.normal(size=(2, 3, 3, 3))
        st = cl.convlstm_step(k, b, ad.constant(x), state(h0, c0))
        h_ref, c_ref = convlstm_step_scalar(*gate_slices(k, b), x, h0, c0)
        assert np.abs(st.h.data - h_ref).max() <= 1e-12
        assert np.abs(st.c.data - c_ref).max() <= 1e-12

    def test_shape_mismatch(self):
        k, b = zero_params(2, 3)
        x = ad.constant(np.zeros((4, 3, 3, 3)))
        with pytest.raises(DimensionError):
            cl.convlstm_step(k, b, x, None)

    @pytest.mark.parametrize("kernel, spatial", [((3, 3, 3), (3, 4, 5)), ((), ())])
    def test_no_state_is_the_zero_state(self, kernel, spatial):
        # conv cell and dense cell: a step from None is bit for bit a step
        # from explicit zero h and c
        rng = np.random.default_rng(14)
        k, b = random_params(rng, 3, 2, kernel=kernel)
        x = ad.constant(rng.normal(size=(3, *spatial)))
        zeros = np.zeros((2, *spatial))
        st = cl.convlstm_step(k, b, x, None)
        st_zero = cl.convlstm_step(k, b, x, state(zeros, zeros))
        assert st.h.data.dtype == st.c.data.dtype == np.float64
        np.testing.assert_array_equal(st.h.data, st_zero.h.data)
        np.testing.assert_array_equal(st.c.data, st_zero.c.data)


def window(rng, extents, frames):
    """A reference volume and `frames` moving frames."""
    return rng.normal(size=extents), [rng.normal(size=extents) for _ in range(frames)]


def pair(ref, movs, t):
    return ad.constant(np.stack([movs[t], ref]))


def flow(params, feat):
    """The network's flow head: the last conv, with no activation."""
    t = params.tensors
    return ad.conv3d(feat, t["flow.k"], t["flow.b"], stride=1)


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
        ref, movs = window(np.random.default_rng(5), self.EXTENTS, 1)
        (got,) = net.forward_fields(params, ref, movs)
        skips, bottom = net._encode(params, pair(ref, movs, 0))
        t = params.tensors
        st = cl.convlstm_step(t["bcell.k"], t["bcell.b"], bottom,
                              state(np.zeros((32, *bottom.shape[1:])),
                                    np.zeros((32, *bottom.shape[1:]))))
        want = flow(params, net._decode(params, skips, st.h))
        np.testing.assert_array_equal(got.data, want.data)

    def test_zero_params_zero_init_all_zero(self):
        k, b = zero_params(2, 3)
        rng = np.random.default_rng(6)
        st = None
        for _ in range(4):
            st = cl.convlstm_step(k, b, ad.constant(rng.normal(size=(2, 3, 3, 3))), st)
            assert np.all(st.h.data == 0.0) and np.all(st.c.data == 0.0)
        # so a zeroed bottleneck cell carries nothing between frames: each
        # frame's field is the one it gets in a window of its own
        params = self.make(net.NetVariant.B_CONVLSTM, 6)
        params.tensors["bcell.k"].data[:] = 0.0
        params.tensors["bcell.b"].data[:] = 0.0
        ref, movs = window(rng, self.EXTENTS, 3)
        fields = net.estimate_displacements(params, ref, movs)
        for t in range(3):
            np.testing.assert_array_equal(
                fields[t], net.estimate_displacements(params, ref, [movs[t]])[0])

    def test_equals_explicit_chaining(self):
        # S-ConvLSTM: the cell runs after the decoder's serial conv, and its
        # state carries from each frame to the next
        params = self.make(net.NetVariant.S_CONVLSTM, 7)
        ref, movs = window(np.random.default_rng(7), self.EXTENTS, 3)
        fields = net.forward_fields(params, ref, movs)
        k, b = params.tensors["scell.k"], params.tensors["scell.b"]
        st = state(np.zeros((32, *self.EXTENTS)), np.zeros((32, *self.EXTENTS)))
        for t in range(3):
            skips, bottom = net._encode(params, pair(ref, movs, t))
            feat = net._conv_block(params, "sconv", net._decode(params, skips, bottom), 1)
            st = cl.convlstm_step(k, b, feat, st)
            np.testing.assert_array_equal(fields[t].data, flow(params, st.h).data)

    def test_dense_cell_reads_frames_flattened(self):
        # B-LSTM: hidden = bottleneck voxel count; the cell reads each frame's
        # bottleneck flattened and its h comes back as one channel on the grid
        params = self.make(net.NetVariant.B_LSTM, 8)
        spatial = params.bottleneck_spatial
        s = int(np.prod(spatial))
        k, b = params.tensors["blstm.k"], params.tensors["blstm.b"]
        assert k.shape == (4 * s, 32 * s + s)
        ref, movs = window(np.random.default_rng(8), self.EXTENTS, 3)
        fields = net.forward_fields(params, ref, movs)
        st = state(np.zeros(s), np.zeros(s))
        for t in range(3):
            skips, bottom = net._encode(params, pair(ref, movs, t))
            st = cl.convlstm_step(k, b, ad.constant(bottom.data.ravel()), st)
            h = ad.constant(st.h.data.reshape(1, *spatial))
            feat = net._decode(params, skips, net._conv_block(params, "restore", h, 1))
            np.testing.assert_array_equal(fields[t].data, flow(params, feat).data)

    def test_empty_sequence_rejected(self):
        # a window with no moving frame never reaches the recurrence
        params = self.make(net.NetVariant.B_CONVLSTM, 9)
        with pytest.raises(DimensionError, match="moving frame"):
            net.forward_fields(params, np.zeros(self.EXTENTS), [])


class TestDense:
    """The dense cell: the same cell with a 0-D kernel, on flat vectors."""

    def test_zero_params_fixed_points(self):
        rng = np.random.default_rng(8)
        k, b = zero_params(4, 3, kernel=())
        x = ad.constant(rng.normal(size=4))
        c0 = rng.normal(size=3)
        st = cl.convlstm_step(k, b, x, state(np.zeros(3), c0))
        np.testing.assert_allclose(st.c.data, 0.5 * c0, rtol=1e-14)
        np.testing.assert_allclose(st.h.data, 0.5 * np.tanh(0.5 * c0), rtol=1e-14)

    def test_two_unit_hand_computed(self):
        # one feature, two hidden units, hand-picked round numbers
        k, b = zero_params(1, 2, kernel=())
        for r, val in zip(gate_rows(2).values(), (0.5, -0.5, 1.0, 0.25)):
            k.data[r, 0] = val
        x = ad.constant(np.array([2.0]))
        st = cl.convlstm_step(k, b, x, None)
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
        k, b = random_params(rng, feat, hid, kernel=())
        x, h0, c0 = rng.normal(size=feat), rng.normal(size=hid), rng.normal(size=hid)
        st = cl.convlstm_step(k, b, ad.constant(x), state(h0, c0))
        h_ref, c_ref = dense_lstm_step_formula(k.data[:, :feat], k.data[:, feat:],
                                               b.data, x, h0, c0)
        np.testing.assert_allclose(st.h.data, h_ref, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(st.c.data, c_ref, rtol=1e-12, atol=0.0)

    def test_shape_mismatch(self):
        k, b = zero_params(4, 3, kernel=())
        with pytest.raises(DimensionError):
            cl.convlstm_step(k, b, ad.constant(np.zeros(5)), None)
        with pytest.raises(DimensionError):
            cl.convlstm_step(k, b, ad.constant(np.zeros(4)), state(np.zeros(2), np.zeros(2)))

    def test_degenerate_equivalence_with_conv_cell(self):
        # on a 1x1x1 feature map the zero padding leaves only the centre tap
        # of each 3^3 kernel: the conv cell is exactly the dense cell whose
        # kernel is those centre taps
        rng = np.random.default_rng(9)
        cin, hid = 3, 2
        conv_k, conv_b = random_params(rng, cin, hid)
        dense_k, dense_b = random_params(rng, cin, hid, kernel=())
        dense_k.data[:] = conv_k.data[..., 1, 1, 1]
        dense_b.data[:] = conv_b.data
        x = rng.normal(size=cin)
        h0 = rng.normal(size=hid)
        c0 = rng.normal(size=hid)
        st_conv = cl.convlstm_step(
            conv_k, conv_b, ad.constant(x.reshape(cin, 1, 1, 1)),
            state(h0.reshape(hid, 1, 1, 1), c0.reshape(hid, 1, 1, 1)))
        st_dense = cl.convlstm_step(dense_k, dense_b, ad.constant(x), state(h0, c0))
        np.testing.assert_allclose(st_conv.h.data.ravel(), st_dense.h.data, rtol=1e-13)
        np.testing.assert_allclose(st_conv.c.data.ravel(), st_dense.c.data, rtol=1e-13)


class TestInvariants:
    def test_gate_ranges_and_h_bound(self):
        # 1e4 random voxels across instances: i, f, o in (0,1), |h| < 1
        rng = np.random.default_rng(10)
        total = 0
        while total < 10_000:
            k, b = random_params(rng, 2, 2)
            x = ad.constant(rng.normal(scale=2.0, size=(2, 5, 5, 5)))
            h0 = ad.constant(rng.normal(scale=2.0, size=(2, 5, 5, 5)))
            c0 = ad.constant(rng.normal(scale=2.0, size=(2, 5, 5, 5)))
            st = cl.convlstm_step(k, b, x, cl.ConvLstmState(h0, c0))
            assert np.abs(st.h.data).max() < 1.0
            # input gate: the first row block of the packed kernel
            pre = ad.conv3d(ad.concat_channels([x, h0]), ad.constant(k.data[:2]),
                            ad.constant(b.data[:2]), 1)
            gate = ad.sigmoid(pre).data
            assert np.all((gate > 0.0) & (gate < 1.0))
            total += st.h.data.size

    def test_cell_state_bound(self):
        # |c_t| <= |c_prev| + 1 elementwise
        rng = np.random.default_rng(11)
        for _ in range(5):
            k, b = random_params(rng, 2, 2)
            c0 = rng.normal(scale=3.0, size=(2, 4, 4, 4))
            st = cl.convlstm_step(k, b, ad.constant(rng.normal(size=(2, 4, 4, 4))),
                                  state(rng.normal(size=(2, 4, 4, 4)), c0))
            assert np.all(np.abs(st.c.data) <= np.abs(c0) + 1.0)

    def test_gradients_through_two_step_unroll(self):
        rng = np.random.default_rng(12)
        k, b = random_params(rng, 2, 2, prefix="g")
        xs = [rng.normal(size=(2, 3, 3, 3)) for _ in range(2)]
        params = {"g.k": k, "g.b": b}

        def f(_):
            st = None
            for x in xs:
                st = cl.convlstm_step(k, b, ad.constant(x), st)
            return ad.mean_all(ad.square(st.h))

        err = grad_check(f, params, h=1e-4, samples=150, rng=rng)
        assert err <= 1e-4

    def test_pointwise_kernels_commute_with_site_permutation(self):
        # with 3^3 kernels that are zero but for the centre tap each voxel
        # evolves independently
        rng = np.random.default_rng(13)
        k, b = random_params(rng, 2, 2)
        centre = k.data[..., 1, 1, 1].copy()
        k.data[:] = 0.0
        k.data[..., 1, 1, 1] = centre
        x = rng.normal(size=(2, 1, 1, 6))
        h0 = rng.normal(size=(2, 1, 1, 6))
        c0 = rng.normal(size=(2, 1, 1, 6))
        perm = rng.permutation(6)
        st = cl.convlstm_step(k, b, ad.constant(x), state(h0, c0))
        st_p = cl.convlstm_step(k, b, ad.constant(x[..., perm]),
                                state(h0[..., perm], c0[..., perm]))
        np.testing.assert_allclose(st.h.data[..., perm], st_p.h.data, rtol=1e-13)
