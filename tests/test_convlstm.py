"""ConvLSTM cell against the straight-line scalar oracle, plus gate invariants."""

import numpy as np
import pytest

from moco4d import autodiff as ad
from moco4d import convlstm as cl
from moco4d.errors import DimensionError

from gradcheck import grad_check
from oracles import convlstm_step_scalar


def random_params(rng, cin, hidden, kernel=3, dtype=np.float64, prefix="cell"):
    p = cl.init_convlstm_params(rng, cin, hidden, kernel=kernel, dtype=dtype,
                                prefix=prefix)
    # randomize biases too so trivial cases don't hide bugs
    p.b.data[:] = rng.normal(size=4 * hidden)
    return p


def zero_params(cin, hidden, kernel=3):
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
        p = cl.init_convlstm_params(np.random.default_rng(4), cin, hid, kernel=ks,
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
        feat, hid = 5, 3
        p = cl.init_dense_lstm_params(np.random.default_rng(5), feat, hid,
                                      forget_bias=0.7, dtype=np.float64)
        assert sorted(p.named()) == ["blstm.b", "blstm.u", "blstm.w"]
        assert (p.features, p.hidden) == (feat, hid)
        rng = np.random.default_rng(5)
        for r in gate_rows(hid).values():
            np.testing.assert_array_equal(
                p.w.data[r], rng.uniform(-np.sqrt(1.0 / feat), np.sqrt(1.0 / feat), (hid, feat)))
            np.testing.assert_array_equal(
                p.u.data[r], rng.uniform(-np.sqrt(1.0 / hid), np.sqrt(1.0 / hid), (hid, hid)))
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


class TestUnroll:
    def test_length_one_equals_step(self):
        rng = np.random.default_rng(5)
        p = random_params(rng, 2, 2)
        x = ad.constant(rng.normal(size=(2, 3, 3, 3)))
        init = cl.zero_state(2, (3, 3, 3), dtype=np.float64)
        hs = cl.convlstm_unroll(p, [x], init)
        st = cl.convlstm_step(p, x, init)
        assert len(hs) == 1
        np.testing.assert_array_equal(hs[0].data, st.h.data)

    def test_zero_params_zero_init_all_zero(self):
        p = zero_params(2, 3)
        rng = np.random.default_rng(6)
        seq = [ad.constant(rng.normal(size=(2, 3, 3, 3))) for _ in range(4)]
        hs = cl.convlstm_unroll(p, seq, cl.zero_state(3, (3, 3, 3), dtype=np.float64))
        for h in hs:
            assert np.all(h.data == 0.0)

    def test_equals_explicit_chaining(self):
        rng = np.random.default_rng(7)
        p = random_params(rng, 2, 2)
        seq = [ad.constant(rng.normal(size=(2, 3, 3, 3))) for _ in range(3)]
        init = cl.zero_state(2, (3, 3, 3), dtype=np.float64)
        hs = cl.convlstm_unroll(p, seq, init)
        st = init
        for t in range(3):
            st = cl.convlstm_step(p, seq[t], st)
            np.testing.assert_array_equal(hs[t].data, st.h.data)

    def test_empty_sequence_rejected(self):
        p = zero_params(2, 2)
        with pytest.raises(DimensionError):
            cl.convlstm_unroll(p, [], cl.zero_state(2, (3, 3, 3)))


class TestDense:
    def test_zero_params_fixed_points(self):
        rng = np.random.default_rng(8)
        p = cl.init_dense_lstm_params(rng, 4, 3, dtype=np.float64)
        p.w.data[:] = 0.0
        p.u.data[:] = 0.0
        p.b.data[:] = 0.0
        x = ad.constant(rng.normal(size=4))
        c0 = rng.normal(size=3)
        st = cl.dense_lstm_step(p, x, cl.ConvLstmState(
            ad.constant(np.zeros(3)), ad.constant(c0)))
        np.testing.assert_allclose(st.c.data, 0.5 * c0, rtol=1e-14)
        np.testing.assert_allclose(st.h.data, 0.5 * np.tanh(0.5 * c0), rtol=1e-14)

    def test_two_unit_hand_computed(self):
        # one feature, two hidden units, hand-picked round numbers
        p = cl.init_dense_lstm_params(np.random.default_rng(0), 1, 2, dtype=np.float64)
        for r, val in zip(gate_rows(2).values(), (0.5, -0.5, 1.0, 0.25)):
            p.w.data[r] = val
        p.u.data[:] = 0.0
        p.b.data[:] = 0.0
        x = ad.constant(np.array([2.0]))
        st = cl.dense_lstm_step(p, x, cl.ConvLstmState(
            ad.constant(np.zeros(2)), ad.constant(np.zeros(2))))
        sig = lambda v: 1.0 / (1.0 + np.exp(-v))
        i, f, ch, o = sig(1.0), sig(-1.0), np.tanh(2.0), sig(0.5)
        c_want = i * ch
        h_want = o * np.tanh(c_want)
        np.testing.assert_allclose(st.c.data, [c_want, c_want], rtol=1e-14)
        np.testing.assert_allclose(st.h.data, [h_want, h_want], rtol=1e-14)

    def test_degenerate_equivalence_with_conv_cell(self):
        # a 1x1x1 feature map with 1^3 kernels is exactly the dense cell
        rng = np.random.default_rng(9)
        cin, hid = 3, 2
        conv_p = random_params(rng, cin, hid, kernel=1)
        dense_p = cl.init_dense_lstm_params(rng, cin, hid, dtype=np.float64)
        dense_p.w.data[:] = conv_p.k.data[:, :cin, 0, 0, 0]
        dense_p.u.data[:] = conv_p.k.data[:, cin:, 0, 0, 0]
        dense_p.b.data[:] = conv_p.b.data
        x = rng.normal(size=cin)
        h0 = rng.normal(size=hid)
        c0 = rng.normal(size=hid)
        st_conv = cl.convlstm_step(
            conv_p, ad.constant(x.reshape(cin, 1, 1, 1)),
            cl.ConvLstmState(ad.constant(h0.reshape(hid, 1, 1, 1)),
                             ad.constant(c0.reshape(hid, 1, 1, 1))))
        st_dense = cl.dense_lstm_step(
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
            seq = [ad.constant(x) for x in xs]
            hs = cl.convlstm_unroll(p, seq, cl.zero_state(2, (3, 3, 3), dtype=np.float64))
            return ad.mean_all(ad.square(hs[-1]))

        err = grad_check(f, params, h=1e-4, samples=150, rng=rng)
        assert err <= 1e-4

    def test_pointwise_kernels_commute_with_site_permutation(self):
        # with 1^3 kernels each voxel evolves independently
        rng = np.random.default_rng(13)
        p = random_params(rng, 2, 2, kernel=1)
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
