"""Core tensor ops: convolution oracles, adjoint identities, gradient checks."""

import weakref

import numpy as np
import pytest

from moco4d import autodiff as ad
from moco4d.errors import ConfigurationError, DimensionError, NumericError

from gradcheck import grad_check
from oracles import conv3d_naive, interp_resize_naive, leaky_relu_where, sigmoid_two_exp


def box_sum_naive(x, w):
    hw = w // 2
    out = np.zeros_like(x)
    D, H, W = x.shape
    for d in range(D):
        for h in range(H):
            for ww in range(W):
                out[d, h, ww] = x[max(0, d - hw):d + hw + 1,
                                  max(0, h - hw):h + hw + 1,
                                  max(0, ww - hw):ww + hw + 1].sum()
    return out


class TestConv3d:
    def test_zero_input_gives_constant_bias(self):
        rng = np.random.default_rng(0)
        x = np.zeros((2, 4, 4, 4))
        k = rng.normal(size=(3, 2, 3, 3, 3))
        b = np.array([1.5, -2.0, 0.25])
        y = ad.conv3d(ad.constant(x), ad.constant(k), ad.constant(b), 1)
        for c in range(3):
            assert np.all(y.data[c] == b[c])

    def test_counting_case(self):
        # an all-ones kernel on an all-ones input counts the input voxels
        # each zero-padded window covers: 2 or 3 per axis
        x = np.ones((1, 3, 3, 3))
        k = np.ones((1, 1, 3, 3, 3))
        b = np.zeros(1)
        y = ad.conv3d(ad.constant(x), ad.constant(k), ad.constant(b), 1)
        per_axis = np.array([2.0, 3.0, 2.0])
        assert y.data.shape == (1, 3, 3, 3)
        assert np.array_equal(y.data[0], np.einsum("i,j,l->ijl", per_axis, per_axis, per_axis))

    @pytest.mark.parametrize("stride", [1, 2])
    def test_matches_naive_loop_oracle(self, stride):
        rng = np.random.default_rng(42)
        x = rng.normal(size=(2, 5, 5, 5))
        k = rng.normal(size=(3, 2, 3, 3, 3))
        b = rng.normal(size=3)
        got = ad.conv3d(ad.constant(x), ad.constant(k), ad.constant(b), stride)
        want = conv3d_naive(x, k, b, stride, 1)
        rel = np.abs(got.data - want) / np.maximum(np.abs(want), 1e-300)
        assert rel.max() <= 1e-12

    def test_output_extent_formula(self):
        x = np.zeros((1, 8, 6, 10))
        k = np.zeros((4, 1, 3, 3, 3))
        b = np.zeros(4)
        y = ad.conv3d(ad.constant(x), ad.constant(k), ad.constant(b), 2)
        assert y.data.shape == (4, 4, 3, 5)

    def test_kernel_extent_one(self):
        # only 3x3x3 kernels: a 1x1x1 kernel is rejected at the boundary
        x = np.zeros((2, 3, 3, 3))
        for extent in [(1, 1, 1), (3, 3, 1)]:
            with pytest.raises(DimensionError):
                ad.conv3d(ad.constant(x), ad.constant(np.zeros((4, 2, *extent))),
                          ad.constant(np.zeros(4)))

    def test_linearity_with_zero_bias(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(2, 4, 4, 4))
        y = rng.normal(size=(2, 4, 4, 4))
        k = rng.normal(size=(3, 2, 3, 3, 3))
        b = np.zeros(3)
        a, c = 1.7, -0.3
        lhs = ad.conv3d(ad.constant(a * x + c * y), ad.constant(k), ad.constant(b)).data
        rhs = (a * ad.conv3d(ad.constant(x), ad.constant(k), ad.constant(b)).data
               + c * ad.conv3d(ad.constant(y), ad.constant(k), ad.constant(b)).data)
        assert np.abs(lhs - rhs).max() / np.abs(rhs).max() <= 1e-10

    def test_shape_mismatch_raises(self):
        x = np.zeros((2, 4, 4, 4))
        k = np.zeros((3, 5, 3, 3, 3))
        with pytest.raises(DimensionError):
            ad.conv3d(ad.constant(x), ad.constant(k), ad.constant(np.zeros(3)))

    def test_non_finite_raises(self):
        x = np.zeros((1, 3, 3, 3))
        x[0, 1, 1, 1] = np.nan
        k = np.zeros((1, 1, 3, 3, 3))
        with pytest.raises(NumericError):
            ad.conv3d(ad.constant(x), ad.constant(k), ad.constant(np.zeros(1)))

    def test_batched_input_rejected(self):
        # frames run through the network one at a time; a leading batch axis
        # is not a conv3d input
        x = np.zeros((2, 1, 4, 4, 4))
        k = np.zeros((1, 1, 3, 3, 3))
        with pytest.raises(DimensionError):
            ad.conv3d(ad.constant(x), ad.constant(k), ad.constant(np.zeros(1)))

    # spatial extents whose output depth spans at least two chunks (batches of
    # ad._CONV_PLANES output planes) and ends in a partial one at each stride
    MULTI_CHUNK = {1: (11, 6, 7), 2: (19, 9, 10)}

    def _multi_chunk_case(self, monkeypatch, stride, cin=2, cout=2):
        """Input, kernel and output gradient for a MULTI_CHUNK conv at `stride`,
        and the list into which the forward pass records (Do, planes per
        batch). The buffer cap is lowered to ad._CONV_PLANES output planes'
        worth of sums and tap products, since these small convs fit in one
        batch at the default cap."""
        spatial = self.MULTI_CHUNK[stride]
        out = [(n - 1) // stride + 1 for n in spatial]
        assert out[0] > ad._CONV_PLANES and out[0] % ad._CONV_PLANES
        rng = np.random.default_rng(0)
        x = rng.normal(size=(cin, *spatial))
        k = rng.normal(size=(cout, cin, 3, 3, 3))
        g = rng.normal(size=(cout, *out))
        # one output plane's share of the buffer: its Ho*Wg sum rows and, per
        # sub-plane with taps, each tap's product up to the last offset
        wg = -(-(spatial[2] + 2) // stride)
        rows = (out[1] - 1) * wg + out[2]
        plane = cout * (out[1] * wg + sum(len(taps) * (rows + offs[-1])
                                          for _, taps, offs in ad._tap_groups(stride, wg)))
        monkeypatch.setattr(ad, "_CONV_STACK_BYTES", ad._CONV_PLANES * plane * x.itemsize)
        batches, plane_batches = [], ad._plane_batches

        def recording(do, n):
            batches.append((do, n))
            return plane_batches(do, n)

        monkeypatch.setattr(ad, "_plane_batches", recording)
        return x, k, g, batches

    @staticmethod
    def _assert_partial_last_batch(batches, do):
        # the forward pass batches first: at least two batches, the last partial
        assert batches[0] == (do, ad._CONV_PLANES) and do % ad._CONV_PLANES

    def _grads(self, x, k, stride, g):
        xt, kt = ad.param("x", x), ad.param("k", k)
        with ad.Tape() as tape:
            y = ad.conv3d(xt, kt, ad.constant(np.zeros(k.shape[0], x.dtype)), stride)
            loss = ad.sum_all(ad.mul(y, ad.constant(g)))
        grads = ad.backward(tape, loss)
        return y.data, grads["x"], grads["k"]

    @pytest.mark.parametrize("stride", [1, 2])
    def test_multi_chunk_matches_naive_loop_oracle(self, monkeypatch, stride):
        x, k, g, batches = self._multi_chunk_case(monkeypatch, stride)
        b = np.array([0.5, -1.25])
        got = ad.conv3d(ad.constant(x), ad.constant(k), ad.constant(b), stride).data
        self._assert_partial_last_batch(batches, g.shape[1])
        want = conv3d_naive(x, k, b, stride, 1)
        # normwise: among thousands of outputs some cancel to near zero,
        # where an entrywise relative error measures only that cancellation
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("stride", [1, 2])
    def test_multi_chunk_adjoint_identities(self, monkeypatch, stride):
        # at stride 1 the input gradient runs the forward kernel on the output
        # gradient; at stride 2 it is a scatter through the tap views
        x, k, g, batches = self._multi_chunk_case(monkeypatch, stride)
        y, gx, gk = self._grads(x, k, stride, g)
        self._assert_partial_last_batch(batches, g.shape[1])
        lhs = np.vdot(y, g)
        # conv is linear in its input and, separately, in its kernel
        assert abs(lhs - np.vdot(x, gx)) <= 1e-12 * abs(lhs)
        assert abs(lhs - np.vdot(k, gk)) <= 1e-12 * abs(lhs)

    @pytest.mark.parametrize("stride", [1, 2])
    def test_gradients_are_independent_of_the_gradient_layout(self, stride):
        # the same gradient values, C-ordered and channels last in memory,
        # give the same input-, kernel- and bias-gradient bits
        rng = np.random.default_rng(17)
        x = rng.normal(size=(3, 9, 10, 12))
        k = rng.normal(size=(4, 3, 3, 3, 3))
        with ad.Tape():
            y = ad.conv3d(ad.param("x", x), ad.param("k", k), ad.param("b", np.zeros(4)),
                          stride)
        g = rng.normal(size=y.shape)
        g_last = np.ascontiguousarray(g.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2)
        assert not g_last.flags.c_contiguous
        for got, want in zip(y.vjp(g_last), y.vjp(g)):
            assert got.tobytes() == want.tobytes()


class TestActivations:
    def test_sigmoid_zero(self):
        assert ad.sigmoid(ad.constant(np.zeros(3))).data[0] == 0.5

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_saturates_without_overflow(self, dtype):
        # exp(-x) overflows at x = -100 in float32 and at x = -1000 in float64
        x = np.array([-1000.0, -100.0, 100.0, 1000.0], dtype=dtype)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            s = ad.sigmoid(ad.constant(x)).data
        assert s.dtype == dtype
        assert s[0] == 0.0 and 0.0 < s[1] <= 1e-43 and s[2] == s[3] == 1.0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_matches_a_wider_reference(self, dtype):
        rng = np.random.default_rng(5)
        x = np.concatenate([np.linspace(-80.0, 80.0, 100001),
                            rng.normal(scale=4.0, size=100000)]).astype(dtype)
        s = ad.sigmoid(ad.constant(x)).data
        # x >= 0 keeps the plain formula bit for bit
        pos = x >= 0
        assert np.array_equal(s[pos], 1.0 / (1.0 + np.exp(-x[pos])))
        # the reference is computed in the next wider float; the tolerance
        # covers exp in the input dtype, which numpy does not round correctly
        # (2-3 ulp for float32), carried through the division
        wide = np.float64 if dtype == np.float32 else np.longdouble
        ref = 1.0 / (1.0 + np.exp(-x.astype(wide)))
        err = np.abs(s.astype(wide) - ref) / ref
        assert err.max() <= 4 * np.finfo(dtype).eps

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_matches_the_two_exp_formula(self, dtype):
        # one exp gives the bits of the two-exp form, sign bits included,
        # without overflow; NaN stays NaN
        rng = np.random.default_rng(15)
        special = [0.0, -0.0, 100.0, -100.0, 709.0, -709.0, 745.0, -745.0,
                   1000.0, -1000.0, np.inf, -np.inf]
        x = np.concatenate([rng.uniform(-120.0, 120.0, 200000), special]).astype(dtype)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            s = ad.sigmoid(ad.constant(x)).data
            want = sigmoid_two_exp(x)
        assert s.dtype == want.dtype == dtype
        assert s.tobytes() == want.tobytes()
        nan = np.array([np.nan, -np.nan, 1.0], dtype=dtype)
        assert np.isnan(ad.sigmoid(ad.constant(nan)).data[:2]).all()

    def test_tanh_zero(self):
        assert ad.tanh(ad.constant(np.zeros(3))).data[0] == 0.0

    def test_leaky_relu_definition(self):
        # written over the input's buffer
        data = np.array([-1.0, 2.0])
        y = ad.leaky_relu(ad.constant(data))
        np.testing.assert_allclose(y.data, [-0.2, 2.0])
        assert np.shares_memory(y.data, data)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_leaky_relu_matches_the_where_formula(self, dtype):
        # max(x, slope*x) and g * max(out > 0, slope) at slope ad.LEAKY_SLOPE
        # give the select formulas' bytes, signed zeros, infinities, NaNs and
        # subnormals included
        rng = np.random.default_rng(16)
        info = np.finfo(dtype)
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, info.max, -info.max,
                   info.tiny, -info.tiny, info.smallest_subnormal,
                   -info.smallest_subnormal, 3 * info.smallest_subnormal,
                   -3 * info.smallest_subnormal]
        n = 2 * 7 * 7 * 1024 - len(special)
        x = np.concatenate([rng.normal(scale=10.0, size=n), special]).astype(dtype)
        g = np.concatenate([rng.normal(size=n), special]).astype(dtype)
        x = x.reshape(2, 7, 7, 1024)
        g = rng.permutation(g).reshape(x.shape)
        want, want_g = leaky_relu_where(x, ad.LEAKY_SLOPE, g)
        # an input laid out otherwise than the gradient: channels last in memory
        x_last = np.ascontiguousarray(x.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2)
        with ad.Tape():
            y = ad.leaky_relu(ad.param("x", x_last))
        got_g = y.vjp(g)[0]
        assert y.data.dtype == got_g.dtype == dtype
        assert y.data.tobytes(order="A") == want.tobytes(order="A")
        assert got_g.tobytes(order="A") == want_g.tobytes(order="A")

    def test_ranges(self):
        # scale kept below float64 saturation (tanh rounds to 1.0 near |x|~19)
        x = np.random.default_rng(0).normal(scale=4.0, size=1000)
        s = ad.sigmoid(ad.constant(x)).data
        t = ad.tanh(ad.constant(x)).data
        assert np.all((s > 0) & (s < 1))
        assert np.all((t > -1) & (t < 1))


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = ad.param("x", np.random.default_rng(0).normal(size=(4, 5)))
        with ad.Tape() as tape:
            loss = ad.sum_all(x)
        grads = ad.backward(tape, loss)
        np.testing.assert_array_equal(grads["x"], np.ones((4, 5)))

    def test_half_sum_of_squares_gradient_is_x(self):
        data = np.random.default_rng(1).normal(size=(3, 3))
        x = ad.param("x", data.copy())
        with ad.Tape() as tape:
            loss = ad.mul(ad.sum_all(ad.square(x)), 0.5)
        grads = ad.backward(tape, loss)
        np.testing.assert_allclose(grads["x"], data, rtol=1e-15)

    def test_gradient_accumulates_over_reuse(self):
        x = ad.param("x", np.array([2.0]))
        with ad.Tape() as tape:
            loss = ad.sum_all(ad.mul(x, x))  # d/dx x^2 = 2x
        grads = ad.backward(tape, loss)
        np.testing.assert_allclose(grads["x"], [4.0])

    def test_non_scalar_loss_rejected(self):
        x = ad.param("x", np.ones(3))
        with ad.Tape() as tape:
            y = ad.mul(x, 2.0)
        with pytest.raises(DimensionError):
            ad.backward(tape, y)

    def test_backward_consumes_the_tape(self):
        # every node is popped and drops its parents and VJP, so the graph
        # is freed as the walk passes it
        x = ad.param("x", np.array([1.0, -2.0, 3.0]))
        with ad.Tape() as tape:
            loss = ad.sum_all(ad.mul(ad.tanh(x), ad.square(x)))
        nodes = list(tape.nodes)
        assert len(nodes) == 4
        grads = ad.backward(tape, loss)
        assert set(grads) == {"x"}
        assert tape.nodes == []
        assert all(n.parents == () and n.vjp is None for n in nodes)

    def test_second_backward_on_a_tape_rejected(self):
        # a consumed tape would otherwise give no gradients, and a training
        # step would take an Adam step without them
        x = ad.param("x", np.ones(3))
        with ad.Tape() as tape:
            loss = ad.sum_all(ad.square(x))
        ad.backward(tape, loss)
        with pytest.raises(ConfigurationError):
            ad.backward(tape, loss)

    def test_loss_off_the_tape_rejected(self):
        # a loss built after the tape closed has no node on it: the walk
        # would reach nothing and return no gradients, and a training step
        # would take an Adam step without them
        x = ad.param("x", np.ones(3))
        with ad.Tape() as tape:
            y = ad.square(x)
        loss = ad.sum_all(y)
        with pytest.raises(ConfigurationError):
            ad.backward(tape, loss)

    def test_a_concat_part_is_freed_once_the_caller_drops_it(self):
        # concat's VJP slices the gradient and reads no part, so the tape
        # keeps a part's node but not its value
        x = ad.param("x", np.ones((2, 3)))
        with ad.Tape() as tape:
            part = ad.mul(x, 2.0)
            value = weakref.ref(part.data)
            joined = ad.concat_channels([part, x])
            del part
            loss = ad.sum_all(joined)
        assert value() is None
        grads = ad.backward(tape, loss)
        np.testing.assert_array_equal(grads["x"], np.full((2, 3), 3.0))

    def test_gradient_shape_mismatch_rejected(self):
        x = ad.param("x", np.ones(3))
        with ad.Tape() as tape:
            bad = ad.Tensor(np.ones(3), parents=(x,), vjp=lambda g: (np.ones(2),), op="bad")
            loss = ad.sum_all(bad)
        with pytest.raises(DimensionError):
            ad.backward(tape, loss)


class TestGradCheck:
    def test_quadratic_central_difference_is_exact(self):
        params = {"x": ad.param("x", np.random.default_rng(0).normal(size=8))}

        def f(p):
            return ad.sum_all(ad.square(p["x"]))

        err = grad_check(f, params, h=1e-4, samples=8)
        assert err <= 1e-8

    def test_conv3d_layer(self):
        rng = np.random.default_rng(4)
        params = {
            "k": ad.param("k", rng.normal(size=(3, 2, 3, 3, 3))),
            "b": ad.param("b", rng.normal(size=3)),
            "x": ad.param("x", rng.normal(size=(2, 5, 5, 5))),
        }

        def f(p):
            y = ad.conv3d(p["x"], p["k"], p["b"], 1)
            return ad.mean_all(ad.mul(ad.tanh(y), y))

        err = grad_check(f, params, h=1e-4, samples=120, rng=rng)
        assert err <= 1e-4

    def test_rejects_nonpositive_h(self):
        with pytest.raises(ValueError):
            grad_check(lambda p: ad.sum_all(p["x"]), {"x": ad.param("x", np.ones(2))}, h=0.0)


class TestBoxSum:
    def test_matches_naive(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(6, 5, 7))
        got = ad.box_sum(ad.constant(x), 3).data
        want = box_sum_naive(x, 3)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_self_adjoint(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(5, 5, 5))
        y = rng.normal(size=(5, 5, 5))
        bx = ad.box_sum(ad.constant(x), 3).data
        by = ad.box_sum(ad.constant(y), 3).data
        assert abs(np.vdot(bx, y) - np.vdot(x, by)) <= 1e-10 * abs(np.vdot(bx, y))

    def test_window_larger_than_extent_rejected(self):
        with pytest.raises(DimensionError):
            ad.box_sum(ad.constant(np.zeros((3, 3, 3))), 5)

    def test_float32_sums_accumulate_in_float64(self):
        # large and tiny values in one window: a float32 accumulation loses
        # the small terms, a float64 one rounds once at the end
        rng = np.random.default_rng(10)
        big = rng.random((6, 7, 8)) < 0.5
        x = np.where(big, 1e4 + rng.normal(size=big.shape),
                     1e-3 * rng.random(big.shape)).astype(np.float32)
        got = ad.box_sum(ad.constant(x), 3).data
        assert got.dtype == np.float32
        want = box_sum_naive(x.astype(np.float64), 3).astype(np.float32)
        np.testing.assert_array_equal(got, want)


class TestForwardDiff:
    @pytest.mark.parametrize("axis", range(4))
    def test_adjoint_identity(self, axis):
        rng = np.random.default_rng(20 + axis)
        x = rng.normal(size=(3, 4, 5, 6))
        g = rng.normal(size=x.shape)
        xt = ad.param("x", x)
        with ad.Tape() as tape:
            y = ad.forward_diff(xt, axis)
            loss = ad.sum_all(ad.mul(y, ad.constant(g)))
        grads = ad.backward(tape, loss)
        lhs = np.vdot(y.data, g)
        rhs = np.vdot(x, grads["x"])
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


class TestInterpResize:
    def test_constant_preserved_up_and_down(self):
        x = np.full((2, 4, 4, 4), 3.25)
        up = ad.interp_resize(ad.constant(x), (8, 8, 8)).data
        assert np.all(up == 3.25)
        down = ad.interp_resize(ad.constant(up), (4, 4, 4)).data
        assert np.all(down == 3.25)

    def test_linear_ramp_interior_exact(self):
        n = 8
        ramp = np.arange(n, dtype=np.float64)
        x = np.broadcast_to(ramp[None, :, None, None], (1, n, n, n)).copy()
        up = ad.interp_resize(ad.constant(x), (2 * n, n, n)).data
        # interior output centers map to src coords (i + .5)/2 - .5
        for i in range(1, 2 * n - 1):
            src = (i + 0.5) / 2.0 - 0.5
            np.testing.assert_allclose(up[0, i, 0, 0], src, rtol=0, atol=1e-12)

    def test_adjoint_identity(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(2, 4, 4, 4))
        g = rng.normal(size=(2, 8, 8, 8))
        xt = ad.param("x", x)
        with ad.Tape() as tape:
            y = ad.interp_resize(xt, (8, 8, 8))
            loss = ad.sum_all(ad.mul(y, ad.constant(g)))
        grads = ad.backward(tape, loss)
        lhs = np.vdot(y.data, g)
        rhs = np.vdot(x, grads["x"])
        assert abs(lhs - rhs) <= 1e-10 * abs(lhs)

    def test_adjoint_identity_downsizing(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(2, 8, 6, 10))
        g = rng.normal(size=(2, 5, 4, 7))
        xt = ad.param("x", x)
        with ad.Tape() as tape:
            y = ad.interp_resize(xt, (5, 4, 7))
            loss = ad.sum_all(ad.mul(y, ad.constant(g)))
        grads = ad.backward(tape, loss)
        lhs = np.vdot(y.data, g)
        rhs = np.vdot(x, grads["x"])
        assert abs(lhs - rhs) <= 1e-10 * abs(lhs)

    @pytest.mark.parametrize("in_shape, out_spatial", [
        ((2, 3, 4, 5), (7, 8, 9)),          # upsizing, non-integer factors
        ((2, 9, 8, 10), (4, 3, 6)),         # downsizing
        ((1, 5, 6, 4), (5, 11, 3)),         # first axis unchanged
        ((2, 3, 4, 3, 5), (6, 3, 10)),      # batched [B, C, D, H, W]
    ])
    def test_matches_naive_oracle(self, in_shape, out_spatial):
        rng = np.random.default_rng(13)
        x = rng.normal(size=in_shape)
        got = ad.interp_resize(ad.constant(x), out_spatial).data
        np.testing.assert_allclose(got, interp_resize_naive(x, out_spatial),
                                   rtol=0, atol=1e-12)


def test_determinism_repeated_runs():
    def run():
        rng = np.random.default_rng(123)
        x = ad.param("x", rng.normal(size=(2, 6, 6, 6)).astype(np.float32))
        k = ad.param("k", rng.normal(size=(3, 2, 3, 3, 3)).astype(np.float32))
        with ad.Tape() as tape:
            y = ad.conv3d(x, k, ad.constant(np.zeros(3, dtype=np.float32)), 2)
            loss = ad.mean_all(ad.square(y))
        g = ad.backward(tape, loss)
        return loss.data.copy(), {n: v.copy() for n, v in g.items()}

    l1, g1 = run()
    l2, g2 = run()
    assert np.array_equal(l1, l2)
    for n in g1:
        assert np.array_equal(g1[n], g2[n])
