"""Tensor core: op semantics, shape policing, and gradient correctness."""

import math

import numpy as np
import pytest

from bmace import numerics as nm
from bmace.gradcheck import REL_TOLERANCE, check_gradients


def t64(values):
    return nm.tensor(values, dtype=nm.HIGH)


class TestTensorBasics:
    def test_construction_and_shape(self):
        x = t64([[1.0, 2.0], [3.0, 4.0]])
        assert x.shape == (2, 2)
        assert x.dtype == nm.HIGH

    def test_default_dtype_is_high(self):
        assert nm.Tensor([1.0, 2.0]).dtype == nm.HIGH

    def test_standard_precision_preserved(self):
        x = nm.tensor([1.0], dtype=nm.STANDARD)
        assert x.dtype == nm.STANDARD

    def test_tensors_are_immutable(self):
        x = t64([1.0, 2.0])
        with pytest.raises(ValueError):
            x.data[0] = 5.0

    def test_construction_copies_input(self):
        src = np.ones(3)
        x = nm.Tensor(src)
        src[0] = 9.0
        assert x.data[0] == 1.0

    def test_mixed_dtypes_rejected(self):
        a = nm.tensor([1.0], dtype=nm.HIGH)
        b = nm.tensor([1.0], dtype=nm.STANDARD)
        with pytest.raises(TypeError):
            nm.add(a, b)

    def test_item_requires_single_element(self):
        with pytest.raises(nm.ShapeError):
            t64([1.0, 2.0]).item()


class TestMatmul:
    def test_identity(self):
        a = t64(np.arange(6.0).reshape(2, 3))
        eye = t64(np.eye(3))
        assert np.array_equal(nm.matmul(a, eye).data, a.data)

    def test_one_by_one(self):
        assert nm.matmul(t64([[2.0]]), t64([[7.0]])).item() == 14.0

    def test_against_triple_loop(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((4, 5))
        b = rng.standard_normal((5, 3))
        want = np.zeros((4, 3))
        for i in range(4):
            for j in range(3):
                for k in range(5):
                    want[i, j] += a[i, k] * b[k, j]
        got = nm.matmul(t64(a), t64(b)).data
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_associativity(self):
        rng = np.random.default_rng(1)
        a, b, c = (t64(rng.standard_normal((6, 6))) for _ in range(3))
        left = nm.matmul(nm.matmul(a, b), c).data
        right = nm.matmul(a, nm.matmul(b, c)).data
        assert np.max(np.abs(left - right)) <= 1e-10

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(nm.ShapeError) as exc:
            nm.matmul(t64(np.zeros((2, 3))), t64(np.zeros((4, 2))))
        assert "(2, 3)" in str(exc.value) and "(4, 2)" in str(exc.value)


class TestConv1dDepthwise:
    def test_kernel_width_one_times_one_is_identity(self):
        x = t64(np.arange(12.0).reshape(4, 3))
        w = t64(np.ones((3, 1)))
        b = t64(np.zeros(3))
        assert np.array_equal(nm.conv1d_depthwise(x, w, b).data, x.data)

    def test_zero_signal_yields_bias(self):
        y = nm.conv1d_depthwise(t64(np.zeros((5, 2))), t64(np.ones((2, 3))), t64([1.5, -2.0]))
        assert np.array_equal(y.data, np.tile([1.5, -2.0], (5, 1)))

    def test_hand_example(self):
        # x=[1,2,3], w=[1,2]: causal taps give [2, 5, 8].
        x = t64(np.array([[1.0], [2.0], [3.0]]))
        w = t64(np.array([[1.0, 2.0]]))
        y = nm.conv1d_depthwise(x, w, t64([0.0]))
        assert y.data.ravel().tolist() == [2.0, 5.0, 8.0]

    def test_kernel_longer_than_sequence(self):
        # Overhanging taps read zero padding; output keeps length L.
        x = t64(np.array([[1.0], [1.0]]))
        w = t64(np.ones((1, 5)))
        y = nm.conv1d_depthwise(x, w, t64([0.0]))
        assert y.shape == (2, 1)
        assert y.data.ravel().tolist() == [1.0, 2.0]

    def test_nonpositive_kernel_rejected(self):
        with pytest.raises(nm.ShapeError):
            nm.conv1d_depthwise(t64(np.zeros((3, 1))), t64(np.zeros((1, 0))), t64([0.0]))

    def test_causality(self):
        # Perturbing a future frame never changes earlier outputs.
        rng = np.random.default_rng(7)
        x = rng.standard_normal((6, 2))
        w = t64(rng.standard_normal((2, 3)))
        b = t64(rng.standard_normal(2))
        base = nm.conv1d_depthwise(t64(x), w, b).data
        x2 = x.copy()
        x2[4] += 1.0
        bumped = nm.conv1d_depthwise(t64(x2), w, b).data
        assert np.array_equal(base[:4], bumped[:4])


class TestNonlinearities:
    def test_silu_at_zero(self):
        assert nm.silu(t64([0.0])).data[0] == 0.0

    def test_silu_known_value(self):
        got = nm.silu(t64([1.0])).data[0]
        assert got == pytest.approx(0.7310585786300049, abs=1e-12)

    def test_sigmoid_matches_two_branch_form(self):
        # The tanh form against 1/(1+e^-x) | e^x/(1+e^x), evaluated in float64.
        x = np.linspace(-800.0, 800.0, 160_001)
        pos = x >= 0
        want = np.where(pos, 1.0 / (1.0 + np.exp(-np.abs(x))),
                        np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
        assert np.max(np.abs(nm._sigmoid(x) - want)) <= 2.3e-16
        got32 = nm._sigmoid(x.astype(np.float32))
        assert got32.dtype == np.float32
        assert np.max(np.abs(got32 - want)) <= 1.2e-7

    def test_silu_asymptote(self):
        # True gap at x=20 is 20*sigmoid(-20) ~ 4.12e-8; exact at 1e-8 by x=22.
        assert abs(nm.silu(t64([20.0])).data[0] - 20.0) <= 1e-7
        assert abs(nm.silu(t64([22.0])).data[0] - 22.0) <= 1e-8

    def test_silu_no_overflow_in_standard_precision(self):
        x = nm.tensor([-200.0, 200.0], dtype=nm.STANDARD)
        y = nm.silu(x).data
        assert np.all(np.isfinite(y))
        assert y[0] == 0.0 and y[1] == np.float32(200.0)

    def test_softplus_at_zero(self):
        assert nm.softplus(t64([0.0])).data[0] == pytest.approx(math.log(2.0), abs=1e-15)

    def test_softplus_positive_and_above_x(self):
        x = np.linspace(-20, 20, 41)
        y = nm.softplus(t64(x)).data
        assert np.all(y > 0.0) and np.all(y >= x)

    def test_softplus_large_argument_identity(self):
        assert abs(nm.softplus(t64([100.0])).data[0] - 100.0) <= 1e-9

    def test_softplus_untaped_bits_and_taped_gradient(self):
        x = np.linspace(-40.0, 40.0, 81, dtype=np.float32)
        want = np.where(x > 30.0, x, np.log1p(np.exp(np.minimum(x, 30.0))))
        untaped = nm.softplus(nm.tensor(x, dtype=nm.STANDARD)).data
        assert untaped.dtype == np.float32 and untaped.tobytes() == want.tobytes()
        p = t64(x)
        (g,) = nm.grad(lambda: nm.sum_all(nm.softplus(p)), [p])
        assert np.max(np.abs(g.data - 1.0 / (1.0 + np.exp(-p.data)))) <= 1e-15

    def test_rmsnorm_unit_rms(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((4, 8)) * 3.0
        y = nm.rmsnorm(t64(x), t64(np.ones(8)), eps=0.0).data
        assert np.max(np.abs((y * y).mean(axis=1) - 1.0)) <= 1e-12


class TestStructureOps:
    def test_reverse_is_exact_involution(self):
        rng = np.random.default_rng(8)
        x = t64(rng.standard_normal((9, 4)))
        assert np.array_equal(nm.reverse_time(nm.reverse_time(x)).data, x.data)

    def test_reverse_single_frame(self):
        x = t64([[1.0, 2.0]])
        assert np.array_equal(nm.reverse_time(x).data, x.data)

    def test_reverse_column(self):
        y = nm.reverse_time(t64([[1.0], [2.0], [3.0]])).data
        assert y.ravel().tolist() == [3.0, 2.0, 1.0]

    def test_concat_shapes_and_exactness(self):
        rng = np.random.default_rng(9)
        a = t64(rng.standard_normal((5, 128)))
        b = t64(rng.standard_normal((5, 128)))
        c = nm.concat_features(a, b)
        assert c.shape == (5, 256)
        assert np.array_equal(c.data[:, :128], a.data)
        assert np.array_equal(c.data[:, 128:], b.data)

    def test_concat_empty_right_operand(self):
        a = t64(np.ones((3, 2)))
        b = t64(np.zeros((3, 0)))
        assert np.array_equal(nm.concat_features(a, b).data, a.data)

    def test_slice_cols_round_trip(self):
        x = t64(np.arange(12.0).reshape(3, 4))
        left = nm.slice_cols(x, 0, 2)
        right = nm.slice_cols(x, 2, 4)
        assert np.array_equal(nm.concat_features(left, right).data, x.data)


class TestGrad:
    def test_sum_gradient_is_ones(self):
        p = t64(np.arange(5.0))
        (g,) = nm.grad(lambda: nm.sum_all(p), [p])
        assert np.array_equal(g.data, np.ones(5))

    def test_quadratic_gradient(self):
        p = t64([1.0, 2.0])
        (g,) = nm.grad(lambda: nm.sum_all(nm.mul(p, p)), [p])
        assert np.array_equal(g.data, np.array([2.0, 4.0]))

    def test_unreached_parameter_gets_zeros(self):
        p = t64([1.0])
        q = t64([3.0, 4.0])
        gp, gq = nm.grad(lambda: nm.sum_all(nm.mul(p, p)), [p, q])
        assert gp.data[0] == 2.0
        assert np.array_equal(gq.data, np.zeros(2))

    def test_reused_tensor_accumulates(self):
        p = t64([3.0])
        # loss = p*p + 2p  =>  dloss/dp = 2p + 2 = 8
        (g,) = nm.grad(lambda: nm.sum_all(nm.add(nm.mul(p, p), nm.mul(p, 2.0))), [p])
        assert g.data[0] == pytest.approx(8.0, abs=1e-12)

    def test_no_recording_outside_tape(self):
        tape = nm.Tape()
        with tape:
            a = nm.mul(t64([1.0]), 2.0)
        nm.mul(a, 3.0)  # outside: must not extend the tape
        assert len(tape) == 1

    def test_second_tape_cannot_enter_while_one_records(self):
        outer = nm.Tape()
        with outer:
            with pytest.raises(RuntimeError):
                with nm.Tape():
                    pass
            nm.mul(t64([1.0]), 2.0)  # the outer tape still records
        assert len(outer) == 1
        assert not nm.recording()
        with nm.Tape() as again:
            nm.mul(t64([1.0]), 2.0)
        assert len(again) == 1

    def test_replay_consumes_the_tape(self):
        p = t64([1.0, 2.0])
        with nm.Tape() as tape:
            h = nm.mul(p, p)
            loss = nm.sum_all(h)
        gp, gh = tape.gradients(loss, [p, h])
        assert np.array_equal(gp.data, [2.0, 4.0])
        assert np.array_equal(gh.data, [1.0, 1.0])  # an op output can be asked for too
        assert len(tape) == 2
        with pytest.raises(RuntimeError, match="already been replayed"):
            tape.gradients(loss, [p])

    def test_loss_must_be_scalar(self):
        p = t64([1.0, 2.0])
        with pytest.raises(nm.ShapeError):
            nm.grad(lambda: nm.mul(p, p), [p])

    def test_composed_pipeline_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        x = t64(rng.standard_normal((6, 3)))
        w = t64(rng.standard_normal((3, 4)) * 0.5)
        b = t64(rng.standard_normal(4) * 0.1)

        def loss(ps):
            xx, ww, bb = ps
            h = nm.silu(nm.add_bias(nm.matmul(xx, ww), bb))
            return nm.sum_all(nm.mul(nm.softplus(h), h))

        assert check_gradients(loss, [x, w, b]) <= REL_TOLERANCE


def _unary_cases():
    # op, input builder (keeps softplus/silu away from ulp cliffs)
    return [
        ("silu", nm.silu),
        ("softplus", nm.softplus),
        ("exp", nm.exp),
        ("reverse_time", nm.reverse_time),
    ]


class TestFiniteDifferenceSweep:
    """Every differentiable op, dims <= 8, 50 seeds each."""

    @pytest.mark.parametrize("name,op", _unary_cases())
    def test_unary_ops(self, name, op):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            L, d = int(rng.integers(1, 8)), int(rng.integers(2, 8))
            x = t64(rng.standard_normal((L, d)))
            probe = t64(rng.standard_normal((L, d)))

            def loss(ps):
                return nm.sum_all(nm.mul(op(ps[0]), probe))

            err = check_gradients(loss, [x])
            assert err <= REL_TOLERANCE, f"{name} seed {seed}: rel err {err:.2e}"

    def test_matmul_grad(self):
        for seed in range(50):
            rng = np.random.default_rng(100 + seed)
            m, k, n = (int(rng.integers(1, 8)) for _ in range(3))
            a = t64(rng.standard_normal((m, k)))
            b = t64(rng.standard_normal((k, n)))
            probe = t64(rng.standard_normal((m, n)))

            def loss(ps):
                return nm.sum_all(nm.mul(nm.matmul(ps[0], ps[1]), probe))

            assert check_gradients(loss, [a, b]) <= REL_TOLERANCE

    def test_conv_grad(self):
        for seed in range(50):
            rng = np.random.default_rng(200 + seed)
            L, d, k = int(rng.integers(1, 8)), int(rng.integers(1, 6)), int(rng.integers(1, 6))
            x = t64(rng.standard_normal((L, d)))
            w = t64(rng.standard_normal((d, k)))
            b = t64(rng.standard_normal(d))
            probe = t64(rng.standard_normal((L, d)))

            def loss(ps):
                return nm.sum_all(nm.mul(nm.conv1d_depthwise(*ps), probe))

            assert check_gradients(loss, [x, w, b]) <= REL_TOLERANCE

    def test_rmsnorm_grad(self):
        for seed in range(50):
            rng = np.random.default_rng(300 + seed)
            L, d = int(rng.integers(1, 8)), int(rng.integers(2, 8))
            x = t64(rng.standard_normal((L, d)))
            gain = t64(rng.standard_normal(d))
            probe = t64(rng.standard_normal((L, d)))

            def loss(ps):
                return nm.sum_all(nm.mul(nm.rmsnorm(ps[0], ps[1]), probe))

            assert check_gradients(loss, [x, gain]) <= REL_TOLERANCE

    def test_binary_and_bias_ops_grad(self):
        for seed in range(50):
            rng = np.random.default_rng(400 + seed)
            L, d = int(rng.integers(1, 8)), int(rng.integers(1, 8))
            x = t64(rng.standard_normal((L, d)))
            y = t64(rng.standard_normal((L, d)))
            b = t64(rng.standard_normal(d))

            def loss(ps):
                xx, yy, bb = ps
                s = nm.add(nm.mul(xx, yy), nm.add(xx, nm.mul(yy, -1.0)))
                return nm.sum_all(nm.mul(nm.add_bias(s, bb), nm.add_bias(yy, bb)))

            assert check_gradients(loss, [x, y, b]) <= REL_TOLERANCE

    def test_concat_slice_grad(self):
        for seed in range(50):
            rng = np.random.default_rng(500 + seed)
            L, da, db = int(rng.integers(1, 8)), int(rng.integers(1, 8)), int(rng.integers(1, 8))
            a = t64(rng.standard_normal((L, da)))
            b = t64(rng.standard_normal((L, db)))
            probe = t64(rng.standard_normal((L, da + db)))

            def loss(ps):
                c = nm.concat_features(ps[0], ps[1])
                piece = nm.slice_cols(c, 0, max(1, da))
                return nm.add(nm.sum_all(nm.mul(c, probe)), nm.sum_all(piece))

            assert check_gradients(loss, [a, b]) <= REL_TOLERANCE
