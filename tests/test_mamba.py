"""Selective scan semantics, scan-implementation equivalence, block behavior."""

import math
import tracemalloc

import numpy as np
import pytest

from bmace import mamba as mb
from bmace import numerics as nm
from bmace.gradcheck import REL_TOLERANCE, check_gradients


def total(x):
    """Scalar sum of ``x``'s elements, recorded on the active tape: the tests' loss."""
    out = nm.tensor(x.data.sum(), dtype=x.dtype)
    nm.record_op(out, (x,), lambda g: (np.broadcast_to(g, x.shape).astype(g.dtype),))
    return out


def t64(values):
    return nm.tensor(values, dtype=nm.HIGH)


def random_scan_instance(rng, L, d, n):
    u = t64(rng.standard_normal((L, d)))
    delta = t64(rng.uniform(0.01, 1.5, size=(L, d)))
    B = t64(rng.standard_normal((L, n)))
    C = t64(rng.standard_normal((L, n)))
    A = t64(-rng.uniform(0.1, 3.0, size=(d, n)))
    D = t64(rng.standard_normal(d))
    return mb.ScanInputs(u=u, delta=delta, B=B, C=C), A, D


def per_frame_scan(inputs, A, D):
    """y[t] = C[t].h[t] + D*u[t], h[t] = exp(delta[t] A) h[t-1] + delta[t] u[t] B[t], one frame at a time."""
    u, delta, B, C = (t.data for t in (inputs.u, inputs.delta, inputs.B, inputs.C))
    h = np.zeros(A.shape)
    y = np.empty(u.shape)
    for t in range(u.shape[0]):
        h = np.exp(delta[t][:, None] * A.data) * h + (delta[t] * u[t])[:, None] * B[t][None, :]
        y[t] = h @ C[t] + D.data * u[t]
    return y


T = mb.SCAN_CHUNK
CHUNK_LENGTHS = (1, T - 1, T, T + 1, 2 * T, 3 * T + 5)


def random_block_params(rng, d_model, d_inner, n, r, k, scale=0.4):
    def u(shape):
        return t64(rng.uniform(-scale, scale, size=shape))

    return dict(
        in_proj=u((d_model, 2 * d_inner)),
        conv_w=u((d_inner, k)),
        conv_b=u((d_inner,)),
        x_proj=u((d_inner, r + 2 * n)),
        dt_proj=u((r, d_inner)),
        dt_bias=u((d_inner,)),
        A_log=t64(rng.uniform(-1.0, 1.0, size=(d_inner, n))),
        D=u((d_inner,)),
        out_proj=u((d_inner, d_model)),
        norm_gain=t64(rng.uniform(0.5, 1.5, size=(d_model,))),
    )


class TestLinearRecurrence:
    @staticmethod
    def operands(L, seed=30):
        rng = np.random.default_rng(seed)
        a = rng.uniform(0.5, 1.0, size=(L, 3, 2))
        b = rng.standard_normal((L, 3, 2))
        return a, b

    def test_assoc_matches_seq_past_one_chunk(self):
        for L in range(1, 201):
            a, b = self.operands(L, seed=L)
            want = mb.linear_recurrence(a, b.copy(), "seq")
            got = mb.linear_recurrence(a, b.copy(), "assoc")
            assert np.max(np.abs(got - want)) <= 1e-12, f"L={L}"

    def test_assoc_is_bit_stable_across_lengths(self):
        a, b = self.operands(200)
        full = mb.linear_recurrence(a, b.copy(), "assoc")
        head = mb.linear_recurrence(a[:77], b[:77].copy(), "assoc")
        assert np.array_equal(head, full[:77])

    def test_assoc_leaves_a_unchanged(self):
        a, b = self.operands(200)
        kept = a.copy()
        mb.linear_recurrence(a, b, "assoc")
        assert np.array_equal(a, kept)


class TestDiscretize:
    def test_known_value(self):
        # delta = ln 2, A = -1, B = C = 1, D = 0, u = [1, 0]: the scan's
        # discretization gives Bbar = ln 2 and Abar = 1/2, so
        # y1 = h1 = ln 2 and y2 = h2 = Abar * h1 = (ln 2) / 2.
        s = mb.ScanInputs(u=t64([[1.0], [0.0]]), delta=t64([[math.log(2.0)]] * 2),
                          B=t64([[1.0], [1.0]]), C=t64([[1.0], [1.0]]))
        y = mb.selective_scan_seq(s, t64([[-1.0]]), t64([0.0]))
        assert y.data[0, 0] == pytest.approx(math.log(2.0), abs=1e-15)
        assert y.data[1, 0] == pytest.approx(0.5 * math.log(2.0), abs=1e-15)


class TestSelectiveScan:
    def test_two_step_hand_example(self):
        # A=-1, delta=1, B=C=1, D=0, u=[1,1]:
        #   h1 = 1, y1 = 1;  h2 = e^-1 + 1, y2 = 1 + e^-1.
        s = mb.ScanInputs(u=t64([[1.0], [1.0]]), delta=t64([[1.0], [1.0]]),
                          B=t64([[1.0], [1.0]]), C=t64([[1.0], [1.0]]))
        A = t64([[-1.0]])
        D = t64([0.0])
        y = mb.selective_scan_seq(s, A, D)
        assert y.data[0, 0] == pytest.approx(1.0, abs=1e-15)
        assert y.data[1, 0] == pytest.approx(1.0 + math.exp(-1.0), abs=1e-15)

    def test_single_frame(self):
        rng = np.random.default_rng(2)
        s, A, D = random_scan_instance(rng, 1, 3, 2)
        y = mb.selective_scan_seq(s, A, D)
        # One step: h = Bbar*u, y = C.h + D*u.
        bu = (s.delta.data * s.u.data)[0][:, None] * s.B.data[0][None, :]
        want = bu @ s.C.data[0] + D.data * s.u.data[0]
        assert np.max(np.abs(y.data[0] - want)) <= 1e-14

    def test_seq_equals_assoc(self):
        lengths = [1, 2, 3, 16, 100, 512]
        rng = np.random.default_rng(3)
        for i in range(100):
            L = lengths[i % len(lengths)]
            d = int(rng.integers(1, 6))
            n = int(rng.integers(1, 5))
            s, A, D = random_scan_instance(rng, L, d, n)
            y_seq = mb.selective_scan_seq(s, A, D)
            y_assoc = mb.selective_scan_assoc(s, A, D)
            assert np.max(np.abs(y_seq.data - y_assoc.data)) <= 1e-10, f"instance {i} (L={L})"

    @pytest.mark.parametrize("L", CHUNK_LENGTHS)
    def test_chunked_scan_matches_per_frame_loop(self, L):
        rng = np.random.default_rng(30 + L)
        s, A, D = random_scan_instance(rng, L, 5, 3)
        want = per_frame_scan(s, A, D)
        for scan in (mb.selective_scan_seq, mb.selective_scan_assoc):
            y = scan(s, A, D)
            assert np.max(np.abs(y.data - want)) <= 1e-10, f"{scan.__name__}, L={L}"

    @pytest.mark.parametrize("dtype", [nm.HIGH, nm.STANDARD], ids=["float64", "float32"])
    def test_taped_and_untaped_outputs_are_identical(self, dtype):
        # Untaped, the scan reuses one chunk of state buffers and keeps only
        # the carry row; taped, it keeps every chunk for the adjoint.
        for L in CHUNK_LENGTHS:
            rng = np.random.default_rng(40 + L)
            s, A, D = random_scan_instance(rng, L, 6, 4)
            s = mb.ScanInputs(*(nm.Tensor(t.data, dtype=dtype) for t in (s.u, s.delta, s.B, s.C)))
            A, D = nm.Tensor(A.data, dtype=dtype), nm.Tensor(D.data, dtype=dtype)
            untaped = mb.selective_scan_seq(s, A, D)
            with nm.Tape() as tape:
                taped = mb.selective_scan_seq(s, A, D)
            assert len(tape) == 1
            assert np.array_equal(taped.data, untaped.data), f"L={L}"

    def test_untaped_state_memory_is_one_chunk(self):
        # float32, 10,000 frames, d_inner=128, n_state=16: one full state
        # array would be 82 MB. Untaped, the scan holds its (L, d) delta*u
        # and output plus one chunk of state.
        rng = np.random.default_rng(9)
        L, d, n = 10_000, 128, 16
        s = mb.ScanInputs(
            u=nm.Tensor(rng.standard_normal((L, d)), dtype=nm.STANDARD),
            delta=nm.Tensor(rng.uniform(0.01, 1.5, size=(L, d)), dtype=nm.STANDARD),
            B=nm.Tensor(rng.standard_normal((L, n)), dtype=nm.STANDARD),
            C=nm.Tensor(rng.standard_normal((L, n)), dtype=nm.STANDARD))
        A = nm.Tensor(-rng.uniform(0.1, 3.0, size=(d, n)), dtype=nm.STANDARD)
        D = nm.Tensor(rng.standard_normal(d), dtype=nm.STANDARD)
        tracemalloc.start()
        try:
            mb.selective_scan_seq(s, A, D)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2 ** 20

    def test_prefix_sum_reduction_when_a_is_zero(self):
        # With A = 0, Abar = 1 and the scan is a running sum; check against
        # an independent cumulative-sum oracle.
        rng = np.random.default_rng(4)
        for _ in range(10):
            L, d, n = int(rng.integers(2, 40)), int(rng.integers(1, 5)), int(rng.integers(1, 4))
            s, _, D = random_scan_instance(rng, L, d, n)
            A0 = t64(np.zeros((d, n)))
            y = mb.selective_scan_seq(s, A0, D)
            du = s.delta.data * s.u.data
            prefix = np.cumsum(du[:, :, None] * s.B.data[:, None, :], axis=0)
            want = np.einsum("tdn,tn->td", prefix, s.C.data) + D.data[None, :] * s.u.data
            assert np.max(np.abs(y.data - want)) <= 1e-10

    def test_bounded_state(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            L, d, n = int(rng.integers(2, 60)), int(rng.integers(1, 5)), int(rng.integers(1, 5))
            s, A, _ = random_scan_instance(rng, L, d, n)
            abar = np.exp(s.delta.data[:, :, None] * A.data[None, :, :])
            assert np.all(abar > 0.0) and np.all(abar < 1.0)
            b_seq = (s.delta.data * s.u.data)[:, :, None] * s.B.data[:, None, :]
            bound = np.max(np.abs(b_seq)) / (1.0 - abar.max())
            h = mb.linear_recurrence(abar, b_seq, impl="seq")
            assert np.max(np.abs(h)) <= bound + 1e-12

    def test_delta_must_be_positive(self):
        with pytest.raises(ValueError):
            mb.ScanInputs(u=t64([[1.0]]), delta=t64([[0.0]]),
                          B=t64([[1.0]]), C=t64([[1.0]]))

    def test_scan_gradients(self):
        rng = np.random.default_rng(7)
        for seed in range(10):
            inst_rng = np.random.default_rng(700 + seed)
            L, d, n = int(inst_rng.integers(1, 7)), int(inst_rng.integers(1, 4)), int(inst_rng.integers(1, 4))
            s, A, D = random_scan_instance(inst_rng, L, d, n)
            probe = t64(rng.standard_normal((L, d)))

            def loss(ps):
                u, delta, B, C, A_, D_ = ps
                out = mb.selective_scan_seq(mb.ScanInputs(u=u, delta=delta, B=B, C=C), A_, D_)
                return total(nm.mul(out, probe))

            err = check_gradients(loss, [s.u, s.delta, s.B, s.C, A, D])
            assert err <= REL_TOLERANCE, f"seed {seed}: rel err {err:.2e}"

    @pytest.mark.parametrize("L", [T + 1, 2 * T + 3])
    def test_scan_gradients_across_chunks(self, L):
        rng = np.random.default_rng(50 + L)
        s, A, D = random_scan_instance(rng, L, 3, 2)
        probe = t64(rng.standard_normal((L, 3)))

        def loss(ps):
            u, delta, B, C, A_, D_ = ps
            out = mb.selective_scan_seq(mb.ScanInputs(u=u, delta=delta, B=B, C=C), A_, D_)
            return total(nm.mul(out, probe))

        err = check_gradients(loss, [s.u, s.delta, s.B, s.C, A, D])
        assert err <= REL_TOLERANCE, f"L={L}: rel err {err:.2e}"

    def test_assoc_scan_gradients_match_seq(self):
        # Lengths cover the adjoint's first and last frames, the scan's
        # SCAN_CHUNK-frame chunks and the 64-frame chunk boundaries of the
        # associative scan.
        for L in (1, 2, 12, T - 1, T, T + 1, 63, 64, 65, 129):
            rng = np.random.default_rng(8 + L)
            s, A, D = random_scan_instance(rng, L, 3, 2)
            probe = t64(rng.standard_normal((L, 3)))
            params = [s.u, s.delta, s.B, s.C, A, D]

            def loss_with(scan_fn):
                def loss():
                    out = scan_fn(mb.ScanInputs(u=params[0], delta=params[1],
                                                B=params[2], C=params[3]), params[4], params[5])
                    return total(nm.mul(out, probe))
                return loss

            y_seq = mb.selective_scan_seq(s, A, D).data
            y_assoc = mb.selective_scan_assoc(s, A, D).data
            assert y_seq.dtype == np.float64
            assert np.max(np.abs(y_seq - y_assoc)) <= 1e-10, f"L={L}"
            g_seq = nm.grad(loss_with(mb.selective_scan_seq), params)
            g_assoc = nm.grad(loss_with(mb.selective_scan_assoc), params)
            for name, gs, ga in zip("u delta B C A D".split(), g_seq, g_assoc):
                assert np.max(np.abs(gs.data - ga.data)) <= 1e-10, f"L={L}, d{name}"


class TestMambaBlock:
    TINY = dict(d_model=4, d_inner=8, n=2, r=2, k=2)

    def test_shape_preserved(self):
        rng = np.random.default_rng(10)
        p = random_block_params(rng, **self.TINY)
        x = t64(rng.standard_normal((5, 4)))
        assert mb.mamba_block(x, p).shape == (5, 4)

    def test_zero_parameters_give_zero_output(self):
        # With in_proj = 0 the gate is silu(0) = 0 and annihilates everything.
        z = self.TINY
        p = dict(
            in_proj=t64(np.zeros((z["d_model"], 2 * z["d_inner"]))),
            conv_w=t64(np.zeros((z["d_inner"], z["k"]))),
            conv_b=t64(np.zeros(z["d_inner"])),
            x_proj=t64(np.zeros((z["d_inner"], z["r"] + 2 * z["n"]))),
            dt_proj=t64(np.zeros((z["r"], z["d_inner"]))),
            dt_bias=t64(np.zeros(z["d_inner"])),
            A_log=t64(np.zeros((z["d_inner"], z["n"]))),
            D=t64(np.zeros(z["d_inner"])),
            out_proj=t64(np.zeros((z["d_inner"], z["d_model"]))),
            norm_gain=t64(np.ones(z["d_model"])),
        )
        rng = np.random.default_rng(11)
        y = mb.mamba_block(t64(rng.standard_normal((6, 4))), p)
        assert np.array_equal(y.data, np.zeros((6, 4)))

    def test_seq_and_assoc_block_agree(self):
        rng = np.random.default_rng(14)
        p = random_block_params(rng, **self.TINY)
        x = t64(rng.standard_normal((130, 4)))
        y1 = mb.mamba_block(x, p, scan_impl="seq")
        y2 = mb.mamba_block(x, p, scan_impl="assoc")
        assert np.max(np.abs(y1.data - y2.data)) <= 1e-10

    def test_block_gradients(self):
        for L in (5, T + 3):
            rng = np.random.default_rng(15)
            p = random_block_params(rng, d_model=4, d_inner=8, n=2, r=2, k=2)
            x = t64(rng.standard_normal((L, 4)))
            probe = t64(rng.standard_normal((L, 4)))
            names, tensors = list(p), list(p.values())

            def loss(ps):
                y = mb.mamba_block(ps[-1], dict(zip(names, ps[:-1])))
                return total(nm.mul(y, probe))

            err = check_gradients(loss, tensors + [x])
            assert err <= REL_TOLERANCE, f"L={L}: rel err {err:.2e}"

    def test_gradient_reaches_every_parameter(self):
        rng = np.random.default_rng(16)
        p = random_block_params(rng, **self.TINY)
        x = t64(rng.standard_normal((7, 4)))
        tensors = list(p.values())
        grads = nm.grad(lambda: total(mb.mamba_block(x, p)), tensors)
        for name, g in zip(p, grads):
            assert np.any(g.data != 0.0), f"no gradient reached {name}"
