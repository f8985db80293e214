import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.special import erf, ndtr

from eksft import model as mdl
from eksft import numerics as nk
from eksft.errors import DimensionError, NumericError

from conftest import grad_check


def test_matmul_identity():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2, 5))
    assert np.array_equal(nk.matmul(np.eye(2), x), x)


def test_matmul_manual():
    out = nk.matmul(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[1.0], [1.0]]))
    assert np.array_equal(out, np.array([[3.0], [7.0]]))


def test_matmul_shape_mismatch():
    with pytest.raises(DimensionError):
        nk.matmul(np.zeros((2, 3)), np.zeros((4, 2)))


def test_matmul_grad_check():
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        c = rng.normal(size=(3, 2))  # fixed cotangent

        def f(flat):
            a_ = flat.reshape(3, 4)
            val = float((nk.matmul(a_, b) * c).sum())
            grad_a, _ = nk.matmul_backward(c, a_, b)
            return val, grad_a.reshape(-1)

        def g(flat):
            b_ = flat.reshape(4, 2)
            val = float((nk.matmul(a, b_) * c).sum())
            _, grad_b = nk.matmul_backward(c, a, b_)
            return val, grad_b.reshape(-1)

        worst = max(worst, grad_check(f, a.reshape(-1)), grad_check(g, b.reshape(-1)))
    assert worst <= 1e-5


# The (k, n) weight shapes of deskbench's model: d_model 64, d_ff 256, vocab 32.
DESK_WEIGHTS = [(64, 64), (64, 256), (256, 64), (64, 32)]


@pytest.mark.parametrize("k,n", DESK_WEIGHTS)
def test_matmul_rows_do_not_depend_on_row_count(k, n):
    # A decoder drops finished rows between steps, so a row's bits must not
    # depend on how many rows share the product, down to a lone row.
    rng = np.random.default_rng(k + n)
    a, b = rng.normal(size=(40, 1, k)), rng.normal(size=(k, n))
    full = nk.matmul(a, b)
    for m in range(1, 41):
        assert np.array_equal(nk.matmul(a[:m], b), full[:m]), m
        assert np.array_equal(nk.matmul(a[:m, 0], b), full[:m, 0]), m


@pytest.mark.parametrize("k,n", DESK_WEIGHTS)
def test_matmul_training_shapes_match_stacked_matmul_and_tensordot(k, n):
    # With L >= 2 numpy's stacked `@` already calls gemm per sequence, and the
    # weight gradient was np.tensordot: training bits must not move.
    rng = np.random.default_rng(k * n)
    b = rng.normal(size=(k, n))
    for B in (1, 2, 3, 8, 17, 64):
        for L in (2, 7, 15, 30, 63):
            a, g = rng.normal(size=(B, L, k)), rng.normal(size=(B, L, n))
            assert np.array_equal(nk.matmul(a, b), a @ b), (B, L)
            _, grad_b = nk.matmul_backward(g, a, b)
            assert np.array_equal(grad_b, np.tensordot(a, g, axes=((0, 1), (0, 1)))), (B, L)


def test_log_softmax_symmetric_pair():
    out = nk.log_softmax(np.array([0.0, 0.0]))
    assert np.allclose(out, [-np.log(2), -np.log(2)], atol=1e-15, rtol=0)


def test_log_softmax_no_overflow():
    out = nk.log_softmax(np.array([1000.0, 0.0]))
    assert np.all(np.isfinite(out))
    assert abs(out[0]) < 1e-12


def test_log_softmax_rows_normalize():
    rng = np.random.default_rng(1)
    for _ in range(50):
        z = rng.normal(0, 5, size=(4, 17))
        s = np.exp(nk.log_softmax(z)).sum(axis=-1)
        assert np.all(np.abs(s - 1.0) <= 1e-12)


def test_log_softmax_rejects_nonfinite():
    with pytest.raises(NumericError):
        nk.log_softmax(np.array([0.0, np.nan]))


def test_layer_norm_constant_row_is_zero():
    x = np.full((3, 8), 4.2)
    out, _ = nk.layer_norm(x, np.ones(8), np.zeros(8))
    assert np.allclose(out, 0.0)


def test_layer_norm_grad_check():
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x = rng.normal(0, 1, size=(2, 6))
        gain = rng.normal(1, 0.2, size=6)
        bias = rng.normal(0, 0.2, size=6)
        c = rng.normal(size=(2, 6))

        def fx(flat):
            out, cache = nk.layer_norm(flat.reshape(2, 6), gain, bias)
            dx, _, _ = nk.layer_norm_backward(c, cache)
            return float((out * c).sum()), dx.reshape(-1)

        def fg(flat):
            out, cache = nk.layer_norm(x, flat, bias)
            _, dg, _ = nk.layer_norm_backward(c, cache)
            return float((out * c).sum()), dg

        def fb(flat):
            out, cache = nk.layer_norm(x, gain, flat)
            _, _, db = nk.layer_norm_backward(c, cache)
            return float((out * c).sum()), db

        worst = max(
            worst,
            grad_check(fx, x.reshape(-1)),
            grad_check(fg, gain),
            grad_check(fb, bias),
        )
    assert worst <= 1e-5


# decode steps of 1, 5 and 32 histories, and training batches
@pytest.mark.parametrize("shape", [(1, 1, 64), (5, 1, 64), (32, 1, 64), (8, 20, 64), (64, 24, 64)])
def test_layer_norm_equals_the_mean_formulation_bitwise(shape):
    """The forward and backward take their means as np.add.reduce / d; they equal
    the same formulas written with ndarray.mean, bit for bit."""
    rng = np.random.default_rng(len(shape) + sum(shape))
    x = rng.normal(0.3, 2.0, size=shape)
    gain, bias = rng.normal(1.0, 0.2, size=shape[-1]), rng.normal(0.0, 0.2, size=shape[-1])
    grad_out = rng.normal(size=shape)

    xc = x - x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + nk.LAYER_NORM_EPS)
    xhat = xc * inv
    dxhat = grad_out * gain
    want_dx = inv * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                     - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))

    out, cache = nk.layer_norm(x, gain, bias)
    dx, dgain, dbias = nk.layer_norm_backward(grad_out, cache)
    assert np.array_equal(out, gain * xhat + bias)
    assert np.array_equal(cache[0], xhat) and np.array_equal(cache[1], inv)
    assert np.array_equal(dx, want_dx)
    assert np.array_equal(dgain, (grad_out * xhat).sum(axis=(0, 1)))
    assert np.array_equal(dbias, grad_out.sum(axis=(0, 1)))


def test_gelu_zero():
    out, cdf = nk.gelu(np.array([0.0]))
    assert out[0] == 0.0 and cdf[0] == 0.5


def test_gelu_closed_form_bit_exact_and_cdf():
    """out is 0.5 * x * (1 + erf(x / sqrt 2)) to the last bit; the returned cdf is Phi."""
    rng = np.random.default_rng(12)
    x = np.concatenate([
        rng.normal(0.0, 3.0, size=20_000),
        rng.uniform(-40.0, 40.0, size=20_000),  # |x| > 10: Phi saturates at 0 or 1
        [0.0, -0.0, 1e-300, -1e-300, 10.0, -10.0, 38.5, -38.5],
    ])
    out, cdf = nk.gelu(x)
    assert np.array_equal(out, 0.5 * x * (1.0 + erf(x * (1.0 / math.sqrt(2.0)))))
    assert np.max(np.abs(cdf - ndtr(x))) <= 1e-15
    assert np.sum(np.abs(x) > 10.0) > 1000


def test_gelu_grad_check():
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        # beyond |x| ~ 5 the true derivative is ~1e-9 and central differences
        # measure only rounding noise, so stay in the informative range
        x = rng.uniform(-3.0, 3.0, size=9)
        c = rng.normal(size=9)

        def f(flat):
            out, cdf = nk.gelu(flat)
            return float((out * c).sum()), nk.gelu_backward(c, flat, cdf)

        worst = max(worst, grad_check(f, x))
    assert worst <= 1e-5


def test_embedding_repeated_index_accumulates():
    table = np.arange(12, dtype=float).reshape(4, 3)
    ids = np.array([1, 1, 2])
    out = nk.embedding_lookup(table, ids)
    grad_out = np.ones((3, 3))
    dtable = nk.embedding_lookup_backward(grad_out, ids, 4)
    assert np.array_equal(out[0], out[1])
    assert np.array_equal(dtable[1], np.full(3, 2.0))  # two hits on row 1
    assert np.array_equal(dtable[2], np.ones(3))
    assert np.array_equal(dtable[0], np.zeros(3))


def test_embedding_grad_check():
    rng = np.random.default_rng(4)
    ids = np.array([0, 2, 2, 1])
    c = rng.normal(size=(4, 3))

    def f(flat):
        table = flat.reshape(4, 3)
        out = nk.embedding_lookup(table, ids)
        return float((out * c).sum()), nk.embedding_lookup_backward(c, ids, 4).reshape(-1)

    assert grad_check(f, rng.normal(size=12)) <= 1e-6


def test_grad_check_quadratic():
    def f(x):
        return float(x[0] ** 2), np.array([2.0 * x[0]])

    assert grad_check(f, np.array([3.0])) <= 1e-8


def test_grad_check_flags_wrong_gradient():
    def f(x):
        return float(x[0] ** 2), np.array([2.0 * x[0] + 0.1])  # injected bug

    assert grad_check(f, np.array([3.0])) >= 1e-2


def test_kernels_are_pure():
    rng = np.random.default_rng(7)
    z = rng.normal(size=(3, 9))
    assert np.array_equal(nk.log_softmax(z), nk.log_softmax(z))
    a, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 5))
    assert np.array_equal(nk.matmul(a, b), nk.matmul(a, b))
    assert all(np.array_equal(a, b) for a, b in zip(nk.gelu(z), nk.gelu(z)))


def _blas_threads_at_import(env_value: str | None) -> str:
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if env_value is not None:
        env["OPENBLAS_NUM_THREADS"] = env_value
    code = "import eksft.numerics as nk; print(sorted(nk.blas_threads().items()))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    return proc.stdout.strip()


def test_import_sets_both_blas_pools_to_one_thread():
    assert _blas_threads_at_import(None) == "[('numpy', 1), ('scipy', 1)]"


def test_import_honours_openblas_num_threads():
    assert _blas_threads_at_import("2") == "[('numpy', 2), ('scipy', 2)]"


def test_missing_openblas_is_logged_and_skipped(monkeypatch, caplog):
    monkeypatch.setattr(nk, "_OPENBLAS", ((np, "no_such_openblas*.so", ""),
                                          (np, "libscipy_openblas64_*.so", "_no_such_suffix")))
    assert nk._openblas_pools() == {}
    assert [r.levelname for r in caplog.records] == ["WARNING", "WARNING"]
    assert "no no_such_openblas*.so in numpy.libs" in caplog.records[0].getMessage()


def test_training_and_decode_bits_do_not_depend_on_blas_threads():
    params = mdl.init(mdl.ModelConfig())
    rng = np.random.default_rng(4)
    ids = rng.integers(0, 32, size=(8, 32))
    dlogits = rng.normal(size=(8, 32, 32))
    prompts = rng.integers(0, 32, size=(64, 9))

    def step():
        logits, cache = mdl.forward(params, ids)
        past = []
        mdl.forward(params, prompts[:, :8], want_cache=False, past=past)
        decoded, _ = mdl.forward(params, prompts[:, 8:], want_cache=False, past=past)
        return logits, mdl.backward(params, cache, dlogits), decoded

    (before,) = set(nk.blas_threads().values())
    try:
        runs = []
        for n in (1, 2):
            nk.set_blas_threads(n)
            assert set(nk.blas_threads().values()) == {n}
            runs.append(step())
    finally:
        nk.set_blas_threads(before)
    assert all(np.array_equal(a, b) for a, b in zip(*runs))
