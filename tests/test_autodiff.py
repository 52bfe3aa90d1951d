import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semfuse import autodiff as ad
from semfuse.errors import ContractError, FormatError, ShapeError


def test_matmul_hand_value():
    a = ad.constant([[3.0, 4.0]])
    b = ad.constant([[1.0], [1.0]])
    assert ad.matmul(a, b).item() == 7.0


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(1, 2\).*\(3, 1\)"):
        ad.matmul(ad.constant([[1.0, 2.0]]), ad.constant([[1.0], [2.0], [3.0]]))


def test_leaky_relu_applies_slope_below_zero():
    out = ad.leaky_relu(ad.constant([-2.0, 0.0, 3.0]), slope=0.1)
    assert np.allclose(out.data, [-0.2, 0.0, 3.0])


def test_log_and_exp_are_inverse_with_correct_gradients():
    store = ad.ParamStore()
    store.add("x", [0.5, 2.0])
    back = ad.log(ad.exp(store["x"]))
    assert np.allclose(back.data, [0.5, 2.0])
    ad.backward(ad.sum_all(back), store)
    assert np.allclose(store.grads["x"], [1.0, 1.0])


def test_mean_all_value_and_gradient():
    store = ad.ParamStore()
    store.add("x", [[1.0, 2.0], [3.0, 6.0]])
    loss = ad.mean_all(store["x"])
    assert loss.item() == 3.0
    ad.backward(loss, store)
    assert np.allclose(store.grads["x"], np.full((2, 2), 0.25))


def test_bias_add_broadcasts_over_rows():
    eye = ad.constant(np.eye(2))
    out = ad.linear(ad.constant([[1.0, 2.0], [3.0, 4.0]]), eye, ad.constant([10.0, 20.0]))
    assert np.array_equal(out.data, [[11.0, 22.0], [13.0, 24.0]])
    with pytest.raises(ShapeError):
        ad.linear(ad.constant([[1.0, 2.0]]), eye, ad.constant([1.0, 2.0, 3.0]))


def test_linear_value_is_the_numpy_affine_map_bit_for_bit():
    rng = np.random.default_rng(12)
    x, W, b = rng.normal(size=(7, 5)), rng.normal(size=(3, 5)), rng.normal(size=3)
    out = ad.linear(ad.constant(x), ad.constant(W), ad.constant(b))
    assert np.array_equal(out.data, x @ W.T + b)


def test_linear_passes_grad_check():
    rng = np.random.default_rng(13)
    store = ad.ParamStore()
    x = store.add("x", rng.normal(size=(6, 4)))
    W = store.add("W", rng.normal(size=(3, 4)))
    b = store.add("b", rng.normal(size=3))
    assert ad.grad_check(lambda: ad.sum_sq(ad.linear(x, W, b)), store) < 1e-6


def test_linear_shape_error_names_all_three_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 4\).*\(3, 5\).*\(3,\)"):
        ad.linear(ad.constant(np.ones((2, 4))), ad.constant(np.ones((3, 5))),
                  ad.constant(np.ones(3)))


def test_backward_sum_of_squares():
    store = ad.ParamStore()
    store.add("x", [3.0])
    loss = ad.sum_sq(store["x"])
    ad.backward(loss, store)
    assert np.allclose(store.grads["x"], [6.0])


def test_backward_quadratic_form_matches_finite_differences():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(4, 4))
    a = a + a.T
    store = ad.ParamStore()
    store.add("x", rng.normal(size=(4, 1)))

    def loss_fn():
        x = store["x"]
        return ad.sum_all(ad.matmul(ad.transpose(x), ad.matmul(ad.constant(a), x)))

    assert ad.grad_check(loss_fn, store) < 1e-6
    # closed form: grad of x'Ax is 2Ax for symmetric A
    ad.backward(loss_fn(), store)
    assert np.allclose(store.grads["x"], 2 * a @ store["x"].data)


def test_backward_unreached_parameter_gets_zero_gradient():
    store = ad.ParamStore()
    store.add("used", [2.0])
    store.add("unused", [5.0])
    ad.backward(ad.sum_sq(store["used"]), store)
    assert np.array_equal(store.grads["unused"], [0.0])


def test_backward_rejects_non_scalar_loss():
    store = ad.ParamStore()
    store.add("x", [1.0, 2.0])
    with pytest.raises(ContractError):
        ad.backward(ad.mul(store["x"], store["x"]), store)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_backward_rejects_non_finite_loss_and_names_it(value):
    store = ad.ParamStore()
    store.add("x", [1.0])
    loss = ad.scale(ad.sum_all(store["x"]), value)
    with pytest.raises(ContractError, match=str(loss.item())):
        ad.backward(loss, store)
    assert store.grads == {}


def test_grad_check_relu_network_off_kink():
    rng = np.random.default_rng(3)
    store = ad.ParamStore()
    store.add("W", rng.normal(size=(5, 4)))
    store.add("b", rng.uniform(0.1, 0.5, size=5))  # keep pre-activations off zero
    x = ad.constant(rng.normal(size=(8, 4)))

    def loss_fn():
        h = ad.leaky_relu(ad.linear(x, store["W"], store["b"]), slope=0.0)
        return ad.mean_all(h)

    assert ad.grad_check(loss_fn, store) < 1e-4


def test_grad_check_empty_store_is_zero():
    assert ad.grad_check(lambda: ad.constant(1.0), ad.ParamStore()) == 0.0


@given(
    a=st.floats(-3, 3, allow_nan=False),
    b=st.floats(-3, 3, allow_nan=False),
)
@settings(max_examples=25, deadline=None)
def test_backward_is_linear_in_the_loss(a, b):
    rng = np.random.default_rng(11)
    store = ad.ParamStore()
    store.add("x", rng.normal(size=(3,)))

    def l1():
        return ad.sum_sq(store["x"])

    def l2():
        return ad.sum_all(ad.mul(store["x"], ad.constant([1.0, -2.0, 0.5])))

    ad.backward(l1(), store)
    g1 = store.grads["x"].copy()
    ad.backward(l2(), store)
    g2 = store.grads["x"].copy()
    ad.backward(ad.add(ad.scale(l1(), a), ad.scale(l2(), b)), store)
    assert np.allclose(store.grads["x"], a * g1 + b * g2)


def test_sgd_step_hand_value():
    store = ad.ParamStore()
    store.add("p", [1.0])
    store.grads["p"] = np.array([0.5])
    ad.sgd_step(store, 0.1)
    assert np.allclose(store["p"].data, [0.95])


def test_sgd_zero_gradient_leaves_parameter():
    store = ad.ParamStore()
    store.add("p", [1.25])
    store.grads["p"] = np.array([0.0])
    ad.sgd_step(store, 0.1)
    assert np.array_equal(store["p"].data, [1.25])


def test_sgd_missing_gradient_is_contract_error():
    store = ad.ParamStore()
    store.add("p", [1.0])
    with pytest.raises(ContractError):
        ad.sgd_step(store, 0.1)


def test_adam_first_step_moves_by_lr_times_sign():
    for g in (0.3, -2.0, 1e-3):
        store = ad.ParamStore()
        store.add("p", [1.0])
        store.grads["p"] = np.array([g])
        state = ad.AdamState(store)
        ad.adam_step(store, state, lr=0.01)
        # bias-corrected first step reduces to lr * g / (|g| + eps)
        assert store["p"].data[0] == pytest.approx(1.0 - 0.01 * np.sign(g), rel=1e-4)


def test_adam_is_deterministic_and_stateful():
    def run():
        store = ad.ParamStore()
        store.add("p", [1.0])
        state = ad.AdamState(store)
        for g in (0.5, -0.25, 0.1):
            store.grads["p"] = np.array([g])
            ad.adam_step(store, state, lr=0.05)
        return store["p"].data.copy()

    assert np.array_equal(run(), run())


def test_duplicate_parameter_name_rejected():
    store = ad.ParamStore()
    store.add("p", [1.0])
    with pytest.raises(ContractError):
        store.add("p", [2.0])


def test_gradient_shapes_match_parameters():
    rng = np.random.default_rng(5)
    store = ad.ParamStore()
    store.add("W", rng.normal(size=(3, 2)))
    store.add("b", rng.normal(size=3))
    x = ad.constant(rng.normal(size=(4, 2)))
    loss = ad.sum_sq(ad.linear(x, store["W"], store["b"]))
    ad.backward(loss, store)
    for name, t in store.items():
        assert store.grads[name].shape == t.data.shape


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    store = ad.ParamStore()
    store.add("W", rng.normal(size=(3, 4)))
    store.add("b", rng.normal(size=4))
    store.add("s", rng.normal())
    path = tmp_path / "model.ckpt"
    ad.save_params(path, {"net": store})
    values = ad.load_params(path)
    assert set(values) == {"net.W", "net.b", "net.s"}
    for name, t in store.items():
        assert np.array_equal(values[f"net.{name}"], t.data)


def test_checkpoint_restore_into_store(tmp_path):
    store = ad.ParamStore()
    store.add("W", np.ones((2, 2)))
    path = tmp_path / "m.ckpt"
    ad.save_params(path, {"": store})
    fresh = ad.ParamStore()
    fresh.add("W", np.zeros((2, 2)))
    ad.restore_store(fresh, ad.load_params(path))
    assert np.array_equal(fresh["W"].data, np.ones((2, 2)))


def test_checkpoint_rejects_malformed_file(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_text("W 2,2 1 2 3\n")  # wrong value count
    with pytest.raises(FormatError):
        ad.load_params(path)


def test_second_order_gradients_through_first_backward():
    # d/dx of (dy/dx) for y = x^3: first grad is 3x^2, its grad is 6x
    store = ad.ParamStore()
    x = store.add("x", [2.0])
    y = ad.sum_all(ad.mul(ad.mul(x, x), x))
    (g,) = ad.grad(y, [x], create_graph=True)
    assert np.allclose(g.data, [12.0])
    ad.backward(ad.sum_all(g), store)
    assert np.allclose(store.grads["x"], [12.0])
