import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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


def _reference_checkpoint(stores) -> bytes:
    """Checkpoint bytes with one ``format(v, ".17g")`` call per value."""
    lines = []
    for prefix, store in stores.items():
        for name, t in store.items():
            full = f"{prefix}.{name}" if prefix else name
            dims = ",".join(str(s) for s in t.data.shape) or "-"
            vals = " ".join(format(v, ".17g") for v in t.data.reshape(-1))
            lines.append(f"{full} {dims} {vals}".rstrip())
    return ("\n".join(lines) + "\n").encode("utf-8")


def _store(arrays: dict) -> ad.ParamStore:
    """A store holding ``arrays`` as they are; ``add`` refuses non-finite
    values, so they are put in place after it."""
    store = ad.ParamStore()
    for name, value in arrays.items():
        value = np.asarray(value, dtype=np.float64)
        store.add(name, np.zeros(value.shape)).data = value
    return store


def _assert_bitwise_round_trip(path, stores):
    values = ad.load_params(path)
    for prefix, store in stores.items():
        for name, t in store.items():
            got = values[f"{prefix}.{name}" if prefix else name]
            assert got.shape == t.data.shape and got.tobytes() == t.data.tobytes(), name


EDGE_VALUES = [-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
               -1.7976931348623157e308, 0.1, 1 / 3, np.nan, np.inf, -np.inf]


def test_checkpoint_bytes_match_per_value_format_on_edge_values(tmp_path):
    store = _store({
        "edges": EDGE_VALUES,
        "grid": np.reshape(EDGE_VALUES[:10], (2, 5)),
        "neg_zero": -0.0,
        "tiny": 5e-324,
        "nan": np.nan,
        "empty": np.zeros(0),
        "empty_rows": np.zeros((2, 0)),
    })
    stores = {"net": store, "": _store({"bare": [0.1, -0.0, -np.inf]})}
    path = tmp_path / "edges.ckpt"
    ad.save_params(path, stores)
    assert path.read_bytes() == _reference_checkpoint(stores)
    _assert_bitwise_round_trip(path, stores)


def test_checkpoint_record_longer_than_three_chunks_matches_one_shot_format(tmp_path):
    values = np.random.default_rng(5).normal(size=3 * ad.SAVE_CHUNK + 7)
    values[ad.SAVE_CHUNK - 1 : ad.SAVE_CHUNK + 1] = [-0.0, 5e-324]  # across a boundary
    stores = {"net": _store({"long": values, "scalar": 0.5, "empty": np.zeros(0)})}
    path = tmp_path / "long.ckpt"
    ad.save_params(path, stores)
    assert path.read_bytes() == _reference_checkpoint(stores)
    _assert_bitwise_round_trip(path, stores)


def test_checkpoint_of_empty_stores_is_one_empty_line(tmp_path):
    path = tmp_path / "none.ckpt"
    stores = {"net": ad.ParamStore()}
    ad.save_params(path, stores)
    assert path.read_bytes() == _reference_checkpoint(stores) == b"\n"
    with pytest.raises(FormatError, match="empty checkpoint"):
        ad.load_params(path)


@pytest.fixture(scope="module")
def ckpt_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("ckpt")


@given(
    arrays=st.lists(
        hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
            elements=st.floats(allow_nan=False, width=64),  # text keeps no NaN sign or payload
        ),
        min_size=1,
        max_size=4,
    )
)
@settings(max_examples=60, deadline=None)
def test_checkpoint_bytes_and_round_trip_on_random_arrays(ckpt_dir, arrays):
    stores = {"net": _store({f"p{i}": a for i, a in enumerate(arrays)})}
    path = ckpt_dir / "random.ckpt"
    ad.save_params(path, stores)
    assert path.read_bytes() == _reference_checkpoint(stores)
    _assert_bitwise_round_trip(path, stores)


def test_load_params_keeps_only_requested_prefixes(tmp_path):
    rng = np.random.default_rng(2)
    stores = {p: ad.ParamStore() for p in ("gen", "disc", "fusion", "")}
    for p, store in stores.items():
        store.add("W", rng.normal(size=(2, 3)))
        store.add("b", rng.normal(size=3))
    path = tmp_path / "m.ckpt"
    ad.save_params(path, stores)
    values = ad.load_params(path, ("gen", "fusion"))
    assert sorted(values) == ["fusion.W", "fusion.b", "gen.W", "gen.b"]
    for name, array in values.items():
        prefix, _, key = name.partition(".")
        assert array.tobytes() == stores[prefix][key].data.tobytes()
    assert ad.load_params(path, ("cls",)) == {}


def test_load_params_does_not_parse_skipped_records(tmp_path):
    path = tmp_path / "m.ckpt"
    path.write_text("gen.W 2 1 2\ndisc.W 2 oops 1\ncls.W 3,3 1\ngen.b - 5\n")
    values = ad.load_params(path, ("gen",))
    assert sorted(values) == ["gen.W", "gen.b"]
    with pytest.raises(FormatError, match="m.ckpt:2: could not convert string to float"):
        ad.load_params(path)


@pytest.mark.parametrize(
    "text,message",
    [
        ("gen.W 1 1\ndisc.W 1 2\ndisc.W 1 3\n", ":3: duplicate parameter 'disc.W'"),
        ("gen.W 1 1\ndisc.W 1 2\ngen.W 1 3\n", ":3: duplicate parameter 'gen.W'"),
        ("gen.W 1 1\n\ndisc.W\n", ":3: malformed checkpoint record"),
        ("gen.W 1 oops\ndisc.W 1 2\n", ":1: could not convert string to float"),
        ("gen.W 2 1\n", ":1: 1 values for shape \\(2,\\)"),
    ],
)
def test_load_params_checks_every_record_structure(tmp_path, text, message):
    path = tmp_path / "bad.ckpt"
    path.write_text(text)
    with pytest.raises(FormatError, match="bad.ckpt" + message):
        ad.load_params(path, ("gen",))


def test_second_order_gradients_through_first_backward():
    # d/dx of (dy/dx) for y = x^3: first grad is 3x^2, its grad is 6x
    store = ad.ParamStore()
    x = store.add("x", [2.0])
    y = ad.sum_all(ad.mul(ad.mul(x, x), x))
    (g,) = ad.grad(y, [x], create_graph=True)
    assert np.allclose(g.data, [12.0])
    ad.backward(ad.sum_all(g), store)
    assert np.allclose(store.grads["x"], [12.0])


def test_leaky_relu_value_is_the_two_branch_where_bit_for_bit():
    x = np.array([-3.5, -0.0, 0.0, 1e-300, -1e-300, 2.25, np.inf, -np.inf, np.nan])
    with np.errstate(invalid="ignore"):  # -inf * 0.0
        for slope in (0.2, 0.0, 1.0):
            out = ad.leaky_relu(ad.constant(x), slope=slope)
            assert out.data.tobytes() == np.where(x > 0, x, slope * x).tobytes()


def test_first_order_adjoints_are_plain_constants():
    rng = np.random.default_rng(21)
    x = ad.leaf(rng.normal(size=(3, 2)))
    W = ad.leaf(rng.normal(size=(4, 2)))
    b = ad.leaf(rng.normal(size=4))
    loss = ad.sum_sq(ad.leaky_relu(ad.linear(x, W, b)))
    for g in ad.grad(loss, [x, W, b]):
        assert g.parents == () and g.vjps is None and not g.requires_grad
    # a second-order request keeps its adjoints in the graph
    (g,) = ad.grad(loss, [x], create_graph=True)
    assert g.parents and g.requires_grad
    assert ad.mul(x, x).parents == (x, x)


def test_grad_restores_graph_building_when_a_rule_raises():
    x = ad.leaf([1.0, 2.0])

    def broken(g):
        raise RuntimeError("rule failed")

    y = ad.Tensor(x.data * 2.0, (x,), (broken,))
    with pytest.raises(RuntimeError, match="rule failed"):
        ad.grad(ad.sum_all(y), [x])
    assert ad.mul(x, x).parents == (x, x)


@pytest.mark.parametrize("create_graph", [False, True])
def test_grad_accumulates_adjoints_through_add(create_graph):
    x = ad.leaf([1.0, 2.0, 3.0])
    (g,) = ad.grad(ad.sum_all(ad.mul(x, x)), [x], create_graph=create_graph)
    assert np.array_equal(g.data, 2.0 * x.data)
    assert bool(g.parents) is create_graph
    # a rule returning a broadcastable adjoint of the wrong shape is refused
    y = ad.Tensor(x.data, (x, x), (lambda g: g, lambda g: ad.constant([1.0])))
    with pytest.raises(ShapeError, match=r"add shape mismatch: \(3,\) vs \(1,\)"):
        ad.grad(ad.sum_all(y), [x], create_graph=create_graph)


def test_grad_calls_rules_only_for_parents_on_a_path_to_an_input():
    rng = np.random.default_rng(22)
    x = ad.leaf(rng.normal(size=(3, 2)))
    W = ad.leaf(rng.normal(size=(4, 2)))
    b = ad.leaf(rng.normal(size=4))
    loss = ad.sum_sq(ad.linear(x, W, b))
    called = []
    for node in ad._toposort(loss):
        if node.vjps is not None:
            node.vjps = tuple(
                (lambda p, rule: lambda g: called.append(p) or rule(g))(p, rule)
                for p, rule in zip(node.parents, node.vjps)
            )
    (gx,) = ad.grad(loss, [x])
    assert any(p is x for p in called)
    assert not any(p is W or p is b for p in called)
    expected = 2.0 * (x.data @ W.data.T + b.data) @ W.data
    assert np.allclose(gx.data, expected)


def test_grad_of_a_constant_input_is_none():
    x = ad.leaf([1.0, 2.0])
    c = ad.constant([3.0, 4.0])
    assert ad.grad(ad.sum_all(ad.mul(x, c)), [c, x])[0] is None


def test_backward_stores_c_ordered_gradients():
    rng = np.random.default_rng(23)
    store = ad.ParamStore()
    store.add("W", rng.normal(size=(4, 3)))
    store.add("b", rng.normal(size=4))
    x = ad.constant(rng.normal(size=(5, 3)))
    ad.backward(ad.sum_sq(ad.linear(x, store["W"], store["b"])), store)
    assert all(g.flags.c_contiguous for g in store.grads.values())


def _log(x):
    """Elementwise natural log as a graph op."""
    return ad.Tensor(np.log(x.data), (x,), (lambda g: ad.div(g, x),))


def _xent_as_op_chain(logits, onehot):
    """Softmax cross-entropy spelled out in primitive ops."""
    n, k = logits.shape
    shift = ad.constant(logits.data.max(axis=1, keepdims=True))
    shifted = ad.sub(logits, ad.tile_cols(shift, k))
    lse = ad.add(_log(ad.sum_last(ad.exp(shifted))), shift)
    true_logit = ad.sum_last(ad.mul(logits, ad.constant(onehot)))
    return ad.mean_all(ad.sub(lse, true_logit))


def _onehot(rows, k):
    onehot = np.zeros((len(rows), k))
    onehot[np.arange(len(rows)), rows] = 1.0
    return onehot


@given(
    logits=st.integers(1, 6).flatmap(
        lambda n: st.integers(2, 5).flatmap(
            lambda k: hnp.arrays(np.float64, (n, k), elements=st.floats(-60, 60))
        )
    ),
    seed=st.integers(0, 2**16),
    weight=st.floats(-3, 3, allow_nan=False),
)
@settings(max_examples=60, deadline=None)
def test_softmax_xent_matches_the_op_chain_bit_for_bit(logits, seed, weight):
    n, k = logits.shape
    onehot = _onehot(np.random.default_rng(seed).integers(0, k, size=n), k)
    fused, chain = ad.leaf(logits), ad.leaf(logits)
    new = ad.softmax_xent(fused, onehot)
    old = _xent_as_op_chain(chain, onehot)
    assert new.data.tobytes() == old.data.tobytes()
    (g_new,) = ad.grad(ad.scale(new, weight), [fused])
    (g_old,) = ad.grad(ad.scale(old, weight), [chain])
    assert g_new.data.tobytes() == g_old.data.tobytes()


@given(
    logits=st.integers(1, 6).flatmap(
        lambda n: st.integers(2, 5).flatmap(
            lambda k: hnp.arrays(np.float64, (n, k), elements=st.floats(-60, 60))
        )
    ),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_softmax_xent_grad_is_the_graph_rule_bit_for_bit(logits, seed):
    n, k = logits.shape
    onehot = _onehot(np.random.default_rng(seed).integers(0, k, size=n), k)
    z = ad.leaf(logits)
    node = ad.softmax_xent(z, onehot)
    (g_graph,) = ad.grad(node, [z])
    loss, g = ad.softmax_xent_grad(logits, onehot)
    assert type(loss) is float
    assert np.float64(loss).tobytes() == node.data.tobytes()
    assert g.tobytes() == g_graph.data.tobytes()


def test_softmax_xent_passes_grad_check():
    rng = np.random.default_rng(24)
    store = ad.ParamStore()
    z = store.add("z", rng.normal(size=(5, 4)) * 3.0)
    onehot = _onehot([0, 3, 1, 1, 2], 4)
    assert ad.grad_check(lambda: ad.softmax_xent(z, onehot), store) < 1e-6


def test_softmax_xent_second_order_matches_finite_differences():
    rng = np.random.default_rng(25)
    store = ad.ParamStore()
    z = store.add("z", rng.normal(size=(3, 4)))
    onehot = _onehot([2, 0, 3], 4)

    def grad_norm_sq():
        (g,) = ad.grad(ad.softmax_xent(z, onehot), [z], create_graph=True)
        return ad.sum_sq(g)

    assert ad.grad_check(grad_norm_sq, store) < 1e-6


def test_softmax_xent_shape_error_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 4\)"):
        ad.softmax_xent(ad.constant(np.zeros((2, 3))), np.zeros((2, 4)))
