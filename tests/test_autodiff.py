import hashlib
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from semfuse import autodiff as ad
from semfuse.errors import ContractError, FormatError, ShapeError

import adam_oracle
import checkpoint_files
import graph_oracle as go


def test_matmul_hand_value():
    a = ad.constant([[3.0, 4.0]])
    b = ad.constant([[1.0], [1.0]])
    assert ad.matmul(a, b).item() == 7.0


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(1, 2\).*\(3, 1\)"):
        ad.matmul(ad.constant([[1.0, 2.0]]), ad.constant([[1.0], [2.0], [3.0]]))


def test_leaky_relu_applies_slope_below_zero():
    out = go.leaky_relu(ad.constant([-2.0, 0.0, 3.0]), slope=0.1)
    assert np.allclose(out.data, [-0.2, 0.0, 3.0])


def test_mean_all_value_and_gradient():
    w = {"x": ad.leaf([[1.0, 2.0], [3.0, 6.0]])}
    loss = ad.mean_all(w["x"])
    assert loss.item() == 3.0
    (grads,) = go.backward(loss, w)
    assert np.allclose(grads["x"], np.full((2, 2), 0.25))


def test_bias_add_broadcasts_over_rows():
    eye = ad.constant(np.eye(2))
    out = go.linear(ad.constant([[1.0, 2.0], [3.0, 4.0]]), eye, ad.constant([10.0, 20.0]))
    assert np.array_equal(out.data, [[11.0, 22.0], [13.0, 24.0]])
    with pytest.raises(ShapeError):
        go.linear(ad.constant([[1.0, 2.0]]), eye, ad.constant([1.0, 2.0, 3.0]))


def test_linear_value_is_the_numpy_affine_map_bit_for_bit():
    rng = np.random.default_rng(12)
    x, W, b = rng.normal(size=(7, 5)), rng.normal(size=(3, 5)), rng.normal(size=3)
    out = go.linear(ad.constant(x), ad.constant(W), ad.constant(b))
    assert np.array_equal(out.data, x @ W.T + b)


def test_linear_passes_grad_check():
    rng = np.random.default_rng(13)
    params = {"x": rng.normal(size=(6, 4)), "W": rng.normal(size=(3, 4)), "b": rng.normal(size=3)}
    w = go.leaves(params)
    assert go.grad_check(lambda: go.sum_sq(go.linear(w["x"], w["W"], w["b"])), w) < 1e-6

    def objective():  # the same loss through the array rules
        x, W, b = params["x"], params["W"], params["b"]
        out = x @ W.T + b
        g = 2.0 * out
        gW, gb = ad.linear_grads(x, g)
        return (out * out).sum(), {"x": g @ W, "W": gW, "b": gb}

    assert go.array_grad_check(objective, params) < 1e-6


def test_linear_shape_error_names_all_three_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 4\).*\(3, 5\).*\(3,\)"):
        go.linear(ad.constant(np.ones((2, 4))), ad.constant(np.ones((3, 5))),
                  ad.constant(np.ones(3)))


def test_backward_sum_of_squares():
    w = {"x": ad.leaf([3.0])}
    (grads,) = go.backward(go.sum_sq(w["x"]), w)
    assert np.allclose(grads["x"], [6.0])


def test_backward_quadratic_form_matches_finite_differences():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(4, 4))
    a = a + a.T
    w = {"x": ad.leaf(rng.normal(size=(4, 1)))}

    def loss_fn():
        x = w["x"]
        return ad.sum_all(ad.matmul(ad.transpose(x), ad.matmul(ad.constant(a), x)))

    assert go.grad_check(loss_fn, w) < 1e-6
    # closed form: grad of x'Ax is 2Ax for symmetric A
    (grads,) = go.backward(loss_fn(), w)
    assert np.allclose(grads["x"], 2 * a @ w["x"].data)


def test_backward_unreached_parameter_gets_zero_gradient():
    w = {"used": ad.leaf([2.0]), "unused": ad.leaf([5.0])}
    (grads,) = go.backward(go.sum_sq(w["used"]), w)
    assert np.array_equal(grads["unused"], [0.0])


def test_backward_rejects_non_scalar_loss():
    w = {"x": ad.leaf([1.0, 2.0])}
    with pytest.raises(ContractError):
        go.backward(ad.mul(w["x"], w["x"]), w)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_backward_rejects_non_finite_loss_and_names_it(value):
    w = {"x": ad.leaf([1.0])}
    loss = ad.scale(ad.sum_all(w["x"]), value)
    with pytest.raises(ContractError, match=str(loss.item())):
        go.backward(loss, w)


def test_grad_check_relu_network_off_kink():
    rng = np.random.default_rng(3)
    w = go.leaves({
        "W": rng.normal(size=(5, 4)),
        "b": rng.uniform(0.1, 0.5, size=5),  # keep pre-activations off zero
    })
    x = ad.constant(rng.normal(size=(8, 4)))

    def loss_fn():
        h = go.leaky_relu(go.linear(x, w["W"], w["b"]), slope=0.0)
        return ad.mean_all(h)

    assert go.grad_check(loss_fn, w) < 1e-4


def test_grad_check_empty_store_is_zero():
    assert go.grad_check(lambda: ad.constant(1.0), {}) == 0.0


@given(
    a=st.floats(-3, 3, allow_nan=False),
    b=st.floats(-3, 3, allow_nan=False),
)
@settings(max_examples=25, deadline=None)
def test_backward_is_linear_in_the_loss(a, b):
    rng = np.random.default_rng(11)
    w = {"x": ad.leaf(rng.normal(size=(3,)))}

    def l1():
        return go.sum_sq(w["x"])

    def l2():
        return ad.sum_all(ad.mul(w["x"], ad.constant([1.0, -2.0, 0.5])))

    (g1,) = go.backward(l1(), w)
    (g2,) = go.backward(l2(), w)
    (g,) = go.backward(ad.add(ad.scale(l1(), a), ad.scale(l2(), b)), w)
    assert np.allclose(g["x"], a * g1["x"] + b * g2["x"])


def test_sgd_step_hand_value():
    params = {"p": np.array([1.0])}
    ad.sgd_step(params, {"p": np.array([0.5])}, 0.1)
    assert np.allclose(params["p"], [0.95])


def test_sgd_zero_gradient_leaves_parameter():
    params = {"p": np.array([1.25])}
    ad.sgd_step(params, {"p": np.array([0.0])}, 0.1)
    assert np.array_equal(params["p"], [1.25])


def test_sgd_missing_gradient_is_contract_error():
    with pytest.raises(ContractError, match="missing gradient for parameter 'p'"):
        ad.sgd_step({"p": np.array([1.0])}, {}, 0.1)


def test_adam_missing_gradient_is_contract_error():
    params = {"p": np.array([1.0]), "q": np.array([2.0])}
    with pytest.raises(ContractError, match="missing gradient for parameter 'q'"):
        ad.adam_step(params, {"p": np.array([0.5])}, ad.AdamState(params), lr=0.01)


def test_adam_first_step_moves_by_lr_times_sign():
    for g in (0.3, -2.0, 1e-3):
        params = {"p": np.array([1.0])}
        state = ad.AdamState(params)
        ad.adam_step(params, {"p": np.array([g])}, state, lr=0.01)
        # bias-corrected first step reduces to lr * g / (|g| + eps)
        assert params["p"][0] == pytest.approx(1.0 - 0.01 * np.sign(g), rel=1e-4)


def test_adam_is_deterministic_and_stateful():
    def run():
        params = {"p": np.array([1.0])}
        state = ad.AdamState(params)
        for g in (0.5, -0.25, 0.1):
            ad.adam_step(params, {"p": np.array([g])}, state, lr=0.05)
        return params["p"].copy()

    assert np.array_equal(run(), run())


@pytest.mark.parametrize("optimizer", ["adam", "sgd"])
def test_updates_give_the_same_bits_for_c_and_f_ordered_gradients(optimizer):
    rng = np.random.default_rng(26)
    start = {"W": rng.normal(size=(5, 3)), "b": rng.normal(size=5)}
    grads = [{"W": rng.normal(size=(5, 3)), "b": rng.normal(size=5)} for _ in range(3)]

    def run(layout):
        params = {name: w.copy() for name, w in start.items()}
        state = ad.AdamState(params)
        for g in grads:
            g = {name: layout(v) for name, v in g.items()}
            if optimizer == "adam":
                ad.adam_step(params, g, state, lr=0.05, beta1=0.5, beta2=0.9)
            else:
                ad.sgd_step(params, g, lr=0.05)
        return params, state

    c, c_state = run(np.ascontiguousarray)
    f, f_state = run(np.asfortranarray)
    assert not np.asfortranarray(grads[0]["W"]).flags.c_contiguous
    for name in start:
        assert c[name].tobytes() == f[name].tobytes(), name
        assert f[name].flags.c_contiguous, name
        if optimizer == "adam":
            assert c_state.m[name].tobytes() == f_state.m[name].tobytes(), name
            assert c_state.v[name].tobytes() == f_state.v[name].tobytes(), name


@pytest.mark.parametrize("optimizer", ["adam", "sgd"])
@pytest.mark.parametrize("shape, grad_shape", [((5, 3), (3,)), ((5,), (1,))])
def test_optimizers_refuse_a_misshaped_gradient(optimizer, shape, grad_shape):
    params = {"a": np.zeros(2), "W": np.ones(shape)}
    grads = {"a": np.zeros(2), "W": np.ones(grad_shape)}
    message = f"gradient for parameter 'W' has shape {grad_shape}, expected {shape}"
    with pytest.raises(ShapeError, match=re.escape(message)):
        if optimizer == "adam":
            ad.adam_step(params, grads, ad.AdamState(params), lr=0.01)
        else:
            ad.sgd_step(params, grads, lr=0.01)


def test_adam_on_a_parameter_its_state_was_not_built_for_is_contract_error():
    state = ad.AdamState({"W": np.zeros(2)})
    params = {"W": np.zeros(2), "X": np.zeros(2)}
    with pytest.raises(ContractError, match="no Adam moments for parameter 'X'"):
        ad.adam_step(params, {"W": np.ones(2), "X": np.ones(2)}, state, lr=0.01)


B = ad.ADAM_BLOCK
# 0-d and empty; 1-d around and across blocks; a row longer than a block;
# 100-wide rows, 163 to a block, in row counts around one and two blocks
BLOCK_SHAPES = [(), (0,), (B - 1,), (B + 1,), (3 * B + 7,), (2, B + 5),
                (162, 100), (163, 100), (164, 100), (327, 100)]


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("betas", [(0.9, 0.999), (0.5, 0.9)])
def test_blocked_adam_keeps_the_bits_of_the_whole_array_update(order, betas):
    rng = np.random.default_rng(15)
    start = {f"p{i}": np.array(rng.normal(size=s)) for i, s in enumerate(BLOCK_SHAPES)}
    # gradients over many scales, so the moments' bits vary
    grads = [{name: np.array(rng.normal(size=w.shape) * np.exp(3 * rng.normal(size=w.shape)),
                             order=order)
              for name, w in start.items()} for _ in range(5)]
    assert order == "C" or not grads[0]["p6"].flags.c_contiguous
    blocked = {name: w.copy() for name, w in start.items()}
    reference = {name: w.copy() for name, w in start.items()}
    state, ref_state = ad.AdamState(blocked), ad.AdamState(reference)
    for g in grads:
        held = dict(blocked)
        before = {name: w.tobytes() for name, w in held.items()}
        ad.adam_step(blocked, g, state, 1e-3, *betas)
        adam_oracle.adam_step(reference, g, ref_state, 1e-3, *betas)
        for name, w in held.items():  # every parameter replaced, none written
            assert blocked[name] is not w and w.tobytes() == before[name], name
    for ours, theirs in ((blocked, reference), (state.m, ref_state.m), (state.v, ref_state.v)):
        for name, w in ours.items():
            assert w.shape == np.shape(theirs[name]) and w.flags.c_contiguous, name
            assert w.tobytes() == np.asarray(theirs[name]).tobytes(), name


@pytest.mark.parametrize("order", ["C", "F"])
def test_adam_step_builds_no_whole_parameter_temporary(order):
    rng = np.random.default_rng(3)
    params = {"W": rng.normal(size=(384, 684)), "b": rng.normal(size=384)}
    grads = {name: np.array(rng.normal(size=w.shape), order=order) for name, w in params.items()}
    state = ad.AdamState(params)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        ad.adam_step(params, grads, state, lr=1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the new weight, and block-sized temporaries beside it
    assert peak - base < 1.5 * params["W"].nbytes


def test_gradient_shapes_match_parameters():
    rng = np.random.default_rng(5)
    w = go.leaves({"W": rng.normal(size=(3, 2)), "b": rng.normal(size=3)})
    x = ad.constant(rng.normal(size=(4, 2)))
    loss = go.sum_sq(go.linear(x, w["W"], w["b"]))
    (grads,) = go.backward(loss, w)
    for name, t in w.items():
        assert grads[name].shape == t.data.shape


# stand-ins for the sha256 digests of the files binary records are bound to
BOUND = (bytes(range(32)), bytes(range(32, 64)))
HEADER_BYTES = 76  # magic, version, two digests, record count


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    params = {"W": rng.normal(size=(3, 4)), "b": rng.normal(size=4), "s": np.array(rng.normal())}
    path = tmp_path / "model.bin"
    ad.write_params_binary(path, {"net": params}, BOUND)
    values, bound = ad.load_params(path)
    assert bound == BOUND
    assert set(values) == {"net.W", "net.b", "net.s"}
    for name, w in params.items():
        assert np.array_equal(values[f"net.{name}"], w)


def test_checkpoint_restore_into_store(tmp_path):
    path = tmp_path / "m.bin"
    ad.write_params_binary(path, {"": {"W": np.ones((2, 2))}}, BOUND)
    fresh = {"W": np.zeros((2, 2))}
    values, _ = ad.load_params(path)
    ad.restore_store(fresh, values)
    assert np.array_equal(fresh["W"], np.ones((2, 2)))
    assert fresh["W"] is values["W"]  # held once, not copied again


def test_checkpoint_restore_refuses_a_record_of_another_shape(tmp_path):
    path = tmp_path / "m.bin"
    ad.write_params_binary(path, {"net": {"W": np.ones((2, 3))}}, BOUND)
    values, _ = ad.load_params(path)
    fresh = {"W": np.zeros((3, 2))}
    with pytest.raises(ShapeError, match=r"'W' has shape \(2, 3\), expected \(3, 2\)"):
        ad.restore_store(fresh, values, "net")
    with pytest.raises(FormatError, match="missing parameter 'other.W'"):
        ad.restore_store(fresh, values, "other")
    assert np.array_equal(fresh["W"], np.zeros((3, 2)))


def test_checkpoint_rejects_malformed_file(tmp_path):
    path = tmp_path / "bad.bin"
    ad.write_params_binary(path, {"": {"W": np.ones((2, 2))}}, BOUND)
    path.write_bytes(path.read_bytes()[:-8])  # one value short
    with pytest.raises(FormatError, match=f"record 1 'W' at byte {HEADER_BYTES}: truncated"):
        ad.load_params(path)


def _reference_checkpoint(stores) -> bytes:
    """Checkpoint bytes with one ``format(v, ".17g")`` call per value."""
    lines = []
    for prefix, params in stores.items():
        for name, w in params.items():
            full = f"{prefix}.{name}" if prefix else name
            dims = ",".join(str(s) for s in w.shape) or "-"
            vals = " ".join(format(v, ".17g") for v in w.reshape(-1))
            lines.append(f"{full} {dims} {vals}".rstrip())
    return ("\n".join(lines) + "\n").encode("utf-8")


def _store(arrays: dict) -> dict:
    """A parameter dict holding ``arrays`` as float64."""
    return {name: np.asarray(value, dtype=np.float64) for name, value in arrays.items()}


def _assert_bitwise_round_trip(path, stores):
    """Binary records of ``stores`` read back with every bit; the text
    checkpoint at ``path`` too, but for a NaN's sign and payload."""
    binary = path.with_suffix(".bin")
    ad.write_params_binary(binary, stores, BOUND)
    values, _ = ad.load_params(binary)
    text = checkpoint_files.load_text_params(path)
    assert list(values) == list(text)
    for prefix, params in stores.items():
        for name, w in params.items():
            full = f"{prefix}.{name}" if prefix else name
            got, parsed, nan = values[full], text[full], np.isnan(w)
            assert got.shape == w.shape and got.tobytes() == w.tobytes(), full
            assert parsed.shape == w.shape and np.array_equal(np.isnan(parsed), nan), full
            assert parsed[~nan].tobytes() == w[~nan].tobytes(), full


EDGE_VALUES = [-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
               -1.7976931348623157e308, 0.1, 1 / 3, np.nan, np.inf, -np.inf]
# a negative quiet NaN, a signaling NaN and a quiet NaN with a payload
NAN_BITS = np.array([0xFFF8000000000000, 0x7FF0000000000001, 0x7FF800000000BEEF],
                    dtype=np.uint64).view(np.float64)


def test_checkpoint_bytes_match_per_value_format_on_edge_values(tmp_path):
    store = _store({
        "edges": EDGE_VALUES,
        "grid": np.reshape(EDGE_VALUES[:10], (2, 5)),
        "neg_zero": -0.0,
        "tiny": 5e-324,
        "nan": np.nan,
        "nan_bits": NAN_BITS,
        "empty": np.zeros(0),
        "empty_rows": np.zeros((2, 0)),
    })
    stores = {"net": store, "": _store({"bare": [0.1, -0.0, -np.inf]})}
    path = tmp_path / "edges.ckpt"
    assert ad.save_params(path, stores) == hashlib.sha256(path.read_bytes()).digest()
    assert path.read_bytes() == _reference_checkpoint(stores)
    _assert_bitwise_round_trip(path, stores)


def test_checkpoint_record_longer_than_three_chunks_matches_one_shot_format(tmp_path):
    values = np.random.default_rng(5).normal(size=3 * ad.SAVE_CHUNK + 7)
    values[ad.SAVE_CHUNK - 1 : ad.SAVE_CHUNK + 1] = [-0.0, 5e-324]  # across a boundary
    stores = {"net": _store({"long": values, "scalar": 0.5, "empty": np.zeros(0)})}
    path = tmp_path / "long.ckpt"
    assert ad.save_params(path, stores) == hashlib.sha256(path.read_bytes()).digest()
    assert path.read_bytes() == _reference_checkpoint(stores)
    _assert_bitwise_round_trip(path, stores)


def test_checkpoint_of_empty_stores_is_one_empty_line(tmp_path):
    path = tmp_path / "none.ckpt"
    stores = {"net": {}}
    assert ad.save_params(path, stores) == hashlib.sha256(path.read_bytes()).digest()
    assert path.read_bytes() == _reference_checkpoint(stores) == b"\n"
    with pytest.raises(FormatError, match="empty checkpoint"):
        checkpoint_files.load_text_params(path)
    binary = tmp_path / "none.bin"
    ad.write_params_binary(binary, stores, BOUND)
    assert binary.stat().st_size == HEADER_BYTES
    assert ad.load_params(binary) == ({}, BOUND)


@pytest.fixture(scope="module")
def ckpt_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("ckpt")


@given(
    arrays=st.lists(
        hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
            elements=st.floats(width=64),  # NaNs of any sign and payload
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
    stores = {p: {"W": rng.normal(size=(2, 3)), "b": rng.normal(size=3)}
              for p in ("gen", "disc", "fusion", "")}
    path = tmp_path / "m.bin"
    ad.write_params_binary(path, stores, BOUND)
    values, bound = ad.load_params(path, ("gen", "fusion"))
    assert bound == BOUND
    assert sorted(values) == ["fusion.W", "fusion.b", "gen.W", "gen.b"]
    for name, array in values.items():
        prefix, _, key = name.partition(".")
        assert array.tobytes() == stores[prefix][key].tobytes()
    assert ad.load_params(path, ("cls",)) == ({}, BOUND)


def test_load_params_does_not_parse_skipped_records(tmp_path):
    stores = {"": _store({"gen.W": [1.0, 2.0], "disc.W": [3.0, 4.0],
                          "cls.W": np.ones((3, 3)), "gen.b": 5.0})}
    path = tmp_path / "m.bin"
    ad.write_params_binary(path, stores, BOUND)
    blob = bytearray(path.read_bytes())
    spans = checkpoint_files.value_spans(path)
    for name in ("disc.W", "cls.W"):  # damage the values of the skipped records
        start, stop = spans[name]
        blob[start:stop] = b"\xff" * (stop - start)
    path.write_bytes(bytes(blob))
    values, _ = ad.load_params(path, ("gen",))
    assert list(values) == ["gen.W", "gen.b"]
    assert values["gen.W"].tobytes() == stores[""]["gen.W"].tobytes()
    assert values["gen.b"].tobytes() == stores[""]["gen.b"].tobytes()
    # read in full, the damaged bytes are those records' values
    damaged, _ = ad.load_params(path)
    assert damaged["disc.W"].tobytes() == b"\xff" * 16
    assert damaged["cls.W"].shape == (3, 3) and np.isnan(damaged["cls.W"]).all()


# two records: 'gen.W' (2 values) at byte 76, 'disc.W' (1 value) at byte 113
_GEN_AT, _DISC_AT, _END = HEADER_BYTES, HEADER_BYTES + 37, HEADER_BYTES + 67


def _two_records(path):
    ad.write_params_binary(path, {"": _store({"gen.W": [1.0, 2.0], "disc.W": [3.0]})}, BOUND)
    blob = path.read_bytes()
    assert len(blob) == _END
    return blob


@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda b: b"gen." + b[4:], r"header at byte 0: bad magic b'gen\.'"),
        (lambda b: b[:4] + (2).to_bytes(4, "little") + b[8:],
         "header at byte 0: format version 2, expected 1"),
        (lambda b: b[:50], "header at byte 0: truncated at byte 50"),
        (lambda b: b[:-8], f"record 2 'disc.W' at byte {_DISC_AT}: truncated at byte {_END - 8}"),
        (lambda b: b[:_GEN_AT + 20],
         f"record 1 'gen.W' at byte {_GEN_AT}: truncated at byte {_GEN_AT + 20}"),
        (lambda b: b[:72] + (3).to_bytes(4, "little") + b[76:],
         f"record 3 at byte {_END}: truncated at byte {_END}"),
        (lambda b: b + b"\0\0\0", f"3 bytes after the last record \\(record 2\\) at byte {_END}"),
    ],
    ids=["magic", "version", "short-header", "short-values", "short-dims", "missing-record",
         "over-long"],
)
def test_load_params_refuses_a_malformed_binary_naming_record_and_offset(tmp_path, edit, message):
    path = tmp_path / "bad.bin"
    path.write_bytes(edit(_two_records(path)))
    for prefixes in (None, ("gen",)):  # skipped records are checked too
        with pytest.raises(FormatError, match="bad.bin: " + message):
            ad.load_params(path, prefixes)


def test_load_params_refuses_a_duplicate_record(tmp_path):
    path = tmp_path / "dup.bin"
    stores = {"": _store({"gen.W": [1.0], "disc.W": [2.0]}), "disc": _store({"W": [3.0]})}
    ad.write_params_binary(path, stores, BOUND)
    at = HEADER_BYTES + 2 * (4 + 4 + 8 + 8) + len("gen.W") + len("disc.W")
    for prefixes in (None, ("gen",)):
        with pytest.raises(FormatError, match=f"record 3 'disc.W' at byte {at}: "
                                              "duplicate parameter 'disc.W'"):
            ad.load_params(path, prefixes)


def test_load_params_refuses_a_text_checkpoint(tmp_path):
    path = tmp_path / "model.ckpt"
    ad.save_params(path, {"gen": {"W": np.ones(2)}})
    with pytest.raises(FormatError, match="bad magic b'gen.', not a binary checkpoint"):
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
    # the text reader of the tests' oracle keeps the checks it had in src/
    path = tmp_path / "bad.ckpt"
    path.write_text(text)
    with pytest.raises(FormatError, match="bad.ckpt" + message):
        checkpoint_files.load_text_params(path, ("gen",))


def test_second_order_gradients_through_first_backward():
    # d/dx of (dy/dx) for y = x^3: first grad is 3x^2, its grad is 6x
    w = {"x": ad.leaf([2.0])}
    x = w["x"]
    y = ad.sum_all(ad.mul(ad.mul(x, x), x))
    (g,) = go.grad(y, [x], create_graph=True)
    assert np.allclose(g.data, [12.0])
    (grads,) = go.backward(ad.sum_all(g), w)
    assert np.allclose(grads["x"], [12.0])


def test_leaky_relu_value_is_the_two_branch_where_bit_for_bit():
    x = np.array([-3.5, -0.0, 0.0, 1e-300, -1e-300, 2.25, np.inf, -np.inf, np.nan])
    with np.errstate(invalid="ignore"):  # -inf * 0.0
        for slope in (0.2, 0.0, 1.0):
            out = go.leaky_relu(ad.constant(x), slope=slope)
            assert out.data.tobytes() == np.where(x > 0, x, slope * x).tobytes()


def test_first_order_adjoints_are_plain_constants():
    rng = np.random.default_rng(21)
    x = ad.leaf(rng.normal(size=(3, 2)))
    W = ad.leaf(rng.normal(size=(4, 2)))
    b = ad.leaf(rng.normal(size=4))
    loss = go.sum_sq(go.leaky_relu(go.linear(x, W, b)))
    for g in ad.grad(loss, [x, W, b]):
        assert g.parents == () and g.vjps is None and not g.requires_grad
    # a second-order request keeps its adjoints in the graph
    (g,) = go.grad(loss, [x], create_graph=True)
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
    def grad(output, inputs):
        if create_graph:
            return go.grad(output, inputs, create_graph=True)
        return ad.grad(output, inputs)

    x = ad.leaf([1.0, 2.0, 3.0])
    (g,) = grad(ad.sum_all(ad.mul(x, x)), [x])
    assert np.array_equal(g.data, 2.0 * x.data)
    assert bool(g.parents) is create_graph
    # a rule returning a broadcastable adjoint of the wrong shape is refused
    y = ad.Tensor(x.data, (x, x), (lambda g: g, lambda g: ad.constant([1.0])))
    with pytest.raises(ShapeError, match=r"add shape mismatch: \(3,\) vs \(1,\)"):
        grad(ad.sum_all(y), [x])


def test_grad_calls_rules_only_for_parents_on_a_path_to_an_input():
    rng = np.random.default_rng(22)
    x = ad.leaf(rng.normal(size=(3, 2)))
    W = ad.leaf(rng.normal(size=(4, 2)))
    b = ad.leaf(rng.normal(size=4))
    loss = go.sum_sq(go.linear(x, W, b))
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
    w = go.leaves({"W": rng.normal(size=(4, 3)), "b": rng.normal(size=4)})
    x = ad.constant(rng.normal(size=(5, 3)))
    (grads,) = go.backward(go.sum_sq(go.linear(x, w["W"], w["b"])), w)
    assert all(g.flags.c_contiguous for g in grads.values())


def _log(x):
    """Elementwise natural log as a graph op."""
    return ad.Tensor(np.log(x.data), (x,), (lambda g: ad.div(g, x),))


def _exp(x):
    """Elementwise exponential as a graph op."""
    out = ad.Tensor(np.exp(x.data), (x,), (lambda g: ad.mul(g, out),))
    return out


def _xent_as_op_chain(logits, onehot):
    """Softmax cross-entropy spelled out in primitive ops."""
    n, k = logits.shape
    shift = ad.constant(logits.data.max(axis=1, keepdims=True))
    shifted = go.sub(logits, ad.tile_cols(shift, k))
    lse = ad.add(_log(ad.sum_last(_exp(shifted))), shift)
    true_logit = ad.sum_last(ad.mul(logits, ad.constant(onehot)))
    return ad.mean_all(go.sub(lse, true_logit))


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
    new = go.softmax_xent(fused, onehot)
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
    node = go.softmax_xent(z, onehot)
    (g_graph,) = ad.grad(node, [z])
    loss, g = ad.softmax_xent_grad(logits, onehot)
    assert type(loss) is float
    assert np.float64(loss).tobytes() == node.data.tobytes()
    assert g.tobytes() == g_graph.data.tobytes()


def test_softmax_xent_passes_grad_check():
    rng = np.random.default_rng(24)
    w = {"z": ad.leaf(rng.normal(size=(5, 4)) * 3.0)}
    onehot = _onehot([0, 3, 1, 1, 2], 4)
    assert go.grad_check(lambda: go.softmax_xent(w["z"], onehot), w) < 1e-6


def test_softmax_xent_refuses_a_second_order_gradient():
    z = ad.leaf(np.random.default_rng(25).normal(size=(3, 4)))
    loss = go.softmax_xent(z, _onehot([2, 0, 3], 4))
    with pytest.raises(ContractError, match="no second-order rule"):
        go.grad(loss, [z], create_graph=True)
    # the refusal leaves first-order gradients working
    (g,) = ad.grad(loss, [z])
    assert g.data.tobytes() == ad.softmax_xent_grad(z.data, _onehot([2, 0, 3], 4))[1].tobytes()


def test_softmax_xent_shape_error_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 4\)"):
        go.softmax_xent(ad.constant(np.zeros((2, 3))), np.zeros((2, 4)))
