"""Mutated input files: each loader either loads what it documents or
refuses the file with a FormatError or ManifestError that starts with
the file's path. Any other exception fails the property."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semfuse import autodiff as ad
from semfuse.cli import main
from semfuse.datasets import load_split
from semfuse.errors import FormatError, ManifestError
from semfuse.fusion import read_bundles
from semfuse.wordvec import load_word_vectors

NON_FINITE = [b"nan", b"inf", b"-inf", b"1e999", b"-1e999", b"NaN", b"Infinity"]
_FIELD = re.compile(rb"[^ ,=\n]+")  # a field of any of the three layouts


@st.composite
def mutated(draw, valid: bytes) -> bytes:
    """``valid`` truncated, with one byte replaced, a non-finite value in
    place of a field (a numeric one where there is one), or a line or
    field duplicated or dropped."""
    kind = draw(st.sampled_from(
        ["truncate", "byte", "non-finite", "dup-line", "drop-line", "dup-field", "drop-field"]
    ))
    if kind == "truncate":
        return valid[: draw(st.integers(0, len(valid) - 1))]
    if kind == "byte":
        at = draw(st.integers(0, len(valid) - 1))
        return valid[:at] + bytes([draw(st.integers(0, 255))]) + valid[at + 1:]
    if kind in ("dup-line", "drop-line"):
        lines = valid.splitlines(keepends=True)
        at = draw(st.integers(0, len(lines) - 1))
        return b"".join(lines[: at + 1] + lines[at:] if kind == "dup-line" else
                        lines[:at] + lines[at + 1:])
    fields = list(_FIELD.finditer(valid))
    if kind == "non-finite":
        numeric = [f for f in fields if _is_float(f.group())] or fields
        field = draw(st.sampled_from(numeric))
        value = draw(st.sampled_from(NON_FINITE))
        return valid[: field.start()] + value + valid[field.end():]
    field = draw(st.sampled_from(fields))
    after = valid[field.end(): field.end() + 1]
    sep = after if after in (b" ", b",") else b""
    if kind == "dup-field":
        return valid[: field.end()] + (sep or b" ") + field.group() + valid[field.end():]
    return valid[: field.start()] + valid[field.end() + len(sep):]


def _is_float(text: bytes) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def loaded_or_refused(load, path):
    """``load(path)``'s result, or None when it refused the file as a
    FormatError or ManifestError starting with ``path``."""
    try:
        return load(path)
    except (FormatError, ManifestError) as exc:
        assert str(exc).startswith(str(path)), exc
        return None


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("mutated")


WORD_VECTORS = (
    b"5 3\n"
    b"bed 0.125 -1.5 0.25\n"
    b"chair 2 0.75 -0.5\n"
    b"night -0.25 1e-3 3.5\n"
    b"stand 1.5 -2.25 0\n"
    b"sofa 0.5 0.5 -1\n"
)


@given(data=mutated(WORD_VECTORS))
@settings(max_examples=150, deadline=None)
def test_mutated_word_vectors_load_finite_or_are_refused_naming_the_file(workdir, data):
    path = workdir / "vectors.txt"
    path.write_bytes(data)
    for vocabulary in (None, {"chair", "sofa"}):
        table = loaded_or_refused(lambda p: load_word_vectors(p, vocabulary), path)
        if table is not None:
            assert table.dimension >= 1
            for vector in table.vectors.values():
                assert vector.shape == (table.dimension,) and np.isfinite(vector).all()


BUNDLES = (
    b"# bundles variation=ours d=2\n"
    b"class_id,name,ec_0,ec_1,ep_0,ep_1\n"
    b"0,bed,0.125,-1.5,0.25,2\n"
    b"1,night stand,0.75,-0.5,-0.25,1e-3\n"
    b"2,sofa,1.5,-2.25,0,0.5\n"
)


@given(data=mutated(BUNDLES))
@settings(max_examples=150, deadline=None)
def test_mutated_bundles_load_finite_or_are_refused_naming_the_file(workdir, data):
    path = workdir / "bundles.csv"
    path.write_bytes(data)
    loaded = loaded_or_refused(read_bundles, path)
    if loaded is not None:
        semantics, _ = loaded
        assert np.isfinite(semantics.e_c).all() and np.isfinite(semantics.e_p).all()


SPLIT = (
    b"dataset = demo\n"
    b"seen = bed, chair, desk\n"
    b"unseen = sofa, table\n"
    b"train_features = train.csv\n"
    b"test_features = test.csv\n"
    b"descriptions = descriptions\n"
)


@given(data=mutated(SPLIT))
@settings(max_examples=150, deadline=None)
def test_mutated_splits_load_valid_or_are_refused_naming_the_file(workdir, data):
    path = workdir / "split.cfg"
    path.write_bytes(data)
    split = loaded_or_refused(load_split, path)
    if split is not None:
        names = split.seen + split.unseen
        assert split.seen and split.unseen and len(set(names)) == len(names)
        assert all(names)


@pytest.fixture(scope="module")
def trained_run(demo_dir, workdir):
    """A short embedding run on the demo data, whose model.bin holds the
    fused variation's parameters and the class semantics (``sem.*``)."""
    cfg = workdir / "run.cfg"
    cfg.write_text(
        f"split = {demo_dir / 'split.cfg'}\nword_vectors = {demo_dir / 'word_vectors.txt'}\n"
        f"variation = ours\nmethod = embed\nepochs = 5\nout_dir = {workdir / 'run'}\n"
    )
    assert main(["train", "--config", str(cfg)]) == 0
    binary = workdir / "run" / "model.bin"
    values, bound = ad.load_params(binary)
    assert {"sem.ids", "sem.e_c", "sem.e_p"} <= set(values)
    return cfg, binary, binary.read_bytes(), values, bound


# corrupted weights may overflow while scoring; the property is the exit code
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_mutated_model_bin_loads_or_is_refused_and_eval_never_fails_raw(
    trained_run, workdir, data
):
    cfg, binary, valid, values, bound = trained_run
    binary.write_bytes(data.draw(mutated(valid)))
    loaded = loaded_or_refused(ad.load_params, binary)
    code = main(["eval", "--config", str(cfg), "--mode", "zsl",
                 "--out", str(workdir / "report.csv")])
    if loaded is None:
        assert code == 3
        return
    # model.bin carries no checksum of its values: only a file whose
    # header, names and shapes are intact may evaluate
    same_layout = loaded[1] == bound and [(k, v.shape) for k, v in loaded[0].items()] == [
        (k, v.shape) for k, v in values.items()
    ]
    assert code in ((0, 2, 3) if same_layout else (2, 3))
