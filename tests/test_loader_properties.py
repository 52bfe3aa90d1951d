"""Mutated input files: each loader either loads what it documents or
refuses the file with a FormatError or ManifestError (for a run config
also a ConfigError) that starts with the file's path. Any other
exception fails the property."""

import math
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semfuse import autodiff as ad
from semfuse.cli import main
from semfuse.datasets import (
    SplitSpec,
    load_features,
    load_run_config,
    load_split,
    write_features_binary,
)
from semfuse.errors import ConfigError, FormatError, ManifestError
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


def loaded_or_refused(load, path, errors=(FormatError, ManifestError)):
    """``load(path)``'s result, or None when it refused the file as one
    of ``errors`` starting with ``path``."""
    try:
        return load(path)
    except errors as exc:
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
        paths = (split.train_features, split.test_features, split.description_dir)
        assert all("\0" not in str(p) for p in paths if p)  # paths the system can open


FEATURE_SPLIT = SplitSpec("demo", ["bed", "chair", "desk"], ["sofa", "table"])
FEATURES = (
    b"# features m=3\n"
    b"bed,0.125,-1.5,0.25\n"
    b"chair,2,0.75,-0.5\n"
    b"desk,-0.25,1e-3,3.5\n"
    b"sofa,1.5,-2.25,0\n"
    b"table,0.5,0.5,-1\n"
)


def _features_of(path):
    return load_features(path, FEATURE_SPLIT)


def _check_features(loaded) -> None:
    assert loaded.features.ndim == 2 and loaded.m >= 1 and loaded.n >= 1
    assert loaded.labels.shape == (loaded.n,) and np.isfinite(loaded.features).all()


@given(data=mutated(FEATURES))
@settings(max_examples=150, deadline=None)
def test_mutated_feature_csvs_load_finite_or_are_refused_naming_the_file(workdir, data):
    path = workdir / "features.csv"
    path.write_bytes(data)
    loaded = loaded_or_refused(_features_of, path)
    if loaded is not None:
        _check_features(loaded)
        again = _features_of(path)  # from the sidecar the first load wrote
        assert again.features.tobytes() == loaded.features.tobytes()
        assert again.labels.tolist() == loaded.labels.tolist()


@pytest.fixture(scope="module")
def valid_fset(workdir):
    path = workdir / "valid.fset"
    write_features_binary(path, ["bed", "chair", "sofa"], [[0.125, -1.5], [2, 0.75], [0, 1e-3]])
    return path.read_bytes()


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_mutated_fset_files_load_finite_or_are_refused_naming_the_file(workdir, valid_fset, data):
    path = workdir / "features.fset"
    path.write_bytes(data.draw(mutated(valid_fset)))
    loaded = loaded_or_refused(_features_of, path)
    if loaded is not None:
        _check_features(loaded)


@pytest.fixture(scope="module")
def sidecar(workdir):
    """A CSV feature file loaded once, its sidecar, and what it loaded."""
    path = workdir / "sidecar" / "features.csv"
    path.parent.mkdir()
    path.write_bytes(FEATURES)
    loaded = _features_of(path)
    sidecar = path.with_name("features.csv.fset")
    return path, sidecar, sidecar.read_bytes(), loaded


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_a_mutated_sidecar_never_changes_what_its_csv_loads(sidecar, data):
    path, sidecar, valid, expected = sidecar
    sidecar.write_bytes(data.draw(mutated(valid)))
    loaded = _features_of(path)
    assert loaded.features.tobytes() == expected.features.tobytes()
    assert loaded.labels.tolist() == expected.labels.tolist()


RUN_CONFIG = (
    b"# a generative run\n"
    b"split = split.cfg\n"
    b"bundles = bundles.csv\n"
    b"variation = ours\n"
    b"alpha = 0.5\n"
    b"alpha_set = 0.1,0.5,1.0\n"
    b"method = gen\n"
    b"lr = 0.001\n"
    b"epochs = 20\n"
    b"q = 8\n"
    b"eta = 10.0\n"
    b"seed = 3\n"
    b"out_dir = runs/x\n"
)


@given(data=mutated(RUN_CONFIG))
@settings(max_examples=150, deadline=None)
def test_mutated_run_configs_validate_finite_or_are_refused(workdir, data):
    """A config either is refused on load, naming the file, or loads
    openable paths; every command then validates it, and a config that
    validates holds finite values only."""
    path = workdir / "run.cfg"
    path.write_bytes(data)
    config = loaded_or_refused(load_run_config, path, (FormatError, ConfigError))
    if config is None:
        return
    values = {f.name: getattr(config, f.name) for f in fields(config)}
    assert not any("\0" in str(v) for v in values.values() if isinstance(v, Path))
    try:
        config.validate()
    except ConfigError:  # names the key and its value
        return
    for name, value in values.items():
        for v in value if isinstance(value, tuple) else (value,):
            assert not isinstance(v, float) or math.isfinite(v), name


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
    values, _ = ad.load_params(binary)
    assert {"sem.ids", "sem.e_c", "sem.e_p"} <= set(values)
    return cfg, binary, binary.read_bytes()


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_mutated_model_bin_loads_or_is_refused_and_eval_never_fails_raw(
    trained_run, workdir, data
):
    cfg, binary, valid = trained_run
    blob = data.draw(mutated(valid))
    binary.write_bytes(blob)
    loaded = loaded_or_refused(ad.load_params, binary)
    code = main(["eval", "--config", str(cfg), "--mode", "zsl",
                 "--out", str(workdir / "report.csv")])
    if loaded is None:
        assert code == 3
        return
    # the header's digests bind the other files and the class table, and
    # its CRC-32 the records: only the file as written may evaluate
    assert code in ((0,) if blob == valid else (2, 3))
