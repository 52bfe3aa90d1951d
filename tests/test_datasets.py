import hashlib
import io
import os
import struct
import tracemalloc
import zlib
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from semfuse import datasets
from semfuse.datasets import (
    FeatureSet,
    RunConfig,
    SplitSpec,
    SynthConfig,
    load_features,
    load_run_config,
    load_split,
    read_kv_file,
    split_for_eval,
    synth_dataset,
    write_features_binary,
    write_features_csv,
)
from semfuse.errors import (
    ConfigError,
    ContractError,
    FormatError,
    ManifestError,
    SplitViolationError,
)

import failing_writes


@pytest.fixture
def split(tmp_path):
    manifest = tmp_path / "toy.cfg"
    manifest.write_text(
        "dataset = toy\n"
        "seen = bed, chair\n"
        "unseen = sofa, table\n"
    )
    return load_split(manifest)


def test_split_assigns_ids_in_order(split):
    assert split.class_ids == {"bed": 0, "chair": 1, "sofa": 2, "table": 3}
    assert split.seen_ids == frozenset({0, 1})
    assert split.unseen_ids == frozenset({2, 3})


def test_split_rejects_overlap():
    with pytest.raises(SplitViolationError):
        SplitSpec("bad", seen=["a", "b"], unseen=["b", "c"])


def test_split_rejects_empty_side():
    with pytest.raises(ManifestError):
        SplitSpec("bad", seen=[], unseen=["c"])


@pytest.mark.parametrize("classes,error,message", [
    ("seen = a, b\nunseen = c, a\n", SplitViolationError, "seen and unseen class names overlap"),
    ("seen = a, b, a\nunseen = c\n", ManifestError, "duplicate class name"),
    ("seen = a\nunseen = ,\n", ManifestError, "empty class list"),
    ("seen = night stand, bed\nunseen = night_stand\n", ManifestError,
     "classes 'night stand' and 'night_stand' share the description file night_stand.txt"),
], ids=["overlap", "duplicate", "empty", "shared-slug"])
def test_split_errors_start_with_the_manifest_path(tmp_path, classes, error, message):
    manifest = tmp_path / "bad.cfg"
    manifest.write_text("dataset = toy\n" + classes)
    with pytest.raises(ManifestError) as info:
        load_split(manifest)
    assert type(info.value) is error
    assert str(info.value) == f"{manifest}: split 'toy': {message}"


def test_manifest_paths_resolve_relative_to_file(tmp_path):
    manifest = tmp_path / "with_paths.cfg"
    manifest.write_text(
        "dataset = toy\nseen = a, b\nunseen = c, d\ntrain_features = feats.csv\n"
    )
    spec = load_split(manifest)
    assert spec.train_features == tmp_path / "feats.csv"


def test_a_manifest_path_with_a_nul_byte_is_refused_naming_the_manifest(tmp_path):
    manifest = tmp_path / "nul.cfg"
    manifest.write_text("dataset = toy\nseen = a, b\nunseen = c, d\ntest_features = fe\0ats.csv\n")
    with pytest.raises(ManifestError) as err:
        load_split(manifest)
    assert str(err.value) == f"{manifest}: test_features holds a NUL byte"


def test_manifest_unknown_key_rejected(tmp_path):
    manifest = tmp_path / "odd.cfg"
    manifest.write_text("dataset = toy\nseen = a, b\nunseen = c, d\nwhat = ever\n")
    with pytest.raises(ManifestError):
        load_split(manifest)


def test_kv_file_comments_and_duplicates(tmp_path):
    path = tmp_path / "kv.cfg"
    path.write_text("# comment\nkey = value\n\nother = 1\n")
    assert read_kv_file(path) == {"key": "value", "other": "1"}
    path.write_text("key = a\nkey = b\n")
    with pytest.raises(FormatError):
        read_kv_file(path)


def test_run_config_text_round_trips_every_field(tmp_path):
    cfg = RunConfig(
        split=tmp_path / "split.cfg",
        word_vectors=tmp_path / "vectors.txt",
        bundles=tmp_path / "bundles.txt",
        variation="only-chatgpt",
        alpha=0.3,
        alpha_set=(0.3, 0.9),
        method="gen",
        lr=2.5e-4,
        epochs=7,
        lam=1 / 3,
        q=5,
        batch_size=16,
        optimizer="sgd",
        noise_dim=3,
        hidden_mult=2,
        eta=5.5,
        cls_weight=0.1,
        n_critic=2,
        synth_per_class=9,
        classifier_lr=0.125,
        classifier_epochs=11,
        seed=42,
        out_dir=tmp_path / "out",
    )
    default = RunConfig()
    assert all(getattr(cfg, f.name) != getattr(default, f.name) for f in fields(cfg))
    path = tmp_path / "run.cfg"
    path.write_text(cfg.to_text(), encoding="utf-8")
    assert load_run_config(path) == cfg


def test_run_config_relative_paths_resolve_against_the_file(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("split = data/split.cfg\nout_dir = /abs/out\n")
    cfg = load_run_config(path)
    assert (cfg.split, cfg.out_dir) == (tmp_path / "data" / "split.cfg", Path("/abs/out"))


@pytest.mark.parametrize(
    "line,message",
    [
        ("turbo = yes", "unknown config key 'turbo'"),
        ("epochs = many", "bad value for 'epochs': invalid literal for int() with base 10: 'many'"),
        ("alpha_set = 0.5,x", "bad value for 'alpha_set': could not convert string to float: 'x'"),
        ("split = sp\0lit.cfg", "bad value for 'split': a path holds no NUL byte"),
    ],
)
def test_run_config_errors_name_the_file_and_key(tmp_path, line, message):
    path = tmp_path / "c.cfg"
    path.write_text("seed = 1\n" + line + "\n")
    with pytest.raises(ConfigError) as err:
        load_run_config(path)
    assert str(err.value) == f"{path}: {message}"


def test_load_csv_features(tmp_path, split):
    path = tmp_path / "feats.csv"
    path.write_text("bed,1.0,2.0\nchair,3.0,4.0\nsofa,5.0,6.0\n")
    fs = load_features(path, split)
    assert fs.n == 3 and fs.m == 2
    assert fs.labels.tolist() == [0, 1, 2]


def test_unknown_label_is_manifest_error(tmp_path, split):
    path = tmp_path / "feats.csv"
    path.write_text("bed,1.0,2.0\nghost,3.0,4.0\n")
    with pytest.raises(ManifestError, match="ghost"):
        load_features(path, split)


def test_ragged_csv_is_format_error(tmp_path, split):
    path = tmp_path / "feats.csv"
    path.write_text("bed,1.0,2.0\nchair,3.0\n")
    with pytest.raises(FormatError, match="feats.csv:2"):
        load_features(path, split)


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_csv_lines_read_the_same_whatever_ends_them(tmp_path, split, newline):
    path = tmp_path / "feats.csv"
    lines = ["# bed, chair, sofa", "bed,1.0,2.0", "", " chair ,3.0,4.0", "sofa,5.0,6.0"]
    path.write_bytes(newline.join(lines + [""]).encode())
    fs = load_features(path, split)
    assert fs.features.tolist() == [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]
    assert fs.labels.tolist() == [0, 1, 2]
    for last, message in (("bed,1.0", "ragged row"), ("bed,x,2.0", "could not convert"),
                          ("bed", "expected 'label,v1,...'")):
        path.write_bytes(newline.join(lines + [last]).encode())  # no line end after it
        with pytest.raises(FormatError, match=f"^{path}:6: {message}"):
            load_features(path, split)


def test_csv_features_are_read_a_line_at_a_time(tmp_path, split):
    path = tmp_path / "feats.csv"
    names = ["bed", "chair", "sofa", "table"] * 50
    write_features_csv(path, names, np.random.default_rng(1).normal(size=(200, 256)))
    for cached in (False, True):  # a parse that writes the sidecar, then a sidecar read
        assert sidecar_of(path).exists() == cached
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            load_features(path, split)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the parsed rows, the matrix and one line's fields (0.9 of the file
        # here), never the whole text and its lines at once (2.0 of it)
        assert peak - base < 1.25 * path.stat().st_size


def test_features_csv_keeps_its_per_value_bytes(tmp_path):
    nan_bits = np.array([0xFFF8000000000000, 0x7FF800000000BEEF], dtype=np.uint64).view(float)
    matrix = np.array([[-0.0, 5e-324, 0.1, 1 / 3], [np.inf, -np.inf, *nan_bits],
                       [1.7976931348623157e308, 2.2250738585072014e-308, 1e22, -7.0]])
    names = ["bed", "chair", "sofa"]
    path = tmp_path / "feats.csv"
    write_features_csv(path, names, matrix)
    lines = [name + "," + ",".join(format(v, ".17g") for v in row)
             for name, row in zip(names, matrix)]
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()
    write_features_csv(path, [], np.zeros((0, 4)))
    assert path.read_bytes() == b"\n"
    write_features_csv(path, ["bed"], np.zeros((1, 0)))
    assert path.read_bytes() == b"bed,\n"


def test_features_csv_is_written_a_row_at_a_time(tmp_path):
    matrix = np.random.default_rng(2).normal(size=(500, 512))
    names = ["bed", "chair"] * 250
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        write_features_csv(tmp_path / "feats.csv", names, matrix)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one row's values and text (about 40 kB), never the file's 5.2 MB
    assert peak - base < 1024 * 1024


def test_binary_and_csv_round_trip_identically(tmp_path, split):
    rng = np.random.default_rng(0)
    names = ["bed", "chair", "sofa", "table", "bed"]
    matrix = rng.normal(size=(5, 3))
    csv_path = tmp_path / "feats.csv"
    bin_path = tmp_path / "feats.bin"
    write_features_csv(csv_path, names, matrix)
    write_features_binary(bin_path, names, matrix)
    from_csv = load_features(csv_path, split)
    from_bin = load_features(bin_path, split)
    assert np.array_equal(from_csv.features, from_bin.features)
    assert np.array_equal(from_csv.labels, from_bin.labels)


def test_truncated_binary_is_format_error(tmp_path, split):
    path = tmp_path / "feats.bin"
    write_features_binary(path, ["bed"], np.ones((1, 3)))
    path.write_bytes(path.read_bytes()[:-4])
    with pytest.raises(FormatError):
        load_features(path, split)
    # a header claiming 64 rows of 256 KiB over a file of two
    write_features_binary(path, ["bed", "chair"], np.ones((2, 2**15)))
    blob = bytearray(path.read_bytes())
    struct.pack_into("<I", blob, 4, 64)
    path.write_bytes(blob)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        with pytest.raises(FormatError, match=f"^{path}: truncated at row 3$"):
            load_features(path, split)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the two rows' matrix beside the file's read buffer and the names
    assert peak - base < len(blob) + 16 * 1024


@pytest.mark.parametrize("write", [write_features_csv, write_features_binary],
                         ids=["csv", "binary"])
def test_feature_loaders_hold_the_matrix_once(tmp_path, split, write):
    path = tmp_path / "feats"
    matrix = np.random.default_rng(2).normal(size=(2000, 512))
    write(path, ["bed", "chair", "sofa", "table"] * 500, matrix)
    for _ in range(2):  # for CSV: a parse that writes the sidecar, then a sidecar read
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            fs = load_features(path, split)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(fs.features, matrix)
        assert peak - base <= 1.2 * matrix.nbytes
    assert sidecar_of(path).exists() == (write is write_features_csv)


def test_binary_features_keep_their_bytes_and_are_written_a_row_at_a_time(tmp_path):
    path = tmp_path / "feats.bin"
    write_features_binary(path, ["bed", "caf\u00e9"], np.array([[1.5, -0.0], [np.inf, 2.0]]))
    assert path.read_bytes() == (
        b"FSET" + struct.pack("<II", 2, 2)
        + struct.pack("<I", 3) + b"bed" + struct.pack("<2d", 1.5, -0.0)
        + struct.pack("<I", 5) + "caf\u00e9".encode() + struct.pack("<2d", np.inf, 2.0)
    )
    matrix = np.random.default_rng(3).normal(size=(500, 512))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        write_features_binary(path, ["bed", "chair"] * 250, matrix)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a row's bytes and the file's write buffer, never the matrix's 2 MB again
    assert peak - base < 64 * 1024
    assert np.array_equal(np.frombuffer(path.read_bytes()[-8 * 512:]), matrix[-1])


# ---------------------------------------------------------------------------
# CSV sidecars


def sidecar_of(path: Path) -> Path:
    return path.with_name(path.name + ".fset")


def sidecar_bytes(csv: Path) -> bytes:
    """The sidecar a load of the CSV file ``csv`` writes: its key, the
    CRC-32 of the rest, then the binary layout `write_features_binary`
    writes."""
    fs_path = csv.with_name("expected.bin")
    names, matrix = parse_csv(csv)
    write_features_binary(fs_path, names, matrix)
    blob = fs_path.read_bytes()
    fs_path.unlink()
    key = b"FCSV" + struct.pack("<I", 2) + hashlib.sha256(csv.read_bytes()).digest()
    return key + struct.pack("<I", zlib.crc32(blob)) + blob


def parse_csv(path: Path):
    """Names and matrix of a CSV feature file, parsed with no sidecar."""
    rows = [line.split(",") for line in path.read_text().splitlines() if line]
    return [row[0] for row in rows], np.array([[float(v) for v in row[1:]] for row in rows])


def loads_without_parsing(monkeypatch, path, split):
    """``load_features(path, split)`` with the CSV parser unavailable."""
    def no_parse(path):
        raise AssertionError(f"{path} parsed again")

    with monkeypatch.context() as patch:
        patch.setattr(datasets, "_read_csv", no_parse)
        return load_features(path, split)


EDGE_MATRIX = np.array([[1.7976931348623157e308, -1.7976931348623157e308],
                        [2.2250738585072014e-308, -0.0], [1 / 3, 5e-324]])


def test_a_sidecar_read_equals_the_parse_bit_for_bit(tmp_path, split, monkeypatch):
    path = tmp_path / "feats.csv"
    write_features_csv(path, ["sofa", "bed", "table"], EDGE_MATRIX)
    parsed = load_features(path, split)
    assert sidecar_of(path).read_bytes() == sidecar_bytes(path)
    cached = loads_without_parsing(monkeypatch, path, split)
    assert cached.features.tobytes() == parsed.features.tobytes() == EDGE_MATRIX.tobytes()
    assert cached.labels.tobytes() == parsed.labels.tobytes()
    assert cached.labels.tolist() == [2, 0, 3]


class _CountingReader(io.BufferedReader):
    """A reader of the file ``path`` that adds the bytes it returns to
    ``count[0]``."""

    def __init__(self, path, count: list):
        super().__init__(io.FileIO(path))
        self._count = count

    def read(self, size=-1):
        data = super().read(size)
        self._count[0] += len(data)
        return data

    def readinto(self, buffer):
        done = super().readinto(buffer)
        self._count[0] += done
        return done


def test_a_warm_csv_load_reads_its_sidecar_once(tmp_path, split, monkeypatch):
    path = tmp_path / "feats.csv"
    write_features_csv(path, ["sofa", "bed", "table"], EDGE_MATRIX)
    load_features(path, split)
    sidecar, count, opened = sidecar_of(path), [0], Path.open

    def counting_open(self, mode="r", *args, **kwargs):
        if self == sidecar and mode == "rb":
            return _CountingReader(self, count)
        return opened(self, mode, *args, **kwargs)

    monkeypatch.setattr(Path, "open", counting_open)
    cached = loads_without_parsing(monkeypatch, path, split)
    assert cached.features.tobytes() == EDGE_MATRIX.tobytes()
    assert count[0] == sidecar.stat().st_size


def test_a_csv_edited_in_place_is_parsed_again(tmp_path, split, monkeypatch):
    path = tmp_path / "feats.csv"
    path.write_text("bed,1.0,2.0\nsofa,3.0,4.0\n")
    load_features(path, split)
    stat = path.stat()
    path.write_text("bed,1.0,2.0\nsofa,3.0,5.0\n")  # same size, same mtime
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert load_features(path, split).features.tolist() == [[1.0, 2.0], [3.0, 5.0]]
    assert sidecar_of(path).read_bytes() == sidecar_bytes(path)
    assert loads_without_parsing(monkeypatch, path, split).features.tolist() == [
        [1.0, 2.0], [3.0, 5.0]]


@pytest.mark.parametrize("spoil", [
    lambda blob: blob[:-4],
    lambda blob: blob[:20],
    lambda blob: b"garbage",
    lambda blob: b"",
    lambda blob: blob[:4] + struct.pack("<I", 1) + blob[8:],
    lambda blob: blob[:8] + bytes(32) + blob[40:],
    lambda blob: blob[:40] + bytes(b ^ 0xFF for b in blob[40:44]) + blob[44:],
    lambda blob: blob + b"\0",
    lambda blob: blob[:48] + struct.pack("<I", 2) + blob[52:],
    lambda blob: blob[:52] + struct.pack("<I", 3) + blob[56:],
    lambda blob: blob[:-1] + bytes([blob[-1] ^ 1]),
], ids=["truncated", "short", "garbage", "empty", "other-version", "other-digest",
        "other-crc", "trailing-byte", "fewer-rows", "other-width", "other-value"])
def test_a_spoilt_sidecar_is_ignored_and_rewritten(tmp_path, split, spoil):
    path = tmp_path / "feats.csv"
    write_features_csv(path, ["sofa", "bed", "table"], EDGE_MATRIX)
    load_features(path, split)
    good = sidecar_of(path).read_bytes()
    sidecar_of(path).write_bytes(spoil(good))
    assert load_features(path, split).features.tobytes() == EDGE_MATRIX.tobytes()
    assert sidecar_of(path).read_bytes() == good


@pytest.mark.parametrize("last,message", [
    ("chair,1.0", ":3: ragged row, expected 2 values, got 1"),
    ("chair,1.0,x", ":3: could not convert string to float: 'x'"),
    ("chair,nan,1.0", ":3: non-finite feature value"),
    ("ghost,1.0,2.0", ": row 3 label 'ghost' is not in split 'toy'"),
])
def test_a_csv_that_fails_to_load_fails_alike_every_time(tmp_path, split, last, message):
    path = tmp_path / "feats.csv"
    path.write_text(f"bed,1.0,2.0\nsofa,3.0,4.0\n{last}\n")
    for _ in range(2):
        with pytest.raises((FormatError, ManifestError)) as err:
            load_features(path, split)
        assert str(err.value) == f"{path}{message}"
    # a well-formed file of an unknown label keeps its sidecar: the split is not its key
    assert sidecar_of(path).exists() == last.startswith("ghost")


@pytest.mark.parametrize("fail", ["create", "write", "replace"])
def test_a_sidecar_that_cannot_be_written_leaves_no_file(tmp_path, split, monkeypatch, fail):
    path = tmp_path / "feats.csv"
    write_features_csv(path, ["sofa", "bed", "table"], EDGE_MATRIX)
    with monkeypatch.context() as patch:
        hit = failing_writes.inject(patch, fail, "feats.csv.fset")
        for _ in range(2):
            assert load_features(path, split).features.tobytes() == EDGE_MATRIX.tobytes()
    assert len(hit) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["feats.csv", "toy.cfg"]


def test_zero_width_binary_features_load(tmp_path, split):
    path = tmp_path / "feats.bin"
    write_features_binary(path, ["bed", "sofa"], np.ones((2, 0)))
    fs = load_features(path, split)
    assert fs.features.shape == (2, 0) and fs.labels.tolist() == [0, 2]


def test_feature_set_rejects_unknown_label():
    split = SplitSpec("toy", ["a", "b"], ["c"])
    for labels, first in (([7], 7), ([0, 3, -1], -1)):
        with pytest.raises(ManifestError, match=rf"^label id {first} missing from class table$"):
            FeatureSet(np.ones((len(labels), 2)), labels, split)


def test_every_subset_shares_its_source_split(split, tmp_path):
    from semfuse.fusion import ClassSemantics, init_fusion
    from semfuse.gen_zsl import init_generator, synthesize_set

    path = tmp_path / "feats.csv"
    names = ["bed", "chair", "sofa", "table"] * 2
    write_features_csv(path, names, np.arange(16.0).reshape(8, 2))
    fs = load_features(path, split)
    e = np.eye(4)[:, :3]
    semantics = ClassSemantics(np.arange(4), split.seen + split.unseen, e, e)
    gen = init_generator(m=2, d=3, noise_dim=2, seed=0, hidden=[8])
    fusion = init_fusion(3, seed=0, alpha=0.5, variation="only-class-name")
    subsets = [
        fs,
        fs.take([0, 5]),
        fs.take(fs.labels == 1),
        fs.rows_for({2, 3}),
        *split_for_eval(fs, seed=0),
        synthesize_set(gen, fusion, semantics, split, per_class=3, seed=0),
    ]
    assert all(s.split is split for s in subsets)
    assert subsets[1].labels.tolist() == [0, 1]
    assert subsets[2].features.tolist() == [[2.0, 3.0], [10.0, 11.0]]


def test_synth_dataset_is_deterministic():
    cfg = SynthConfig(seen=3, unseen=2, m=6, d=4, per_class=5, seed=99)
    fs_a, sem_a = synth_dataset(cfg)
    fs_b, sem_b = synth_dataset(cfg)
    assert np.array_equal(fs_a.features, fs_b.features)
    assert np.array_equal(sem_a.e_c, sem_b.e_c) and np.array_equal(sem_a.e_p, sem_b.e_p)


def test_synth_noiseless_features_identical_within_class():
    cfg = SynthConfig(seen=3, unseen=2, m=6, d=4, per_class=4, sigma_z=0.0, sigma_c=0.0)
    fs, _ = synth_dataset(cfg)
    rows = fs.features[fs.labels == 0]
    assert np.allclose(rows, rows[0])


def test_synth_requires_two_classes_per_side():
    with pytest.raises(ContractError):
        synth_dataset(SynthConfig(seen=1, unseen=3))


def test_synth_nearest_class_mean_oracle_beats_95_percent():
    cfg = SynthConfig(seen=7, unseen=3, m=16, d=8, per_class=30, sigma_z=0.05, seed=5)
    fs, _ = synth_dataset(cfg)
    train, test = split_for_eval(fs, seed=5)
    # class means from ALL rows (oracle may peek; it only checks separability)
    means = {c: fs.features[fs.labels == c].mean(axis=0) for c in fs.split.unseen_ids}
    unseen_test = test.rows_for(fs.split.unseen_ids)
    correct = 0
    for row, label in zip(unseen_test.features, unseen_test.labels):
        best = min(means, key=lambda c: float(((row - means[c]) ** 2).sum()))
        correct += int(best == label)
    assert correct / unseen_test.n > 0.95


def test_synth_within_class_covariance_is_isotropic():
    sigma = 0.3
    cfg = SynthConfig(
        seen=2, unseen=2, m=4, d=3, per_class=4000, sigma_z=sigma, seed=21
    )
    fs, _ = synth_dataset(cfg)
    rows = fs.features[fs.labels == 0]
    cov = np.cov(rows.T)
    assert np.allclose(cov, sigma**2 * np.eye(4), atol=0.02)


def test_split_for_eval_rejects_degenerate_fraction():
    cfg = SynthConfig(seen=2, unseen=2, m=4, d=3, per_class=6, seed=0)
    fs, _ = synth_dataset(cfg)
    for fraction in (0.0, 1.0, -0.2):
        with pytest.raises(ContractError):
            split_for_eval(fs, seed=0, train_fraction=fraction)


def test_split_for_eval_partitions_and_keeps_roles():
    cfg = SynthConfig(seen=3, unseen=2, m=4, d=3, per_class=10, seed=1)
    fs, _ = synth_dataset(cfg)
    train, test = split_for_eval(fs, seed=1, train_fraction=0.5)
    assert set(np.unique(train.labels)) <= fs.split.seen_ids
    assert set(np.unique(test.labels)) == fs.split.seen_ids | fs.split.unseen_ids
    assert train.n + test.n == fs.n
