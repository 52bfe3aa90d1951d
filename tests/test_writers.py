"""Every file semfuse writes goes through `errors.written_whole`: a
source scan finds no other writer, each writer leaves its target whole
or as it was when a write fails, and each file gets the mode `open`
gives a new file."""

import ast
import os
import stat
from pathlib import Path

import numpy as np
import pytest

from semfuse import autodiff as ad
from semfuse.cli import main
from semfuse.datasets import (
    SplitSpec,
    load_features,
    write_features_binary,
    write_features_csv,
)
from semfuse.evaluation import EvalReport, write_report_csv
from semfuse.fusion import ClassSemantics, export_fused_csv, write_bundles
from semfuse.llm_client import DescriptionCache, EndpointConfig

import failing_writes
from conftest import REPO_ROOT, build_demo_dataset

SOURCES = REPO_ROOT / "src" / "semfuse"
WRITE_MODES = set("wxa+")


def _writes(tree):
    """(line, call) of each call in ``tree`` that writes a file or
    renames one: `open` or a ``.open`` method with a mode that writes
    or is not a literal, ``write_text``, ``write_bytes``, ``mkstemp``
    and ``os.replace``."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        method = isinstance(func, ast.Attribute)
        name = func.attr if method else getattr(func, "id", None)
        if name == "open":
            modes = [k.value for k in node.keywords if k.arg == "mode"]
            modes += node.args[0 if method else 1:][:1]
            if modes and not (isinstance(modes[0], ast.Constant)
                              and not WRITE_MODES & set(str(modes[0].value))):
                yield node.lineno, ast.unparse(func)
        elif name in ("write_text", "write_bytes", "mkstemp") or (
            name == "replace" and method and ast.unparse(func.value) == "os"
        ):
            yield node.lineno, ast.unparse(func)


@pytest.mark.parametrize("source,found", [
    ("open(p)\nPath(p).open('rb')\nopen(p, encoding='utf-8')\nmode.replace('w', 'x')", []),
    ("open(p, 'w')\nopen(p, mode='a')\np.open('r+b')\nPath(p).open(m)\nos.open(p, f)",
     [(1, "open"), (2, "open"), (3, "p.open"), (4, "Path(p).open"), (5, "os.open")]),
    ("p.write_text(s)\np.write_bytes(b)\ntempfile.mkstemp()\nos.replace(a, b)",
     [(1, "p.write_text"), (2, "p.write_bytes"), (3, "tempfile.mkstemp"), (4, "os.replace")]),
])
def test_the_writer_scan_finds_each_kind_of_write(source, found):
    assert sorted(_writes(ast.parse(source))) == found


def test_no_module_writes_a_file_but_through_written_whole():
    bypasses = []
    for path in sorted(SOURCES.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        helper = [range(node.lineno, node.end_lineno + 1) for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name == "written_whole"
                  and path.name == "errors.py"]
        bypasses += [f"{path.relative_to(REPO_ROOT)}:{line}: {call}"
                     for line, call in _writes(tree)
                     if not any(line in lines for lines in helper)]
    assert bypasses == []


def _demo_run(root: Path) -> Path:
    """The config of a short run over a demo dataset written under
    ``root``."""
    root.mkdir()
    build_demo_dataset(root)
    cfg = root / "c.cfg"
    cfg.write_text(f"split = {root / 'split.cfg'}\nword_vectors = {root / 'word_vectors.txt'}\n"
                   f"variation = ours\nmethod = embed\nepochs = 2\nout_dir = {root / 'run'}\n",
                   encoding="utf-8")
    return cfg


@pytest.fixture
def umask():
    """The process's umask set to 0o027 for the test."""
    old = os.umask(0o027)
    try:
        yield 0o027
    finally:
        os.umask(old)


def test_every_written_file_has_the_mode_open_gives_a_new_file(tmp_path, umask):
    root = tmp_path / "root"
    cfg = _demo_run(root)
    inputs = set(root.rglob("*"))
    assert main(["train", "--config", str(cfg)]) == 0
    assert main(["eval", "--config", str(cfg), "--mode", "zsl"]) == 0
    cache = DescriptionCache(root / "cache")
    cache.put("sofa", "A sofa has cushions.")
    cache.write_meta(EndpointConfig())
    written = sorted(p for p in root.rglob("*") if p.is_file() and p not in inputs)
    assert [str(p.relative_to(root)) for p in written] == [
        "cache/meta.txt", "cache/sofa.txt",
        "run/fused_semantics.csv", "run/model.bin", "run/model.ckpt", "run/report_zsl.csv",
        "run/run.cfg", "run/train_log.csv", "test.csv.fset", "train.csv.fset",
    ]
    modes = {str(p.relative_to(root)): oct(stat.S_IMODE(p.stat().st_mode)) for p in written}
    assert modes == {name: oct(0o666 & ~umask) for name in modes}


NAMES = ["bed", "chair", "sofa"]
MATRIX = np.array([[0.1, -2.5], [3.0, 1e-300], [np.pi, -0.0]])
STORES = {"g": {"w": MATRIX, "b": np.arange(4.0)}}


def _load_twice(directory):
    """Two loads of a CSV, each of which writes its sidecar."""
    path = directory / "feats.csv"
    write_features_csv(path, NAMES, MATRIX)
    split = SplitSpec("toy", ["bed", "chair"], ["sofa"])
    for _ in range(2):
        assert load_features(path, split).features.tobytes() == MATRIX.tobytes()


def _train(directory):
    """A train command that exits 2 on the injected error."""
    cfg = _demo_run(directory / "inputs")
    assert main(["train", "--config", str(cfg), "--out-dir", str(directory)]) == 2


# target name, and a write of it
WRITERS = {
    "model.ckpt": lambda d: ad.save_params(d / "model.ckpt", STORES),
    "model.bin": lambda d: ad.write_params_binary(d / "model.bin", STORES, (bytes(32),) * 2),
    "feats.csv.fset": _load_twice,
    "sofa.txt": lambda d: DescriptionCache(d).put("sofa", "A sofa has cushions and a back."),
    "meta.txt": lambda d: DescriptionCache(d).write_meta(EndpointConfig()),
    "report.csv": lambda d: write_report_csv(d / "report.csv", [
        EvalReport("ours", "zsl", acc=50.0),
        EvalReport("ours", "gzsl", acc_s=60.0, acc_u=30.0, hm=40.0),
    ]),
    "bundles.csv": lambda d: write_bundles(
        d / "bundles.csv", ClassSemantics(np.arange(3), NAMES, MATRIX, MATRIX), "ours"),
    "fused_semantics.csv": lambda d: export_fused_csv(d / "fused_semantics.csv",
                                                      np.arange(3), MATRIX),
    "feats.csv": lambda d: write_features_csv(d / "feats.csv", NAMES, MATRIX),
    "feats.bin": lambda d: write_features_binary(d / "feats.bin", NAMES, MATRIX),
    "run.cfg": _train,
    "train_log.csv": _train,
}
# writers that go on without the file: a sidecar is an optional cache,
# and a command reports the error as an exit code
CONTINUING = {"feats.csv.fset", "run.cfg", "train_log.csv"}


@pytest.mark.parametrize("previous", [None, b"the previous bytes\n"], ids=["absent", "present"])
@pytest.mark.parametrize("target", list(WRITERS))
def test_a_write_that_fails_partway_leaves_the_previous_file_or_none(
    tmp_path, monkeypatch, target, previous
):
    directory = tmp_path / "out"
    directory.mkdir()
    if previous is not None:
        (directory / target).write_bytes(previous)
    hit = failing_writes.inject(monkeypatch, "write", target)
    if target in CONTINUING:
        WRITERS[target](directory)
    else:
        with pytest.raises(OSError, match="No space left on device"):
            WRITERS[target](directory)
    assert hit and {name.rsplit(".", 1)[0] for name in hit} == {f".tmp-{target}"}
    if previous is None:
        assert not (directory / target).exists()
    else:
        assert (directory / target).read_bytes() == previous
    assert [p.name for p in directory.iterdir() if p.name.startswith(".tmp-")] == []
