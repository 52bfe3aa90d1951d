"""Shared fixtures: a tiny on-disk demo dataset for pipeline tests.

The word vectors are built so that class-name and description
embeddings are noisy views of a per-class latent, and features are a
linear image of the same latent, which makes the little pipeline
actually learnable.
"""

import multiprocessing
import os
import weakref
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

from semfuse import autodiff as ad
from semfuse.fusion import ClassSemantics
from semfuse.wordvec import tokenize

REPO_ROOT = Path(__file__).resolve().parents[1]
DESCRIPTION_DIR = REPO_ROOT / "data" / "descriptions"

SEEN = ["bed", "chair", "desk", "sofa"]
UNSEEN = ["table", "toilet"]


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test after which this process has a child process, running
    or exited and not yet reaped."""
    yield
    workers = multiprocessing.active_children()  # reaps the exited ones
    if workers:
        pytest.fail(f"worker processes left running: {workers}")
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)  # reaps one exited child
    except ChildProcessError:  # no child at all
        return
    pytest.fail(f"child process {pid} left unreaped" if pid else "a child process left running")


def keep_classes(semantics: ClassSemantics, keep) -> ClassSemantics:
    """The rows of ``semantics`` whose class id is in ``keep``."""
    rows = [i for i, cid in enumerate(semantics.ids) if cid in keep]
    return ClassSemantics(
        semantics.ids[rows],
        [semantics.names[i] for i in rows],
        semantics.e_c[rows],
        semantics.e_p[rows],
    )


def record_applied_gradients(patch) -> dict:
    """Patch both optimizers, through ``patch`` (a MonkeyPatch), to keep
    the gradients each one last applied to a parameter dict; returns
    them keyed by the dict's ``id``."""
    applied = {}

    def recording(step):
        def wrapper(params, grads, *args, **kwargs):
            applied[id(params)] = grads
            return step(params, grads, *args, **kwargs)

        return wrapper

    for name in ("adam_step", "sgd_step"):
        patch.setattr(ad, name, recording(getattr(ad, name)))
    return applied


def count_live_gradients(patch, loss, sources=()) -> list[int]:
    """Patch a loss function and the functions in ``sources``, each an
    ``(owner, name, pick)`` triple, through ``patch`` (a MonkeyPatch).
    Every call keeps weak references to the arrays ``pick(args,
    result)`` takes from its arguments and result; every call of the
    loss first counts those still alive, then forgets them. Returns the
    counts, one per call of the loss."""
    refs, counts = [], []

    def watching(fn, pick, is_loss):
        def wrapper(*args, **kwargs):
            if is_loss:
                counts.append(sum(ref() is not None for ref in refs))
                refs.clear()
            result = fn(*args, **kwargs)
            refs.extend(weakref.ref(a) for a in pick(args, result))
            return result

        return wrapper

    for (owner, name, pick), is_loss in [(loss, True), *((s, False) for s in sources)]:
        patch.setattr(owner, name, watching(getattr(owner, name), pick, is_loss))
    return counts


def _read_description(name: str) -> str:
    return (DESCRIPTION_DIR / f"{name}.txt").read_text(encoding="utf-8")


def build_demo_dataset(root: Path, d: int = 8, m: int = 12, seed: int = 0) -> Path:
    """Write word vectors, features, and a split manifest under root.

    Returns the manifest path.
    """
    rng = np.random.default_rng(seed)
    classes = SEEN + UNSEEN
    latents = {c: rng.normal(size=d) for c in classes}
    texts = {c: _read_description(c) for c in classes}

    token_owners: dict[str, list[str]] = defaultdict(list)
    for c in classes:
        for tok in tokenize(c):
            token_owners[tok].append(c)
        for tok in tokenize(texts[c]):
            token_owners[tok].append(c)
    lines = []
    for tok in sorted(token_owners):
        vec = np.mean([latents[c] for c in token_owners[tok]], axis=0)
        vec = vec + 0.05 * rng.normal(size=d)
        lines.append(tok + " " + " ".join(f"{v:.6f}" for v in vec))
    (root / "word_vectors.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")

    mix = rng.normal(size=(m, d)) / np.sqrt(d)
    rows = {"train": [], "test": []}
    for c in classes:
        n_train, n_test = (15, 8) if c in SEEN else (0, 8)
        for kind, count in (("train", n_train), ("test", n_test)):
            for _ in range(count):
                z = mix @ latents[c] + 0.05 * rng.normal(size=m)
                rows[kind].append(c + "," + ",".join(f"{v:.6f}" for v in z))
    (root / "train.csv").write_text("\n".join(rows["train"]) + "\n", encoding="utf-8")
    (root / "test.csv").write_text("\n".join(rows["test"]) + "\n", encoding="utf-8")

    manifest = root / "split.cfg"
    manifest.write_text(
        "dataset = demo\n"
        f"seen = {', '.join(SEEN)}\n"
        f"unseen = {', '.join(UNSEEN)}\n"
        "train_features = train.csv\n"
        "test_features = test.csv\n"
        f"descriptions = {DESCRIPTION_DIR}\n",
        encoding="utf-8",
    )
    return manifest


@pytest.fixture(scope="session")
def demo_dir(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("demo")
    build_demo_dataset(root)
    return root
