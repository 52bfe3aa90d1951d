import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semfuse.errors import FormatError, OutOfVocabularyError
from semfuse.wordvec import WordVectorTable, embed_text, load_word_vectors, tokenize


@pytest.fixture
def cat_dog(tmp_path):
    path = tmp_path / "vectors.txt"
    path.write_text("cat 1.0 0.0\ndog 0.0 1.0\n")
    return load_word_vectors(path)


def test_load_two_entries(cat_dog):
    assert cat_dog.dimension == 2
    assert len(cat_dog) == 2
    assert np.array_equal(cat_dog.vectors["cat"], [1.0, 0.0])


def test_header_line_is_skipped(tmp_path, cat_dog):
    path = tmp_path / "with_header.txt"
    path.write_text("2 2\ncat 1.0 0.0\ndog 0.0 1.0\n")
    table = load_word_vectors(path)
    assert table.dimension == cat_dog.dimension
    assert sorted(table.vectors) == sorted(cat_dog.vectors)
    for token in table.vectors:
        assert np.array_equal(table.vectors[token], cat_dog.vectors[token])


def test_dimension_mismatch_is_format_error(tmp_path):
    path = tmp_path / "ragged.txt"
    path.write_text("cat 1.0 2.0\ndog 1.0 2.0 3.0\n")
    with pytest.raises(FormatError, match="ragged.txt:2"):
        load_word_vectors(path)


def test_bad_float_reports_line_number(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("cat 1.0 2.0\ndog 1.0 oops\n")
    with pytest.raises(FormatError, match="bad.txt:2"):
        load_word_vectors(path)


def test_empty_file_is_format_error(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("")
    with pytest.raises(FormatError):
        load_word_vectors(path)


def test_duplicate_tokens_keep_first(tmp_path):
    path = tmp_path / "dup.txt"
    path.write_text("cat 1.0 0.0\nCAT 9.0 9.0\n")
    table = load_word_vectors(path)
    assert len(table) == 1
    assert np.array_equal(table.vectors["cat"], [1.0, 0.0])


def test_tokens_are_lowercased(tmp_path):
    path = tmp_path / "case.txt"
    path.write_text("Piano 1.0 2.0\n")
    table = load_word_vectors(path)
    assert "piano" in table.vectors
    assert "Piano" not in table.vectors


def test_embed_repeated_token_is_the_entry(cat_dog):
    assert np.array_equal(embed_text(cat_dog, "cat cat"), [1.0, 0.0])


def test_embed_midpoint(cat_dog):
    assert np.allclose(embed_text(cat_dog, "cat dog"), [0.5, 0.5])


def test_embed_all_oov_raises_naming_text(cat_dog):
    with pytest.raises(OutOfVocabularyError, match="xyzzy qwerty"):
        embed_text(cat_dog, "xyzzy qwerty")


def test_embed_single_token_exact(cat_dog):
    assert np.array_equal(embed_text(cat_dog, "dog"), cat_dog.vectors["dog"])


def test_multiword_name_splits_on_punctuation(cat_dog):
    assert np.allclose(embed_text(cat_dog, "cat-dog, cat!"), [2 / 3, 1 / 3])


@given(text=st.text(alphabet=st.sampled_from("aZ09 -_.,\n\tÉßİ!"), max_size=30) | st.text())
@settings(max_examples=200, deadline=None)
def test_tokenize_is_the_split_on_non_alphanumeric_runs(text):
    reference = [t for t in re.split(r"[^a-z0-9]+", text.lower()) if t]
    assert tokenize(text) == reference


def test_punctuation_only_text_is_out_of_vocabulary(cat_dog):
    with pytest.raises(OutOfVocabularyError):
        embed_text(cat_dog, "?!... --")


tokens = st.lists(st.sampled_from(["cat", "dog", "xyzzy"]), min_size=1, max_size=8)

# immutable table shared by the property tests below
TABLE = WordVectorTable(
    2, {"cat": np.array([1.0, 0.0]), "dog": np.array([0.0, 1.0])}
)


@given(tokens=tokens)
@settings(max_examples=50, deadline=None)
def test_embed_is_permutation_invariant(tokens):
    if not any(t in ("cat", "dog") for t in tokens):
        return
    forward = embed_text(TABLE, " ".join(tokens))
    backward = embed_text(TABLE, " ".join(reversed(tokens)))
    assert np.allclose(forward, backward)


@given(tokens=tokens)
@settings(max_examples=50, deadline=None)
def test_appending_oov_token_never_changes_result(tokens):
    if not any(t in ("cat", "dog") for t in tokens):
        return
    base = embed_text(TABLE, " ".join(tokens))
    extended = embed_text(TABLE, " ".join(tokens + ["qwerty"]))
    assert np.allclose(base, extended)


def test_every_vector_has_table_dimension(cat_dog):
    assert all(v.shape == (cat_dog.dimension,) for v in cat_dog.vectors.values())


# ---------------------------------------------------------------------------
# vocabulary-filtered loading


@pytest.fixture(scope="module")
def mixed_file(tmp_path_factory):
    """Header, mixed case, duplicates and a blank line, 40 tokens x 3-d."""
    rng = np.random.default_rng(4)
    words = [f"w{i}" for i in range(30)] + ["Cat", "DOG", "cat", "w3", "w7"]
    lines = ["35 3"] + [
        w + " " + " ".join(f"{v:.17g}" for v in rng.normal(size=3)) for w in words
    ]
    lines.insert(10, "")
    path = tmp_path_factory.mktemp("vectors") / "mixed.txt"
    path.write_text("\n".join(lines) + "\n")
    return path


@given(vocabulary=st.sets(st.sampled_from([f"w{i}" for i in range(32)] + ["cat", "dog"])))
@settings(max_examples=40, deadline=None)
def test_filtered_load_equals_full_load_restricted_to_the_vocabulary(mixed_file, vocabulary):
    full = load_word_vectors(mixed_file)
    filtered = load_word_vectors(mixed_file, vocabulary)
    assert filtered.dimension == full.dimension == 3
    assert sorted(filtered.vectors) == sorted(t for t in full.vectors if t in vocabulary)
    for token, vector in filtered.vectors.items():
        assert vector.tobytes() == full.vectors[token].tobytes()


def test_filtered_load_skips_header_and_keeps_first_duplicate(tmp_path):
    path = tmp_path / "dup.txt"
    path.write_text("3 2\nzebra 5.0 5.0\ncat 1.0 0.0\nCAT 9.0 9.0\ndog 0.0 1.0\n")
    table = load_word_vectors(path, {"cat"})
    assert table.dimension == 2 and sorted(table.vectors) == ["cat"]
    assert np.array_equal(table.vectors["cat"], [1.0, 0.0])


@pytest.mark.parametrize(
    "text,line",
    [
        ("zebra 1.0 2.0\ncat 1.0 oops\n", 2),  # bad float on a needed token
        ("zebra 1.0 2.0\ncat 1.0 2.0 3.0\n", 2),  # ragged needed token
        ("zebra 1.0 2.0\ncat 1.0 2.0\nCat 1.0\n", 3),  # ragged duplicate of one
        ("zebra 1.0 oops\ncat 1.0 2.0\n", 1),  # first data line, token unused
        ("2 2\nzebra\ncat 1.0 2.0\n", 2),  # first data line without values
    ],
)
def test_filtered_load_reports_bad_lines_it_parses(tmp_path, text, line):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(FormatError, match=f"bad.txt:{line}:"):
        load_word_vectors(path, {"cat"})


def test_first_data_line_fixes_the_dimension_even_if_unused(tmp_path):
    path = tmp_path / "first.txt"
    path.write_text("zebra 1.0 2.0 3.0\ncat 1.0 2.0\n")
    with pytest.raises(FormatError, match="first.txt:2: expected 3 values, got 2"):
        load_word_vectors(path, {"cat"})


def test_filtered_load_skips_malformed_lines_of_unused_tokens(tmp_path):
    path = tmp_path / "noisy.txt"
    path.write_text("cat 1.0 0.0\nzebra 1.0 oops\nyak 1.0 2.0 3.0\nemu\ndog 0.0 1.0\n")
    table = load_word_vectors(path, {"cat", "dog"})
    assert sorted(table.vectors) == ["cat", "dog"]
    with pytest.raises(FormatError, match="noisy.txt:2"):
        load_word_vectors(path)


def test_vocabulary_missing_from_file_gives_named_out_of_vocabulary(tmp_path):
    path = tmp_path / "other.txt"
    path.write_text("zebra 1.0 2.0\nyak 3.0 4.0\n")
    table = load_word_vectors(path, {"xyzzy", "qwerty"})
    assert table.dimension == 2 and len(table) == 0
    with pytest.raises(OutOfVocabularyError, match="xyzzy qwerty"):
        embed_text(table, "xyzzy qwerty")


def test_filtered_load_of_an_empty_file_is_format_error(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("\n\n")
    with pytest.raises(FormatError, match="no word vectors found"):
        load_word_vectors(path, {"cat"})


@pytest.fixture(scope="module")
def vec_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("parse")


@given(values=st.lists(st.floats(allow_nan=False, width=64), min_size=1, max_size=6),
       digits=st.sampled_from(["%r", "%.17g", "%.6f", "%.3e"]))
@example(values=[1e200, -1.7976931348623157e308], digits="%r")  # finite, squares overflow
@settings(max_examples=60, deadline=None)
def test_loaded_values_equal_python_float_parsing(vec_dir, values, digits):
    texts = [digits % v for v in values]
    path = vec_dir / "one.txt"
    path.write_text("cat " + " ".join(texts) + "\n")
    reference = np.array([float(t) for t in texts], dtype=np.float64)
    for vocabulary in (None, {"cat"}):
        if not np.isfinite(reference).all():  # an infinity, or a rounding past the range
            with pytest.raises(FormatError, match="one.txt:1: non-finite word-vector value"):
                load_word_vectors(path, vocabulary)
            continue
        table = load_word_vectors(path, vocabulary)
        assert table.vectors["cat"].tobytes() == reference.tobytes()
