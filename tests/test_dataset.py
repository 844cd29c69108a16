import csv
import io
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import setforest as sf
from setforest.dataset import (
    DataError,
    Feature,
    FeatureType,
    _parse_set_cell,
    encode_set_column,
    text_examples,
)

from helpers import (
    make_vocab,
    reference_build_vocabulary,
    reference_csv_set_cells,
    reference_set_column,
    reference_text_examples,
    reference_tokenize,
)

# every character that str.split() splits on and ASCII whitespace is not
OTHER_WS = ("\x1c\x1d\x1e\x1f\x85\xa0\u1680" + "".join(map(chr, range(0x2000, 0x200B)))
            + "\u2028\u2029\u202f\u205f\u3000")
BOM = "\ufeff".encode("utf-8")


class TestTokenize:
    def test_dedup_and_split(self):
        assert sf.tokenize("blue red blue green") == {"blue", "green", "red"}

    def test_empty(self):
        assert sf.tokenize("") == frozenset()

    def test_mixed_whitespace_matches_regex_reference(self):
        # oracle: split on \s+ then set construction
        text = "a\tb  c"
        expected = frozenset(t for t in re.split(r"\s+", text) if t)
        assert sf.tokenize(text) == expected == {"a", "b", "c"}
        # str.split() splits on these too, the tokenizer only on ASCII whitespace
        for c in OTHER_WS:
            for text in (f"a{c}b \tc", f"{c}", f"\u00e9 x{c}y"):
                assert sf.tokenize(text) == reference_tokenize(text), repr(text)
        assert sf.tokenize("a\u00a0b c") == {"a\u00a0b", "c"}

    def test_case_preserved(self):
        assert sf.tokenize("Cat cat") == {"Cat", "cat"}


class TestBuildVocabulary:
    def test_min_frequency_filter(self):
        vocab = sf.build_vocabulary([{"a", "b"}, {"a"}, {"a", "c"}],
                                    max_size=10, min_frequency=2)
        assert vocab.terms == ("a",)
        assert vocab.frequencies == (3,)

    def test_truncation_by_frequency(self):
        corpus = [{"x", "y"}, {"x", "y"}, {"x", "y"}, {"z"}]
        # oracle: count, sort by (-freq, term), take 2
        counts = {"x": 3, "y": 3, "z": 1}
        expected = sorted(counts, key=lambda t: (-counts[t], t))[:2]
        vocab = sf.build_vocabulary(corpus, max_size=2, min_frequency=1)
        assert list(vocab.terms) == expected == ["x", "y"]

    def test_defaults(self):
        import inspect

        params = inspect.signature(sf.build_vocabulary).parameters
        assert params["max_size"].default == 5000
        assert params["min_frequency"].default == 5

    def test_document_frequency_not_token_frequency(self):
        # "b" appears once in many docs, "a" many times in one doc
        corpus = [["a", "a", "a", "b"], ["b"], ["b"]]
        vocab = sf.build_vocabulary(corpus, max_size=10, min_frequency=2)
        assert "b" in vocab and "a" not in vocab

    def test_empty_result(self):
        vocab = sf.build_vocabulary([{"a"}], max_size=5, min_frequency=2)
        assert len(vocab) == 0

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            sf.build_vocabulary([], max_size=0, min_frequency=1)

    @settings(deadline=None, max_examples=50)
    @given(st.lists(st.sets(st.sampled_from("abcdefgh"), max_size=5), max_size=20),
           st.integers(1, 3), st.integers(1, 6))
    def test_deterministic_and_sorted(self, corpus, min_freq, max_size):
        v1 = sf.build_vocabulary(corpus, max_size=max_size, min_frequency=min_freq)
        v2 = sf.build_vocabulary(corpus, max_size=max_size, min_frequency=min_freq)
        assert v1.terms == v2.terms and v1.frequencies == v2.frequencies
        assert len(v1) <= max_size
        assert all(f >= min_freq for f in v1.frequencies)
        # frequencies non-increasing in id order
        assert all(a >= b for a, b in zip(v1.frequencies, v1.frequencies[1:]))


class TestEncode:
    def test_oov_dropped(self):
        vocab = sf.Vocabulary(("a", "b"), (3, 2))
        assert sf.encode_tokens({"a", "z"}, vocab) == (0,)

    def test_empty(self):
        vocab = sf.Vocabulary(("a", "b"), (3, 2))
        assert sf.encode_tokens(set(), vocab) == ()

    def test_sorted_output(self):
        vocab = sf.Vocabulary(("a", "b"), (3, 2))
        assert sf.encode_tokens({"b", "a"}, vocab) == (0, 1)

    @settings(deadline=None, max_examples=50)
    @given(st.sets(st.sampled_from("abcdef")))
    def test_reencoding_is_identity(self, tokens):
        vocab = sf.Vocabulary(tuple("abcdef"), (6, 5, 4, 3, 2, 1))
        ids = sf.encode_tokens(tokens, vocab)
        decoded = [vocab.terms[i] for i in ids]
        assert sf.encode_tokens(decoded, vocab) == ids


class TestLabeledText:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        path.write_text("1\tgood fine good\n0\tbad sad\n", encoding="utf-8")
        token_sets, labels = sf.load_labeled_text(path)
        assert token_sets == [{"good", "fine"}, {"bad", "sad"}]
        assert labels.tolist() == [1, 0]

    def test_bad_label(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        path.write_text("2\toops\n", encoding="utf-8")
        with pytest.raises(DataError, match="label"):
            sf.load_labeled_text(path)


class TestTextExamples:
    """``text_examples`` is the one reader of text lines: an optional 0/1
    label ended by a TAB, and one blank-line rule."""

    def test_labels_blank_lines_and_line_ends(self, tmp_path):
        path = tmp_path / "mixed.tsv"
        path.write_bytes(b"1\tspam eggs\n\n \t \n0\tham\r\nspam ham\r\r\n1\t\n1\n"
                         b"2\tx\n0\tlast")
        assert list(text_examples(path)) == [
            (1, 1, {"spam", "eggs"}), (4, 0, {"ham"}), (5, None, {"spam", "ham"}),
            (7, 1, frozenset()), (8, None, {"1"}), (9, None, {"2", "x"}), (10, 0, {"last"})]

    def test_reads_a_binary_stream(self):
        assert list(text_examples(io.BytesIO(b"0\ta b\nc\n"))) == [
            (1, 0, {"a", "b"}), (2, None, {"c"})]

    @pytest.mark.parametrize("text,line", [("1\ta\n1\n", 2), ("1\ta\nb c\n", 2),
                                           (" 1\ta\n", 1)])
    def test_labeled_reader_needs_every_label(self, tmp_path, text, line):
        path = tmp_path / "corpus.tsv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(DataError, match=f"corpus.tsv:{line}: .*label"):
            sf.load_labeled_text(path)

    def test_labeled_reader_names_a_stream_as_read_text_does(self):
        # no repr such as <_io.BytesIO object at 0x...>: a stream without a
        # name is <stream>, one with a name goes by it
        with pytest.raises(DataError, match=r"^<stream>:2: a line must start"):
            sf.load_labeled_text(io.BytesIO(b"1\ta\nb\n"))
        named = io.BytesIO(b"b\n")
        named.name = "<stdin>"
        with pytest.raises(DataError, match=r"^<stdin>:1: a line must start"):
            sf.load_labeled_text(named)

    def test_labeled_reader_skips_blank_lines(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        path.write_bytes(b"\r\n1\ta\r\n   \n\t\n0\tb\n")
        token_sets, labels = sf.load_labeled_text(path)
        assert token_sets == [{"a"}, {"b"}] and labels.tolist() == [1, 0]

    @pytest.mark.parametrize("loader", ["text", "csv"])
    def test_non_utf8_names_the_line(self, tmp_path, loader):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"label,words\n1,{a}\n0,{caf\xe9}\n")
        with pytest.raises(DataError, match="bad.txt:3: not UTF-8"):
            if loader == "text":
                sf.load_labeled_text(path)
            else:
                sf.load_csv(path, {"words": "set"})


class TestByteOrderMark:
    """A leading UTF-8 byte-order mark is dropped by ``read_text``, so every
    reader sees the file as if it had none."""

    def test_text(self, tmp_path):
        path = tmp_path / "a.tsv"
        path.write_bytes(BOM + b"1\tgood fine\r\n0\tbad\r\n")
        token_sets, labels = sf.load_labeled_text(path)
        assert token_sets == [{"good", "fine"}, {"bad"}] and labels.tolist() == [1, 0]

    def test_csv(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_bytes(BOM + b"label,words\n1,{a b}\n0,\n")
        plain = sf.load_csv(io.BytesIO(b"label,words\n1,{a b}\n0,\n"), {"words": "set"})
        ds = sf.load_csv(path, {"words": "set"})
        assert ds.features == plain.features and ds.labels.tolist() == [1, 0]
        assert list(ds.columns[0]) == list(plain.columns[0]) == [(0, 1), None]
        reread = sf.load_csv_with_schema(path, ds.features, "label")
        assert list(reread.columns[0]) == [(0, 1), None]

    def test_only_the_first_mark_is_dropped_and_lines_keep_their_numbers(self, tmp_path):
        path = tmp_path / "a.tsv"
        path.write_bytes(BOM + BOM + b"1\ta\n")
        with pytest.raises(DataError, match="a.tsv:1: .*label"):
            sf.load_labeled_text(path)
        path.write_bytes(BOM + b"1\ta\n0\tcaf\xe9\n")
        with pytest.raises(DataError, match="a.tsv:2: not UTF-8"):
            sf.load_labeled_text(path)


_WORDS = st.text(alphabet="abc\u00e9", min_size=1, max_size=2)


@st.composite
def _separators(draw):
    """Whitespace runs: ASCII alone, which ``str.split`` reads, or with the
    characters it also splits on, which need the regex rule."""
    alphabet = draw(st.sampled_from([" \t", " \t\f\v" + OTHER_WS]))
    return st.text(alphabet=alphabet, min_size=1, max_size=3)


@st.composite
def _text_file(draw):
    sep = draw(_separators())
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        words = draw(st.lists(_WORDS, max_size=5))
        body = draw(st.sampled_from(["", draw(sep)])) + draw(sep).join(words)
        head = draw(st.sampled_from(["0\t", "1\t", "1\t", "0\t", "", "2\t"]))
        lines.append(head + body)
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines),
                         max_size=len(lines)))
    return "".join(map(str.__add__, lines, ends)) + draw(st.sampled_from(["", "0\ttail"]))


@st.composite
def _csv_set_file(draw):
    sep = draw(_separators())
    rows = [["label", "words"]]
    for _ in range(draw(st.integers(0, 12))):
        cell = draw(st.sampled_from(["", "{}", "{words}"]))
        if cell == "{words}":
            cell = "{" + draw(st.sampled_from(["", draw(sep)])) \
                + draw(sep).join(draw(st.lists(_WORDS, min_size=1, max_size=5))) + "}"
        rows.append([draw(st.sampled_from(["0", "1"])), cell])
    out = io.StringIO()
    csv.writer(out, lineterminator=draw(st.sampled_from(["\n", "\r\n"]))).writerows(rows)
    return out.getvalue()


def _same_column(have, want):
    for name in ("indptr", "term_ids", "missing"):
        assert getattr(have, name).dtype == getattr(want, name).dtype
        assert np.array_equal(getattr(have, name), getattr(want, name)), name


class TestBulkIngestMatchesReference:
    """The whole-column ingest (one split rule per text, one counting pass,
    one set-column encoder) against the per-row reference in ``helpers``."""

    def test_split_rule_covers_every_whitespace_character(self):
        # str.split() splits on exactly the characters for which isspace() holds
        spaces = {c for c in map(chr, range(0x110000)) if c.isspace()}
        assert spaces == set(" \t\n\r\f\v" + OTHER_WS)

    @settings(deadline=None, max_examples=150)
    @given(_text_file(), st.booleans(), st.integers(1, 3), st.sampled_from([None, 3]))
    def test_text(self, text, bom, min_frequency, max_size):
        data = (BOM if bom else b"") + text.encode("utf-8")
        examples = reference_text_examples(text)
        assert list(text_examples(io.BytesIO(data))) == examples
        unlabeled = [lineno for lineno, label, _ in examples if label is None]
        if unlabeled:
            with pytest.raises(DataError, match=f":{unlabeled[0]}: a line must start"):
                sf.load_labeled_text(io.BytesIO(data))
            examples = [e for e in examples if e[1] is not None]
        else:
            token_sets, labels = sf.load_labeled_text(io.BytesIO(data))
            assert token_sets == [tokens for _, _, tokens in examples]
            assert labels.tolist() == [label for _, label, _ in examples]
        token_sets = [tokens for _, _, tokens in examples]
        # a vocabulary of the first half leaves out-of-vocabulary tokens in the rest
        half = token_sets[:len(token_sets) // 2]
        vocab = sf.build_vocabulary(half, max_size, min_frequency)
        want = reference_build_vocabulary(half, max_size, min_frequency)
        assert (vocab.terms, vocab.frequencies) == (want.terms, want.frequencies)
        ds = sf.dataset_from_token_sets(token_sets, vocab, [0] * len(token_sets))
        _same_column(ds.columns[0], reference_set_column(token_sets, vocab))

    @settings(deadline=None, max_examples=150)
    @given(st.lists(st.none() | st.lists(st.sampled_from("abcdefg"), max_size=6), max_size=15),
           st.lists(st.sampled_from("abcdefgh"), unique=True))
    def test_list_rows_with_repeated_tokens(self, rows, terms):
        present = [tokens for tokens in rows if tokens is not None]
        vocab = sf.build_vocabulary(present, None, 1)
        want = reference_build_vocabulary(present, None, 1)
        assert (vocab.terms, vocab.frequencies) == (want.terms, want.frequencies)
        for vocab in (vocab, make_vocab(terms)):
            _same_column(encode_set_column(rows, vocab), reference_set_column(rows, vocab))
            ds = sf.dataset_from_token_sets(present, vocab, [1] * len(present))
            _same_column(ds.columns[0], reference_set_column(present, vocab))
            # any iterable of rows, and rows that are iterators
            rows_of_iterators = (None if tokens is None else iter(tokens) for tokens in rows)
            _same_column(encode_set_column(rows_of_iterators, vocab),
                         reference_set_column(rows, vocab))
            assert [sf.encode_tokens(tokens, vocab) for tokens in present] \
                == list(reference_set_column(present, vocab))

    @settings(deadline=None, max_examples=150)
    @given(_csv_set_file(), _csv_set_file(), st.booleans())
    def test_csv(self, train, holdout, bom):
        data = (BOM if bom else b"") + train.encode("utf-8")
        cells = reference_csv_set_cells(train, "words")
        vocab = reference_build_vocabulary([c for c in cells if c is not None], None, 1)
        ds = sf.load_csv(io.BytesIO(data), {"words": "set"})
        assert (ds.features[0].vocabulary or make_vocab([])).terms == vocab.terms
        _same_column(ds.columns[0], reference_set_column(cells, vocab))
        reread = sf.load_csv_with_schema(io.BytesIO(holdout.encode("utf-8")), ds.features,
                                         "label")
        _same_column(reread.columns[0],
                     reference_set_column(reference_csv_set_cells(holdout, "words"), vocab))


class TestSetCell:
    def test_variants(self):
        assert _parse_set_cell("{blue red green}") == {"blue", "red", "green"}
        assert _parse_set_cell("{red\tred  blue}") == sf.tokenize("red\tred  blue")
        assert _parse_set_cell("{}") == frozenset()
        assert _parse_set_cell("") is None

    def test_malformed(self):
        with pytest.raises(DataError):
            _parse_set_cell("blue red")


class TestLoadCsv:
    def _write(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_text(text, encoding="utf-8")
        return path

    def test_basic(self, tmp_path):
        path = self._write(
            tmp_path,
            "label,age,color,words\n"
            "1,3.5,red,{blue red}\n"
            "0,,blue,{}\n"
            "0,2.0,,\n",
        )
        ds = sf.load_csv(path, {"age": "numerical", "color": "categorical",
                                "words": "set"})
        assert ds.labels.tolist() == [1, 0, 0]
        age = ds.columns[0]
        assert age[0] == 3.5 and np.isnan(age[1]) and age[2] == 2.0
        color = ds.columns[1]
        assert color[2] == sf.MISSING_CATEGORY
        words = ds.columns[2]
        assert words[1] == ()  # literal {} is the empty set
        assert words[2] is None  # empty cell is missing

    def test_bad_number_reports_location(self, tmp_path):
        path = self._write(tmp_path, "label,age\n1,xyz\n")
        with pytest.raises(DataError, match="age"):
            sf.load_csv(path, {"age": "numerical"})

    def test_unknown_type(self, tmp_path):
        path = self._write(tmp_path, "label,a\n1,2\n")
        with pytest.raises(DataError, match="unknown column type"):
            sf.load_csv(path, {"a": "fancy"})

    def test_missing_column(self, tmp_path):
        path = self._write(tmp_path, "label,a\n1,2\n")
        with pytest.raises(DataError, match="not in header"):
            sf.load_csv(path, {"b": "numerical"})

    def test_missing_weight_column(self, tmp_path):
        path = self._write(tmp_path, "label,age\n1,1.0\n")
        with pytest.raises(DataError, match="not in header"):
            sf.load_csv(path, {"age": "numerical"}, weight_column="w")

    def test_weight_column(self, tmp_path):
        path = self._write(tmp_path,
                           "label,w,age\n1,2.5,1.0\n0,1.0,2.0\n")
        ds = sf.load_csv(path, {"age": "numerical"}, weight_column="w")
        assert ds.weights.tolist() == [2.5, 1.0]

    def test_schema_reload_encodes_with_stored_tables(self, tmp_path):
        train = self._write(
            tmp_path,
            "label,color,words\n1,red,{a b}\n0,blue,{b}\n1,red,{a}\n")
        ds = sf.load_csv(train, {"color": "categorical", "words": "set"})
        other = tmp_path / "new.csv"
        other.write_text(
            "label,color,words\n0,green,{a zz}\n0,red,{zz}\n", encoding="utf-8")
        ds2 = sf.load_csv_with_schema(other, ds.features)
        # unseen categorical value -> missing; unseen tokens dropped
        assert ds2.columns[0][0] == sf.MISSING_CATEGORY
        assert ds2.columns[0][1] == ds.features[0].vocabulary.index["red"]
        a_id = ds.features[1].vocabulary.index["a"]
        assert ds2.columns[1][0] == (a_id,)
        assert ds2.columns[1][1] == ()

    def test_schema_reload_rejects_short_rows(self, tmp_path):
        train = self._write(tmp_path, "label,x,y\n0,2.5,1.0\n1,3.0,2.0\n")
        ds = sf.load_csv(train, {"x": "numerical", "y": "numerical"})
        short = tmp_path / "short.csv"
        short.write_text("label,x,y\n0,2.5\n", encoding="utf-8")
        with pytest.raises(DataError, match="expected 3 cells, got 2"):
            sf.load_csv(short, {"x": "numerical", "y": "numerical"})
        with pytest.raises(DataError, match="expected 3 cells, got 2"):
            sf.load_csv_with_schema(short, ds.features)

    @pytest.mark.parametrize("weight", ["0", "-1.5", "nan", "inf", "-inf", "1e400"])
    def test_non_positive_or_non_finite_weight_rejected(self, tmp_path, weight):
        path = self._write(tmp_path, f"label,w,x\n0,1.0,2.5\n1,{weight},3.0\n")
        with pytest.raises(DataError, match=":3: weight must be positive and finite"):
            sf.load_csv(path, {"x": "numerical"}, weight_column="w")

    @pytest.mark.parametrize("cell", ["inf", "-inf", "Infinity", "1e400"])
    def test_infinite_number_rejected(self, tmp_path, cell):
        train = self._write(tmp_path, "label,x\n0,2.5\n1,3.0\n")
        ds = sf.load_csv(train, {"x": "numerical"})
        bad = tmp_path / "bad.csv"
        bad.write_text(f"label,x\n0,2.5\n1,{cell}\n", encoding="utf-8")
        with pytest.raises(DataError, match=":3: column 'x': number .* is not finite"):
            sf.load_csv(bad, {"x": "numerical"})
        with pytest.raises(DataError, match="is not finite"):
            sf.load_csv_with_schema(bad, ds.features)

    def test_nan_number_stays_missing(self, tmp_path):
        path = self._write(tmp_path, "label,x\n0,nan\n1,\n")
        ds = sf.load_csv(path, {"x": "numerical"})
        assert np.isnan(ds.columns[0]).all()

    def test_schema_reload_rejects_bad_weight(self, tmp_path):
        train = self._write(tmp_path, "label,w,x\n0,1.0,2.5\n1,2.0,3.0\n")
        ds = sf.load_csv(train, {"x": "numerical"}, weight_column="w")
        bad = tmp_path / "bad.csv"
        bad.write_text("label,w,x\n0,heavy,2.5\n", encoding="utf-8")
        with pytest.raises(DataError, match="bad weight"):
            sf.load_csv_with_schema(bad, ds.features, weight_column="w")


    def test_reads_a_binary_stream(self):
        ds = sf.load_csv(io.BytesIO(b"label,x\n1,2.5\n0,\n"), {"x": "numerical"})
        assert ds.labels.tolist() == [1, 0] and ds.columns[0][0] == 2.5

    def test_csv_parser_error_is_a_data_error(self, tmp_path):
        path = self._write(tmp_path, "label,x\n0,1\n1," + "9" * (csv.field_size_limit() + 1)
                           + "\n")
        with pytest.raises(DataError, match="data.csv:3: field larger than field limit"):
            sf.load_csv(path, {"x": "numerical"})

    def test_one_row_keeps_every_distinct_token(self, tmp_path):
        tokens = [f"t{i:03d}" for i in range(100)]
        path = self._write(tmp_path, "label,words\n1,{" + " ".join(tokens) + "}\n")
        ds = sf.load_csv(path, {"words": "set"})
        assert ds.features[0].vocabulary.terms == tuple(tokens)
        assert ds.columns[0][0] == tuple(range(100))

    @pytest.mark.parametrize("header,column", [
        ("label,x,x", "x"), ("label,x,label", "label"), ("label,x,w,w", "w")])
    def test_repeated_header_column_rejected(self, tmp_path, header, column):
        weight = "w" if "w" in header else None
        schema = sf.load_csv(self._write(tmp_path, "label,x\n1,1.0\n"),
                             {"x": "numerical"}).features
        path = self._write(tmp_path, f"{header}\n1" + ",1.0" * header.count(",") + "\n")
        with pytest.raises(DataError, match=f"data.csv: column '{column}' repeated in header"):
            sf.load_csv(path, {"x": "numerical"}, weight_column=weight)
        with pytest.raises(DataError, match=f"data.csv: column '{column}' repeated in header"):
            sf.load_csv_with_schema(path, schema, "label", weight)

    def test_schema_without_vocabulary_reads_every_token_as_unknown(self, tmp_path):
        # an empty vocabulary is stored as none: a column of {} and missing cells
        train = self._write(tmp_path, "label,words,cat\n1,{},\n0,,\n")
        ds = sf.load_csv(train, {"words": "set", "cat": "categorical"})
        schema = [Feature.from_dict(f.to_dict()) for f in ds.features]
        assert [f.vocabulary for f in schema] == [None, None]
        other = tmp_path / "other.csv"
        other.write_text("label,words,cat\n0,{a b},red\n0,,\n", encoding="utf-8")
        ds2 = sf.load_csv_with_schema(other, schema)
        assert list(ds2.columns[0]) == [(), None]
        assert ds2.columns[1].tolist() == [sf.MISSING_CATEGORY] * 2


_CELL_TEXT = st.text(alphabet="ab,\" \t\n{}", max_size=4)
_TOKENS = st.lists(st.sampled_from(["x", "y", "zz", "x"]), max_size=5)
_SEPARATORS = st.sampled_from([" ", "\t", "  ", " \t "])


@st.composite
def _csv_file(draw):
    """A CSV of a label, a numerical, a categorical and a set column; cells
    hold quoted commas and quotes, empty cells, ``{}``, repeated tokens, and
    runs of spaces and tabs inside the braces."""
    rows = [["label", "num", "cat", "words"]]
    for _ in range(draw(st.integers(0, 12))):
        num = draw(st.one_of(st.just(""), st.floats(-1e6, 1e6).map(repr)))
        cat = draw(_CELL_TEXT)
        if draw(st.booleans()):
            words = ""
        else:
            sep = draw(_SEPARATORS)
            words = "{" + draw(st.sampled_from(["", sep])) + sep.join(draw(_TOKENS)) + "}"
        rows.append([draw(st.sampled_from(["0", "1"])), num, cat, words])
    out = io.StringIO()
    csv.writer(out, lineterminator=draw(st.sampled_from(["\n", "\r\n"]))).writerows(rows)
    return out.getvalue().encode("utf-8")


class TestCsvReadersAgree:
    @settings(deadline=None, max_examples=150)
    @given(_csv_file())
    def test_schema_reload_of_the_training_file_is_the_training_load(self, data):
        types = {"num": "numerical", "cat": "categorical", "words": "set"}
        inferred = sf.load_csv(io.BytesIO(data), types)
        reread = sf.load_csv_with_schema(io.BytesIO(data), inferred.features, "label")
        assert reread.features == inferred.features
        assert np.array_equal(reread.labels, inferred.labels)
        assert np.array_equal(reread.weights, inferred.weights)
        for feature, have, want in zip(inferred.features, reread.columns, inferred.columns):
            if feature.ftype == FeatureType.CATEGORICAL_SET:
                for name in ("indptr", "term_ids", "missing"):
                    assert np.array_equal(getattr(have, name), getattr(want, name))
            else:
                assert np.array_equal(have, want, equal_nan=True)
                assert have.dtype == want.dtype


class TestDatasetInvariants:
    def test_validate_catches_bad_term_ids(self):
        from helpers import set_dataset

        with pytest.raises(ValueError, match="term id"):
            set_dataset([(0, 9)], [1], vocab_size=2)

    @staticmethod
    def _create(set_value=(0,), category=0):
        features = [Feature("text", FeatureType.CATEGORICAL_SET, make_vocab("abcd")),
                    Feature("colour", FeatureType.CATEGORICAL, make_vocab("xy"))]
        columns = [[(1, 2), set_value, None, ()],
                   np.array([0, category, 1, sf.MISSING_CATEGORY], dtype=np.int64)]
        return sf.Dataset.create(features, columns, [0, 1, 0, 1])

    # (3, 1) routed top-down and compiled disagreed on mask (1,): 0.1 against 0.9
    @pytest.mark.parametrize("value", [(3, 1), (-2,), (1, 1), (4,), (0, 5)])
    def test_bad_set_value_rejected(self, value):
        with pytest.raises(ValueError, match=r"set value .* of row 1 in text: term ids"):
            self._create(set_value=value)

    @pytest.mark.parametrize("category", [5, 2, -7, -2])
    def test_category_out_of_range_rejected(self, category):
        with pytest.raises(ValueError, match=f"category id {category} out of range"):
            self._create(category=category)

    def test_non_integer_categories_rejected(self):
        features = [Feature("colour", FeatureType.CATEGORICAL, make_vocab("xy"))]
        with pytest.raises(ValueError, match="bad categorical column"):
            sf.Dataset.create(features, [np.array([0.0, 1.0])], [0, 1])

    @pytest.mark.parametrize("value", [None, (), (0,), (3,), (0, 1, 2, 3)])
    def test_edge_values_accepted(self, value):
        ds = self._create(set_value=value, category=sf.MISSING_CATEGORY)
        index = ds.columns[0]
        assert index.term_ids.tolist() == [1, 2, *(value or ())]
        assert index.indptr.tolist() == [0, 2, 2 + len(value or ()), 2 + len(value or ()),
                                         2 + len(value or ())]

    def test_index_built_once_and_lazily_for_subsets(self):
        ds = self._create()
        assert ds.columns[0] is ds.columns[0]
        sub = ds.subset([3, 0])
        assert sub.columns[0].term_ids.tolist() == [1, 2]
        assert sub.columns[0].indptr.tolist() == [0, 0, 2]

    @pytest.mark.parametrize("rows", [[], np.array([], dtype=np.int64)],
                             ids=["list", "int64-array"])
    def test_empty_subset(self, rows):
        # np.asarray([]) is float64, which numpy refuses as an index
        from helpers import random_mixed_dataset

        ds, _ = random_mixed_dataset(seed=2, n=30)
        sub = ds.subset(rows)
        assert sub.n_examples == 0
        assert sub.features == ds.features
        assert sub.labels.shape == sub.weights.shape == (0,)
        kinds = set()
        for feat, col in zip(sub.features, sub.columns):
            kinds.add(feat.ftype)
            if feat.ftype == FeatureType.CATEGORICAL_SET:
                assert col.indptr.tolist() == [0]
                assert col.term_ids.size == 0 and len(col) == 0
            else:
                assert len(col) == 0
        assert kinds == {FeatureType.NUMERICAL, FeatureType.CATEGORICAL,
                         FeatureType.CATEGORICAL_SET}

    @pytest.mark.parametrize("direct", [False, True], ids=["create", "direct"])
    def test_set_column_reads_back_row_by_row(self, direct):
        features = [Feature("text", FeatureType.CATEGORICAL_SET, make_vocab("abcd"))]
        sets = [(1, 2), (), None, (0, 3), (3,)]
        if direct:
            ds = sf.Dataset(features, [sets], np.zeros(5, dtype=np.int64), np.ones(5))
        else:
            ds = sf.Dataset.create(features, [sets], [0] * 5)
        column = ds.columns[0]
        assert isinstance(column, sf.SetColumnIndex)
        assert len(column) == 5
        assert list(column) == sets
        assert column[1] == () and column[2] is None
        assert all(type(t) is int for t in column[3])
        assert column[-1] == (3,) and column[-5] == (1, 2)
        for r in (5, -6):
            with pytest.raises(IndexError):
                column[r]
        assert ds.row(2) == (None,)
        for rows in ([3, 0], [2, 4, 0, 1]):
            sub = ds.subset(rows)
            assert isinstance(sub.columns[0], sf.SetColumnIndex)
            assert list(sub.columns[0]) == [sets[r] for r in rows]

    def test_existing_set_column_kept_as_is(self):
        features = [Feature("text", FeatureType.CATEGORICAL_SET, make_vocab("ab"))]
        column = sf.SetColumnIndex([(0,), None])
        ds = sf.Dataset.create(features, [column], [0, 1])
        assert ds.columns[0] is column

    def test_row_materialisation(self):
        from helpers import set_dataset

        ds = set_dataset([(0,), (1,), None], [1, 0, 1], vocab_size=2)
        assert ds.row(2) == (None,)
        assert len(ds.rows()) == 3
