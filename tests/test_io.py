import math
import os
import signal
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_array_equal

from mrnet._rng import derive_seed
from mrnet.io import (
    COLUMN_ORDERS,
    CheckpointError,
    ConfigError,
    TripleDataset,
    TripleParseError,
    _parse_lines,
    load_checkpoint,
    load_triple_split,
    load_triples,
    read_config,
    sample_negatives,
    save_checkpoint,
)
from mrnet.models import ModelParams, NetworkShape, ScoreModel, Triple
from mrnet._edges import EdgeIndexError, decode, distinct_uniform


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_load_triples_default_order(tmp_path):
    path = write(tmp_path, "t.tsv", "a\tr1\tb\n")
    ds = load_triples(path)
    assert ds.n_entities == 2
    assert ds.n_relations == 1
    assert ds.entity_vocab == {"a": 0, "b": 1}
    assert ds.relation_vocab == {"r1": 0}
    assert ds.positives.dtype == np.int64
    assert ds.positives.tolist() == [[0, 1, 0]]  # (head, tail, relation)
    assert ds.duplicates == 0


def test_load_triples_head_tail_relation_order(tmp_path):
    # same line, but the middle column is the tail entity
    path = write(tmp_path, "t.tsv", "a\tr1\tb\n")
    ds = load_triples(path, COLUMN_ORDERS["htr"])
    assert ds.entity_vocab == {"a": 0, "r1": 1}
    assert ds.relation_vocab == {"b": 0}
    assert ds.positives.tolist() == [[0, 1, 0]]


def test_load_triples_vocab_first_appearance_order(tmp_path):
    path = write(tmp_path, "t.tsv",
                 "cat\tis_a\tanimal\nanimal\tpart_of\tworld\ndog\tis_a\tcat\n")
    ds = load_triples(path)
    assert list(ds.entity_vocab) == ["cat", "animal", "world", "dog"]
    assert list(ds.relation_vocab) == ["is_a", "part_of"]
    ds2 = load_triples(path)
    assert ds2.entity_vocab == ds.entity_vocab
    assert_array_equal(ds2.positives, ds.positives)


def test_load_triples_duplicates_counted(tmp_path):
    path = write(tmp_path, "t.tsv", "a\tr\tb\na\tr\tb\nb\tr\ta\n")
    ds = load_triples(path)
    assert len(ds.positives) == 2
    assert ds.duplicates == 1


def test_load_triples_blank_lines_skipped(tmp_path):
    path = write(tmp_path, "t.tsv", "a\tr\tb\n\n  \nb\tr\tc\n")
    ds = load_triples(path)
    assert len(ds.positives) == 2
    # CRLF line ends, a blank CRLF line and a duplicate
    path = write(tmp_path, "crlf.tsv", "a\tr\tb\r\n\r\nb\tr\tc\na\tr\tb\r\n")
    ds = load_triples(path)
    assert ds.entity_vocab == {"a": 0, "b": 1, "c": 2}
    assert ds.positives.tolist() == [[0, 1, 0], [1, 2, 0]]
    assert ds.duplicates == 1


def test_load_triples_malformed_line(tmp_path):
    path = write(tmp_path, "t.tsv", "a\tr\tb\nbad line\n")
    with pytest.raises(TripleParseError, match="line 2"):
        load_triples(path)
    path2 = write(tmp_path, "t2.tsv", "a\tr\tb\tc\n")
    with pytest.raises(TripleParseError, match="expected 3"):
        load_triples(path2)
    # blank and CRLF lines count; the first of two bad lines is reported
    path3 = write(tmp_path, "t3.tsv", "a\tr\tb\r\n\r\n \t \nb\tr\ta\n"
                  "only\ttwo\nx\ty\tz\tw\n")
    with pytest.raises(TripleParseError,
                       match="line 5: expected 3 tab-separated fields, got 2"):
        load_triples(path3)


def test_non_utf8_triples_name_file_and_line(tmp_path):
    # "\r\n" and a lone "\r" still end lines before the bad byte
    path = tmp_path / "t.tsv"
    path.write_bytes(b"a\tr\tb\r\n\rb\tr\tc\nc\tr\t\xffd\n")
    with pytest.raises(TripleParseError,
                       match=r"t\.tsv: line 4: not UTF-8 text"):
        load_triples(path)
    # in a split, the message names the file that holds the byte
    (tmp_path / "bad.tsv").write_bytes(b"\xfe\tr\tb\n")
    with pytest.raises(TripleParseError,
                       match=r"bad\.tsv: line 1: not UTF-8 text"):
        load_triple_split([write(tmp_path, "ok.tsv", "a\tr\tb\n"),
                           tmp_path / "bad.tsv"])


def test_load_triples_empty_file(tmp_path):
    path = write(tmp_path, "t.tsv", "\n\n")
    with pytest.raises(ValueError, match="no triples"):
        load_triples(path)


def test_load_triples_bad_order():
    with pytest.raises(ValueError):
        load_triples("whatever", ("head", "head", "tail"))


def test_load_triple_split_shares_vocab(tmp_path):
    train = write(tmp_path, "train.tsv", "a\tr\tb\nb\tr\tc\n")
    test = write(tmp_path, "test.tsv", "c\tr\ta\nd\tr2\ta\n")
    tr, te = load_triple_split([train, test])
    assert tr.entity_vocab is te.entity_vocab
    assert list(te.entity_vocab) == ["a", "b", "c", "d"]
    assert list(te.relation_vocab) == ["r", "r2"]
    # test triples use the shared indices
    assert te.positives[0, :2].tolist() == [2, 0]


def dataset_for_negatives():
    vocab_e = {chr(97 + i): i for i in range(5)}
    vocab_r = {"r0": 0, "r1": 1}
    positives = np.array([[0, 1, 0], [1, 2, 1], [3, 4, 0]])
    from mrnet.io import TripleDataset
    return TripleDataset(vocab_e, vocab_r, positives)


def test_sample_negatives_contract():
    ds = dataset_for_negatives()
    shape = NetworkShape(5, 2)
    negs = sample_negatives(ds, 2.0, shape, seed=3)
    assert len(negs) == 6  # ceil(2.0 * 3)
    assert negs.dtype == np.int64 and negs.shape == (6, 3)
    pos = set(map(tuple, ds.positives.tolist()))
    drawn = list(map(tuple, negs.tolist()))
    assert len(set(drawn)) == len(drawn)
    assert not pos.intersection(drawn)
    again = sample_negatives(ds, 2.0, shape, seed=3)
    assert_array_equal(negs, again)
    assert not np.array_equal(sample_negatives(ds, 2.0, shape, seed=4), negs)
    assert sample_negatives(ds, 0.0, shape, seed=3).shape == (0, 3)


def test_sample_negatives_fractional_ratio_rounds_up():
    ds = dataset_for_negatives()
    negs = sample_negatives(ds, 0.5, NetworkShape(5, 2), seed=0)
    assert len(negs) == 2  # ceil(1.5)


def test_sample_negatives_exhaustion():
    from mrnet.io import TripleDataset
    ds = TripleDataset({"a": 0}, {"r": 0}, np.array([[0, 0, 0]]))
    with pytest.raises(ValueError, match="non-positive"):
        sample_negatives(ds, 1.0, NetworkShape(1, 1), seed=0)
    with pytest.raises(ValueError):
        sample_negatives(ds, -0.5, NetworkShape(1, 1), seed=0)


def old_sample_negatives(positives, ratio, shape, seed):
    """The draw loop ``sample_negatives`` used before it called
    ``distinct_uniform``, kept as the oracle."""
    count = math.ceil(ratio * len(positives))
    n, k = shape.n_entities, shape.n_relations
    total = shape.n_edges
    pos = np.unique(np.asarray([(h * n + t) * k + r for h, t, r in positives],
                               dtype=np.int64))
    rng = np.random.default_rng(derive_seed(seed, 5))
    if total <= (1 << 22):
        pool = np.setdiff1d(np.arange(total, dtype=np.int64), pos,
                            assume_unique=True)
        chosen = np.sort(rng.permutation(pool)[:count])
    else:
        chosen = old_rejection_draws(rng, total, count, pos)
    return np.column_stack(decode(chosen, n, k))


def old_rejection_draws(rng, total, count, pos):
    """The old rejection loop: every round re-runs ``np.unique`` over all
    draws so far and ``np.isin`` over all of ``pos``."""
    draws = np.empty(0, dtype=np.int64)
    while True:
        need = count + 4 * (count * count // total + 1) + 64
        draws = np.concatenate([draws, rng.integers(0, total, size=need)])
        _, first = np.unique(draws, return_index=True)
        first.sort()
        distinct = draws[first]
        distinct = distinct[~np.isin(distinct, pos)]
        if len(distinct) >= count:
            return np.sort(distinct[:count])


@pytest.mark.parametrize("n, k, n_pos, ratio", [
    (30, 4, 500, 1.5),      # 3,600 slots: a permutation of the free pool
    (40, 3, 4000, 0.2),     # every free slot of a dense universe
    (2100, 1, 3000, 2.0),   # 4.41M slots, above 2^22: rejection draws
    (1500, 3, 50, 40.0),    # 6.75M slots, more negatives than positives
])
def test_sample_negatives_draws_match_old_loop(n, k, n_pos, ratio):
    from mrnet.io import TripleDataset
    shape = NetworkShape(n, k)
    rng = np.random.default_rng(n_pos)
    lin = rng.choice(shape.n_edges, size=n_pos, replace=False)
    positives = np.column_stack(decode(lin, n, k))
    ds = TripleDataset({}, {}, positives)
    for seed in (0, 7):
        got = sample_negatives(ds, ratio, shape, seed)
        want = old_sample_negatives(positives.tolist(), ratio, shape, seed)
        assert got.dtype == np.int64
        assert_array_equal(got, want)


def few_free_slots(total, n_free, seed):
    """A sorted ``avoid`` array leaving ``n_free`` random slots free."""
    free = np.random.default_rng(seed).choice(total, size=n_free,
                                              replace=False)
    avoid = np.ones(total, dtype=bool)
    avoid[free] = False
    return np.flatnonzero(avoid), np.sort(free)


def test_rejection_draws_with_few_free_slots():
    # N = 2049, K = 1: 4,198,401 slots, above 2^22, so rejection draws.
    # With 60 free slots the old loop took about 50 s, as each round
    # re-ran np.unique and np.isin over everything seen so far.
    total = 2049 * 2049

    def timed_out(signum, frame):
        raise TimeoutError("distinct_uniform took over 30 s")

    old_handler = signal.signal(signal.SIGALRM, timed_out)
    signal.alarm(30)
    try:
        # 20 of 100 free slots takes thousands of rounds, in which some
        # free slot is almost surely drawn again
        for n_free, count in ((60, 2), (100, 20)):
            avoid, free = few_free_slots(total, n_free, seed=1)
            for seed in (0, 1):
                got = distinct_uniform(np.random.default_rng(seed), total,
                                        count, avoid=avoid)
                assert len(np.unique(got)) == count
                assert np.isin(got, free).all()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old_handler)
    # with 4,000 free slots the old loop finishes in under a second
    avoid, _ = few_free_slots(total, 4000, seed=2)
    for seed in (0, 1):
        got = distinct_uniform(np.random.default_rng(seed), total, 2,
                                avoid=avoid)
        want = old_rejection_draws(np.random.default_rng(seed), total, 2,
                                   avoid)
        assert got.dtype == np.int64
        assert_array_equal(got, want)


@pytest.mark.parametrize("positive", [(4, 0, 0), (1, 4, 0), (0, 0, 1),
                                      (-1, 0, 0)])
def test_sample_negatives_range_checks_positives(positive):
    # in 3 x 3 x 1 slots, (4, 0, 0) keys to 12, past every slot, and
    # (1, 4, 0) to 7, the key of slot (2, 1, 0): both used to be taken
    # for positives without an error
    ds = TripleDataset({}, {}, np.array([[0, 1, 0], positive]))
    with pytest.raises(EdgeIndexError, match="index out of range"):
        sample_negatives(ds, 1.0, NetworkShape(3, 1), seed=0)


def test_distinct_uniform_draws_every_allowed_value_without_a_draw():
    avoid = np.array([0, 3, 4, 9], dtype=np.int64)
    for total in (10, 1 << 23):
        rng = np.random.default_rng(0)
        got = distinct_uniform(rng, total, total)
        assert got.dtype == np.int64
        assert_array_equal(got, np.arange(total))
        got = distinct_uniform(rng, total, total - len(avoid), avoid=avoid)
        assert got.dtype == np.int64
        assert_array_equal(got, np.delete(np.arange(total), avoid))


class _NamedAlready(dict):
    """A vocabulary that holds 2^32 names before its own entries."""

    def __len__(self):
        return super().__len__() + 2 ** 32


def test_parser_refuses_a_vocabulary_past_int64_keys(tmp_path):
    # N^2 K of (2^32 + 3)^2 x 1 slots overflows int64: no edge key, so
    # no negatives, filter or observation set, can index the network
    path = write(tmp_path, "t.tsv", "a\tr\tb\nb\tr\tc\na\tr\tb\n")
    with pytest.raises(TripleParseError,
                       match=r"t\.tsv: .* overflow int64 edge keys"):
        _parse_lines(path, COLUMN_ORDERS["hrt"], _NamedAlready(), {})
    triples, dups = _parse_lines(path, COLUMN_ORDERS["hrt"], {}, {})
    assert triples.tolist() == [[0, 1, 0], [1, 2, 0]] and dups == 1


def test_distinct_uniform_rejects_negative_count():
    rng = np.random.default_rng(0)
    for total in (72, 1 << 23):
        with pytest.raises(ValueError, match="count must be >= 0"):
            distinct_uniform(rng, total, -5)
    assert distinct_uniform(rng, 72, 0).shape == (0,)


@st.composite
def negative_cases(draw):
    # small universes take the permutation branch, N >= 2049 with K = 1
    # the rejection branch
    n = draw(st.one_of(st.integers(1, 6), st.integers(2049, 2100)))
    k = 1 if n > 6 else draw(st.integers(1, 3))
    shape = NetworkShape(n, k)
    lin = draw(st.sets(st.integers(0, shape.n_edges - 1), min_size=1,
                       max_size=min(shape.n_edges, 40)))
    positives = np.column_stack(decode(np.array(sorted(lin)), n, k))
    ratio = draw(st.floats(0.0, 3.0))
    return shape, positives, ratio, draw(st.integers(0, 2 ** 32))


@settings(max_examples=60, deadline=None)
@given(negative_cases())
def test_negatives_are_distinct_and_never_positive(case):
    from mrnet.io import TripleDataset
    shape, positives, ratio, seed = case
    count = math.ceil(ratio * len(positives))
    free = shape.n_edges - len(positives)
    ds = TripleDataset({}, {}, positives)
    if count > free:
        with pytest.raises(ValueError, match="non-positive"):
            sample_negatives(ds, ratio, shape, seed)
        return
    negs = sample_negatives(ds, ratio, shape, seed)
    assert negs.shape == (count, 3)
    drawn = list(map(tuple, negs.tolist()))
    assert len(set(drawn)) == count
    assert not set(drawn) & set(map(tuple, positives.tolist()))
    assert negs.min(initial=0) >= 0
    assert (negs[:, :2] < shape.n_entities).all()
    assert (negs[:, 2] < shape.n_relations).all()


@pytest.mark.parametrize("ratio", [math.inf, math.nan, -1.0])
def test_sample_negatives_rejects_bad_ratio(ratio):
    with pytest.raises(ValueError, match="ratio must be finite"):
        sample_negatives(dataset_for_negatives(), ratio, NetworkShape(5, 2),
                         seed=0)


def old_parse_lines(path, order, evocab, rvocab):
    """The per-line parser ``_parse_lines`` replaced, kept as the oracle."""
    triples = []
    seen = set()
    duplicates = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n").rstrip("\r")
            if not line.strip():
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise TripleParseError(
                    f"{path}: line {lineno}: expected 3 tab-separated "
                    f"fields, got {len(fields)}")
            named = dict(zip(order, fields))
            h = evocab.setdefault(named["head"], len(evocab))
            t = evocab.setdefault(named["tail"], len(evocab))
            r = rvocab.setdefault(named["relation"], len(rvocab))
            key = (h, t, r)
            if key in seen:
                duplicates += 1
                continue
            seen.add(key)
            triples.append(Triple(h, t, r))
    return triples, duplicates


# a few names, so duplicates and names shared across files are common;
# "\x0b" and "\u2028" are whitespace to str.strip but no line break to
# the file reader
_NAME = st.sampled_from(["a", "b", "c d", "é", " ", "\x0b", "x\u2028y"])
_BLANK = st.sampled_from(["", " ", "\t", " \t ", "\x0c", "\u2028"])
_END = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def triple_file_text(draw):
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["triple"] * 6 + ["blank", "bad"]))
        if kind == "triple":
            body = "\t".join(draw(st.lists(_NAME, min_size=3, max_size=3)))
        elif kind == "blank":
            body = draw(_BLANK)
        else:
            body = "\t".join(draw(st.lists(
                _NAME, min_size=1, max_size=5).filter(lambda f: len(f) != 3)))
        lines.append(body + draw(_END))
    text = "".join(lines)
    if text and draw(st.booleans()):
        text = text[:-1]  # no line break after the last line
    return text


@settings(max_examples=200, deadline=None)
@given(st.lists(triple_file_text(), min_size=1, max_size=3),
       st.sampled_from(sorted(COLUMN_ORDERS)))
def test_parser_matches_per_line_oracle(texts, order):
    columns = COLUMN_ORDERS[order]
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, text in enumerate(texts):
            paths.append(os.path.join(tmp, f"split{i}.tsv"))
            with open(paths[-1], "wb") as fh:
                fh.write(text.encode("utf-8"))
        evocab, rvocab, want = {}, {}, []
        try:
            for path in paths:
                triples, dups = old_parse_lines(path, columns, evocab, rvocab)
                if not triples:
                    raise ValueError(f"{path}: no triples found")
                want.append((triples, dups))
        except ValueError as exc:
            with pytest.raises(type(exc)) as got:
                load_triple_split(paths, columns)
            assert str(got.value) == str(exc)
            return
        got = load_triple_split(paths, columns)
    assert list(got[0].entity_vocab.items()) == list(evocab.items())
    assert list(got[0].relation_vocab.items()) == list(rvocab.items())
    for ds, (triples, dups) in zip(got, want):
        assert ds.positives.dtype == np.int64
        assert ds.positives.tolist() == [[t.head, t.tail, t.rel]
                                         for t in triples]
        assert ds.duplicates == dups


@pytest.mark.parametrize("kind", ["distance", "bilinear", "combined"])
def test_checkpoint_round_trip_bit_exact(tmp_path, kind):
    rng = np.random.default_rng(1)
    model = ScoreModel(kind, 3)
    params = ModelParams(rng.normal(size=(4, 3)) * 1e-7,
                         rng.normal(size=(2, model.relation_dim)) * 1e5,
                         radius=123.456)
    path = tmp_path / "ck.txt"
    save_checkpoint(params, model, path)
    loaded, loaded_model = load_checkpoint(path)
    assert loaded_model == model
    assert loaded.radius == params.radius
    assert_array_equal(loaded.entities, params.entities)
    assert_array_equal(loaded.relations, params.relations)


def test_checkpoint_save_twice_identical_bytes(tmp_path):
    model = ScoreModel("bilinear", 2)
    params = ModelParams(np.array([[0.1, -0.2], [1 / 3, 2 / 7]]),
                         np.array([[np.pi, np.e]]), 2.0)
    a, b = tmp_path / "a", tmp_path / "b"
    save_checkpoint(params, model, a)
    save_checkpoint(params, model, b)
    assert a.read_bytes() == b.read_bytes()


def test_checkpoint_hand_written(tmp_path):
    text = ("MRNCKPT 1\n"
            "bilinear 2 1 1 3.5\n"
            "0.25 -1.5\n"
            "2 4\n")
    path = tmp_path / "ck.txt"
    path.write_text(text)
    params, model = load_checkpoint(path)
    assert model == ScoreModel("bilinear", 2)
    assert params.radius == 3.5
    assert_array_equal(params.entities, [[0.25, -1.5]])
    assert_array_equal(params.relations, [[2.0, 4.0]])


def checkpoint_text():
    return ("MRNCKPT 1\n"
            "distance 2 2 1 5\n"
            "0.1 0.2\n"
            "0.3 0.4\n"
            "1 2 3\n")


def test_checkpoint_format_errors(tmp_path):
    cases = [
        ("bad magic", checkpoint_text().replace("MRNCKPT 1", "NOPE 1"),
         "line 1"),
        ("bad version", checkpoint_text().replace("MRNCKPT 1", "MRNCKPT 9"),
         "line 1"),
        ("bad kind", checkpoint_text().replace("distance", "euclid"),
         "line 2"),
        ("no entities", checkpoint_text().replace("2 2 1 5", "2 0 1 5"),
         r"line 2: entities must be an integer >= 1, got 0$"),
        ("no relations", checkpoint_text().replace("2 2 1 5", "2 2 0 5"),
         r"line 2: relations must be an integer >= 1, got 0$"),
        ("NaN radius", checkpoint_text().replace("2 2 1 5", "2 2 1 nan"),
         r"line 2: radius must be finite and > 0, got nan$"),
        ("truncated", "".join(checkpoint_text().splitlines(True)[:4]),
         "relation row 0"),
        ("short row", checkpoint_text().replace("0.3 0.4", "0.3"), "line 4"),
        ("non-finite", checkpoint_text().replace("0.3 0.4", "0.3 nan"),
         "line 4"),
        ("not a number", checkpoint_text().replace("0.3 0.4", "0.3 x"),
         "line 4"),
        ("trailing", checkpoint_text() + "9 9 9\n", "trailing"),
        # written as the byte 0xff, which is not UTF-8
        ("not UTF-8", checkpoint_text().replace("0.3 0.4", "0.3 0.\udcff"),
         "line 4: not UTF-8 text"),
    ]
    for name, text, needle in cases:
        path = tmp_path / "bad.txt"
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
        with pytest.raises(CheckpointError, match=needle):
            load_checkpoint(path)


# finite float64 values, with the extremes a text round trip can lose:
# subnormals, -0.0 and +-1e308
FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([5e-324, -5e-324, 1e-310, -0.0, 0.0, 1e308, -1e308,
                     np.finfo(float).max]))


@st.composite
def checkpoint_cases(draw):
    model = ScoreModel(draw(st.sampled_from(["distance", "bilinear",
                                             "combined"])),
                       draw(st.integers(1, 3)))

    def block(rows, cols):
        values = draw(st.lists(FINITE, min_size=rows * cols,
                               max_size=rows * cols))
        return np.array(values, dtype=float).reshape(rows, cols)

    entities = block(draw(st.integers(1, 4)), model.latent_dim)
    relations = block(draw(st.integers(1, 3)), model.relation_dim)
    radius = draw(st.floats(min_value=0.0, exclude_min=True,
                            allow_infinity=False))
    return model, ModelParams(entities, relations, radius)


@settings(max_examples=200, deadline=None)
@given(checkpoint_cases())
def test_checkpoint_round_trip_property(case):
    model, params = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ck.txt")
        save_checkpoint(params, model, path)
        loaded, loaded_model = load_checkpoint(path)
    assert loaded_model == model
    assert loaded.radius == params.radius
    # tobytes tells -0.0 from 0.0, which == does not
    assert loaded.entities.tobytes() == params.entities.tobytes()
    assert loaded.relations.tobytes() == params.relations.tobytes()


# any byte, with the characters of the format drawn more often
BYTES = st.one_of(st.integers(0, 255), st.sampled_from(b"0123456789 \n.-+eE"))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["distance", "bilinear", "combined"]),
       st.lists(st.tuples(st.sampled_from(["replace", "insert", "delete"]),
                          st.integers(0, 10 ** 6), BYTES),
                min_size=1, max_size=4))
def test_checkpoint_byte_mutations_load_or_raise(kind, mutations):
    # before, about 40% of such mutations escaped as UnicodeDecodeError
    rng = np.random.default_rng(5)
    model = ScoreModel(kind, 2)
    params = ModelParams(rng.normal(size=(3, 2)),
                         rng.normal(size=(2, model.relation_dim)), 3.5)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ck.txt")
        save_checkpoint(params, model, path)
        with open(path, "rb") as fh:
            data = bytearray(fh.read())
        for op, pos, byte in mutations:
            pos %= len(data) + (op == "insert")
            if op == "replace":
                data[pos] = byte
            elif op == "insert":
                data.insert(pos, byte)
            else:
                del data[pos]
        with open(path, "wb") as fh:
            fh.write(bytes(data))
        try:
            params, model = load_checkpoint(path)
        except CheckpointError as exc:
            assert str(exc).startswith(path)
            return
    params.check_model(model)
    params.check_finite()
    assert math.isfinite(params.radius) and params.radius > 0


def test_read_config(tmp_path):
    path = write(tmp_path, "run.ini",
                 "[train]\nepochs = 5\nkind = bilinear\n")
    sec = read_config(path, "train")
    assert sec["epochs"] == "5"
    with pytest.raises(ConfigError, match="missing"):
        read_config(path, "simulate")
    with pytest.raises(ConfigError):
        read_config(tmp_path / "absent.ini", "train")
    bad = write(tmp_path, "bad.ini", "epochs = 5\n")  # key before section
    with pytest.raises(ConfigError):
        read_config(bad, "train")
    latin1 = tmp_path / "latin1.ini"
    latin1.write_bytes(b"[train]\r\nkind = caf\xe9\r\n")
    with pytest.raises(ConfigError, match=r"latin1\.ini: line 2: not UTF-8"):
        read_config(latin1, "train")
