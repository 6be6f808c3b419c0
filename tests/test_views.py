"""Text view, mention graph collapse, and adjacency normalization."""

import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, strategies as st

from geograph import views
from geograph.data import MentionPairs
from geograph.errors import ArgumentError, NumericError, ShapeError
from geograph.sparse import SparseMatrix
from geograph.views import (
    Vocabulary,
    _row_sums,
    build_mention_graph,
    build_text_view,
    extract_mention_pairs,
    normalize_adjacency,
)
import oracles
from oracles import dense_normalized_adjacency
from conftest import random_symmetric_adjacency


# --- tokenization -----------------------------------------------------------


def _fitted_terms(texts: list[str]) -> tuple[str, ...]:
    return build_text_view(texts, min_df=1, max_df_ratio=1.0)[1].terms


def test_words_are_lowercased_whitespace_chunks():
    assert _fitted_terms(["Hello WORLD again hello"]) == ("again", "hello", "world")


def test_leading_at_mentions_are_handles_not_words():
    text = "ping @Alice and (@Bob) but not en@ron"
    assert extract_mention_pairs(["u"], [text]) == [("u", "alice"), ("u", "bob")]
    assert _fitted_terms([text]) == ("(@bob)", "and", "but", "en@ron", "not", "ping")


def test_mention_punctuation_boundary():
    pairs = extract_mention_pairs(["u"], ["@carol! talked to @dave, right?"])
    assert pairs == [("u", "carol"), ("u", "dave")]


# --- vocabulary and tf-idf --------------------------------------------------


def test_vocabulary_df_window():
    texts = ["common rare1 a", "common rare2 a", "common a", "common a"]
    vocab = build_text_view(texts, min_df=2, max_df_ratio=0.5)[1]
    # "common" and "a" appear in all 4 docs (df > 0.5*4); rare terms only once
    assert vocab.terms == ()
    vocab2 = build_text_view(texts, min_df=1, max_df_ratio=1.0)[1]
    assert set(vocab2.terms) == {"common", "a", "rare1", "rare2"}
    assert list(vocab2.terms) == sorted(vocab2.terms)


@pytest.mark.parametrize("texts, options, message", [
    ([], {}, "empty corpus"),
    (["a b"], {"max_df_ratio": 0.0}, r"max_df_ratio must be in \(0, 1\], got 0.0"),
])
def test_text_view_rejects_bad_fits(texts, options, message):
    with pytest.raises(ArgumentError, match=message):
        build_text_view(texts, **options)


def test_vocabulary_idf_formula():
    vocab = Vocabulary(terms=("x", "y"), df=(1, 3), n_docs=4)
    idf = vocab.idf()
    assert abs(idf[0] - (math.log(5 / 2) + 1)) < 1e-12
    assert abs(idf[1] - (math.log(5 / 4) + 1)) < 1e-12


def test_vocabulary_roundtrip():
    vocab = Vocabulary(terms=("x", "y"), df=(1, 3), n_docs=4)
    assert Vocabulary.from_dict(vocab.to_dict()) == vocab


def test_text_view_rows_unit_norm_or_zero():
    texts = ["apple banana", "banana cherry", "unseen_token_only", "apple cherry"]
    x, vocab = build_text_view(texts, min_df=2, max_df_ratio=1.0)
    dense = x.to_dense()
    norms = np.sqrt((dense ** 2).sum(axis=1))
    assert np.allclose(norms[[0, 1, 3]], 1.0, atol=1e-12)
    assert norms[2] == 0.0  # no in-vocabulary terms


def test_text_view_term_frequency_is_binary():
    texts = ["echo echo echo foo", "echo foo", "foo bar", "bar echo"]
    x, vocab = build_text_view(texts, min_df=1, max_df_ratio=1.0)
    dense = x.to_dense()
    i = vocab.index()
    # repeating a term must not change its weight relative to a single use
    assert dense[0, i["echo"]] == pytest.approx(dense[1, i["echo"]])


def test_text_view_weights_are_normalized_idf():
    texts = ["a b", "a c", "b c", "a"]
    x, vocab = build_text_view(texts, min_df=1, max_df_ratio=1.0)
    idf = vocab.idf()
    i = vocab.index()
    row = x.to_dense()[0]
    expected = np.zeros(len(vocab))
    expected[i["a"]] = idf[i["a"]]
    expected[i["b"]] = idf[i["b"]]
    expected /= np.linalg.norm(expected)
    np.testing.assert_allclose(row, expected, atol=1e-12)


def test_text_view_with_prefitted_vocab():
    fit_texts = ["alpha beta", "alpha gamma", "beta gamma"]
    _, vocab = build_text_view(fit_texts, min_df=1, max_df_ratio=1.0)
    x, _ = build_text_view(["alpha newterm"], vocab=vocab)
    assert x.shape == (1, len(vocab))
    assert x.nnz == 1  # "newterm" is outside the fixed vocabulary
    with pytest.raises(ArgumentError):
        build_text_view(["a"], vocab=vocab, min_df=3)


def test_mentions_do_not_enter_vocabulary():
    texts = ["@alice hello", "@alice hello", "@alice there"]
    vocab = build_text_view(texts, min_df=1, max_df_ratio=1.0)[1]
    assert "@alice" not in vocab.terms
    assert "alice" not in vocab.terms  # the handle is graph signal, not text


# --- mention graph ----------------------------------------------------------


def _dense(user_ids, pairs, cap=1000):
    return build_mention_graph(user_ids, MentionPairs.from_pairs(pairs), cap).to_dense()


def test_direct_mention_creates_edge_either_direction():
    users = ["u1", "u2", "u3"]
    a = _dense(users, [("u1", "u2")])
    assert a[0, 1] == 1.0 and a[1, 0] == 1.0
    b = _dense(users, [("u2", "u1")])
    np.testing.assert_array_equal(a, b)


def test_comention_creates_edge():
    users = ["u1", "u2", "u3"]
    a = _dense(users, [("u1", "celebrity"), ("u2", "celebrity")])
    assert a[0, 1] == 1.0
    assert a[0, 2] == 0.0 and a[1, 2] == 0.0


def test_comention_cap_skips_hubs_but_keeps_direct_edges():
    users = [f"u{i}" for i in range(5)]
    pairs = [(u, "hub") for u in users] + [("u0", "u1")]
    a = _dense(users, pairs, cap=3)  # 5 mentioners > cap: no co-mention clique
    assert a.sum() == 2.0  # only the direct u0-u1 edge
    # a hub that IS a user still yields direct edges from every mentioner
    b = _dense(users, [(u, "u4") for u in users[:4]], cap=3)
    assert b[:4, 4].sum() == 4.0
    assert b[:4, :4].sum() == 0.0


def test_graph_is_symmetric_zero_diagonal_binary():
    users = [f"u{i}" for i in range(6)]
    pairs = [("u0", "u1"), ("u1", "u0"), ("u2", "shared"), ("u3", "shared"),
             ("u0", "u0"), ("u4", "shared"), ("u2", "u3")]
    a = _dense(users, pairs)
    np.testing.assert_array_equal(a, a.T)
    assert np.all(np.diag(a) == 0.0)
    assert set(np.unique(a)) <= {0.0, 1.0}


def test_unknown_mentioner_ignored_and_case_insensitive():
    users = ["Alice", "bob"]
    a = _dense(users, [("stranger", "alice"), ("ALICE", "BOB")])
    assert a[0, 1] == 1.0
    assert a.sum() == 2.0


def test_duplicate_user_ids_rejected():
    with pytest.raises(ArgumentError):
        build_mention_graph(["u", "U"], MentionPairs.from_pairs([]))


def _assert_same_csr(got: SparseMatrix, want) -> None:
    got = got.csr
    assert got.shape == want.shape
    # A copy of the arrays carries no cached flag, so the format is checked.
    fresh = sp.csr_matrix((got.data, got.indices, got.indptr), shape=got.shape)
    assert fresh.has_canonical_format and got.dtype == np.float64
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)


def _mixed_case(draw, name: str) -> str:
    flips = draw(st.lists(st.booleans(), min_size=len(name), max_size=len(name)))
    return "".join(c.upper() if f else c for c, f in zip(name, flips))


@st.composite
def mention_corpora(draw):
    """User ids of mixed case, and (mentioner, handle) pairs that mix known
    and unknown mentioners, self-mentions, repeats and handles naming users."""
    n = draw(st.integers(0, 9))
    ids = [_mixed_case(draw, f"user{i}") for i in range(n)]
    people = ids + ["ghost", "Stranger"]
    handles = ids + ["celeb", "news", "Team", "ghost"]
    drawn = draw(st.lists(st.tuples(st.sampled_from(people), st.sampled_from(handles),
                                    st.booleans(), st.booleans()), max_size=40))
    pairs = [(m.swapcase() if flip_m else m, h.swapcase() if flip_h else h)
             for m, h, flip_m, flip_h in drawn]
    return ids, pairs


@given(mention_corpora())
def test_mention_graph_matches_set_oracle(corpus):
    """Every cap from 0 to above the largest handle degree (9 users)."""
    ids, pairs = corpus
    record = MentionPairs.from_pairs(pairs)
    for cap in range(len(ids) + 2):
        _assert_same_csr(build_mention_graph(ids, record, cap),
                         oracles.mention_graph(ids, pairs, cap))


def test_large_mention_graph_is_canonical_and_matches_the_oracle():
    """Enough users and shared handles that scipy's B Bᵀ comes back with
    unsorted rows, and hubs on both sides of the cap."""
    rng = np.random.default_rng(5)
    ids = [f"User{i}" for i in range(400)]
    handles = [f"h{k}" for k in range(60)] + [u.upper() for u in ids[:100]]
    pairs = [(ids[i], handles[k]) for i, k in zip(rng.integers(0, 400, 3000),
                                                   rng.integers(0, len(handles), 3000))]
    got = build_mention_graph(ids, MentionPairs.from_pairs(pairs), 40)
    assert got.csr.indices.dtype == np.int32 and got.csr.indptr.dtype == np.int32
    _assert_same_csr(got, oracles.mention_graph(ids, pairs, 40))


def test_mention_graph_without_pairs():
    _assert_same_csr(build_mention_graph(["a", "B"], MentionPairs.from_pairs([]), 0),
                     oracles.mention_graph(["a", "B"], [], 0))
    assert build_mention_graph([], MentionPairs.from_pairs([("a", "b")])).shape == (0, 0)


# Rows of more than 8 terms take numpy's pairwise summation path.
_WORDS = ["Apple", "apple", "pear", "fig", "kiwi!", "@pear", "@Fig", "x@y", "lime", "LIME",
          *(f"w{i}" for i in range(14))]


@given(
    st.lists(st.lists(st.sampled_from(_WORDS), max_size=30).map(" ".join), min_size=1, max_size=12),
    st.lists(st.lists(st.sampled_from(_WORDS + ["unseen"]), max_size=6).map(" ".join), max_size=5),
    st.integers(0, 4),
    st.floats(0.05, 1.0),
)
def test_text_view_matches_two_pass_oracle(texts, unseen, min_df, max_df_ratio):
    """Both the fitted and a prefitted vocabulary; documents may be empty or
    hold only mentions and out-of-vocabulary words."""
    x, vocab = build_text_view(texts, min_df=min_df, max_df_ratio=max_df_ratio)
    terms, df, n_docs = oracles.vocabulary(texts, min_df, max_df_ratio)
    assert vocab == Vocabulary(terms=terms, df=df, n_docs=n_docs)
    _assert_same_csr(x, oracles.text_view(texts, terms, df, n_docs))
    y, same = build_text_view(unseen, vocab=vocab)
    assert same is vocab
    _assert_same_csr(y, oracles.text_view(unseen, terms, df, n_docs))


# Separators that str.split() splits on, and tokens that are mentions, repeat
# in other cases, or change length under lower() ("İ" lowers to two code
# points; a final "Σ" lowers by context).
_SEPARATORS = [" ", "  ", "\t", "\n", "\r\n", "\x0b", "\u3000", "\x85"]
_TOKENS = ["Apple", "APPLE", "apple", "@pear", "@", "@@", "@İ", "İ", "İstanbul", "istanbul",
           "ΟΔΟΣ", "οδος", "Straße", "x@y", *(f"w{i}" for i in range(6))]


@st.composite
def documents(draw):
    tokens = draw(st.lists(st.sampled_from(_TOKENS), max_size=25))
    seps = draw(st.lists(st.sampled_from(_SEPARATORS), min_size=len(tokens) + 1,
                         max_size=len(tokens) + 1))
    return seps[0] + "".join(t + s for t, s in zip(tokens, seps[1:]))


@given(st.lists(documents(), min_size=1, max_size=14), st.integers(0, 3), st.integers(1, 5))
def test_text_view_matches_two_pass_oracle_on_awkward_documents(texts, min_df, chunk):
    """Documents that are empty, hold only mentions, repeat tokens or mix
    whitespace, tokenized in chunks of 1 to 5 documents so that words and
    mentions are first seen in later chunks."""
    with mock.patch.object(views, "_CHUNK", chunk):
        x, vocab = build_text_view(texts, min_df=min_df, max_df_ratio=1.0)
        terms, df, n_docs = oracles.vocabulary(texts, min_df, 1.0)
        assert vocab == Vocabulary(terms=terms, df=df, n_docs=n_docs)
        _assert_same_csr(x, oracles.text_view(texts, terms, df, n_docs))
        y, _ = build_text_view(texts[::-1], vocab=vocab)
        _assert_same_csr(y, oracles.text_view(texts[::-1], terms, df, n_docs))


def test_word_pass_holds_mentions_one_chunk_at_a_time():
    """100,000 distinct mentions over 2,000 documents: the word pass keeps no
    mention past its chunk, so its peak stays far below the 9 MB or more that
    holding each one once would take."""
    texts = [" ".join(f"w{(i + k) % 40}" for k in range(20)) + " "
             + " ".join(f"@h{i}x{k}" for k in range(50)) for i in range(2000)]
    tracemalloc.start()
    try:
        words, _, _ = views._document_words(texts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sorted(words) == sorted(f"w{j}" for j in range(40))
    assert peak < 4e6, peak


def test_row_sums_match_per_row_np_sum():
    """Lengths 0 to 300 cross the pairwise sum's block edges at 8 and 128, and
    one row is longer than numpy's 8,192-element buffer."""
    rng = np.random.default_rng(0)
    lengths = np.concatenate([np.repeat(np.arange(301), 3), [9000, 8193]])
    rng.shuffle(lengths)
    bounds = np.concatenate([[0], np.cumsum(lengths)])
    values = rng.random(bounds[-1]) * rng.choice([1e-6, 1.0, 1e6], bounds[-1])
    want = [np.sum(values[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]
    np.testing.assert_array_equal(_row_sums(values, bounds), want)


def test_row_sums_cost_does_not_grow_with_the_number_of_lengths():
    """100,000 short rows and 2,000 rows of distinct lengths: grouping the rows
    by one sort stays well under one np.sum per row, where one scan of every
    row per distinct length would not."""
    rng = np.random.default_rng(1)
    lengths = np.concatenate([rng.integers(0, 21, 100_000), np.arange(21, 2021)])
    rng.shuffle(lengths)
    bounds = np.concatenate([[0], np.cumsum(lengths)])
    values = rng.random(bounds[-1])
    starts, ends = bounds[:-1].tolist(), bounds[1:].tolist()

    def fastest(run):
        times = []
        for _ in range(3):
            start = time.perf_counter()
            out = run()
            times.append(time.perf_counter() - start)
        return min(times), out

    grouped, sums = fastest(lambda: _row_sums(values, bounds))
    per_row, want = fastest(lambda: [np.sum(values[a:b]) for a, b in zip(starts, ends)])
    np.testing.assert_array_equal(sums, want)
    assert grouped * 4 < per_row, (grouped, per_row)


def test_text_view_with_long_rows_matches_the_oracle():
    """Rows of every length up to 300 in-vocabulary words, and one of 9,000."""
    texts = [" ".join(f"w{j}" for j in range(i, 2 * i)) for i in range(301)]
    texts.append(" ".join(f"w{j}" for j in range(9000)))
    x, vocab = build_text_view(texts, min_df=1, max_df_ratio=1.0)
    _assert_same_csr(x, oracles.text_view(texts, vocab.terms, vocab.df, vocab.n_docs))


def test_text_view_stores_no_zero_entries():
    """A vocabulary read from outside may hold a df above its n_docs; these
    give "a" an idf of exactly 0, which is not stored."""
    vocab = Vocabulary(terms=("a", "b"), df=(410105311, 1), n_docs=150869312)
    assert vocab.idf()[0] == 0.0
    x, _ = build_text_view(["a b", ""], vocab=vocab)
    np.testing.assert_array_equal(x.csr.indices, [1])
    np.testing.assert_array_equal(x.csr.indptr, [0, 1, 1])


_VIEW_HASH = """
import hashlib, sys
from geograph import data, views
bundle = data.generate_synthetic(data.SyntheticConfig(n_users=300, vocab_size=400), seed=3)
texts = [t + (" @Hub @user00001 Ünïcode İ" if i % 3 else "") for i, t in enumerate(bundle.texts)]
x, vocab = views.build_text_view(texts, min_df=1)
a = views.build_mention_graph(bundle.ids, bundle.mention_pairs, 10)
digest = hashlib.sha256(repr(vocab.to_dict()).encode())
for m in (x.csr, a.csr):
    for array in (m.indptr, m.indices, m.data):
        digest.update(array.dtype.str.encode() + array.tobytes())
print(digest.hexdigest())
"""


def test_views_do_not_depend_on_the_hash_seed():
    """Word ids follow set iteration order, which string hashing sets; the
    views must not."""
    src = str(Path(views.__file__).resolve().parents[1])
    digests = set()
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed}
        done = subprocess.run([sys.executable, "-c", _VIEW_HASH], capture_output=True,
                              text=True, env=env)
        assert done.returncode == 0, done.stderr
        digests.add(done.stdout)
    assert len(digests) == 1


def test_extract_mention_pairs():
    pairs = extract_mention_pairs(["a", "b"], ["hi @B @b", "nothing"])
    assert pairs == [("a", "b")]
    with pytest.raises(ShapeError):
        extract_mention_pairs(["a"], ["x", "y"])


# --- normalization ----------------------------------------------------------


def test_normalize_single_node_exact():
    a = SparseMatrix.from_dense(np.zeros((1, 1)))
    out = normalize_adjacency(a, 1.0).to_dense()
    assert out[0, 0] == 1.0


def test_normalize_two_node_exact():
    a = SparseMatrix.from_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))
    out = normalize_adjacency(a, 1.0).to_dense()
    np.testing.assert_array_equal(out, np.full((2, 2), 0.5))


def test_normalize_matches_dense_reference(rng):
    for _ in range(10):
        n = int(rng.integers(2, 20))
        a = random_symmetric_adjacency(rng, n, 0.4)
        lam = float(rng.choice([0.5, 1.0, 2.0]))
        got = normalize_adjacency(SparseMatrix.from_dense(a), lam).to_dense()
        want = dense_normalized_adjacency(a, lam)
        assert np.max(np.abs(got - want)) < 1e-12


def test_normalize_rejects_zero_degree_without_self_loops():
    a = SparseMatrix.from_dense(np.zeros((3, 3)))
    with pytest.raises(NumericError):
        normalize_adjacency(a, 0.0)
    out = normalize_adjacency(a, 1.0).to_dense()
    np.testing.assert_array_equal(out, np.eye(3))


def test_normalize_keeps_the_sparse_invariants():
    # 5e-324 / 2 rounds to zero, which is not stored; 1e-200 / sqrt(1e-400)
    # divides by an underflowed zero.
    tiny = np.array([[0.0, 5e-324], [5e-324, 0.0]])
    np.testing.assert_array_equal(normalize_adjacency(SparseMatrix.from_dense(tiny), 2.0).csr.indices,
                                  [0, 1])
    with np.errstate(divide="ignore"), pytest.raises(NumericError, match="non-finite"):
        normalize_adjacency(SparseMatrix.from_dense(np.array([[0.0, 1e-200], [1e-200, 0.0]])), 0.0)


def test_normalize_validation():
    with pytest.raises(ShapeError):
        normalize_adjacency(SparseMatrix.from_dense(np.zeros((2, 3))), 1.0)
    with pytest.raises(ArgumentError):
        normalize_adjacency(SparseMatrix.from_dense(np.eye(2)), -1.0)


@given(st.integers(1, 12), st.integers(0, 10_000))
def test_normalize_symmetric_and_spectrally_bounded(n, seed):
    """For symmetric input the output is symmetric and its spectral radius
    stays at most 1 (row/col scaling by sqrt degree)."""
    rng = np.random.default_rng(seed)
    a = random_symmetric_adjacency(rng, n, 0.5)
    out = normalize_adjacency(SparseMatrix.from_dense(a), 1.0).to_dense()
    np.testing.assert_allclose(out, out.T, atol=1e-15)
    eigs = np.linalg.eigvalsh(out)
    assert eigs.max() <= 1.0 + 1e-12
    assert eigs.min() >= -1.0 - 1e-12


@given(st.integers(1, 12), st.integers(0, 10_000), st.sampled_from([0.5, 1.0, 2.0]))
def test_normalized_symmetric_adjacency_is_its_own_transpose(n, seed, lam):
    rng = np.random.default_rng(seed)
    a = random_symmetric_adjacency(rng, n, 0.5)
    a_hat = normalize_adjacency(SparseMatrix.from_dense(a), lam)
    assert a_hat.transpose() is a_hat
    _assert_same_csr(a_hat, a_hat.csr.T.tocsr())
    # A directed graph's normalization is not symmetric and keeps a real transpose.
    directed = np.triu(a)
    out = normalize_adjacency(SparseMatrix.from_dense(directed), lam)
    if not np.array_equal(directed, directed.T):
        assert out.transpose() is not out
    np.testing.assert_array_equal(out.transpose().to_dense(), out.to_dense().T)


@given(st.integers(1, 12), st.integers(0, 10_000), st.sampled_from([0.5, 1.0, 2.0]),
       st.booleans())
def test_normalize_rounds_each_entry_once(n, seed, lam, directed):
    """Each stored value is m_ij / sqrt(d_i * d_j) to the bit, for symmetric
    and directed graphs; binary A and these lam keep the degrees exact."""
    a = random_symmetric_adjacency(np.random.default_rng(seed), n, 0.5)
    if directed:
        a = np.triu(a)
    m = a + lam * np.eye(n)
    d = m.sum(axis=1)
    rows, cols = np.nonzero(m)
    want = sp.csr_matrix((m[rows, cols] / np.sqrt(d[rows] * d[cols]), (rows, cols)), shape=(n, n))
    _assert_same_csr(normalize_adjacency(SparseMatrix.from_dense(a), lam), want)
