"""Feature construction: tf-idf text view and the collapsed @-mention graph.

Each user contributes one document (their concatenated posts). Tokens are
lowercased whitespace chunks; a token whose first character is ``@`` is a
mention and feeds the graph view instead of the text vocabulary. The text
view tokenizes each document once and keeps its distinct words as integer
ids, from which both the vocabulary's document frequencies and the tf-idf
rows are read.

The graph collapses the bipartite user/handle structure into a binary
undirected adjacency with sparse products. With B the binary user x handle
incidence matrix, two users are joined when they mention a common handle (an
entry of B Bᵀ over the handles under the co-mention cap) or when either
mentions the other's id (an entry of D or Dᵀ, where D maps each mentioner to
the user its handle names).
"""

from __future__ import annotations

import re
from array import array
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ArgumentError, DataFormatError, NumericError, ShapeError
from .sparse import SparseMatrix

_MENTION = re.compile(r"(?:^|[^\w@])@(\w+)")


def _words(lowered: str) -> list[str]:
    """The word tokens of a lowercased document: whitespace chunks that are not mentions."""
    return [t for t in lowered.split() if not t.startswith("@")]


def tokenize(text: str) -> tuple[list[str], list[str]]:
    """Split one document into (word tokens, mentioned handles), lowercased."""
    lowered = text.lower()
    return _words(lowered), _MENTION.findall(lowered)


@dataclass(frozen=True)
class Vocabulary:
    """Fixed term list with document frequencies from the fitting corpus."""

    terms: tuple[str, ...]
    df: tuple[int, ...]
    n_docs: int

    def __len__(self) -> int:
        return len(self.terms)

    def index(self) -> dict[str, int]:
        return {t: i for i, t in enumerate(self.terms)}

    def idf(self) -> np.ndarray:
        # Smoothed idf: ln((1 + N) / (1 + df)) + 1, never zero or negative.
        df = np.asarray(self.df, dtype=np.float64)
        return np.log((1.0 + self.n_docs) / (1.0 + df)) + 1.0

    def to_dict(self) -> dict:
        return {"terms": list(self.terms), "df": list(self.df), "n_docs": self.n_docs}

    @classmethod
    def from_dict(cls, d) -> "Vocabulary":
        """Rebuild a serialized vocabulary; it comes from outside, so it is checked."""
        if not (isinstance(d, dict) and isinstance(d.get("terms"), list)
                and isinstance(d.get("df"), list) and len(d["terms"]) == len(d["df"])
                and all(isinstance(t, str) for t in d["terms"])
                and all(type(c) is int for c in d["df"]) and type(d.get("n_docs")) is int):
            raise DataFormatError("vocabulary needs string 'terms', integer 'df' of the same "
                                  "length and an integer 'n_docs'")
        return cls(terms=tuple(d["terms"]), df=tuple(d["df"]), n_docs=d["n_docs"])


def _document_words(texts: list[str]) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Tokenize each document once into the ids of its distinct words.

    Returns the words in id order, the concatenated per-document id lists and
    their row offsets (document ``i`` holds ``ids[offsets[i]:offsets[i + 1]]``).
    Mentions are skipped; only the current document's tokens are held as
    strings.
    """
    word_ids: dict[str, int] = {}
    ids = array("q")
    offsets = array("q", [0])
    for text in texts:
        ids.extend(word_ids.setdefault(w, len(word_ids)) for w in set(_words(text.lower())))
        offsets.append(len(ids))
    return list(word_ids), np.frombuffer(ids, dtype=np.int64), np.frombuffer(offsets, dtype=np.int64)


def _fit_vocabulary(words: list[str], ids: np.ndarray, n_docs: int, min_df: int = 2,
                    max_df_ratio: float = 0.5) -> Vocabulary:
    if not n_docs:
        raise ArgumentError("empty corpus")
    if not 0.0 < max_df_ratio <= 1.0:
        raise ArgumentError(f"max_df_ratio must be in (0, 1], got {max_df_ratio}")
    counts = np.bincount(ids, minlength=len(words)).tolist()
    ceiling = max_df_ratio * n_docs
    kept = sorted((words[i], c) for i, c in enumerate(counts) if c >= min_df and c <= ceiling)
    return Vocabulary(terms=tuple(t for t, _ in kept), df=tuple(c for _, c in kept), n_docs=n_docs)


def build_vocabulary(texts: list[str], min_df: int = 2, max_df_ratio: float = 0.5) -> Vocabulary:
    """Collect terms whose document frequency lies in [min_df, max_df_ratio * N]."""
    words, ids, _ = _document_words(texts)
    return _fit_vocabulary(words, ids, len(texts), min_df, max_df_ratio)


def build_text_view(texts: list[str], vocab: Vocabulary | None = None, **vocab_kwargs) -> tuple[SparseMatrix, Vocabulary]:
    """tf-idf matrix, one l2-normalized row per document.

    Term frequency is binary (presence), so a row is the l2-normalized idf
    vector over the document's in-vocabulary terms. Rows with no such terms
    stay zero. Passing a prefitted ``vocab`` reuses its df statistics, which
    keeps feature values consistent for documents unseen at fit time.
    """
    if vocab is not None and vocab_kwargs:
        raise ArgumentError("vocabulary options are ignored when vocab is given")
    words, ids, offsets = _document_words(texts)
    if vocab is None:
        vocab = _fit_vocabulary(words, ids, len(texts), **vocab_kwargs)
    n, width = len(texts), len(vocab)
    index = vocab.index()
    column = np.array([index.get(w, -1) for w in words], dtype=np.int64)[ids]
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(offsets))
    hit = column >= 0
    # Rows are already grouped; one sort of row * width + column orders each
    # row's columns.
    key = np.sort(rows[hit] * width + column[hit])
    rows, cols = np.divmod(key, max(width, 1))
    weights = vocab.idf()[cols]
    squares = weights * weights
    bounds = np.searchsorted(rows, np.arange(n + 1)).tolist()
    # Each row's squared norm is one np.sum over its own entries, in column
    # order; a segmented reduction would round differently.
    norms = np.sqrt([np.sum(squares[a:b]) for a, b in zip(bounds[:-1], bounds[1:])])
    X = SparseMatrix.from_triplets(n, width, rows, cols, weights / norms[rows])
    return X, vocab


def extract_mention_pairs(user_ids: list[str], texts: list[str]) -> list[tuple[str, str]]:
    """(user id, mentioned handle) pairs pulled from each user's own text."""
    if len(user_ids) != len(texts):
        raise ShapeError(f"{len(user_ids)} ids vs {len(texts)} documents")
    pairs = []
    for uid, text in zip(user_ids, texts):
        _, mentions = tokenize(text)
        for h in sorted(set(mentions)):
            pairs.append((uid, h))
    return pairs


def build_mention_graph(
    user_ids: list[str],
    mention_pairs: list[tuple[str, str]],
    max_comention_degree: int = 1000,
) -> SparseMatrix:
    """Binary undirected user graph collapsed from (mentioner, handle) pairs.

    An edge joins users u and v when u mentions v's id, v mentions u's id, or
    both mention some common handle. Pairs whose mentioner is not a known user
    cannot produce an edge and are ignored. Matching is case-insensitive; the
    diagonal is zero.

    With B the binary users x handles incidence of the remaining pairs, the
    common-handle clause is B_k B_kᵀ, where B_k keeps the handles that at most
    ``max_comention_degree`` distinct users mention: larger hubs would
    otherwise clique together most of the graph. The direct clause is D + Dᵀ,
    where D[i, t] = 1 when user i mentions the handle that names user t; the
    cap does not apply to it.
    """
    n = len(user_ids)
    id_index = {u.lower(): i for i, u in enumerate(user_ids)}
    if len(id_index) != n:
        raise ArgumentError("user ids must be unique (case-insensitive)")

    handle_index: dict[str, int] = {}
    users, handles = array("q"), array("q")
    for mentioner, handle in mention_pairs:
        i = id_index.get(mentioner.lower())
        if i is not None:
            users.append(i)
            handles.append(handle_index.setdefault(handle.lower(), len(handle_index)))
    users = np.frombuffer(users, dtype=np.int64)
    handles = np.frombuffer(handles, dtype=np.int64)

    # Boolean sparse arithmetic sums with logical or, so every stored entry
    # of B, D and their products is True: the graph is binary throughout.
    incidence = sp.csr_matrix((np.ones(len(users), dtype=bool), (users, handles)),
                              shape=(n, len(handle_index)))
    incidence.sum_duplicates()
    mentioners = np.bincount(incidence.indices, minlength=len(handle_index))
    incidence.data[mentioners[incidence.indices] > max_comention_degree] = False
    incidence.eliminate_zeros()

    named = np.array([id_index.get(h, -1) for h in handle_index], dtype=np.int64)[handles]
    is_user = named >= 0
    direct = sp.csr_matrix((np.ones(is_user.sum(), dtype=bool),
                            (users[is_user], named[is_user])), shape=(n, n))
    graph = (incidence @ incidence.T + direct + direct.T).tocoo()
    off = graph.row != graph.col
    return SparseMatrix.from_triplets(n, n, graph.row[off], graph.col[off], np.ones(off.sum()))


def normalize_adjacency(adjacency: SparseMatrix, lam: float = 1.0) -> SparseMatrix:
    """Symmetric degree normalization of A + lam * I.

    With M = A + lam * I and d the row sums of M, returns
    diag(d)^{-1/2} M diag(d)^{-1/2}. The lam * I term keeps every node's own
    features in its neighborhood average; lam = 0 is allowed only when no row
    of A is empty, since a zero degree cannot be normalized. When A equals its
    transpose, so does the result, bit for bit, and it is its own
    ``transpose()``.
    """
    rows, cols = adjacency.shape
    if rows != cols:
        raise ShapeError(f"adjacency must be square, got {adjacency.shape}")
    if not lam >= 0.0:
        raise ArgumentError(f"lam must be >= 0, got {lam}")
    m = (adjacency.csr + lam * sp.identity(rows, format="csr", dtype=np.float64)).tocsr()
    degrees = np.asarray(m.sum(axis=1)).ravel()
    if np.any(degrees <= 0.0):
        raise NumericError(
            "zero-degree node: add self loops (lam > 0) or drop isolated nodes"
        )
    coo = m.tocoo()
    # Entrywise m_ij / sqrt(d_i * d_j): one rounding per entry, so small cases
    # like a single self-loop come out exact, and m_ij = m_ji gives equal
    # entries on both sides of the diagonal.
    values = coo.data / np.sqrt(degrees[coo.row] * degrees[coo.col])
    return SparseMatrix.from_triplets(rows, cols, coo.row, coo.col, values)


@dataclass
class ViewMatrices:
    """The two raw model inputs for one dataset: tf-idf text and binary adjacency.

    Models that need the smoothed propagation matrix derive it themselves via
    ``normalize_adjacency``, since the self-loop weight is a model knob.
    """

    text: SparseMatrix
    adjacency: SparseMatrix
    vocabulary: Vocabulary
