"""Feature construction: tf-idf text view and the collapsed @-mention graph.

Each user contributes one document (their concatenated posts). Tokens are
lowercased whitespace chunks; a token whose first character is ``@`` is a
mention and feeds the graph view instead of the text vocabulary. The text
view tokenizes each document once into the set of its tokens and looks a
chunk of documents' sets up into integer word ids at once, so no Python code
runs per token; the vocabulary's document frequencies and the tf-idf rows are
both read from these ids.

The graph collapses the bipartite user/handle structure into a binary
undirected adjacency with sparse products. With B the binary user x handle
incidence matrix, two users are joined when they mention a common handle (an
entry of B Bᵀ over the handles under the co-mention cap) or when either
mentions the other's id (an entry of D or Dᵀ, where D maps each mentioner to
the user its handle names). The pairs arrive as one ``data.MentionPairs``
record, 8 bytes of int32 indices per pair plus each distinct name once, so
case is folded once per name and no Python loop runs per pair; the graph and
its normalization are built straight into canonical CSR.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import chain

import numpy as np
import scipy.sparse as sp

from .data import MentionPairs
from .errors import ArgumentError, DataFormatError, NumericError, ShapeError
from .sparse import SparseMatrix

_MENTION = re.compile(r"(?:^|[^\w@])@(\w+)")
# Documents whose token sets are held, and looked up into word ids, at once.
# Kept small: the freed token strings of a larger chunk stay in the heap, and
# 256 raised a 1,000-user benchmark run's peak RSS by 0.6 MB.
_CHUNK = 64


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
        n_docs = d["n_docs"]
        if n_docs < 0:
            raise DataFormatError(f"vocabulary 'n_docs' {n_docs} is negative")
        bad = next((c for c in d["df"] if not 0 <= c <= n_docs), None)
        if bad is not None:
            raise DataFormatError(f"vocabulary 'df' {bad} is outside [0, n_docs={n_docs}]")
        return cls(terms=tuple(d["terms"]), df=tuple(d["df"]), n_docs=n_docs)


def _document_words(texts: list[str]) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Tokenize each document once into the ids of its distinct words.

    A word is a lowercased whitespace chunk that does not start with ``@``.
    Returns the words in id order, the concatenated per-document id lists and
    their row offsets (document ``i`` holds ``ids[offsets[i]:offsets[i + 1]]``).
    Each document becomes one set of its tokens, and ``_CHUNK`` documents' sets
    at a time are looked up into ids together. A chunk's mentions are found
    among the tokens not yet given an id, and taken out of its sets before the
    lookup. So the strings held are one chunk's token sets and one copy of
    each distinct word; no mention outlives its chunk.
    """
    word_ids: dict[str, int] = {}
    words: list[str] = []
    ids, offsets = [np.zeros(0, dtype=np.int64)], [np.zeros(1, dtype=np.int64)]
    for start in range(0, len(texts), _CHUNK):
        docs = [set(text.lower().split()) for text in texts[start:start + _CHUNK]]
        new = set().union(*docs).difference(word_ids)
        handles = {w for w in new if w.startswith("@")}
        if handles:
            docs = [doc - handles for doc in docs]
            new -= handles
        new = list(new)
        word_ids.update(zip(new, range(len(words), len(words) + len(new))))
        words.extend(new)
        sizes = np.fromiter(map(len, docs), dtype=np.int64, count=len(docs))
        ids.append(np.fromiter(map(word_ids.__getitem__, chain.from_iterable(docs)),
                               dtype=np.int64, count=int(sizes.sum())))
        offsets.append(offsets[-1][-1] + np.cumsum(sizes))
    return words, np.concatenate(ids), np.concatenate(offsets)


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


def _row_sums(values: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """``np.sum(values[bounds[r]:bounds[r + 1]])`` for every row ``r``, to the bit.

    The rows of one length L are summed together, as a (rows, L) array along
    its contiguous last axis. numpy reduces each such row with the same
    pairwise summation that np.sum applies to the row alone, so the bits
    agree; a segmented reduction (``np.add.reduceat``, or differences of one
    cumulative sum) would round differently. One sort of (length, row) keys
    groups the rows, so each row is read once however many lengths there are;
    it is np.sort, which the text view already runs, because np.argsort and
    np.unique's index sort bring in about 0.4 MB more of numpy's code.
    """
    lengths = np.diff(bounds)
    n = lengths.size
    by_length, rows = np.divmod(np.sort(lengths * n + np.arange(n)), max(n, 1))
    first = np.flatnonzero(np.diff(by_length, prepend=-1))
    sums = np.zeros(n)
    for length, same in zip(by_length[first].tolist(), np.split(rows, first[1:])):
        if length:
            sums[same] = values[bounds[same, None] + np.arange(length)].sum(axis=1)
    return sums


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
    # Rows are already grouped, and a document's words are distinct; one sort
    # of row * width + column orders each row's columns.
    key = np.sort(rows[hit] * width + column[hit])
    rows, cols = np.divmod(key, max(width, 1))
    weights = vocab.idf()[cols]
    bounds = np.searchsorted(rows, np.arange(n + 1))
    norms = np.sqrt(_row_sums(weights * weights, bounds))
    # The keys are sorted and distinct, so these arrays are CSR with each
    # row's columns in order and no duplicates.
    csr = sp.csr_matrix((weights / norms[rows], cols, bounds), shape=(n, width))
    csr.eliminate_zeros()
    if csr.nnz and not np.isfinite(csr.data).all():
        raise NumericError("sparse matrix holds non-finite values")
    return SparseMatrix(csr), vocab


def extract_mention_pairs(user_ids: list[str], texts: list[str]) -> list[tuple[str, str]]:
    """(user id, mentioned handle) pairs pulled from each user's own text."""
    if len(user_ids) != len(texts):
        raise ShapeError(f"{len(user_ids)} ids vs {len(texts)} documents")
    pairs = []
    for uid, text in zip(user_ids, texts):
        for h in sorted(set(_MENTION.findall(text.lower()))):
            pairs.append((uid, h))
    return pairs


def build_mention_graph(
    user_ids: list[str],
    mention_pairs: MentionPairs,
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

    scipy returns B Bᵀ with each row's columns unsorted, and sums unsorted
    operands on a slower general path. B Bᵀ is symmetric, so its CSC arrays
    are its CSR arrays sorted; read through them, every operand of the sum is
    canonical, and so is the graph.
    """
    n = len(user_ids)
    id_index = {u.lower(): i for i, u in enumerate(user_ids)}
    if len(id_index) != n:
        raise ArgumentError("user ids must be unique (case-insensitive)")

    # Case is folded once per distinct name: name k is handle folded[k], and
    # handle h names user named[h], or -1.
    handle_index: dict[str, int] = {}
    folded = np.array([handle_index.setdefault(name.lower(), len(handle_index))
                       for name in mention_pairs.names], dtype=np.intp)
    named = np.array([id_index.get(h, -1) for h in handle_index], dtype=np.intp)
    users = named[folded][mention_pairs.mentioners]
    known = users >= 0
    users = users[known]
    handles = folded[mention_pairs.handles[known]]

    # Boolean sparse arithmetic sums with logical or, so every stored entry
    # of B, D and their products is True: the graph is binary throughout.
    incidence = sp.csr_matrix((np.ones(len(users), dtype=bool), (users, handles)),
                              shape=(n, len(handle_index)))
    incidence.sum_duplicates()
    mentioners = np.bincount(incidence.indices, minlength=len(handle_index))
    incidence.data[mentioners[incidence.indices] > max_comention_degree] = False
    incidence.eliminate_zeros()

    targets = named[handles]
    is_user = targets >= 0
    direct = sp.csr_matrix((np.ones(is_user.sum(), dtype=bool),
                            (users[is_user], targets[is_user])), shape=(n, n))
    common = (incidence @ incidence.T).tocsc().T  # B Bᵀ, sorted
    graph = (common + direct + direct.T).tocsr()
    # Drop the diagonal in place, which keeps each row's order: each row ends
    # where its kept entries end.
    off = graph.indices != np.repeat(np.arange(n, dtype=graph.indices.dtype),
                                     np.diff(graph.indptr))
    kept = np.zeros(off.size + 1, dtype=graph.indptr.dtype)
    np.cumsum(off, out=kept[1:])
    graph.indptr = kept[graph.indptr]
    graph.indices = graph.indices[off]
    graph.data = np.ones(graph.indices.size)
    return SparseMatrix(graph)


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
    # A sum of canonical CSR matrices is a new canonical one, scaled in place.
    m = (adjacency.csr + lam * sp.identity(rows, format="csr", dtype=np.float64)).tocsr()
    degrees = np.asarray(m.sum(axis=1)).ravel()
    if np.any(degrees <= 0.0):
        raise NumericError(
            "zero-degree node: add self loops (lam > 0) or drop isolated nodes"
        )
    # Entrywise m_ij / sqrt(d_i * d_j): one rounding per entry, so small cases
    # like a single self-loop come out exact, and m_ij = m_ji gives equal
    # entries on both sides of the diagonal.
    scale = degrees[np.repeat(np.arange(rows, dtype=m.indices.dtype), np.diff(m.indptr))]
    scale *= degrees[m.indices]
    m.data /= np.sqrt(scale, out=scale)
    m.eliminate_zeros()
    if m.nnz and not np.isfinite(m.data).all():
        raise NumericError("sparse matrix holds non-finite values")
    return SparseMatrix(m)


@dataclass
class ViewMatrices:
    """The two raw model inputs for one dataset: tf-idf text and binary adjacency.

    Models that need the smoothed propagation matrix derive it themselves via
    ``normalize_adjacency``, since the self-loop weight is a model knob.
    """

    text: SparseMatrix
    adjacency: SparseMatrix
    vocabulary: Vocabulary
