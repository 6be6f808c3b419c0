"""Feature construction: tf-idf text view and the collapsed @-mention graph.

Each user contributes one document (their concatenated posts). Tokens are
lowercased whitespace chunks; a token whose first character is ``@`` is a
mention and feeds the graph view instead of the text vocabulary. The graph
connects two users when either mentions the other or both mention a common
third handle, collapsing the bipartite user/handle structure into a binary
undirected adjacency.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ArgumentError, DataFormatError, NumericError, ShapeError
from .sparse import SparseMatrix

_MENTION = re.compile(r"(?:^|[^\w@])@(\w+)")


def tokenize(text: str) -> tuple[list[str], list[str]]:
    """Split one document into (word tokens, mentioned handles), lowercased."""
    lowered = text.lower()
    mentions = _MENTION.findall(lowered)
    words = [t for t in lowered.split() if not t.startswith("@")]
    return words, mentions


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


def build_vocabulary(texts: list[str], min_df: int = 2, max_df_ratio: float = 0.5) -> Vocabulary:
    """Collect terms whose document frequency lies in [min_df, max_df_ratio * N]."""
    if not texts:
        raise ArgumentError("empty corpus")
    if not 0.0 < max_df_ratio <= 1.0:
        raise ArgumentError(f"max_df_ratio must be in (0, 1], got {max_df_ratio}")
    n = len(texts)
    counts: dict[str, int] = {}
    for text in texts:
        words, _ = tokenize(text)
        for w in set(words):
            counts[w] = counts.get(w, 0) + 1
    ceiling = max_df_ratio * n
    kept = sorted(t for t, c in counts.items() if c >= min_df and c <= ceiling)
    return Vocabulary(
        terms=tuple(kept), df=tuple(counts[t] for t in kept), n_docs=n
    )


def build_text_view(texts: list[str], vocab: Vocabulary | None = None, **vocab_kwargs) -> tuple[SparseMatrix, Vocabulary]:
    """tf-idf matrix, one l2-normalized row per document.

    Term frequency is binary (presence), so a row is the l2-normalized idf
    vector over the document's in-vocabulary terms. Rows with no such terms
    stay zero. Passing a prefitted ``vocab`` reuses its df statistics, which
    keeps feature values consistent for documents unseen at fit time.
    """
    if vocab is None:
        vocab = build_vocabulary(texts, **vocab_kwargs)
    elif vocab_kwargs:
        raise ArgumentError("vocabulary options are ignored when vocab is given")
    index = vocab.index()
    idf = vocab.idf()
    rows, cols, vals = [], [], []
    for i, text in enumerate(texts):
        words, _ = tokenize(text)
        hit = sorted({index[w] for w in words if w in index})
        if not hit:
            continue
        weights = idf[hit]
        weights = weights / np.sqrt(np.sum(weights * weights))
        rows.extend([i] * len(hit))
        cols.extend(hit)
        vals.extend(weights.tolist())
    X = SparseMatrix.from_triplets(len(texts), len(vocab), rows, cols, vals)
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
    both mention some common handle. Handles mentioned by more than
    ``max_comention_degree`` users are skipped in the common-handle clause
    (they still create direct edges if they name a user): such hubs would
    otherwise clique together most of the graph. Pairs whose mentioner is not
    a known user cannot produce an edge and are ignored. Matching is
    case-insensitive; the diagonal is zero.
    """
    if len(set(u.lower() for u in user_ids)) != len(user_ids):
        raise ArgumentError("user ids must be unique (case-insensitive)")
    n = len(user_ids)
    id_index = {u.lower(): i for i, u in enumerate(user_ids)}

    mentioners: dict[str, set[int]] = {}
    for mentioner, handle in mention_pairs:
        i = id_index.get(mentioner.lower())
        if i is not None:
            mentioners.setdefault(handle.lower(), set()).add(i)

    edges: set[tuple[int, int]] = set()

    def connect(a: int, b: int) -> None:
        if a != b:
            edges.add((a, b) if a < b else (b, a))

    for handle in sorted(mentioners):
        users = sorted(mentioners[handle])
        target = id_index.get(handle)
        if target is not None:
            for u in users:
                connect(u, target)
        if len(users) <= max_comention_degree:
            for j, u in enumerate(users):
                for v in users[j + 1 :]:
                    connect(u, v)

    pairs = sorted(edges)
    rows = [a for a, b in pairs] + [b for a, b in pairs]
    cols = [b for a, b in pairs] + [a for a, b in pairs]
    return SparseMatrix.from_triplets(n, n, rows, cols, [1.0] * len(rows))


def normalize_adjacency(adjacency: SparseMatrix, lam: float = 1.0) -> SparseMatrix:
    """Symmetric degree normalization of A + lam * I.

    With M = A + lam * I and d the row sums of M, returns
    diag(d)^{-1/2} M diag(d)^{-1/2}. The lam * I term keeps every node's own
    features in its neighborhood average; lam = 0 is allowed only when no row
    of A is empty, since a zero degree cannot be normalized.
    """
    rows, cols = adjacency.shape
    if rows != cols:
        raise ShapeError(f"adjacency must be square, got {adjacency.shape}")
    if lam < 0.0:
        raise ArgumentError(f"lam must be >= 0, got {lam}")
    m = (adjacency.csr + lam * sp.identity(rows, format="csr", dtype=np.float64)).tocsr()
    degrees = np.asarray(m.sum(axis=1)).ravel()
    if np.any(degrees <= 0.0):
        raise NumericError(
            "zero-degree node: add self loops (lam > 0) or drop isolated nodes"
        )
    coo = m.tocoo()
    # Entrywise m_ij / sqrt(d_i * d_j): one rounding per entry, so small cases
    # like a single self-loop come out exact.
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
