"""Dataset ingestion, synthetic corpus generation, and supervision subsampling.

On disk a dataset is two files: a JSON-lines users file (one object per user
with ``id``, ``lat``, ``lon``, ``text``, ``split``) and a 2-column TSV of
(mentioner, mentioned handle) pairs. In memory the coordinates are one (n, 2)
float64 lat/lon array, checked when the bundle is built, and the pairs are one
``MentionPairs`` record: each distinct name once, as written, and two int32
index arrays in file order, so a pair costs 8 bytes plus its share of the
names (a list of string tuples cost about 176 bytes a pair). The synthetic
generator produces the same structure: a handful of well-separated lat/lon
region centers, users jittered around them, region-flavored vocabulary, and
mention pairs that are denser within regions than across them.
"""

from __future__ import annotations

import json
import logging
import math
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .errors import ArgumentError, DataFormatError
from .geo import coordinate_error

SPLITS = ("train", "dev", "test")

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class Partition:
    """Index sets for labeled, development, and test users (disjoint), each
    held sorted, without repeats and without negative indices."""

    train_idx: np.ndarray
    dev_idx: np.ndarray
    test_idx: np.ndarray

    def __post_init__(self):
        for name in ("train_idx", "dev_idx", "test_idx"):
            arr = np.sort(np.asarray(getattr(self, name), dtype=np.intp))
            if np.any(arr[1:] == arr[:-1]):
                raise ArgumentError(f"partition {name} repeats an index")
            if arr.size and arr[0] < 0:
                raise ArgumentError(f"partition {name} holds a negative index {arr[0]}")
            object.__setattr__(self, name, arr)
        if self.train_idx.size == 0:
            raise ArgumentError("partition has no labeled users")
        every = np.concatenate([self.train_idx, self.dev_idx, self.test_idx])
        if np.unique(every).size != every.size:
            raise ArgumentError("partition index sets overlap")


@dataclass(frozen=True, eq=False)
class MentionPairs:
    """(mentioner, handle) pairs, held compactly: ``names`` holds each distinct
    string once, exactly as written, and pair ``k`` is ``(names[mentioners[k]],
    names[handles[k]])``. Iterating yields the pairs as ``(str, str)`` tuples in
    order. ``DatasetBundle`` checks the index arrays."""

    names: tuple[str, ...]
    mentioners: np.ndarray
    handles: np.ndarray

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[str, str]]) -> "MentionPairs":
        index: dict[str, int] = {}
        mentioners, handles = array("i"), array("i")
        for mentioner, handle in pairs:
            mentioners.append(index.setdefault(mentioner, len(index)))
            handles.append(index.setdefault(handle, len(index)))
        return cls(tuple(index), np.frombuffer(mentioners, dtype=np.intc),
                   np.frombuffer(handles, dtype=np.intc))

    def __len__(self) -> int:
        return len(self.mentioners)

    def __iter__(self) -> Iterator[tuple[str, str]]:
        names = self.names
        for m, h in zip(self.mentioners.tolist(), self.handles.tolist()):
            yield names[m], names[h]


@dataclass
class DatasetBundle:
    """One corpus: aligned per-user lists, an (n, 2) lat/lon array, and the
    raw mention pairs."""

    ids: list[str]
    texts: list[str]
    coords: np.ndarray
    splits: list[str]
    mention_pairs: MentionPairs
    provenance: str = "custom"

    def __post_init__(self):
        n = len(self.ids)
        self.coords = np.asarray(self.coords, dtype=np.float64)
        if not (len(self.texts) == len(self.splits) == n) or self.coords.shape != (n, 2):
            raise ArgumentError("per-user lists and the (n, 2) lat/lon coords disagree in length")
        bad = coordinate_error(self.coords)
        if bad:
            raise ArgumentError(f"user {self.ids[bad[0]]!r}: {bad[1]}")
        if len({uid.lower() for uid in self.ids}) != n:
            raise ArgumentError("duplicate user id (ids match case-insensitively)")
        bad = sorted(set(self.splits) - set(SPLITS))
        if bad:
            raise ArgumentError(f"unknown split tags {bad}")
        pairs = self.mention_pairs
        ends = (pairs.mentioners, pairs.handles)
        if any(e.ndim != 1 for e in ends) or ends[0].size != ends[1].size:
            raise ArgumentError("mention pairs need two 1-d index arrays of equal length")
        if ends[0].size and not all(0 <= e.min() and e.max() < len(pairs.names) for e in ends):
            raise ArgumentError(f"a mention pair indexes outside its {len(pairs.names)} names")

    def __len__(self) -> int:
        return len(self.ids)

    def split_indices(self, split: str) -> np.ndarray:
        if split not in SPLITS:
            raise ArgumentError(f"unknown split {split!r}")
        return np.array([i for i, s in enumerate(self.splits) if s == split], dtype=np.intp)


def load_dataset(users_path, edges_path) -> DatasetBundle:
    """Parse the two-file dataset format, reporting bad lines by number."""
    users_path, edges_path = Path(users_path), Path(edges_path)
    ids, texts, latlon, splits, linenos = [], [], [], [], []
    seen: dict[str, int] = {}  # lower-cased id -> its index in ids
    with open(users_path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except ValueError as exc:  # JSONDecodeError, or an integer of too many digits
                raise DataFormatError(f"{users_path}:{lineno}: invalid JSON ({exc})") from exc
            if not isinstance(row, dict):
                raise DataFormatError(f"{users_path}:{lineno}: expected an object")
            missing = [k for k in ("id", "lat", "lon", "text", "split") if k not in row]
            if missing:
                raise DataFormatError(f"{users_path}:{lineno}: missing fields {missing}")
            uid = str(row["id"])
            j = seen.get(uid.lower())
            if j is not None:
                raise DataFormatError(f"{users_path}:{lineno}: duplicate id {uid!r} (ids match "
                                      f"case-insensitively: {ids[j]!r} on line {linenos[j]})")
            if row["split"] not in SPLITS:
                raise DataFormatError(
                    f"{users_path}:{lineno}: split must be one of {SPLITS}, got {row['split']!r}"
                )
            pair = (row["lat"], row["lon"])
            if any(type(v) not in (int, float) for v in pair):
                raise DataFormatError(f"{users_path}:{lineno}: bad coordinates (lat and lon "
                                      f"must be JSON numbers, got {pair})")
            try:
                latlon.append((float(pair[0]), float(pair[1])))
            except OverflowError:
                raise DataFormatError(f"{users_path}:{lineno}: bad coordinates (an integer "
                                      "too large for a float)") from None
            seen[uid.lower()] = len(ids)
            ids.append(uid)
            texts.append(str(row["text"]))
            splits.append(row["split"])
            linenos.append(lineno)
    if not ids:
        raise DataFormatError(f"{users_path}: no users")
    coords = np.array(latlon, dtype=np.float64)
    bad = coordinate_error(coords)
    if bad:
        raise DataFormatError(f"{users_path}:{linenos[bad[0]]}: bad coordinates ({bad[1]})")

    dropped = 0
    known = {u.lower() for u in ids}

    def rows():
        nonlocal dropped
        with open(edges_path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if not line.strip():
                    continue
                parts = line.split("\t")
                if len(parts) != 2 or not parts[0] or not parts[1]:
                    raise DataFormatError(
                        f"{edges_path}:{lineno}: expected two tab-separated fields"
                    )
                if parts[0].lower() in known:
                    yield parts[0], parts[1]
                else:
                    dropped += 1

    pairs = MentionPairs.from_pairs(rows())
    bundle = DatasetBundle(ids, texts, coords, splits, pairs)
    counts = {s: splits.count(s) for s in SPLITS}
    log.info(
        "loaded %d users (%d train / %d dev / %d test), %d mention pairs, "
        "%d pairs with unknown mentioner dropped",
        len(ids), counts["train"], counts["dev"], counts["test"], len(pairs), dropped,
    )
    return bundle


def save_dataset(bundle: DatasetBundle, out_dir) -> tuple[Path, Path]:
    """Write users.jsonl and edges.tsv; emitted bytes depend only on the bundle."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    users_path = out_dir / "users.jsonl"
    edges_path = out_dir / "edges.tsv"
    with open(users_path, "w", encoding="utf-8") as fh:
        for uid, text, (lat, lon), split in zip(
            bundle.ids, bundle.texts, bundle.coords.tolist(), bundle.splits
        ):
            fh.write(
                json.dumps(
                    {"id": uid, "lat": lat, "lon": lon, "text": text, "split": split},
                    sort_keys=True,
                )
                + "\n"
            )
    with open(edges_path, "w", encoding="utf-8") as fh:
        for a, b in bundle.mention_pairs:
            fh.write(f"{a}\t{b}\n")
    return users_path, edges_path


# Fixed by the generator: the jitter around region centers (degrees), the
# celebrity handles per region and each one's mention chance, the split shares.
JITTER_DEG = 0.5
CELEBRITIES_PER_REGION = 2
CELEBRITY_MENTION_PROB = 0.05
TRAIN_FRAC, DEV_FRAC = 0.6, 0.2


@dataclass(frozen=True)
class SyntheticConfig:
    n_users: int = 1000
    n_regions: int = 4
    vocab_size: int = 200
    p_in: float = 0.02
    p_out: float = 0.001
    # Per-user text is deliberately weak evidence (few tokens, mostly shared
    # vocabulary) while the graph is strongly assortative; that is the regime
    # where propagating information over edges visibly helps.
    words_per_user: int = 15
    region_word_weight: float = 0.3  # chance each token is region-flavored

    def __post_init__(self):
        for name, low in (("n_users", 1), ("words_per_user", 0)):
            if not getattr(self, name) >= low:
                raise ArgumentError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if self.n_regions < 2:
            raise ArgumentError("need at least 2 regions")
        if not (0.0 <= self.p_out < self.p_in <= 1.0):
            raise ArgumentError("need 0 <= p_out < p_in <= 1")
        if not 0.0 <= self.region_word_weight <= 1.0:
            raise ArgumentError("region_word_weight must be in [0, 1]")
        if self.vocab_size < 2 * self.n_regions:
            raise ArgumentError("vocab too small to give every region its own terms")


def generate_synthetic(config: SyntheticConfig = SyntheticConfig(), seed: int = 0) -> DatasetBundle:
    """Homophilous toy corpus: geography, text, and edges all follow regions.

    Region centers sit on a 10-degree grid; each user's location is their
    region center plus Gaussian jitter. Half the vocabulary is split evenly
    into per-region term sets, the rest is shared; each token is drawn from
    the user's regional set with probability ``region_word_weight``. Every
    user pair gets an edge with probability ``p_in`` (same region) or
    ``p_out`` (different), recorded as the lower-indexed user mentioning the
    other's id. Region-local celebrity handles add common-mention structure
    without being users themselves.
    """
    if seed < 0:
        raise ArgumentError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    cfg = config
    n, regions = cfg.n_users, cfg.n_regions

    grid_cols = math.ceil(math.sqrt(regions))
    centers = [
        (30.0 + 10.0 * (r // grid_cols), -115.0 + 10.0 * (r % grid_cols))
        for r in range(regions)
    ]
    region_of = np.arange(n) % regions
    coords = np.array(centers)[region_of] + rng.normal(0.0, JITTER_DEG, size=(n, 2))
    ids = [f"user{i:05d}" for i in range(n)]

    half = cfg.vocab_size // 2
    per_region = half // regions
    region_terms = [
        [f"term{r * per_region + j:04d}" for j in range(per_region)] for r in range(regions)
    ]
    shared_terms = [f"term{j:04d}" for j in range(regions * per_region, cfg.vocab_size)]
    texts = []
    for i in range(n):
        local = region_terms[region_of[i]]
        use_local = rng.random(cfg.words_per_user) < cfg.region_word_weight
        local_picks = rng.integers(0, len(local), size=cfg.words_per_user)
        shared_picks = rng.integers(0, len(shared_terms), size=cfg.words_per_user)
        words = [
            local[local_picks[t]] if use_local[t] else shared_terms[shared_picks[t]]
            for t in range(cfg.words_per_user)
        ]
        texts.append(" ".join(words))

    same = region_of[:, None] == region_of[None, :]
    prob = np.where(same, cfg.p_in, cfg.p_out)
    draws = rng.random((n, n))
    upper = np.triu(draws < prob, k=1)
    rows, cols = np.nonzero(upper)
    mentioners, handles = [rows], [cols]

    celebrities = []
    for r in range(regions):
        members = np.nonzero(region_of == r)[0]
        for k in range(CELEBRITIES_PER_REGION):
            fans = members[rng.random(members.size) < CELEBRITY_MENTION_PROB]
            mentioners.append(fans)
            handles.append(np.full(fans.size, n + len(celebrities)))
            celebrities.append(f"celeb_r{r}_{k}")
    pairs = MentionPairs(tuple(ids + celebrities),
                         np.concatenate(mentioners, dtype=np.int32),
                         np.concatenate(handles, dtype=np.int32))

    order = rng.permutation(n)
    n_train = int(round(TRAIN_FRAC * n))
    n_dev = int(round(DEV_FRAC * n))
    splits = [""] * n
    for pos, i in enumerate(order):
        splits[i] = "train" if pos < n_train else ("dev" if pos < n_train + n_dev else "test")

    return DatasetBundle(ids, texts, coords, splits, pairs, provenance="synthetic")


def subsample_labels(bundle: DatasetBundle, fraction: float, seed: int) -> Partition:
    """Pick ceil(fraction * |train|) labeled users uniformly from the train split.

    Everyone else, including the rest of the train split, is unlabeled during
    training; dev and test keep their roles for evaluation only.
    """
    if not 0.0 < fraction <= 1.0:
        raise ArgumentError(f"fraction must be in (0, 1], got {fraction}")
    train = bundle.split_indices("train")
    if train.size == 0:
        raise ArgumentError("dataset has no train split")
    count = math.ceil(fraction * train.size)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    labeled = np.sort(rng.choice(train, size=count, replace=False))
    return Partition(
        train_idx=labeled,
        dev_idx=bundle.split_indices("dev"),
        test_idx=bundle.split_indices("test"),
    )
