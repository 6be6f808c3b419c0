"""Seeded synthetic corpora written in geograph's two-file dataset format.

The generator lives in the benchmark so that the program under test receives
only ``users.jsonl`` and ``edges.tsv`` and a change to the library's own
generator cannot move the benchmark's inputs. Its structure follows the
homophilous corpus of the paper's synthetic experiments: users jittered around
region centres on a 10-degree grid, region-flavoured vocabulary, mentions that
are denser within regions than across them, and a few region-local celebrity
handles that are not users. Edges are sampled per region-pair block (a binomial
count, then uniform pairs), so memory stays O(edges) rather than O(n^2).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class CorpusSpec:
    n_users: int
    n_regions: int = 4
    vocab_size: int = 200
    p_in: float = 0.02
    p_out: float = 0.004
    words_per_user: int = 30
    region_word_weight: float = 0.7
    jitter_deg: float = 0.5
    celebrities_per_region: int = 2
    celebrity_mention_prob: float = 0.05
    train_frac: float = 0.6
    dev_frac: float = 0.2


def _block_pairs(rng, left: np.ndarray, right: np.ndarray, p: float, same: bool) -> np.ndarray:
    """Distinct (i, j) pairs with i < j, each present with probability ~p."""
    candidates = left.size * (left.size - 1) // 2 if same else left.size * right.size
    count = rng.binomial(candidates, p)
    i = rng.choice(left, size=count)
    j = rng.choice(right, size=count)
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    keep = lo != hi
    return np.unique(np.stack([lo[keep], hi[keep]], axis=1), axis=0)


def write_corpus(spec: CorpusSpec, seed: int, out_dir: Path) -> tuple[Path, Path]:
    """Write users.jsonl and edges.tsv under out_dir; the same seed gives the same bytes."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, spec.n_users]))
    n, regions = spec.n_users, spec.n_regions
    cols = math.ceil(math.sqrt(regions))
    centres = np.array(
        [(30.0 + 10.0 * (r // cols), -115.0 + 10.0 * (r % cols)) for r in range(regions)]
    )
    region_of = np.arange(n) % regions
    coords = centres[region_of] + rng.normal(0.0, spec.jitter_deg, size=(n, 2))
    ids = [f"user{i:05d}" for i in range(n)]

    per_region = (spec.vocab_size // 2) // regions
    shared = np.arange(regions * per_region, spec.vocab_size)
    use_local = rng.random((n, spec.words_per_user)) < spec.region_word_weight
    local = region_of[:, None] * per_region + rng.integers(0, per_region, size=use_local.shape)
    words = np.where(use_local, local, rng.choice(shared, size=use_local.shape))

    order = rng.permutation(n)
    n_train = int(round(spec.train_frac * n))
    n_dev = int(round(spec.dev_frac * n))
    splits = np.empty(n, dtype=object)
    splits[order[:n_train]] = "train"
    splits[order[n_train:n_train + n_dev]] = "dev"
    splits[order[n_train + n_dev:]] = "test"

    members = [np.nonzero(region_of == r)[0] for r in range(regions)]
    blocks = []
    for r in range(regions):
        for s in range(r, regions):
            p = spec.p_in if r == s else spec.p_out
            blocks.append(_block_pairs(rng, members[r], members[s], p, r == s))
    direct = np.unique(np.concatenate(blocks), axis=0)

    out_dir.mkdir(parents=True, exist_ok=True)
    users_path, edges_path = out_dir / "users.jsonl", out_dir / "edges.tsv"
    with open(users_path, "w", encoding="utf-8") as fh:
        for i in range(n):
            text = " ".join(f"term{w:04d}" for w in words[i])
            fh.write(json.dumps({"id": ids[i], "lat": float(coords[i, 0]),
                                 "lon": float(coords[i, 1]), "text": text,
                                 "split": splits[i]}) + "\n")
    with open(edges_path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{ids[i]}\t{ids[j]}\n" for i, j in direct)
        for r in range(regions):
            for k in range(spec.celebrities_per_region):
                fans = members[r][rng.random(members[r].size) < spec.celebrity_mention_prob]
                fh.writelines(f"{ids[i]}\tceleb_r{r}_{k}\n" for i in fans)
    return users_path, edges_path
