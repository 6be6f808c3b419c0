"""The benchmark's workloads: a corpus, a labeled fraction and the cells trained on it.

One operation is one cell: fit, predict and score, then a checkpoint save,
load and re-predict. A round runs every cell of the workload once; a run
repeats whole rounds until its time is up, so every run attempts the same
operations in the same proportions.
"""

from __future__ import annotations

from dataclasses import dataclass

from corpus import CorpusSpec

# Sweep defaults (SweepSpec / `geograph train`), shared by every workload.
LAMBDA = 1.0
BUCKET = 50
MIN_DF = 2
MAX_DF_RATIO = 0.5
MAX_COMENTION_DEGREE = 1000


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: CorpusSpec
    cells: tuple[tuple[str, int], ...]  # (sweep model name, depth)
    fraction: float = 1.0
    hidden: int = 64
    epochs: int = 50
    lr: float = 1e-2
    dropout: float = 0.5


# The 1,000-user corpus is the depth-study corpus: per-user text is
# informative and cross-region mixing is high enough that ungated depth hurts.
DEPTH_CORPUS = CorpusSpec(n_users=1000)

WORKLOADS = {
    w.name: w
    for w in (
        # autodiff/optim/spmm carry the run; the gated/ungated depth-6 pair
        # isolates the highway gate ops and the tape they keep alive.
        Workload("gcn-deep", DEPTH_CORPUS, (("gcn", 2), ("gcn", 6), ("gcn-nohighway", 6))),
        # Same network as gcn-deep's first cell plus the label block, whose
        # input is rebuilt through sparse construction every latched epoch.
        Workload("gcn-lp", DEPTH_CORPUS, (("gcn-lp", 2),)),
        # Loading, the Python mention-graph build, a 128-class tree and
        # scoring are a real share here; few epochs on a large a_hat. Mention
        # rates are a fifth of the small corpus's: every handle's mentioners
        # are cliqued together, so the graph grows with the square of them.
        Workload("pipeline-10k", CorpusSpec(n_users=10_000, p_in=0.004, p_out=0.0008),
                 (("gcn", 2), ("mlp", 1)), fraction=0.1, epochs=10),
    )
}
