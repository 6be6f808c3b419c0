#!/usr/bin/env python3
"""Check that the working tree writes the same output bytes as a git ref.

    python3 tools/same_outputs.py [--ref REF]

Checks ``REF`` (default ``HEAD``) out with ``git worktree add --detach`` into a
temporary directory and removes that worktree afterwards. In the worktree and
in the working tree it runs the same fixed-seed runs: ``synth`` corpora of 300
and 1,000 users; short ``train`` runs of every model kind, each followed by an
``eval`` of its checkpoint; and a sweep of all five models over two labeled
fractions, two depths and two seeds. A small hand-written corpus, whose
``edges.tsv`` mixes the case of names and holds repeated rows, unknown
mentioners, handles that name no user, a hub, a blank line, a line of only
spaces and a tab, a CRLF line and no final newline, and whose users include
one with empty text and one whose text is only mentions, gets one ``train``
run with its ``eval`` and a sweep that caps co-mentions below the hub's
degree. Each run
uses ``PYTHONPATH=<tree>/src``. The ref runs at ``OPENBLAS_NUM_THREADS=1`` and
the working tree at the thread count it inherits, so no differing file shows
both that the bytes are unchanged and that they do not depend on the count.

Every file the runs write is compared byte for byte, except that ``seconds``,
a wall-clock time, is dropped from each ``report.json`` first. Each file that
differs or exists on one side only is printed, and the exit status is 1 if
any does. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

_SHORT = ["--hidden", "16", "--epochs", "40"]
_SMALL_DCCA = ["--proj-hidden", "8", "--proj-out", "4", "--stage1-epochs", "20"]
# Run name -> (corpus, extra train arguments).
TRAIN_RUNS = {
    "gcn-d1": ("c300", ["--model", "gcn", "--layers", "1"]),
    "gcn-d3": ("c300", ["--model", "gcn", "--layers", "3"]),
    "gcn-nohighway-d3": ("c300", ["--model", "gcn-nohighway", "--layers", "3"]),
    # Five stacked gates, and the ungated VJP order, six layers deep.
    "gcn-d6": ("c300", ["--model", "gcn", "--layers", "6"]),
    "gcn-nohighway-d6": ("c300", ["--model", "gcn-nohighway", "--layers", "6"]),
    "gcn-lp-d2": ("c300", ["--model", "gcn-lp", "--layers", "2"]),
    "mlp": ("c300", ["--model", "mlp", "--labeled-fraction", "0.5", "--tree-from", "all-train"]),
    "gcn-early-stop": ("c300", ["--model", "gcn", "--early-stop"]),
    "gcn-lp-early-stop": ("c300", ["--model", "gcn-lp", "--early-stop"]),
    "dcca": ("c300", ["--model", "dcca", *_SMALL_DCCA]),
    "gcn-d2-1000": ("c1000", ["--model", "gcn", "--layers", "2"]),
    "hand-gcn-d2": ("hand", ["--model", "gcn", "--layers", "2", "--bucket", "4"]),
}
# The sweeps set ``hidden``, ``epochs`` and ``lr`` themselves, so the runs
# they compare stay the same when SweepSpec's defaults for them change.
SWEEP = {
    "models": ["gcn", "gcn-nohighway", "gcn-lp", "mlp", "dcca"],
    "fractions": [0.5, 1.0],
    "depths": [1, 2],
    "seeds": [0, 1],
    "hidden": 16,
    "epochs": 40,
    "lr": 0.01,
    "dcca": {"proj_hidden": 8, "proj_out": 4, "stage1_epochs": 20},
    "dataset": {"users": "c300/users.jsonl", "edges": "c300/edges.tsv"},
}
HAND_SWEEP = {
    "models": ["gcn", "gcn-lp", "mlp"],
    "depths": [1, 2],
    "hidden": 16,
    "epochs": 40,
    "lr": 0.01,
    "bucket": 4,
    "max_comention_degree": 2,
    "dataset": {"users": "hand/users.jsonl", "edges": "hand/edges.tsv"},
}


def write_hand_corpus(out: Path) -> None:
    """24 users in two regions, and mention rows that reach every branch of the
    graph build: each user names a neighbour in another case and ``Hub``,
    which all of them mention; some share a ``Local`` handle, repeat a row or
    are named by ``ghost``, which is no user. ``user12``'s text is empty and
    ``User13``'s holds only mentions. Lines that hold no pair, a CRLF ending
    and a missing final newline exercise the edges file's line handling."""
    out.mkdir(parents=True)
    ids = [f"User{i:02d}" if i % 3 else f"user{i:02d}" for i in range(24)]
    splits = ["train", "train", "train", "dev", "test"]
    with open(out / "users.jsonl", "w", encoding="utf-8") as fh:
        for i, uid in enumerate(ids):
            region = i % 2
            text = " ".join(f"{word}{region}" for word in ("coast", "river", "hill")[: 1 + i % 3])
            text = {12: "", 13: "@Hub @user12 @hub"}.get(i, f"{text} shared word{i % 4}")
            row = {"id": uid, "lat": 30.0 + 10.0 * region + 0.1 * (i % 5),
                   "lon": -100.0 + 0.1 * (i % 7), "text": text, "split": splits[i % 5]}
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    rows = []
    for i, uid in enumerate(ids):
        rows.append((uid.upper() if i % 2 else uid, ids[(i + 2) % 24].swapcase()))
        rows.append((uid, "HUB" if i % 4 else "Hub"))
        if i % 6 < 2:
            rows.append((uid.lower(), f"Local{i // 6}"))
        if i % 5 == 0:
            rows.extend([("ghost", uid), (uid, ids[(i + 2) % 24].swapcase())])
    rows.append(("Stranger", "hub"))
    lines = [f"{a}\t{b}\n" for a, b in rows]
    lines[3] += "\n"
    lines[7] += " \t \n"
    lines[10] = lines[10].replace("\n", "\r\n")
    (out / "edges.tsv").write_text("".join(lines).rstrip("\n"), encoding="utf-8", newline="")


def run_all(tree: Path, out: Path, env: dict[str, str]) -> None:
    """Write every run's outputs under ``out``, with the package of ``tree``
    and the environment ``env``."""
    out.mkdir(parents=True)
    env = {**env, "PYTHONPATH": str(tree / "src")}

    def geograph(*args: str) -> str:
        done = subprocess.run([sys.executable, "-m", "geograph", *args], cwd=out, env=env,
                              capture_output=True, text=True)
        if done.returncode != 0:
            raise SystemExit(f"{tree}: geograph {' '.join(args)} exited {done.returncode}:\n"
                             f"{done.stderr}")
        return done.stdout

    for corpus, users in (("c300", "300"), ("c1000", "1000")):
        geograph("synth", "--out", corpus, "--n-users", users, "--seed", "0")
    write_hand_corpus(out / "hand")
    for name, (corpus, extra) in TRAIN_RUNS.items():
        data = ["--users", f"{corpus}/users.jsonl", "--edges", f"{corpus}/edges.tsv"]
        geograph("train", *data, *_SHORT, *extra, "--out", name)
        (out / name / "eval.json").write_text(
            geograph("eval", "--model", f"{name}/model.ckpt", *data), encoding="utf-8")
    for name, spec in (("sweep", SWEEP), ("hand-sweep", HAND_SWEEP)):
        (out / f"{name}.json").write_text(json.dumps(spec), encoding="utf-8")
        geograph("sweep", "--spec", f"{name}.json", "--out", name)


def _without_seconds(value):
    if isinstance(value, dict):
        return {k: _without_seconds(v) for k, v in value.items() if k != "seconds"}
    if isinstance(value, list):
        return [_without_seconds(v) for v in value]
    return value


def _content(path: Path) -> bytes:
    if path.name == "report.json":
        return json.dumps(_without_seconds(json.loads(path.read_bytes())), sort_keys=True).encode()
    return path.read_bytes()


def differing_files(ref_out: Path, work_out: Path) -> tuple[list[str], int]:
    """The relative paths whose contents differ, or that one side lacks, and
    the number of paths compared."""
    ref = {p.relative_to(ref_out) for p in ref_out.rglob("*") if p.is_file()}
    work = {p.relative_to(work_out) for p in work_out.rglob("*") if p.is_file()}
    differ = sorted(str(p) for p in ref ^ work) + sorted(
        str(p) for p in ref & work if _content(ref_out / p) != _content(work_out / p))
    return differ, len(ref | work)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--ref", default="HEAD", help="git ref to compare against (default HEAD)")
    ref = parser.parse_args().ref
    with tempfile.TemporaryDirectory(prefix="same_outputs-") as tmp:
        tmp = Path(tmp)
        checkout = tmp / "ref"
        subprocess.run(["git", "-C", str(REPO), "worktree", "add", "--detach", "--quiet",
                        str(checkout), ref], check=True)
        try:
            run_all(checkout, tmp / "ref-out", {**os.environ, "OPENBLAS_NUM_THREADS": "1"})
        finally:
            subprocess.run(["git", "-C", str(REPO), "worktree", "remove", "--force",
                            str(checkout)], check=True)
        run_all(REPO, tmp / "work-out", dict(os.environ))
        differ, compared = differing_files(tmp / "ref-out", tmp / "work-out")
    for path in differ:
        print(f"differs: {path}")
    print(f"{len(differ)} of {compared} files differ from {ref}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
