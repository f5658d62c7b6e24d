"""Independent output checks, written with plain numpy and the stdlib.

Nothing here calls xlc: the checks recompute what the program should have
produced from its saved parameters and the generated inputs.
"""

from __future__ import annotations

import math
import re

import numpy as np

from gen import Corpus


def latent(rows: np.ndarray, kind: str, params: dict) -> np.ndarray:
    """clamp(regressor(rows)) for a ridge or one-hidden-layer model."""
    if kind == "ridge-linear":
        out = rows @ params["theta"] + params["intercept"]
    else:
        hidden = np.maximum(rows @ params["w1"] + params["b1"], 0.0)
        out = hidden @ params["w2"] + params["b2"]
    return np.maximum(out, 0.0)


def decode(latent_rows: np.ndarray, layers) -> np.ndarray:
    """latent H_L^T ... H_1^T."""
    a = latent_rows
    for h in reversed(layers):
        a = a @ h.T
    return a


def ranked_ok(ref: np.ndarray, idx, scores=None, best=None,
              score_rtol=1e-9, tie_rtol=1e-9) -> bool:
    """Is idx the top-len(idx) of ref under (-score, index) order?

    Two orderings that differ only where reference scores agree to within
    tie_rtol of the largest score are both accepted, since the program and
    the oracle sum in different orders. scores, when given, are the
    program's scores for idx and must match the reference to score_rtol.
    """
    idx = np.asarray(idx, dtype=np.int64)
    n = idx.size
    if n == 0 or n > ref.size or len(set(idx.tolist())) != n:
        return False
    if idx.min() < 0 or idx.max() >= ref.size:
        return False
    scale = max(float(np.abs(ref).max()), 1e-300)
    if scores is not None:
        got = np.asarray(scores, dtype=np.float64)
        if np.any(np.abs(got - ref[idx]) > score_rtol * np.abs(ref[idx]) + 1e-12 * scale):
            return False
    best = top_order(ref, n) if best is None else best
    if np.array_equal(best, idx):
        return True
    return bool(np.all(np.abs(ref[idx] - ref[best]) <= tie_rtol * scale))


def top_order(ref: np.ndarray, n: int) -> np.ndarray:
    """First n labels by descending score, ascending index on ties."""
    return np.lexsort((np.arange(ref.size), -ref))[:n]


def precision_ndcg(ranked, truth, k: int) -> tuple[float, float]:
    """P@k and binary-gain nDCG@k of a ranked label list."""
    truth = set(truth)
    top = list(ranked)[:k]
    hits = [1.0 if j in truth else 0.0 for j in top]
    dcg = sum(h / math.log2(i + 2) for i, h in enumerate(hits))
    ideal = sum(1.0 / math.log2(i + 2) for i in range(min(k, len(truth))))
    return sum(hits) / k, dcg / ideal


def recon_loss(labels, p: int, layers, chunk: int = 512) -> float:
    """||V - V E E^T||_F^2 for a binary V given as per-row label lists,
    densified a row block at a time with plain numpy."""
    e = layers[0]
    for h in layers[1:]:
        e = e @ h
    total = 0.0
    for start in range(0, len(labels), chunk):
        block = labels[start:start + chunk]
        vb = np.zeros((len(block), p))
        for i, labs in enumerate(block):
            vb[i, labs] = 1.0
        r = vb - (vb @ e) @ e.T
        total += float(np.sum(r * r))
    return total


def split_rows(n_rows: int, test_frac: float, seed: int):
    """The seeded split `xlc fit-reg` documents: a PCG64 permutation whose
    first floor(n * frac) entries are the test rows."""
    perm = np.random.Generator(np.random.PCG64(int(seed))).permutation(n_rows)
    n_test = int(n_rows * test_frac)
    return np.sort(perm[n_test:]), np.sort(perm[:n_test])


def parse_dataset(text: str) -> Corpus:
    """The rows of a dataset text file."""
    lines = text.split("\n")
    n, d, p = (int(t) for t in lines[0].split())
    labels, features = [], []
    for line in lines[1:n + 1]:
        toks = line.split()
        labs = []
        if toks and ":" not in toks[0]:
            labs = [int(t) for t in toks[0].split(",")]
            toks = toks[1:]
        labels.append(labs)
        features.append([(int(j), float(val)) for j, _, val in
                         (tok.partition(":") for tok in toks)])
    return Corpus(labels, features, d, p)


_PRED_LINE = re.compile(r"^row (\d+):(.*)$")


def parse_predictions(text: str) -> list[tuple[list[int], list[float]]]:
    """Rows of `xlc predict` output as (labels, scores) in file order."""
    out = []
    for i, line in enumerate(text.strip("\n").split("\n")):
        m = _PRED_LINE.match(line)
        if m is None or int(m.group(1)) != i:
            raise ValueError(f"bad prediction line {i}: {line!r}")
        pairs = [t.split(":") for t in m.group(2).split()]
        out.append(([int(a) for a, _ in pairs], [float(b) for _, b in pairs]))
    return out


def parse_eval(text: str) -> dict:
    """{'rows': int, 'P@k': float, 'nDCG@k': float, ...} from `xlc eval`."""
    out = {}
    for line in text.strip().split("\n"):
        if line.startswith("rows evaluated:"):
            out["rows"] = int(line.split(":")[1].split()[0])
        else:
            key, _, val = line.partition(" = ")
            out[key] = float(val)
    return out
