"""Seeded input generators for the benchmark workloads.

Each generator takes the workload seed and returns plain numpy data plus
the dataset text it serializes to. The program under test only ever sees
the written files or the arrays built from them; nothing here imports xlc,
so the generated data can serve as an independent oracle for the parser.
"""

from __future__ import annotations

import numpy as np


class Corpus:
    """Generated rows: per-row sorted label lists, per-row sorted
    (feature, value) lists, and the declared widths."""

    def __init__(self, labels, features, n_features, n_labels):
        self.labels = labels
        self.features = features
        self.n_features = n_features
        self.n_labels = n_labels

    @property
    def n_rows(self) -> int:
        return len(self.labels)

    def subset(self, rows) -> "Corpus":
        return Corpus([self.labels[i] for i in rows],
                      [self.features[i] for i in rows],
                      self.n_features, self.n_labels)

    def feature_dense(self) -> np.ndarray:
        x = np.zeros((self.n_rows, self.n_features))
        for i, feats in enumerate(self.features):
            for j, val in feats:
                x[i, j] = val
        return x

    def to_text(self) -> str:
        """The dataset text format, byte for byte as xlc's writer emits it:
        labels ascending and comma-joined, features ascending as j:repr(v)."""
        out = [f"{self.n_rows} {self.n_features} {self.n_labels}\n"]
        for labs, feats in zip(self.labels, self.features):
            parts = [",".join(str(c) for c in labs)] if labs else []
            parts += [f"{j}:{val!r}" for j, val in feats]
            out.append(" ".join(parts) + "\n")
        return "".join(out)

    def properties(self) -> dict:
        """Measured input properties, so claims can cite the share of a
        workload that has a given property."""
        counts = np.bincount(np.concatenate([np.asarray(l, dtype=np.int64)
                                             for l in self.labels]),
                             minlength=self.n_labels)
        nnz = int(counts.sum())
        head10 = float(np.sort(counts)[::-1][:10].sum() / max(nnz, 1))
        feat_nnz = sum(len(f) for f in self.features)
        return {
            "n": self.n_rows, "p": self.n_labels, "d": self.n_features,
            "nnz": nnz,
            "labels_per_row": nnz / self.n_rows,
            "density": nnz / (self.n_rows * self.n_labels),
            "head10_label_share": head10,
            "feature_nnz_per_row": feat_nnz / self.n_rows,
        }


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64([int(seed), stream]))


def uniform_sparse(seed: int, n: int = 4223, p: int = 708,
                   density: float = 0.02, d: int = 32) -> Corpus:
    """The acceptance-criterion-7 shape: uniform random labels at a fixed
    density. The default n leaves 3379 training rows after a 20% holdout. Feature j counts the row's labels that fall in the j-th of d
    random label groups, so features are informative but carry no
    structure the labels themselves lack."""
    rng = _rng(seed, 1)
    dense = rng.random((n, p)) < density
    group = rng.integers(0, d, size=p)
    labels, features = [], []
    for i in range(n):
        labs = np.flatnonzero(dense[i])
        if labs.size == 0:                  # every row carries a label
            labs = np.array([int(rng.integers(0, p))])
        counts = np.bincount(group[labs], minlength=d)
        labels.append(labs.tolist())
        features.append([(int(j), float(counts[j])) for j in np.flatnonzero(counts)])
    return Corpus(labels, features, d, p)


def xml_planted(seed: int, n: int = 4000, p: int = 5000, d: int = 300,
                clusters: int = 25, mean_labels: float = 5.0,
                signature: int = 8, noise_labels: float = 0.1) -> Corpus:
    """XML-shaped planted corpus.

    Labels are split into clusters. A row draws its cluster from a Zipf
    law over clusters and about mean_labels labels from a Zipf law inside
    the cluster, so a few labels form a heavy head and most are rare. Each
    label is swapped for a uniform random one with probability
    noise_labels. Features are sparse: each cluster owns `signature` of the
    d features, a row keeps each signature feature with probability 0.7,
    and adds two uniform noise features.
    """
    rng = _rng(seed, 2)
    perm = rng.permutation(p)
    members = np.array_split(perm, clusters)
    cluster_w = 1.0 / np.arange(1, clusters + 1)
    cluster_w /= cluster_w.sum()
    inner = []
    for m in members:
        w = 1.0 / np.arange(1, m.size + 1) ** 1.1
        inner.append(w / w.sum())
    sig = [rng.choice(d, size=signature, replace=False) for _ in range(clusters)]

    labels, features = [], []
    for _ in range(n):
        c = int(rng.choice(clusters, p=cluster_w))
        k = min(1 + int(rng.poisson(mean_labels - 1.0)), members[c].size)
        labs = set(rng.choice(members[c], size=k, replace=False, p=inner[c]).tolist())
        for lab in list(labs):
            if rng.random() < noise_labels:
                labs.discard(lab)
                labs.add(int(rng.integers(0, p)))
        keep = sig[c][rng.random(signature) < 0.7]
        feats = {int(j): round(float(rng.uniform(0.5, 1.5)), 4) for j in keep}
        for j in rng.integers(0, d, size=2).tolist():
            feats.setdefault(int(j), round(float(rng.uniform(0.0, 1.0)), 4) or 0.5)
        labels.append(sorted(labs))
        features.append(sorted(feats.items()))
    return Corpus(labels, features, d, p)


def session_seed(seed: int, session: int) -> int:
    """Seed of the session-th README CLI session of a cli-small run."""
    return int(_rng(seed, 3 + session).integers(0, 2**31 - 1))
