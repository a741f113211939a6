"""Detection metrics and the in-/cross-domain experiment protocols.

AUC is the rank-based Mann-Whitney statistic (exact ties credit 0.5);
accuracy thresholds scores at 0.5 with >= inclusive. Protocols train on
one seed range and test on a disjoint one; fake clips reuse the real
seeds of their split so each fake is the manipulated twin of a real clip
(content-matched pairs, so only the artifact separates the classes).
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

import numpy as np

from . import model as model_mod
from .model import TrainConfig, config_hash, train_clips
from .synth import FAKE_FAMILIES, make_corpus
from .utils import parallel_map


def auc(scores, labels) -> float:
    """Mann-Whitney AUC via average ranks; needs both classes present."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=np.intp)
    if s.shape != y.shape or s.ndim != 1:
        raise ValueError("scores and labels must be equal-length vectors")
    if not np.isfinite(s).all():
        raise ValueError("AUC undefined: scores must be finite")
    n_pos = int((y == 1).sum())
    n_neg = int((y == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC undefined: both classes must be present")
    # a tie group's average rank: its last 1-based rank less half its
    # width (half-integers, exact in float64)
    _, group, counts = np.unique(s, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2)[group]
    u = ranks[y == 1].sum() - n_pos * (n_pos + 1) / 2
    return float(u / (n_pos * n_neg))


def accuracy(scores, labels, threshold=0.5) -> float:
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=np.intp)
    if len(s) == 0:
        raise ValueError("accuracy needs at least one sample")
    return float(np.mean((s >= threshold) == (y == 1)))


@dataclass(frozen=True)
class ReportRow:
    protocol: str
    train_set: str
    test_family: str
    n: int
    accuracy: float
    auc: float
    seed: int
    config_hash: str


@dataclass
class MetricReport:
    rows: list = field(default_factory=list)

    def mean_auc(self):
        return float(np.mean([r.auc for r in self.rows]))

    def to_csv_string(self):
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["protocol", "train_set", "test_family", "n",
                         "accuracy", "auc", "seed", "config_hash"])
        for r in self.rows:
            writer.writerow([r.protocol, r.train_set, r.test_family, r.n,
                             f"{r.accuracy:.6f}", f"{r.auc:.6f}", r.seed,
                             r.config_hash])
        return buf.getvalue()

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            fh.write(self.to_csv_string())


@dataclass(frozen=True)
class ProtocolConfig:
    """Corpus geometry and split layout for one experiment run.

    Train clips take seeds [seed, seed + n_train); test clips take
    [seed + n_train, seed + n_train + n_test). The ranges must never
    intersect, which generate-time assertions enforce.
    """

    train: TrainConfig = field(default_factory=TrainConfig)
    families: tuple = FAKE_FAMILIES
    n_train: int = 64
    n_test: int = 32
    seed: int = 1000
    frames: int = 8
    height: int = 64
    width: int = 64
    channels: int = 1
    threads: int = 1     # eval workers; training runs one tape per minibatch

    def train_seeds(self):
        return range(self.seed, self.seed + self.n_train)

    def test_seeds(self):
        return range(self.seed + self.n_train,
                     self.seed + self.n_train + self.n_test)

    def clip_kw(self):
        return dict(frames=self.frames, height=self.height,
                    width=self.width, channels=self.channels)

    def corpus(self, families, seeds):
        return make_corpus(families, seeds, **self.clip_kw())


def _check_disjoint(train_seeds, test_seeds):
    overlap = set(train_seeds) & set(test_seeds)
    if overlap:
        raise ValueError(f"train/test seed ranges overlap: {sorted(overlap)[:5]}")


def evaluate_model(params, config, clips, threads=1):
    """Score labeled clips; returns (accuracy, auc, scores)."""
    scores = model_mod.score_clips(clips, params, config, threads)
    labels = np.array([c.label for c in clips])
    return accuracy(scores, labels), auc(scores, labels), scores


def train_on_families(pcfg: ProtocolConfig, fake_families):
    """Train one model on real + the given fake families."""
    _check_disjoint(pcfg.train_seeds(), pcfg.test_seeds())
    corpus = pcfg.corpus(("real",) + tuple(fake_families), pcfg.train_seeds())
    return train_clips(corpus, pcfg.train)


def test_cell(pcfg: ProtocolConfig, params, family):
    """Evaluate on held-out real + held-out clips of one fake family."""
    clips = pcfg.corpus(("real", family), pcfg.test_seeds())
    acc, area, _ = evaluate_model(params, pcfg.train, clips, pcfg.threads)
    return acc, area, len(clips)


def run_protocol(kind, pcfg: ProtocolConfig, train_families=None,
                 out_csv=None) -> MetricReport:
    """in_domain trains/tests per family; one_to_many trains on one fake
    family and tests the held-out ones; many_to_many trains on a subset
    and tests its complement."""
    chash = config_hash(pcfg.train)
    report = MetricReport()

    def add(train_set, params, test_families):
        for fam in test_families:
            acc, area, n = test_cell(pcfg, params, fam)
            report.rows.append(ReportRow(kind, train_set, fam, n, acc, area,
                                         pcfg.seed, chash))

    if kind == "in_domain":
        for fam in pcfg.families:
            params, _ = train_on_families(pcfg, [fam])
            add(fam, params, [fam])
    elif kind == "one_to_many":
        if not train_families or len(train_families) != 1:
            raise ValueError("one_to_many needs exactly one train family")
        fam0 = train_families[0]
        params, _ = train_on_families(pcfg, [fam0])
        add(fam0, params, [f for f in pcfg.families if f != fam0])
    elif kind == "many_to_many":
        if not train_families:
            raise ValueError("many_to_many needs a train family subset")
        held_out = [f for f in pcfg.families if f not in train_families]
        if not held_out:
            raise ValueError("many_to_many needs a nonempty held-out set")
        params, _ = train_on_families(pcfg, list(train_families))
        add("+".join(train_families), params, held_out)
    else:
        raise ValueError(f"unknown protocol {kind!r}")

    if out_csv:
        report.write_csv(out_csv)
    return report


def dump_embeddings(path, clips, params, config, threads=1):
    """Write per-clip pooled features to CSV for external analysis."""
    feats = parallel_map(
        lambda c: model_mod.clip_embedding(c.clip, params, config),
        clips, threads)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        dim = len(feats[0])
        writer.writerow(["family", "label"] + [f"z{i}" for i in range(dim)])
        for clip, z in zip(clips, feats):
            writer.writerow([clip.family, clip.label] +
                            [f"{v:.8g}" for v in z])
