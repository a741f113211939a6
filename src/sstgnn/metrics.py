"""Detection metrics and the in-/cross-domain experiment protocols.

AUC is the rank-based Mann-Whitney statistic (exact ties credit 0.5);
accuracy thresholds scores at `model.THRESHOLD` (0.5), >= inclusive.
Protocols train on one seed range and test on a disjoint one; fake
clips reuse the real seeds of their split so each fake is the
manipulated twin of a real clip (content-matched pairs, so only the
artifact separates the classes).
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

import numpy as np

from . import model as model_mod
from .model import TrainConfig, config_hash, train_clips
from .synth import FAKE_FAMILIES, SynthSpec, make_corpus


def _scored(scores, labels, metric):
    """Scores and labels as equal-length float and int vectors, every
    score finite; ValueError otherwise."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=np.intp)
    if s.shape != y.shape or s.ndim != 1:
        raise ValueError("scores and labels must be equal-length vectors")
    if not np.isfinite(s).all():
        raise ValueError(f"{metric} undefined: scores must be finite")
    return s, y


def auc(scores, labels) -> float:
    """Mann-Whitney AUC via average ranks; needs both classes present."""
    s, y = _scored(scores, labels, "AUC")
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


def accuracy(scores, labels) -> float:
    s, y = _scored(scores, labels, "accuracy")
    if len(s) == 0:
        raise ValueError("accuracy needs at least one sample")
    return float(np.mean((s >= model_mod.THRESHOLD) == (y == 1)))


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
    intersect, which generate-time assertions enforce. Clips have
    `SynthSpec`'s default geometry and the channel count the model takes,
    ``train.channels``.
    """

    train: TrainConfig = field(default_factory=TrainConfig)
    families: tuple = FAKE_FAMILIES
    n_train: int = 64
    n_test: int = 32
    seed: int = 1000
    frames: int = SynthSpec.frames
    height: int = SynthSpec.height
    width: int = SynthSpec.width

    def train_seeds(self):
        return range(self.seed, self.seed + self.n_train)

    def test_seeds(self):
        return range(self.seed + self.n_train,
                     self.seed + self.n_train + self.n_test)

    def corpus(self, families, seeds):
        return make_corpus(families, seeds, frames=self.frames, height=self.height,
                           width=self.width, channels=self.train.channels)


def _check_disjoint(train_seeds, test_seeds):
    overlap = set(train_seeds) & set(test_seeds)
    if overlap:
        raise ValueError(f"train/test seed ranges overlap: {sorted(overlap)[:5]}")


def evaluate_model(params, config, clips, threads=1):
    """Score labeled clips; returns (accuracy, auc, scores). ``threads``
    is unused, kept because perfbench passes it."""
    scores = model_mod.score_clips(clips, params, config)
    labels = np.array([c.label for c in clips])
    return accuracy(scores, labels), auc(scores, labels), scores


def family_rows(clips, scores, *, protocol, train_set, seed, config_hash):
    """One ReportRow per fake family among the labeled ``clips``, in the
    order the families first appear. ``scores`` holds one score per clip,
    so every clip is scored once; each family's fakes count against all
    the real clips."""
    scores = np.asarray(scores)
    real = scores[[c.label == 0 for c in clips]]
    rows = []
    for family in dict.fromkeys(c.family for c in clips if c.label == 1):
        fake = scores[[c.family == family for c in clips]]
        cell = np.concatenate([real, fake])
        labels = np.repeat([0, 1], [len(real), len(fake)])
        rows.append(ReportRow(protocol, train_set, family, len(cell), accuracy(cell, labels),
                              auc(cell, labels), seed, config_hash))
    return rows


def run_protocol(kind, pcfg: ProtocolConfig, train_families=None,
                 out_csv=None) -> MetricReport:
    """in_domain trains/tests per family; one_to_many trains on one fake
    family and tests the held-out ones; many_to_many trains on a subset
    and tests its complement. Each (family, seed) clip is generated once
    per run, and each trained model scores the held-out real clips once."""
    if kind == "in_domain":
        cells = [((fam,), (fam,)) for fam in pcfg.families]
    elif kind in ("one_to_many", "many_to_many"):
        if kind == "one_to_many" and len(train_families or ()) != 1:
            raise ValueError("one_to_many needs exactly one train family")
        if not train_families:
            raise ValueError("many_to_many needs a train family subset")
        held_out = tuple(f for f in pcfg.families if f not in train_families)
        if not held_out:
            raise ValueError(f"{kind} needs a nonempty held-out set")
        cells = [(tuple(train_families), held_out)]
    else:
        raise ValueError(f"unknown protocol {kind!r}")

    _check_disjoint(pcfg.train_seeds(), pcfg.test_seeds())
    real_train = pcfg.corpus(("real",), pcfg.train_seeds())
    real_test = pcfg.corpus(("real",), pcfg.test_seeds())
    report = MetricReport()
    for train_set, test_families in cells:
        params, _ = train_clips(real_train + pcfg.corpus(train_set, pcfg.train_seeds()),
                                pcfg.train)
        clips = real_test + pcfg.corpus(test_families, pcfg.test_seeds())
        report.rows.extend(family_rows(
            clips, model_mod.score_clips(clips, params, pcfg.train), protocol=kind,
            train_set="+".join(train_set), seed=pcfg.seed,
            config_hash=config_hash(pcfg.train)))
    if out_csv:
        report.write_csv(out_csv)
    return report


def dump_embeddings(path, clips, rows):
    """Write each labeled clip's pooled feature row (`model.score_and_embed`)
    to CSV for external analysis."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["family", "label"] + [f"z{i}" for i in range(len(rows[0]))])
        for clip, z in zip(clips, rows):
            writer.writerow([clip.family, clip.label] +
                            [f"{v:.8g}" for v in z])
