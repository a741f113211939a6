"""Fixtures shared across test modules."""

import time

import pytest

from sstgnn import metrics, model


@pytest.fixture(scope="session")
def trained_detector():
    """The A5 detector: trained on 64+64 upsample_artifact desk clips.
    Returns (protocol config, params, history, training seconds)."""
    pcfg = metrics.ProtocolConfig(
        train=model.TrainConfig(seed=7), families=("upsample_artifact",),
        n_train=64, n_test=32, seed=1000)
    t0 = time.perf_counter()
    params, history = model.train_clips(
        pcfg.corpus(("real", "upsample_artifact"), pcfg.train_seeds()), pcfg.train)
    elapsed = time.perf_counter() - t0
    return pcfg, params, history, elapsed
