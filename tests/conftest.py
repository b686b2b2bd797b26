"""Shared fixtures: small corpora and synthetic classification data."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.ml.validation import app_level_split
from repro.workloads.benign import BENIGN_FAMILIES
from repro.workloads.corpus import CorpusBuilder
from repro.workloads.malware import MALWARE_FAMILIES


@pytest.fixture(scope="session")
def capped_python():
    """Run Python source in a child process whose file writes fail with
    ``EFBIG`` ("File too large") past ``limit`` bytes: a disk filling up
    in the middle of a write.  Returns the completed process."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))

    def run(code: str, limit: int) -> subprocess.CompletedProcess:
        prelude = (
            "import resource\n"
            "_, hard = resource.getrlimit(resource.RLIMIT_FSIZE)\n"
            f"resource.setrlimit(resource.RLIMIT_FSIZE, ({limit}, hard))\n"
        )
        return subprocess.run(
            [sys.executable, "-c", prelude + code],
            env=env, capture_output=True, text=True, timeout=120,
        )

    return run


@pytest.fixture(scope="session")
def small_corpus():
    """Full family mix, few windows per app — fast but realistic."""
    builder = CorpusBuilder(
        families=BENIGN_FAMILIES + MALWARE_FAMILIES,
        seed=2018,
        windows_per_app=8,
    )
    return builder.build()


@pytest.fixture(scope="session")
def small_split(small_corpus):
    """The paper's 70/30 application-level split of the small corpus."""
    return app_level_split(small_corpus, train_fraction=0.7, seed=7)


@pytest.fixture(scope="session")
def blobs():
    """Well-separated 2-class blobs: any sane classifier should ace them."""
    rng = np.random.default_rng(0)
    n = 300
    x0 = rng.normal(loc=[-2.0, -2.0, 0.0], scale=0.6, size=(n, 3))
    x1 = rng.normal(loc=[2.0, 2.0, 0.5], scale=0.6, size=(n, 3))
    features = np.vstack([x0, x1])
    labels = np.concatenate([np.zeros(n, dtype=np.intp), np.ones(n, dtype=np.intp)])
    order = rng.permutation(2 * n)
    return features[order], labels[order]


@pytest.fixture(scope="session")
def xor_data():
    """Four-cluster XOR layout: linearly inseparable, multimodal."""
    rng = np.random.default_rng(1)
    n = 150
    centers0 = [(0.0, 0.0), (3.0, 3.0)]
    centers1 = [(0.0, 3.0), (3.0, 0.0)]
    xs, ys = [], []
    for label, centers in ((0, centers0), (1, centers1)):
        for cx, cy in centers:
            xs.append(rng.normal([cx, cy], 0.55, size=(n, 2)))
            ys.append(np.full(n, label, dtype=np.intp))
    features = np.vstack(xs)
    labels = np.concatenate(ys)
    order = rng.permutation(len(labels))
    return features[order], labels[order]


def train_test(features: np.ndarray, labels: np.ndarray, frac: float = 0.75):
    """Deterministic split helper for the synthetic fixtures."""
    cut = int(len(labels) * frac)
    return features[:cut], labels[:cut], features[cut:], labels[cut:]
