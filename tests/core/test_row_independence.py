"""Row independence of grading: a batch's verdicts do not depend on what
else is in the batch.

The streaming service grades every execution a worker drains in one
``grade_windows`` call and splits the result, and it must agree bit for
bit with a serial monitor that grades each execution alone.  So any
split of a batch into parts, down to one-row parts, must grade exactly
like the whole batch, for every learner x ensemble configuration.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.config import CLASSIFIER_NAMES, ENSEMBLE_MODES, DetectorConfig
from repro.core.detector import HMDDetector

CONFIGS = [
    DetectorConfig(classifier, ensemble, 4)
    for classifier in CLASSIFIER_NAMES
    for ensemble in ENSEMBLE_MODES
]


@pytest.fixture(scope="module")
def fitted(small_split):
    """Fitted detectors by config, fitted on first use."""
    cache = {}

    def get(config):
        if config not in cache:
            detector = HMDDetector(config).fit(small_split.train)
            windows = detector.reducer.transform(small_split.test).features
            cache[config] = detector, windows, detector.grade_windows(windows)
        return cache[config]

    return get


def _split(n_rows: int, sizes: list[int]) -> list[slice]:
    """Consecutive parts of ``n_rows`` rows, cycling through ``sizes``."""
    parts, start, k = [], 0, 0
    while start < n_rows:
        stop = min(start + sizes[k % len(sizes)], n_rows)
        parts.append(slice(start, stop))
        start, k = stop, k + 1
    return parts


@pytest.mark.parametrize("config", CONFIGS, ids=lambda config: config.name)
@settings(max_examples=15, deadline=None)
@given(sizes=st.lists(st.integers(1, 48), min_size=1, max_size=12))
@example(sizes=[1])
@example(sizes=[1, 2, 3, 5, 37])
def test_any_split_grades_like_the_whole_batch(fitted, config, sizes):
    detector, windows, (flags, scores) = fitted(config)
    parts = [windows[part] for part in _split(len(windows), sizes)]
    graded = [detector.grade_windows(part) for part in parts]
    split_flags = np.concatenate([part_flags for part_flags, _ in graded])
    split_scores = np.concatenate([part_scores for _, part_scores in graded])
    assert split_flags.dtype == flags.dtype
    assert split_flags.tobytes() == flags.tobytes()
    assert split_scores.tobytes() == scores.tobytes()


@pytest.mark.parametrize("config", CONFIGS, ids=lambda config: config.name)
def test_one_row_batches_agree_across_entry_points(fitted, config):
    """predict_windows and decision_scores_windows grade a lone row like
    grade_windows does, so trace replay and live monitoring agree."""
    detector, windows, (flags, scores) = fitted(config)
    rows = [windows[i : i + 1] for i in range(len(windows))]
    one_flags = np.concatenate([detector.predict_windows(row) for row in rows])
    one_scores = np.concatenate(
        [detector.decision_scores_windows(row) for row in rows]
    )
    assert one_flags.dtype == flags.dtype
    assert one_flags.tobytes() == flags.tobytes()
    assert one_scores.tobytes() == scores.tobytes()
    assert detector.predict_windows(windows).tobytes() == flags.tobytes()
    assert detector.decision_scores_windows(windows).tobytes() == scores.tobytes()
