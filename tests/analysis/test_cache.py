"""Content-addressed result cache: keys, atomicity, corruption handling."""

import json

import pytest

from repro.analysis.cache import (
    CacheError,
    ResultCache,
    dataset_fingerprint,
    record_cache_key,
)
from repro.analysis.records import EvalRecord, HardwareRecord, RocRecord
from repro.core.config import DetectorConfig
from repro.ioutil import atomic_write_text
from repro.workloads.benign import BENIGN_FAMILIES
from repro.workloads.corpus import CorpusBuilder
from repro.workloads.malware import MALWARE_FAMILIES

EVAL = EvalRecord("OneR", "general", 2, 0.8, 0.75)
HARDWARE = HardwareRecord("OneR", "general", 2, 1, 2.5, 10, 5, 0, 0)
ROC = RocRecord("OneR", "general", 2, (0.0, 1.0), (0.0, 1.0), 0.5)


def _key(**overrides):
    defaults = dict(
        corpus="abc",
        train_fraction=0.7,
        seeds=(7,),
        config=DetectorConfig("OneR", "general", 2),
        kind="eval",
    )
    defaults.update(overrides)
    return record_cache_key(**defaults)


# ----------------------------------------------------------------------
# fingerprint / key sensitivity
# ----------------------------------------------------------------------

def test_fingerprint_deterministic(small_corpus):
    assert dataset_fingerprint(small_corpus) == dataset_fingerprint(small_corpus)


def test_fingerprint_tracks_content():
    build = lambda windows: CorpusBuilder(
        families=BENIGN_FAMILIES + MALWARE_FAMILIES, seed=2018,
        windows_per_app=windows,
    ).build()
    assert dataset_fingerprint(build(4)) != dataset_fingerprint(build(5))


def test_key_is_stable():
    assert _key() == _key()


@pytest.mark.parametrize(
    "override",
    [
        {"corpus": "other"},
        {"train_fraction": 0.8},
        {"seeds": (7, 8)},
        {"config": DetectorConfig("OneR", "general", 4)},
        {"config": DetectorConfig("OneR", "boosted", 2)},
        {"config": DetectorConfig("OneR", "general", 2, feature_method="information_gain")},
        {"config": DetectorConfig("OneR", "general", 2, seed=1)},
        {"kind": "hardware"},
        {"extra": {"max_points": 100}},
    ],
)
def test_key_tracks_every_dependency(override):
    assert _key(**override) != _key()


# ----------------------------------------------------------------------
# atomic writes
# ----------------------------------------------------------------------

def test_atomic_write_creates_parents_and_no_tmp_leftovers(tmp_path):
    target = tmp_path / "a" / "b.json"
    atomic_write_text(target, "hello")
    assert target.read_text() == "hello"
    atomic_write_text(target, "world")  # overwrite in place
    assert target.read_text() == "world"
    assert list(tmp_path.rglob("*.tmp")) == []


# ----------------------------------------------------------------------
# ResultCache behaviour
# ----------------------------------------------------------------------

@pytest.mark.parametrize("record", [EVAL, HARDWARE, ROC])
def test_round_trip_all_kinds(tmp_path, record):
    cache = ResultCache(tmp_path / "cache")
    key = _key(kind=type(record).__name__)
    assert cache.get(key) is None
    cache.put(key, record)
    assert key in cache
    assert cache.get(key) == record


def test_miss_and_hit_stats(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    key = _key()
    cache.get(key)
    cache.put(key, EVAL)
    cache.get(key)
    assert cache.stats.misses == 1
    assert cache.stats.writes == 1
    assert cache.stats.hits == 1


def test_root_must_be_a_directory(tmp_path):
    not_a_dir = tmp_path / "plain-file"
    not_a_dir.write_text("occupied")
    with pytest.raises(CacheError, match="not a directory"):
        ResultCache(not_a_dir)


def test_corrupt_entry_is_a_miss_and_removed(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    key = _key()
    cache.put(key, EVAL)
    cache.path_of(key).write_text('{"kind": "EvalRecord", "data": {"class')
    assert cache.get(key) is None
    assert cache.stats.corrupt == 1
    assert key not in cache
    # The slot is reusable after corruption.
    cache.put(key, EVAL)
    assert cache.get(key) == EVAL


def test_schema_mismatch_is_corrupt(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    key = _key()
    payload = {"kind": "EvalRecord", "data": {"not_a_field": 1}}
    cache.path_of(key).parent.mkdir(parents=True)
    cache.path_of(key).write_text(json.dumps(payload))
    assert cache.get(key) is None
    assert cache.stats.corrupt == 1


@pytest.mark.parametrize(
    "text", ['{"not": "a record"}', "[1, 2]", '{"kind": "Mystery", "data": {}}']
)
def test_unreadable_payload_is_corrupt(tmp_path, text):
    cache = ResultCache(tmp_path / "cache")
    key = _key()
    cache.path_of(key).parent.mkdir(parents=True)
    cache.path_of(key).write_text(text)
    assert cache.get(key) is None
    assert cache.stats.corrupt == 1
    assert key not in cache


def test_len_and_clear(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    assert len(cache) == 0
    cache.put(_key(), EVAL)
    cache.put(_key(kind="hardware"), HARDWARE)
    assert len(cache) == 2
    assert cache.clear() == 2
    assert len(cache) == 0


def test_cache_error_is_runtime_error():
    assert issubclass(CacheError, RuntimeError)


# ----------------------------------------------------------------------
# cache metrics
# ----------------------------------------------------------------------

def test_cache_publishes_hit_miss_corrupt_and_write_metrics(tmp_path):
    from repro.obs import Registry

    metrics = Registry()
    cache = ResultCache(tmp_path / "cache", metrics=metrics)
    record = EvalRecord("OneR", "general", 2, 0.7, 0.8)
    key = "ab" + "0" * 62

    assert cache.get(key) is None          # miss
    cache.put(key, record)                 # write
    assert cache.get(key) == record        # hit
    cache.path_of(key).write_text("{ torn")  # corrupt -> miss + discard
    assert cache.get(key) is None

    snap = metrics.snapshot()
    counters = {name: data["value"] for name, data in snap["counters"].items()}
    assert counters["cache_hits_total"] == 1.0
    assert counters["cache_misses_total"] == 2.0
    assert counters["cache_corrupt_total"] == 1.0
    assert counters["cache_writes_total"] == 1.0
    assert counters["cache_bytes_written_total"] > 0
    write_hist = snap["histograms"]["cache_write_seconds"]
    assert write_hist["count"] == 1
    assert write_hist["sum"] > 0.0
    # The registry view agrees with the in-process CacheStats.
    assert cache.stats.hits == 1 and cache.stats.misses == 2
    assert cache.stats.corrupt == 1 and cache.stats.writes == 1


def test_cache_without_metrics_still_tracks_stats(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    record = EvalRecord("OneR", "general", 2, 0.7, 0.8)
    key = "cd" + "1" * 62
    cache.put(key, record)
    assert cache.get(key) == record
    assert cache.stats.hits == 1 and cache.stats.writes == 1
