"""Regressions for the report/metrics dump sites.

Two historical bugs, pinned here so they stay dead:

* **Torn writes** — ``Registry.dump``, ``HealthEvaluator.dump`` and
  ``QualityTracker.dump`` used a bare ``Path.write_text``: a crash
  mid-dump left a truncated, unparseable file where the previous good
  snapshot used to be.  All three must route through the shared atomic
  writer (``repro.ioutil``): on any failure the previous complete file
  survives byte-for-byte.

* **Numpy stringification** — the health/quality reports are assembled
  from numpy arithmetic, and ``json.dumps(..., default=str)`` silently
  turned any leaked ``np.float64``/``np.int64`` into a *string*,
  corrupting the types downstream parsers see.  Dumped numbers must
  round-trip as ``int``/``float``, never ``str``.

Every dump now goes through ``repro.ioutil.dumps_json`` (compact, C
encoder); the parity tests below hold it to the JSON the retired
``to_jsonable`` walk plus ``json.dumps(..., indent=1)`` produced, and
the durability test holds ``atomic_write_bytes`` to fsyncing the file
before the rename and its directory after it.
"""

from __future__ import annotations

import json
import os
import re
import stat
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.ioutil
from repro.ioutil import atomic_write_text, dumps_json
from repro.obs import HealthEvaluator, QualityTracker, Registry, parse_alert_spec
from tests.oracles.jsonable import to_jsonable_oracle

from .test_quality import make_profile

OLD = json.dumps({"snapshot": "previous", "value": 1})


class Boom(RuntimeError):
    pass


def _fill_health():
    evaluator = HealthEvaluator(
        rules=[parse_alert_spec("degraded_ratio>=0.5:critical")],
        clock=lambda: 0.0,
    )
    # numpy scalars straight from verdict arithmetic — the exact leak
    # default=str used to stringify
    for t in range(6):
        evaluator.observe_verdict(
            f"app{t}",
            is_malware=np.bool_(t % 2 == 0),
            degraded=np.bool_(t % 3 == 0),
            n_windows=np.int64(8),
            n_windows_lost=np.int64(1),
            retries=np.int64(t % 2),
            ts=np.float64(t),
        )
        evaluator.observe_classify(np.float64(0.001), n=np.int64(8), ts=np.float64(t))
    return evaluator


def _fill_quality():
    tracker = QualityTracker(
        make_profile(),
        window_s=1000.0,
        min_windows=4,
        min_executions=1,
        eval_interval_s=0.0,
        clock=lambda: 0.0,
    )
    rng = np.random.default_rng(11)
    for i in range(6):
        tracker.observe_execution(
            f"host{i % 2}",
            rng.uniform(0.0, 1.0, size=(10, 2)),
            rng.uniform(0.0, 1.0, 10),
            margin=np.float64(0.25),
            truth=np.bool_(i % 2 == 0),
            ts=np.float64(float(i)),
        )
    return tracker


def _fill_metrics():
    registry = Registry()
    registry.counter("requests_total", "requests").inc(np.int64(3))
    registry.histogram("latency_s", "latency").observe(np.float64(0.5))
    return registry


DUMPERS = [
    pytest.param(_fill_metrics, id="metrics"),
    pytest.param(_fill_health, id="health"),
    pytest.param(_fill_quality, id="quality"),
]


# -- torn writes -------------------------------------------------------


def test_atomic_writer_failure_keeps_previous_file(tmp_path, monkeypatch):
    target = tmp_path / "out.json"
    atomic_write_text(target, OLD)

    def torn_replace(src, dst):
        raise Boom("crash between temp write and rename")

    monkeypatch.setattr(repro.ioutil.os, "replace", torn_replace)
    with pytest.raises(Boom):
        atomic_write_text(target, json.dumps({"snapshot": "new"}))
    assert json.loads(target.read_text()) == json.loads(OLD)
    # the failed attempt's temp file was cleaned up
    assert list(tmp_path.iterdir()) == [target]


@pytest.mark.parametrize("fill", DUMPERS)
def test_dump_crash_leaves_previous_snapshot_intact(fill, tmp_path, monkeypatch):
    """Simulated crash mid-dump: the old snapshot must stay readable.

    A dump site regressing to a bare ``write_text`` fails this two
    ways: the patched rename never fires (no exception), and the old
    payload is clobbered by the partial/new one.
    """
    target = tmp_path / "report.json"
    target.write_text(OLD)
    monkeypatch.setattr(
        repro.ioutil.os,
        "replace",
        lambda src, dst: (_ for _ in ()).throw(Boom("torn write")),
    )
    with pytest.raises(Boom):
        fill().dump(target)
    assert json.loads(target.read_text()) == json.loads(OLD)


@pytest.mark.parametrize("fill", DUMPERS)
def test_dump_writes_complete_parseable_json(fill, tmp_path):
    target = tmp_path / "report.json"
    fill().dump(target)
    payload = json.loads(target.read_text())
    assert isinstance(payload, dict) and payload


# -- numpy stringification ---------------------------------------------

_NUMERIC_STR = re.compile(r"-?\d+(\.\d+)?([eE][+-]?\d+)?")


def _assert_no_stringified_numbers(node, path="$"):
    if isinstance(node, dict):
        for key, value in node.items():
            _assert_no_stringified_numbers(value, f"{path}.{key}")
    elif isinstance(node, list):
        for i, value in enumerate(node):
            _assert_no_stringified_numbers(value, f"{path}[{i}]")
    elif isinstance(node, str):
        assert not _NUMERIC_STR.fullmatch(node), (
            f"{path} is the *string* {node!r} — a numpy scalar was "
            "stringified instead of coerced to a native number"
        )
        assert "np." not in node, f"{path} leaked a numpy repr: {node!r}"


@pytest.mark.parametrize("fill", DUMPERS)
def test_dumped_numbers_round_trip_as_numbers(fill, tmp_path):
    target = tmp_path / "report.json"
    fill().dump(target)
    _assert_no_stringified_numbers(json.loads(target.read_text()))


def test_health_report_values_are_native(tmp_path):
    evaluator = _fill_health()
    target = tmp_path / "health.json"
    evaluator.dump(target)
    payload = json.loads(target.read_text())
    signals = payload["signals"]
    assert signals, "expected live signals in the health report"
    for name, value in signals.items():
        assert value is None or isinstance(value, (int, float)), (
            f"signal {name} round-tripped as {type(value).__name__}"
        )


def test_quality_report_values_are_native(tmp_path):
    tracker = _fill_quality()
    target = tmp_path / "quality.json"
    tracker.dump(target)
    payload = json.loads(target.read_text())

    def leaves(node):
        if isinstance(node, dict):
            for v in node.values():
                yield from leaves(v)
        elif isinstance(node, list):
            for v in node:
                yield from leaves(v)
        else:
            yield node
    kinds = {type(leaf) for leaf in leaves(payload)}
    assert float in kinds or int in kinds
    # the encoder's default hook turns numpy leaves into numbers; check
    # nothing was pre-stringified either
    _assert_no_stringified_numbers(payload)


# -- one C-speed encoder -------------------------------------------------


def _parsed(text: str) -> str:
    """What ``json.loads`` gives, in a form where NaN equals NaN and 1 is not 1.0."""
    return json.dumps(json.loads(text), sort_keys=True)


def _report(dumper):
    return dumper.snapshot() if isinstance(dumper, Registry) else dumper.report()


@pytest.mark.parametrize("fill", DUMPERS)
def test_dump_parses_to_what_the_indented_walk_wrote(fill, tmp_path):
    """The compact dump is the same document the retired writer produced."""
    dumper = fill()
    target = tmp_path / "report.json"
    dumper.dump(target)
    text = target.read_text()
    assert "\n" not in text
    retired = json.dumps(to_jsonable_oracle(_report(dumper)), indent=1)
    assert _parsed(text) == _parsed(retired)


_NUMPY_LEAVES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
    st.floats(width=32, allow_nan=True, allow_infinity=True).map(np.float32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
    st.sampled_from([float("nan"), float("inf"), -float("inf")]),
    st.floats(allow_nan=True).map(np.array),
    st.lists(st.floats(width=32), max_size=6).map(
        lambda xs: np.array(xs, dtype=np.float32)
    ),
    st.lists(st.integers(-1000, 1000), min_size=4, max_size=4).map(
        lambda xs: np.array(xs, dtype=np.int64).reshape(2, 2)
    ),
    st.lists(st.booleans(), max_size=4).map(lambda xs: np.array(xs, dtype=bool)),
    st.none(),
    st.text(max_size=4),
    st.integers(),
)

_PAYLOADS = st.recursive(
    _NUMPY_LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), children, max_size=4),
    ),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None)
@given(payload=_PAYLOADS)
def test_dumps_json_matches_the_retired_walk(payload):
    native = to_jsonable_oracle(payload)
    assert _parsed(dumps_json(payload)) == _parsed(json.dumps(native))
    # byte-equal too, which is what keeps content addresses stable
    compact = (",", ":")
    assert dumps_json(payload) == json.dumps(native, separators=compact)
    assert dumps_json(payload, sort_keys=True) == json.dumps(
        native, separators=compact, sort_keys=True
    )


@pytest.mark.parametrize("value", [object(), {"path": Path("x")}, np.complex128(1j)])
def test_dumps_json_refuses_non_json_values(value):
    with pytest.raises(TypeError):
        dumps_json(value)


def test_atomic_write_fsyncs_the_directory_after_the_replace(tmp_path, monkeypatch):
    """Payload durable, then renamed, then the rename itself made durable."""
    target = tmp_path / "out.json"
    steps = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        info = os.fstat(fd)
        steps.append(("dir" if stat.S_ISDIR(info.st_mode) else "file", info.st_ino))
        real_fsync(fd)

    def replace(src, dst):
        steps.append(("replace", None))
        real_replace(src, dst)

    monkeypatch.setattr(repro.ioutil.os, "fsync", fsync)
    monkeypatch.setattr(repro.ioutil.os, "replace", replace)
    atomic_write_text(target, OLD)
    assert steps == [
        ("file", target.stat().st_ino),
        ("replace", None),
        ("dir", tmp_path.stat().st_ino),
    ]
