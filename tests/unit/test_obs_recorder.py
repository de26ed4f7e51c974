"""Unit tests for the run recorder and manifest (``repro.obs.recorder``)."""

import repro
from repro.experiments.config import QUICK
from repro.obs.recorder import (
    SCHEMA,
    RunRecorder,
    build_manifest,
    read_jsonl,
    read_manifest,
    write_manifest,
)


class TestRunRecorder:
    def test_events_sequenced_in_order(self):
        recorder = RunRecorder()
        recorder.record("a", t=1.0, pid=0)
        recorder.record("b", detail="x")
        assert [event["seq"] for event in recorder.events] == [0, 1]
        assert recorder.events[0] == {"seq": 0, "kind": "a", "t": 1.0, "pid": 0}
        assert "t" not in recorder.events[1]

    def test_disabled_recorder_adds_no_events(self):
        recorder = RunRecorder(enabled=False)
        recorder.record("a", t=1.0)
        assert recorder.events == []

    def test_jsonl_round_trip(self, tmp_path):
        recorder = RunRecorder()
        recorder.record("phase.start", phase="wan")
        recorder.record("phase.end", t=0.5, phase="wan", seconds=0.5)
        path = tmp_path / "timeline.jsonl"
        recorder.write_jsonl(path)
        assert read_jsonl(path) == recorder.events


class TestManifest:
    def test_schema_and_version_stamped(self):
        manifest = build_manifest(scale="quick")
        assert manifest["schema"] == SCHEMA
        assert manifest["package_version"] == repro.__version__
        assert manifest["scale"] == "quick"

    def test_dataclasses_flattened(self):
        manifest = build_manifest(config=QUICK)
        config = manifest["config"]
        assert config["n"] == QUICK.n
        assert config["seed"] == QUICK.seed
        assert config["timeouts"] == list(QUICK.timeouts)

    def test_round_trip(self, tmp_path):
        manifest = build_manifest(config=QUICK, seeds={"wan": 1})
        path = tmp_path / "manifest.json"
        write_manifest(path, manifest)
        assert read_manifest(path) == manifest
