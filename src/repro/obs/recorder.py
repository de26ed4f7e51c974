"""The structured run timeline and the run manifest.

A :class:`RunRecorder` accumulates typed events in memory — cheap
dictionaries with a sequence number, an event ``kind`` and free-form
fields — and serializes them as JSONL, one event per line, so a run's
timeline can be grepped, diffed and replayed without any tooling.  The
manifest (:func:`build_manifest`) pins everything needed to reproduce
the run: the sweep configuration, the root seeds, and the package
version.

The experiments CLI keeps one as its phase timeline (``--metrics``
writes it as ``timeline.jsonl``).  Disabled recording
(``enabled=False``) keeps the event list empty: ``record`` returns
before building the event dict.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Any, Optional

import repro

#: Format version stamped into manifests and timelines.
SCHEMA = "repro.obs/v1"


class RunRecorder:
    """An append-only, JSONL-serializable event timeline."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.events: list[dict] = []

    def record(self, kind: str, t: Optional[float] = None, **fields: Any) -> None:
        """Append one event.  ``t`` is simulation (or wall) time, if any."""
        if not self.enabled:
            return
        event: dict[str, Any] = {"seq": len(self.events), "kind": kind}
        if t is not None:
            event["t"] = float(t)
        event.update(fields)
        self.events.append(event)

    def write_jsonl(self, path: Path | str) -> None:
        """Serialize the timeline, one JSON object per line."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for event in self.events:
                handle.write(json.dumps(event, sort_keys=True) + "\n")


def read_jsonl(path: Path | str) -> list[dict]:
    """Parse a JSONL timeline back into its event list."""
    events = []
    with Path(path).open(encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events


def _jsonable(value: Any) -> Any:
    """Coerce configs (dataclasses, paths, tuples) into JSON-able data."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: _jsonable(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, Path):
        return str(value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def build_manifest(**fields: Any) -> dict:
    """A run manifest: schema + package version + the caller's fields.

    Pass whatever pins the run — sweep configs, seeds, CLI arguments.
    Dataclasses (e.g. :class:`~repro.experiments.config.SweepConfig`)
    are flattened to plain dictionaries.
    """
    manifest: dict[str, Any] = {
        "schema": SCHEMA,
        "package_version": repro.__version__,
    }
    for name, value in fields.items():
        manifest[name] = _jsonable(value)
    return manifest


def write_manifest(path: Path | str, manifest: dict) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def read_manifest(path: Path | str) -> dict:
    return json.loads(Path(path).read_text())
