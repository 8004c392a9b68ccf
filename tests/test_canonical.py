"""Byte-pinning tests for the shared canonical line encoder.

Every byte-stable artifact of the project — trace JSONL and digests,
metrics JSONL, span JSONL — is framed by ``repro.obs.canonical``.
These tests pin the exact bytes of that framing (golden literals, not
round-trips) and then verify each artifact family actually goes
through it, so no exporter can drift from the committed golden files
without tripping here first.
"""

import hashlib
import json

import pytest

from repro.obs import registry_from_jsonl, registry_to_jsonl
from repro.obs.canonical import (
    canonical_digest,
    canonical_json,
    canonical_jsonl,
    canonical_line,
    read_jsonl,
    write_text,
)
from repro.obs.causal import spans_from_jsonl
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import parse_flight_jsonl
from repro.sim.trace import (
    TraceRecorder,
    events_from_jsonl,
    trace_digest,
    trace_to_jsonl,
)

from tests.conftest import make_driver, split

#: Golden inputs — exercised exactly as committed; do not regenerate.
GOLDEN_OBJS = [
    {"b": 1, "a": [1, 2], "z": None},
    {"kind": "x", "text": "café", "ok": True},
]
GOLDEN_LINES = [
    '{"a": [1, 2], "b": 1, "z": null}',
    '{"kind": "x", "ok": true, "text": "caf\\u00e9"}',
]
GOLDEN_DIGEST = (
    "4da738cd29406814733b3efe4c65b1877a7aad2e42c3d787969d5b1211daea8e"
)


class TestGoldenBytes:
    def test_canonical_json_exact_bytes(self):
        assert [canonical_json(obj) for obj in GOLDEN_OBJS] == GOLDEN_LINES

    def test_keys_sorted_and_ascii_escaped(self):
        line = canonical_json(GOLDEN_OBJS[1])
        assert line.index('"kind"') < line.index('"ok"') < line.index('"text"')
        assert "\\u00e9" in line and "é" not in line

    def test_canonical_line_is_newline_framed_bytes(self):
        assert canonical_line(GOLDEN_OBJS[0]) == (
            GOLDEN_LINES[0].encode("utf-8") + b"\n"
        )

    def test_canonical_jsonl_exact_text(self):
        assert canonical_jsonl(GOLDEN_OBJS) == "\n".join(GOLDEN_LINES) + "\n"

    def test_canonical_jsonl_empty_input(self):
        assert canonical_jsonl([]) == ""

    def test_canonical_digest_pinned(self):
        assert canonical_digest(GOLDEN_OBJS) == GOLDEN_DIGEST

    def test_digest_is_sha256_of_line_stream(self):
        stream = b"".join(canonical_line(obj) for obj in GOLDEN_OBJS)
        assert canonical_digest(GOLDEN_OBJS) == hashlib.sha256(
            stream
        ).hexdigest()


class TestAllExportersShareTheEncoder:
    """Each artifact family's lines are exactly the canonical framing."""

    def _recorded(self):
        recorder = TraceRecorder()
        driver = make_driver("ykd", 5, observers=[recorder])
        split(driver, {3, 4})
        driver.run_until_quiescent()
        return recorder

    def test_trace_jsonl_lines_are_canonical(self):
        text = trace_to_jsonl(self._recorded())
        assert text.endswith("\n")
        for line in text.splitlines():
            assert line == canonical_json(json.loads(line))

    def test_trace_digest_is_canonical_digest_of_events(self):
        recorder = self._recorded()
        assert trace_digest(recorder) == canonical_digest(recorder.to_dicts())

    def test_metrics_jsonl_lines_are_canonical(self):
        registry = MetricsRegistry()
        registry.counter("rounds_total", algorithm="ykd").value = 7
        registry.histogram("extent", buckets=(1, 2)).observe(3)
        text = registry_to_jsonl(registry)
        assert text.endswith("\n")
        for line in text.splitlines():
            assert line == canonical_json(json.loads(line))

    def test_span_jsonl_lines_are_canonical(self):
        from repro.obs.causal import spans_from_recorder, spans_to_jsonl

        text = spans_to_jsonl(spans_from_recorder(self._recorded()))
        assert text.endswith("\n")
        for line in text.splitlines():
            assert line == canonical_json(json.loads(line))


# ----------------------------------------------------------------------
# The way back in: one reader under the four families.
# ----------------------------------------------------------------------

GOOD_LINES = {
    "trace": '{"kind": "view", "members": [0, 1], "round": 1, "view_seq": 2}',
    "spans": '{"kind": "view", "members": [0, 1], "round": 1, "view_seq": 2}',
    "flight": '{"event": "put", "kind": "repro.obs/flight", "node": 0, "seq": 0}',
    "metrics": (
        '{"kind": "repro.obs/metric", "labels": {}, "name": "n", '
        '"type": "counter", "value": 1}'
    ),
}
READERS = {
    "trace": events_from_jsonl,
    "spans": spans_from_jsonl,
    "flight": parse_flight_jsonl,
    "metrics": registry_from_jsonl,
}
#: One field every family's good line cannot go without.
REQUIRED = {
    "trace": "view_seq", "spans": "view_seq", "flight": "event",
    "metrics": "value",
}


def _without(line, field):
    data = json.loads(line)
    del data[field]
    return canonical_json(data)


HOSTILE = {
    "not json": lambda family: '{"kind": ',
    "not an object": lambda family: "[1]",
    "a bare number": lambda family: "3",
    "missing field": lambda family: _without(GOOD_LINES[family], REQUIRED[family]),
    "foreign kind": lambda family: '{"kind": "repro.elsewhere/thing"}',
}


class TestOneReader:
    @pytest.mark.parametrize("family", sorted(READERS))
    def test_good_line_reads(self, family):
        READERS[family](GOOD_LINES[family] + "\n\n")

    @pytest.mark.parametrize("case", sorted(HOSTILE))
    @pytest.mark.parametrize("family", sorted(READERS))
    def test_bad_line_is_a_value_error_naming_the_line(self, family, case):
        text = GOOD_LINES[family] + "\n\n" + HOSTILE[case](family) + "\n"
        with pytest.raises(ValueError, match="line 3") as error:
            READERS[family](text)
        assert type(error.value) is ValueError  # not a bare JSONDecodeError

    def test_read_jsonl_yields_numbered_objects(self):
        text = '{"a": 1}\n\n  \n{"b": 2}\n'
        assert list(read_jsonl(text, "thing")) == [(1, {"a": 1}), (4, {"b": 2})]

    @pytest.mark.parametrize("command", ["explain --replay", "telemetry --read"])
    @pytest.mark.parametrize("case", sorted(HOSTILE))
    def test_commands_exit_2_with_one_error_line(
        self, command, case, tmp_path, capsys
    ):
        from repro.experiments.cli import main

        family = "trace" if command.startswith("explain") else "flight"
        path = tmp_path / "hostile.jsonl"
        path.write_text(
            GOOD_LINES[family] + "\n" + HOSTILE[case](family) + "\n",
            encoding="utf-8",
        )
        assert main([*command.split(), str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert "line 2" in captured.err

    def test_write_text_creates_the_directory(self, tmp_path):
        path = write_text(tmp_path / "a" / "b" / "out.txt", "x\n")
        assert path.read_text(encoding="utf-8") == "x\n"
