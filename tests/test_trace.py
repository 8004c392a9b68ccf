"""Tests for the execution trace recorder and timeline renderer."""

import json

import pytest

from repro.obs.canonical import canonical_json
from repro.sim.trace import (
    EVENT_FIELDS,
    TraceRecorder,
    check_event,
    events_from_jsonl,
    recorder_from_events,
    render_timeline,
    trace_to_jsonl,
)

from tests.conftest import heal, make_driver, split


@pytest.fixture
def traced_driver():
    recorder = TraceRecorder()
    driver = make_driver("ykd", 5, observers=[recorder])
    return driver, recorder


class TestRecording:
    def test_records_views_and_broadcasts(self, traced_driver):
        driver, recorder = traced_driver
        split(driver, {3, 4})
        driver.run_until_quiescent()
        views = recorder.of_kind("view")
        assert {tuple(v["members"]) for v in views} == {(0, 1, 2), (3, 4)}
        broadcasts = recorder.of_kind("broadcast")
        assert broadcasts
        assert any("StateItem" in e["items"] for e in broadcasts)
        assert any("AttemptItem" in e["items"] for e in broadcasts)

    def test_records_primary_transitions(self, traced_driver):
        driver, recorder = traced_driver
        split(driver, {3, 4})
        driver.run_until_quiescent()
        formations = recorder.formations()
        assert formations[-1]["members"] == [0, 1, 2]
        # Splitting the primary again records its loss.
        split(driver, {2})
        driver.run_until_quiescent()
        losses = recorder.of_kind("primarylost")
        assert any(e["members"] == [0, 1, 2] for e in losses)

    def test_records_changes_with_topology(self, traced_driver):
        driver, recorder = traced_driver
        split(driver, {3, 4})
        changes = recorder.of_kind("change")
        assert len(changes) == 1
        assert changes[0]["change"].startswith("partition")
        assert [3, 4] in changes[0]["components_after"]

    def test_records_run_boundaries(self, traced_driver):
        driver, recorder = traced_driver
        driver.execute_run(gaps=[1, 1])
        boundaries = recorder.of_kind("runboundary")
        assert [b["boundary"] for b in boundaries] == ["start", "end"]
        assert boundaries[1]["available"] == driver.primary_exists()

    def test_truncation_bound(self):
        recorder = TraceRecorder(max_events=5)
        driver = make_driver("ykd", 5, observers=[recorder])
        split(driver, {3, 4})
        driver.run_until_quiescent()
        assert len(recorder) == 5
        assert recorder.truncated
        assert recorder.dropped_events > 0

    def test_truncation_surfaces_in_export(self):
        recorder = TraceRecorder(max_events=5)
        driver = make_driver("ykd", 5, observers=[recorder])
        split(driver, {3, 4})
        driver.run_until_quiescent()
        dicts = recorder.to_dicts()
        assert len(dicts) == 6  # 5 events + the truncation marker
        marker = dicts[-1]
        assert marker["kind"] == "truncation"
        assert marker["truncated"] is True
        assert marker["dropped_events"] == recorder.dropped_events
        assert marker["max_events"] == 5

    def test_untruncated_export_has_no_marker(self):
        recorder = TraceRecorder()
        driver = make_driver("ykd", 5, observers=[recorder])
        split(driver, {3, 4})
        driver.run_until_quiescent()
        assert recorder.dropped_events == 0
        assert all(d["kind"] != "truncation" for d in recorder.to_dicts())

    def test_truncation_surfaces_in_timeline(self):
        recorder = TraceRecorder(max_events=5)
        driver = make_driver("ykd", 5, observers=[recorder])
        split(driver, {3, 4})
        driver.run_until_quiescent()
        rendered = render_timeline(recorder)
        assert "truncated" in rendered
        assert str(recorder.dropped_events) in rendered

    def test_max_events_validation(self):
        with pytest.raises(ValueError):
            TraceRecorder(max_events=0)


class TestQueriesAndExport:
    def test_iter_rounds_groups_in_order(self, traced_driver):
        driver, recorder = traced_driver
        split(driver, {3, 4})
        driver.run_until_quiescent()
        rounds = list(recorder.iter_rounds())
        indices = [round_index for round_index, _ in rounds]
        assert indices == sorted(indices)
        assert all(events for _, events in rounds)

    def test_rounds_with_traffic(self, traced_driver):
        driver, recorder = traced_driver
        split(driver, {3, 4})
        driver.run_until_quiescent()
        traffic = recorder.rounds_with_traffic()
        assert len(traffic) >= 2  # state round + attempt round

    def test_to_dicts_is_json_ready(self, traced_driver):
        driver, recorder = traced_driver
        split(driver, {3, 4})
        driver.run_until_quiescent()
        payload = json.dumps(recorder.to_dicts())
        assert '"kind": "view"' in payload

    def test_timeline_rendering(self, traced_driver):
        driver, recorder = traced_driver
        split(driver, {3, 4})
        driver.run_until_quiescent()
        text = render_timeline(recorder)
        assert "PRIMARY {0,1,2}" in text
        assert "sends:" in text
        assert "view#" in text

    def test_timeline_respects_max_rounds(self, traced_driver):
        driver, recorder = traced_driver
        split(driver, {3, 4})
        driver.run_until_quiescent()
        heal(driver)
        text = render_timeline(recorder, max_rounds=1)
        assert "events total" in text


class TestEventRoundTrip:
    """An event is the dict its canonical line parses back to."""

    def _events(self):
        recorder = TraceRecorder()
        driver = make_driver("ykd", 5, observers=[recorder])
        driver.execute_run(gaps=[1, 1])
        split(driver, {3, 4})
        driver.run_until_quiescent()
        split(driver, {2})
        driver.run_until_quiescent()
        heal(driver)
        return recorder.events

    def test_all_kinds_round_trip(self):
        events = self._events()
        kinds = {e["kind"] for e in events}
        assert kinds == set(EVENT_FIELDS) - {"truncation"}
        for event in events:
            assert check_event(json.loads(canonical_json(event))) == event

    def test_jsonl_round_trip_preserves_stream(self):
        recorder = TraceRecorder()
        driver = make_driver("ykd", 5, observers=[recorder])
        split(driver, {3, 4})
        driver.run_until_quiescent()
        text = trace_to_jsonl(recorder)
        events, truncated = events_from_jsonl(text)
        assert not truncated
        assert events == recorder.events
        rebuilt = recorder_from_events(events, truncated=truncated)
        assert trace_to_jsonl(rebuilt) == text

    def test_truncation_marker_round_trips(self):
        recorder = TraceRecorder(max_events=5)
        driver = make_driver("ykd", 5, observers=[recorder])
        split(driver, {3, 4})
        driver.run_until_quiescent()
        events, truncated = events_from_jsonl(trace_to_jsonl(recorder))
        assert truncated
        assert recorder_from_events(events, truncated=True).truncated

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown trace event kind"):
            check_event({"kind": "wormhole", "round": 1})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("round", "1"),
            ("round", True),
            ("view_seq", None),
            ("members", 3),
            ("members", [0, "1"]),
        ],
    )
    def test_wrong_shape_rejected(self, field, value):
        event = {"kind": "view", "round": 1, "view_seq": 2, "members": [0, 1]}
        assert check_event(dict(event)) == event
        with pytest.raises(ValueError, match=field):
            check_event({**event, field: value})


class TestTimelineSpans:
    """Attempt spans woven into the timeline, including under truncation."""

    def _recorded(self):
        recorder = TraceRecorder()
        driver = make_driver("ykd", 5, observers=[recorder])
        split(driver, {3, 4})
        driver.run_until_quiescent()
        split(driver, {2})
        driver.run_until_quiescent()
        heal(driver)
        return recorder

    def test_span_rows_mark_open_and_close(self):
        from repro.obs.causal import spans_from_recorder

        recorder = self._recorded()
        spans = spans_from_recorder(recorder)
        text = render_timeline(recorder, spans=spans.attempts)
        assert "├─ attempt {" in text
        assert "└─ attempt {" in text
        for span in spans.attempts:
            inner = ",".join(map(str, span.members))
            assert f"└─ attempt {{{inner}}}: {span.outcome}" in text

    def test_max_rounds_cut_with_span_rows(self):
        # Regression: the display cut and span weaving compose — rows
        # for rendered rounds keep their span marks, the elision line
        # reports the cut, and spans beyond the cut don't leak in.
        from repro.obs.causal import spans_from_recorder

        recorder = self._recorded()
        spans = spans_from_recorder(recorder)
        text = render_timeline(recorder, max_rounds=2, spans=spans.attempts)
        assert "timeline cut at max_rounds=2" in text
        assert "more rounds omitted" in text
        rendered_rounds = [
            int(line.split(":")[0][1:])
            for line in text.splitlines()
            if line.startswith("r") and line.endswith(":")
        ]
        assert len(rendered_rounds) == 2
        shown = set(rendered_rounds)
        opens = sum(1 for line in text.splitlines() if "├─ attempt {" in line)
        closes = sum(1 for line in text.splitlines() if "└─ attempt {" in line)
        assert opens == sum(
            1 for span in spans.attempts if span.open_round in shown
        )
        assert closes == sum(
            1 for span in spans.attempts if span.close_round in shown
        )

    def test_recording_and_display_cuts_can_both_appear(self):
        from repro.obs.causal import spans_from_recorder

        recorder = TraceRecorder(max_events=8)
        driver = make_driver("ykd", 5, observers=[recorder])
        split(driver, {3, 4})
        driver.run_until_quiescent()
        heal(driver)
        spans = spans_from_recorder(recorder)
        text = render_timeline(recorder, max_rounds=1, spans=spans.attempts)
        assert "timeline cut at max_rounds=1" in text
        assert "trace truncated at max_events=8" in text
