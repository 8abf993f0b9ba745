#!/usr/bin/env python3
"""Unit tests for trace_check.py: the valid shape, each structural and
grammar violation, the ring_wrapped grammar skip, and unreadable input.

Run directly (python3 tools/test_trace_check.py) or via ctest, which
registers it as `trace_check_py`.
"""

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import trace_check  # noqa: E402


def meta(tid, name):
    return {"ph": "M", "pid": 1, "tid": tid, "name": "thread_name",
            "args": {"name": name}}


def instant(tid, ts, name, frame="0x0"):
    return {"ph": "i", "pid": 1, "tid": tid, "s": "t", "name": name,
            "ts": ts, "args": {"frame": frame}}


def slice_x(tid, ts, dur, name="strand"):
    return {"ph": "X", "pid": 1, "tid": tid, "name": name, "ts": ts,
            "dur": dur, "args": {"frame": "0x0"}}


def counter(ts, **args):
    return {"ph": "C", "pid": 1, "tid": 0, "name": "sched", "ts": ts,
            "args": args}


def valid_doc():
    """A minimal two-worker trace: worker 1 steals a frame from worker 0,
    worker 0 parks on the join, the thief resumes it."""
    return {
        "schema": "cilkm-trace-v1",
        "displayTimeUnit": "ms",
        "otherData": {"ring_wrapped": 0, "workers": 2},
        "traceEvents": [
            meta(0, "worker 0"),
            meta(1, "worker 1"),
            slice_x(0, 0.0, 50.0),
            slice_x(1, 11.0, 30.0),
            instant(0, 0.0, "launch"),
            instant(1, 10.0, "steal", "0xf00"),
            instant(1, 11.0, "launch", "0xf00"),
            instant(0, 20.0, "deposit_left", "0xf00"),
            instant(0, 21.0, "park", "0xf00"),
            instant(1, 40.0, "merge", "0xf00"),
            instant(1, 41.0, "resume_by_thief", "0xf00"),
            instant(1, 50.0, "root_done"),
            counter(10.0, steals=1, merges=0, parks=0),
            counter(50.0, steals=1, merges=1, parks=1),
        ],
    }


class TraceCheckTest(unittest.TestCase):
    def setUp(self):
        self._dir = tempfile.TemporaryDirectory()
        self.addCleanup(self._dir.cleanup)
        self._n = 0

    def check(self, doc):
        self._n += 1
        path = os.path.join(self._dir.name, f"trace_{self._n}.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f)
        return trace_check.main([path])

    def test_valid_trace_passes(self):
        self.assertEqual(self.check(valid_doc()), 0)

    def test_empty_events_fail(self):
        doc = valid_doc()
        doc["traceEvents"] = []
        self.assertEqual(self.check(doc), 1)
        del doc["traceEvents"]
        self.assertEqual(self.check(doc), 1)

    def test_bad_ph_fails(self):
        doc = valid_doc()
        doc["traceEvents"].append({"ph": "Z", "pid": 1, "tid": 0})
        self.assertEqual(self.check(doc), 1)

    def test_negative_slice_fields_fail(self):
        doc = valid_doc()
        doc["traceEvents"].append(slice_x(0, -1.0, 5.0))
        self.assertEqual(self.check(doc), 1)
        doc = valid_doc()
        doc["traceEvents"].append(slice_x(0, 60.0, -5.0))
        self.assertEqual(self.check(doc), 1)

    def test_overlapping_slices_fail(self):
        doc = valid_doc()
        doc["traceEvents"].append(slice_x(0, 10.0, 20.0))  # inside [0, 50)
        self.assertEqual(self.check(doc), 1)

    def test_instant_timestamps_must_be_monotonic_per_tid(self):
        doc = valid_doc()
        doc["traceEvents"].append(instant(1, 5.0, "merge"))  # before 50.0
        self.assertEqual(self.check(doc), 1)

    def test_decreasing_counter_fails(self):
        doc = valid_doc()
        doc["traceEvents"].append(counter(60.0, steals=0, merges=1, parks=1))
        self.assertEqual(self.check(doc), 1)

    def test_steal_without_launch_fails(self):
        doc = valid_doc()
        doc["traceEvents"].append(instant(1, 60.0, "steal", "0xbad"))
        self.assertEqual(self.check(doc), 1)

    def test_unbalanced_park_fails(self):
        doc = valid_doc()
        doc["traceEvents"].append(instant(0, 60.0, "park", "0xbad"))
        self.assertEqual(self.check(doc), 1)

    def test_resume_without_park_fails(self):
        doc = valid_doc()
        doc["traceEvents"].append(instant(1, 60.0, "resume_self", "0xbad"))
        self.assertEqual(self.check(doc), 1)

    def test_missing_root_done_fails(self):
        doc = valid_doc()
        doc["traceEvents"] = [
            ev for ev in doc["traceEvents"] if ev.get("name") != "root_done"
        ]
        self.assertEqual(self.check(doc), 1)

    def test_ring_wrapped_skips_grammar_not_structure(self):
        doc = valid_doc()
        doc["otherData"]["ring_wrapped"] = 1
        doc["traceEvents"].append(instant(1, 60.0, "steal", "0xbad"))
        self.assertEqual(self.check(doc), 0)  # grammar skipped
        doc["traceEvents"].append(slice_x(0, 10.0, 20.0))
        self.assertEqual(self.check(doc), 1)  # structure still enforced

    def test_malformed_json_returns_2(self):
        path = os.path.join(self._dir.name, "garbage.json")
        with open(path, "w", encoding="utf-8") as f:
            f.write("{not json")
        self.assertEqual(trace_check.main([path]), 2)
        self.assertEqual(trace_check.main(["/nonexistent/trace.json"]), 2)
        self.assertEqual(trace_check.main([]), 2)

    def test_non_object_top_level_fails(self):
        path = os.path.join(self._dir.name, "list.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump([1, 2, 3], f)
        self.assertEqual(trace_check.main([path]), 1)


if __name__ == "__main__":
    unittest.main()
