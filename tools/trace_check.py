#!/usr/bin/env python3
"""Validate a cilkm Chrome-trace JSON artifact (cilkm_run --trace-out).

Checks two layers:

Structure — the file is one JSON object with a non-empty traceEvents list,
every event's ph is one of M/X/i/C, X slices have non-negative ts/dur and
per-track (tid) slices are time-sorted and non-overlapping, per-track
instants have monotonically non-decreasing timestamps, and counter samples
never decrease (they are cumulative).

Grammar — the scheduler-event protocol the runtime guarantees: every steal
instant is immediately followed (same tid, next instant) by a launch,
every park on a frame eventually pairs with exactly one resume
(resume_by_thief or resume_self), and at least one root_done exists.
Grammar checks are skipped when otherData.ring_wrapped is set: a full ring
overwrote its oldest events, so the retained stream may start mid-pair.

Exit status: 0 valid, 1 invalid, 2 unreadable/parse error or usage error.
"""

import json
import sys
from collections import defaultdict

VALID_PH = {"M", "X", "i", "C"}


def _fail(errors, msg):
    errors.append(msg)


def check_structure(doc, errors):
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        _fail(errors, "traceEvents missing or empty")
        return []
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            _fail(errors, f"event {i} is not an object")
            return []
        ph = ev.get("ph")
        if ph not in VALID_PH:
            _fail(errors, f"event {i}: bad ph {ph!r}")
    slices = defaultdict(list)
    instants = defaultdict(list)
    counters = defaultdict(list)
    for i, ev in enumerate(events):
        ph = ev.get("ph")
        if ph == "X":
            ts, dur = ev.get("ts"), ev.get("dur")
            if not isinstance(ts, (int, float)) or ts < 0:
                _fail(errors, f"event {i}: X slice with bad ts {ts!r}")
                continue
            if not isinstance(dur, (int, float)) or dur < 0:
                _fail(errors, f"event {i}: X slice with bad dur {dur!r}")
                continue
            slices[ev.get("tid")].append((ts, dur, i))
        elif ph == "i":
            ts = ev.get("ts")
            if not isinstance(ts, (int, float)) or ts < 0:
                _fail(errors, f"event {i}: instant with bad ts {ts!r}")
                continue
            if "name" not in ev:
                _fail(errors, f"event {i}: instant without a name")
                continue
            instants[ev.get("tid")].append((ts, ev, i))
        elif ph == "C":
            args = ev.get("args")
            if not isinstance(args, dict):
                _fail(errors, f"event {i}: counter without args")
                continue
            counters[ev.get("name")].append((ev.get("ts", 0), args, i))
    for tid, rows in slices.items():
        for (a_ts, a_dur, a_i), (b_ts, _, b_i) in zip(rows, rows[1:]):
            if b_ts < a_ts:
                _fail(errors,
                      f"tid {tid}: X slices out of order "
                      f"(event {a_i} then {b_i})")
            elif b_ts + 1e-9 < a_ts + a_dur:
                _fail(errors,
                      f"tid {tid}: overlapping X slices "
                      f"(event {a_i} [{a_ts},{a_ts + a_dur}) then "
                      f"event {b_i} at {b_ts})")
    for tid, rows in instants.items():
        for (a_ts, _, a_i), (b_ts, _, b_i) in zip(rows, rows[1:]):
            if b_ts < a_ts:
                _fail(errors,
                      f"tid {tid}: instant timestamps decrease "
                      f"(event {a_i} at {a_ts} then event {b_i} at {b_ts})")
    for name, rows in counters.items():
        prev = {}
        for ts, args, i in rows:
            for key, value in args.items():
                if not isinstance(value, (int, float)):
                    _fail(errors, f"counter {name}: non-numeric {key}")
                elif key in prev and value < prev[key]:
                    _fail(errors,
                          f"counter {name}: {key} decreases at event {i} "
                          f"({prev[key]} -> {value})")
                else:
                    prev[key] = value
    return [(tid, rows) for tid, rows in sorted(instants.items())]


def check_grammar(per_tid_instants, errors):
    saw_root_done = False
    park_balance = defaultdict(int)  # frame -> parks minus resumes
    for tid, rows in per_tid_instants:
        for (ts, ev, i), nxt in zip(rows, list(rows[1:]) + [None]):
            name = ev.get("name")
            frame = (ev.get("args") or {}).get("frame")
            if name == "root_done":
                saw_root_done = True
            elif name == "steal":
                nxt_name = nxt[1].get("name") if nxt else None
                if nxt_name != "launch":
                    _fail(errors,
                          f"tid {tid}: {name} at event {i} not followed by "
                          f"launch (got {nxt_name!r})")
            elif name == "park":
                park_balance[frame] += 1
            elif name in ("resume_by_thief", "resume_self"):
                park_balance[frame] -= 1
    # Resumes happen on the resuming worker's tid, parks on the victim's, so
    # balance only holds per frame across all tids.
    for frame, balance in park_balance.items():
        if balance != 0:
            _fail(errors,
                  f"frame {frame}: {'unresumed park' if balance > 0 else 'resume without park'}"
                  f" (balance {balance:+d})")
    if not saw_root_done:
        _fail(errors, "no root_done event")


def main(argv):
    if len(argv) != 1:
        print("usage: trace_check.py TRACE.json", file=sys.stderr)
        return 2
    try:
        with open(argv[0], "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"trace_check: cannot read {argv[0]}: {e}", file=sys.stderr)
        return 2
    if not isinstance(doc, dict):
        print("trace_check: top level is not a JSON object", file=sys.stderr)
        return 1

    errors = []
    per_tid_instants = check_structure(doc, errors)
    ring_wrapped = bool((doc.get("otherData") or {}).get("ring_wrapped"))
    if not errors and per_tid_instants and not ring_wrapped:
        check_grammar(per_tid_instants, errors)
    elif ring_wrapped:
        print("trace_check: ring_wrapped set, skipping grammar checks")

    if errors:
        for msg in errors:
            print(f"trace_check: {msg}", file=sys.stderr)
        print(f"trace_check: {argv[0]}: INVALID ({len(errors)} error(s))",
              file=sys.stderr)
        return 1
    n = len(doc.get("traceEvents", []))
    print(f"trace_check: {argv[0]}: ok ({n} events)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
