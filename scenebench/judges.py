"""Judges the benchmark hands to ``evaluate_scene``.

``OracleJudge`` answers every request from the generator's ground truth.
``MeteredJudge`` is the object the scorer actually sees: it counts calls,
models a remote VLM endpoint (fixed latency, capped calls in flight) and
records one span per call when a tracer is given.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from contextlib import nullcontext

from scenescore.judge import Judge, JudgeRequest, MissingFixtureEntry, validate_response


class OracleJudge(Judge):
    """Answers from ``truth.json``; every answer passes ``validate_response``."""

    def __init__(self, truth: dict):
        self.truth = truth

    def judge(self, request: JudgeRequest) -> dict:
        try:
            answer = self._answer(request.task, request.payload)
        except KeyError as exc:
            raise MissingFixtureEntry(
                f"oracle has no truth for task '{request.task}' "
                f"payload {request.canonical_payload}",
                request.content_hash,
            ) from exc
        return validate_response(request, answer)

    def _answer(self, task: str, p: dict) -> dict:
        if task == "map_oo_relation":
            return self.truth["oo_mappings"][p["relation_text"]]
        if task == "map_oa_relation":
            return self.truth["oa_mappings"][p["relation_text"]]
        kind = self.truth["descriptions"][p["object_description"]]
        if task == "match_category":
            matched = kind["category"] in p["categories"]
            return {"matched": matched, "matched_category": kind["category"] if matched else ""}
        if task == "verify_attribute":
            return {"satisfied": p["attribute"] in kind["attributes"]}
        if task == "support_type":
            return {"support_type": kind["support_type"]}
        return {"sides": kind["sides"]}  # functional_sides


class MeteredJudge(Judge):
    """Counting, latency-modelling front for another judge.

    A call holds one of `max_in_flight` slots while it sleeps `latency_s`
    and asks the inner judge.  `wait_s` sums the time callers spent inside
    ``judge()``, slot waits included; `busy_s` is the time during which at
    least one call held a slot.
    """

    def __init__(self, inner: Judge, latency_s: float = 0.0, max_in_flight: int = 4,
                 tracer=None):
        self.inner = inner
        self.latency_s = latency_s
        self.tracer = tracer
        self._slots = threading.BoundedSemaphore(max_in_flight)
        self._lock = threading.Lock()
        self.calls = 0
        self.calls_by_task: Counter = Counter()
        self.hashes: set = set()
        self.wait_s = 0.0
        self.busy_s = 0.0
        self.in_flight = 0
        self.in_flight_max = 0
        self._busy_since = 0.0

    def judge(self, request: JudgeRequest) -> dict:
        start = time.perf_counter()
        span = self.tracer.span("judge.judge") if self.tracer else nullcontext()
        try:
            with span, self._slots:
                self._enter()
                try:
                    if self.latency_s:
                        time.sleep(self.latency_s)
                    return self.inner.judge(request)
                finally:
                    self._leave()
        finally:
            with self._lock:
                self.calls += 1
                self.calls_by_task[request.task] += 1
                self.hashes.add(request.content_hash)
                self.wait_s += time.perf_counter() - start

    def _enter(self) -> None:
        with self._lock:
            if self.in_flight == 0:
                self._busy_since = time.perf_counter()
            self.in_flight += 1
            self.in_flight_max = max(self.in_flight_max, self.in_flight)

    def _leave(self) -> None:
        with self._lock:
            self.in_flight -= 1
            if self.in_flight == 0:
                self.busy_s += time.perf_counter() - self._busy_since
