"""Pluggable semantic judge for the five VLM-mediated evaluation tasks.

Three interchangeable backends answer JudgeRequests: a remote
chat-completions adapter, a table-driven deterministic mock for tests, and
a replay reader over a previously recorded transcript.  All responses pass
the same per-task schema validation, and every judgment is cached by
request content hash into an append-only JSONL transcript so full
evaluations replay offline.
"""

from __future__ import annotations

import base64
import functools
import hashlib
import json
import logging
import threading
import time
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .relations import (
    BOX_SIDES,
    LONG_SHORT,
    OA_RELATIONS,
    OO_RELATIONS,
    canonical_relation,
)

logger = logging.getLogger(__name__)

JUDGE_TASKS = (
    "match_category",
    "verify_attribute",
    "support_type",
    "functional_sides",
    "map_oo_relation",
    "map_oa_relation",
)
SUPPORT_TYPES = ("ground", "object", "wall", "ceiling")
FUNCTIONAL_SIDE_NAMES = ("front", "back", "left", "right")
ARCH_TYPES = ("wall", "floor", "ceiling", "room", "window", "door")
SIDE_REQUIRED = {"side_of": BOX_SIDES, "side_region": BOX_SIDES, "long_short_side": LONG_SHORT}


class JudgeError(Exception):
    def __init__(self, message, request_hash=None):
        super().__init__(message)
        self.request_hash = request_hash


class MalformedJudgment(JudgeError):
    pass


class MissingFixtureEntry(JudgeError):
    pass


class RemoteJudgeError(JudgeError):
    pass


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


@dataclass(frozen=True)
class JudgeRequest:
    task: str
    payload: dict
    image_refs: tuple = ()

    def __post_init__(self):
        if self.task not in JUDGE_TASKS:
            raise ValueError(f"unknown judge task '{self.task}'")

    @property
    def canonical_payload(self) -> str:
        return canonical_json(self.payload)

    @property
    def content_hash(self) -> str:
        h = hashlib.sha256()
        h.update(self.task.encode())
        h.update(b"\x00")
        h.update(self.canonical_payload.encode())
        for ref in self.image_refs:
            h.update(b"\x00")
            h.update(str(ref).encode())
        return h.hexdigest()


# ---------------------------------------------------------------------------
# Response validation
# ---------------------------------------------------------------------------


def _expect(condition, message, request_hash=None):
    if not condition:
        raise MalformedJudgment(f"malformed judgment: {message}", request_hash)


def _first_key(response: dict, *names):
    for name in names:
        if name in response:
            return response[name]
    return None


def validate_response(request: JudgeRequest, response: dict) -> dict:
    """Validate and canonicalize one judge response for its task.

    Raises MalformedJudgment when required fields are missing, enum values
    fall outside the catalogues, or mapped relations name unknown types.
    """
    h = request.content_hash
    _expect(isinstance(response, dict), f"response is not an object: {response!r}", h)
    task = request.task

    if task == "match_category":
        matched = _first_key(response, "matched")
        _expect(isinstance(matched, bool), "'matched' must be a boolean", h)
        category = _first_key(response, "matched_category") or ""
        if matched:
            _expect(
                category in request.payload["categories"],
                f"matched_category '{category}' not among provided categories",
                h,
            )
        else:
            category = ""
        return {"matched": matched, "matched_category": category}

    if task == "verify_attribute":
        satisfied = _first_key(response, "satisfied")
        _expect(isinstance(satisfied, bool), "'satisfied' must be a boolean", h)
        return {"satisfied": satisfied}

    if task == "support_type":
        kind = _first_key(response, "support_type", "kind")
        _expect(kind in SUPPORT_TYPES, f"unknown support type {kind!r}", h)
        return {"support_type": kind}

    if task == "functional_sides":
        sides = _first_key(response, "sides", "functional_sides", "functonal_sides")
        _expect(isinstance(sides, list), "'sides' must be a list", h)
        _expect(
            all(s in FUNCTIONAL_SIDE_NAMES for s in sides),
            f"functional sides must be among {FUNCTIONAL_SIDE_NAMES}, got {sides!r}",
            h,
        )
        return {"sides": sorted(set(sides), key=FUNCTIONAL_SIDE_NAMES.index)}

    if task == "map_oo_relation":
        return _validate_oo_mapping(request, response, h)
    if task == "map_oa_relation":
        return _validate_oa_mapping(request, response, h)
    raise MalformedJudgment(f"malformed judgment: unknown task '{task}'", h)


def _validate_oo_mapping(request, response, h) -> dict:
    types = _first_key(response, "relation_types", "relationship_types", "relationship_type")
    if types is None:
        reason = response.get("reason", "")
        _expect(bool(reason), "unmappable relation must carry a reason", h)
        return {"relation_types": None, "reason": reason}
    _expect(isinstance(types, list) and types, "'relation_types' must be a non-empty list", h)
    try:
        resolved = [canonical_relation(t, OO_RELATIONS) for t in types]
    except ValueError as exc:
        raise MalformedJudgment(f"malformed judgment: {exc}", h) from exc
    sides_raw = _first_key(response, "sides", "side")
    _expect(
        isinstance(sides_raw, list) and len(sides_raw) == len(resolved),
        "'sides' must parallel 'relation_types'",
        h,
    )
    sides = []
    for rel, side in zip(resolved, sides_raw):
        if isinstance(side, str) and side.lower() in ("none", "null", ""):
            side = None
        if rel in SIDE_REQUIRED:
            _expect(
                side in SIDE_REQUIRED[rel],
                f"relation '{rel}' needs a side from {SIDE_REQUIRED[rel]}, got {side!r}",
                h,
            )
        else:
            _expect(side is None, f"relation '{rel}' takes no side, got {side!r}", h)
        sides.append(side)
    payload = request.payload
    anchor = response.get("anchor_category", response.get("anchor_object", payload["anchor_category"]))
    others = list(response.get("other_categories", response.get("other_objects", payload["other_categories"])))
    counts = [int(c) for c in response.get("other_counts", response.get("other_object_counts", payload["other_counts"]))]
    _expect(len(others) == len(counts), "'other_counts' must parallel 'other_categories'", h)
    _expect(all(c >= 1 for c in counts), "other counts must be >= 1", h)
    return {
        "relation_types": resolved,
        "sides": sides,
        "anchor_category": anchor,
        "other_categories": others,
        "other_counts": counts,
    }


def _validate_oa_mapping(request, response, h) -> dict:
    rel = _first_key(response, "relation_type", "relationship_type")
    if rel is None or (isinstance(rel, str) and rel.lower() in ("none", "null", "")):
        reason = response.get("reason", "")
        _expect(bool(reason), "unmappable relation must carry a reason", h)
        return {"relation_type": None, "reason": reason}
    try:
        resolved = canonical_relation(rel, OA_RELATIONS)
    except ValueError as exc:
        raise MalformedJudgment(f"malformed judgment: {exc}", h) from exc
    arch_type = _first_key(response, "arch_type", "architectural_element_type", "arch_element_type")
    if arch_type is None:
        arch_type = request.payload.get("arch_ref", "")
        if arch_type not in ARCH_TYPES:
            arch_type = "room"
    _expect(arch_type in ARCH_TYPES, f"unknown arch type {arch_type!r}", h)
    floors = response.get("specific_floors", [])
    _expect(isinstance(floors, list), "'specific_floors' must be a list", h)
    known = set(request.payload.get("floor_ids", ()))
    _expect(all(f in known for f in floors), f"unknown floor ids in {floors!r}", h)
    side = response.get("side")
    if isinstance(side, str) and side.lower() in ("none", "null", ""):
        side = None
    return {
        "relation_type": resolved,
        "arch_type": arch_type,
        "specific_floors": sorted(floors),
        "side": side,
    }


# ---------------------------------------------------------------------------
# Backends
# ---------------------------------------------------------------------------


class Judge:
    """Base judge: subclasses answer one validated request per call.

    `judge` may be called from several threads at once (`evaluate_scene`
    asks a scene's requests concurrently), so an implementation guards any
    state it changes.
    """

    def judge(self, request: JudgeRequest) -> dict:
        raise NotImplementedError


class MockJudge(Judge):
    """Deterministic table lookup keyed by (task, canonical payload).

    The table is data, not heuristics: a request without a fixture row is an
    error that echoes the payload.
    """

    def __init__(self, entries):
        self.table = {}
        for row in entries:
            key = (row["task"], canonical_json(row["payload"]))
            self.table[key] = row["response"]

    def judge(self, request: JudgeRequest) -> dict:
        key = (request.task, request.canonical_payload)
        if key not in self.table:
            raise MissingFixtureEntry(
                f"missing fixture entry for task '{request.task}' "
                f"payload {request.canonical_payload}",
                request.content_hash,
            )
        return validate_response(request, self.table[key])


@functools.lru_cache(maxsize=None)  # one entry per prompt file
def load_prompt(name: str) -> str:
    return resources.files("scenescore.prompts").joinpath(f"{name}.txt").read_text("utf-8")


@dataclass
class RemoteJudgeConfig:
    endpoint_url: str
    model: str
    api_key: str = ""
    max_retries: int = 3
    backoff_seconds: float = 0.5
    max_in_flight: int = 4
    timeout_seconds: float = 60.0
    temperature: float = 0.0


class RemoteJudge(Judge):
    """HTTPS chat-completions adapter with bounded retries and concurrency."""

    def __init__(self, config: RemoteJudgeConfig):
        self.config = config
        self._semaphore = threading.Semaphore(config.max_in_flight)

    def judge(self, request: JudgeRequest) -> dict:
        import requests

        body = {
            "model": self.config.model,
            "temperature": self.config.temperature,
            "messages": self._messages(request),
        }
        headers = {"Content-Type": "application/json"}
        if self.config.api_key:
            headers["Authorization"] = f"Bearer {self.config.api_key}"
        last_error = None
        for attempt in range(self.config.max_retries):
            if attempt:
                time.sleep(self.config.backoff_seconds * 2 ** (attempt - 1))
            try:
                with self._semaphore:
                    resp = requests.post(
                        self.config.endpoint_url,
                        json=body,
                        headers=headers,
                        timeout=self.config.timeout_seconds,
                    )
                resp.raise_for_status()
                content = resp.json()["choices"][0]["message"]["content"]
                return validate_response(request, _parse_json_content(content))
            except MalformedJudgment as exc:
                last_error = exc
                logger.warning("judge returned malformed output (attempt %d): %s", attempt + 1, exc)
            except Exception as exc:  # network / HTTP / schema drift
                last_error = exc
                logger.warning("remote judge call failed (attempt %d): %s", attempt + 1, exc)
        raise RemoteJudgeError(
            f"remote judge failed after {self.config.max_retries} attempts: {last_error}",
            request.content_hash,
        )

    def _messages(self, request: JudgeRequest):
        system = load_prompt("system")
        user_text = render_task_prompt(request)
        content = [{"type": "text", "text": user_text}]
        for ref in request.image_refs:
            path = Path(ref)
            if path.exists():
                encoded = base64.b64encode(path.read_bytes()).decode()
                suffix = path.suffix.lstrip(".").lower() or "png"
                content.append(
                    {
                        "type": "image_url",
                        "image_url": {"url": f"data:image/{suffix};base64,{encoded}"},
                    }
                )
        return [
            {"role": "system", "content": system},
            {"role": "user", "content": content},
        ]


def _parse_json_content(content: str) -> dict:
    text = content.strip()
    if text.startswith("```"):
        text = text.strip("`")
        if text.startswith("json"):
            text = text[4:]
    try:
        parsed = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedJudgment(f"malformed judgment: not JSON: {content[:200]!r}") from exc
    if isinstance(parsed, list):
        if len(parsed) != 1:
            raise MalformedJudgment(f"malformed judgment: expected one object, got {len(parsed)}")
        parsed = parsed[0]
    return parsed


def render_task_prompt(request: JudgeRequest) -> str:
    """Fill the task's prompt asset with this request's payload."""
    p = request.payload
    template = load_prompt(request.task)
    if request.task == "match_category":
        return template.replace("<TARGET_CATEGORIES>", json.dumps(p["categories"]))
    if request.task == "verify_attribute":
        return (
            template.replace("<OBJ_ATTRIBUTES>", p["attribute"])
            .replace("<OBJ_COUNT>", "1")
            .replace("<OBJ_CATEGORY>", p["category"])
        )
    if request.task == "support_type":
        return template
    if request.task == "functional_sides":
        return template.replace("<OBJ_DESCRIPTIONS>", p["object_description"])
    if request.task == "map_oo_relation":
        names = [p["anchor_category"]]
        for cat, count in zip(p["other_categories"], p["other_counts"]):
            names.extend([cat] * count)
        line = (
            f"{p['relation_text']} - objects: {', '.join(names)}, "
            "with the object with index: 0 being the anchor"
        )
        return template.replace("<RELATIONSHIPS>", line)
    if request.task == "map_oa_relation":
        line = (
            f"{p['relation_text']} - object: {p['category']}, "
            f"with respect to architectural element: {p['arch_ref']}"
        )
        return template.replace("<RELATIONSHIPS>", line).replace(
            "<FLOOR_IDS>", json.dumps(list(p.get("floor_ids", ())))
        )
    raise ValueError(f"unknown task '{request.task}'")


# ---------------------------------------------------------------------------
# Caching, transcripts, replay
# ---------------------------------------------------------------------------


class CachingJudge(Judge):
    """Caches responses by request hash; optionally appends a transcript.

    Every answer served from the cache passes `validate_response` again.
    With inner=None the judge is replay-only: every request must already be
    in the preloaded transcript.
    """

    def __init__(self, inner: Judge | None, transcript_path=None, preload=None):
        self.inner = inner
        self.transcript_path = Path(transcript_path) if transcript_path else None
        self._cache: dict[str, dict] = {}
        self._lock = threading.Lock()
        for record in preload or []:
            self._cache[record["hash"]] = record["response"]

    def judge(self, request: JudgeRequest) -> dict:
        key = request.content_hash
        with self._lock:
            hit, cached = key in self._cache, self._cache.get(key)
        if hit:  # a preloaded transcript is outside input: check it as it is served
            return validate_response(request, cached)
        if self.inner is None:
            raise JudgeError(
                f"replay transcript has no entry for task '{request.task}' "
                f"payload {request.canonical_payload}",
                key,
            )
        response = self.inner.judge(request)
        with self._lock:
            if key not in self._cache:
                self._cache[key] = response
                if self.transcript_path:
                    record = {
                        "hash": key,
                        "task": request.task,
                        "payload": request.payload,
                        "response": response,
                        "timestamp": time.time(),
                    }
                    with open(self.transcript_path, "a", encoding="utf-8") as fh:
                        fh.write(canonical_json(record) + "\n")
        return response


def load_transcript(path) -> list[dict]:
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def replay_judge(transcript_path) -> CachingJudge:
    return CachingJudge(inner=None, preload=load_transcript(transcript_path))


def transcript_hash(responses_by_hash: dict[str, dict]) -> str:
    """Order-independent digest of (request hash, response) pairs.

    Timestamps are excluded so replayed runs hash identically.
    """
    h = hashlib.sha256()
    for key in sorted(responses_by_hash):
        h.update(key.encode())
        h.update(b"\x00")
        h.update(canonical_json(responses_by_hash[key]).encode())
        h.update(b"\n")
    return h.hexdigest()
