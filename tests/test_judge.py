import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from scenescore.judge import (
    CachingJudge,
    JudgeError,
    JudgeRequest,
    MalformedJudgment,
    MissingFixtureEntry,
    MockJudge,
    RemoteJudge,
    RemoteJudgeConfig,
    load_prompt,
    load_transcript,
    render_task_prompt,
    replay_judge,
    transcript_hash,
    validate_response,
)


def match_request(description="queen bed", categories=("bed", "desk")):
    return JudgeRequest(
        task="match_category",
        payload={"object_description": description, "categories": list(categories)},
    )


class TestJudgeRequest:
    def test_hash_stable_under_key_order(self):
        a = JudgeRequest("support_type", {"object_description": "lamp"})
        b = JudgeRequest("support_type", {"object_description": "lamp"})
        assert a.content_hash == b.content_hash

    def test_hash_differs_by_task(self):
        a = JudgeRequest("support_type", {"object_description": "lamp"})
        b = JudgeRequest("functional_sides", {"object_description": "lamp"})
        assert a.content_hash != b.content_hash

    def test_unknown_task(self):
        with pytest.raises(ValueError, match="unknown judge task"):
            JudgeRequest("paint_walls", {})


class TestValidation:
    def test_match_category_ok(self):
        r = validate_response(match_request(), {"matched": True, "matched_category": "bed"})
        assert r == {"matched": True, "matched_category": "bed"}

    def test_match_category_unknown_category(self):
        with pytest.raises(MalformedJudgment):
            validate_response(match_request(), {"matched": True, "matched_category": "sofa"})

    def test_match_category_unmatched_clears_category(self):
        r = validate_response(match_request(), {"matched": False, "matched_category": "bed"})
        assert r == {"matched": False, "matched_category": ""}

    def test_support_type(self):
        req = JudgeRequest("support_type", {"object_description": "ceiling lamp"})
        assert validate_response(req, {"support_type": "ceiling"}) == {"support_type": "ceiling"}
        with pytest.raises(MalformedJudgment):
            validate_response(req, {"support_type": "sky"})

    def test_functional_sides(self):
        req = JudgeRequest("functional_sides", {"object_description": "cup"})
        assert validate_response(req, {"sides": []}) == {"sides": []}
        # the prompt's example field name (with its typo) is accepted
        r = validate_response(req, {"functonal_sides": ["left", "front"]})
        assert r == {"sides": ["front", "left"]}
        with pytest.raises(MalformedJudgment):
            validate_response(req, {"sides": ["up"]})

    def _oo_request(self):
        return JudgeRequest(
            "map_oo_relation",
            {
                "relation_text": "at the foot of",
                "anchor_category": "bed",
                "other_categories": ["table"],
                "other_counts": [1],
            },
        )

    def test_oo_mapping_with_aliases(self):
        r = validate_response(
            self._oo_request(),
            {"relationship_types": ["side_of", "next_to"], "sides": ["front", "None"]},
        )
        assert r["relation_types"] == ["side_of", "next_to"]
        assert r["sides"] == ["front", None]
        assert r["anchor_category"] == "bed"

    def test_oo_mapping_rejects_unknown_relation(self):
        with pytest.raises(MalformedJudgment):
            validate_response(
                self._oo_request(), {"relation_types": ["diagonal"], "sides": [None]}
            )

    def test_oo_mapping_requires_side_for_side_of(self):
        with pytest.raises(MalformedJudgment):
            validate_response(
                self._oo_request(), {"relation_types": ["side_of"], "sides": [None]}
            )

    def test_oo_mapping_sides_must_parallel(self):
        with pytest.raises(MalformedJudgment):
            validate_response(
                self._oo_request(), {"relation_types": ["next_to"], "sides": []}
            )

    def test_oo_mapping_none_with_reason(self):
        r = validate_response(
            self._oo_request(), {"relation_types": None, "reason": "no match"}
        )
        assert r == {"relation_types": None, "reason": "no match"}

    def test_oo_mapping_none_without_reason_rejected(self):
        with pytest.raises(MalformedJudgment):
            validate_response(self._oo_request(), {"relation_types": None})

    def _oa_request(self):
        return JudgeRequest(
            "map_oa_relation",
            {
                "relation_text": "against",
                "category": "bookshelf",
                "arch_ref": "wall",
                "floor_ids": ["floor_0"],
            },
        )

    def test_oa_mapping(self):
        r = validate_response(
            self._oa_request(),
            {"relationship_type": "against_wall", "architectural_element_type": "wall"},
        )
        assert r["relation_type"] == "against_wall"
        assert r["arch_type"] == "wall"

    def test_oa_mapping_alias_and_floor_check(self):
        r = validate_response(
            self._oa_request(),
            {
                "relationship_type": "corner_of_room",
                "arch_element_type": "room",
                "specific_floors": ["floor_0"],
            },
        )
        assert r["relation_type"] == "corner_room"
        with pytest.raises(MalformedJudgment):
            validate_response(
                self._oa_request(),
                {"relationship_type": "corner_of_room", "arch_element_type": "room",
                 "specific_floors": ["floor_zz"]},
            )


class TestMockJudge:
    def _judge(self):
        return MockJudge(
            [
                {
                    "task": "match_category",
                    "payload": {"object_description": "queen bed", "categories": ["bed", "desk"]},
                    "response": {"matched": True, "matched_category": "bed"},
                },
                {
                    "task": "verify_attribute",
                    "payload": {"object_description": "red sofa", "category": "sofa",
                                "attribute": "red"},
                    "response": {"satisfied": True},
                },
            ]
        )

    def test_lookup(self):
        r = self._judge().judge(match_request())
        assert r["matched_category"] == "bed"

    def test_attribute_lookup(self):
        req = JudgeRequest(
            "verify_attribute",
            {"object_description": "red sofa", "category": "sofa", "attribute": "red"},
        )
        assert self._judge().judge(req) == {"satisfied": True}

    def test_missing_entry(self):
        with pytest.raises(MissingFixtureEntry, match="missing fixture entry"):
            self._judge().judge(match_request(description="unknown thing"))


class TestCachingAndReplay:
    class CountingJudge(MockJudge):
        def __init__(self, entries):
            super().__init__(entries)
            self.calls = 0

        def judge(self, request):
            self.calls += 1
            return super().judge(request)

    def _entries(self):
        return [
            {
                "task": "match_category",
                "payload": {"object_description": "queen bed", "categories": ["bed", "desk"]},
                "response": {"matched": True, "matched_category": "bed"},
            }
        ]

    def test_cache_hit_bypasses_inner(self, tmp_path):
        inner = self.CountingJudge(self._entries())
        judge = CachingJudge(inner, transcript_path=tmp_path / "t.jsonl")
        r1 = judge.judge(match_request())
        r2 = judge.judge(match_request())
        assert inner.calls == 1
        assert r1 == r2

    def test_transcript_replay_byte_identical(self, tmp_path):
        path = tmp_path / "t.jsonl"
        judge = CachingJudge(self.CountingJudge(self._entries()), transcript_path=path)
        original = judge.judge(match_request())
        replay = replay_judge(path)
        assert replay.judge(match_request()) == original
        # byte-level: canonical serialization of both responses is identical
        from scenescore.judge import canonical_json

        assert canonical_json(replay.judge(match_request())) == canonical_json(original)

    def test_replay_missing_entry(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("")
        replay = replay_judge(path)
        with pytest.raises(JudgeError, match="replay transcript has no entry"):
            replay.judge(match_request())

    def test_replayed_answer_is_validated(self, tmp_path):
        req = JudgeRequest("support_type", {"object_description": "lamp"})
        path = tmp_path / "t.jsonl"
        record = {"hash": req.content_hash, "response": {"support_type": "floating"}}
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(MalformedJudgment, match="unknown support type"):
            replay_judge(path).judge(req)

    def test_transcript_hash_ignores_timestamps(self, tmp_path):
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        j1 = CachingJudge(self.CountingJudge(self._entries()), transcript_path=p1)
        j1.judge(match_request())
        j2 = CachingJudge(self.CountingJudge(self._entries()), transcript_path=p2)
        j2.judge(match_request())
        t1, t2 = load_transcript(p1), load_transcript(p2)
        assert t1[0]["timestamp"] != t2[0]["timestamp"] or True  # timestamps may differ
        assert transcript_hash({r["hash"]: r["response"] for r in t1}) == transcript_hash(
            {r["hash"]: r["response"] for r in t2}
        )


class TestPrompts:
    def test_assets_exist(self):
        for name in ("system", "match_category", "verify_attribute", "support_type",
                     "functional_sides", "map_oo_relation", "map_oa_relation"):
            assert load_prompt(name)

    def test_render_match(self):
        text = render_task_prompt(match_request())
        assert '["bed", "desk"]' in text
        assert "<TARGET_CATEGORIES>" not in text

    def test_render_oo(self):
        req = JudgeRequest(
            "map_oo_relation",
            {
                "relation_text": "surround",
                "anchor_category": "table",
                "other_categories": ["chair"],
                "other_counts": [4],
            },
        )
        text = render_task_prompt(req)
        assert "surround - objects: table, chair, chair, chair, chair" in text

    def test_render_oa(self):
        req = JudgeRequest(
            "map_oa_relation",
            {"relation_text": "against", "category": "bookshelf", "arch_ref": "wall",
             "floor_ids": ["floor_0"]},
        )
        text = render_task_prompt(req)
        assert "against - object: bookshelf" in text
        assert '["floor_0"]' in text


class _FakeEndpoint(BaseHTTPRequestHandler):
    responses = []
    requests_seen = []

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        body = json.loads(self.rfile.read(length))
        type(self).requests_seen.append(body)
        status, payload = type(self).responses.pop(0)
        data = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def fake_endpoint():
    server = HTTPServer(("127.0.0.1", 0), _FakeEndpoint)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _FakeEndpoint.responses = []
    _FakeEndpoint.requests_seen = []
    yield server, f"http://127.0.0.1:{server.server_port}/v1/chat/completions"
    server.shutdown()


def chat_completion(content):
    return {"choices": [{"message": {"content": content}}]}


class TestRemoteJudge:
    def test_success_after_retry(self, fake_endpoint):
        server, url = fake_endpoint
        _FakeEndpoint.responses = [
            (500, {"error": "overloaded"}),
            (200, chat_completion(json.dumps({"matched": True, "matched_category": "bed"}))),
        ]
        judge = RemoteJudge(RemoteJudgeConfig(endpoint_url=url, model="test-model",
                                              backoff_seconds=0.01))
        r = judge.judge(match_request())
        assert r == {"matched": True, "matched_category": "bed"}
        assert len(_FakeEndpoint.requests_seen) == 2
        assert _FakeEndpoint.requests_seen[0]["model"] == "test-model"

    def test_code_fenced_json(self, fake_endpoint):
        server, url = fake_endpoint
        _FakeEndpoint.responses = [
            (200, chat_completion('```json\n{"support_type": "ceiling"}\n```')),
        ]
        judge = RemoteJudge(RemoteJudgeConfig(endpoint_url=url, model="m"))
        req = JudgeRequest("support_type", {"object_description": "ceiling lamp"})
        assert judge.judge(req) == {"support_type": "ceiling"}

    def test_persistent_failure_carries_hash(self, fake_endpoint):
        server, url = fake_endpoint
        _FakeEndpoint.responses = [(500, {}), (500, {}), (500, {})]
        judge = RemoteJudge(RemoteJudgeConfig(endpoint_url=url, model="m",
                                              max_retries=3, backoff_seconds=0.01))
        req = match_request()
        with pytest.raises(JudgeError) as err:
            judge.judge(req)
        assert err.value.request_hash == req.content_hash

    def test_malformed_judgment_retried_then_raised(self, fake_endpoint):
        server, url = fake_endpoint
        _FakeEndpoint.responses = [
            (200, chat_completion('{"matched": "yes"}')),
            (200, chat_completion("not json at all")),
        ]
        judge = RemoteJudge(RemoteJudgeConfig(endpoint_url=url, model="m",
                                              max_retries=2, backoff_seconds=0.01))
        with pytest.raises(JudgeError, match="failed after 2 attempts"):
            judge.judge(match_request())
