"""Client conformance against a local stub completion server."""
import socket

import pytest

from tabctx import dataset as ds
from tabctx import predictors
from tabctx.predictors import EndpointConfig, LlmClient, TransportError
from llm_stub import stub_server


@pytest.fixture(autouse=True)
def fast_retries_and_key(monkeypatch):
    monkeypatch.setattr(predictors, "RETRY_BACKOFF", 0.01)
    monkeypatch.setenv("TABCTX_API_KEY", "sekret")


@pytest.fixture
def stub():
    with stub_server() as (state, url):
        yield state, url


def client_for(url, **kw):
    cfg = EndpointConfig(base_url=url, model="stub-model", timeout=5.0, **kw)
    return LlmClient(cfg)


def test_request_shape_and_auth(stub):
    state, url = stub
    client = client_for(url)
    assert client.complete("hello") == "yes"
    body = state.requests[0]["body"]
    assert body["model"] == "stub-model"
    assert body["temperature"] == 0
    assert body["messages"][0]["content"] == "hello"
    assert state.requests[0]["auth"] == "Bearer sekret"


def test_completion_endpoint_sends_prompt_and_reads_text(stub):
    state, url = stub
    state.script = [(200, b'{"choices": [{"text": " no. "}]}')]
    rec = client_for(url, chat=False).predict("hello", ds.TASK_CLASSIFICATION, ("yes", "no"),
                                              0.0, 1, 8)
    assert rec.class_probabilities == (0.0, 1.0) and rec.flag is None
    body = state.requests[0]["body"]
    assert body["prompt"] == "hello" and "messages" not in body
    assert body["model"] == "stub-model" and body["max_tokens"] == 64 and body["temperature"] == 0


def test_classification_exact_match(stub):
    state, url = stub
    rec = client_for(url).predict("p", ds.TASK_CLASSIFICATION, ("yes", "no"), 0.0, 3, 8)
    assert rec.class_probabilities == (1.0, 0.0)
    assert rec.flag is None and rec.row_index == 3


def test_regression_first_number(stub):
    state, url = stub
    state.default = (200, "The value is 42.5, probably")
    rec = client_for(url).predict("p", ds.TASK_REGRESSION, (), 0.0, 0, 8)
    assert rec.point_estimate == 42.5


def test_integer_label_kept_verbatim(stub):
    state, url = stub
    state.default = (200, "7")
    rec = client_for(url).predict("p", ds.TASK_REGRESSION, (), 0.0, 0, 8)
    assert rec.point_estimate == 7 and isinstance(rec.point_estimate, int)


def test_parse_failure_retries_once_then_uniform(stub):
    state, url = stub
    state.script = [(200, "unsure"), (200, "still unsure")]
    rec = client_for(url).predict("p", ds.TASK_CLASSIFICATION, ("a", "b"), 0.0, 0, 8)
    assert rec.class_probabilities == (0.5, 0.5)
    assert rec.flag == "parse_failure"
    assert len(state.requests) == 2


def test_parse_retry_can_recover(stub):
    state, url = stub
    state.script = [(200, "hmm"), (200, "b")]
    rec = client_for(url).predict("p", ds.TASK_CLASSIFICATION, ("a", "b"), 0.0, 0, 8)
    assert rec.class_probabilities == (0.0, 1.0) and rec.flag is None


def test_regression_parse_failure_uses_context_mean(stub):
    state, url = stub
    state.default = (200, "no numbers here")
    rec = client_for(url).predict("p", ds.TASK_REGRESSION, (), 12.5, 0, 8)
    assert rec.point_estimate == 12.5 and rec.flag == "parse_failure"


def test_transport_retry_then_success(stub):
    state, url = stub
    state.script = [(500, "boom"), (200, "yes")]
    rec = client_for(url, max_retries=2).predict("p", ds.TASK_CLASSIFICATION, ("yes", "no"), 0.0, 0, 8)
    assert rec.class_probabilities == (1.0, 0.0) and rec.flag is None
    assert len(state.requests) == 2


def test_transport_failure_flagged_and_run_continues(stub):
    state, url = stub
    state.script = [(500, "x")] * 10
    client = client_for(url, max_retries=1)
    rec = client.predict("p", ds.TASK_CLASSIFICATION, ("a", "b"), 0.0, 5, 8)
    assert rec.flag == "transport_error"
    assert rec.class_probabilities == (0.5, 0.5)
    rec2 = client.predict("p", ds.TASK_REGRESSION, (), 3.5, 6, 8)
    assert rec2.flag == "transport_error" and rec2.point_estimate == 3.5


@pytest.mark.parametrize("status", [429, 500, 502, 503])
def test_retryable_status_is_retried(stub, status):
    state, url = stub
    state.script = [(status, "x"), (200, "yes")]
    assert client_for(url, max_retries=2).complete("p") == "yes"
    assert len(state.requests) == 2


@pytest.mark.parametrize("reply", [(400, "x"), (401, "x"), (404, "x"), (200, b"not json"),
                                   (200, b'{"choices": []}'), (200, b'{"result": "yes"}'),
                                   (200, b'{"choices": [{"message": {"content": null}}]}')],
                         ids=["400", "401", "404", "not-json", "no-choice", "no-choices-key",
                              "null-content"])
def test_unrecoverable_reply_fails_at_once(stub, reply):
    state, url = stub
    state.script = [reply] * 5
    client = client_for(url, max_retries=3)
    with pytest.raises(TransportError):
        client.complete("p")
    assert len(state.requests) == 1
    rec = client.predict("p", ds.TASK_CLASSIFICATION, ("a", "b"), 0.0, 2, 8)
    assert rec.flag == "transport_error" and rec.class_probabilities == (0.5, 0.5)
    assert len(state.requests) == 2


def test_timeout_is_retried(stub):
    state, url = stub
    state.delay = 0.3
    cfg = EndpointConfig(base_url=url, model="stub-model", timeout=0.05, max_retries=2)
    with pytest.raises(TransportError, match="3 attempts"):
        LlmClient(cfg).complete("p")
    state.delay = 0.0
    assert len(state.requests) == 3


def test_connection_error_is_retried():
    with socket.socket() as sock:  # a port that nothing listens on once closed
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    client = client_for(f"http://127.0.0.1:{port}/v1/chat/completions", max_retries=2)
    attempts = []
    post = client._post
    client._post = lambda *a, **kw: attempts.append(1) or post(*a, **kw)
    with pytest.raises(TransportError, match="3 attempts"):
        client.complete("p")
    assert len(attempts) == 3



@pytest.mark.parametrize("url", ["localhost:8000/v1", "ftp://127.0.0.1/v1", "http:///v1", ""])
def test_url_urllib_cannot_open_fails_at_once(url):
    client = client_for(url, max_retries=2)
    attempts = []
    post = client._post
    client._post = lambda *a, **kw: attempts.append(1) or post(*a, **kw)
    with pytest.raises(TransportError, match="not an http:// or https:// URL"):
        client.complete("p")
    assert attempts == []
    rec = client.predict("p", ds.TASK_CLASSIFICATION, ("a", "b"), 0.0, 2, 8)
    assert rec.flag == "transport_error" and attempts == []

def test_bounded_concurrency(stub):
    state, url = stub
    state.delay = 0.05
    client = client_for(url, concurrency=3)
    jobs = [{"prompt": f"p{i}", "task": ds.TASK_CLASSIFICATION, "class_labels": ("yes", "no"),
             "context_mean": 0.0, "row_index": i, "context_size": 4} for i in range(12)]
    recs = client.predict_many(jobs)
    assert [r.row_index for r in recs] == list(range(12))
    assert state.max_in_flight <= 3
    assert state.max_in_flight >= 2  # actually ran in parallel
