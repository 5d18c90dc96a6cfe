"""Local stub completion server for client conformance tests."""
import json
import threading
import time
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


class StubState:
    def __init__(self):
        self.lock = threading.Lock()
        self.in_flight = 0
        self.max_in_flight = 0
        self.requests = []
        self.script = []          # queue of (status, text or raw body bytes) responses
        self.default = (200, "yes")
        self.delay = 0.0

    def next_response(self):
        with self.lock:
            return self.script.pop(0) if self.script else self.default


class StubHandler(BaseHTTPRequestHandler):
    state: StubState = None

    def do_POST(self):
        st = self.state
        with st.lock:
            st.in_flight += 1
            st.max_in_flight = max(st.max_in_flight, st.in_flight)
        try:
            body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
            with st.lock:
                st.requests.append({"body": body, "auth": self.headers.get("Authorization")})
            if st.delay:
                time.sleep(st.delay)
            status, text = st.next_response()
            # bytes are sent as the raw body, to script malformed replies
            payload = text if isinstance(text, bytes) else json.dumps(
                {"choices": [{"message": {"content": text}}]}).encode()
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)
        finally:
            with st.lock:
                st.in_flight -= 1

    def log_message(self, *args):
        pass


@contextmanager
def stub_server():
    state = StubState()
    handler = type("Handler", (StubHandler,), {"state": state})
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    try:
        yield state, f"http://127.0.0.1:{server.server_address[1]}/v1/chat/completions"
    finally:
        server.shutdown()
        server.server_close()
