"""Local stub completion endpoint for the ``llm-reg`` workload.

Usage: python3 perfbench/stub.py SERVICE_MS

Serves OpenAI-style chat/completions POSTs on 127.0.0.1 (a free port, printed
as the first line of stdout). Each request sleeps SERVICE_MS milliseconds and
replies with ``reply_for(prompt)``. ``GET /drain`` returns the prompts served
since the last drain and forgets them. The process exits on SIGTERM or when
its parent process goes away.
"""
from __future__ import annotations

import json
import os
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


def reply_for(prompt: str) -> str:
    """The number of labeled context rows in the prompt: the non-empty lines
    after the first blank line, minus the query line. It depends only on the
    prompt's line structure, never on how its numbers are rendered."""
    body = prompt.split("\n\n", 1)[1] if "\n\n" in prompt else ""
    lines = [line for line in body.split("\n") if line.strip()]
    return str(max(len(lines) - 1, 0))


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"  # keep-alive: one connection per client thread
    disable_nagle_algorithm = True  # headers and body go out as two writes
    service_s = 0.0
    lock = threading.Lock()
    served: list[str] = []

    def _send(self, obj) -> None:
        payload = json.dumps(obj).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        prompt = body["messages"][0]["content"] if "messages" in body else body["prompt"]
        time.sleep(self.service_s)
        with self.lock:
            self.served.append(prompt)
        self._send({"choices": [{"message": {"content": reply_for(prompt)}}]})

    def do_GET(self):
        with self.lock:
            prompts = list(self.served)
            self.served.clear()
        self._send({"prompts": prompts})

    def log_message(self, *args):
        pass


def _exit_with_parent(parent: int) -> None:
    while os.getppid() == parent:
        time.sleep(0.5)
    os._exit(0)


def main() -> int:
    _Handler.service_s = float(sys.argv[1]) / 1000.0
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    server.daemon_threads = True
    threading.Thread(target=_exit_with_parent, args=(os.getppid(),), daemon=True).start()
    print(server.server_address[1], flush=True)
    server.serve_forever()
    return 0


if __name__ == "__main__":
    sys.exit(main())
