"""HTTP front end for the telemetry store.

Endpoints:
  POST /update                                   write one entry (form or query params)
  POST /channels                                 create a channel (local admin, no key)
  GET  /channels/<id>/feeds.json                 last entries, oldest first
  GET  /channels/<id>/fields/<k>/last.txt        newest value of one field

In simulation mode (--sim-time) the server trusts the client-supplied
created_at so replays are deterministic, and an update without one is
refused with 400; otherwise it stamps entries with its own clock. A form
key that starts with `field` but is not field1..field8 gets 400. A refused
call is answered with its store error's `status` (401 bad key, 400 invalid
input such as a non-finite min_post_interval_s, 404 no such channel, 503
closed store) and the error text as the body.

The handler is a socketserver stream handler with its own keep-alive request
loop, by the rules of the stdlib's http.server but without loading it (nor,
through it, http.client, email and ssl). It reads the request line and the
header block itself, the headers into a dict keyed by lower-case name. A
header block that leaves unclear where the request ends gets 400 and a
close: a line without a colon, whitespace before the colon, an obs-fold
continuation line, or two Content-Length headers that differ. A request
body is framed by Content-Length on every method (a GET reads and ignores
it), so no byte of a body is ever run as the next request; any
Transfer-Encoding gets 411 and a close, a body that ends early gets 400, and
a Content-Length over MAX_BODY_BYTES, however many digits it has, gets 413.
A path number too long for int() names no channel or field: 404.
Each answer, status line to body, is one write into the buffered `wfile`
that `handle_one_request()` flushes; an interim `100 Continue` is flushed at
once, because the client holds its body back until it arrives. The Date
header's text is formatted once per second, and the Server header still
reads `BaseHTTP/0.6 Python/<version>`, so answers are the bytes http.server
sent.

Each socket wait lasts at most REQUEST_TIMEOUT_S, so a stalled client holds
its handler thread no longer: a body that stops arriving gets 408 and a
close, and an idle connection or unfinished headers are closed unanswered.
Errors found before any route runs (a request line over MAX_LINE_BYTES, a
malformed request line, an unknown method, an oversized header) are
answered as the API's own refusals: a status line, a text/plain body and
Connection: close. So is an HTTP/0.9 request line, which http.server would
answer with a bare body.

At most MAX_HANDLERS connections are served at once, each on its own thread.
A connection past the cap is answered 503 at once by the accepting thread,
which then closes it, so slow clients cannot pile up threads.

Feed rows are rendered once, in the only feed-page cache. Per channel the
server keeps the JSON text of the newest rows, at most FEED_CACHE_ROWS, of
the last `feeds.json` page it served, keyed by entry id; a longer page is
rendered in full. When they reach back to the new page's first row,
it asks the store only for the entries above its newest row and renders just
those. The text cannot go stale: an entry never changes once appended, and a
store never reuses an entry id. Each page's rows are published as a new dict
that is never changed afterwards, so handler threads share them without a lock.
"""

from __future__ import annotations

import argparse
import json
import logging
import re
import socketserver
import sys
import threading
import time
from http import HTTPStatus
from itertools import islice
from typing import Optional
from urllib.parse import unquote_plus, urlparse

from .store import MAX_FIELDS, AuthenticationError, TelemetryError, TelemetryStore, ValidationError

logger = logging.getLogger(__name__)

MAX_BODY_BYTES = 64 * 1024  # a full /update form is well under 1 KiB
REQUEST_TIMEOUT_S = 30.0  # longest wait for a client's bytes; an answer's write gets as long
MAX_HANDLERS = 64  # connections served at once; one more is answered 503 and closed
FEED_CACHE_ROWS = 1_000  # newest rendered rows kept per channel; a longer page renders in full
MAX_LINE_BYTES = 65_536  # longest request or header line, as in http.server
MAX_HEADER_LINES = 100  # header lines read, the blank one included, as in http.server

_FIELD_POSITIONS = {f"field{pos}": pos for pos in range(1, MAX_FIELDS + 1)}  # in position order
_FEEDS_RE = re.compile(r"^/channels/(\d+)/feeds\.json$")
_LAST_RE = re.compile(r"^/channels/(\d+)/fields/(\d+)/last\.txt$")
_LENGTH_DIGITS = len(str(MAX_BODY_BYTES))  # a longer Content-Length, leading zeros aside, is too big

_PHRASES = {status.value: status.phrase for status in HTTPStatus}
# The Server header http.server sent, kept so that answers stay byte for byte the same.
_SERVER_TEXT = f"BaseHTTP/0.6 Python/{sys.version.split()[0]}"
_DAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
_MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")


def _http_date(second: int) -> str:
    """The Date header's text for a Unix second, e.g. `Sun, 09 Sep 2001 01:46:40 GMT`."""
    t = time.gmtime(second)
    return (
        f"{_DAYS[t.tm_wday]}, {t.tm_mday:02d} {_MONTHS[t.tm_mon - 1]} {t.tm_year:04d} "
        f"{t.tm_hour:02d}:{t.tm_min:02d}:{t.tm_sec:02d} GMT"
    )


def _version_number(word: str):
    """(major, minor) of a request line's `HTTP/x.y` word, or None if it is not one.

    As in http.server: two dot-separated runs of at most ten digits, leading
    zeros ignored.
    """
    if not word.startswith("HTTP/"):
        return None
    numbers = word[5:].split(".")
    if len(numbers) != 2 or any(not (n.isascii() and n.isdigit()) or len(n) > 10 for n in numbers):
        return None
    return int(numbers[0]), int(numbers[1])


def _parse_form(text: str) -> dict:
    """{name: [value, ...]} of a form or query string, as `parse_qs(text)` gives it.

    An item with no value is dropped. `+` and `%XX` are decoded only when the
    text has them, by unquote_plus with errors="replace".
    """
    form: dict = {}
    decode = "%" in text or "+" in text
    for item in text.split("&"):
        name, _, value = item.partition("=")
        if value:
            if decode:
                name, value = unquote_plus(name), unquote_plus(value)
            form.setdefault(name, []).append(value)
    return form


def _path_numbers(match) -> Optional[list]:
    """The ints a route's path names, or None if one is too long for int()."""
    try:
        return [int(number) for number in match.groups()]
    except ValueError:  # over the interpreter's int digit limit
        return None


def _coerce(text: str):
    """Numeric-or-text: prefer int, then float, else keep the string."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def _render_row(entry) -> str:
    row = {"created_at": entry.created_at, "entry_id": entry.entry_id}
    for position, value in entry.values.items():  # read_feed gives them in position order
        row[f"field{position}"] = value
    return json.dumps(row)


class TelemetryRequestHandler(socketserver.StreamRequestHandler):
    disable_nagle_algorithm = True  # small request/response pairs; avoid delayed-ACK stalls
    wbufsize = 64 * 1024  # an answer up to this size leaves in one write
    timeout = REQUEST_TIMEOUT_S  # a stalled client costs a thread only this long

    def handle(self) -> None:
        """Serve requests on the connection until one of them closes it."""
        self.close_connection = True
        self.handle_one_request()
        while not self.close_connection:
            self.handle_one_request()

    def handle_one_request(self) -> None:
        """Read, route and answer one request. An empty read, or a read or
        write that times out, closes the connection unanswered."""
        try:
            self.raw_requestline = self.rfile.readline(MAX_LINE_BYTES + 1)
            if len(self.raw_requestline) > MAX_LINE_BYTES:
                self.requestline, self.command = "", None
                self.send_error(414)
                return
            if not self.raw_requestline:
                self.close_connection = True
                return
            if not self.parse_request():
                return
            route = getattr(self, "do_" + self.command, None)
            if route is None:
                self.send_error(501, f"Unsupported method ({self.command!r})")
                return
            route()
            self.wfile.flush()
        except TimeoutError as exc:
            self.log_message("Request timed out: %r", exc)
            self.close_connection = True

    def handle_expect_100(self) -> bool:
        self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
        self.wfile.flush()  # the client sends its body only after this interim answer
        return True

    def parse_request(self) -> bool:
        """Read the request line and the header block, as http.server does,
        but with the headers read here into `self.headers`, a dict keyed by
        lower-case name. Returns False once the request has been answered (or,
        for an empty line, dropped).

        An HTTP/0.9 request line (no version, or HTTP/0.9 itself) gets 400:
        http.server would answer one with a bare body and no status line,
        which an HTTP/1.1 client cannot read as an answer.
        """
        self.command = None
        self.request_version = "HTTP/0.9"
        self.close_connection = True
        self.requestline = str(self.raw_requestline, "iso-8859-1").rstrip("\r\n")
        words = self.requestline.split()
        if not words:
            return False
        if len(words) >= 3:
            version = _version_number(words[-1])
            if version is None:
                self.send_error(400, f"Bad request version ({words[-1]!r})")
                return False
            if version >= (2, 0):
                self.send_error(505, f"Invalid HTTP version ({words[-1][5:]})")
                return False
            self.close_connection = version < (1, 1)
            self.request_version = words[-1]
        if not 2 <= len(words) <= 3:
            self.send_error(400, f"Bad request syntax ({self.requestline!r})")
            return False
        self.command, self.path = words[:2]
        if len(words) == 2 and self.command != "GET":
            self.send_error(400, f"Bad HTTP/0.9 request type ({self.command!r})")
            return False
        if self.path.startswith("//"):
            self.path = "/" + self.path.lstrip("/")  # not read as a scheme-relative URL
        self.headers = self._read_headers()
        if self.headers is None:
            return False
        if self.request_version == "HTTP/0.9":
            self.send_error(400, "request line must end with HTTP/1.0 or HTTP/1.1")
            return False
        connection = self.headers.get("connection", "").lower()
        if connection == "close":
            self.close_connection = True
        elif connection == "keep-alive":
            self.close_connection = False
        expect = self.headers.get("expect", "").lower()
        if expect == "100-continue" and self.request_version >= "HTTP/1.1":
            return self.handle_expect_100()
        return True

    def _read_headers(self) -> Optional[dict]:
        """The header block up to its blank line as {lower-case name: value},
        or None once a malformed block has been answered.

        A line over MAX_LINE_BYTES, or a block of more than MAX_HEADER_LINES
        lines with its blank line, gets 431, as from http.server. A line
        without a colon, with whitespace in its name or folded onto the line
        before, or two Content-Length headers that differ get 400: each would
        leave it unclear where this request ends and the next begins.
        """
        headers: dict = {}
        for count in range(MAX_HEADER_LINES + 1):
            line = self.rfile.readline(MAX_LINE_BYTES + 1)
            if len(line) > MAX_LINE_BYTES:
                self.send_error(431, "Line too long")
                return None
            if count == MAX_HEADER_LINES:
                self.send_error(431, "Too many headers")
                return None
            if line in (b"\r\n", b"\n", b""):
                return headers
            name, colon, value = str(line, "iso-8859-1").rstrip("\r\n").partition(":")
            if not colon or not name or " " in name or "\t" in name:
                self.send_error(400, "header line must be a name, a colon and a value")
                return None
            name, value = name.lower(), value.strip(" \t")
            if name not in headers:
                headers[name] = value
            elif name == "content-length" and headers[name] != value:
                self.send_error(400, "Content-Length headers differ")
                return None

    def date_time_string(self) -> str:
        """The Date header's text, formatted once per second."""
        second = int(time.time())
        cached_second, text = self.server.date_header
        if second != cached_second:
            text = _http_date(second)
            self.server.date_header = (second, text)  # one tuple: a reader sees both or neither
        return text

    def send_error(self, code: int, message: Optional[str] = None) -> None:
        """Answer an error found before any route runs as the API answers one."""
        self.log_message("code %d, message %s", code, message)
        self._refuse(code, message or _PHRASES[code])

    def log_message(self, fmt, *args):  # access and error logs, at debug level
        logger.debug("%s " + fmt, self.client_address[0], *args)

    # -- plumbing ----------------------------------------------------------

    def _params(self):
        """(path, params), or None once a malformed request has been answered.

        The body is read on every method; only a POST's body carries params.
        """
        url = urlparse(self.path)
        params = _parse_form(url.query)
        if "transfer-encoding" in self.headers:
            return self._refuse(411, "Transfer-Encoding is not supported; send Content-Length")
        raw_length = self.headers.get("content-length") or "0"
        if not raw_length.isascii() or not raw_length.isdigit():
            return self._refuse(400, "Content-Length must be a non-negative integer")
        digits = raw_length.lstrip("0") or "0"  # int() refuses text over 4,300 digits
        if len(digits) > _LENGTH_DIGITS or int(digits) > MAX_BODY_BYTES:
            return self._refuse(413, f"request body over {MAX_BODY_BYTES} bytes")
        length = int(digits)
        try:
            body = self.rfile.read(length)
        except TimeoutError:
            return self._refuse(408, f"request body not received within {self.timeout:g} s")
        if len(body) < length:
            return self._refuse(400, "request body ended before its Content-Length")
        if self.command == "POST":
            try:
                text = body.decode("utf-8")
            except UnicodeDecodeError:
                return self._refuse(400, "request body must be UTF-8")
            for key, values in _parse_form(text).items():
                params.setdefault(key, []).extend(values)
        return url.path, params

    def _refuse(self, status: int, text: str) -> None:
        """Answer a request whose body cannot be framed or read, then close."""
        self.close_connection = True
        self._send_text(status, text)

    @staticmethod
    def _first(params, key, default=None):
        values = params.get(key)
        return values[0] if values else default

    def _send(self, status: int, body: bytes, content_type: str) -> None:
        """Write the answer, status line to body, in one write."""
        self.log_message('"%s" %s -', self.requestline, status)
        connection = "Connection: close\r\n" if self.close_connection else ""
        head = (
            f"HTTP/1.1 {status} {_PHRASES.get(status, '')}\r\n"
            f"Server: {_SERVER_TEXT}\r\n"
            f"Date: {self.date_time_string()}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n{connection}\r\n"
        ).encode("latin-1")
        # Only an error answers HEAD, and without a body.
        self.wfile.write(head if self.command == "HEAD" else head + body)

    def _send_text(self, status: int, text: str) -> None:
        self._send(status, text.encode("utf-8"), "text/plain; charset=utf-8")

    def _send_json(self, status: int, obj) -> None:
        self._send(status, json.dumps(obj).encode("utf-8"), "application/json")

    def _dispatch(self, handler, *args) -> None:
        try:
            handler(*args)
        except TelemetryError as exc:
            self._send_text(exc.status, str(exc))

    # -- routes --------------------------------------------------------------

    def do_POST(self):
        request = self._params()
        if request is None:
            return
        path, params = request
        if path == "/update":
            self._dispatch(self._post_update, params)
        elif path == "/channels":
            self._dispatch(self._post_channels, params)
        else:
            self._send_text(404, "not found")

    def do_GET(self):
        request = self._params()
        if request is None:
            return
        path, params = request
        for pattern, route in ((_FEEDS_RE, self._get_feeds), (_LAST_RE, self._get_last)):
            match = pattern.match(path)
            numbers = match and _path_numbers(match)
            if numbers:
                self._dispatch(route, *numbers, params)
                return
        self._send_text(404, "not found")

    def _post_update(self, params) -> None:
        api_key = self._first(params, "api_key")
        if api_key is None:
            raise AuthenticationError("invalid key")
        for key in params:
            if key.startswith("field") and key not in _FIELD_POSITIONS:
                raise ValidationError(f"field position {key[5:]} outside the channel schema")
        values = {
            pos: _coerce(params[key][0]) for key, pos in _FIELD_POSITIONS.items() if key in params
        }
        if self.server.sim_time:
            raw_created = self._first(params, "created_at")
            if raw_created is None:
                raise ValidationError("created_at is required in simulation-time mode")
            try:
                created_at = float(raw_created)
            except ValueError:
                raise ValidationError("created_at must be numeric") from None
        else:
            created_at = None  # stamped by the store clock under the channel lock
        entry_id = self.server.store.write_update(api_key, values, created_at)
        self._send_text(200, str(entry_id))

    def _post_channels(self, params) -> None:
        # Only the options the request gives: the Channel holds the defaults and the checks.
        given = [key for key in ("visibility", "min_post_interval_s") if key in params]
        options = {key: _coerce(params[key][0]) for key in given}
        if "shared_with" in params:
            options["shared_with"] = params["shared_with"]
        name, fields = self._first(params, "name"), params.get("field", [])
        channel = self.server.store.create_channel(name, fields, **options)
        self._send_json(
            200,
            {
                "channel_id": channel.channel_id,
                "write_key": channel.write_key,
                "read_key": channel.read_key,
            },
        )

    def _get_feeds(self, channel_id: int, params) -> None:
        read_key = self._first(params, "api_key", "")
        user = self._first(params, "user")
        raw_results = self._first(params, "results", "100")
        try:
            results = int(raw_results)
        except ValueError:
            raise ValidationError("results must be an integer") from None
        cached = self.server.feed_rows.get(channel_id, {})
        # Cached ids are consecutive: they reach back to the new page's first
        # row if there are `results` of them or they start at entry 1.
        after = next(reversed(cached)) if cached and (results <= len(cached) or 1 in cached) else 0
        entries = self.server.store.read_feed(channel_id, read_key, results, user=user, after=after)
        channel = self.server.store.channel(channel_id)
        channel_obj = {"id": channel.channel_id, "name": channel.name}
        for position, field_name in enumerate(channel.field_names, start=1):
            channel_obj[f"field{position}"] = field_name
        kept = min(results - len(entries), len(cached)) if after else 0
        rows = dict(islice(cached.items(), len(cached) - kept, None))
        for entry in entries:
            rows[entry.entry_id] = _render_row(entry)
        # The text json.dumps gives for {"channel": channel_obj, "feeds": [...]}.
        body = f'{{"channel": {json.dumps(channel_obj)}, "feeds": [{", ".join(rows.values())}]}}'
        if len(rows) > FEED_CACHE_ROWS:
            rows = dict(islice(rows.items(), len(rows) - FEED_CACHE_ROWS, None))
        self.server.feed_rows[channel_id] = rows
        self._send(200, body.encode("utf-8"), "application/json")

    def _get_last(self, channel_id: int, position: int, params) -> None:
        read_key = self._first(params, "api_key", "")
        user = self._first(params, "user")
        value = self.server.store.read_last_field(channel_id, read_key, position, user=user)
        if value is None:
            self._send_text(404, "")
        else:
            self._send_text(200, str(value))


class TelemetryHTTPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(
        self,
        store: TelemetryStore,
        host: str = "127.0.0.1",
        port: int = 0,
        sim_time: bool = False,
    ):
        super().__init__((host, port), TelemetryRequestHandler)
        self.store = store
        self.sim_time = sim_time
        self.feed_rows: dict = {}  # channel id -> {entry id: row JSON} of its last page
        self.date_header = (None, "")  # (whole second, Date header text) of the latest answer
        self._handler_slots = threading.BoundedSemaphore(MAX_HANDLERS)
        self._thread: Optional[threading.Thread] = None

    def process_request(self, request, client_address) -> None:
        """Serve the connection on a new thread, or refuse it when all MAX_HANDLERS are busy."""
        if not self._handler_slots.acquire(blocking=False):
            self._refuse_busy(request)
            return
        try:
            super().process_request(request, client_address)
        except BaseException:
            self._handler_slots.release()
            raise

    def process_request_thread(self, request, client_address) -> None:
        try:
            super().process_request_thread(request, client_address)
        finally:
            self._handler_slots.release()

    def _refuse_busy(self, request) -> None:
        """Answer 503 and close, without waiting on the client: a refusal is
        sent from the accepting thread."""
        body = f"server busy: {MAX_HANDLERS} connections are being served".encode("utf-8")
        head = (
            "HTTP/1.1 503 Service Unavailable\r\n"
            "Content-Type: text/plain; charset=utf-8\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n\r\n"
        )
        try:
            request.setblocking(False)  # a fresh socket's send buffer takes the answer whole
            request.sendall(head.encode("ascii") + body)
            # Read what has arrived, so the close sends FIN after the answer, not a reset.
            request.recv(MAX_BODY_BYTES)
        except OSError:
            pass
        self.shutdown_request(request)

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "TelemetryHTTPServer":
        """Serve in a background thread (in-process mode)."""
        self._thread = threading.Thread(
            target=self.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self.shutdown()
        self.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="telemetry-serve", description="Serve the channel telemetry API over HTTP."
    )
    parser.add_argument("--port", type=int, default=8266)
    parser.add_argument("--data-dir", required=True)
    parser.add_argument(
        "--sim-time",
        action="store_true",
        help="trust client-supplied created_at timestamps (deterministic replays)",
    )
    args = parser.parse_args(argv)

    store = TelemetryStore(args.data_dir)
    server = TelemetryHTTPServer(store, port=args.port, sim_time=args.sim_time)
    print(f"listening on {server.url}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        store.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
