"""HTTP/1.1 framing rules that both ends of the telemetry wire read by.

telemetry-serve reads each request's header block and body length with these,
and the device agent's TelemetryClient reads each answer's with the same. A
head that leaves unclear where the message ends, or how long its body is, is
refused, never guessed at (RFC 9112 §6.3): a server answers the refusal's
`status` and closes, and a client closes and discards the answer.

Only the stdlib's builtins are used, so the agent loads neither socketserver
nor the server.
"""

MAX_LINE_BYTES = 65_536  # longest start or header line, as in http.server
MAX_HEADER_LINES = 100  # header lines read, the blank one included, as in http.server
MAX_BODY_BYTES = 64 * 1024  # a full /update form, or the answer to one, is well under 1 KiB
_LENGTH_DIGITS = len(str(MAX_BODY_BYTES))  # a longer length, leading zeros aside, is too big


class Refusal(ValueError):
    """A message refused for its start line, its headers or the framing of its
    body; `status` is the HTTP status a server answers it with."""

    def __init__(self, status: int, text: str):
        super().__init__(text)
        self.status = status


def read_headers(rfile) -> dict:
    """The header block up to its blank line as {lower-case name: value}.

    A line over MAX_LINE_BYTES, or a block of more than MAX_HEADER_LINES
    lines with its blank line, gets 431, as from http.server. A block cut by
    the end of the stream, a line without a colon, with whitespace in its
    name, folded onto the line before or holding a bare CR, or two
    Content-Length headers that differ get 400: each would leave it unclear
    where this message ends and the next begins.
    """
    headers: dict = {}
    for _ in range(MAX_HEADER_LINES):
        line = rfile.readline(MAX_LINE_BYTES + 1)
        if len(line) > MAX_LINE_BYTES:
            raise Refusal(431, "Line too long")
        if line in (b"\r\n", b"\n"):
            return headers
        if not line.endswith(b"\n"):
            raise Refusal(400, "header block ended before its blank line")
        text = str(line[:-1], "iso-8859-1").removesuffix("\r")
        name, colon, value = text.partition(":")
        if not colon or not name or " " in name or "\t" in name or "\r" in text:
            raise Refusal(400, "header line must be a name, a colon and a value")
        name, value = name.lower(), value.strip(" \t")
        if name not in headers:
            headers[name] = value
        elif name == "content-length" and headers[name] != value:
            raise Refusal(400, "Content-Length headers differ")
    raise Refusal(431, "Too many headers")


def body_length(headers: dict, required: bool = False) -> int:
    """The length of the body that follows a header block, from its Content-Length.

    Transfer-Encoding gets 411: only Content-Length frames a body here. A
    Content-Length that is not all digits gets 400, and one over
    MAX_BODY_BYTES, leading zeros aside, 413. A block without one has no body,
    unless one is `required`, which gets 411.
    """
    if "transfer-encoding" in headers:
        raise Refusal(411, "Transfer-Encoding is not supported; send Content-Length")
    raw_length = headers.get("content-length")
    if raw_length is None and required:
        raise Refusal(411, "Content-Length is required")
    raw_length = raw_length or "0"
    if not raw_length.isascii() or not raw_length.isdigit():
        raise Refusal(400, "Content-Length must be a non-negative integer")
    digits = raw_length.lstrip("0") or "0"  # int() refuses text over 4,300 digits
    if len(digits) > _LENGTH_DIGITS or int(digits) > MAX_BODY_BYTES:
        raise Refusal(413, f"request body over {MAX_BODY_BYTES} bytes")
    return int(digits)
