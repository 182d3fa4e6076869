"""Channel storage with append-only persistence.

A channel carries up to eight named fields behind distinct write/read keys.
Accepted entries get a gapless per-channel sequence number starting at 1;
entry id 0 is reserved to mean "rejected / no entry". Writes faster than the
channel's minimum post interval are rejected with 0 and store nothing. Each
channel keeps the newest value of every field as entries are appended (on
writes and on replay alike), so reading it never walks the feed.

A channel holds its entries in columns, about 49 bytes per entry of five
small fields: an entry's id is its index plus one, `created_at` is an array
of doubles, and `values` is one flat list that each entry extends by a value
for each field position (None where the entry carries none; no stored value
is None), so entry i's values are values[i * width:(i + 1) * width].
read_feed builds Entry objects, values in position order, only for the page
asked for and only above the id `after`, so a caller that keeps its last
page (the HTTP server keeps its rendered rows) builds just the entries
written since.

On disk each channel appends one complete JSON record per line to its own
log file, with channel metadata appended to channels.jsonl. A record is the
text json.dumps gives for it, built from JSON_TEXT, and goes to its file in
one write(2) on an unbuffered handle, so no byte of it waits in a buffer. An
append that fails or stops short (a full disk, say) is cut back off the
file, leaving it as it was, stores nothing and raises StorageError, which
the API answers with 503, as it does a file that cannot be opened; should
the cut itself fail, the store closes, so no acknowledged write can follow
a torn record.

close() writes a checkpoint of each channel's columns beside its non-empty
log (channel-N.checkpoint, written a chunk of entries at a time to a
temporary file and renamed into place; opening the store removes a
temporary file a crash left). Its header, a JSON line, names the format,
the byte order, the channel, its keys and width, the log bytes it covers
with their CRC-32, and the entry count. Then come chunks of
_CHECKPOINT_ENTRIES entries (the last may be shorter), each its created_at
as float64 words followed by its values as int64 words, so loading parses
no number from text; a JSON trailer line gives the CRC-32 of the chunks.
Int64 words are the one value encoding: a channel holding any value other
than an int of at most 64 bits (a float, text, a field an entry left out)
gets no new checkpoint and replays its log, while a checkpoint written
before such a value arrived stays valid for the prefix it covers. Only
acknowledged records are covered: a memory-only store, a second close()
and a store that closed itself after a failed cut write none. Recovery
loads a channel's checkpoint when every check holds (among them that the
covered log bytes hold as many records as it has entries and end with a
record's newline, not inside a record) and replays only the log after the
bytes it covers; otherwise (another format or byte order among them) it
warns, removes the checkpoint and replays the whole log, as it does a log
that a crash left without one.

Recovery reads each log a line at a time and scans the line with the C JSON
scanner, appending to the columns as it goes; the whole text is never held.
The first line that is not one JSON value ending in its newline (a torn
record, a record spanning lines, nesting too deep to scan, bytes that are
not UTF-8 or JSON), or whose record breaks an invariant the write path
keeps (the next entry id, a finite non-decreasing created_at, field
positions inside the schema, values that are ints, finite floats or text),
marks a crashed writer: the log is truncated at that line with a warning,
so the feed is always a prefix of what was acknowledged. A channels.jsonl
record is held to create_channel's rules, because both build the channel
with the Channel constructor, which checks the schema and holds the
defaults: a record it refuses, one with an unknown key, or one whose id or a
key is already taken is the torn point of that file. close() is final:
later writes raise StoreClosedError.

Every refusal raises a TelemetryError subclass whose `status` is the HTTP
status the API answers it with, so the HTTP server and the in-process
agent.StoreClient answer from one table.
"""

from __future__ import annotations

import json
import math
import os
import random
import string
import sys
import threading
import time
import zlib
from array import array
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple, Optional

KEY_LENGTH = 16
KEY_ALPHABET = string.ascii_uppercase + string.digits
# Keys come from os.urandom, as secrets.choice draws them, without loading hashlib.
_KEY_RANDOM = random.SystemRandom()
MAX_FIELDS = 8
VISIBILITIES = ("private", "shared")

_META_FILE = "channels.jsonl"
_CHECKPOINT_VERSION = 3
_CHECKPOINT_ENTRIES = 256  # entries per chunk: neither side holds the whole checkpoint
_LINE_BYTES = 256  # over a checkpoint header's length beyond its owner's, and its trailer's
_BLOCK_BYTES = 1 << 16  # bytes read at a time to take a log's CRC-32
_checkpoint_json = json.JSONEncoder(separators=(",", ":")).encode
_POSITIONS = range(1, MAX_FIELDS + 1)
_INT_LOW, _INT_HIGH = -(10**4_300), 10**4_300  # json.dumps and json.loads refuse ints this long
# The text json.dumps writes for a value of each kind the store accepts.
# _unstorable refuses every other kind, and the values json.dumps would write
# otherwise or not at all: NaN, the infinities and ints over 4,300 digits.
JSON_TEXT = {int: int.__repr__, float: float.__repr__, str: encode_basestring_ascii}
_VALUE_KEYS = tuple(f'"{pos}": ' for pos in range(MAX_FIELDS + 1))  # a log record's key texts


def _warn(message: str, *args) -> None:
    """Log a warning on this module's logger. logging, which loads traceback,
    linecache and tokenize, is imported only when there is one to log."""
    import logging

    logging.getLogger(__name__).warning(message, *args)


def _unstorable(values: dict):
    """The first position whose value the log cannot replay as written, or None:
    a value must be an int of at most 4,300 digits, a finite float or a str
    that its JSON text gives back, so not one holding a high surrogate
    followed by a low one, which JSON joins into one character."""
    for pos, value in values.items():
        kind = type(value)
        if kind is int:
            if not _INT_LOW < value < _INT_HIGH:
                return pos
        elif kind is float:
            if not math.isfinite(value):
                return pos
        elif kind is str:
            if not value.isascii() and json.loads(encode_basestring_ascii(value)) != value:
                return pos
        else:
            return pos
    return None


def _row_builder(keys):
    """The function that aligns a values dict to `keys`: a tuple of the value
    at each key in turn, None where the dict has none.

    A dict with an item per key is read in one C call, which raises KeyError
    if it holds a key that is not in `keys`.
    """
    keys = tuple(keys)
    width = len(keys)
    if width == 1:  # an itemgetter of one key gives the value, not a tuple
        return lambda values: (values.get(keys[0]),)
    every = itemgetter(*keys)

    def row_of(values: dict) -> tuple:
        if len(values) == width:
            return every(values)
        return tuple(map(values.get, keys))

    return row_of


def _carried(row) -> dict:
    """Position -> value for each field a row carries, in position order."""
    if None in row:
        return {pos: value for pos, value in zip(_POSITIONS, row) if value is not None}
    return dict(enumerate(row, 1))


class TelemetryError(Exception):
    """A refused store call; each subclass sets its HTTP `status`."""

    status: int


class AuthenticationError(TelemetryError):
    status = 401


class NotFoundError(TelemetryError):
    status = 404


class ValidationError(TelemetryError):
    status = 400


class StoreClosedError(TelemetryError):
    """The store was closed; it takes no more writes."""

    status = 503


class StorageError(TelemetryError):
    """An append to a store file failed; nothing was stored."""

    status = 503


class Entry(NamedTuple):
    entry_id: int
    created_at: float
    values: dict  # field position (1-based) -> numeric or text value


def _texts(value) -> bool:
    """True for a list or tuple whose items are all str."""
    return type(value) in (list, tuple) and all(type(item) is str for item in value)


class Channel:
    """A channel's schema, keys and access, and its entries in columns.

    The constructor checks the schema and holds the defaults; its arguments
    are the channels.jsonl record, meta().
    """

    def __init__(
        self,
        channel_id: int,
        name: str,
        write_key: str,
        read_key: str,
        field_names,
        visibility: str = "private",
        shared_with=(),
        min_post_interval_s: float = 1.0,
    ) -> None:
        if type(channel_id) is not int or channel_id < 1:
            raise ValidationError(f"channel_id must be a positive int, got {channel_id!r}")
        if type(name) is not str:
            raise ValidationError("name must be text")
        for key in (write_key, read_key):
            if type(key) is not str or not key:
                raise ValidationError("write_key and read_key must be non-empty text")
        if not _texts(field_names) or not 1 <= len(field_names) <= MAX_FIELDS:
            raise ValidationError(f"a channel carries 1..{MAX_FIELDS} text field names")
        if visibility not in VISIBILITIES:
            raise ValidationError(f"visibility must be one of {VISIBILITIES}")
        if not _texts(shared_with):
            raise ValidationError("shared_with must be a list of user names")
        interval = min_post_interval_s
        if type(interval) not in (int, float) or not 0 <= interval <= sys.float_info.max:
            raise ValidationError("min_post_interval_s must be a finite number >= 0")
        self.channel_id = channel_id
        self.name = name
        self.write_key = write_key
        self.read_key = read_key
        self.field_names = list(field_names)
        self.visibility = visibility
        self.shared_with = list(shared_with)
        self.min_post_interval_s = float(interval)
        # Entry i + 1 is created_at[i] and values[i * width:(i + 1) * width]: a
        # value per field position, or None.
        self.created_at = array("d")
        self.values: list = []
        self.last_values: dict = {}  # position -> its newest value
        self.lock = threading.Lock()
        self.width = len(self.field_names)
        self.row_of = _row_builder(range(1, self.width + 1))

    def __repr__(self) -> str:
        """The constructor's arguments and last_values; the feed is left out."""
        items = [f"{key}={value!r}" for key, value in self.meta().items()]
        return f"Channel({', '.join(items)}, last_values={self.last_values!r})"

    def append(self, created_at: float, row: tuple, carried) -> None:
        """Add the next entry: its row, a value per field position, and
        `carried`, the (position, value) items it carries, to last_values.
        The caller holds `lock`, or replays the log alone."""
        self.created_at.append(created_at)
        self.values.extend(row)
        self.last_values.update(carried)

    def entries(self, start: int, stop: int) -> list:
        """Entry objects for indices start..stop-1, values in position order."""
        created_at, values, width = self.created_at, self.values, self.width
        return [
            Entry(i + 1, created_at[i], _carried(values[i * width : (i + 1) * width]))
            for i in range(start, stop)
        ]

    def meta(self) -> dict:
        """The channels.jsonl record: the constructor's arguments, in order."""
        return {
            "channel_id": self.channel_id,
            "name": self.name,
            "write_key": self.write_key,
            "read_key": self.read_key,
            "field_names": self.field_names,
            "visibility": self.visibility,
            "shared_with": self.shared_with,
            "min_post_interval_s": self.min_post_interval_s,
        }


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not a finite number")


# The C scanner behind json.loads, run in place on the log text. NaN and
# Infinity, which json.dumps would write but no write path accepts, fail it.
_scan_record = json.JSONDecoder(parse_constant=_refuse_constant).scan_once


def _replay_log(path: Path, accept, start: int = 0) -> None:
    """Hand the record on each line of a JSON-lines log from byte `start` on
    to `accept`, oldest first.

    Each line must hold exactly one JSON value followed by its newline. The
    first line that does not, or whose record `accept` refuses by raising
    KeyError, TypeError, ValueError or ValidationError, marks the torn point:
    the file is truncated at that line's first byte with a warning, so what
    stays is a prefix of what was written.
    """
    try:
        fh = path.open("rb")
    except FileNotFoundError:
        return
    good_end = start  # byte offset of the line being read: where a torn log is cut
    with fh:
        fh.seek(start)
        for line in fh:
            try:
                text = line.decode("utf-8")
                record, end = _scan_record(text, 0)
                if not text.startswith("\n", end):
                    raise ValueError("record does not end its line")
                accept(record)
            except UnicodeDecodeError:
                reason = "not UTF-8"
                break
            except StopIteration:
                reason = "no JSON value"
                break
            except (KeyError, TypeError, ValueError, ValidationError, RecursionError) as exc:
                reason = repr(exc)  # RecursionError: nesting too deep for the C scanner
                break
            good_end += len(line)
        else:
            return
    _warn(
        "truncating %s at byte %d: bad record (%s) and all after it dropped",
        path,
        good_end,
        reason,
    )
    with path.open("r+b") as fh:
        fh.truncate(good_end)


def _remove(path: Path) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass


def _log_crc(path: Path, size: int) -> tuple:
    """(bytes read, their CRC-32, the newlines in them, the last of them) of
    the first `size` bytes of `path`, read a block at a time."""
    crc = done = lines = 0
    last = b""
    with path.open("rb") as fh:
        while done < size:
            block = fh.read(min(_BLOCK_BYTES, size - done))
            if not block:
                break
            crc = zlib.crc32(block, crc)
            done += len(block)
            lines += block.count(b"\n")
            last = block[-1:]
    return done, crc, lines, last


def _owner(channel: "Channel") -> dict:
    """What a checkpoint header names of its channel."""
    return {
        "channel_id": channel.channel_id,
        "write_key": channel.write_key,
        "read_key": channel.read_key,
        "width": channel.width,
    }


def _temp(path: Path) -> Path:
    """Where the checkpoint `path` is written before it is renamed into place."""
    return path.with_name(path.name + ".tmp")


def _write_checkpoint(path: Path, channel: "Channel", log: Path) -> None:
    """Write `channel`'s columns to `path` as a checkpoint of `log`, which
    holds exactly their records, a chunk of _CHECKPOINT_ENTRIES entries at a
    time. A write that fails leaves none, and so does a value that is not
    an int of at most 64 bits. The caller holds the lock."""
    temp = _temp(path)
    created_at, values, width = channel.created_at, channel.values, channel.width
    try:
        size, log_crc, _, _ = _log_crc(log, sys.maxsize)
        header = {"checkpoint": _CHECKPOINT_VERSION, "byteorder": sys.byteorder}
        header.update(_owner(channel), log_bytes=size, log_crc32=log_crc, entries=len(created_at))
        crc = 0
        with temp.open("wb") as fh:
            fh.write(_checkpoint_json(header).encode("ascii") + b"\n")
            for start in range(0, len(created_at), _CHECKPOINT_ENTRIES):
                stop = start + _CHECKPOINT_ENTRIES
                words = array("q", values[start * width : stop * width])
                chunk = created_at[start:stop].tobytes() + words.tobytes()
                crc = zlib.crc32(chunk, crc)
                fh.write(chunk)
            fh.write(_checkpoint_json({"chunks_crc32": crc}).encode("ascii") + b"\n")
        os.replace(temp, path)
    except (TypeError, OverflowError):  # from array("q"): None, a float, text or a wider int
        pass  # the channel replays its log, from the checkpoint on disk if it has one
    except OSError as exc:  # a full disk, say: the next start replays more of the log
        _warn("no checkpoint of %s written (%s)", log, exc)
    finally:
        _remove(temp)  # gone already once renamed


def _load_checkpoint(fh, channel: "Channel", log: Path) -> int:
    """Load `channel`'s columns and last_values from the checkpoint open as
    `fh`, a chunk at a time; the log bytes it covers. A checkpoint of another
    format, byte order or channel, one whose log does not start with the
    bytes it covers, holds another number of records in them or has them end
    inside a record, and one whose trailer is missing or does not match its
    chunks raise, leaving the channel as it was."""
    owner = _owner(channel)
    header = json.loads(fh.readline(len(_checkpoint_json(owner)) + _LINE_BYTES))
    if (
        type(header) is not dict
        or header.get("checkpoint") != _CHECKPOINT_VERSION
        or header.get("byteorder") != sys.byteorder
    ):
        raise ValueError("not a checkpoint of this format")
    if {key: header.get(key) for key in owner} != owner:
        raise ValueError("written for another channel")
    covered, entries = header["log_bytes"], header["entries"]
    if (
        type(covered) is not int
        or covered < 1
        or _log_crc(log, covered) != (covered, header["log_crc32"], entries, b"\n")
    ):
        raise ValueError(
            f"the log does not start with the {covered} bytes of {entries} whole records it covers"
        )
    width = channel.width
    created_at, values, crc = array("d"), [], 0
    for start in range(0, entries, _CHECKPOINT_ENTRIES):
        stamps = min(_CHECKPOINT_ENTRIES, entries - start) * created_at.itemsize
        chunk = fh.read(stamps * (1 + width))
        if len(chunk) < stamps * (1 + width):
            break  # the file ends inside a chunk, so before its trailer
        crc = zlib.crc32(chunk, crc)
        created_at.frombytes(chunk[:stamps])
        values += array("q", chunk[stamps:]).tolist()
    if fh.read(_LINE_BYTES) != _checkpoint_json({"chunks_crc32": crc}).encode("ascii") + b"\n":
        raise ValueError("its trailer is missing or does not match its chunks")
    channel.created_at, channel.values = created_at, values
    channel.last_values.update(enumerate(values[-width:], 1))  # no checkpointed value is None
    return covered


def _open_to_append(path: Path):
    """`path` opened unbuffered for appending; an open that fails (too many
    open files, say) raises StorageError. It logs no warning: importing
    logging may need a file descriptor too."""
    try:
        return path.open("ab", buffering=0)
    except OSError as exc:
        raise StorageError(f"the store could not save the write: {exc.strerror}") from None


def _entry_loader(channel: "Channel"):
    """The `accept` that appends one channel's log records to its columns."""
    width = channel.width
    row_of = _row_builder(str(pos) for pos in range(1, width + 1))
    created = channel.created_at
    append = channel.append
    isfinite = math.isfinite

    def accept(record) -> None:
        if type(record) is not dict:
            raise TypeError("record is not an object")
        entry_id = record["entry_id"]
        created_at = record["created_at"]
        raw_values = record["values"]
        if type(entry_id) is not int or entry_id != len(created) + 1:
            raise ValueError(f"entry_id {entry_id!r} where {len(created) + 1} is next")
        if (
            type(created_at) is not float
            or not isfinite(created_at)
            or (created and created_at < created[-1])
        ):
            raise ValueError(f"created_at {created_at!r} is not finite and non-decreasing")
        if type(raw_values) is not dict or not raw_values:
            raise ValueError("values is not a non-empty object")
        if _unstorable(raw_values) is not None:
            raise ValueError("a value is not an int, a finite float or text")
        row = row_of(raw_values)
        missing = row.count(None)
        if len(raw_values) + missing != width:
            raise ValueError(f"a field position in {list(raw_values)} is outside the schema")
        append(created_at, row, _carried(row) if missing else enumerate(row, 1))

    return accept


class TelemetryStore:
    """Thread-safe channel store; per-channel writes are serialized in arrival order.

    With data_dir=None the store is memory-only (useful as a reference model
    in tests). Constructing the store over an existing directory replays the
    logs, so state survives a process kill.
    """

    def __init__(self, data_dir: Optional[str] = None):
        self._dir = Path(data_dir) if data_dir is not None else None
        self._lock = threading.RLock()
        self._channels: dict = {}
        self._by_write_key: dict = {}
        self._used_keys: set = set()
        self._files: dict = {}
        self._checkpointed: dict = {}  # channel id -> entries its checkpoint on disk holds
        self._closed = False
        self._cut_failed = False
        if self._dir is not None:
            self._dir.mkdir(parents=True, exist_ok=True)
            self._replay()

    # -- construction / recovery -------------------------------------------

    def _replay(self) -> None:
        _replay_log(self._dir / _META_FILE, self._load_channel)
        for channel in self._channels.values():
            log = self._entry_log_path(channel.channel_id)
            covered = self._from_checkpoint(channel, log)  # before the loader binds the columns
            _replay_log(log, _entry_loader(channel), covered)

    def _from_checkpoint(self, channel: Channel, log: Path) -> int:
        """Load the channel from its checkpoint, if it has one that passes
        every check; the log bytes loaded that way. A checkpoint that fails
        one is removed with a warning, and the whole log replays. A
        temporary file left by a crash while the checkpoint was written is
        removed."""
        path = self._checkpoint_path(channel.channel_id)
        _remove(_temp(path))
        try:
            fh = path.open("rb")
        except FileNotFoundError:
            return 0
        try:
            with fh:
                covered = _load_checkpoint(fh, channel, log)
        except (OSError, LookupError, TypeError, ValueError, RecursionError) as exc:
            _warn("ignoring checkpoint %s (%s): replaying the whole log", path, exc)
            _remove(path)
            return 0
        self._checkpointed[channel.channel_id] = len(channel.created_at)
        return covered

    def _load_channel(self, record) -> None:
        """Register the channel a channels.jsonl record describes; a record the
        constructor refuses, or whose id or a key is taken, is the torn point."""
        channel = Channel(**record)
        keys = {channel.write_key, channel.read_key}
        if channel.channel_id in self._channels or len(keys) < 2 or keys & self._used_keys:
            raise ValueError(f"channel {channel.channel_id}'s id or a key is already taken")
        self._register(channel)

    def _register(self, channel: Channel) -> None:
        self._channels[channel.channel_id] = channel
        self._by_write_key[channel.write_key] = channel
        self._used_keys.update((channel.write_key, channel.read_key))

    # -- channel management ------------------------------------------------

    def create_channel(self, name: str, field_names, **options) -> Channel:
        """A new channel with the next free id and two fresh keys; `options` go to Channel."""
        with self._lock:
            self._check_open()
            channel_id = max(self._channels, default=0) + 1
            channel = Channel(channel_id, name, *self._fresh_keys(), field_names, **options)
            while self._dir is not None and (log := self._entry_log_path(channel_id)).exists():
                # A log whose channel metadata was torn away: a new channel never adopts it.
                _warn("%s belongs to no channel: id %d is not reused", log, channel_id)
                channel_id += 1
                channel.channel_id = channel_id
            self._persist_meta(channel)
            self._register(channel)
        return channel

    def _fresh_keys(self) -> set:
        """Two distinct keys that no channel uses."""
        keys = set()
        while len(keys) < 2:
            key = "".join(_KEY_RANDOM.choice(KEY_ALPHABET) for _ in range(KEY_LENGTH))
            if key not in self._used_keys:
                keys.add(key)
        return keys

    def channel(self, channel_id: int) -> Channel:
        channel = self._channels.get(channel_id)
        if channel is None:
            raise NotFoundError(f"no channel {channel_id}")
        return channel

    # -- data path -----------------------------------------------------------

    def write_update(
        self, write_key: str, values: dict, created_at: Optional[float] = None
    ) -> int:
        """Append an entry; returns its id, or 0 when rate-limited (nothing stored).

        With created_at=None the entry is stamped with the store clock at
        commit time, under the channel lock, so concurrent writers can never
        produce out-of-order timestamps. A write_key that no channel has (None
        among them) raises AuthenticationError. A field position that is not
        an int inside the schema (a bool is refused), a value that is not an
        int of at most 4,300 digits, a finite float or a str (the types the
        HTTP API parses), or a created_at, a number or its text, that float()
        does not read as a finite number raises ValidationError, a write after
        close() raises StoreClosedError, and an append the log file refuses
        raises StorageError; none stores anything, so every acknowledged entry
        replays as written.
        """
        channel = self._by_write_key.get(write_key)
        if channel is None:
            raise AuthenticationError("invalid key")
        if not values:
            raise ValidationError("no field values supplied")
        width = channel.width
        for pos in values:
            if type(pos) is not int or not 1 <= pos <= width:
                raise ValidationError(f"field position {pos!r} outside the channel schema")
        pos = _unstorable(values)
        if pos is not None:
            raise ValidationError(f"field{pos} must be an int, a finite float or text")
        if created_at is not None:
            try:
                created_at = float(created_at)
            except (TypeError, ValueError, OverflowError):
                raise ValidationError("created_at must be a number") from None
            if not math.isfinite(created_at):
                raise ValidationError("created_at must be finite")
        row = channel.row_of(values)
        with channel.lock:
            self._check_open()
            stamp = time.time() if created_at is None else created_at
            stamps = channel.created_at
            if stamps and stamp < stamps[-1] + channel.min_post_interval_s:
                return 0
            entry_id = len(stamps) + 1
            self._persist_entry(channel, entry_id, stamp, values)
            channel.append(stamp, row, values)
        return entry_id

    def read_feed(
        self, channel_id: int, read_key: str, results: int, user: Optional[str] = None, after=0
    ) -> list:
        """Of the last `results` entries, those with an id above `after`, oldest first."""
        if results < 1:
            raise ValidationError("results must be >= 1")
        channel = self._readable_channel(channel_id, read_key, user)
        with channel.lock:
            stop = len(channel.created_at)
            return channel.entries(max(stop - results, after, 0), stop)

    def read_last_field(
        self, channel_id: int, read_key: str, field_position: int, user: Optional[str] = None
    ):
        """The newest value at the position, or None if no entry carries it."""
        channel = self._readable_channel(channel_id, read_key, user)
        if not 1 <= field_position <= len(channel.field_names):
            raise ValidationError(f"field position {field_position} outside the channel schema")
        with channel.lock:
            return channel.last_values.get(field_position)

    def _readable_channel(
        self, channel_id: int, read_key: str, user: Optional[str]
    ) -> Channel:
        channel = self.channel(channel_id)
        if read_key == channel.read_key:
            return channel
        # Shared channels accept any listed user identifier (access stub).
        if channel.visibility == "shared" and user is not None and user in channel.shared_with:
            return channel
        raise AuthenticationError("invalid key")

    # -- persistence ---------------------------------------------------------

    def _entry_log_path(self, channel_id: int) -> Path:
        return self._dir / f"channel-{channel_id}.log"

    def _checkpoint_path(self, channel_id: int) -> Path:
        return self._dir / f"channel-{channel_id}.checkpoint"

    def _persist_meta(self, channel: Channel) -> None:
        if self._dir is None:
            return
        line = json.dumps(channel.meta()).encode("utf-8") + b"\n"
        with _open_to_append(self._dir / _META_FILE) as fh:
            self._append(fh, line, sync=True)

    def _persist_entry(
        self, channel: Channel, entry_id: int, created_at: float, values: dict
    ) -> None:
        if self._dir is None:
            return
        fh = self._files.get(channel.channel_id)
        if fh is None:
            fh = _open_to_append(self._entry_log_path(channel.channel_id))
            self._files[channel.channel_id] = fh
        # The bytes json.dumps would give for
        # {"entry_id": ..., "created_at": ..., "values": {str(pos): value, ...}}.
        text = JSON_TEXT
        items = ", ".join([f"{_VALUE_KEYS[pos]}{text[type(v)](v)}" for pos, v in values.items()])
        line = f'{{"entry_id": {entry_id}, "created_at": {created_at!r}, "values": {{{items}}}}}\n'
        self._append(fh, line.encode("ascii"))

    def _append(self, fh, line: bytes, sync: bool = False) -> None:
        """Append `line` to the file open unbuffered as `fh` in one write(2),
        then fsync it if `sync`.

        A write that fails or stops short, or a failed fsync, is cut back off
        the file, which is left as it was, and raises StorageError. The caller
        holds the lock of the file's only writer, so the file ended where
        this write began. If the cut fails too, the store closes: a record
        appended after the torn one would be lost at replay.
        """
        written = 0
        try:
            written = fh.write(line)
            if written == len(line):
                if sync:
                    os.fsync(fh.fileno())
                return
            fault = f"wrote {written} of {len(line)} bytes"
        except OSError as exc:
            fault = exc.strerror or repr(exc)
        try:
            os.ftruncate(fh.fileno(), fh.tell() - written)
        except OSError as exc:
            self._closed = self._cut_failed = True
            _warn("closing the store: cannot cut a failed append off %s (%s)", fh.name, exc)
        else:
            _warn("append to %s failed (%s); nothing stored", fh.name, fault)
        raise StorageError(f"the store could not save the write: {fault}")

    def _check_open(self) -> None:
        if self._closed:
            raise StoreClosedError("the store is closed")

    def close(self) -> None:
        """Close the logs and checkpoint them; every later write raises
        StoreClosedError.

        Each log is closed under its channel's lock, so an append that has
        begun completes first. Then the channel's columns are written to its
        checkpoint, unless the checkpoint on disk holds them already. Only the
        first close() writes checkpoints, and none is written once a failed
        append could not be cut off its log, so a checkpoint covers only
        acknowledged records.
        """
        with self._lock:
            first = not self._closed and self._dir is not None
            self._closed = True
            channels = list(self._channels.values())
        for channel in channels:
            channel_id = channel.channel_id
            with channel.lock:
                fh = self._files.pop(channel_id, None)
                if fh is not None:
                    fh.close()
                stale = len(channel.created_at) != self._checkpointed.get(channel_id, 0)
                if first and stale and not self._cut_failed:
                    path = self._checkpoint_path(channel_id)
                    _write_checkpoint(path, channel, self._entry_log_path(channel_id))
