"""Channel storage with append-only persistence.

A channel carries up to eight named fields behind distinct write/read keys.
Accepted entries get a gapless per-channel sequence number starting at 1;
entry id 0 is reserved to mean "rejected / no entry". Writes faster than the
channel's minimum post interval are rejected with 0 and store nothing.

On disk each channel appends one complete JSON record per line to its own
log file, with channel metadata appended to channels.jsonl. Recovery replays
the logs; a torn trailing record (a crashed writer) is truncated away with a
warning so the feed is always a prefix of what was acknowledged.
"""

from __future__ import annotations

import json
import logging
import math
import os
import secrets
import string
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

logger = logging.getLogger(__name__)

KEY_LENGTH = 16
KEY_ALPHABET = string.ascii_uppercase + string.digits
MAX_FIELDS = 8
VISIBILITIES = ("private", "shared")

_META_FILE = "channels.jsonl"


class TelemetryError(Exception):
    pass


class AuthenticationError(TelemetryError):
    pass


class NotFoundError(TelemetryError):
    pass


class ValidationError(TelemetryError):
    pass


@dataclass(frozen=True)
class Entry:
    entry_id: int
    created_at: float
    values: dict  # field position (1-based) -> numeric or text value


@dataclass
class Channel:
    channel_id: int
    name: str
    write_key: str
    read_key: str
    field_names: list
    visibility: str = "private"
    shared_with: list = field(default_factory=list)
    min_post_interval_s: float = 1.0
    entries: list = field(default_factory=list)
    lock: threading.Lock = field(default_factory=threading.Lock, repr=False, compare=False)

    def meta(self) -> dict:
        return {
            "channel_id": self.channel_id,
            "name": self.name,
            "write_key": self.write_key,
            "read_key": self.read_key,
            "field_names": list(self.field_names),
            "visibility": self.visibility,
            "shared_with": list(self.shared_with),
            "min_post_interval_s": self.min_post_interval_s,
        }

    @classmethod
    def from_meta(cls, meta: dict) -> "Channel":
        return cls(
            channel_id=int(meta["channel_id"]),
            name=meta["name"],
            write_key=meta["write_key"],
            read_key=meta["read_key"],
            field_names=list(meta["field_names"]),
            visibility=meta.get("visibility", "private"),
            shared_with=list(meta.get("shared_with", [])),
            min_post_interval_s=float(meta.get("min_post_interval_s", 1.0)),
        )


def _read_records(path: Path) -> list:
    """Parse JSON-line records, truncating the file at the first bad record."""
    if not path.exists():
        return []
    raw = path.read_bytes()
    records = []
    good_end = 0
    pos = 0
    while pos < len(raw):
        newline = raw.find(b"\n", pos)
        if newline == -1:
            break  # unterminated trailer
        try:
            records.append(json.loads(raw[pos:newline].decode("utf-8")))
        except (ValueError, UnicodeDecodeError):
            break
        pos = newline + 1
        good_end = pos
    if good_end < len(raw):
        logger.warning(
            "truncating %s at byte %d: torn trailing record dropped", path, good_end
        )
        with path.open("r+b") as fh:
            fh.truncate(good_end)
    return records


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
        if self._dir is not None:
            self._dir.mkdir(parents=True, exist_ok=True)
            self._replay()

    # -- construction / recovery -------------------------------------------

    def _replay(self) -> None:
        for meta in _read_records(self._dir / _META_FILE):
            channel = Channel.from_meta(meta)
            self._register(channel)
        for channel in self._channels.values():
            for record in _read_records(self._entry_log_path(channel.channel_id)):
                values = {int(pos): val for pos, val in record["values"].items()}
                channel.entries.append(
                    Entry(int(record["entry_id"]), float(record["created_at"]), values)
                )

    def _register(self, channel: Channel) -> None:
        self._channels[channel.channel_id] = channel
        self._by_write_key[channel.write_key] = channel
        self._used_keys.add(channel.write_key)
        self._used_keys.add(channel.read_key)

    # -- channel management ------------------------------------------------

    def create_channel(
        self,
        name: str,
        field_names,
        visibility: str = "private",
        shared_with=(),
        min_post_interval_s: float = 1.0,
    ) -> Channel:
        field_names = [str(f) for f in field_names]
        if not 1 <= len(field_names) <= MAX_FIELDS:
            raise ValidationError(
                f"a channel carries 1..{MAX_FIELDS} fields, got {len(field_names)}"
            )
        if visibility not in VISIBILITIES:
            raise ValidationError(f"visibility must be one of {VISIBILITIES}")
        if min_post_interval_s < 0:
            raise ValidationError("min_post_interval_s must be >= 0")
        with self._lock:
            channel_id = max(self._channels, default=0) + 1
            channel = Channel(
                channel_id=channel_id,
                name=name,
                write_key=self._fresh_key(),
                read_key=self._fresh_key(),
                field_names=field_names,
                visibility=visibility,
                shared_with=list(shared_with),
                min_post_interval_s=float(min_post_interval_s),
            )
            self._persist_meta(channel)
            self._register(channel)
        return channel

    def _fresh_key(self) -> str:
        while True:
            key = "".join(secrets.choice(KEY_ALPHABET) for _ in range(KEY_LENGTH))
            if key not in self._used_keys:
                self._used_keys.add(key)
                return key

    def channel(self, channel_id: int) -> Channel:
        channel = self._channels.get(channel_id)
        if channel is None:
            raise NotFoundError(f"no channel {channel_id}")
        return channel

    def channels(self) -> list:
        with self._lock:
            return list(self._channels.values())

    # -- data path -----------------------------------------------------------

    def write_update(
        self, write_key: str, values: dict, created_at: Optional[float] = None
    ) -> int:
        """Append an entry; returns its id, or 0 when rate-limited (nothing stored).

        With created_at=None the entry is stamped with the store clock at
        commit time, under the channel lock, so concurrent writers can never
        produce out-of-order timestamps. A NaN or infinite created_at or float
        value raises ValidationError and stores nothing.
        """
        channel = self._by_write_key.get(write_key)
        if channel is None:
            raise AuthenticationError("invalid key")
        if not values:
            raise ValidationError("no field values supplied")
        for pos, value in values.items():
            if not isinstance(pos, int) or not 1 <= pos <= len(channel.field_names):
                raise ValidationError(f"field position {pos} outside the channel schema")
            if isinstance(value, float) and not math.isfinite(value):
                raise ValidationError(f"field{pos} must be finite")
        if created_at is not None:
            created_at = float(created_at)
            if not math.isfinite(created_at):
                raise ValidationError("created_at must be finite")
        with channel.lock:
            stamp = time.time() if created_at is None else created_at
            if channel.entries:
                earliest = channel.entries[-1].created_at + channel.min_post_interval_s
                if stamp < earliest:
                    return 0
            entry = Entry(len(channel.entries) + 1, stamp, dict(values))
            self._persist_entry(channel, entry)
            channel.entries.append(entry)
        return entry.entry_id

    def read_feed(
        self, channel_id: int, read_key: str, results: int, user: Optional[str] = None
    ) -> list:
        """The last `results` accepted entries, oldest first."""
        if results < 1:
            raise ValidationError("results must be >= 1")
        channel = self._readable_channel(channel_id, read_key, user)
        with channel.lock:
            return list(channel.entries[-results:])

    def read_last_field(
        self, channel_id: int, read_key: str, field_position: int, user: Optional[str] = None
    ):
        """The newest value at the position, or None if no entry carries it."""
        channel = self._readable_channel(channel_id, read_key, user)
        if not 1 <= field_position <= len(channel.field_names):
            raise ValidationError(f"field position {field_position} outside the channel schema")
        with channel.lock:
            for entry in reversed(channel.entries):
                if field_position in entry.values:
                    return entry.values[field_position]
        return None

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

    def _persist_meta(self, channel: Channel) -> None:
        if self._dir is None:
            return
        with (self._dir / _META_FILE).open("ab") as fh:
            fh.write(json.dumps(channel.meta()).encode("utf-8") + b"\n")
            fh.flush()
            os.fsync(fh.fileno())

    def _persist_entry(self, channel: Channel, entry: Entry) -> None:
        if self._dir is None:
            return
        fh = self._files.get(channel.channel_id)
        if fh is None:
            fh = self._entry_log_path(channel.channel_id).open("ab")
            self._files[channel.channel_id] = fh
        record = {
            "entry_id": entry.entry_id,
            "created_at": entry.created_at,
            "values": {str(pos): val for pos, val in entry.values.items()},
        }
        fh.write(json.dumps(record).encode("utf-8") + b"\n")
        fh.flush()

    def close(self) -> None:
        for fh in self._files.values():
            fh.close()
        self._files.clear()
