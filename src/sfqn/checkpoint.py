"""Binary checkpoint records.

File layout: magic b"SFQN", u16 version (=1), then a sequence of records
  [u16 name length][name bytes (utf-8)][u8 rank][u32 dims ...]
  [little-endian IEEE-754 32-bit values, row-major]
"""

from __future__ import annotations

import math
import os
import struct
from pathlib import Path

import numpy as np

MAGIC = b"SFQN"
VERSION = 1


class CheckpointFormatError(ValueError):
    pass


def _encode(name: str, arr) -> bytes:
    """One record's bytes; `CheckpointFormatError` unless the layout can
    hold it: rank <= 4, a name of at most 65535 utf-8 bytes, dims below
    2**32 and finite values within float32 range."""
    encoded = name.encode("utf-8")
    if len(encoded) > 0xFFFF:
        raise CheckpointFormatError(
            f"record name of {len(encoded)} bytes exceeds 65535")
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim > 4:
        raise CheckpointFormatError(f"record {name!r} has rank {arr.ndim}")
    if max(arr.shape, default=0) > 0xFFFFFFFF:
        raise CheckpointFormatError(
            f"record {name!r} shape {arr.shape} has a dim of 2**32 or more")
    with np.errstate(over="ignore"):      # overflow shows as inf below
        values = arr.astype("<f4")
    if not np.all(np.isfinite(values)):
        raise CheckpointFormatError(
            f"record {name!r} holds values that are not finite in float32")
    return (struct.pack("<H", len(encoded)) + encoded
            + struct.pack(f"<B{arr.ndim}I", arr.ndim, *arr.shape)
            + values.tobytes(order="C"))


def save_records(path, records: dict[str, np.ndarray]) -> None:
    """Write named arrays (rank <= 4) to `path` in insertion order.

    Every record is checked before anything is written, and the file is
    written next to `path` and then renamed onto it, so a failed save
    leaves any earlier file at `path` as it was."""
    data = b"".join([MAGIC, struct.pack("<H", VERSION)]
                    + [_encode(name, arr) for name, arr in records.items()])
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise


def load_records(path) -> dict[str, np.ndarray]:
    """Read the records of a checkpoint; any malformed or truncated byte
    sequence raises `CheckpointFormatError`."""
    data = Path(path).read_bytes()
    if data[:4] != MAGIC:
        raise CheckpointFormatError("bad magic; not a checkpoint file")
    off = 4

    def take(n: int, what: str) -> bytes:
        nonlocal off
        if off + n > len(data):
            raise CheckpointFormatError(
                f"truncated checkpoint: {what} needs {n} bytes at offset "
                f"{off}, {len(data) - off} left")
        off += n
        return data[off - n:off]

    (version,) = struct.unpack("<H", take(2, "version"))
    if version != VERSION:
        raise CheckpointFormatError(f"unsupported checkpoint version {version}")
    records: dict[str, np.ndarray] = {}
    while off < len(data):
        (nlen,) = struct.unpack("<H", take(2, "name length"))
        try:
            name = take(nlen, "name").decode("utf-8")
        except UnicodeDecodeError as err:
            raise CheckpointFormatError(f"record name is not utf-8: {err}")
        if name in records:
            raise CheckpointFormatError(f"duplicate record {name!r}")
        (rank,) = struct.unpack("<B", take(1, "rank"))
        if rank > 4:
            raise CheckpointFormatError(f"record {name!r} has rank {rank}")
        shape = struct.unpack(f"<{rank}I", take(4 * rank, "shape"))
        values = np.frombuffer(take(4 * math.prod(shape), f"record {name!r}"),
                               dtype="<f4")
        records[name] = values.reshape(shape).astype(np.float64)
    return records
