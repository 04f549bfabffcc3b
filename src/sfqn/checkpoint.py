"""Binary checkpoint records.

File layout: magic b"SFQN", u16 version (=1), then a sequence of records
  [u16 name length][name bytes (utf-8)][u8 rank][u32 dims ...]
  [little-endian IEEE-754 32-bit values, row-major]
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

MAGIC = b"SFQN"
VERSION = 1


class CheckpointFormatError(ValueError):
    pass


def save_records(path, records: dict[str, np.ndarray]) -> None:
    """Write named arrays (rank <= 4) to `path` in insertion order."""
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<H", VERSION))
        for name, arr in records.items():
            arr = np.asarray(arr, dtype=np.float32)
            if arr.ndim > 4:
                raise CheckpointFormatError(f"record {name!r} has rank {arr.ndim}")
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<B", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.astype("<f4").tobytes(order="C"))


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
