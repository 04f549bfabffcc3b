"""Checkpoints: a zip of one `<name>.npy` member (NEP 1) per float64 record,
in insertion order, which `np.load` reads too. Each member has a CRC-32 and
the zip comment holds the record count, so a cut or corrupted file raises."""

import io
import os
import zipfile
from pathlib import Path

import numpy as np


class CheckpointFormatError(ValueError):
    pass


def _checked(name: str, arr: np.ndarray) -> np.ndarray:
    """`arr`, if a record may hold it: float64, rank <= 4, finite."""
    if arr.dtype != np.float64 or arr.ndim > 4 or not np.isfinite(arr).all():
        raise CheckpointFormatError(f"record {name!r} ({arr.dtype}, rank "
                                    f"{arr.ndim}) is not finite float64 of "
                                    "rank <= 4")
    return arr


def save_records(path, records: dict[str, np.ndarray]) -> None:
    """Write named arrays (as float64), all checked first, to a synced file
    that is then renamed onto `path`; equal records give equal bytes."""
    data = io.BytesIO()
    with zipfile.ZipFile(data, "w") as archive:
        for name, arr in records.items():
            arr = _checked(name, np.asarray(arr, dtype=np.float64, order="C"))
            with archive.open(zipfile.ZipInfo(f"{name}.npy"), "w") as fh:
                np.lib.format.write_array(fh, arr, allow_pickle=False)
        archive.comment = b"%d" % len(records)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data.getvalue())
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise


def load_records(path) -> dict[str, np.ndarray]:
    """Read a checkpoint's records; each is checked against its CRC-32
    before it is parsed, and a bad file raises `CheckpointFormatError`."""
    data = Path(path).read_bytes()
    try:
        with zipfile.ZipFile(io.BytesIO(data)) as archive:
            infos = archive.infolist()
            if archive.comment != b"%d" % len(infos):
                raise zipfile.BadZipFile(f"record count {archive.comment!r}")
            if any(i.compress_type != zipfile.ZIP_STORED for i in infos):
                raise zipfile.BadZipFile("a member is compressed")
            members = [(i.filename, np.lib.format.read_array(io.BytesIO(
                archive.read(i)), allow_pickle=False)) for i in infos]
    except (zipfile.BadZipFile, ValueError, EOFError, MemoryError,
            NotImplementedError, RuntimeError) as err:
        raise CheckpointFormatError(f"not a checkpoint file: {err}") from err
    records: dict[str, np.ndarray] = {}
    for member, arr in members:
        name = member.removesuffix(".npy")
        if name == member or name in records:
            raise CheckpointFormatError(f"{member!r} is not a new .npy record")
        records[name] = _checked(name, arr)
    return records
