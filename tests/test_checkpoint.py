import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfqn.checkpoint import (MAGIC, VERSION, CheckpointFormatError,
                             load_records, save_records)


def test_roundtrip_preserves_names_shapes_values(tmp_path):
    rng = np.random.default_rng(0)
    records = {
        "scalarish": rng.standard_normal(1),
        "weights/w1": rng.standard_normal((3, 4)),
        "conv.k": rng.standard_normal((2, 3, 3, 3)),
    }
    path = tmp_path / "net.sfqn"
    save_records(path, records)
    loaded = load_records(path)
    assert list(loaded) == list(records)
    for name, arr in records.items():
        assert loaded[name].shape == arr.shape
        # values survive the float32 round-trip
        assert np.allclose(loaded[name], arr, atol=1e-6)


def test_header_layout(tmp_path):
    path = tmp_path / "one.sfqn"
    save_records(path, {"ab": np.zeros((2, 2), dtype=np.float64)})
    data = path.read_bytes()
    assert data[:4] == MAGIC
    assert struct.unpack_from("<H", data, 4)[0] == VERSION
    assert struct.unpack_from("<H", data, 6)[0] == 2          # name length
    assert data[8:10] == b"ab"
    assert data[10] == 2                                      # rank
    assert struct.unpack_from("<2I", data, 11) == (2, 2)
    assert len(data) == 11 + 8 + 4 * 4


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.sfqn"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(CheckpointFormatError):
        load_records(path)


def test_bad_version_rejected(tmp_path):
    path = tmp_path / "bad.sfqn"
    path.write_bytes(MAGIC + struct.pack("<H", 99))
    with pytest.raises(CheckpointFormatError):
        load_records(path)


def test_rank_limit_enforced(tmp_path):
    with pytest.raises(CheckpointFormatError):
        save_records(tmp_path / "x.sfqn", {"big": np.zeros((1,) * 5)})


@pytest.mark.parametrize("records,match", [
    ({"a": np.zeros(3), "b": np.zeros((1,) * 5)}, "rank 5"),
    ({"x" * 65536: np.zeros(1)}, "65535"),
    ({"w": np.array([1.0, 1e39])}, "finite"),
    ({"w": np.array([np.nan])}, "finite"),
    ({"w": np.array([-np.inf])}, "finite"),
    ({"wide": np.zeros((2 ** 32, 0))}, "dim of 2"),
], ids=["rank_after_a_good_record", "long_name", "float32_overflow", "nan",
        "inf", "u32_dim"])
def test_invalid_records_fail_before_anything_is_written(tmp_path, records,
                                                         match):
    path = tmp_path / "net.sfqn"
    save_records(path, {"kept": np.arange(3.0)})
    before = path.read_bytes()
    with pytest.raises(CheckpointFormatError, match=match):
        save_records(path, records)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["net.sfqn"]
    with pytest.raises(CheckpointFormatError, match=match):
        save_records(tmp_path / "new.sfqn", records)
    assert not (tmp_path / "new.sfqn").exists()


def test_largest_float32_saves(tmp_path):
    path = tmp_path / "edge.sfqn"
    edge = np.array([np.finfo(np.float32).max, np.finfo(np.float32).min])
    save_records(path, {"edge": edge})
    assert np.array_equal(load_records(path)["edge"], edge)


def test_failed_write_leaves_no_temporary(tmp_path, monkeypatch):
    path = tmp_path / "net.sfqn"
    save_records(path, {"kept": np.arange(3.0)})
    before = path.read_bytes()

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr("sfqn.checkpoint.os.replace", fail)
    with pytest.raises(OSError, match="disk full"):
        save_records(path, {"new": np.zeros(2)})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["net.sfqn"]


def _two_records(tmp_path) -> bytes:
    path = tmp_path / "two.sfqn"
    save_records(path, {"conv.k": np.arange(6.0).reshape(1, 2, 3),
                        "w": np.array([0.5, -1.5])})
    return path.read_bytes()


def test_every_truncation_is_a_format_error_or_a_prefix(tmp_path):
    data = _two_records(tmp_path)
    full = load_records(tmp_path / "two.sfqn")
    cut_path = tmp_path / "cut.sfqn"
    errors = 0
    for cut in range(len(data)):
        cut_path.write_bytes(data[:cut])
        try:
            loaded = load_records(cut_path)
        except CheckpointFormatError:
            errors += 1
            continue
        # a cut on a record boundary is a valid shorter file
        assert list(loaded) == list(full)[:len(loaded)]
    # only the header and the end of the first record are boundaries
    assert errors == len(data) - 2


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=64), st.booleans())
def test_random_bytes_raise_only_format_errors(tmp_path_factory, tail, header):
    path = tmp_path_factory.mktemp("fuzz") / "junk.sfqn"
    path.write_bytes((MAGIC + struct.pack("<H", VERSION) if header else b"")
                     + tail)
    try:
        records = load_records(path)
    except CheckpointFormatError:
        return
    for arr in records.values():
        assert arr.dtype == np.float64 and arr.ndim <= 4


def test_duplicate_record_rejected(tmp_path):
    data = _two_records(tmp_path)
    head = len(MAGIC) + 2
    first = 2 + len("conv.k") + 1 + 3 * 4 + 6 * 4
    path = tmp_path / "dup.sfqn"
    path.write_bytes(data[:head + first] + data[head:head + first])
    with pytest.raises(CheckpointFormatError, match="duplicate"):
        load_records(path)
