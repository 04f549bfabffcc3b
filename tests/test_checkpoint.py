import io
import os
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfqn.checkpoint import CheckpointFormatError, load_records, save_records


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
        assert loaded[name].dtype == np.float64
        assert loaded[name].flags.c_contiguous and loaded[name].flags.writeable
        assert np.array_equal(loaded[name], arr)        # float64: lossless


def test_float64_values_round_trip_bitwise(tmp_path):
    # beyond float32's range and precision: v1 files stored float32
    f64 = np.finfo(np.float64)
    values = np.array([1e39, -1e39, f64.max, f64.min, f64.tiny, 5e-324,
                       -0.0, 0.1, 1 + f64.eps])
    path = tmp_path / "edge.sfqn"
    save_records(path, {"edge": values, "rank0": np.float64(np.pi),
                        "ints": np.arange(3), "fortran":
                        np.asfortranarray(np.arange(6.0).reshape(2, 3))})
    loaded = load_records(path)
    assert loaded["edge"].tobytes() == values.tobytes()
    assert loaded["rank0"].shape == () and loaded["rank0"] == np.pi
    assert loaded["ints"].dtype == np.float64          # saved as float64
    assert loaded["fortran"].flags.c_contiguous
    assert np.array_equal(loaded["fortran"], np.arange(6.0).reshape(2, 3))


def test_equal_records_give_equal_bytes(tmp_path):
    records = {"w": np.arange(4.0), "b": np.ones((2, 2))}
    save_records(tmp_path / "a.sfqn", records)
    save_records(tmp_path / "b.sfqn", dict(records))
    assert ((tmp_path / "a.sfqn").read_bytes()
            == (tmp_path / "b.sfqn").read_bytes())


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.sfqn"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(CheckpointFormatError, match="not a checkpoint file"):
        load_records(path)


def test_missing_file_is_an_os_error(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_records(tmp_path / "nope.sfqn")


def test_rank_limit_enforced(tmp_path):
    with pytest.raises(CheckpointFormatError):
        save_records(tmp_path / "x.sfqn", {"big": np.zeros((1,) * 5)})


@pytest.mark.parametrize("records,match", [
    ({"a": np.zeros(3), "b": np.zeros((1,) * 5)}, "'b' .*rank 5"),
    ({"w": np.array([np.nan])}, "not finite"),
    ({"w": np.array([-np.inf])}, "not finite"),
], ids=["rank_after_a_good_record", "nan", "inf"])
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


@pytest.mark.parametrize("name", [
    "w\0", "a" * 70_000, "\ud800", 5, "", "a" * 256, "a b", "w.npy\n"],
    ids=["nul", "over_65535_bytes", "lone_surrogate", "int", "empty",
         "256_chars", "space", "newline"])
def test_bad_record_names_fail_before_anything_is_written(tmp_path, name):
    # a NUL name used to save and then fail to load, 70000 bytes raised
    # struct.error, a surrogate UnicodeEncodeError, and 5 saved as '5'
    with pytest.raises(CheckpointFormatError, match="record name"):
        save_records(tmp_path / "net.sfqn",
                     {"kept": np.zeros(1), name: np.zeros(1)})
    assert list(tmp_path.iterdir()) == []


def test_longest_record_name_round_trips(tmp_path):
    name = "A-z_0.9/" + "x" * 247
    save_records(tmp_path / "net.sfqn", {name: np.zeros(1)})
    assert list(load_records(tmp_path / "net.sfqn")) == [name]


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


def test_save_syncs_the_temporary_before_the_rename(tmp_path, monkeypatch):
    # a rename may reach the disk before the file's data does, so the data
    # is synced first: a crash then leaves the old file or the whole new one
    calls = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        calls.append(("fsync", os.fstat(fd).st_ino, os.fstat(fd).st_size))
        real_fsync(fd)

    def replace(src, dst):
        calls.append(("replace", os.stat(src).st_ino, str(dst)))
        real_replace(src, dst)

    monkeypatch.setattr("sfqn.checkpoint.os.fsync", fsync)
    monkeypatch.setattr("sfqn.checkpoint.os.replace", replace)
    path = tmp_path / "net.sfqn"
    save_records(path, {"w": np.arange(3.0)})
    (_, synced, size), (op, renamed, dst) = calls
    assert op == "replace" and dst == str(path)
    assert synced == renamed == path.stat().st_ino    # the temporary file
    assert size == path.stat().st_size                 # with all its bytes


def _two_records(tmp_path) -> bytes:
    path = tmp_path / "two.sfqn"
    save_records(path, {"conv.k": np.arange(6.0).reshape(1, 2, 3),
                        "w": np.array([0.5, -1.5])})
    return path.read_bytes()


def test_every_truncation_is_a_format_error_or_a_prefix(tmp_path):
    # no cut is a valid shorter file: the archive's record count and its
    # central directory, at the end, both go first
    data = _two_records(tmp_path)
    cut_path = tmp_path / "cut.sfqn"
    for cut in range(len(data)):
        cut_path.write_bytes(data[:cut])
        with pytest.raises(CheckpointFormatError):
            load_records(cut_path)


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=200), st.booleans())
def test_random_bytes_raise_only_format_errors(tmp_path_factory, tail, header):
    path = tmp_path_factory.mktemp("fuzz") / "junk.sfqn"
    path.write_bytes((b"PK\x03\x04" if header else b"") + tail)
    try:
        records = load_records(path)
    except CheckpointFormatError:
        return
    for arr in records.values():
        assert arr.dtype == np.float64 and arr.ndim <= 4


def test_a_flipped_byte_raises_or_changes_nothing(tmp_path):
    data = _two_records(tmp_path)
    full = load_records(tmp_path / "two.sfqn")
    path = tmp_path / "flip.sfqn"
    for i in range(len(data)):
        for mask in (0x01, 0x80, 0xFF):
            flipped = bytearray(data)
            flipped[i] ^= mask
            path.write_bytes(flipped)
            try:
                loaded = load_records(path)
            except CheckpointFormatError:
                continue
            # a timestamp or attribute byte
            assert list(loaded) == list(full)
            assert all(np.array_equal(loaded[n], full[n]) for n in full)


def test_an_edited_shape_raises_before_the_record_is_parsed(tmp_path):
    # the .npy header is under the member's CRC-32, which is checked even
    # where the edited shape would stop reading far before the member ends
    path = tmp_path / "big.sfqn"
    save_records(path, {"w": np.zeros((1000, 3))})
    data = path.read_bytes()
    assert data.count(b"(1000, 3)") == 1
    path.write_bytes(data.replace(b"(1000, 3)", b"(1000, 2)"))
    with pytest.raises(CheckpointFormatError, match="CRC"):
        load_records(path)


def _archive(tmp_path, members, comment=None,
             compression=zipfile.ZIP_STORED):
    """A zip of `.npy` members written by hand, without `save_records`'
    checks; the comment defaults to the member count."""
    path = tmp_path / "hand.sfqn"
    with zipfile.ZipFile(path, "w", compression) as archive:
        for name, arr in members:
            member = io.BytesIO()
            np.lib.format.write_array(member, np.asarray(arr))
            archive.writestr(name, member.getvalue())
        archive.comment = (b"%d" % len(members) if comment is None
                           else comment)
    return path


def test_duplicate_record_rejected(tmp_path):
    # zip allows a repeated name; a dict would keep only the last
    with pytest.warns(UserWarning, match="Duplicate name"):
        path = _archive(tmp_path, [("w.npy", np.zeros(2)),
                                   ("w.npy", np.ones(2))])
    with pytest.raises(CheckpointFormatError, match="'w.npy' is not a new"):
        load_records(path)


@pytest.mark.parametrize("members,match", [
    ([("w.txt", np.zeros(2))], "'w.txt' is not a new .npy record"),
    ([("w.npy", np.arange(3))], r"'w' \(int64, rank 1\)"),
    ([("w.npy", np.zeros(3, dtype=np.float32))], r"\(float32, rank 1\)"),
    ([("w.npy", np.zeros(2, dtype=">f8"))], r"\(>f8, rank 1\)"),
    ([("w.npy", np.zeros((1,) * 5))], r"\(float64, rank 5\)"),
    ([("w.npy", np.array([1.0, np.nan]))], "not finite"),
    ([("w.npy", np.array([np.inf]))], "not finite"),
], ids=["not_npy", "int64", "float32", "big_endian", "rank5", "nan", "inf"])
def test_invalid_members_rejected(tmp_path, members, match):
    with pytest.raises(CheckpointFormatError, match=match):
        load_records(_archive(tmp_path, members))


@pytest.mark.parametrize("member", ["a b.npy", ".npy", "\u00e9.npy",
                                    "x" * 256 + ".npy"])
def test_bad_record_names_rejected_on_load(tmp_path, member):
    with pytest.raises(CheckpointFormatError, match="record name"):
        load_records(_archive(tmp_path, [(member, np.zeros(2))]))


def test_pickled_member_rejected(tmp_path):
    path = _archive(tmp_path, [("w.npy", np.array([None], dtype=object))])
    with pytest.raises(CheckpointFormatError, match="not a checkpoint file"):
        load_records(path)


def test_compressed_member_rejected(tmp_path):
    # save_records stores members; a decompressor fed corrupted bytes would
    # raise its own error types
    path = _archive(tmp_path, [("w.npy", np.zeros(2))],
                    compression=zipfile.ZIP_DEFLATED)
    with pytest.raises(CheckpointFormatError, match="compressed"):
        load_records(path)


@pytest.mark.parametrize("comment", [b"", b"1", b"3", b"two"])
def test_record_count_must_match(tmp_path, comment):
    # a zip whose central directory lost an entry still opens, so the count
    # in the comment is what tells a shortened file from a whole one
    path = _archive(tmp_path, [("a.npy", np.zeros(1)), ("b.npy", np.ones(1))],
                    comment)
    with pytest.raises(CheckpointFormatError, match="record count"):
        load_records(path)
