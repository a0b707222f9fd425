import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vcas import container
from vcas.container import PayloadKind, read_container, write_container
from vcas.errors import DataError


def test_round_trip_all_kinds(tmp_path):
    rng = np.random.default_rng(0)
    arrays = {
        "a": rng.normal(size=(3, 4)),
        "b": np.array([1.0, -0.0, np.inf, -np.inf, np.nan]),
        "scalarish": np.array([7.25]),
        "cube": rng.normal(size=(2, 2, 2)),
    }
    meta = {"task": "object", "n": 3, "nested": {"x": [1, 2]}}
    for kind in PayloadKind:
        path = tmp_path / f"{kind.name.lower()}.vcas"
        write_container(path, kind, arrays, meta)
        got_kind, got_arrays, got_meta = read_container(path)
        assert got_kind == kind
        assert got_meta == meta
        assert set(got_arrays) == set(arrays)
        for name, arr in arrays.items():
            assert got_arrays[name].shape == arr.shape
            assert got_arrays[name].tobytes() == arr.tobytes()


@settings(max_examples=50, deadline=None)
@given(
    shape=st.lists(st.integers(1, 5), min_size=1, max_size=3),
    seed=st.integers(0, 2**31),
)
def test_round_trip_random_arrays(tmp_path_factory, shape, seed):
    rng = np.random.default_rng(seed)
    arr = rng.normal(size=tuple(shape))
    path = tmp_path_factory.mktemp("rt") / "x.vcas"
    write_container(path, PayloadKind.DATASET, {"x": arr}, {"seed": seed})
    _, arrays, meta = read_container(path)
    assert arrays["x"].tobytes() == arr.tobytes()
    assert meta == {"seed": seed}


def test_write_is_deterministic(tmp_path):
    arrays = {"x": np.arange(6.0).reshape(2, 3)}
    meta = {"b": 1, "a": 2}
    p1 = write_container(tmp_path / "one.vcas", PayloadKind.DATASET, arrays, meta)
    p2 = write_container(tmp_path / "two.vcas", PayloadKind.DATASET, arrays, meta)
    assert p1.read_bytes() == p2.read_bytes()


def test_corrupted_magic_rejected_before_payload(tmp_path):
    path = write_container(
        tmp_path / "x.vcas", PayloadKind.DATASET, {"m": np.ones(4)}, {}
    )
    raw = bytearray(path.read_bytes())
    raw[0] = ord("X")
    # Truncate the payload too: the magic check must fire first.
    bad = tmp_path / "bad.vcas"
    bad.write_bytes(bytes(raw[: len(raw) // 2]))
    with pytest.raises(DataError, match="magic"):
        read_container(bad)


def test_unknown_version_rejected(tmp_path):
    path = write_container(
        tmp_path / "x.vcas", PayloadKind.KPCA_MODEL, {"m": np.ones(4)}, {}
    )
    raw = bytearray(path.read_bytes())
    raw[4:6] = (99).to_bytes(2, "little")
    bad = tmp_path / "bad.vcas"
    bad.write_bytes(bytes(raw))
    with pytest.raises(DataError, match="version"):
        read_container(bad)


def test_truncated_payload_rejected(tmp_path):
    path = write_container(
        tmp_path / "x.vcas", PayloadKind.MLP_MODEL, {"w": np.ones((3, 3))}, {}
    )
    raw = path.read_bytes()
    bad = tmp_path / "bad.vcas"
    bad.write_bytes(raw[:-8])
    with pytest.raises(DataError):
        read_container(bad)


def test_trailing_bytes_rejected(tmp_path):
    path = write_container(
        tmp_path / "x.vcas", PayloadKind.MLP_MODEL, {"w": np.ones(3)}, {}
    )
    bad = tmp_path / "bad.vcas"
    bad.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(DataError):
        read_container(bad)


def test_expect_kind_mismatch(tmp_path):
    path = write_container(
        tmp_path / "x.vcas", PayloadKind.MLP_MODEL, {"x": np.ones(2)}, {}
    )
    with pytest.raises(DataError):
        read_container(path, expect_kind=PayloadKind.KPCA_MODEL)


def test_unknown_payload_kind_rejected(tmp_path):
    path = write_container(
        tmp_path / "x.vcas", PayloadKind.DATASET, {"x": np.ones(2)}, {}
    )
    raw = bytearray(path.read_bytes())
    raw[6:8] = (1).to_bytes(2, "little")  # the retired waveform tag
    bad = tmp_path / "bad.vcas"
    bad.write_bytes(bytes(raw))
    with pytest.raises(DataError, match="unknown payload kind 1"):
        read_container(bad)


@pytest.mark.parametrize("fail_at", ["write_bytes", "replace"])
def test_failed_write_keeps_old_file_and_no_temp(tmp_path, monkeypatch, fail_at):
    path = tmp_path / "x.vcas"
    write_container(path, PayloadKind.DATASET, {"x": np.ones(3)}, {"v": 1})
    before = path.read_bytes()
    halves = []

    class DiskFullMidArray:
        """An open file whose first array write stops halfway.

        The header goes out as bytes, each array as a memoryview of its
        buffer.
        """

        def __init__(self, file, mode):
            self._fh = open(file, mode)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self._fh.close()

        def write(self, data):
            if isinstance(data, memoryview):
                halves.append(self._fh.write(data.cast("B")[: data.nbytes // 2]))
                self._fh.flush()
                raise OSError("disk full")
            return self._fh.write(data)

    def refuse_replace(src, dst):
        raise OSError("rename refused")

    if fail_at == "write_bytes":
        monkeypatch.setattr(container, "open", DiskFullMidArray, raising=False)
    else:
        monkeypatch.setattr(os, "replace", refuse_replace)
    with pytest.raises(OSError):
        write_container(path, PayloadKind.DATASET, {"x": np.zeros(500)}, {"v": 2})
    monkeypatch.undo()

    assert halves == ([2000] if fail_at == "write_bytes" else [])
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["x.vcas"]


def _two_array_file(tmp_path) -> bytes:
    arrays = {"w": np.arange(6.0).reshape(2, 3), "b": np.array([0.5, -1.5])}
    path = write_container(tmp_path / "x.vcas", PayloadKind.MLP_MODEL, arrays, {"k": 1})
    return path.read_bytes()


def test_every_truncation_is_rejected(tmp_path):
    raw = _two_array_file(tmp_path)
    bad = tmp_path / "bad.vcas"
    for cut in range(len(raw)):
        bad.write_bytes(raw[:cut])
        with pytest.raises(DataError):
            read_container(bad)


def test_array_larger_than_the_file_is_rejected_before_allocating(tmp_path):
    path = write_container(
        tmp_path / "x.vcas", PayloadKind.DATASET, {"x": np.ones(2)}, {}
    )
    raw = bytearray(path.read_bytes())
    # The one dimension is the last u64 before the 16 data bytes.
    raw[-24:-16] = (2**61).to_bytes(8, "little")
    bad = tmp_path / "bad.vcas"
    bad.write_bytes(bytes(raw))
    with pytest.raises(DataError, match="truncated"):
        read_container(bad)
