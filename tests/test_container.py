import ast
import json
import os
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vcas import container
from vcas.cli import cmd_report
from vcas.container import PayloadKind, read_container, write_container
from vcas.envsim import Action, ContactType, DemoPair, write_demos
from vcas.errors import DataError, ParameterError
from vcas.features import kpca_fit_transform, write_evr_csv
from vcas.learn import (
    ConfusionMatrix,
    RegressionReport,
    write_confusion_csv,
    write_regression_csv,
)
from vcas.pipeline import write_json


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
    pwrite = os.pwrite

    def disk_full_mid_array(fd, data, offset):
        """Write half of the first array's bytes, then fail.

        Headers go out as bytes, each array as a view of its buffer.
        """
        if isinstance(data.obj, np.ndarray):
            halves.append(pwrite(fd, data[: data.nbytes // 2], offset))
            raise OSError("disk full")
        return pwrite(fd, data, offset)

    def refuse_replace(src, dst):
        raise OSError("rename refused")

    if fail_at == "write_bytes":
        monkeypatch.setattr(os, "pwrite", disk_full_mid_array)
    else:
        monkeypatch.setattr(os, "replace", refuse_replace)
    with pytest.raises(DataError, match="cannot write"):
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


def test_write_container_bytes_follow_the_documented_layout(tmp_path):
    rng = np.random.default_rng(0)
    arrays = {
        "fortran": np.asfortranarray(rng.normal(size=(3, 4))),
        "int64": np.arange(-2, 3, dtype=np.int64),
        "big": rng.normal(size=5).astype(">f8"),
        "cube": rng.normal(size=(2, 3, 2)),
    }
    meta = {"b": [1, 2], "a": "x"}
    meta_bytes = b'{"a": "x", "b": [1, 2]}'  # sorted keys
    # version 2, kind 4 (KPCA_MODEL), metadata length
    want = b"VCAS" + struct.pack("<HHI", 2, 4, len(meta_bytes)) + meta_bytes
    want += struct.pack("<I", len(arrays))
    for name, arr in arrays.items():
        want += struct.pack("<H", len(name)) + name.encode("utf-8")
        # dtype byte 8: write_container stores every array as <f8
        want += struct.pack(f"<BB{arr.ndim}Q", 8, arr.ndim, *arr.shape)
        values = arr.ravel(order="C").tolist()  # C order, whatever the memory order
        want += struct.pack(f"<{len(values)}d", *values)

    path = write_container(tmp_path / "x.vcas", PayloadKind.KPCA_MODEL, arrays, meta)
    assert path.read_bytes() == want
    kind, got, got_meta = read_container(path)
    assert (kind, got_meta) == (PayloadKind.KPCA_MODEL, meta)
    assert list(got) == list(arrays)
    for name, arr in arrays.items():
        assert got[name].dtype == np.float64
        assert got[name].shape == arr.shape
        assert np.array_equal(got[name], arr), name


def test_open_container_blocks_in_any_order_equal_write_container(tmp_path):
    rows = np.arange(35.0).reshape(7, 5)
    arrays = {"rows": rows, "ids": np.array([3.0, -1.5])}
    want = write_container(tmp_path / "a.vcas", PayloadKind.DATASET, arrays, {"k": 1})
    shapes = {name: arr.shape for name, arr in arrays.items()}
    path = tmp_path / "b.vcas"
    with container.open_container(path, PayloadKind.DATASET, shapes, {"k": 1}) as put:
        put("ids", 0, arrays["ids"])
        for first in (4, 0):  # rows 4-6, then 0-3
            put("rows", first, rows[first : first + 4])
    assert path.read_bytes() == want.read_bytes()


def test_a_float32_array_reads_back_as_its_float32_values(tmp_path):
    rng = np.random.default_rng(0)
    # Wider than a staging buffer, so whole-row and band reads take
    # several staging rounds; the specials must survive the round trip.
    rows = rng.lognormal(size=(37, 5000))
    rows[0, :4] = [0.0, np.finfo(np.float32).tiny / 2, 3.4e38, 1e-30]
    ids = rng.normal(size=37)
    want = rows.astype(np.float32)
    shapes = {"ids": ids.shape, "rows": rows.shape}  # rows last, for the cut
    path = tmp_path / "a.vcas"
    with container.open_container(
        path, PayloadKind.DATASET, shapes, {"k": 1}, {"rows": "<f4"}
    ) as put:
        put("ids", 0, ids)
        put("rows", 20, want[20:])  # a float32 block is stored as it is
        put("rows", 0, rows[:20])  # a float64 block is rounded
    header_and_ids = path.stat().st_size - rows.size * 4
    assert header_and_ids < 200 + ids.nbytes
    _, got, meta = read_container(path)
    assert meta == {"k": 1}
    assert got["rows"].dtype == np.float64
    assert got["rows"].astype(np.float32).tobytes() == want.tobytes()
    assert np.array_equal(got["rows"], want)
    assert got["ids"].tobytes() == ids.tobytes()  # undeclared arrays stay <f8
    with container.read_container_lazily(path, on_disk="rows") as (_, lazy, _):
        view = lazy["rows"]
        for key in (slice(None), slice(3, 30), (slice(None), slice(100, 4500)),
                    (slice(5, 9), slice(4999, 5000)), (slice(2, 2), slice(None)),
                    (slice(None), slice(7, 7))):
            read = np.asarray(view[key])
            assert read.dtype == np.float64 and read.shape == want[key].shape
            assert read.tobytes() == want[key].astype(np.float64).tobytes(), key
        os.truncate(path, path.stat().st_size - 4)
        assert np.asarray(view[:36]).tobytes() == want[:36].astype(np.float64).tobytes()
        for key in (slice(None), (slice(30, 37), slice(4990, 5000))):
            with pytest.raises(DataError, match="truncated"):
                np.asarray(view[key])


def test_a_version_1_container_is_refused_with_the_commands_that_rewrite_it(
    tmp_path
):
    # Version 1 had no dtype byte and stored every array as <f8.
    rows = np.arange(6.0).reshape(2, 3)
    meta = b"{}"
    raw = b"VCAS" + struct.pack("<HHI", 1, PayloadKind.DATASET, len(meta)) + meta
    raw += struct.pack("<I", 1) + struct.pack("<H", 4) + b"rows"
    raw += struct.pack("<B2Q", 2, *rows.shape) + rows.astype("<f8").tobytes()
    path = tmp_path / "old.vcas"
    path.write_bytes(raw)
    for read in (
        lambda: read_container(path),
        lambda: container.read_container_lazily(path, on_disk="rows").__enter__(),
    ):
        with pytest.raises(DataError, match="version 1 .*synth-data, then train"):
            read()


def test_open_container_refuses_an_unstored_dtype(tmp_path):
    for dtype in ("<i4", ">f4", "<f2"):
        with pytest.raises(ParameterError, match="<f8 or <f4"):
            with container.open_container(
                tmp_path / "x.vcas", PayloadKind.DATASET, {"x": (2,)}, None,
                {"x": dtype},
            ):
                pass
    assert list(tmp_path.iterdir()) == []


def test_open_container_refuses_a_misfit_or_missing_block(tmp_path):
    shapes = {"rows": (4, 3)}
    path = tmp_path / "x.vcas"
    with pytest.raises(ParameterError, match="does not fit"):
        with container.open_container(path, PayloadKind.DATASET, shapes) as put:
            put("rows", 2, np.zeros((3, 3)))
    with pytest.raises(ParameterError, match="72 of 96 array bytes"):
        with container.open_container(path, PayloadKind.DATASET, shapes) as put:
            put("rows", 0, np.zeros((1, 3)))
            put("rows", 3, np.zeros((1, 3)))
            put("rows", 1, np.zeros((1, 3)))
    assert list(tmp_path.iterdir()) == []


def test_a_disk_matrix_reads_column_ranges_of_its_array(tmp_path):
    rows = np.arange(35.0).reshape(7, 5)
    arrays = {"rows": rows, "ids": np.array([3.0, -1.5])}
    path = write_container(tmp_path / "a.vcas", PayloadKind.DATASET, arrays, {"k": 1})
    lazily = container.read_container_lazily(path, PayloadKind.DATASET, "rows")
    with lazily as (kind, got, meta):
        view = got["rows"]
        assert isinstance(view, container.DiskMatrix)
        assert (kind, meta, view.shape) == (PayloadKind.DATASET, {"k": 1}, (7, 5))
        assert got["ids"].tobytes() == arrays["ids"].tobytes()
        assert np.asarray(view).tobytes() == rows.tobytes()
        band = view[:, 1:4]
        assert band.shape == (7, 3)
        assert np.asarray(band[:, 1:]).tobytes() == rows[:, 2:4].copy().tobytes()
        assert np.asarray(view[:, 4:9]).tobytes() == rows[:, 4:].copy().tobytes()
        # Row ranges, of whole rows (one read) and of a column band.
        for key in ((slice(1, 3), slice(None)), slice(None), slice(5, 9),
                    (slice(2, 6), slice(1, 4)), (slice(4, 4), slice(None))):
            want = rows[key].copy()
            assert view[key].shape == want.shape
            assert np.asarray(view[key]).tobytes() == want.tobytes()
        assert np.asarray(band[3:, 1:]).tobytes() == rows[3:, 2:4].copy().tobytes()
        for key in ((0, slice(None)), (slice(None), 2), (slice(None), slice(0, 5, 2)),
                    (slice(0, 7, 2), slice(None)), 0):
            with pytest.raises(IndexError):
                view[key]
    with pytest.raises(ValueError):  # the file is closed with the block
        np.asarray(view)


def test_a_disk_matrix_read_past_a_shrunk_file_is_a_data_error(tmp_path):
    arrays = {"m": np.ones((4, 3))}
    path = write_container(tmp_path / "a.vcas", PayloadKind.DATASET, arrays)
    with container.read_container_lazily(path, on_disk="m") as (_, got, _):
        os.truncate(path, path.stat().st_size - 8)
        assert np.asarray(got["m"][:, :2]).tobytes() == np.ones((4, 2)).tobytes()
        assert np.asarray(got["m"][:3]).tobytes() == np.ones((3, 3)).tobytes()
        with pytest.raises(DataError, match="truncated"):
            np.asarray(got["m"])
        with pytest.raises(DataError, match="truncated"):
            np.asarray(got["m"][2:4, :])


def test_a_lazy_read_checks_every_header_before_any_block(tmp_path, monkeypatch):
    raw = _two_array_file(tmp_path)
    bad_files = [raw[:cut] for cut in range(len(raw))]  # every truncation
    dtype_at = raw.index(b"\x01\x00w") + 3  # the first array's dtype byte
    # magic, version, kind, dtype
    for at, value in ((0, b"X"), (4, b"\x63"), (6, b"\x01"), (dtype_at, b"\x02")):
        bad_files.append(raw[:at] + value + raw[at + 1 :])
    monkeypatch.setattr(os, "preadv", None)  # a block read would fail loudly
    bad = tmp_path / "bad.vcas"
    for data in bad_files:
        bad.write_bytes(data)
        with pytest.raises(DataError):
            with container.read_container_lazily(bad, on_disk="w"):
                pytest.fail(f"opened a {len(data)}-byte corrupt file")
    with pytest.raises(DataError, match="not a matrix"):
        with container.read_container_lazily(tmp_path / "x.vcas", on_disk="b"):
            pass


# Every file vcas writes, by target name; each writer gets the target path.
_WRITERS = {
    "write_container": (
        "x.vcas",
        lambda path: write_container(path, PayloadKind.DATASET, {"x": np.ones(3)}),
    ),
    "write_json": ("x.json", lambda path: write_json({"a": 1}, path)),
    "write_confusion_csv": (
        "confusion.csv",
        lambda path: write_confusion_csv(
            ConfusionMatrix(np.eye(2, dtype=np.int64), ("a", "b")), path
        ),
    ),
    "write_regression_csv": (
        "per_target.csv",
        lambda path: write_regression_csv(
            RegressionReport(0.5, np.array([1.0]), np.array([0.5]), np.array([2])),
            path,
        ),
    ),
    "write_evr_csv": (
        "evr.csv",
        lambda path: write_evr_csv(
            kpca_fit_transform(np.random.default_rng(0).random((5, 8)), 2)[0], path
        ),
    ),
    "write_demos": (
        "demos.jsonl",
        lambda path: write_demos(
            [DemoPair((None, ContactType.LINE), Action.ROT_X)], path
        ),
    ),
    "cmd_report csv": (
        "report.csv",
        lambda path: cmd_report([path.parent.parent / "eval.json"], path.parent),
    ),
    "cmd_report md": (
        "report.md",
        lambda path: cmd_report([path.parent.parent / "eval.json"], path.parent),
    ),
}


@pytest.mark.parametrize("site", sorted(_WRITERS))
def test_every_writer_keeps_the_old_file_when_the_rename_fails(
    tmp_path, monkeypatch, site
):
    name, write = _WRITERS[site]
    (tmp_path / "eval.json").write_text(
        json.dumps(
            {"regime": "fixed", "n_episodes": 1, "success_rate": 1.0, "mean_length": 3.0}
        )
    )
    path = tmp_path / "out" / name
    path.parent.mkdir()
    path.write_bytes(b"old\n")
    replace = os.replace

    def refuse_target(src, dst):
        if Path(dst) == path:
            raise OSError("rename refused")
        replace(src, dst)

    monkeypatch.setattr(os, "replace", refuse_target)
    with pytest.raises(DataError, match="rename refused"):
        write(path)
    monkeypatch.undo()

    assert path.read_bytes() == b"old\n"
    assert list(tmp_path.rglob("*.tmp")) == []


def test_read_text_maps_unreadable_and_undecodable_files_to_data_error(tmp_path):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes(b"caf\xe9\n")
    for path in (bad, tmp_path, tmp_path / "absent.txt"):
        with pytest.raises(DataError, match=f"cannot read {path}"):
            container.read_text(path)


def test_read_container_maps_a_failed_open_to_data_error(tmp_path):
    for path in (tmp_path, tmp_path / "absent.vcas"):
        with pytest.raises(DataError, match=f"cannot read {path}"):
            read_container(path)


# Calls that open, read, write or create files or directories.
_FILE_CALLS = {
    "open", "read_text", "write_text", "read_bytes", "write_bytes", "mkdir",
    "makedirs", "pwrite", "pwritev", "pread", "preadv",
}


def test_only_the_container_module_touches_files():
    """Every other module reads and writes through `container`."""
    src = Path(container.__file__).parent
    hits = []
    for module in sorted(src.glob("*.py")):
        if module.name == "container.py":
            continue
        for node in ast.walk(ast.parse(module.read_text(), str(module))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            # A bare name is a file call only when it is the builtin open;
            # `read_text` imported from container is the sanctioned path.
            if (isinstance(func, ast.Name) and func.id == "open") or (
                isinstance(func, ast.Attribute) and func.attr in _FILE_CALLS
            ):
                hits.append(f"{module.name}:{node.lineno}")
    assert hits == []


# Public API that only the acceptance criteria and their tests call.
_TEST_ONLY_API = {"grid_poses"}


def _names_used(node) -> set[str]:
    """Every name that `node` reads, imports or looks up as an attribute."""
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
        elif isinstance(sub, ast.alias):
            used.add(sub.name)
    return used


def test_every_public_function_and_class_has_a_caller_in_the_package():
    """No public top-level def or class, method or property exists for
    the tests alone.

    A top-level name counts as used when some top-level statement of
    `vcas` other than its own definition names it.  A public method or
    property of a public class counts as used when `vcas` reads it as an
    attribute anywhere.  Tests calling either do not count.
    """
    src = Path(container.__file__).parent
    statements = [
        stmt
        for module in sorted(src.glob("*.py"))
        for stmt in ast.parse(module.read_text(), str(module)).body
    ]
    used = [_names_used(stmt) for stmt in statements]
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    unused = {
        stmt.name
        for i, stmt in enumerate(statements)
        if isinstance(stmt, defs) and not stmt.name.startswith("_")
        and not any(stmt.name in names for j, names in enumerate(used) if j != i)
    }
    attributes = {
        node.attr
        for stmt in statements
        for node in ast.walk(stmt)
        if isinstance(node, ast.Attribute)
    }
    unused |= {
        f"{stmt.name}.{item.name}"
        for stmt in statements
        if isinstance(stmt, ast.ClassDef) and not stmt.name.startswith("_")
        for item in stmt.body
        if isinstance(item, defs) and not item.name.startswith("_")
        and item.name not in attributes
    }
    assert unused == _TEST_ONLY_API

