"""Artifact layer: IDX parsing and its error kinds, PGM bytes, CSV
round-trips, synthetic generators."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gradleak.data import (
    IDX_IMAGES_MAGIC,
    IDX_LABELS_MAGIC,
    IdxCountMismatchError,
    IdxMagicError,
    IdxTruncatedError,
    format_value,
    load_idx,
    read_pgm,
    synthetic_samples,
    write_idx,
    write_pgm,
    write_report_csv,
)


def make_idx_pair(tmp_path, n=4, rows=5, cols=5, n_labels=None, img_magic=IDX_IMAGES_MAGIC,
                  lbl_magic=IDX_LABELS_MAGIC, truncate_images=0):
    n_labels = n if n_labels is None else n_labels
    ip, lp = tmp_path / "imgs.idx", tmp_path / "lbls.idx"
    rng = np.random.Generator(np.random.PCG64(0))
    body = rng.integers(0, 256, size=n * rows * cols, dtype=np.uint8).tobytes()
    raw = struct.pack(">IIII", img_magic, n, rows, cols) + body
    ip.write_bytes(raw[:len(raw) - truncate_images] if truncate_images else raw)
    lp.write_bytes(struct.pack(">II", lbl_magic, n_labels) +
                   bytes(i % 10 for i in range(n_labels)))
    return str(ip), str(lp)


def test_load_idx_roundtrip_values(tmp_path):
    ip, lp = make_idx_pair(tmp_path)
    ds = load_idx(ip, lp)
    assert len(ds) == 4 and ds.image_shape == (1, 5, 5)
    raw = np.frombuffer(open(ip, "rb").read()[16:16 + 25], dtype=np.uint8)
    np.testing.assert_allclose(ds[0].image.reshape(-1), raw / 255.0)
    assert ds[0].image.min() >= 0.0 and ds[0].image.max() <= 1.0
    assert [s.label for s in ds] == [0, 1, 2, 3]


def test_load_idx_limit(tmp_path):
    ip, lp = make_idx_pair(tmp_path, n=6)
    assert len(load_idx(ip, lp, limit=2)) == 2


def test_idx_bad_magic(tmp_path):
    ip, lp = make_idx_pair(tmp_path, img_magic=0x00000801)
    with pytest.raises(IdxMagicError, match="bad magic"):
        load_idx(ip, lp)
    ip, lp = make_idx_pair(tmp_path, lbl_magic=IDX_IMAGES_MAGIC)
    with pytest.raises(IdxMagicError, match="bad magic"):
        load_idx(ip, lp)


def test_idx_truncated(tmp_path):
    ip, lp = make_idx_pair(tmp_path, truncate_images=10)
    with pytest.raises(IdxTruncatedError):
        load_idx(ip, lp)


def test_idx_count_mismatch(tmp_path):
    ip, lp = make_idx_pair(tmp_path, n=4, n_labels=3)
    with pytest.raises(IdxCountMismatchError):
        load_idx(ip, lp)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 15), st.sampled_from(["images", "labels"]))
def test_idx_header_corruption_property(tmp_path_factory, cut, which):
    # any header shorter than the fixed width is a distinct truncation error
    tmp = tmp_path_factory.mktemp("idx")
    ip, lp = make_idx_pair(tmp)
    if which == "images":
        raw = open(ip, "rb").read()
        open(ip, "wb").write(raw[:cut])
    else:
        raw = open(lp, "rb").read()
        open(lp, "wb").write(raw[:min(cut, 7)])
    with pytest.raises(IdxTruncatedError):
        load_idx(ip, lp)


def test_write_idx_roundtrip(tmp_path):
    ds = synthetic_samples("gaussian_blobs", 5, (1, 8, 8), seed=3)
    ip, lp = str(tmp_path / "i.idx"), str(tmp_path / "l.idx")
    write_idx(ds, ip, lp)
    back = load_idx(ip, lp)
    assert len(back) == 5
    for a, b in zip(ds, back):
        assert a.label == b.label
        assert np.abs(a.image - b.image).max() <= 0.5 / 255  # byte quantization


def test_pgm_frozen_bytes(tmp_path):
    path = str(tmp_path / "x.pgm")
    write_pgm(np.array([[0.0, 1.0], [0.5, 0.5]]), path)
    raw = open(path, "rb").read()
    assert raw == b"P5\n2 2\n255\n" + bytes([0, 255, 128, 128])


def test_pgm_roundtrip_and_guards(tmp_path):
    rng = np.random.Generator(np.random.PCG64(1))
    img = rng.uniform(0, 1, (6, 4))
    path = str(tmp_path / "y.pgm")
    write_pgm(img, path)
    back = read_pgm(path)
    assert np.abs(back - img).max() <= 0.5 / 255
    with pytest.raises(ValueError):
        write_pgm(np.full((2, 2), 1.5), path)
    with pytest.raises(ValueError):
        write_pgm(np.zeros((3, 2, 2)), path)  # multi-channel
    write_pgm(np.zeros((1, 2, 2)), path)  # single leading channel is fine
    assert open(path, "rb").read().endswith(bytes(4))


@pytest.mark.parametrize("first", [9, 10, 32, 100])
def test_pgm_roundtrip_keeps_whitespace_pixels(tmp_path, first):
    # bytes 9-13 and 32 read as ASCII whitespace; the first pixel follows the
    # header's last whitespace byte and must not be taken as part of it
    pixels = np.array([[first, 32, 10, 0], [255, 13, 9, 100]], dtype=np.uint8)
    path = str(tmp_path / "w.pgm")
    write_pgm(pixels / 255.0, path)
    back = read_pgm(path)
    assert back.shape == pixels.shape
    np.testing.assert_array_equal(np.round(back * 255.0), pixels)


def test_csv_roundtrip_17_digits(tmp_path):
    path = str(tmp_path / "r.csv")
    rows = [{"a": 0.1, "b": 1, "c": "tag"}, {"a": 1 / 3, "b": 2, "c": "x"}]
    write_report_csv(rows, path, comments=["seed=5"])
    lines = open(path).read().splitlines()
    assert lines[0] == "# seed=5"
    assert lines[1] == "a,b,c"
    a0 = float(lines[2].split(",")[0])
    assert a0 == 0.1  # exact 64-bit round trip
    assert float(lines[3].split(",")[0]) == 1 / 3
    assert format_value(0.1) == "0.10000000000000001"


def test_csv_header_only_and_determinism(tmp_path):
    p1, p2 = str(tmp_path / "1.csv"), str(tmp_path / "2.csv")
    write_report_csv([], p1, header=["x", "y"])
    assert open(p1).read() == "x,y\n"
    rows = [[1, 2.5], [3, 4.5]]
    write_report_csv(rows, p1, header=["x", "y"])
    write_report_csv(rows, p2, header=["x", "y"])
    assert open(p1, "rb").read() == open(p2, "rb").read()
    assert b"\r" not in open(p1, "rb").read()


@pytest.mark.parametrize("kind", ["gaussian_blobs", "separable_2class", "checkerboard"])
def test_synthetic_determinism_and_range(kind):
    shape = (1, 8, 8)
    a = synthetic_samples(kind, 6, shape, seed=9)
    b = synthetic_samples(kind, 6, shape, seed=9)
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.image, sb.image) and sa.label == sb.label
        assert sa.image.min() >= 0.0 and sa.image.max() <= 1.0
        assert sa.label < a.num_classes
    c = synthetic_samples(kind, 6, shape, seed=10)
    assert any(not np.array_equal(sa.image, sc.image) for sa, sc in zip(a, c))


def test_synthetic_rejects_bad_args():
    with pytest.raises(ValueError):
        synthetic_samples("gaussian_blobs", 0)
    with pytest.raises(ValueError):
        synthetic_samples("mnist", 3)
