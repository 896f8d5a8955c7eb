"""Sample sources and artifact writers: IDX images, synthetic datasets,
binary PGM dumps, and round-trippable CSV reports."""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass

import numpy as np

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
SYNTHETIC_KINDS = ("gaussian_blobs", "separable_2class", "checkerboard")


class IdxFormatError(ValueError):
    pass


class IdxMagicError(IdxFormatError):
    pass


class IdxTruncatedError(IdxFormatError):
    pass


class IdxCountMismatchError(IdxFormatError):
    pass


@dataclass(frozen=True)
class Sample:
    """One sample: its image and its label."""
    image: np.ndarray  # entries in [0, 1]
    label: int


@dataclass(frozen=True)
class Dataset:
    samples: tuple
    num_classes: int
    image_shape: tuple

    def __len__(self):
        return len(self.samples)

    def __getitem__(self, i):
        return self.samples[i]

    def __iter__(self):
        return iter(self.samples)


def load_idx(images_path, labels_path, limit=None, num_classes=10) -> Dataset:
    """Load big-endian IDX image/label files (the MNIST container format)."""
    with open(images_path, "rb") as f:
        raw = f.read()
    if len(raw) < 16:
        raise IdxTruncatedError(f"{images_path}: header truncated")
    magic, n, rows, cols = struct.unpack(">IIII", raw[:16])
    if magic != IDX_IMAGES_MAGIC:
        raise IdxMagicError(f"{images_path}: bad magic 0x{magic:08x}, expected 0x{IDX_IMAGES_MAGIC:08x}")
    if len(raw) < 16 + n * rows * cols:
        raise IdxTruncatedError(f"{images_path}: expected {n} images of {rows}x{cols}, file too short")
    with open(labels_path, "rb") as f:
        raw_l = f.read()
    if len(raw_l) < 8:
        raise IdxTruncatedError(f"{labels_path}: header truncated")
    magic_l, n_l = struct.unpack(">II", raw_l[:8])
    if magic_l != IDX_LABELS_MAGIC:
        raise IdxMagicError(f"{labels_path}: bad magic 0x{magic_l:08x}, expected 0x{IDX_LABELS_MAGIC:08x}")
    if len(raw_l) < 8 + n_l:
        raise IdxTruncatedError(f"{labels_path}: expected {n_l} labels, file too short")
    if n != n_l:
        raise IdxCountMismatchError(f"{n} images but {n_l} labels")
    count = n if limit is None else min(n, limit)
    pixels = np.frombuffer(raw, dtype=np.uint8, count=count * rows * cols, offset=16)
    pixels = pixels.reshape(count, 1, rows, cols).astype(np.float64) / 255.0
    labels = np.frombuffer(raw_l, dtype=np.uint8, count=count, offset=8)
    beyond = np.flatnonzero(labels >= num_classes)
    if beyond.size:
        raise IdxFormatError(f"{labels_path}: label {labels[beyond[0]]} of sample {beyond[0]} "
                             f"is not below num_classes {num_classes}")
    samples = tuple(Sample(image=pixels[i], label=int(labels[i])) for i in range(count))
    return Dataset(samples=samples, num_classes=num_classes, image_shape=(1, rows, cols))


def write_idx(dataset: Dataset, images_path, labels_path):
    """Inverse of load_idx for single-channel datasets; pixels quantized to bytes."""
    c, rows, cols = dataset.image_shape
    if c != 1:
        raise ValueError("IDX export supports single-channel images only")
    with open(images_path, "wb") as f:
        f.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, len(dataset), rows, cols))
        for s in dataset:
            f.write(np.round(s.image * 255.0).astype(np.uint8).tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">II", IDX_LABELS_MAGIC, len(dataset)))
        f.write(bytes(int(s.label) for s in dataset))


def synthetic_samples(kind, n, shape=(1, 28, 28), seed=0, num_classes=10) -> Dataset:
    """Deterministic synthetic datasets; all pixel values clipped to [0, 1]."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.Generator(np.random.PCG64(seed))
    shape = tuple(shape)
    samples = []
    if kind == "gaussian_blobs":
        # one blob center per class plus per-sample texture noise
        c, h, w = shape
        yy, xx = np.mgrid[0:h, 0:w]
        centers = [(rng.uniform(0.2, 0.8) * h, rng.uniform(0.2, 0.8) * w) for _ in range(num_classes)]
        for _ in range(n):
            label = int(rng.integers(num_classes))
            cy, cx = centers[label]
            blob = np.exp(-(((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * (0.15 * h) ** 2)))
            img = 0.7 * blob + 0.25 * rng.uniform(0, 1, size=(h, w))
            img = np.clip(np.broadcast_to(img, shape).copy(), 0.0, 1.0)
            samples.append(Sample(img, label))
    elif kind == "separable_2class":
        d = int(np.prod(shape))
        direction = rng.normal(size=d)
        direction /= np.linalg.norm(direction)
        for _ in range(n):
            label = int(rng.integers(2))
            sign = 1.0 if label == 1 else -1.0
            base = 0.5 + sign * 0.5 * direction + 0.05 * rng.normal(size=d)  # margin 0.5
            img = np.clip(base.reshape(shape), 0.0, 1.0)
            samples.append(Sample(img, label))
        num_classes = 2
    elif kind == "checkerboard":
        c, h, w = shape
        yy, xx = np.mgrid[0:h, 0:w]
        for _ in range(n):
            label = int(rng.integers(2))
            period = 2 + label * 2
            board = ((yy // period + xx // period) % 2).astype(np.float64)
            img = np.clip(0.8 * board + 0.2 * rng.uniform(0, 1, size=(h, w)), 0.0, 1.0)
            samples.append(Sample(np.broadcast_to(img, shape).copy(), label))
        num_classes = 2
    else:
        raise ValueError(f"unknown synthetic kind {kind!r}")
    return Dataset(samples=tuple(samples), num_classes=num_classes, image_shape=shape)


def write_pgm(image, path):
    """Binary PGM (P5), maxval 255; single-channel images in [0, 1]."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim == 3:
        if image.shape[0] != 1:
            raise ValueError("PGM output is single-channel; got multi-channel image")
        image = image[0]
    if image.ndim != 2:
        raise ValueError(f"expected a 2D image, got shape {image.shape}")
    if image.min() < 0.0 or image.max() > 1.0:
        raise ValueError("pixel values must lie in [0, 1]")
    h, w = image.shape
    payload = np.round(image * 255.0).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(payload.tobytes())


def read_pgm(path):
    """A binary PGM (P5) as floats in [0, 1]: the w * h bytes after the one
    whitespace byte that ends the header, whitespace-valued pixels included."""
    with open(path, "rb") as f:
        raw = f.read()
    header = re.match(rb"P5\s+(\d+)\s+(\d+)\s+(\d+)\s", raw)
    if header is None:
        raise ValueError(f"{path}: not a binary PGM")
    w, h, maxval = (int(v) for v in header.groups())
    data = np.frombuffer(raw, dtype=np.uint8, count=w * h, offset=header.end()).reshape(h, w)
    return data.astype(np.float64) / maxval


def format_value(v):
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")
    return str(v)


def write_report_csv(rows, path, header=None, comments=()):
    """Header + rows, floats at 17 significant digits, LF endings."""
    lines = [f"# {c}" for c in comments]
    if rows and header is None:
        header = list(rows[0].keys())
    if header is not None:
        lines.append(",".join(header))
    for row in rows:
        if isinstance(row, dict):
            row = [row[k] for k in header]
        lines.append(",".join(format_value(v) for v in row))
    with open(path, "w", newline="\n") as f:
        f.write("\n".join(lines) + "\n")
