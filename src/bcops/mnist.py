"""MNIST IDX ingestion.

Big-endian binary containers: images carry magic 0x00000803 followed by
count, rows (28) and cols (28) as 32-bit fields, then unsigned pixel bytes
row-major; labels carry magic 0x00000801, count, then unsigned byte labels.
Files may be raw or gzip-compressed (detected by the 0x1f8b prefix).
Pixels stay uint8 until a caller has chosen the rows it needs, and
``scale_pixels`` is the one rule that maps them to [0, 1]. Digit labels are
kept raw (0..9) and mapped to classes by the mnist experiment
(``sweep.prepare_mnist``).
"""

from __future__ import annotations

import gzip
import struct
import zlib
from pathlib import Path

import numpy as np

IMAGES_MAGIC = 0x00000803
LABELS_MAGIC = 0x00000801
IMAGE_ROWS = 28
IMAGE_COLS = 28


class IdxFormatError(ValueError):
    """Raised for malformed IDX payloads, whose messages name the byte offset,
    and for damaged gzip files. ``load_mnist`` prefixes both with the path."""


def _read_file(path, parse) -> np.ndarray:
    """``parse`` of the payload of the raw or gzip IDX file at ``path``;
    a format error names the path."""
    raw = Path(path).read_bytes()
    try:
        return parse(gzip.decompress(raw) if raw[:2] == b"\x1f\x8b" else raw)
    except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
        raise IdxFormatError(f"{path}: damaged gzip file: {exc}") from None
    except IdxFormatError as exc:
        raise IdxFormatError(f"{path}: {exc}") from None


def _read_u32(buf: bytes, offset: int, what: str) -> int:
    if offset + 4 > len(buf):
        raise IdxFormatError(f"truncated file: {what} missing at byte offset {offset}")
    return struct.unpack_from(">I", buf, offset)[0]


def parse_idx_images(buf: bytes) -> np.ndarray:
    magic = _read_u32(buf, 0, "magic number")
    if magic != IMAGES_MAGIC:
        raise IdxFormatError(f"bad image magic 0x{magic:08x} at byte offset 0")
    count = _read_u32(buf, 4, "image count")
    rows = _read_u32(buf, 8, "row count")
    cols = _read_u32(buf, 12, "column count")
    if (rows, cols) != (IMAGE_ROWS, IMAGE_COLS):
        raise IdxFormatError(f"expected 28x28 images, got {rows}x{cols} at byte offset 8")
    need = 16 + count * rows * cols
    if len(buf) < need:
        raise IdxFormatError(f"truncated file: pixel data ends at byte offset {len(buf)}, need {need}")
    pixels = np.frombuffer(buf, dtype=np.uint8, count=count * rows * cols, offset=16)
    return pixels.reshape(count, rows * cols)


def parse_idx_labels(buf: bytes) -> np.ndarray:
    magic = _read_u32(buf, 0, "magic number")
    if magic != LABELS_MAGIC:
        raise IdxFormatError(f"bad label magic 0x{magic:08x} at byte offset 0")
    count = _read_u32(buf, 4, "label count")
    need = 8 + count
    if len(buf) < need:
        raise IdxFormatError(f"truncated file: label data ends at byte offset {len(buf)}, need {need}")
    return np.frombuffer(buf, dtype=np.uint8, count=count, offset=8).copy()


def serialize_idx_images(images: np.ndarray) -> bytes:
    images = np.asarray(images, dtype=np.uint8)
    header = struct.pack(">IIII", IMAGES_MAGIC, images.shape[0], IMAGE_ROWS, IMAGE_COLS)
    return header + images.tobytes()


def serialize_idx_labels(labels: np.ndarray) -> bytes:
    labels = np.asarray(labels, dtype=np.uint8)
    return struct.pack(">II", LABELS_MAGIC, labels.shape[0]) + labels.tobytes()


def load_mnist(images_path, labels_path) -> tuple[np.ndarray, np.ndarray]:
    """Parse an (images, labels) pair into the n x 784 uint8 pixels, a
    read-only view of the file's payload, and the raw digit of each row."""
    images = _read_file(images_path, parse_idx_images)
    labels = _read_file(labels_path, parse_idx_labels)
    if images.shape[0] != labels.shape[0]:
        raise IdxFormatError(
            f"count mismatch: {images.shape[0]} images in {images_path} "
            f"vs {labels.shape[0]} labels in {labels_path}"
        )
    return images, labels.astype(np.int64)


def scale_pixels(pixels: np.ndarray) -> np.ndarray:
    """uint8 pixels as float64 in [0, 1]: bit for bit ``astype(np.float64) /
    255.0``, without its second float64 temporary."""
    out = pixels.astype(np.float64)
    out /= 255.0
    return out
