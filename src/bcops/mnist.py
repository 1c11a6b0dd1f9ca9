"""MNIST IDX ingestion.

Big-endian binary containers: images carry magic 0x00000803 followed by
count, rows (28) and cols (28) as 32-bit fields, then unsigned pixel bytes
row-major; labels carry magic 0x00000801, count, then unsigned byte labels.
Files may be raw or gzip-compressed (detected by the 0x1f8b prefix).
Pixels are scaled to [0, 1]; digit labels are kept raw (0..9) and mapped to
classes by the mnist experiment (``sweep.prepare_mnist``).
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
    and for damaged gzip files, whose messages name the path."""


def _read_payload(path) -> bytes:
    raw = Path(path).read_bytes()
    if raw[:2] == b"\x1f\x8b":
        try:
            raw = gzip.decompress(raw)
        except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
            raise IdxFormatError(f"{path}: damaged gzip file: {exc}") from None
    return raw


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
    """Parse an (images, labels) pair into pixels scaled to [0, 1] and the
    raw digit of each row."""
    images = parse_idx_images(_read_payload(images_path))
    labels = parse_idx_labels(_read_payload(labels_path))
    if images.shape[0] != labels.shape[0]:
        raise IdxFormatError(
            f"count mismatch: {images.shape[0]} images vs {labels.shape[0]} labels"
        )
    return images.astype(np.float64) / 255.0, labels.astype(np.int64)
