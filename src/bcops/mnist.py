"""MNIST IDX ingestion.

An IDX file is a big-endian 32-bit magic number whose last byte counts the
dimensions, one big-endian 32-bit size per dimension, then the payload.
Images carry magic 0x00000803 (count, 28 rows, 28 columns of unsigned pixel
bytes, row-major) and labels 0x00000801 (count unsigned label bytes). Files
may be raw or gzip-compressed (detected by the 0x1f8b prefix). Both arrays
stay read-only uint8 views of their file's payload: ``scale_pixels`` is the
one rule that maps the pixels a caller has chosen to [0, 1], and the mnist
experiment maps raw digits (0..9) to classes (``sweep.prepare_mnist``).
"""

from __future__ import annotations

import gzip
import math
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


def _read_file(path, magic: int) -> np.ndarray:
    """``parse_idx`` of the payload of the raw or gzip IDX file at ``path``;
    a format error names the path."""
    raw = Path(path).read_bytes()
    try:
        return parse_idx(gzip.decompress(raw) if raw[:2] == b"\x1f\x8b" else raw, magic)
    except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
        raise IdxFormatError(f"{path}: damaged gzip file: {exc}") from None
    except IdxFormatError as exc:
        raise IdxFormatError(f"{path}: {exc}") from None


def _read_u32(buf: bytes, offset: int, what: str) -> int:
    if offset + 4 > len(buf):
        raise IdxFormatError(f"truncated file: {what} missing at byte offset {offset}")
    return struct.unpack_from(">I", buf, offset)[0]


def parse_idx(buf: bytes, magic: int) -> np.ndarray:
    """The uint8 payload of an IDX buffer with the given magic number, as a
    read-only view in the shape its header gives; bytes past it are ignored."""
    found = _read_u32(buf, 0, "magic number")
    if found != magic:
        raise IdxFormatError(f"bad magic 0x{found:08x} at byte offset 0, expected 0x{magic:08x}")
    shape = tuple(_read_u32(buf, 4 + 4 * d, f"dimension {d}") for d in range(magic & 0xFF))
    start = 4 + 4 * len(shape)
    need = start + math.prod(shape)
    if len(buf) < need:
        raise IdxFormatError(f"truncated file: data ends at byte offset {len(buf)}, need {need}")
    return np.frombuffer(buf, dtype=np.uint8, count=need - start, offset=start).reshape(shape)


def serialize_idx_images(images: np.ndarray) -> bytes:
    images = np.asarray(images, dtype=np.uint8)
    header = struct.pack(">IIII", IMAGES_MAGIC, images.shape[0], IMAGE_ROWS, IMAGE_COLS)
    return header + images.tobytes()


def serialize_idx_labels(labels: np.ndarray) -> bytes:
    labels = np.asarray(labels, dtype=np.uint8)
    return struct.pack(">II", LABELS_MAGIC, labels.shape[0]) + labels.tobytes()


def load_mnist(images_path, labels_path) -> tuple[np.ndarray, np.ndarray]:
    """Parse an (images, labels) pair into the n x 784 pixels and the raw
    digit of each row, both read-only uint8 views of their file's payload."""
    images = _read_file(images_path, IMAGES_MAGIC)
    if images.shape[1:] != (IMAGE_ROWS, IMAGE_COLS):
        rows, cols = images.shape[1:]
        raise IdxFormatError(f"{images_path}: expected 28x28 images, got {rows}x{cols} at byte offset 8")
    labels = _read_file(labels_path, LABELS_MAGIC)
    if images.shape[0] != labels.shape[0]:
        raise IdxFormatError(
            f"count mismatch: {images.shape[0]} images in {images_path} "
            f"vs {labels.shape[0]} labels in {labels_path}"
        )
    return images.reshape(-1, IMAGE_ROWS * IMAGE_COLS), labels


def scale_pixels(pixels: np.ndarray) -> np.ndarray:
    """uint8 pixels as float64 in [0, 1]: bit for bit ``astype(np.float64) /
    255.0``, in one pass."""
    return np.true_divide(pixels, 255.0, dtype=np.float64)
