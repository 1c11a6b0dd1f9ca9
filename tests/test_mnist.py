import gzip

import numpy as np
import pytest

from bcops.data import OUTLIER
from bcops.mnist import (
    IdxFormatError,
    load_mnist,
    parse_idx_images,
    parse_idx_labels,
    serialize_idx_images,
    serialize_idx_labels,
)
from bcops.sweep import prepare_mnist


@pytest.fixture
def sample_pair(tmp_path):
    g = np.random.default_rng(0)
    images = g.integers(0, 256, size=(30, 784), dtype=np.uint8)
    digits = g.integers(0, 10, size=30, dtype=np.uint8)
    img_path = tmp_path / "images-idx3-ubyte"
    lab_path = tmp_path / "labels-idx1-ubyte"
    img_path.write_bytes(serialize_idx_images(images))
    lab_path.write_bytes(serialize_idx_labels(digits))
    return images, digits, img_path, lab_path


def test_round_trip(sample_pair):
    images, digits, img_path, lab_path = sample_pair
    features, loaded = load_mnist(img_path, lab_path)
    assert features.shape == (30, 784)
    assert np.array_equal(loaded, digits)
    assert np.allclose(features * 255.0, images)


def test_pixels_scaled_to_unit_interval(sample_pair):
    _, _, img_path, lab_path = sample_pair
    features, _ = load_mnist(img_path, lab_path)
    assert features.min() >= 0.0 and features.max() <= 1.0


def test_gzip_detection(sample_pair, tmp_path):
    images, digits, img_path, lab_path = sample_pair
    gz_img = tmp_path / "images.gz"
    gz_lab = tmp_path / "labels.gz"
    gz_img.write_bytes(gzip.compress(img_path.read_bytes()))
    gz_lab.write_bytes(gzip.compress(lab_path.read_bytes()))
    _, loaded = load_mnist(gz_img, gz_lab)
    assert np.array_equal(loaded, digits)


@pytest.mark.parametrize("damage,reason", [
    ("truncated", "Compressed file ended before the end-of-stream marker was reached"),
    ("corrupted", "CRC check failed"),
])
@pytest.mark.parametrize("which", [0, 1], ids=["images", "labels"])
def test_damaged_gzip_names_the_file(sample_pair, tmp_path, damage, reason, which):
    paths = list(sample_pair[2:])
    damaged = tmp_path / "damaged.gz"
    # level 0 stores the payload as it is, so a flipped byte breaks only the CRC
    packed = bytearray(gzip.compress(paths[which].read_bytes(), compresslevel=0))
    if damage == "truncated":
        del packed[len(packed) // 2:]
    else:
        packed[len(packed) // 2] ^= 0xFF
    damaged.write_bytes(packed)
    paths[which] = damaged
    with pytest.raises(IdxFormatError) as err:
        load_mnist(*paths)
    assert str(err.value) == f"{damaged}: damaged gzip file: {reason}"


def test_header_round_trip(sample_pair):
    # re-serializing parsed content reproduces the original bytes, header included
    images, digits, img_path, lab_path = sample_pair
    assert serialize_idx_images(parse_idx_images(img_path.read_bytes())) == img_path.read_bytes()
    assert serialize_idx_labels(parse_idx_labels(lab_path.read_bytes())) == lab_path.read_bytes()


def test_bad_image_magic():
    with pytest.raises(IdxFormatError, match="magic.*offset 0"):
        parse_idx_images(b"\x00\x00\x08\x01" + b"\x00" * 100)


def test_bad_label_magic():
    with pytest.raises(IdxFormatError, match="magic.*offset 0"):
        parse_idx_labels(b"\x00\x00\x08\x03" + b"\x00" * 100)


def test_truncated_header():
    with pytest.raises(IdxFormatError, match="offset"):
        parse_idx_images(b"\x00\x00\x08\x03\x00")


def test_truncated_pixels(sample_pair):
    _, _, img_path, _ = sample_pair
    buf = img_path.read_bytes()[:-10]
    with pytest.raises(IdxFormatError, match="truncated"):
        parse_idx_images(buf)


def test_truncated_labels():
    buf = serialize_idx_labels(np.arange(10, dtype=np.uint8))[:-3]
    with pytest.raises(IdxFormatError, match="label data ends at byte offset 15, need 18"):
        parse_idx_labels(buf)


def test_wrong_geometry():
    import struct

    buf = struct.pack(">IIII", 0x00000803, 1, 14, 14) + b"\x00" * (14 * 14)
    with pytest.raises(IdxFormatError, match="28x28"):
        parse_idx_images(buf)


def test_count_mismatch(sample_pair, tmp_path):
    images, _, img_path, _ = sample_pair
    short = tmp_path / "short-labels"
    short.write_bytes(serialize_idx_labels(np.zeros(7, dtype=np.uint8)))
    with pytest.raises(IdxFormatError, match="count mismatch"):
        load_mnist(img_path, short)


def _write_pair(tmp_path, role, digits):
    images = np.arange(len(digits) * 784, dtype=np.int64).reshape(-1, 784) % 256
    img_path = tmp_path / f"{role}-images"
    lab_path = tmp_path / f"{role}-labels"
    img_path.write_bytes(serialize_idx_images(images))
    lab_path.write_bytes(serialize_idx_labels(np.asarray(digits, dtype=np.uint8)))
    return {f"{role}_images": str(img_path), f"{role}_labels": str(lab_path)}


def test_prepare_mnist_fixed_digit_classes(tmp_path):
    train_digits = [7, 0, 5, 1, 9, 2, 3, 4, 6, 5, 8, 0]
    test_digits = [0, 6, 1, 2, 3, 7, 4, 5, 8, 9, 12, 255]
    paths = {**_write_pair(tmp_path, "train", train_digits), **_write_pair(tmp_path, "test", test_digits)}
    train, test = prepare_mnist(paths)
    # digits 6-9 leave the training set; digit d is class d + 1
    kept = [d for d in train_digits if d <= 5]
    assert train.class_count == 6
    assert train.labels.tolist() == [d + 1 for d in kept]
    features, _ = load_mnist(paths["train_images"], paths["train_labels"])
    assert np.array_equal(train.features, features[np.array(train_digits) <= 5])
    # digits 6-9 and label bytes outside 0-9 are outliers
    assert test.ground_truth.tolist() == [1, OUTLIER, 2, 3, 4, OUTLIER, 5, 6] + [OUTLIER] * 4
    assert test.n_rows == len(test_digits)


def test_prepare_mnist_rejects_missing_training_digit(tmp_path):
    paths = {
        **_write_pair(tmp_path, "train", [0, 1, 2, 4, 5, 6, 7]),
        **_write_pair(tmp_path, "test", [0, 3]),
    }
    with pytest.raises(ValueError, match="no training rows of digit 3"):
        prepare_mnist(paths)
