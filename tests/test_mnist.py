import gzip
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from bcops.data import OUTLIER
from bcops.mnist import (
    IMAGES_MAGIC,
    LABELS_MAGIC,
    IdxFormatError,
    load_mnist,
    parse_idx,
    scale_pixels,
    serialize_idx_images,
    serialize_idx_labels,
)
from bcops.forest import ForestConfig
from bcops.sweep import ExperimentConfig, check_inputs, prepare_mnist, run_sweep


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
    pixels, loaded = load_mnist(img_path, lab_path)
    assert pixels.dtype == np.uint8 and np.array_equal(pixels, images)
    features = scale_pixels(pixels)
    assert features.shape == (30, 784)
    assert np.array_equal(loaded, digits)
    assert np.allclose(features * 255.0, images)


def test_load_mnist_returns_read_only_uint8_views(sample_pair):
    # neither array is copied out of the bytes read from its file
    _, _, img_path, lab_path = sample_pair
    for array in load_mnist(img_path, lab_path):
        assert array.dtype == np.uint8
        assert not array.flags.writeable
        base = array
        while isinstance(base, np.ndarray):
            base = base.base
        assert isinstance(base, bytes)


def test_pixels_scaled_to_unit_interval(sample_pair):
    _, _, img_path, lab_path = sample_pair
    features = scale_pixels(load_mnist(img_path, lab_path)[0])
    assert features.min() >= 0.0 and features.max() <= 1.0


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_scaling_chosen_rows_matches_scaling_all(data):
    # scaling is elementwise, so picking rows before or after it gives the
    # same bits, and both match the division of the float64 copy
    shape = data.draw(hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=12))
    pixels = data.draw(hnp.arrays(np.uint8, shape))
    keep = np.array(data.draw(st.lists(st.integers(0, shape[0] - 1), max_size=20)), dtype=np.int64)
    expected = pixels.astype(np.float64)[keep] / 255.0
    for got in (scale_pixels(pixels)[keep], scale_pixels(pixels[keep])):
        assert got.dtype == np.float64 and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()


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


def test_truncated_raw_file_names_the_file(sample_pair, tmp_path):
    _, _, img_path, lab_path = sample_pair
    short = tmp_path / "short-images"
    short.write_bytes(img_path.read_bytes()[:-100])
    size = short.stat().st_size
    with pytest.raises(IdxFormatError) as err:
        load_mnist(short, lab_path)
    assert str(err.value) == (
        f"{short}: truncated file: data ends at byte offset {size}, need {size + 100}"
    )


def test_header_round_trip(sample_pair):
    # re-serializing parsed content reproduces the original bytes, header included
    images, digits, img_path, lab_path = sample_pair
    assert serialize_idx_images(parse_idx(img_path.read_bytes(), IMAGES_MAGIC)) == img_path.read_bytes()
    assert serialize_idx_labels(parse_idx(lab_path.read_bytes(), LABELS_MAGIC)) == lab_path.read_bytes()


def test_bad_image_magic():
    with pytest.raises(IdxFormatError, match="magic.*offset 0"):
        parse_idx(b"\x00\x00\x08\x01" + b"\x00" * 100, IMAGES_MAGIC)


def test_bad_label_magic():
    with pytest.raises(IdxFormatError, match="magic.*offset 0"):
        parse_idx(b"\x00\x00\x08\x03" + b"\x00" * 100, LABELS_MAGIC)


def test_truncated_header():
    with pytest.raises(IdxFormatError, match="offset"):
        parse_idx(b"\x00\x00\x08\x03\x00", IMAGES_MAGIC)


def test_truncated_pixels(sample_pair):
    _, _, img_path, _ = sample_pair
    buf = img_path.read_bytes()[:-10]
    with pytest.raises(IdxFormatError, match="truncated"):
        parse_idx(buf, IMAGES_MAGIC)


def test_truncated_labels():
    buf = serialize_idx_labels(np.arange(10, dtype=np.uint8))[:-3]
    with pytest.raises(IdxFormatError, match="data ends at byte offset 15, need 18"):
        parse_idx(buf, LABELS_MAGIC)


def test_wrong_geometry(sample_pair, tmp_path):
    small = tmp_path / "small-images"
    small.write_bytes(struct.pack(">IIII", 0x00000803, 1, 14, 14) + b"\x00" * (14 * 14))
    with pytest.raises(IdxFormatError) as err:
        load_mnist(small, sample_pair[3])
    assert str(err.value) == f"{small}: expected 28x28 images, got 14x14 at byte offset 8"


def test_count_mismatch(sample_pair, tmp_path):
    images, _, img_path, _ = sample_pair
    short = tmp_path / "short-labels"
    short.write_bytes(serialize_idx_labels(np.zeros(7, dtype=np.uint8)))
    with pytest.raises(IdxFormatError, match="count mismatch") as err:
        load_mnist(img_path, short)
    assert f"30 images in {img_path}" in str(err.value)
    assert f"7 labels in {short}" in str(err.value)


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
    train_pixels, train_labels, test_pixels, truth = prepare_mnist(paths)
    # digits 6-9 leave the training set; digit d is class d + 1
    kept = [d for d in train_digits if d <= 5]
    assert train_labels.max() == 6
    assert train_labels.tolist() == [d + 1 for d in kept]
    pixels, _ = load_mnist(paths["train_images"], paths["train_labels"])
    assert train_pixels.dtype == np.uint8
    assert np.array_equal(train_pixels, pixels[np.array(train_digits) <= 5])
    # digits 6-9 and label bytes outside 0-9 are outliers
    assert truth.tolist() == [1, OUTLIER, 2, 3, 4, OUTLIER, 5, 6] + [OUTLIER] * 4
    assert test_pixels.shape == (len(test_digits), 784)


def test_check_inputs_rejects_missing_training_digit(tmp_path):
    paths = {
        **_write_pair(tmp_path, "train", [0, 1, 2, 4, 5, 6, 7]),
        **_write_pair(tmp_path, "test", [0, 3]),
    }
    # the per-digit count check of check_inputs is the only one
    assert prepare_mnist(paths)[1].tolist() == [1, 2, 3, 5, 6]
    config = ExperimentConfig(experiment="mnist", mnist_paths=paths, mnist_per_class=1)
    with pytest.raises(ValueError, match="mnist_per_class=1 exceeds the 0 training rows of digit 3"):
        check_inputs(config)


def test_check_inputs_peak_stays_near_the_uint8_payload(tmp_path):
    # a float64 copy of either file would take 8 bytes per pixel
    train_digits, test_digits = list(range(10)) * 60, list(range(10)) * 40
    paths = {**_write_pair(tmp_path, "train", train_digits), **_write_pair(tmp_path, "test", test_digits)}
    config = ExperimentConfig(experiment="mnist", mnist_paths=paths, mnist_per_class=10)
    payload = (len(train_digits) + len(test_digits)) * 784
    tracemalloc.start()
    try:
        pools = check_inputs(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pools[2].shape == (len(test_digits), 784)
    assert peak <= 3 * payload, f"check_inputs peaked at {peak} B for {payload} B of pixels"


def test_desk_scale_cell_peak_stays_near_the_test_matrix(tmp_path):
    # MNIST's sizes, 60,000 training and 10,000 test rows: each digit has a
    # random 28x28 prototype, and a row is its prototype plus Gaussian pixel
    # noise of sd 60, clipped to 0..255, as the benchmark's IDX inputs are
    # drawn. The images are written in chunks, so no float copy of a whole
    # file is ever held.
    g = np.random.default_rng(2024)
    prototypes = g.integers(0, 256, size=(10, 784)).astype(np.float64)
    paths = {}
    for role, n in (("train", 60_000), ("test", 10_000)):
        digits = g.permutation(np.repeat(np.arange(10, dtype=np.uint8), n // 10))
        paths[f"{role}_images"] = str(tmp_path / f"{role}-images")
        paths[f"{role}_labels"] = str(tmp_path / f"{role}-labels")
        with open(paths[f"{role}_images"], "wb") as fh:
            fh.write(struct.pack(">IIII", IMAGES_MAGIC, n, 28, 28))
            for d in np.array_split(digits, 12):
                pixels = prototypes[d] + g.normal(0.0, 60.0, size=(d.size, 784))
                fh.write(np.clip(np.rint(pixels), 0, 255).astype(np.uint8).tobytes())
        (tmp_path / f"{role}-labels").write_bytes(serialize_idx_labels(digits))
    config = ExperimentConfig(
        experiment="mnist", mnist_paths=paths, mnist_per_class=500,
        phi_grid=(0.0,), repetitions=1, forest=ForestConfig(n_trees=2, min_node_size=25, max_depth=12),
    )
    test_matrix = 10_000 * 784 * 8  # the scaled test set every cell scores
    tracemalloc.start()
    try:
        rows = run_sweep(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert {r.phi for r in rows} == {0.0}
    assert peak <= 2.6 * test_matrix, f"one cell peaked at {peak / test_matrix:.2f} x the test matrix"
