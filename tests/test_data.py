import hashlib
import re
import struct
import tracemalloc

import numpy as np
import pytest

from bakekit import data as dt
from bakekit.errors import ConfigError, DataFormatError


def write_idx_pair(tmp_path, images, labels):
    """Serialize uint8 images (N, rows, cols) and labels (N,) as IDX files."""
    images = np.asarray(images, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    img_path, lbl_path = tmp_path / "imgs.idx", tmp_path / "lbls.idx"
    with open(img_path, "wb") as f:
        f.write(struct.pack(">IIII", 0x00000803, *images.shape))
        f.write(images.tobytes())
    with open(lbl_path, "wb") as f:
        f.write(struct.pack(">II", 0x00000801, labels.shape[0]))
        f.write(labels.tobytes())
    return img_path, lbl_path


class TestSynthClusters:
    def test_near_zero_spread_is_separable(self):
        train, test = dt.synth_clusters(4, 20, 8, spread=1e-9, seed=0)
        for c, ids in train.class_index.items():
            block = train.inputs[ids]
            assert np.abs(block - block[0]).max() < 1e-6

    def test_seed_determinism(self):
        a_train, a_test = dt.synth_clusters(3, 10, 5, 1.0, seed=42)
        b_train, b_test = dt.synth_clusters(3, 10, 5, 1.0, seed=42)
        assert a_train.inputs.tobytes() == b_train.inputs.tobytes()
        assert a_test.inputs.tobytes() == b_test.inputs.tobytes()
        assert np.array_equal(a_train.labels, b_train.labels)

    def test_class_index_bookkeeping(self):
        train, _ = dt.synth_clusters(10, 100, 4, 1.0, seed=1)
        assert len(train.class_index) == 10
        assert all(len(ids) == 100 for ids in train.class_index.values())

    def test_train_test_disjoint(self):
        train, test = dt.synth_clusters(2, 10, 3, 1.0, seed=2)
        train_rows = {row.tobytes() for row in train.inputs}
        assert all(row.tobytes() not in train_rows for row in test.inputs)

    def test_invalid_parameters(self):
        with pytest.raises(ConfigError):
            dt.synth_clusters(0, 10, 3, 1.0, seed=0)
        with pytest.raises(ConfigError):
            dt.synth_clusters(2, 10, 3, -1.0, seed=0)
        for spread in (float("nan"), float("inf")):
            with pytest.raises(ConfigError, match=f"spread={spread}"):
                dt.synth_clusters(2, 10, 3, spread, seed=0)

    def test_spread_beyond_float32_is_refused(self):
        # finite in float64, but the draws round to inf in the float32 inputs
        with pytest.raises(ConfigError, match=r"synth spread 1e\+39 draws inputs beyond float32's range"):
            dt.synth_clusters(4, 20, 8, 1e39, seed=0)
        train, _ = dt.synth_clusters(4, 20, 8, 1e30, seed=0)
        assert np.isfinite(train.inputs).all()


class TestLoadIdx:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, size=(7, 4, 5), dtype=np.uint8)
        labels = rng.integers(0, 10, size=7, dtype=np.uint8)
        ds = dt.load_idx(*write_idx_pair(tmp_path, images, labels))
        assert len(ds) == 7
        assert ds.input_dim == 20
        assert ds.inputs.min() >= 0.0 and ds.inputs.max() <= 1.0
        assert np.array_equal(ds.labels, labels)
        assert np.abs(ds.inputs * 255 - images.reshape(7, 20)).max() < 1e-4

    def test_bad_magic(self, tmp_path):
        img, lbl = write_idx_pair(tmp_path, np.zeros((1, 2, 2)), [0])
        blob = bytearray(img.read_bytes())
        blob[3] = 0x42
        img.write_bytes(bytes(blob))
        with pytest.raises(DataFormatError, match="magic"):
            dt.load_idx(img, lbl)

    def test_truncated_payload_reports_counts(self, tmp_path):
        img, lbl = write_idx_pair(tmp_path, np.zeros((3, 2, 2)), [0, 1, 2])
        img.write_bytes(img.read_bytes()[:-5])
        with pytest.raises(DataFormatError, match="7 bytes.*implies 12"):
            dt.load_idx(img, lbl)

    @pytest.mark.parametrize("which", ["images", "labels"])
    def test_truncated_header(self, tmp_path, which):
        img, lbl = write_idx_pair(tmp_path, np.zeros((1, 2, 2)), [0])
        path = {"images": img, "labels": lbl}[which]
        path.write_bytes(path.read_bytes()[:7])
        with pytest.raises(DataFormatError, match=f"{path.name}: truncated IDX header"):
            dt.load_idx(img, lbl)

    def test_short_label_payload_reports_counts(self, tmp_path):
        img, lbl = write_idx_pair(tmp_path, np.zeros((3, 2, 2)), [0, 1, 2])
        lbl.write_bytes(lbl.read_bytes()[:-1])
        with pytest.raises(DataFormatError, match=f"{lbl.name}: payload has 2 bytes, header implies 3"):
            dt.load_idx(img, lbl)

    def test_count_mismatch(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        img, _ = write_idx_pair(tmp_path / "a", np.zeros((3, 2, 2)), [0, 1, 2])
        _, lbl = write_idx_pair(tmp_path / "b", np.zeros((2, 2, 2)), [0, 1])
        with pytest.raises(DataFormatError, match="count"):
            dt.load_idx(img, lbl)

    def test_shape_and_class_count_come_from_the_files(self, tmp_path):
        ds = dt.load_idx(*write_idx_pair(tmp_path, np.zeros((3, 2, 5)), [0, 6, 2]))
        assert (ds.image_shape, ds.num_classes) == ((1, 2, 5), 7)

    def test_no_examples(self, tmp_path):
        img, lbl = write_idx_pair(tmp_path, np.zeros((0, 2, 2)), [])
        with pytest.raises(DataFormatError, match=f"{img.name}: holds no examples"):
            dt.load_idx(img, lbl)

    @pytest.mark.parametrize("rows,cols", [(0, 5), (5, 0)])
    def test_zero_pixel_images(self, tmp_path, rows, cols):
        img, lbl = write_idx_pair(tmp_path, np.zeros((8, rows, cols)), np.arange(8) % 4)
        with pytest.raises(DataFormatError, match=f"{img.name}: its {rows}x{cols} images hold no pixels"):
            dt.load_idx(img, lbl)

    def test_loader_determinism(self, tmp_path):
        rng = np.random.default_rng(1)
        pair = write_idx_pair(
            tmp_path,
            rng.integers(0, 256, size=(4, 3, 3), dtype=np.uint8),
            rng.integers(0, 10, size=4, dtype=np.uint8),
        )
        assert dt.load_idx(*pair).inputs.tobytes() == dt.load_idx(*pair).inputs.tobytes()


class TestLoadCifarBinary:
    def _write_records(self, path, labels, fine_labels=None, seed=0):
        """One record of random pixels per label (after its fine label under CIFAR-100); returns them as uint8 rows."""
        columns = [labels] if fine_labels is None else [labels, fine_labels]
        pixels = np.random.default_rng(seed).integers(0, 256, size=(len(labels), 3072))
        raw = np.column_stack([*columns, pixels]).astype(np.uint8)
        raw.tofile(path)
        return raw

    def test_single_record_scaled(self, tmp_path):
        path = tmp_path / "batch.bin"
        self._write_records(path, [3])
        ds = dt.load_cifar_binary([path])
        assert (len(ds), ds.num_classes) == (1, 10)
        assert (ds.input_dim, ds.image_shape) == (3072, (3, 32, 32))
        assert ds.labels[0] == 3

    def test_hundred_class_uses_fine_label(self, tmp_path):
        path = tmp_path / "train.bin"
        self._write_records(path, [5, 7], fine_labels=[42, 99])
        ds = dt.load_cifar_binary([path])
        assert ds.num_classes == 100
        assert np.array_equal(ds.labels, [42, 99])

    def test_channel_normalization(self, tmp_path):
        # a record is three planes of 1024 pixels; plane c is normalised by the layout's c-th (mean, std)
        values = (0, 128, 255)
        for k_classes, label in ((10, [3]), (100, [1, 42])):
            path = tmp_path / f"{k_classes}.bin"
            path.write_bytes(bytes(label) + np.repeat(np.array(values, dtype=np.uint8), 1024).tobytes())
            ds = dt.load_cifar_binary([path])
            assert ds.num_classes == k_classes
            planes = ds.inputs.reshape(3, 1024)
            for plane, value, mean, std in zip(planes, values, *dt.CIFAR_CHANNEL_STATS[k_classes]):
                np.testing.assert_allclose(plane, (value / 255 - mean) / std, rtol=1e-6, atol=1e-6)

    @pytest.mark.parametrize("k_classes", [10, 100])
    def test_inputs_are_the_reference_normalisation_bit_for_bit(self, tmp_path, k_classes):
        labels = np.arange(9)
        raw = self._write_records(tmp_path / "batch.bin", labels, labels * 11 if k_classes == 100 else None, k_classes)
        lb = dt.CIFAR_LABEL_BYTES[k_classes]
        mean, std = (np.repeat(np.asarray(row, dtype=np.float32), 1024) for row in dt.CIFAR_CHANNEL_STATS[k_classes])
        expected = ((raw[:, lb:].astype(np.float32) / 255.0) - mean) / std
        ds = dt.load_cifar_binary([tmp_path / "batch.bin"])
        assert ds.inputs.dtype == np.float32 and ds.inputs.tobytes() == expected.tobytes()
        assert np.array_equal(ds.labels, raw[:, lb - 1])

    @pytest.mark.parametrize("k_classes", [10, 100])
    def test_several_files_load_as_their_concatenation(self, tmp_path, k_classes):
        paths = [tmp_path / f"{i}.bin" for i in range(3)]
        for i, (path, records) in enumerate(zip(paths, (5, 1, 3))):
            labels = np.arange(records) + i
            self._write_records(path, labels, labels * 11 if k_classes == 100 else None, seed=i)
        alone = [dt.load_cifar_binary([path]) for path in paths]
        joined = dt.load_cifar_binary(paths)
        assert joined.inputs.tobytes() == np.concatenate([ds.inputs for ds in alone]).tobytes()
        assert joined.labels.tobytes() == np.concatenate([ds.labels for ds in alone]).tobytes()
        assert (joined.num_classes, joined.image_shape) == (k_classes, (3, 32, 32))

    def test_peak_memory_is_near_the_inputs(self, tmp_path):
        # one float32 array per split: the bytes read add about a quarter, not another copy of the inputs
        paths = [tmp_path / "a.bin", tmp_path / "b.bin"]
        for i, path in enumerate(paths):
            self._write_records(path, np.arange(500) % 20, np.arange(500) % 100, seed=i)
        tracemalloc.start()
        try:
            ds = dt.load_cifar_binary(paths)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * ds.inputs.nbytes, peak / ds.inputs.nbytes

    def test_label_out_of_range(self, tmp_path):
        path = tmp_path / "batch.bin"
        self._write_records(path, [3, 10])
        with pytest.raises(DataFormatError, match=r"label 10 outside \[0, 10\)"):
            dt.load_cifar_binary([path])

    @pytest.mark.parametrize("fit", ["neither", "both"])
    def test_only_the_two_record_layouts(self, tmp_path, fit):
        if fit == "neither":  # each file has a layout, but not the same one
            paths = [tmp_path / "c10.bin", tmp_path / "c100.bin"]
            self._write_records(paths[0], [3, 9])
            self._write_records(paths[1], [5, 7], fine_labels=[42, 99])
        else:  # 3073 * 3074 bytes are whole records of either layout
            paths = [tmp_path / "both.bin"]
            paths[0].write_bytes(bytes(3073 * 3074))
        sizes = [path.stat().st_size for path in paths]
        with pytest.raises(DataFormatError, match=re.escape(f"sizes {sizes} fit {fit} of the CIFAR record sizes 3073")):
            dt.load_cifar_binary(paths)

    def test_wrong_record_stride(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\x00" * 3000)
        with pytest.raises(DataFormatError, match="record size"):
            dt.load_cifar_binary([path])


class TestDatasetInvariants:
    def test_class_index_round_trip(self):
        train, _ = dt.synth_clusters(5, 12, 4, 1.0, seed=3)
        rebuilt = dt.build_class_index(train.labels)
        assert {c: ids.tolist() for c, ids in rebuilt.items()} == {
            c: ids.tolist() for c, ids in train.class_index.items()
        }

    def test_out_of_range_label_rejected(self):
        with pytest.raises(DataFormatError):
            dt.Dataset(np.zeros((2, 3)), np.array([0, 5]), num_classes=3)
        with pytest.raises(DataFormatError, match=r"label -1 outside \[0, 3\)"):
            dt.Dataset(np.zeros((2, 3)), np.array([-1, 2]), num_classes=3)

    def test_fingerprint_of_a_strided_view_hashes_its_bytes(self):
        rng = np.random.default_rng(4)
        inputs = rng.normal(size=(6, 10)).astype(np.float32)[::2, ::3]
        labels = (np.arange(12, dtype=np.int64) % 3)[::4]
        assert not inputs.flags.c_contiguous and not labels.flags.c_contiguous
        dataset = dt.Dataset(inputs, labels, num_classes=3)
        expected = hashlib.sha256(inputs.tobytes() + labels.tobytes()).hexdigest()
        assert dataset.fingerprint() == expected
