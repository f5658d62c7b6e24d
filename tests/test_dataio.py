"""Dataset text format, planted generator, and the binary model container."""

import struct
import zlib

import numpy as np
import pytest

from xlc import (
    AeTrainConfig,
    ConfigError,
    DatasetFormatError,
    DenseMatrix,
    FeatureMatrix,
    LabelMatrix,
    ModelContainer,
    ModelFormatError,
    NmfConfig,
    fit_regressor,
    load_dataset,
    load_label_names,
    load_model,
    make_block_dataset,
    make_rng,
    nmf_factorize,
    save_dataset,
    save_label_names,
    save_model,
    train_autoencoder,
)


# ---------------------------------------------------------------- datasets


def test_load_dataset_hand_parse(tmp_path):
    f = tmp_path / "d.txt"
    f.write_text("2 3 4\n0,2 0:1.0 2:0.5\n 1:2.0\n")
    x, v = load_dataset(f)
    assert (x.rows, x.cols) == (2, 3)
    assert (v.n_rows, v.n_labels) == (2, 4)
    assert x.values.tolist() == [[1.0, 0.0, 0.5], [0.0, 2.0, 0.0]]
    assert v.entries == [(0, 0, 1.0), (0, 2, 1.0)]


def test_load_dataset_corpus_scale_header(tmp_path):
    # rows may be entirely empty: no labels, no features
    f = tmp_path / "big.txt"
    f.write_text("3379 512 708\n" + "\n" * 3379)
    x, v = load_dataset(f)
    assert (x.rows, x.cols) == (3379, 512)
    assert (v.n_rows, v.n_labels) == (3379, 708)
    assert v.nnz == 0


@pytest.mark.parametrize(
    "body, lineno, fragment",
    [
        ("bad header\n", 1, "header"),
        ("1 2\n0 0:1\n", 1, "header"),
        ("1 2 2\n5 0:1\n", 2, "label index 5"),
        ("1 2 2\n1,0 0:1\n", 2, "strictly increasing"),
        ("1 2 2\n0 7:1\n", 2, "feature index 7"),
        ("1 2 2\n0 0:1 0:2\n", 2, "duplicate feature index 0"),
        ("1 2 2\n0 0:nan\n", 2, "non-finite"),
        ("1 2 2\n0 0:x\n", 2, "bad feature pair"),
        ("2 2 2\n0 0:1\n", None, "declares 2 rows"),
    ],
)
def test_load_dataset_errors_carry_line_numbers(tmp_path, body, lineno, fragment):
    f = tmp_path / "bad.txt"
    f.write_text(body)
    with pytest.raises(DatasetFormatError) as exc:
        load_dataset(f)
    msg = str(exc.value)
    assert fragment in msg
    if lineno is not None:
        assert f":{lineno}:" in msg


def test_save_dataset_round_trip_and_stable_bytes(tmp_path):
    x, v, _ = make_block_dataset(blocks=3, rows=20, labels_per_block=4,
                                 noise=0.1, seed=5)
    f1, f2 = tmp_path / "a.txt", tmp_path / "b.txt"
    save_dataset(f1, x, v)
    x2, v2 = load_dataset(f1)
    np.testing.assert_array_equal(x.values, x2.values)
    assert v.entries == v2.entries
    save_dataset(f2, x2, v2)
    assert f1.read_bytes() == f2.read_bytes()


def test_save_dataset_preserves_fractional_values(tmp_path):
    x = FeatureMatrix(np.array([[0.1, 0.0], [0.0, 1.0 / 3.0]]))
    v = LabelMatrix(2, 2, [(0, 0, 1.0)])
    f = tmp_path / "frac.txt"
    save_dataset(f, x, v)
    x2, _ = load_dataset(f)
    np.testing.assert_array_equal(x.values, x2.values)


def test_label_names_round_trip(tmp_path):
    names = ["garlic", "onion", "chicken stock"]
    f = tmp_path / "names.txt"
    save_label_names(f, names)
    assert load_label_names(f) == names


def test_label_names_reject_newlines(tmp_path):
    # and names UTF-8 cannot encode (a lone surrogate), in both writers
    for bad in ("bad\nname", "a\udcff"):
        with pytest.raises(ConfigError, match="label name"):
            save_label_names(tmp_path / "n.txt", ["ok", bad])
        with pytest.raises(ConfigError, match="label name"):
            save_model(tmp_path / "m.xlc", ModelContainer(label_names=["ok", bad]))
    assert not (tmp_path / "n.txt").exists() and not (tmp_path / "m.xlc").exists()


def test_load_dataset_rejects_non_utf8_bytes(tmp_path):
    f = tmp_path / "d.txt"
    f.write_bytes(b"1 2 3\n0 0:1.0 1:\xff\n")
    with pytest.raises(DatasetFormatError, match="d.txt: not UTF-8"):
        load_dataset(f)


def test_load_label_names_rejects_non_utf8_bytes(tmp_path):
    f = tmp_path / "names.txt"
    f.write_bytes(b"garlic\non\xe9on\n")
    with pytest.raises(DatasetFormatError, match="names.txt: not UTF-8"):
        load_label_names(f)


# ---------------------------------------------------------------- generator


def test_make_block_dataset_shapes_and_noise_zero():
    x, v, names = make_block_dataset(blocks=4, rows=50, labels_per_block=10,
                                     noise=0.0, seed=42)
    assert (x.rows, x.cols) == (50, 4)
    assert (v.n_rows, v.n_labels) == (50, 40)
    assert len(names) == 40
    dense = np.asarray(v.to_csr().todense())
    # noise 0: each row carries exactly its block's 10 labels
    blocks = np.argmax(x.values, axis=1)
    for i in range(50):
        b = blocks[i]
        expected = np.zeros(40)
        expected[b * 10 : (b + 1) * 10] = 1.0
        np.testing.assert_array_equal(dense[i], expected)


def _block_dataset_reference(blocks, rows, labels_per_block, noise, seed):
    """The generator's stream, drawn one row at a time: block indices,
    then p uniforms per row, each below noise flipping that label."""
    p = blocks * labels_per_block
    rng = make_rng(seed)
    block_of = rng.integers(0, blocks, size=rows)
    dense = np.zeros((rows, p))
    for i in range(rows):
        b = int(block_of[i])
        base = np.zeros(p)
        base[b * labels_per_block:(b + 1) * labels_per_block] = 1.0
        flips = rng.random(p) < noise
        dense[i] = np.where(flips, 1.0 - base, base)
    return block_of, dense


def test_make_block_dataset_deterministic_and_noise_flips_bits():
    x1, v1, _ = make_block_dataset(4, 30, 5, noise=0.2, seed=3)
    x2, v2, _ = make_block_dataset(4, 30, 5, noise=0.2, seed=3)
    np.testing.assert_array_equal(x1.values, x2.values)
    assert v1.entries == v2.entries
    block_of, dense = _block_dataset_reference(4, 30, 5, noise=0.2, seed=3)
    np.testing.assert_array_equal(x1.values, np.eye(4)[block_of])
    np.testing.assert_array_equal(np.asarray(v1.to_csr().todense()), dense)
    _, v3, _ = make_block_dataset(4, 30, 5, noise=0.2, seed=4)
    assert v1.entries != v3.entries


def test_make_block_dataset_validation():
    with pytest.raises(ConfigError):
        make_block_dataset(0, 10, 5, noise=0.0)
    with pytest.raises(ConfigError):
        make_block_dataset(2, 10, 5, noise=0.5)


# ---------------------------------------------------------------- container


def _full_container():
    x, v, names = make_block_dataset(blocks=2, rows=24, labels_per_block=4,
                                     noise=0.0, seed=1)
    stack = train_autoencoder(v, AeTrainConfig(layer_dims=[4, 2], max_epochs=40,
                                               seed=0))
    from xlc import encode

    w = encode(v, stack)
    reg = fit_regressor(x, w, kind="mlp-1hidden",
                        hyperparams={"hidden": 8, "max_epochs": 50}, seed=2)
    factors = nmf_factorize(v, NmfConfig(k=3, seed=9, max_iters=50))
    return ModelContainer(encoder=stack, regressor=reg,
                          config={"ae_dims": "4,2", "seed": "0"},
                          label_names=names, nmf=factors)


def test_model_round_trip_bitwise(tmp_path):
    c = _full_container()
    path = tmp_path / "m.xlc"
    save_model(path, c)
    c2 = load_model(path)
    for h1, h2 in zip(c.encoder.layers, c2.encoder.layers):
        np.testing.assert_array_equal(h1.values, h2.values)
    assert c.encoder.training_trace == c2.encoder.training_trace
    assert c2.regressor.kind == "mlp-1hidden"
    for key in c.regressor.params:
        got = c2.regressor.params[key]
        assert got.shape == c.regressor.params[key].shape  # 1-D biases stay 1-D
        np.testing.assert_array_equal(got, c.regressor.params[key])
    assert c2.config == c.config
    assert c2.label_names == c.label_names
    np.testing.assert_array_equal(c.nmf.w.values, c2.nmf.w.values)
    np.testing.assert_array_equal(c.nmf.h.values, c2.nmf.h.values)
    assert list(c2.nmf.objective_trace) == list(c.nmf.objective_trace)


def test_model_save_load_save_is_byte_identical(tmp_path):
    c = _full_container()
    p1, p2 = tmp_path / "m1.xlc", tmp_path / "m2.xlc"
    save_model(p1, c)
    save_model(p2, load_model(p1))
    assert p1.read_bytes() == p2.read_bytes()


def test_model_partial_container_round_trips(tmp_path):
    c = ModelContainer(config={"k": "3"})
    path = tmp_path / "cfg.xlc"
    save_model(path, c)
    c2 = load_model(path)
    assert c2.config == {"k": "3"}
    assert c2.encoder is None and c2.regressor is None and c2.nmf is None


def test_model_tamper_names_checksum_error(tmp_path):
    c = _full_container()
    path = tmp_path / "m.xlc"
    save_model(path, c)
    blob = bytearray(path.read_bytes())
    at = bytes(blob).index(b"block0_label0")
    blob[at] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(ModelFormatError) as exc:
        load_model(path)
    assert "label_names" in str(exc.value)
    assert "checksum" in str(exc.value)


def test_model_bad_magic(tmp_path):
    path = tmp_path / "m.xlc"
    save_model(path, _full_container())
    blob = bytearray(path.read_bytes())
    blob[:4] = b"NOPE"
    path.write_bytes(bytes(blob))
    with pytest.raises(ModelFormatError) as exc:
        load_model(path)
    assert "magic" in str(exc.value)


def test_model_future_version_rejected(tmp_path):
    path = tmp_path / "m.xlc"
    save_model(path, _full_container())
    blob = bytearray(path.read_bytes())
    struct.pack_into("<I", blob, 4, 99)
    path.write_bytes(bytes(blob))
    with pytest.raises(ModelFormatError) as exc:
        load_model(path)
    assert "version 99" in str(exc.value)


def test_model_truncation_rejected(tmp_path):
    path = tmp_path / "m.xlc"
    save_model(path, _full_container())
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(ModelFormatError) as exc:
        load_model(path)
    assert "truncated" in str(exc.value) or "checksum" in str(exc.value)


def test_model_unknown_section_skipped_with_warning(tmp_path):
    path = tmp_path / "m.xlc"
    save_model(path, ModelContainer(config={"k": "3"}))
    blob = bytearray(path.read_bytes())
    n_sections = struct.unpack_from("<I", blob, 8)[0]
    struct.pack_into("<I", blob, 8, n_sections + 1)
    name = b"sidecar"
    payload = b"\x01\x02\x03"
    extra = (struct.pack("<H", len(name)) + name
             + struct.pack("<QI", len(payload), zlib.crc32(payload)) + payload)
    path.write_bytes(bytes(blob) + extra)
    with pytest.warns(UserWarning, match="sidecar"):
        c = load_model(path)
    assert c.config == {"k": "3"}


def test_model_non_utf8_section_name_or_text_rejected(tmp_path):
    # no CRC covers a section name, so one flipped byte there reaches the
    # decoder; a text payload with a matching CRC must fail the same way
    path = tmp_path / "m.xlc"
    save_model(path, ModelContainer(config={"k": "3"}))
    blob = bytearray(path.read_bytes())
    blob[blob.index(b"config")] ^= 0x80
    path.write_bytes(bytes(blob))
    with pytest.raises(ModelFormatError, match="section name .* not UTF-8"):
        load_model(path)

    name, payload = b"label_names", b"on\xe9on"
    path.write_bytes(b"XLC1" + struct.pack("<II", 1, 1)
                     + struct.pack("<H", len(name)) + name
                     + struct.pack("<QI", len(payload), zlib.crc32(payload)) + payload)
    with pytest.raises(ModelFormatError, match="'label_names' holds non-UTF-8"):
        load_model(path)


def test_config_rejects_unserializable_keys(tmp_path):
    with pytest.raises(ConfigError):
        save_model(tmp_path / "m.xlc", ModelContainer(config={"a=b": "1"}))
