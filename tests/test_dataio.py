"""Dataset text format, planted generator, and the binary model container."""

import re
import struct
import tracemalloc
import warnings
import zlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import xlc.dataio
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
from xlc.cli import main


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
        # as many ":" as tokens, but not one in each
        ("2 3 2\n0 1:1\n0:1:2 1\n", 3, "bad feature pair '0:1:2'"),
        ("1 2 2\n0 99999999999999999999:1\n", 2,
         "feature index 99999999999999999999 out of range"),
        ("1 2 2\n0,99999999999999999999\n", 2,
         "label index 99999999999999999999 out of range"),
        ("1 2 2\n0,,1\n", 2, "bad label index ''"),
        ("1 2 2\n0 0:\n", 2, "bad feature pair '0:'"),
        ("1 100000000000000000 1\n\n", 1, "cannot allocate the 1x100000000000000000"),
        ("0 100000000000000000000 1\n", 1, "cannot allocate the 0x100000000000000000000"),
        ("1 2 100000000000000000000\n99999999999999999999 0:1\n", None,
         "label index does not fit in 64 bits"),
        ("", None, "empty file"),
        ("1 2 x\n0 0:1\n", 1, "non-integer header field in '1 2 x'"),
        ("1 0 2\n0\n", 1, "header dims must be positive (rows may be 0), got '1 0 2'"),
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


def _line_parser(path):
    """The per-line reference parser: every row line is split, converted
    and checked token by token, and the first error is raised."""
    lines = xlc.dataio._read_text(path, DatasetFormatError).split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise DatasetFormatError(f"{path}: empty file")
    head = lines[0].split()
    if len(head) != 3:
        raise DatasetFormatError(
            f"{path}:1: header must be 'n_rows n_features n_labels', "
            f"got {lines[0]!r}")
    try:
        n_rows, d, p = (int(t) for t in head)
    except ValueError:
        raise DatasetFormatError(f"{path}:1: non-integer header field in {lines[0]!r}")
    if n_rows < 0 or d < 1 or p < 1:
        raise DatasetFormatError(
            f"{path}:1: header dims must be positive (rows may be 0), got {lines[0]!r}")
    if len(lines) - 1 != n_rows:
        raise DatasetFormatError(
            f"{path}: header declares {n_rows} rows but file has {len(lines) - 1}")
    x = np.zeros((n_rows, d))
    lab_rows, lab_cols = [], []
    for i, line in enumerate(lines[1:]):
        lineno = i + 2
        tokens = line.split()
        start = 0
        if tokens and ":" not in tokens[0]:
            prev = -1
            for part in tokens[0].split(","):
                try:
                    idx = int(part)
                except ValueError:
                    raise DatasetFormatError(f"{path}:{lineno}: bad label index {part!r}")
                if not 0 <= idx < p:
                    raise DatasetFormatError(
                        f"{path}:{lineno}: label index {idx} out of range [0, {p})")
                if idx <= prev:
                    raise DatasetFormatError(
                        f"{path}:{lineno}: label indices must be strictly "
                        f"increasing, got {idx} after {prev}")
                prev = idx
                lab_rows.append(i)
                lab_cols.append(idx)
            start = 1
        seen = set()
        for tok in tokens[start:]:
            f, sep, val = tok.partition(":")
            if not sep:
                raise DatasetFormatError(
                    f"{path}:{lineno}: expected feature_index:value, got {tok!r}")
            try:
                j = int(f)
                fv = float(val)
            except ValueError:
                raise DatasetFormatError(f"{path}:{lineno}: bad feature pair {tok!r}")
            if not 0 <= j < d:
                raise DatasetFormatError(
                    f"{path}:{lineno}: feature index {j} out of range [0, {d})")
            if j in seen:
                raise DatasetFormatError(f"{path}:{lineno}: duplicate feature index {j}")
            if not np.isfinite(fv):
                raise DatasetFormatError(
                    f"{path}:{lineno}: non-finite feature value {val!r}")
            seen.add(j)
            x[i, j] = fv
    v = LabelMatrix.from_coo(n_rows, p, np.array(lab_rows, dtype=np.int64),
                             np.array(lab_cols, dtype=np.int64), np.ones(len(lab_rows)))
    return FeatureMatrix(x), v


def _spell(i, style):
    """Spellings of the integer i that int() reads back as i."""
    return (str(i), f"+{i}", f"0{i}", "".join(chr(0x660 + int(c)) for c in str(i)))[style]


_VALUES = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                    st.sampled_from(["1", "-0.0", "1_0.5", "\u0663", "1e-400", "+2"]))
_BAD_TOKENS = ["0:1:2", "0:", ":1", "0", "1,0", ",,", "0,", "7", "1:1", "0:1",
               "0:nan", "0:inf", "0:-inf", "0:1e400", "99999999999999999999:1",
               "-99999999999999999999:1", "0,99999999999999999999", "1_0", "+2",
               "\u0663", "\u0663:1", "1_0:1", "x:1", "0:x", "0,0", "-1",
               "3", "4", "0,4", "3:1", "4:1"]


@st.composite
def _dataset_texts(draw):
    """Well-formed dataset files, spelled in the ways int(), float() and
    str.split() allow, with LF or CRLF line ends, then possibly mutated: a
    token inserted from _BAD_TOKENS, a row blanked, or the header's row
    count off by one."""
    n, d, p = draw(st.integers(0, 6)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rows = []
    for _ in range(n):
        toks = []
        labels = sorted(draw(st.sets(st.integers(0, p - 1))))
        if labels:
            toks.append(",".join(_spell(i, draw(st.integers(0, 3))) for i in labels))
        for j in draw(st.permutations(sorted(draw(st.sets(st.integers(0, d - 1)))))):
            toks.append(f"{_spell(j, draw(st.integers(0, 3)))}:{draw(_VALUES)}")
        rows.append(toks)
    mutation = draw(st.sampled_from(["none", "token", "token", "token", "blank", "count"]))
    if mutation == "token" and rows:
        toks = rows[draw(st.integers(0, n - 1))]
        toks.insert(draw(st.integers(0, len(toks))), draw(st.sampled_from(_BAD_TOKENS)))
    elif mutation == "blank" and rows:
        rows[draw(st.integers(0, n - 1))] = []
    elif mutation == "count":
        n += draw(st.sampled_from([-1, 1]))
    lines = [f"{n} {d} {p}"]
    for toks in rows:
        sep = draw(st.sampled_from([" ", "\t", "  ", "\x0b", " \x0c"]))
        lines.append(draw(st.sampled_from(["", " ", "\t"])) + sep.join(toks)
                     + draw(st.sampled_from(["", "\r", " "])))
    return "\n".join(lines) + draw(st.sampled_from(["\n", ""]))


def _parse_outcome(load, path):
    """Bit patterns of the parsed arrays, or the exception's type and text."""
    try:
        x, v = load(path)
    except Exception as exc:
        return type(exc), str(exc)
    return (x.values.shape, x.values.tobytes(), v.n_rows, v.n_labels, v.entries,
            v.entry_rows.tobytes(), v.entry_cols.tobytes(), v.entry_vals.tobytes())


@settings(max_examples=400, deadline=None)
@given(_dataset_texts(), st.sampled_from([1, 2, 512]))
@example("2 3 2\n0 1:1\n0:1:2 1\n", 512)
@example("3 2 2\n0 0:1\n\n1 0:1 1:2 0:3\n", 2)
@example("1 2 2\n0,2 1:1\n", 512)
@example("1 2 2\n0 2:1\n", 512)
def test_bulk_parser_matches_the_line_parser(tmp_path_factory, text, block_rows):
    path = tmp_path_factory.getbasetemp() / "fuzz.txt"
    path.write_text(text, encoding="utf-8")
    with mock.patch.object(xlc.dataio, "_PARSE_ROWS", block_rows):
        got = _parse_outcome(load_dataset, path)
    assert got == _parse_outcome(_line_parser, path)


def test_load_dataset_peak_memory_stays_below_the_per_token_loop(tmp_path):
    # a file of train-sparse's shape: 3379 rows, 708 labels at 2% density,
    # 32 count features; the per-token loop peaked at 6.8 MiB on it, and
    # tokenizing the whole file at once would cost more than twice that
    rng = np.random.default_rng(0)
    dense = rng.random((3379, 708)) < 0.02
    group = rng.integers(0, 32, size=708)
    x = np.stack([np.bincount(group[np.flatnonzero(row)], minlength=32) for row in dense])
    f = tmp_path / "shape.txt"
    save_dataset(f, FeatureMatrix(x * 1.0), LabelMatrix.from_dense_array(dense * 1.0))
    tracemalloc.start()
    try:
        load_dataset(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6.0 * 2**20


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
    reg = fit_regressor(x, w)
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
    assert c2.regressor.kind == "ridge-linear"
    for key in c.regressor.params:
        got = c2.regressor.params[key]
        assert got.shape == c.regressor.params[key].shape  # the 1-D intercept stays 1-D
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

    path.write_bytes(_model_bytes([(b"label_names", b"on\xe9on")]))
    with pytest.raises(ModelFormatError, match="'label_names' holds non-UTF-8"):
        load_model(path)


def _model_bytes(sections) -> bytes:
    """A version-1 model file holding (name, payload) byte pairs, each
    with its length and a valid CRC."""
    out = b"XLC1" + struct.pack("<II", 1, len(sections))
    for name, payload in sections:
        out += (struct.pack("<H", len(name)) + name
                + struct.pack("<QI", len(payload), zlib.crc32(payload)) + payload)
    return out


def _split_sections(blob: bytes):
    """The (name, payload) byte pairs of a model file, read without load_model."""
    (n,) = struct.unpack_from("<I", blob, 8)
    off, out = 12, []
    for _ in range(n):
        (nlen,) = struct.unpack_from("<H", blob, off)
        (plen,) = struct.unpack_from("<Q", blob, off + 2 + nlen)
        start = off + 2 + nlen + 12
        out.append((blob[off + 2:off + 2 + nlen], blob[start:start + plen]))
        off = start + plen
    assert _model_bytes(out) == blob
    return out


def test_model_rejects_bytes_left_over(tmp_path):
    path = tmp_path / "m.xlc"
    save_model(path, _full_container())
    blob = path.read_bytes()
    path.write_bytes(blob + b"\0")
    with pytest.raises(ModelFormatError, match=r"m\.xlc: 1 bytes left over"):
        load_model(path)
    # a binary section padded under a valid CRC; text runs to its section's end
    sections = _split_sections(blob)
    for i, (name, payload) in enumerate(sections):
        if name in (b"config", b"label_names"):
            continue
        path.write_bytes(_model_bytes(
            sections[:i] + [(name, payload + b"\0\0")] + sections[i + 1:]))
        with pytest.raises(ModelFormatError,
                           match=f"section '{name.decode()}': 2 bytes left over"):
            load_model(path)


@pytest.mark.parametrize("name", [b"config", b"sidecar"])
def test_model_rejects_a_repeated_section(tmp_path, name):
    # the later copy must not silently win, for a known or an unknown name
    path = tmp_path / "m.xlc"
    path.write_bytes(_model_bytes([(name, b"k=3"), (name, b"k=4")]))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # the skipped unknown section's warning
        with pytest.raises(ModelFormatError,
                           match=f"section '{name.decode()}' appears twice"):
            load_model(path)


def test_model_rejects_a_repeated_config_key(tmp_path):
    # the later value must not silently win, as for sections and parameters
    path = tmp_path / "m.xlc"
    path.write_bytes(_model_bytes([(b"config", b"k=3\nk=4")]))
    with pytest.raises(ModelFormatError, match="key 'k' appears twice in section 'config'"):
        load_model(path)


def test_model_cut_at_any_byte_raises_model_format_error(tmp_path):
    # the file cut at every byte, then each section payload cut at every
    # byte under a recomputed length and CRC: never a raw struct, numpy or
    # index error. Config and label-name text may end anywhere, so a cut
    # there may also load; every binary section's cut is a format error.
    c = _full_container()
    c.label_names = [f"{n}\u00b7\u00e9" for n in c.label_names]  # 2-byte characters
    path = tmp_path / "m.xlc"
    save_model(path, c)
    blob = path.read_bytes()
    for end in range(len(blob)):
        path.write_bytes(blob[:end])
        with pytest.raises(ModelFormatError):
            load_model(path)
    sections = _split_sections(blob)
    for i, (name, payload) in enumerate(sections):
        for end in range(len(payload)):
            path.write_bytes(_model_bytes(
                sections[:i] + [(name, payload[:end])] + sections[i + 1:]))
            if name in (b"config", b"label_names"):
                try:
                    load_model(path)
                except ModelFormatError:
                    pass
            else:
                with pytest.raises(ModelFormatError):
                    load_model(path)


def _regressor_file(path, kind_code, params):
    """Write a model file whose one section is a regressor payload with a
    valid CRC, built from (name, ndim tag, stored 2-D array) triples."""
    payload = struct.pack("<BII", kind_code, 3, 2) + struct.pack("<I", len(params))
    for name, ndim, a in params:
        raw = name.encode("utf-8")
        payload += (struct.pack("<H", len(raw)) + raw + struct.pack("<B", ndim)
                    + struct.pack("<II", *a.shape) + a.astype("<f8").tobytes())
    path.write_bytes(_model_bytes([(b"regressor", payload)]))


def test_regressor_section_missing_a_parameter_of_its_kind(tmp_path, capsys):
    # a ridge regressor holds exactly intercept and theta: a missing or an
    # extra name, or the retired kind code 1, is a one-line format error
    path = tmp_path / "m.xlc"
    intercept, theta = ("intercept", 1, np.ones((1, 2))), ("theta", 2, np.ones((3, 2)))
    for code, params, match in [
            (0, [intercept], r"ridge-linear parameters must be intercept and theta, "
                             r"got \['intercept'\]"),
            (0, [intercept, theta, ("w1", 2, np.ones((3, 4)))],
             r"got \['intercept', 'theta', 'w1'\]"),
            (1, [intercept, theta], "holds an mlp-1hidden model, which xlc no longer reads"),
            (7, [intercept, theta], "holds unknown kind code 7$")]:
        _regressor_file(path, code, params)
        with pytest.raises(ModelFormatError, match=match):
            load_model(path)
        assert main(["predict", "--model", str(path), "--data", str(tmp_path / "d.txt")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: section 'regressor'") and err.count("\n") == 1
    _regressor_file(path, 0, [intercept, theta])
    assert load_model(path).regressor.kind == "ridge-linear"
    # a weight matrix stored as a vector fails its shape check
    _regressor_file(path, 0, [intercept, ("theta", 1, np.ones((1, 6)))])
    with pytest.raises(ModelFormatError,
                       match=r"^section 'regressor': theta must have shape \(3, 2\), "
                             r"got shape \(6,\)$"):
        load_model(path)


@pytest.mark.parametrize("rows, tag", [(0, 1), (2, 1), (1, 0), (1, 3)])
def test_regressor_section_with_a_bad_dimension_tag(tmp_path, rows, tag):
    # a 1-D parameter is stored as exactly one row; 0 rows cannot be read
    # and from 2 rows the reader would keep only the first
    path = tmp_path / "m.xlc"
    _regressor_file(path, 0, [("intercept", tag, np.ones((rows, 2))),
                              ("theta", 2, np.ones((3, 2)))])
    with pytest.raises(ModelFormatError,
                       match=f"parameter 'intercept' in section 'regressor' is tagged "
                             f"{tag}-D but stored as {rows}x2"):
        load_model(path)


@pytest.mark.parametrize("name", ["intercept", "theta"])
def test_regressor_section_with_a_non_finite_parameter(tmp_path, name):
    path = tmp_path / "m.xlc"
    params = {"intercept": np.ones((1, 2)), "theta": np.ones((3, 2))}
    params[name][0, 1] = np.inf
    _regressor_file(path, 0, [("intercept", 1, params["intercept"]),
                              ("theta", 2, params["theta"])])
    with pytest.raises(ModelFormatError, match=f"^section 'regressor': {name} must be finite, "
                                               f"got a non-finite entry in shape"):
        load_model(path)


def test_regressor_section_repeats_a_parameter(tmp_path):
    path = tmp_path / "m.xlc"
    _regressor_file(path, 0, [("intercept", 1, np.ones((1, 2))),
                              ("intercept", 1, np.zeros((1, 2))),
                              ("theta", 2, np.ones((3, 2)))])
    with pytest.raises(ModelFormatError,
                       match="parameter 'intercept' appears twice in section 'regressor'"):
        load_model(path)


def test_encoder_section_with_a_width_zero_layer(tmp_path):
    # depth 1, one 3x0 layer, an empty trace: well formed, but not a stack
    payload = struct.pack("<I", 1) + struct.pack("<II", 3, 0) + struct.pack("<Q", 0)
    path = tmp_path / "m.xlc"
    path.write_bytes(_model_bytes([(b"encoder", payload)]))
    with pytest.raises(ModelFormatError,
                       match=r"^section 'encoder': layer widths \[0\] .* be >= 1"):
        load_model(path)


@pytest.mark.parametrize("trace", [[np.nan], [1.0, np.inf], [-1.0], [np.nan, 5.0],
                                   [np.inf, 1.0]])
@pytest.mark.parametrize("section", [b"encoder", b"nmf"])
def test_section_with_a_bad_trace_entry(tmp_path, section, trace):
    # training never records such an entry (a non-finite loss raises
    # TrainingDivergedError, and every residual is >= 0), so a model file
    # holding one is refused as a format error, as a bad regressor is
    trace_bytes = struct.pack("<Q", len(trace)) + np.asarray(trace, dtype="<f8").tobytes()
    one = struct.pack("<II", 1, 1) + struct.pack("<d", 1.0)
    two = struct.pack("<II", 2, 1) + struct.pack("<2d", 1.0, 1.0)
    payload = (struct.pack("<I", 1) + two if section == b"encoder" else two + one) + trace_bytes
    path = tmp_path / "m.xlc"
    path.write_bytes(_model_bytes([(section, payload)]))
    with pytest.raises(ModelFormatError, match=f"^section '{section.decode()}': "
                       r"trace entry must be (a finite number|>= 0)"):
        load_model(path)


def _stored(*mats, trace=()) -> bytes:
    """Matrices and a trace in the container's payload layout."""
    out = b""
    for a in mats:
        a = np.asarray(a, dtype="<f8")
        out += struct.pack("<II", *a.shape) + a.tobytes()
    return out + struct.pack("<Q", len(trace)) + np.asarray(trace, dtype="<f8").tobytes()


@pytest.mark.parametrize("section, payload, message", [
    (b"encoder", struct.pack("<I", 1) + _stored([[np.nan], [1.0]]),
     "values must be finite, got a non-finite entry in shape (2, 1)"),
    (b"encoder", struct.pack("<I", 1) + _stored([[-1.0], [1.0]]),
     "layer 1 has a negative entry"),
    (b"encoder", struct.pack("<I", 2) + _stored(np.ones((3, 2)), np.ones((3, 1))),
     "layer 2 is 3x1 but layer 1 has 2 columns"),
    (b"nmf", _stored([[-1.0]], [[1.0]], trace=[1.0]), "NMF factors must be entrywise >= 0"),
    (b"nmf", _stored([[1.0]], [[1.0]], trace=[1.0, 2.0]),
     "objective trace increases at step 1: 1 -> 2"),
    (b"nmf", _stored(np.ones((2, 2)), np.ones((3, 2)), trace=[1.0]), "W is 2x2 but H is 3x2"),
], ids=["encoder-nan", "encoder-negative", "encoder-chain", "nmf-negative", "nmf-rising-trace",
        "nmf-chain"])
def test_every_refused_section_is_a_format_error(tmp_path, section, payload, message):
    # each of these used to escape as the constructor's own XlcError,
    # ShapeMismatchError or NonNegativityError, naming no section
    path = tmp_path / "m.xlc"
    path.write_bytes(_model_bytes([(section, payload)]))
    with pytest.raises(ModelFormatError, match=f"^section '{section.decode()}': "
                                               f"{re.escape(message)}$") as exc:
        load_model(path)
    assert type(exc.value) is ModelFormatError


def test_config_rejects_unserializable_keys(tmp_path):
    with pytest.raises(ConfigError):
        save_model(tmp_path / "m.xlc", ModelContainer(config={"a=b": "1"}))
