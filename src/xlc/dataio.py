"""Dataset files, the binary model container, and the planted generator.

Dataset text format: a header line "n_rows n_features n_labels", then one
line per instance: a comma-separated list of label indices (strictly
increasing, may be empty), followed by whitespace-separated
feature_index:value pairs. Indices and values are read by Python's int()
and float(). An optional sidecar file carries one label name per line.

Model container: magic "XLC1", a format version, then named sections
(encoder stack, regressor, config, label names, NMF factors), each with
its own CRC-32. All integers and floats are little-endian; matrix
payloads are row-major 64-bit floats, so round-trips are bitwise exact.
"""

from __future__ import annotations

import struct
import warnings
import zlib
from itertools import repeat
from operator import contains

import numpy as np

from .autoencoder import EncoderStack
from .errors import ConfigError, DatasetFormatError, ModelFormatError
from .matrix import DenseMatrix, LabelMatrix, RngSeed, make_rng
from .nmf import NmfFactors
from .pipeline import FeatureMatrix, RegressorModel

MAGIC = b"XLC1"
FORMAT_VERSION = 1
_PARSE_ROWS = 512       # rows per parse block: bounds the token lists' memory


# ---------------------------------------------------------------- datasets

def _read_text(path, error) -> str:
    """The whole UTF-8 text file; undecodable bytes raise `error`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})")


def load_dataset(path) -> tuple[FeatureMatrix, LabelMatrix]:
    """Parse a dataset file; every error names the offending line.

    Rows are parsed in bulk (`_parse_rows`). When any of its checks fails,
    `_check_rows` reads the rows again one line at a time and words the
    first error, so messages and line numbers do not depend on the blocks.
    """
    lines = _read_text(path, DatasetFormatError).split("\n")
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
    try:
        x = np.zeros((n_rows, d))
    except (MemoryError, ValueError) as exc:
        raise DatasetFormatError(
            f"{path}:1: cannot allocate the {n_rows}x{d} feature block "
            f"declared by {lines[0]!r} ({exc})")

    try:
        labels = _parse_rows(lines, x, p)
    except (ValueError, OverflowError):     # a bad token; an index beyond int64
        labels = None
    if labels is None:
        _check_rows(path, lines, d, p)
        # the line checker accepts an index beyond int64 only below a
        # declared label count that large
        raise DatasetFormatError(f"{path}: a label index does not fit in 64 bits")
    v = LabelMatrix.from_coo(n_rows, p, *labels, np.ones(labels[1].size))
    return FeatureMatrix(x), v


def _parse_rows(lines, x: np.ndarray, p: int):
    """Fill x with the feature pairs of the row lines lines[1:] and return
    the (rows, cols) arrays of their labels, or None when a check fails.

    Each block of _PARSE_ROWS lines is split once per line. Its label
    tokens are joined and split on ",", its feature tokens joined and split
    on ":", and the parts converted by the int and float calls the line
    checker makes: they raise ValueError on a malformed token, and
    np.fromiter raises OverflowError on an index beyond int64. Every check
    is one vectorized test per block.
    """
    d = x.shape[1]
    label_counts, label_cols = [], [np.empty(0, dtype=np.int64)]
    for lo in range(1, len(lines), _PARSE_ROWS):
        labels, n_labels, feats, n_feats = [], [], [], []
        for toks in map(str.split, lines[lo:lo + _PARSE_ROWS]):
            if toks and ":" not in toks[0]:
                n_labels.append(toks[0].count(",") + 1)
                labels.append(toks.pop(0))
            else:
                n_labels.append(0)
            n_feats.append(len(toks))
            feats += toks
        parts = ",".join(labels).split(",") if labels else []
        pairs = ":".join(feats).split(":") if feats else []
        # as many ":" as tokens, and one in each: exactly one per token
        if (len(pairs) != 2 * len(feats)
                or not all(map(contains, feats, repeat(":")))):
            return None
        block_rows = np.arange(lo - 1, lo - 1 + len(n_feats))

        rows = np.repeat(block_rows, n_labels)
        cols = np.fromiter(map(int, parts), dtype=np.int64, count=len(parts))
        if cols.size and (cols.min() < 0 or int(cols.max()) >= p):
            return None
        if np.any((np.diff(cols) <= 0) & (np.diff(rows) == 0)):
            return None
        label_counts += n_labels
        label_cols.append(cols)

        rows = np.repeat(block_rows, n_feats)
        cols = np.fromiter(map(int, pairs[0::2]), dtype=np.int64, count=len(feats))
        vals = np.fromiter(map(float, pairs[1::2]), dtype=np.float64, count=len(feats))
        if cols.size and (cols.min() < 0 or cols.max() >= d):
            return None
        keys = np.sort(rows * d + cols)     # in range, so below x.size
        if np.any(keys[1:] == keys[:-1]) or not np.all(np.isfinite(vals)):
            return None
        x[rows, cols] = vals
    return (np.repeat(np.arange(len(label_counts)), label_counts),
            np.concatenate(label_cols))


def _check_rows(path, lines, d, p) -> None:
    """Raise the DatasetFormatError of the first malformed row line in
    lines[1:], naming its line number; return if there is none."""
    for lineno, line in enumerate(lines[1:], start=2):
        tokens = line.split()
        start = 0
        if tokens and ":" not in tokens[0]:
            prev = -1
            for part in tokens[0].split(","):
                try:
                    idx = int(part)
                except ValueError:
                    raise DatasetFormatError(
                        f"{path}:{lineno}: bad label index {part!r}")
                if not 0 <= idx < p:
                    raise DatasetFormatError(
                        f"{path}:{lineno}: label index {idx} out of range [0, {p})")
                if idx <= prev:
                    raise DatasetFormatError(
                        f"{path}:{lineno}: label indices must be strictly "
                        f"increasing, got {idx} after {prev}")
                prev = idx
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
                raise DatasetFormatError(
                    f"{path}:{lineno}: bad feature pair {tok!r}")
            if not 0 <= j < d:
                raise DatasetFormatError(
                    f"{path}:{lineno}: feature index {j} out of range [0, {d})")
            if j in seen:
                raise DatasetFormatError(
                    f"{path}:{lineno}: duplicate feature index {j}")
            if not np.isfinite(fv):
                raise DatasetFormatError(
                    f"{path}:{lineno}: non-finite feature value {val!r}")
            seen.add(j)


def save_dataset(path, x: FeatureMatrix, v: LabelMatrix) -> None:
    """Write the text format; reloading reproduces both matrices exactly."""
    if x.rows != v.n_rows:
        raise ConfigError(f"feature rows {x.rows} != label rows {v.n_rows}")
    cols = list(map(str, v.entry_cols.tolist()))
    lab_ptr = np.searchsorted(v.entry_rows, np.arange(v.n_rows + 1)).tolist()
    r, c = np.nonzero(x.values)
    pairs = [f"{j}:{val!r}" for j, val in zip(c.tolist(), x.values[r, c].tolist())]
    feat_ptr = np.searchsorted(r, np.arange(x.rows + 1)).tolist()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{x.rows} {x.cols} {v.n_labels}\n")
        for i in range(x.rows):
            parts = pairs[feat_ptr[i]:feat_ptr[i + 1]]
            if lab_ptr[i] < lab_ptr[i + 1]:
                parts.insert(0, ",".join(cols[lab_ptr[i]:lab_ptr[i + 1]]))
            fh.write(" ".join(parts) + "\n")


def load_label_names(path) -> list[str]:
    text = _read_text(path, DatasetFormatError)
    if text.endswith("\n"):
        text = text[:-1]
    return text.split("\n") if text else []


def _names_payload(names) -> bytes:
    """The names joined by newlines, as UTF-8. A name that holds a newline
    or that UTF-8 cannot encode (a lone surrogate) raises ConfigError."""
    for name in names:
        if "\n" in name:
            raise ConfigError(f"label name {name!r} contains a newline")
    try:
        return "\n".join(names).encode("utf-8")
    except UnicodeEncodeError as exc:
        bad = names[exc.object.count("\n", 0, exc.start)]
        raise ConfigError(f"label name {bad!r} cannot be encoded as UTF-8")


def save_label_names(path, names) -> None:
    names = list(names)
    payload = _names_payload(names)
    with open(path, "wb") as fh:
        fh.write(payload + b"\n" if names else b"")


def make_block_dataset(blocks: int, rows: int, labels_per_block: int,
                       noise: float, seed: RngSeed | int = 0):
    """Planted generator: each row belongs to one block, carries that
    block's labels with each of the p bits flipped with probability
    `noise`, and a one-hot block-indicator feature vector.

    Returns (FeatureMatrix, LabelMatrix, label_names).
    """
    if blocks < 1 or rows < 1 or labels_per_block < 1:
        raise ConfigError(
            f"blocks, rows and labels_per_block must be >= 1, got "
            f"{blocks}, {rows}, {labels_per_block}")
    if not 0.0 <= noise < 0.5:
        raise ConfigError(f"noise must be in [0, 0.5), got {noise}")
    p = blocks * labels_per_block
    rng = make_rng(seed)
    block_of = rng.integers(0, blocks, size=rows)
    base = np.arange(p) // labels_per_block == block_of[:, None]
    flips = rng.random((rows, p)) < noise
    r, c = np.nonzero(base != flips)
    names = [f"block{b}_label{j}"
             for b in range(blocks) for j in range(labels_per_block)]
    x = FeatureMatrix(block_of[:, None] == np.arange(blocks))
    v = LabelMatrix.from_coo(rows, p, r, c, np.ones(r.size), label_names=names)
    return x, v, names


# ----------------------------------------------------------- model format

class ModelContainer:
    """Everything a pipeline run may persist, by named section."""

    __slots__ = ("encoder", "regressor", "config", "label_names", "nmf")

    def __init__(self, encoder: EncoderStack | None = None,
                 regressor: RegressorModel | None = None,
                 config: dict | None = None,
                 label_names=None,
                 nmf: NmfFactors | None = None):
        self.encoder = encoder
        self.regressor = regressor
        self.config = dict(config or {})
        self.label_names = list(label_names) if label_names is not None else None
        self.nmf = nmf


def _pack_matrix(a: np.ndarray) -> bytes:
    a = np.ascontiguousarray(a, dtype="<f8")
    return struct.pack("<II", a.shape[0], a.shape[1]) + a.tobytes()


def _unpack_matrix(buf: bytes, off: int, section: str):
    rows, cols = _unpack(buf, off, "<II", section)
    off += 8
    nbytes = rows * cols * 8
    if off + nbytes > len(buf):
        raise ModelFormatError(f"truncated matrix payload in section {section!r}")
    a = np.frombuffer(buf[off:off + nbytes], dtype="<f8").reshape(rows, cols).copy()
    return a, off + nbytes


def _pack_trace(trace) -> bytes:
    a = np.asarray(trace, dtype="<f8")
    return struct.pack("<Q", a.size) + a.tobytes()


def _unpack_trace(buf: bytes, off: int, section: str):
    (n,) = _unpack(buf, off, "<Q", section)
    off += 8
    if off + n * 8 > len(buf):
        raise ModelFormatError(f"truncated trace in section {section!r}")
    return np.frombuffer(buf[off:off + n * 8], dtype="<f8").tolist(), off + n * 8


def _unpack(buf: bytes, off: int, fmt: str, section: str):
    size = struct.calcsize(fmt)
    if off + size > len(buf):
        raise ModelFormatError(f"truncated header in section {section!r}")
    return struct.unpack_from(fmt, buf, off)


def _encoder_payload(stack: EncoderStack) -> bytes:
    out = [struct.pack("<I", stack.depth)]
    out += [_pack_matrix(h.values) for h in stack.layers]
    out.append(_pack_trace(stack.training_trace))
    return b"".join(out)


def _parse_encoder(buf: bytes) -> EncoderStack:
    (depth,) = _unpack(buf, 0, "<I", "encoder")
    off = 4
    layers = []
    for _ in range(depth):
        a, off = _unpack_matrix(buf, off, "encoder")
        layers.append(DenseMatrix(a))
    trace, off = _unpack_trace(buf, off, "encoder")
    return EncoderStack(layers, training_trace=trace)


def _regressor_payload(m: RegressorModel) -> bytes:
    out = [struct.pack("<BII", RegressorModel.KINDS.index(m.kind),
                       m.input_dim, m.output_dim),
           struct.pack("<I", len(m.params))]
    for name in sorted(m.params):
        raw = name.encode("utf-8")
        a = m.params[name]
        a2 = a.reshape(1, -1) if a.ndim == 1 else a
        out.append(struct.pack("<H", len(raw)) + raw)
        out.append(struct.pack("<B", a.ndim))
        out.append(_pack_matrix(a2))
    return b"".join(out)


def _parse_regressor(buf: bytes) -> RegressorModel:
    kind_idx, din, dout = _unpack(buf, 0, "<BII", "regressor")
    if kind_idx >= len(RegressorModel.KINDS):
        raise ModelFormatError(f"unknown regressor kind code {kind_idx}")
    (nparams,) = _unpack(buf, 9, "<I", "regressor")
    off = 13
    params = {}
    for _ in range(nparams):
        (nlen,) = _unpack(buf, off, "<H", "regressor")
        off += 2
        if off + nlen > len(buf):
            raise ModelFormatError("truncated parameter name in section 'regressor'")
        name = buf[off:off + nlen].decode("utf-8")
        off += nlen
        (ndim,) = _unpack(buf, off, "<B", "regressor")
        off += 1
        a, off = _unpack_matrix(buf, off, "regressor")
        if ndim not in (1, 2) or (ndim == 1 and a.shape[0] != 1):
            raise ModelFormatError(
                f"parameter {name!r} in section 'regressor' is tagged {ndim}-D "
                f"but stored as {a.shape[0]}x{a.shape[1]}")
        params[name] = a[0] if ndim == 1 else a
    kind = RegressorModel.KINDS[kind_idx]
    try:
        return RegressorModel(kind, din, dout, params)
    except KeyError as exc:
        raise ModelFormatError(
            f"section 'regressor' has no parameter {exc.args[0]!r} "
            f"for a {kind} model") from None


def _config_payload(config: dict) -> bytes:
    lines = []
    for key in sorted(config):
        key_s, val_s = str(key), str(config[key])
        if any(ch in key_s or ch in val_s for ch in ("\n", "=")):
            raise ConfigError(f"config entry {key_s!r} contains '=' or newline")
        lines.append(f"{key_s}={val_s}")
    return "\n".join(lines).encode("utf-8")


def _parse_config(buf: bytes) -> dict:
    text = buf.decode("utf-8")
    config = {}
    for line in text.split("\n"):
        if not line:
            continue
        key, sep, val = line.partition("=")
        if not sep:
            raise ModelFormatError(f"bad config line {line!r}")
        config[key] = val
    return config


def _parse_names(buf: bytes) -> list[str]:
    text = buf.decode("utf-8")
    return text.split("\n") if text else []


def _nmf_payload(f: NmfFactors) -> bytes:
    return (_pack_matrix(f.w.values) + _pack_matrix(f.h.values)
            + _pack_trace(f.objective_trace))


def _parse_nmf(buf: bytes) -> NmfFactors:
    w, off = _unpack_matrix(buf, 0, "nmf")
    h, off = _unpack_matrix(buf, off, "nmf")
    trace, off = _unpack_trace(buf, off, "nmf")
    return NmfFactors(DenseMatrix(w), DenseMatrix(h), trace)


_SECTIONS = (                   # (name, pack, parse), in file order
    ("encoder", _encoder_payload, _parse_encoder),
    ("regressor", _regressor_payload, _parse_regressor),
    ("config", _config_payload, _parse_config),
    ("label_names", _names_payload, _parse_names),
    ("nmf", _nmf_payload, _parse_nmf),
)


def save_model(path, container: ModelContainer) -> None:
    """Write the container; section payloads carry individual CRC-32s."""
    sections = []
    for name, pack, _ in _SECTIONS:
        value = getattr(container, name)
        if value is not None and not (name == "config" and not value):
            sections.append((name, pack(value)))
    out = [MAGIC, struct.pack("<II", FORMAT_VERSION, len(sections))]
    for name, payload in sections:
        raw = name.encode("utf-8")
        out.append(struct.pack("<H", len(raw)) + raw)
        out.append(struct.pack("<QI", len(payload), zlib.crc32(payload)))
        out.append(payload)
    blob = b"".join(out)
    with open(path, "wb") as fh:
        fh.write(blob)


def load_model(path) -> ModelContainer:
    """Read a container back; unknown sections are skipped with a warning."""
    with open(path, "rb") as fh:
        buf = fh.read()
    if buf[:4] != MAGIC:
        raise ModelFormatError(f"{path}: not a model file (bad magic)")
    if len(buf) < 12:
        raise ModelFormatError(f"{path}: truncated file")
    version, n_sections = struct.unpack_from("<II", buf, 4)
    if version > FORMAT_VERSION:
        raise ModelFormatError(
            f"{path}: format version {version} is newer than supported "
            f"version {FORMAT_VERSION}")
    off = 12
    parsers = {name: parse for name, _, parse in _SECTIONS}
    fields = {}
    for _ in range(n_sections):
        if off + 2 > len(buf):
            raise ModelFormatError(f"{path}: truncated section table")
        (nlen,) = struct.unpack_from("<H", buf, off)
        off += 2
        if off + nlen + 12 > len(buf):
            raise ModelFormatError(f"{path}: truncated section header")
        try:
            name = buf[off:off + nlen].decode("utf-8")
        except UnicodeDecodeError:
            raise ModelFormatError(f"{path}: section name at byte {off} is not UTF-8")
        off += nlen
        plen, crc = struct.unpack_from("<QI", buf, off)
        off += 12
        if off + plen > len(buf):
            raise ModelFormatError(f"{path}: truncated payload in section {name!r}")
        payload = buf[off:off + plen]
        off += plen
        if zlib.crc32(payload) != crc:
            raise ModelFormatError(f"{path}: checksum mismatch in section {name!r}")
        if name not in parsers:
            warnings.warn(f"{path}: skipping unknown section {name!r}")
            continue
        try:
            fields[name] = parsers[name](payload)
        except UnicodeDecodeError:
            raise ModelFormatError(f"{path}: section {name!r} holds non-UTF-8 text")
    return ModelContainer(**fields)
