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
from collections.abc import Mapping
from itertools import repeat
from operator import contains

import numpy as np

from .autoencoder import EncoderStack
from .errors import (ConfigError, DatasetFormatError, ModelFormatError, XlcError, _instance,
                     _integer, _names, _real)
from .matrix import DenseMatrix, LabelMatrix, _check_labels, make_rng
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
    _instance("x", x, DenseMatrix)
    if x.rows != _check_labels(v).n_rows:
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


def _split_names(text: str) -> list[str]:
    """The names that _names_payload joined into text."""
    return text.split("\n") if text else []


def load_label_names(path) -> list[str]:
    return _split_names(_read_text(path, DatasetFormatError).removesuffix("\n"))


def _names_payload(names) -> bytes:
    """The names, checked by errors._names, joined by newlines as UTF-8; one
    that UTF-8 cannot encode (a lone surrogate) raises ConfigError."""
    names = _names("label_names", names)
    try:
        return "\n".join(names).encode("utf-8")
    except UnicodeEncodeError as exc:
        bad = names[exc.object.count("\n", 0, exc.start)]
        raise ConfigError(f"label name {bad!r} cannot be encoded as UTF-8")


def save_label_names(path, names) -> None:
    payload = _names_payload(names)
    with open(path, "wb") as fh:
        fh.write(payload + b"\n" if names else b"")


def make_block_dataset(blocks: int, rows: int, labels_per_block: int,
                       noise: float, seed: int = 0):
    """Planted generator: each row belongs to one block, carries that
    block's labels with each of the p bits flipped with probability
    `noise`, and a one-hot block-indicator feature vector.

    Returns (FeatureMatrix, LabelMatrix, label_names).
    """
    blocks = _integer("blocks", blocks, 1)
    rows = _integer("rows", rows, 1)
    labels_per_block = _integer("labels_per_block", labels_per_block, 1)
    noise = _real("noise", noise, 0.0, below=0.5)
    p = blocks * labels_per_block
    rng = make_rng(seed)
    block_of = rng.integers(0, blocks, size=rows)
    base = np.arange(p) // labels_per_block == block_of[:, None]
    flips = rng.random((rows, p)) < noise
    r, c = np.nonzero(base != flips)
    names = [f"block{b}_label{j}"
             for b in range(blocks) for j in range(labels_per_block)]
    x = FeatureMatrix(block_of[:, None] == np.arange(blocks))
    v = LabelMatrix.from_coo(rows, p, r, c, np.ones(r.size))
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
        self.encoder = None if encoder is None else _instance("encoder", encoder, EncoderStack)
        self.regressor = (None if regressor is None
                          else _instance("regressor", regressor, RegressorModel))
        self.config = {} if config is None else dict(_instance("config", config, Mapping))
        self.label_names = None if label_names is None else _names("label_names", label_names)
        self.nmf = None if nmf is None else _instance("nmf", nmf, NmfFactors)


class _Reader:
    """Reads a model file or one section payload front to back: each read
    checks that its bytes are there before it decodes them, and raises
    ModelFormatError naming `where` and what was cut; `done` rejects bytes
    left over. buf is a memoryview, so `take` copies nothing. Nothing else
    in this module unpacks model bytes."""

    __slots__ = ("buf", "off", "where")

    def __init__(self, buf: memoryview, where: str):
        self.buf, self.off, self.where = buf, 0, where

    def take(self, n: int, what: str) -> memoryview:
        if n > len(self.buf) - self.off:
            raise ModelFormatError(f"{self.where}: truncated {what}")
        self.off += n
        return self.buf[self.off - n:self.off]

    def unpack(self, fmt: str, what: str = "header") -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def matrix(self) -> np.ndarray:
        rows, cols = self.unpack("<II")
        raw = self.take(rows * cols * 8, "matrix payload")
        return np.frombuffer(raw, dtype="<f8").reshape(rows, cols).copy()

    def trace(self) -> list[float]:
        (n,) = self.unpack("<Q")
        return np.frombuffer(self.take(n * 8, "trace"), dtype="<f8").tolist()

    def text(self, n: int | None = None, what: str = "text") -> str:
        """The next n bytes, or all that are left, decoded as UTF-8."""
        raw = self.take(len(self.buf) - self.off if n is None else n, what)
        try:
            return str(raw, "utf-8")
        except UnicodeDecodeError:
            raise ModelFormatError(f"{self.where} holds non-UTF-8 text") from None

    def done(self) -> None:
        if self.off != len(self.buf):
            raise ModelFormatError(
                f"{self.where}: {len(self.buf) - self.off} bytes left over")


def _pack_matrix(a: np.ndarray) -> bytes:
    a = np.ascontiguousarray(a, dtype="<f8")
    return struct.pack("<II", a.shape[0], a.shape[1]) + a.tobytes()


def _pack_trace(trace) -> bytes:
    a = np.asarray(trace, dtype="<f8")
    return struct.pack("<Q", a.size) + a.tobytes()


def _encoder_payload(stack: EncoderStack) -> bytes:
    out = [struct.pack("<I", stack.depth)]
    out += [_pack_matrix(h.values) for h in stack.layers]
    out.append(_pack_trace(stack.training_trace))
    return b"".join(out)


def _parse_encoder(r: _Reader) -> EncoderStack:
    (depth,) = r.unpack("<I")
    layers = [DenseMatrix(r.matrix()) for _ in range(depth)]
    return EncoderStack(layers, training_trace=r.trace())


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


def _parse_regressor(r: _Reader) -> RegressorModel:
    kind_idx, din, dout, nparams = r.unpack("<BIII")
    if kind_idx == 1:
        raise ModelFormatError("section 'regressor' holds an mlp-1hidden model, "
                               "which xlc no longer reads")
    if kind_idx >= len(RegressorModel.KINDS):
        raise ModelFormatError(f"section 'regressor' holds unknown kind code {kind_idx}")
    params = {}
    for _ in range(nparams):
        (nlen,) = r.unpack("<H")
        name = r.text(nlen, "parameter name")
        (ndim,) = r.unpack("<B")
        a = r.matrix()
        if name in params:
            raise ModelFormatError(
                f"parameter {name!r} appears twice in section 'regressor'")
        if ndim not in (1, 2) or (ndim == 1 and a.shape[0] != 1):
            raise ModelFormatError(
                f"parameter {name!r} in section 'regressor' is tagged {ndim}-D "
                f"but stored as {a.shape[0]}x{a.shape[1]}")
        params[name] = a[0] if ndim == 1 else a
    return RegressorModel(RegressorModel.KINDS[kind_idx], din, dout, params)


def _config_payload(config: dict) -> bytes:
    lines = []
    for key in sorted(config):
        key_s, val_s = str(key), str(config[key])
        if any(ch in key_s or ch in val_s for ch in ("\n", "=")):
            raise ConfigError(f"config entry {key_s!r} contains '=' or newline")
        lines.append(f"{key_s}={val_s}")
    return "\n".join(lines).encode("utf-8")


def _parse_config(r: _Reader) -> dict:
    config = {}
    for line in r.text().split("\n"):
        if not line:
            continue
        key, sep, val = line.partition("=")
        if not sep:
            raise ModelFormatError(f"bad config line {line!r}")
        if key in config:
            raise ModelFormatError(f"key {key!r} appears twice in section 'config'")
        config[key] = val
    return config


def _nmf_payload(f: NmfFactors) -> bytes:
    return (_pack_matrix(f.w.values) + _pack_matrix(f.h.values)
            + _pack_trace(f.objective_trace))


def _parse_nmf(r: _Reader) -> NmfFactors:
    return NmfFactors(DenseMatrix(r.matrix()), DenseMatrix(r.matrix()), r.trace())


_SECTIONS = (                   # (name, pack, parse), in file order
    ("encoder", _encoder_payload, _parse_encoder),
    ("regressor", _regressor_payload, _parse_regressor),
    ("config", _config_payload, _parse_config),
    ("label_names", _names_payload, lambda r: _split_names(r.text())),
    ("nmf", _nmf_payload, _parse_nmf),
)


def save_model(path, container: ModelContainer) -> None:
    """Write the container; section payloads carry individual CRC-32s."""
    _instance("container", container, ModelContainer)
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
    """Read a container back; unknown sections are skipped with a warning.

    Bytes left over in a section or after the last one, a section name
    given twice, a regressor parameter or config key given twice, a
    regressor whose kind code or parameter names are not ridge-linear's,
    and any value a section's constructor refuses (a width-0 layer, a NaN
    or negative entry, factors that do not chain, a rising NMF trace) are
    format errors: every refusal is a ModelFormatError naming the section.
    """
    with open(path, "rb") as fh:
        r = _Reader(memoryview(fh.read()), str(path))
    if r.buf[:4] != MAGIC:
        raise ModelFormatError(f"{path}: not a model file (bad magic)")
    version, n_sections = r.unpack("<4xII", "file")
    if version > FORMAT_VERSION:
        raise ModelFormatError(
            f"{path}: format version {version} is newer than supported "
            f"version {FORMAT_VERSION}")
    parsers = {name: parse for name, _, parse in _SECTIONS}
    fields, seen = {}, set()
    for _ in range(n_sections):
        (nlen,) = r.unpack("<H", "section table")
        at = r.off
        try:
            name = str(r.take(nlen, "section header"), "utf-8")
        except UnicodeDecodeError:
            raise ModelFormatError(f"{path}: section name at byte {at} is not UTF-8")
        plen, crc = r.unpack("<QI", "section header")
        payload = r.take(plen, f"payload in section {name!r}")
        if zlib.crc32(payload) != crc:
            raise ModelFormatError(f"{path}: checksum mismatch in section {name!r}")
        if name in seen:
            raise ModelFormatError(f"{path}: section {name!r} appears twice")
        seen.add(name)
        if name not in parsers:
            warnings.warn(f"{path}: skipping unknown section {name!r}")
            continue
        section = _Reader(payload, f"{path}: section {name!r}")
        try:
            fields[name] = parsers[name](section)
        except ModelFormatError:
            raise
        except XlcError as exc:
            # a constructor refused values that were read in full: the
            # file, not the caller, is at fault
            raise ModelFormatError(f"section {name!r}: {exc}") from None
        section.done()
    r.done()
    return ModelContainer(**fields)
