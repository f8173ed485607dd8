"""JSON serialization of problems and reports.

Problem files carry the schema tag ``blockdiag/2``: each matrix is an
object ``{"rows", "cols", "b64"}`` whose ``b64`` is the base64 text of its
entries as little-endian complex128, row-major, 16 bytes per entry. The
bytes are the doubles themselves, so a save/load cycle is bit-exact.
Files of the earlier schema ``blockdiag/1``, whose matrices carry ``data``,
a row-major list of ``[re, im]`` pairs of decimal doubles, still load. A
file's matrices must all use its schema's form.
"""

from __future__ import annotations

import base64
import binascii
import hashlib
import json
import math
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

from .core import BlockMatrix
from .errors import StructuralError

PROBLEM_SCHEMA = "blockdiag/2"
REPORT_SCHEMA = "blockdiag-report/1"

#: The matrix payload key of each problem schema the reader accepts.
_PAYLOAD_KEYS = {"blockdiag/1": "data", PROBLEM_SCHEMA: "b64"}

#: Byte order, type and size of one entry of a ``b64`` payload.
_ENTRY = np.dtype("<c16")


def matrix_to_obj(m) -> dict:
    m = np.asarray(m, dtype=_ENTRY)
    if m.ndim != 2:
        raise StructuralError(f"can only serialize 2-d matrices, got shape {m.shape}")
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "b64": base64.b64encode(m.tobytes(order="C")).decode("ascii"),
    }


def matrix_from_obj(obj, name: str, key: str) -> np.ndarray:
    """Decode the matrix object ``name`` whose payload is under ``key``.

    ``key`` is ``"b64"`` or ``"data"``, as the file's schema requires. An
    object that also carries the other key is malformed.
    """
    if not isinstance(obj, dict):
        raise StructuralError(f"{name}: expected an object, got {type(obj).__name__}")
    other = "data" if key == "b64" else "b64"
    if other in obj:
        raise StructuralError(
            f"{name}: malformed matrix object: carries {other!r}, expected {key!r}"
        )
    try:
        rows = int(obj["rows"])
        cols = int(obj["cols"])
        payload = obj[key]
        length = len(payload)
    except (KeyError, TypeError, ValueError) as exc:
        raise StructuralError(f"{name}: malformed matrix object: {exc}") from exc
    if key == "b64":
        return _matrix_from_b64(payload, rows, cols, name)
    if rows < 0 or cols < 0 or length != rows * cols:
        raise StructuralError(
            f"{name}: data length {length} does not match {rows}x{cols}"
        )
    if rows * cols == 0:
        return np.zeros((rows, cols), dtype=np.complex128)
    try:
        pairs = np.asarray(payload, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        pairs = None
    if pairs is None or pairs.shape != (rows * cols, 2) or not np.all(np.isfinite(pairs)):
        _raise_bad_entry(payload, name)
    # through .real/.imag, not re + 1j*im, which turns -0.0 parts into +0.0
    values = np.empty(rows * cols, dtype=np.complex128)
    values.real = pairs[:, 0]
    values.imag = pairs[:, 1]
    return values.reshape(rows, cols)


def _matrix_from_b64(text, rows: int, cols: int, name: str) -> np.ndarray:
    try:
        raw = base64.b64decode(text, validate=True)
    except (binascii.Error, TypeError, ValueError) as exc:
        raise StructuralError(f"{name}: b64 is not valid base64: {exc}") from exc
    if rows < 0 or cols < 0 or len(raw) != _ENTRY.itemsize * rows * cols:
        raise StructuralError(
            f"{name}: b64 payload of {len(raw)} bytes does not match {rows}x{cols} "
            f"entries of {_ENTRY.itemsize} bytes"
        )
    values = np.frombuffer(raw, dtype=_ENTRY).astype(np.complex128)
    finite = np.isfinite(values)
    if not finite.all():
        raise StructuralError(
            f"{name}: entry {int(np.argmin(finite))} is not finite"
        )
    return values.reshape(rows, cols)


def _raise_bad_entry(data, name: str) -> None:
    """Name the first entry that is not a finite ``[re, im]`` pair."""
    for i, entry in enumerate(data):
        if not (isinstance(entry, (list, tuple)) and len(entry) == 2):
            raise StructuralError(f"{name}: entry {i} is not a [re, im] pair")
        try:
            re, im = float(entry[0]), float(entry[1])
        except (TypeError, ValueError, OverflowError) as exc:
            raise StructuralError(f"{name}: entry {i} is not a number pair: {exc}") from exc
        if not (math.isfinite(re) and math.isfinite(im)):
            raise StructuralError(f"{name}: entry {i} is not finite")
    raise StructuralError(f"{name}: data is not a list of [re, im] pairs")


@dataclass(frozen=True)
class ProblemFile:
    """A block matrix plus optional threshold and free-form metadata."""

    block: BlockMatrix
    mu: float | None = None
    metadata: dict = field(default_factory=dict)

    def to_obj(self) -> dict:
        obj = {
            "schema": PROBLEM_SCHEMA,
            "n0": self.block.n0,
            "n1": self.block.n1,
            "A0": matrix_to_obj(self.block.A0),
            "A1": matrix_to_obj(self.block.A1),
            "W0": matrix_to_obj(self.block.W0),
            "W1": matrix_to_obj(self.block.W1),
            "mu": self.mu,
            "metadata": {str(k): str(v) for k, v in self.metadata.items()},
        }
        return obj

    @staticmethod
    def from_obj(obj) -> "ProblemFile":
        if not isinstance(obj, dict):
            raise StructuralError("problem file must contain a JSON object")
        schema = obj.get("schema")
        key = _PAYLOAD_KEYS.get(schema) if isinstance(schema, str) else None
        if key is None:
            raise StructuralError(
                f"unsupported problem schema {schema!r} "
                f"(expected one of {', '.join(map(repr, _PAYLOAD_KEYS))})"
            )
        block = BlockMatrix(
            **{
                name: matrix_from_obj(obj.get(name), name, key)
                for name in ("A0", "A1", "W0", "W1")
            }
        )
        if "n0" in obj and int(obj["n0"]) != block.n0:
            raise StructuralError(
                f"declared n0 = {obj['n0']} does not match A0 of size {block.n0}"
            )
        if "n1" in obj and int(obj["n1"]) != block.n1:
            raise StructuralError(
                f"declared n1 = {obj['n1']} does not match A1 of size {block.n1}"
            )
        mu = obj.get("mu")
        if mu is not None:
            mu = float(mu)
            if not math.isfinite(mu):
                raise StructuralError("mu must be finite")
        metadata = obj.get("metadata") or {}
        if not isinstance(metadata, dict):
            raise StructuralError("metadata must be an object")
        return ProblemFile(block=block, mu=mu, metadata=dict(metadata))


def save_problem(path, problem: ProblemFile) -> None:
    write_json_atomic(path, problem.to_obj(), compact=True)


def load_problem(path) -> ProblemFile:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise StructuralError(f"cannot read problem file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise StructuralError(f"invalid JSON in {path}: {exc}") from exc
    return ProblemFile.from_obj(obj)


def _jsonable(value):
    if isinstance(value, (bool, str)) or value is None:
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if not math.isfinite(v):
            raise StructuralError(f"non-finite numeric value in report: {value!r}")
        return v
    if isinstance(value, (complex, np.complexfloating)):
        z = complex(value)
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise StructuralError(f"non-finite complex value in report: {value!r}")
        return [z.real, z.imag]
    if isinstance(value, np.ndarray):
        return [_jsonable(x) for x in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_jsonable(x) for x in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    raise StructuralError(f"cannot serialize value of type {type(value).__name__}")


@dataclass
class Report:
    """Structured run report written by every CLI command."""

    command: str
    inputs_digest: str
    residuals: dict = field(default_factory=dict)
    spectra: dict = field(default_factory=dict)
    flags: dict = field(default_factory=dict)
    certificates: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)

    def to_obj(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "command": self.command,
            "inputs_digest": self.inputs_digest,
            "residuals": _jsonable(self.residuals),
            "spectra": _jsonable(self.spectra),
            "flags": {str(k): bool(v) for k, v in self.flags.items()},
            "certificates": _jsonable(self.certificates),
            "timings": _jsonable(self.timings),
        }


def digest_file(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def digest_obj(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def write_json_atomic(path, obj, compact: bool = False) -> None:
    """Serialize to a sibling temp file and rename into place.

    Reports are indented for reading. Problem files are ``compact``: the
    indented form falls back to the pure-Python encoder, which dominates
    saving a large matrix. The file gets the mode a plain ``open`` would
    give it, ``0o666`` less the umask, not the temp file's ``0o600``.
    """
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    if compact:
        payload = json.dumps(obj, separators=(",", ":")) + "\n"
    else:
        payload = json.dumps(obj, indent=2) + "\n"
    # the umask can only be read by setting it: set the strictest one
    # for that instant, then restore it
    umask = os.umask(0o077)
    os.umask(umask)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(payload)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
