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
from dataclasses import dataclass, field, replace

import numpy as np

from .core import BlockMatrix
from .errors import StructuralError

PROBLEM_SCHEMA = "blockdiag/2"
REPORT_SCHEMA = "blockdiag-report/1"

#: The matrix payload key of each problem schema the reader accepts.
_PAYLOAD_KEYS = {"blockdiag/1": "data", PROBLEM_SCHEMA: "b64"}

#: The four blocks of a problem, in the order a file lists them.
_BLOCKS = ("A0", "A1", "W0", "W1")

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
    """A block matrix plus optional threshold and free-form metadata.

    ``digest`` is the sha256 of the file bytes it was loaded from, and empty
    for a problem made in memory; it is not written to a file.
    """

    block: BlockMatrix
    mu: float | None = None
    metadata: dict = field(default_factory=dict)
    digest: str = field(default="", compare=False)

    def to_obj(self) -> dict:
        return {
            "schema": PROBLEM_SCHEMA,
            "n0": self.block.n0,
            "n1": self.block.n1,
            **{name: matrix_to_obj(getattr(self.block, name)) for name in _BLOCKS},
            "mu": self.mu,
            "metadata": {str(k): str(v) for k, v in self.metadata.items()},
        }

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
        block = BlockMatrix(**{name: matrix_from_obj(obj.get(name), name, key) for name in _BLOCKS})
        for n, a, size in (("n0", "A0", block.n0), ("n1", "A1", block.n1)):
            if n in obj and int(obj[n]) != size:
                raise StructuralError(f"declared {n} = {obj[n]} does not match {a} of size {size}")
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
    """Parse the problem file at ``path``, which is read once.

    The result's ``digest`` is the sha256 of exactly the bytes parsed, so it
    cannot describe a file that was replaced in between.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise StructuralError(f"cannot read problem file {path}: {exc}") from exc
    try:
        obj = json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise StructuralError(f"problem file {path} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise StructuralError(f"invalid JSON in {path}: {exc}") from exc
    return replace(ProblemFile.from_obj(obj), digest=hashlib.sha256(raw).hexdigest())


def _number(v: float):
    """``v``, or ``"nan"``, ``"inf"`` or ``"-inf"``: JSON has no non-finite numbers."""
    return v if math.isfinite(v) else repr(v)


def jsonable(value):
    """``value`` as plain JSON data: numpy scalars and arrays unwrapped,
    complex numbers as ``[re, im]``, and non-finite numbers as text."""
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    if isinstance(value, float):
        return _number(value)
    if isinstance(value, complex):
        return [_number(value.real), _number(value.imag)]
    if isinstance(value, np.ndarray):
        return [jsonable(x) for x in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [jsonable(x) for x in value]
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
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
    #: the gate that decided the verdict and its margin, bound minus value
    verdict: dict = field(default_factory=dict)

    def to_obj(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "command": self.command,
            "inputs_digest": self.inputs_digest,
            "residuals": jsonable(self.residuals),
            "spectra": jsonable(self.spectra),
            "flags": {str(k): bool(v) for k, v in self.flags.items()},
            "certificates": jsonable(self.certificates),
            "timings": jsonable(self.timings),
            "verdict": jsonable(self.verdict),
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
    give it, ``0o666`` less the umask, not the temp file's ``0o600``. An
    ``OSError`` (the path is a directory, say, or not writable) is raised
    as a :class:`StructuralError` that names the path, and no temp file
    is left behind.
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
    try:
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
    except OSError as exc:
        # like an unreadable problem file, an unwritable path is an input error
        raise StructuralError(f"cannot write {path}: {exc}") from exc
