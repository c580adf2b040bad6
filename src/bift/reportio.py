"""Config ingestion and deterministic report serialization.

Configs are JSON: key-value with nested arrays, matrices row-major,
complex entries as two-element [real, imaginary] pairs.  Reports are
emitted by a small fixed-format serializer (keys in insertion order,
floats printed with 15 significant digits, infinities as +/-Infinity
tokens) so that re-running the same config reproduces the report byte
for byte; only the config hash sorts keys.  :func:`dump` writes a report
piece by piece to a ``write`` callable: frozen records are walked field
by field, and a float64 array goes out one leading-axis row at a time,
each row formatted by a single ``%`` call on a template of the row's
layout, in the same bytes as its nested list.  :func:`dumps` is the
string form of the same writer.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import sys
from json.encoder import encode_basestring_ascii as _quote   # what json.dumps(str) calls
from typing import Any, Callable

import numpy as np

from .errors import DomainError

# Most points a start:stop:count grid may hold.  Each point is a full
# evaluation, so a sweep this long already takes minutes; a larger count
# is a typo that would only exhaust memory.
MAX_GRID_POINTS = 100_000

def format_float(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    if x == 0.0:
        return "0"
    return f"{x:.15g}"


def dump(obj: Any, write: Callable[[str], Any]) -> None:
    """Write the deterministic JSON text of the report document to
    ``write`` in order, piece by piece; no piece holds more than one
    leading-axis row of a float array."""
    _emit(obj, write, 0)
    write("\n")


def dumps(obj: Any) -> str:
    """Deterministic JSON text for the report document: the pieces
    :func:`dump` writes, joined."""
    out: list[str] = []
    dump(obj, out.append)
    return "".join(out)


def _emit(obj: Any, write: Callable[[str], Any], level: int) -> None:
    if obj is None:
        write("null")
    elif obj is True:
        write("true")
    elif obj is False:
        write("false")
    elif isinstance(obj, (int, np.integer)):
        write(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        write(format_float(float(obj)))
    elif isinstance(obj, str):
        write(_quote(obj))
    elif isinstance(obj, dict):
        _emit_members(list(obj.items()), write, level)
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        # The members dataclasses.asdict would give, without its copies.
        _emit_members([(f.name, getattr(obj, f.name)) for f in dataclasses.fields(obj)],
                      write, level)
    elif isinstance(obj, np.ndarray) and obj.dtype == np.float64 and obj.size:
        _emit_float_array(obj, write, level)
    elif isinstance(obj, (list, tuple, np.ndarray)):
        seq = obj.tolist() if isinstance(obj, np.ndarray) else obj
        if not seq:
            write("[]")
            return
        pad = "  " * (level + 1)
        for i, item in enumerate(seq):
            write(("[\n" if i == 0 else ",\n") + pad)
            _emit(item, write, level + 1)
        write("\n" + "  " * level + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def _emit_members(pairs: list[tuple[Any, Any]], write: Callable[[str], Any], level: int) -> None:
    if not pairs:
        write("{}")
        return
    pad = "  " * (level + 1)
    for i, (key, value) in enumerate(pairs):
        write(("{\n" if i == 0 else ",\n") + pad + _quote(str(key)) + ": ")
        _emit(value, write, level + 1)
    write("\n" + "  " * level + "}")


def _emit_float_array(arr: np.ndarray, write: Callable[[str], Any], level: int) -> None:
    """Write the text the list branch of :func:`_emit` gives
    ``arr.tolist()``, one leading-axis row per ``%`` call."""
    arr = arr + 0.0                 # turns -0.0 into 0.0, printed "0"
    if np.isfinite(arr).all():
        field, values = "%.15g", tuple
    else:                           # %.15g would print inf and nan
        field, values = "%s", lambda row: tuple(map(format_float, row))
    if arr.ndim <= 1:
        write(_layout(arr.shape, level, field) % values(arr.ravel().tolist()))
        return
    template = _layout(arr.shape[1:], level + 1, field)
    pad = "  " * (level + 1)
    for i, row in enumerate(arr):
        write(("[\n" if i == 0 else ",\n") + pad)
        write(template % values(row.ravel().tolist()))
    write("\n" + "  " * level + "]")


def _layout(shape: tuple[int, ...], level: int, field: str) -> str:
    """The text of a non-empty array of ``shape`` nested ``level`` deep,
    with ``field`` in place of each entry: a ``%`` template."""
    ndim = len(shape)
    opens = ["[\n" + "  " * (level + axis + 1) for axis in range(ndim)]
    closes = ["\n" + "  " * (level + axis) + "]" for axis in reversed(range(ndim))]
    # seps[d] follows an entry after which the d innermost lists end: it
    # closes them, separates the items of the list around them and opens
    # as many again.  depth[i] is that d for entry i.
    seps = ["".join(closes[:d]) + ",\n" + "  " * (level + ndim - d) + "".join(opens[ndim - d:])
            for d in range(ndim)]
    size = math.prod(shape)
    depth = np.zeros(size - 1, dtype=np.intp)
    for n in np.cumprod(shape[:0:-1]):          # entries in a list along each inner axis
        depth[n - 1::n] += 1
    pieces = [field] * (2 * size - 1)
    pieces[1::2] = [seps[d] for d in depth.tolist()]
    return "".join(opens) + "".join(pieces) + "".join(closes)


def config_hash(config: dict) -> str:
    """sha256 of the canonical serialization of a config."""
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"), allow_nan=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise DomainError(f"config {path}: {exc.strerror or exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"config {path}: invalid JSON ({exc})") from exc
    if not isinstance(cfg, dict):
        raise DomainError(f"config {path}: top level must be an object")
    return cfg


def decode_complex_matrix(entries, where: str) -> np.ndarray:
    """Nested row-major lists of [real, imaginary] pairs -> complex array.

    Each part must be finite and small enough that the n x n products of
    the unitarity and state checks cannot overflow (entries of a valid
    state or propagator are at most 1 in modulus)."""
    try:
        arr = np.asarray(entries, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"{where}: entries must be numbers") from exc
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise DomainError(
            f"{where}: expected rows x cols x [re, im], got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise DomainError(f"{where}: entries must be finite")
    limit = math.sqrt(sys.float_info.max / (2 * max(arr.shape)))
    if arr.size and np.abs(arr).max() > limit:
        raise DomainError(f"{where}: entries must not exceed {limit:.6g} in modulus")
    return arr[..., 0] + 1j * arr[..., 1]


def parse_grid(text: str) -> list[float]:
    """Grid syntax: a single value, a comma list, or start:stop:count
    with 1 <= count <= MAX_GRID_POINTS."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise DomainError(f"grid {text!r}: expected start:stop:count")
        try:
            start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError as exc:
            raise DomainError(f"grid {text!r}: {exc}") from exc
        if not 1 <= count <= MAX_GRID_POINTS:
            raise DomainError(f"grid {text!r}: count must lie in [1, {MAX_GRID_POINTS}]")
        return [float(x) for x in np.linspace(start, stop, count)]
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise DomainError(f"grid {text!r}: {exc}") from exc
