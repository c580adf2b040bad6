"""Config ingestion and deterministic report serialization.

Configs are JSON: key-value with nested arrays, matrices row-major,
complex entries as two-element [real, imaginary] pairs.  Reports are
emitted by a small fixed-format serializer (keys in insertion order,
floats printed with 15 significant digits, infinities as +/-Infinity
tokens) so that re-running the same config reproduces the report byte
for byte; only the config hash sorts keys.  :func:`dump` writes a report
piece by piece to a ``write`` callable: frozen records are walked field
by field, and lists, tuples and arrays share one sequence loop.  A float64
array goes out one leading-axis row at a time, each row formatted by a
single ``%`` call on a template of the row's layout, in the same bytes as
its nested list; any other array is written as its ``tolist()``.
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
    return "%.15g" % (x + 0.0)      # + 0.0 turns -0.0 into 0.0, printed "0"


def dump(obj: Any, write: Callable[[str], Any]) -> None:
    """Write the deterministic JSON text of the report document to
    ``write`` in order, piece by piece; no piece holds more than one
    leading-axis row of a float array."""
    _emit(obj, write, 0)
    write("\n")


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
    elif isinstance(obj, np.ndarray) and not (obj.dtype == np.float64 and obj.ndim and obj.size):
        _emit(obj.tolist(), write, level)       # a 0-d array gives its scalar
    elif isinstance(obj, (list, tuple, np.ndarray)):
        if not len(obj):
            write("[]")
            return
        item = _row_writer(obj, level + 1) if isinstance(obj, np.ndarray) else _emit
        pad = "  " * (level + 1)
        for i, value in enumerate(obj):
            write(("[\n" if i == 0 else ",\n") + pad)
            item(value, write, level + 1)
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


def _row_writer(arr: np.ndarray, level: int) -> Callable[..., None]:
    """The item writer for the leading-axis rows of the float64 array
    ``arr``, nested ``level`` deep: one ``%`` call gives a row the text
    :func:`_emit` gives its ``tolist()``."""
    if np.isfinite(arr).all():
        field, values = "%.15g", tuple
    else:                           # %.15g would print inf and nan
        field, values = "%s", lambda row: tuple(map(format_float, row))
    template = _layout(arr.shape[1:], level, field)
    return lambda row, write, _: write(template % values((row + 0.0).ravel().tolist()))


def _layout(shape: tuple[int, ...], level: int, field: str) -> str:
    """The text of a non-empty array of ``shape`` nested ``level`` deep,
    with ``field`` in place of each entry: a ``%`` template."""
    if not shape:
        return field
    pad = "\n" + "  " * (level + 1)
    inner = _layout(shape[1:], level + 1, field)
    return "[" + pad + ("," + pad).join([inner] * shape[0]) + "\n" + "  " * level + "]"


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
