"""Config ingestion and deterministic report serialization.

Configs are JSON: key-value with nested arrays, matrices row-major,
complex entries as two-element [real, imaginary] pairs.  Reports are
emitted by a small fixed-format serializer (keys in insertion order,
floats printed with 15 significant digits, infinities as +/-Infinity
tokens) so that re-running the same config reproduces the report byte
for byte; only the config hash sorts keys.  A non-empty float64 array is
emitted straight from its entries, in the same bytes as its nested list.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from typing import Any

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


def dumps(obj: Any) -> str:
    """Deterministic JSON text for the report document."""
    out: list[str] = []
    _emit(obj, out, 0)
    out.append("\n")
    return "".join(out)


def _emit(obj: Any, out: list[str], level: int) -> None:
    pad = "  " * (level + 1)
    closing = "  " * level
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(format_float(float(obj)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        keys = list(obj.keys())
        for i, k in enumerate(keys):
            out.append(pad + json.dumps(str(k)) + ": ")
            _emit(obj[k], out, level + 1)
            out.append(",\n" if i + 1 < len(keys) else "\n")
        out.append(closing + "}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        if isinstance(obj, np.ndarray) and obj.dtype == np.float64 and obj.size:
            out.append(_float_array_text(obj, level))
            return
        seq = obj.tolist() if isinstance(obj, np.ndarray) else list(obj)
        if not seq:
            out.append("[]")
            return
        out.append("[\n")
        for i, item in enumerate(seq):
            out.append(pad)
            _emit(item, out, level + 1)
            out.append(",\n" if i + 1 < len(seq) else "\n")
        out.append(closing + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def _float_array_text(arr: np.ndarray, level: int) -> str:
    """The text the list branch of :func:`_emit` gives ``arr.tolist()``,
    built from the entries in one pass instead of one call per number."""
    flat = (arr + 0.0).ravel().tolist()     # + 0.0 turns -0.0 into 0.0, printed "0"
    if np.isfinite(arr).all():
        text = [format(x, ".15g") for x in flat]
    else:
        text = [format_float(x) for x in flat]
    ndim = arr.ndim
    opens = ["[\n" + "  " * (level + axis + 1) for axis in range(ndim)]
    closes = ["\n" + "  " * (level + axis) + "]" for axis in reversed(range(ndim))]
    # seps[d] follows an entry after which the d innermost lists end: it
    # closes them, separates the items of the list around them and opens
    # as many again.  depth[i] is that d for entry i.
    seps = ["".join(closes[:d]) + ",\n" + "  " * (level + ndim - d) + "".join(opens[ndim - d:])
            for d in range(ndim)]
    depth = np.zeros(arr.size - 1, dtype=np.intp)
    for size in np.cumprod(arr.shape[:0:-1]):      # entries in a list along each inner axis
        depth[size - 1::size] += 1
    pieces = [""] * (2 * arr.size - 1)
    pieces[0::2] = text
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
