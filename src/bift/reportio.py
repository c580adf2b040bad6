"""Config ingestion and deterministic report serialization.

Configs are JSON: key-value with nested arrays, matrices row-major,
complex entries as two-element [real, imaginary] pairs.  Reports are
emitted by a small fixed-format serializer (keys in insertion order,
floats printed with 15 significant digits, infinities as +/-Infinity
tokens) so that re-running the same config reproduces the report byte
for byte; only the config hash sorts keys.  :func:`dump` writes a report
piece by piece to a ``write`` callable: frozen records are walked field
by field, and lists, tuples and arrays share one sequence loop.  A float64
array of two or more axes goes out one leading-axis row at a time: the
row's entries are formatted in one vectorised pass (:func:`format_floats`)
and set into a ``%s`` template of the row's layout, in the same bytes as
its nested list.  That pass computes the 15 digits of every finite |x| in
[1e-280, 10), which holds every entry of a probability table, and hands
each other entry, and each whose rounding it cannot decide, to
:func:`format_float`, so every float prints as ``%.15g`` prints it.  Any
other array is written as its ``tolist()``.
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


_SPLIT = 134217729.0        # 2**27 + 1: Veltkamp's split of a double into two 26-bit halves


def _pow10_table(count: int) -> tuple[np.ndarray, ...]:
    """10**q for q < count as an unevaluated sum hi + lo of doubles, and
    hi's two halves for Dekker's exact product.  Built from Python ints,
    so each part is correctly rounded."""
    exact = [10 ** q for q in range(count)]
    hi = np.array([float(p) for p in exact])
    lo = np.array([float(p - int(h)) for p, h in zip(exact, hi.tolist())])
    head = _SPLIT * hi - (_SPLIT * hi - hi)
    return hi, lo, head, hi - head


_POW10_HI, _POW10_LO, _POW10_HH, _POW10_HL = _pow10_table(300)
_GROUP_PLACES = 10.0 ** np.arange(12, -1, -3)   # n's five 3-digit groups
# The text of each 3-digit group, in full and without trailing zeros
# (blank for 000): the last group of n that is not 000, and every group
# after it, is written without; and the digits that leaves.
_GROUPS = (np.arange(1000)[:, None] // np.array([100, 10, 1]) % 10 + ord("0")).astype(np.uint8)
_GROUPS_STRIPPED = np.where(
    np.cumsum(_GROUPS[:, ::-1] != ord("0"), axis=1)[:, ::-1] > 0, _GROUPS, ord(" "))
_GROUP_KEPT = np.count_nonzero(_GROUPS_STRIPPED != ord(" "), axis=1)
_GROUP_TEXT = np.concatenate([_GROUPS, _GROUPS_STRIPPED]).view("V3").ravel()   # take() is fast
# Columns 0-6 of an entry's text, by sign and by j, the number of leading
# zeros of the form 0.000ddd (j = 0: the form d.ddd, whose d goes in
# column 6), right-aligned: split() drops the blanks before them.
_HEAD = np.frombuffer(b"".join(
    (sign + ("0." + "0" * (j - 1) if j else "")).rjust(7 if j else 6).ljust(7).encode()
    for sign in ("", "-") for j in range(5)), dtype="V7")
_EXPONENT = np.array([(b"e-%02d" % e).ljust(5) for e in range(300)])   # e-05, e-100
_WIDTH = 28      # head 7, d or point 1, digits 14, exponent 5, and one blank


def format_floats(values: np.ndarray) -> list[str]:
    """:func:`format_float` of each entry of the float64 array ``values``,
    in C order, computed for all entries at once.

    The fast path takes every finite |x| in [1e-280, 10): with
    k = floor(log10 |x|), its 15 significant digits are the integer
    n = round(|x| * 10**(14 - k)), the product formed as a double-double
    to about 1e-30 relative (Dekker's exact TwoProduct with the table's
    split 10**q, plus |x| times the table's low part).  Its digits come
    from n by float division and are laid out in one byte matrix as
    "0.000ddd", "d.ddd" or "d.ddde-XX", trailing zeros dropped, as
    ``%.15g`` lays them out.  An entry whose rounding is not decided
    (within 1e-6 of a half, ties included), whose log10 gave the wrong k,
    or that lies outside that range (0, NaN and the infinities among
    them) goes through :func:`format_float`."""
    x = np.ravel(values)
    a = np.abs(x)
    fast = (a >= 1e-280) & (a < 10)                 # False for NaN
    a = np.where(fast, a, 1.0)
    k = np.floor(np.log10(a))
    q = (14 - k).astype(np.intp)
    p = a * _POW10_HI[q]
    c = _SPLIT * a
    ah = c - (c - a)
    al = a - ah
    hh, hl = _POW10_HH[q], _POW10_HL[q]
    err = al * hl - (((p - ah * hh) - al * hh) - ah * hl) + a * _POW10_LO[q]
    whole = np.floor(p)
    frac = (p - whole) + err                        # |x| * 10**q = whole + frac
    # n has 15 digits and its rounding is decided; below 1e14, log10 gave
    # k one too high (a product under 1e14 by less than a rounding still
    # rounds to 1e14 at k, as 10 times it would at k - 1)
    fast &= (whole >= 1e14) & (whole < 1e15 - 1) & (np.abs(frac - 0.5) > 1e-6)
    n = np.where(fast, whole + (frac > 0.5), 1e14)  # in [1e14, 1e15)
    k = np.where(fast, k, 0.0).astype(np.intp)      # the printed exponent
    neg = fast & (x < 0)

    groups = np.floor(n[:, None] / _GROUP_PLACES)
    groups[:, 1:] -= 1000 * groups[:, :-1]
    groups = groups.astype(np.intp)
    last = 4 - np.argmax(groups[:, ::-1] != 0, axis=1)      # group 0 is never 0
    digits = _GROUP_TEXT.take(groups + 1000 * (np.arange(5) >= last[:, None]))
    digits = digits.view(np.uint8).reshape(-1, 15)          # blank past the last kept
    kept = 3 * last + _GROUP_KEPT[groups[np.arange(len(x)), last]]
    small = (k < 0) & (k >= -4)                     # printed as 0.000ddd

    # One row of bytes per entry: the head, the first digit in column 6
    # (d.ddd) or 7 (0.000ddd), the point of d.ddd in column 7 when a digit
    # follows, the other digits in columns 8-21 and, for d.ddde-XX, the
    # exponent right after the last kept digit.
    text = np.full((len(x), _WIDTH), ord(" "), dtype=np.uint8)
    head = _HEAD.take(5 * neg + np.where(small, -k, 0)).view(np.uint8).reshape(-1, 7)
    text[:, :7] = head
    text[:, 6] = np.where(small, head[:, 6], digits[:, 0])
    text[:, 7] = np.where(small, digits[:, 0], np.where(kept > 1, ord("."), ord(" ")))
    text[:, 8:22] = digits[:, 1:]
    sci = k < -4
    at = np.flatnonzero(sci) * _WIDTH + 6 + kept[sci] + (kept[sci] > 1)
    text.reshape(-1)[at[:, None] + np.arange(5)] = \
        _EXPONENT.take(-k[sci]).view(np.uint8).reshape(-1, 5)

    out = text.tobytes().decode("ascii").split()
    slow = np.flatnonzero(~fast)
    for i, value in zip(slow.tolist(), x[slow].tolist()):
        out[i] = format_float(value)
    return out


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
        # a 1-d array's rows are single floats, for which format_float
        # costs less than a vectorised pass
        item = _row_writer(obj, level + 1) if isinstance(obj, np.ndarray) and obj.ndim > 1 \
            else _emit
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
    ``arr`` of two or more axes, nested ``level`` deep: a row's entries
    are formatted in one :func:`format_floats` pass (its fast path for
    finite |x| in [1e-280, 10), :func:`format_float` for the rest) and
    set into a ``%s`` template of its layout, so the row is written as
    one piece, in the bytes :func:`_emit` gives its ``tolist()``."""
    template = _layout(arr.shape[1:], level)
    return lambda row, write, _: write(template % tuple(format_floats(row)))


def _layout(shape: tuple[int, ...], level: int) -> str:
    """The text of a non-empty array of ``shape`` nested ``level`` deep,
    with ``%s`` in place of each entry: a ``%`` template."""
    if not shape:
        return "%s"
    pad = "\n" + "  " * (level + 1)
    inner = _layout(shape[1:], level + 1)
    return "[" + pad + ("," + pad).join([inner] * shape[0]) + "\n" + "  " * level + "]"


def config_hash(config: dict) -> str:
    """sha256 of the canonical serialization of a config."""
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"), allow_nan=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


def load_config(path: str) -> dict:
    """The JSON object in the UTF-8 file ``path``; any file that does not
    hold one (unreadable, not UTF-8, not JSON, an integer longer than
    Python converts, nested deeper than the decoder recurses, not an
    object) is a DomainError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise DomainError(f"config {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise DomainError(f"config {path}: not UTF-8 text ({exc})") from exc
    try:
        cfg = json.loads(text)
    except ValueError as exc:       # JSONDecodeError, or int's digit limit
        raise DomainError(f"config {path}: invalid JSON ({exc})") from exc
    except RecursionError as exc:
        raise DomainError(f"config {path}: JSON nested too deeply") from exc
    if not isinstance(cfg, dict):
        raise DomainError(f"config {path}: top level must be an object")
    return cfg


def decode_complex_matrix(entries, where: str) -> np.ndarray:
    """Nested row-major lists of [real, imaginary] pairs -> complex array.

    Each part must be finite and small enough that the n x n products of
    the unitarity and state checks cannot overflow (entries of a valid
    state or propagator are at most 1 in modulus)."""
    try:
        arr = np.asarray(entries, dtype=object)
        if not set(map(type, arr.flat)) <= {int, float}:   # float() takes "1" and true
            raise TypeError
        arr = arr.astype(float)
    except (TypeError, ValueError, OverflowError) as exc:
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
