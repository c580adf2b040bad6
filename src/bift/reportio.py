"""Config ingestion and deterministic report serialization.

Configs are JSON: key-value with nested arrays, matrices row-major,
complex entries as two-element [real, imaginary] pairs.  Reports are
emitted by a small fixed-format serializer (keys in insertion order,
floats printed with 15 significant digits, infinities as +/-Infinity
tokens) so that re-running the same config reproduces the report byte
for byte; only the config hash sorts keys.  :func:`dump` writes a report
to a ``write`` callable as ASCII ``bytes``, piece by piece: the keys,
scalars and brackets between two float arrays are gathered and encoded
as one piece, and each chunk of a float array is a piece of its own.
A report holds records (dataclass instances), dicts with str keys,
lists and tuples (a NamedTuple is written as a list), non-empty float64
arrays, and the scalars None, bool, int, float and str; anything else
is a TypeError.  A scalar is written by its container, whose one dict
lookup on the scalar's exact type gives its text, and a record is walked
by the field plan made the first time its class is met, its members'
quoted keys and one call that reads their values.  Objects, records,
lists and tuples go through one loop, the only code that writes
brackets, separators and indentation.  Every float array goes through
one writer, in the layout that loop gives a placeholder list and in the
bytes of its nested list.  It lays out each chunk in a ``uint8`` cell
matrix, one 32-byte row per entry, each field a whole word from a digit
table (:func:`_format_cells`), and one ``bytes.translate`` and one
``bytes.replace`` per depth turn the rows into text (:func:`_emit_floats`),
so no Python string is made per entry.  The digits are computed for
+/-0 and every x in [1e-280, 10), which holds every nonzero entry of a
probability table; each other entry, and each whose rounding the pass
cannot decide, is laid out from :func:`format_float`, so every float
prints as ``%.15g`` prints it.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import operator
import sys
from itertools import repeat
from json.encoder import encode_basestring_ascii as _quote   # what json.dumps(str) calls
from typing import Any, Callable, Collection

import numpy as np

from .errors import DomainError


def format_float(x: float) -> str:
    if math.isfinite(x):
        return "%.15g" % (x + 0.0)      # + 0.0 turns -0.0 into 0.0, printed "0"
    if x != x:
        return "NaN"
    return "Infinity" if x > 0 else "-Infinity"


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

# Each entry is laid out in a row of _WIDTH byte cells, blank where its
# text has no character, one word from a table per field: bytes 0-3 hold
# the head (the "0." and up to two zeros of a value below 1), 4-23 the 15
# significant digits in five 3-digit groups, 24-30 the exponent of the
# form d.ddde-XX, and 31 the terminator that stands for the separator
# after the entry.
_WIDTH = 32
_CHUNK = 8192           # entries laid out per pass, which bounds the temporaries
_BLANK = ord(" ")
_TERMINATOR = 0x80      # + d: the entry ends its d innermost axes; no text holds it


def _table(texts: list[str], width: int) -> np.ndarray:
    """Each text, blank-padded to ``width`` (4 or 8) bytes, as one word."""
    return np.frombuffer("".join([t.ljust(width) for t in texts]).encode(), dtype=f"u{width}")


# The uint32 words of the 3-digit groups g.  In _GROUPS, "ddd" at g and
# at 1000 + g the same without trailing zeros (all blank for 000).  In
# _LEADS, for the group that holds the first digit: "d.dd" at g, stripped
# at 1000 + g ("d.00" loses its point too), then _GROUPS again from 2000
# for the forms 0.ddd to 0.00ddd, whose head holds the point, then "0ddd"
# and stripped from 4000 for the form 0.000ddd, whose head holds "0.00".
_DIGITS = [f"{g:03d}" for g in range(1000)]
_GROUPS = _table(_DIGITS + [t.rstrip("0") for t in _DIGITS], 4)
_LEADS = np.concatenate([
    _table([t[0] + "." + t[1:] for t in _DIGITS]
           + [(t[0] + "." + t[1:].rstrip("0")).rstrip(".") for t in _DIGITS], 4),
    _GROUPS,
    _table(["0" + t for t in _DIGITS] + ["0" + t.rstrip("0") for t in _DIGITS], 4)])
# The words of the head (uint32) and of the exponent (uint64) for each
# magnitude e < 300 of a non-positive exponent k = -e.  For 1 <= e <= 4
# the head holds "0." and e - 1 zeros, at most two (at e = 4 the lead
# form "0ddd" holds the third), and no exponent is printed; otherwise the
# head is blank, and "e-XX" is printed from e = 5.
_HEADS = _table(["0.00"[:e + 1] if 1 <= e <= 4 else "" for e in range(300)], 4)
_EXPONENTS = _table([f"e-{e:02d}" if e >= 5 else "" for e in range(300)], 8)
# Where in _LEADS the words of magnitude e's form start.
_LEAD_FORMS = np.array([2000 if 1 <= e <= 3 else 4000 if e == 4 else 0 for e in range(300)],
                       dtype=np.int32)


def _format_cells(x: np.ndarray, cells: np.ndarray) -> None:
    """Lay out :func:`format_float` of each entry of the float64 vector
    ``x`` in the rows of ``cells``, the terminator column left blank.

    The fast path takes every x in [1e-280, 10): with
    k = floor(log10 |x|), its 15 significant digits are the integer
    n = round(|x| * 10**(14 - k)), the product formed as a double-double
    to about 1e-30 relative (Dekker's exact TwoProduct with the table's
    split 10**q, plus |x| times the table's low part).  Its five 3-digit
    groups each pick a word of _GROUPS or _LEADS: the last group that is
    not 000, and every group after it, the word without trailing zeros,
    as ``%.15g`` drops them.  Every row takes the last group stripped and
    the others full; only the rows whose last group is 000 (about 1 in
    1000 probabilities, and the zeros) go through the strip loop over the
    groups before it.  +/-0 takes the same path as n = 0 and k = 0,
    which print "0".  An entry whose rounding is not decided (within 1e-6
    of a half, ties included), whose log10 gave the wrong k, or that lies
    outside that range (NaN and the infinities among them) is laid out
    from the text :func:`format_float` gives it."""
    fast = (x >= 1e-280) & (x < 10)                 # False for NaN
    a = np.where(fast, x, 1.0)
    t = np.log10(a)
    np.floor(t, out=t)
    np.subtract(14, t, out=t)
    q = t.astype(np.intp)
    p = _POW10_HI.take(q)
    p *= a
    ah = _SPLIT * a                                 # c, then c - (c - a)
    ah -= np.subtract(ah, a, out=t)
    al = a - ah
    hh, hl = _POW10_HH.take(q), _POW10_HL.take(q)
    # in place, in this order: err = al * hl - (((p - ah * hh) - al * hh) - ah * hl) + a * lo
    np.subtract(p, np.multiply(ah, hh, out=t), out=t)
    t -= np.multiply(al, hh, out=hh)
    t -= np.multiply(ah, hl, out=ah)
    err = np.multiply(al, hl, out=hl)
    err -= t
    err += np.multiply(a, _POW10_LO.take(q, out=al), out=al)
    whole = np.floor(p, out=t)
    frac = np.subtract(p, whole, out=p)
    frac += err                                     # |x| * 10**q = whole + frac
    # n has 15 digits and its rounding is decided; below 1e14, log10 gave
    # k one too high (a product under 1e14 by less than a rounding still
    # rounds to 1e14 at k, as 10 times it would at k - 1)
    fast &= (whole >= 1e14) & (whole < 1e15 - 1) & (np.abs(frac - 0.5) > 1e-6)
    n = np.where(fast, whole + (frac > 0.5), 0.0)   # in [1e14, 1e15), or 0
    e = np.where(fast, q - 14, 0)                   # -k, the printed exponent's magnitude

    top = np.floor(n / 1e9)                         # the first 6 of n's 15 digits
    low = (n - 1e9 * top).astype(np.int32)          # and the last 9
    top = top.astype(np.int32)
    mid = low // 1000
    groups = [top // 1000, top, mid // 1000, mid, low]
    for i in (1, 3, 4):     # % 1000, which numpy computes at 3 times the cost
        groups[i] -= 1000 * (groups[i] // 1000)
    words = cells.view(np.uint32)
    lead = groups[0] + _LEAD_FORMS.take(e)          # the first group's full word in _LEADS
    words[:, 1] = _LEADS.take(lead)
    for i in (1, 2, 3):
        words[:, 1 + i] = _GROUPS.take(groups[i])
    words[:, 5] = _GROUPS.take(groups[4] + 1000)
    rows = np.flatnonzero(groups[4] == 0)
    if rows.size:
        strip = np.full(rows.size, 1000, dtype=np.int32)    # 1000 while every later digit is 0
        for i in (3, 2, 1):
            g = groups[i].take(rows)
            words[rows, 1 + i] = _GROUPS.take(g + strip)
            strip *= g == 0
        words[rows, 1] = _LEADS.take(lead.take(rows) + strip)
    words[:, 0] = _HEADS.take(e)
    cells.view(np.uint64)[:, 3] = _EXPONENTS.take(e)
    slow = np.flatnonzero(~fast & (x != 0))
    if slow.size:       # over all but the terminator: no such text is longer than 22
        texts = "".join([format_float(v).ljust(_WIDTH - 1) for v in x[slow].tolist()])
        cells[slow, :-1] = np.frombuffer(texts.encode(), dtype=np.uint8).reshape(-1, _WIDTH - 1)


def dump(obj: Any, write: Callable[[bytes], Any]) -> None:
    """Write the deterministic JSON text of the report document to
    ``write`` in order, as ASCII ``bytes`` piece by piece: the text
    before, between and after the float arrays one piece each, and each
    chunk of at most _CHUNK entries of a float array its own piece."""
    text: list[str] = []
    _emit(obj, text, write, 0)
    text.append("\n")
    write("".join(text).encode("ascii"))


# The text of each scalar kind a report holds, by its exact type; any
# other scalar (a numpy scalar, a str subclass) reaches _emit, which
# raises.
_SCALARS: dict[type, Callable[[Any], str]] = {
    type(None): {None: "null"}.__getitem__,
    bool: {True: "true", False: "false"}.__getitem__,
    int: int.__repr__,
    float: format_float,
    str: _quote,
}
# Each record class's field plan, made the first time _emit meets the
# class: its members' quoted names and ": " in field order, and one call
# that gives their values in that order.
_PLANS: dict[type, tuple[list[str], Callable[[Any], tuple]]] = {}


def _emit(obj: Any, text: list[str], write: Callable[[bytes], Any], level: int) -> None:
    """Append the text of the record, dict, list, tuple or float array
    ``obj`` nested ``level`` deep to ``text``; a float array writes
    ``text`` and then its chunks to ``write`` and clears it.  A record of
    a planned class is found by its exact type, the other kinds by one
    ``isinstance`` test each in turn."""
    kind = type(obj)
    if kind in _PLANS:
        keys, members = _PLANS[kind]
        _emit_items("{}", keys, members(obj), text, write, level)
    elif isinstance(obj, dict):
        _emit_items("{}", [_quote(k) + ": " for k in obj], obj.values(), text, write, level)
    elif isinstance(obj, (list, tuple)):
        _emit_items("[]", None, obj, text, write, level)
    elif isinstance(obj, np.ndarray) and obj.dtype == np.float64 and obj.ndim and obj.size:
        _emit_floats(obj, text, write, level)
    elif dataclasses.is_dataclass(kind):          # an instance, not the class itself
        # the members dataclasses.asdict would give, without its copies;
        # attrgetter gives a tuple for two names or more
        names = [f.name for f in dataclasses.fields(obj)]
        members = (operator.attrgetter(*names) if len(names) > 1
                   else lambda record: tuple(getattr(record, name) for name in names))
        _PLANS[kind] = ([_quote(name) + ": " for name in names], members)
        _emit(obj, text, write, level)
    else:
        raise TypeError(f"cannot serialize {kind.__name__}")


def _emit_items(brackets: str, keys: list[str] | None, values: Collection[Any],
                text: list[str], write: Callable[[bytes], Any], level: int) -> None:
    """Append the ``values`` in ``brackets``, "{}" or "[]", nested ``level``
    deep: an object's after their ``keys``, each quoted and followed by
    ": ", a list's with no key (``keys`` None).  A scalar's text joins
    its separator and key in one string."""
    if not values:
        text.append(brackets)
        return
    pad = "\n" + "  " * (level + 1)
    gap, sep = brackets[0] + pad, "," + pad
    for key, value in zip(repeat("") if keys is None else keys, values):
        scalar = _SCALARS.get(type(value))
        if scalar is not None:
            text.append(gap + key + scalar(value))
        else:
            text.append(gap + key)
            _emit(value, text, write, level + 1)
        gap = sep
    text.append("\n" + "  " * level + brackets[1])


def _emit_floats(arr: np.ndarray, text: list[str], write: Callable[[bytes], Any],
                 level: int) -> None:
    """Write ``text`` and its opening bracket, then the non-empty float64
    array ``arr`` nested ``level`` deep, in the bytes :func:`_emit` gives
    its ``tolist()``, one chunk of _CHUNK entries per piece; leave its
    closing bracket in ``text``.

    Each chunk is laid out in cells (:func:`_format_cells`), one 32-byte
    row per entry, whose last byte is a terminator for the depth d of the
    axes the entry ends, and one ``bytes.translate`` drops the blanks.
    Every terminator then becomes the separator of its depth, one
    ``bytes.replace`` per depth: the brackets that close and open d axes,
    and last the ",\\n" and indentation between two entries of the
    innermost axis, which most entries end in.  The brackets and
    separators are cut from the text the list loop gives a placeholder
    list (:func:`_separators`)."""
    opener, replaces, closer = _separators(arr.ndim, level)
    flat = arr.reshape(-1)
    blocks = np.cumprod(arr.shape[:0:-1]).tolist()  # an entry ends d axes every blocks[d - 1]
    cells = np.full((min(flat.size, _CHUNK), _WIDTH), _BLANK, dtype=np.uint8)
    text.append(opener)
    write("".join(text).encode("ascii"))
    text.clear()
    for start in range(0, flat.size, _CHUNK):
        x = flat[start:start + _CHUNK]
        chunk = cells[:len(x)]
        _format_cells(x, chunk)
        ends = chunk[:, -1]
        ends[:] = _TERMINATOR
        for d, block in enumerate(blocks, 1):
            ends[(block - 1 - start) % block::block] = _TERMINATOR + d
        if start + len(x) == flat.size:
            ends[-1] = _BLANK
        data = chunk.tobytes().translate(None, b" ")
        for mark, gap in replaces:
            data = data.replace(mark, gap)
        write(data)
    text.append(closer)


@functools.cache
def _separators(ndim: int, level: int) -> tuple[str, tuple[tuple[bytes, bytes], ...], str]:
    """The opener, the (terminator, separator) pairs in the order
    :func:`_emit_floats` replaces them, and the closer of a float array of
    ``ndim`` axes nested ``level`` deep; each (ndim, level) is laid out once."""
    # depth d's separator lies between the entries of a (2, 1, ..., 1) array of
    # d + 1 axes; at d = ndim - 1 that array opens and closes as the whole one
    layouts = [_layout((2,) + (1,) * d, level + ndim - 1 - d) for d in range(ndim)]
    replaces = tuple((bytes([_TERMINATOR + d]), layouts[d][1].encode("ascii"))
                     for d in reversed(range(ndim)))    # the common d = 0 last
    return layouts[-1][0], replaces, layouts[-1][2]


def _layout(shape: tuple[int, ...], level: int) -> list[str]:
    """The text :func:`_emit` gives a non-empty array of ``shape`` nested
    ``level`` deep, split at its entries."""
    text: list[str] = []
    _emit(np.full(shape, None).tolist(), text, None, level)     # no array: nothing written
    return "".join(text).split("null")


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

