"""Matrix and vector file I/O: CSV and MatrixMarket array format.

CSV layout: a literal header line ``rows,cols``, a dimensions line
``<m>,<n>``, then m comma-separated rows.  MatrixMarket follows the
standard dense "array" format (column-major values, one per line).
Values are printed with Python's shortest round-trip ``repr`` so a
write/read cycle reproduces every float bit-exactly.

Both directions work in bulk: the writers map ``repr`` over ``tolist()``
(Python floats, whose ``repr`` is :func:`format_float`) and the readers
hand whole token lists to ``np.array(tokens, dtype=np.float64)``, which
parses each ``str`` with Python's own float parser, so the readers accept
exactly the tokens ``float()`` accepts.  Only a failed conversion goes
back token by token, to name the first bad token in the error.

Vectors are stored as single-column matrices; the readers also accept
single-row files.
"""

import re

import numpy as np

from .errors import InputError
from .linalg import require_matrix, require_vector

MM_HEADER = "%%MatrixMarket matrix array real general"

# The MatrixMarket banner after any leading whitespace; ``\s`` matches
# exactly what ``str.lstrip()`` strips, and matching copies no text.
_MM_BANNER = re.compile(r"\s*%%MatrixMarket")


def format_float(value):
    """Shortest decimal string that round-trips to the same float64."""
    return repr(float(value))


def format_rows(a, sep=","):
    """Rows of a 2-D array as ``sep``-joined :func:`format_float` strings.

    One row at a time goes through ``tolist``, so only one row of Python
    floats is alive at once.
    """
    return [sep.join(map(repr, row.tolist()))
            for row in np.asarray(a, dtype=np.float64)]


def _parse_float(token, where):
    try:
        return float(token)
    except ValueError as exc:
        raise InputError(f"cannot parse number {token!r} in {where}") from exc


def _parse_floats(tokens, where):
    """float64 array of ``tokens`` in one conversion.

    On failure the tokens are parsed one at a time, so the error names
    the first one ``float()`` rejects.
    """
    try:
        return np.array(tokens, dtype=np.float64)
    except ValueError:
        for token in tokens:
            _parse_float(token, where)
        raise


def _shape(line, sep, where):
    """(m, n) from a dimension line of two positive integers split by ``sep``."""
    try:
        m, n = map(int, line.split(sep))
    except ValueError as exc:
        raise InputError(f"{where}: bad dimension line {line!r}") from exc
    if m < 1 or n < 1:
        raise InputError(f"{where}: dimensions must be positive, got {m}x{n}")
    return m, n


# ---------------------------------------------------------------------------
# CSV

def dump_matrix_csv(a):
    a = require_matrix(a)
    m, n = a.shape
    lines = ["rows,cols", f"{m},{n}", *format_rows(a)]
    return "\n".join(lines) + "\n"


def load_matrix_csv(text, where="csv input"):
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise InputError(f"{where} is empty")
    start = 0
    if lines[0].replace(" ", "") == "rows,cols":
        start = 1
    if start >= len(lines):
        raise InputError(f"{where} has no dimension line")
    m, n = _shape(lines[start], ",", where)
    body = lines[start + 1:]
    if len(body) != m:
        raise InputError(f"{where}: expected {m} data rows, found {len(body)}")
    out = np.empty((m, n))
    for i, line in enumerate(body):
        parts = line.split(",")
        if len(parts) != n:
            raise InputError(
                f"{where}: row {i + 1} has {len(parts)} entries, expected {n}"
            )
        out[i] = _parse_floats(parts, f"{where} row {i + 1}")
    return require_matrix(out, where)


# ---------------------------------------------------------------------------
# MatrixMarket (dense array format)

def dump_matrix_mm(a):
    a = require_matrix(a)
    m, n = a.shape
    # array format stores columns contiguously, one value per line
    lines = [MM_HEADER, f"{m} {n}", *format_rows(a.T, sep="\n")]
    return "\n".join(lines) + "\n"


def load_matrix_mm(text, where="matrixmarket input"):
    lines = text.splitlines()
    # read_matrix sniffs the header after leading whitespace, so skip blank lines
    first = next((k for k, ln in enumerate(lines) if ln.strip()), None)
    if first is None:
        raise InputError(f"{where} is empty")
    header = lines[first].strip().lower().split()
    if header[:2] != ["%%matrixmarket", "matrix"] or header[2:5] != [
        "array", "real", "general",
    ]:
        raise InputError(
            f"{where}: unsupported MatrixMarket header {lines[first]!r} "
            "(need 'matrix array real general')"
        )
    rest = [ln for ln in map(str.strip, lines[first + 1:])
            if ln and ln[0] != "%"]
    if not rest:
        raise InputError(f"{where} has no dimension line")
    m, n = _shape(rest[0], None, where)
    values = rest[1:]
    if len(values) != m * n:
        raise InputError(
            f"{where}: expected {m * n} values, found {len(values)}"
        )
    # column-major values: read as the rows of A^T
    return require_matrix(
        np.ascontiguousarray(_parse_floats(values, where).reshape(n, m).T), where)


# ---------------------------------------------------------------------------
# path-level helpers

def _is_mm_path(path):
    return str(path).lower().endswith((".mtx", ".mm"))


def read_text(path):
    """The ASCII text of ``path``; a file that cannot be opened or is not
    ASCII raises ``InputError("cannot read <path>: ...")``."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def write_text(path, text):
    """Write ``text`` to ``path`` as ASCII with ``\\n`` line ends."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(text)


def write_matrix(path, a):
    write_text(path, dump_matrix_mm(a) if _is_mm_path(path) else dump_matrix_csv(a))


def read_matrix(path):
    text = read_text(path)
    if _MM_BANNER.match(text) or _is_mm_path(path):
        return load_matrix_mm(text, where=str(path))
    return load_matrix_csv(text, where=str(path))


def write_vector(path, u):
    u = require_vector(u)
    write_matrix(path, u.reshape(-1, 1))


def read_vector(path):
    a = read_matrix(path)
    if a.shape[1] == 1:
        return a[:, 0].copy()
    if a.shape[0] == 1:
        return a[0, :].copy()
    raise InputError(
        f"{path}: expected a single-column or single-row vector, got {a.shape}"
    )
