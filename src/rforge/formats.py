"""Plain-text file formats for graphs, dense matrices, and weight maps.

Numbers are written with 17 significant digits, which round-trips IEEE
doubles exactly, so reading back a written file reproduces the in-memory
object bit for bit.

Edge lists:
    # comment lines start with a hash; inline comments are stripped
    n 5
    0<TAB>1<TAB>2.5
    ...
Vertex indices are 0-based; pairs are canonicalized to i < j on read;
weights must be positive and finite, and self-loops (whose weights are
checked too) are dropped with a warning.

Dense matrices (also used for point sets and operator inputs):
    rows cols
    one whitespace-separated row per line, every entry finite

Weight maps:
    index<TAB>weight
plus a JSON sidecar (same path + ".json") holding the certificate written
by the caller.
"""

from __future__ import annotations

import array
import json
import math
import os
import warnings
from pathlib import Path

import numpy as np

from .graphs import WeightedGraph


class ParseError(ValueError):
    """Input file is malformed; carries the offending 1-based line number."""

    def __init__(self, path, line_number: int, message: str):
        self.path = str(path)
        self.line_number = line_number
        super().__init__(f"{path}:{line_number}: {message}")


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _content_lines(path):
    with open(path, "r", encoding="utf-8") as handle:
        for number, raw in enumerate(handle, start=1):
            text = raw.split("#", 1)[0].strip()
            if text:
                yield number, text


def write_graph(path, g: WeightedGraph) -> None:
    lines = [f"n {g.n}"]
    lines += [f"{i}\t{j}\t{_fmt(w)}" for i, j, w in zip(g.heads.tolist(), g.tails.tolist(), g.weights.tolist())]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_graph(path) -> WeightedGraph:
    lines = _content_lines(path)
    header_no, header = next(lines, (1, None))
    if header is None:
        raise ParseError(path, 1, "empty graph file; expected a 'n <vertexcount>' header")
    parts = header.split()
    if len(parts) != 2 or parts[0] != "n":
        raise ParseError(path, header_no, f"expected header 'n <vertexcount>', got {header!r}")
    try:
        n = int(parts[1])
    except ValueError:
        raise ParseError(path, header_no, f"vertex count {parts[1]!r} is not an integer") from None
    if n < 1:
        raise ParseError(path, header_no, f"vertex count must be positive, got {n}")
    if n > np.iinfo(np.intp).max:
        raise ParseError(path, header_no, f"vertex count {n} does not fit an array index")

    heads, tails, weights = array.array("q"), array.array("q"), array.array("d")
    seen: dict[int, int] = {}  # i * n + j of each pair i < j, to its line number
    for number, text in lines:
        fields = text.split()
        if len(fields) != 3:
            raise ParseError(path, number, f"expected 'i<TAB>j<TAB>w', got {text!r}")
        try:
            i, j = int(fields[0]), int(fields[1])
            w = float(fields[2])
        except ValueError:
            raise ParseError(path, number, f"could not parse edge fields {fields!r}") from None
        if not (0 <= i < n and 0 <= j < n):
            raise ParseError(path, number, f"vertex index out of range in edge ({i}, {j})")
        i, j = min(i, j), max(i, j)
        if (key := i * n + j) in seen:
            raise ParseError(path, number, f"duplicate edge {(i, j)} (first seen on line {seen[key]})")
        if not math.isfinite(w):  # inf, nan, or a literal past the float range such as 1e400
            raise ParseError(path, number, f"edge {(i, j)} has non-finite weight {fields[2]!r}")
        if not w > 0:
            raise ParseError(path, number, f"edge {(i, j)} has nonpositive weight {w}")
        if i == j:
            warnings.warn(f"ignoring self-loop at vertex {i}; it has no effect", stacklevel=2)
            continue
        seen[key] = number
        heads.append(i)
        tails.append(j)
        weights.append(w)
    return WeightedGraph.from_arrays(n, heads, tails, weights)


def write_matrix(path, matrix: np.ndarray) -> None:
    m = np.atleast_2d(np.asarray(matrix, dtype=float))
    lines = [f"{m.shape[0]} {m.shape[1]}"]
    lines += [" ".join(_fmt(v) for v in row) for row in m]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_matrix(path) -> np.ndarray:
    """The matrix in ``path``, filled row by row as the file is read.

    Errors are raised in this order: a bad header, a data row count other
    than the header's (at the last line), the first malformed row, then the
    first non-finite value.
    """
    lines = _content_lines(path)
    header_no, header = next(lines, (1, None))
    if header is None:
        raise ParseError(path, 1, "empty matrix file; expected a 'rows cols' header")
    parts = header.split()
    if len(parts) != 2:
        raise ParseError(path, header_no, f"expected header 'rows cols', got {header!r}")
    try:
        rows, cols = int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError(path, header_no, f"header fields {parts!r} are not integers") from None
    if rows < 1 or cols < 1:
        raise ParseError(path, header_no, f"matrix shape ({rows}, {cols}) must be positive")
    # a row of cols values takes at least 2 * cols bytes, so no more rows are allocated than the file can
    # hold, whatever its header claims; a file holding more than its size said (a pipe's reads 0) grows it
    room = min(rows, (os.path.getsize(path) + 1) // (2 * cols))
    out = np.empty((room, cols if room else 0))
    count, number, malformed, nonfinite = 0, header_no, None, None
    for number, text in lines:
        if count < rows and malformed is None:  # lines past the last row or a malformed one are only counted
            fields = text.split()
            if len(fields) != cols:
                malformed = ParseError(path, number, f"expected {cols} values, found {len(fields)}")
            else:
                if count == len(out):
                    out = np.resize(out, (min(rows, 2 * count + 1), cols))  # keeps the rows read so far
                try:
                    out[count] = list(map(float, fields))
                except ValueError:
                    malformed = ParseError(path, number, f"could not parse row {fields!r}")
                else:
                    finite = np.isfinite(out[count])
                    if nonfinite is None and not finite.all():  # inf, nan, or a literal past the float range such as 1e400
                        nonfinite = ParseError(path, number, f"non-finite value {fields[int(np.argmin(finite))]!r}")
        count += 1
    if count != rows:
        raise ParseError(path, number, f"expected {rows} data rows, found {count}")
    for error in (malformed, nonfinite):
        if error is not None:
            raise error
    return out


def write_weights(path, indices, weights, certificate: dict) -> None:
    """Write index/weight pairs in ascending index order, plus the certificate sidecar."""
    idx, w = np.asarray(indices, dtype=int), np.asarray(weights, dtype=float)
    order = np.argsort(idx)
    lines = [f"{i}\t{_fmt(x)}" for i, x in zip(idx[order].tolist(), w[order].tolist())]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
    sidecar = Path(str(path) + ".json")
    sidecar.write_text(json.dumps(certificate, indent=2) + "\n", encoding="utf-8")

