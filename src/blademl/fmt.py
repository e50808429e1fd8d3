"""Text serialization helpers shared by the CSV and JSON writers.

Every CSV artefact has one layout: optional `# key: value` metadata lines,
then a header row and data rows, each a csv_line ending in `\n`.
"""

import csv
import io
import itertools
import math


def fmt17(x) -> str:
    """Render a real with 17 significant digits (lossless float64 round-trip)."""
    return format(float(x), ".17g")


def metadata_lines(metadata: dict | None) -> str:
    """`# key: value` comment lines recording how an artefact was produced.
    A value holding a line break, which would end its line early, raises
    ValueError naming its key."""
    lines = []
    for key, value in (metadata or {}).items():
        if {"\n", "\r"} & set(str(value)):
            raise ValueError(f"metadata value of {key!r} holds a line break")
        lines.append(f"# {key}: {value}\n")
    return "".join(lines)


def csv_line(cells, reals=()) -> str:
    """One CSV line ending in `\n`: the cells, then the reals (a sequence
    or 1-D array) formatted by one `%` template into fmt17's strings.

    csv.writer quotes a cell that holds a character of its line terminator,
    so the cells are written with `\r\n` (a cell holding `\r` or `\n` is
    quoted) and that terminator is swapped for `\n`.
    """
    if hasattr(reals, "tolist"):
        reals = reals.tolist()
    line = io.StringIO()
    # Before reals, an empty last cell puts the comma before them and keeps
    # a lone empty cell from being written as `""`.
    csv.writer(line, lineterminator="\r\n").writerow(
        [*cells, ""] if reals else cells)
    template = ",".join(["%.17g"] * len(reals)) + "\n"
    return line.getvalue()[:-2] + template % tuple(reals)


def write_csv(path, header, lines, metadata: dict | None = None) -> None:
    """Write metadata lines, the header row and the given csv_line lines
    to path.  The metadata is rendered, and checked, before path is
    opened, so a bad value leaves an existing file whole."""
    head = metadata_lines(metadata) + csv_line(header)
    with open(path, "w", newline="") as handle:
        handle.write(head)
        handle.writelines(lines)


def iter_csv(path):
    """Yield the rows of a CSV artefact, header first, as they are read.

    `#` lines are metadata only before the header; a later row that starts
    with `#` is data.  A row csv cannot read (a cell over its field size
    limit) raises ValueError naming the file and the header or data row.
    """
    with open(path, "r", newline="") as handle:
        lines = itertools.dropwhile(lambda line: line.startswith("#"), handle)
        read = 0  # rows yielded: the header is row 0, data row i is row i
        try:
            for row in csv.reader(lines):
                yield row
                read += 1
        except csv.Error as exc:
            where = f"data row {read}" if read else "the header"
            raise ValueError(f"{path}: {exc} on {where}") from exc


def render_json(obj) -> str:
    """Serialize a nested dict/list document with 17-significant-digit reals.

    The stock json module offers no control over float formatting, so this
    renders the (small, fixed-schema) model documents directly, from a
    stack of pieces, so no recursion limit bounds a document's depth.  json
    is imported here, as no CLI stage writes a model document.
    """
    import json

    out = []
    stack = [(obj, 0)]  # text to write, or a (value, depth) to render
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        value, depth = item
        if isinstance(value, float):
            if not math.isfinite(value):
                raise ValueError("cannot serialize non-finite value")
            out.append(fmt17(value))
            continue
        if value is None or isinstance(value, (bool, int, str)):
            out.append(json.dumps(value))
            continue
        if isinstance(value, dict):
            items = [(json.dumps(key) + ": ", v) for key, v in value.items()]
            start, end = "{", "}"
        elif isinstance(value, (list, tuple)):
            items = [("", v) for v in value]
            start, end = "[", "]"
        else:
            raise TypeError(
                f"unsupported JSON value type: {type(value).__name__}")
        sep = ", "
        # A dict, or a list holding a dict or list, puts each item on a line.
        if items and (isinstance(value, dict) or any(
                isinstance(v, (dict, list, tuple)) for _, v in items)):
            pad = "  " * depth
            start, sep, end = f"{start}\n{pad}  ", f",\n{pad}  ", f"\n{pad}{end}"
        pieces = [start]
        for i, (key, v) in enumerate(items):
            pieces += [sep if i else "", key, (v, depth + 1)]
        stack += reversed([*pieces, end])
    return "".join(out)
