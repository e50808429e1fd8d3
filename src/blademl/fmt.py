"""Text serialization helpers shared by the CSV and JSON writers.

Every CSV artefact has one layout: optional `# key: value` metadata lines,
then a header row, then data rows, all with `\n` line ends.
"""

import csv
import io
import itertools
import json
import math


def fmt17(x) -> str:
    """Render a real with 17 significant digits (lossless float64 round-trip)."""
    return format(float(x), ".17g")


def metadata_lines(metadata: dict | None) -> str:
    """`# key: value` comment lines recording how an artefact was produced."""
    return "".join(f"# {key}: {value}\n" for key, value in (metadata or {}).items())


def _csv_row(cells) -> str:
    """One CSV row ending in `\n`.

    csv.writer quotes a cell that holds a character of its line terminator,
    so the row is written with `\r\n` (a cell holding `\r` or `\n` is
    quoted) and that terminator is swapped for `\n`.
    """
    line = io.StringIO()
    csv.writer(line, lineterminator="\r\n").writerow(cells)
    return line.getvalue()[:-2] + "\n"


def write_lines(path, header, lines, metadata: dict | None = None) -> None:
    """Write metadata lines, the header row and the given data lines, each
    ending in `\n`, to path."""
    with open(path, "w", newline="") as handle:
        handle.write(metadata_lines(metadata))
        handle.write(_csv_row(header))
        handle.writelines(lines)


def write_csv(path, header, rows, metadata: dict | None = None) -> None:
    """Write metadata lines, the header row and the data rows to path."""
    write_lines(path, header, map(_csv_row, rows), metadata)


def float_line(key, row) -> str:
    """One data line: the key cells, then the reals of the 1-D array row,
    formatted by one `%` template into fmt17's strings."""
    template = ",".join(["%.17g"] * len(row)) + "\n"
    # The empty last cell puts the comma before the values and keeps a lone
    # empty key from being written as `""`; [:-1] drops the "\n".
    return _csv_row([*key, ""])[:-1] + template % tuple(row.tolist())


def write_float_rows(path, header, keys, rows, metadata: dict | None = None) -> None:
    """write_csv for rows of key cells then reals: data line i is
    float_line(keys[i], rows[i]).

    rows may be a 2-D array or any iterable of equal-length 1-D arrays; the
    first row is drawn before the file is opened, so a row without values
    raises without leaving a file.
    """
    rows = iter(rows)
    first = next(rows, None)
    if first is not None and len(first) == 0:
        raise ValueError("float rows need at least one value column")
    rows = () if first is None else itertools.chain([first], rows)
    write_lines(path, header, map(float_line, keys, rows), metadata)


def iter_csv(path):
    """Yield the rows of a CSV artefact, header first, as they are read.

    `#` lines are metadata only before the header; a later row that starts
    with `#` is data.
    """
    with open(path, "r", newline="") as handle:
        lines = itertools.dropwhile(lambda line: line.startswith("#"), handle)
        yield from csv.reader(lines)


def read_csv(path) -> list[list[str]]:
    """Every row of iter_csv(path) in one list."""
    return list(iter_csv(path))


def render_json(obj, indent: int = 0) -> str:
    """Serialize a nested dict/list document with 17-significant-digit reals.

    The stock json module offers no control over float formatting, so this
    renders the (small, fixed-schema) model documents directly.
    """
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key, value in obj.items():
            items.append(f'{pad}  {json.dumps(key)}: {render_json(value, indent + 1)}')
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            return "[]"
        items = [render_json(v, indent + 1) for v in obj]
        if all(not isinstance(v, (dict, list, tuple)) for v in obj):
            return "[" + ", ".join(items) + "]"
        return "[\n" + ",\n".join(f"{pad}  {s}" for s in items) + "\n" + pad + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError("cannot serialize non-finite value")
        return fmt17(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"unsupported JSON value type: {type(obj).__name__}")
