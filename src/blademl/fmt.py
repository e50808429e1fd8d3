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
    """`# key: value` comment lines recording how an artefact was produced."""
    return "".join(f"# {key}: {value}\n" for key, value in (metadata or {}).items())


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
    to path."""
    with open(path, "w", newline="") as handle:
        handle.write(metadata_lines(metadata))
        handle.write(csv_line(header))
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


def render_json(obj, indent: int = 0) -> str:
    """Serialize a nested dict/list document with 17-significant-digit reals.

    The stock json module offers no control over float formatting, so this
    renders the (small, fixed-schema) model documents directly.  json is
    imported here, as no CLI stage writes a model document.
    """
    import json

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
