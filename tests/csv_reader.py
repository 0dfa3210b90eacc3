"""Read a CSV written by ``cvqkd_ps.emit_csv`` back, for the tests."""

from cvqkd_ps import SweepResult


def parse_csv(path) -> SweepResult:
    """Read a file produced by emit_csv back into a SweepResult."""
    metadata = {}
    columns = None
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("# "):
                key, _, value = line[2:].partition("=")
                metadata[key] = value
                continue
            cells = line.split(",")
            if columns is None:
                columns = tuple(cells)
                continue
            row = []
            for cell in cells:
                try:
                    row.append(float(cell))
                except ValueError:
                    row.append(cell)
            rows.append(tuple(row))
    if columns is None:
        raise ValueError(f"no header found in {path}")
    return SweepResult(metadata=metadata, columns=columns, rows=tuple(rows))
