"""Independent re-validation of regcc's printed answers.

The built-in two-party functions are rebuilt here from their definitions
(not from regcc), and every printed cover, disjoint cover, protocol tree
and fooling set is checked cell by cell against them.  Certificates of
``regcc classify`` are read back from the printed document.
"""

from __future__ import annotations

import re

UNDEF = "*"


class CheckError(Exception):
    """A printed answer disagrees with the function or a pinned value."""


# ---------------------------------------------------------------------------
# function matrices: rows[x][y] in "01*", x and y are n-bit integers whose
# labels are their n-digit binary forms (most significant bit first)

def _pip2_promised(n, x, y, variant):
    """Prefix conditions at mixed positions, scanned from the most
    significant bit: TWO_SIDED wants an even count of earlier common ones
    at (0,1) and an odd one at (1,0); ZERO_SIDED wants the opposite."""
    xs, ys = format(x, "0%db" % n), format(y, "0%db" % n)
    even = True
    for a, b in zip(xs, ys):
        if a != b and even != ((a == "0") == (variant == "TWO_SIDED")):
            return False
        if a == b == "1":
            even = not even
    return True


def function_matrix(name: str, n: int, q: int | None = None,
                    variant: str | None = None) -> tuple[str, ...]:
    size = 1 << n

    def cell(x, y):
        if name == "EQ":
            return "1" if x == y else "0"
        if name == "NEQ":
            return "0" if x == y else "1"
        if name == "LT":
            return "1" if x <= y else "0"
        if name == "DISJ":
            return "1" if x & y == 0 else "0"
        if name == "PDISJ":
            common = (x & y).bit_count()
            return "1" if common == 0 else "0" if common == 1 else UNDEF
        if name == "IP":
            return "1" if (x & y).bit_count() % q == 0 else "0"
        if name == "PIP2":
            # value IP_2; TWO_SIDED promises both outputs, ZERO_SIDED only
            # the 0-outputs
            value = "1" if (x & y).bit_count() % 2 == 0 else "0"
            if value == "1" and variant == "ZERO_SIDED" or \
                    _pip2_promised(n, x, y, variant):
                return value
            return UNDEF
        raise ValueError(name)

    return tuple("".join(cell(x, y) for y in range(size)) for x in range(size))


# ---------------------------------------------------------------------------
# printed documents

def _fields(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.strip().partition(": ")
        if sep and key not in out:
            out[key] = value
    return out


def _indices(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


_RECT = re.compile(r"rows=(\S+) cols=(\S+)(?: color=(\S+))?$")


def _rect(text: str):
    match = _RECT.search(text)
    if match is None:
        raise CheckError("unreadable rectangle %r" % text)
    color = match.group(3)
    return (_indices(match.group(1)), _indices(match.group(2)),
            None if color in (None, "None") else int(color))


def _colors(rows, rect_rows, rect_cols) -> set[str]:
    return {rows[i][j] for i in rect_rows for j in rect_cols} - {UNDEF}


def check_cover(rows, text: str, z: int) -> int:
    """A cover of the z-cells by z-monochromatic rectangles; returns C^z."""
    fields = _fields(text)
    rects = [_rect(line) for line in text.splitlines()
             if line.startswith("rect: ")]
    if int(fields["count"]) != len(rects) or int(fields["color"]) != z:
        raise CheckError("cover header disagrees with its rectangles")
    covered = set()
    for r_rows, r_cols, _ in rects:
        if _colors(rows, r_rows, r_cols) - {str(z)}:
            raise CheckError("cover rectangle holds a %d-cell" % (1 - z))
        covered.update((i, j) for i in r_rows for j in r_cols)
    missing = [(i, j) for i, row in enumerate(rows)
               for j, ch in enumerate(row) if ch == str(z) and (i, j) not in covered]
    if missing:
        raise CheckError("cover misses cell %r" % (missing[0],))
    return len(rects)


def check_disjoint(rows, text: str) -> int:
    """A partition of the defined cells into monochromatic rectangles;
    returns C^D."""
    rects = [_rect(line) for line in text.splitlines()
             if line.startswith("rect: ")]
    if int(_fields(text)["count"]) != len(rects):
        raise CheckError("disjoint-cover count disagrees with its rectangles")
    seen = set()
    for r_rows, r_cols, color in rects:
        if _colors(rows, r_rows, r_cols) != {str(color)}:
            raise CheckError("disjoint-cover rectangle is not %s-monochromatic" % color)
        for cell in ((i, j) for i in r_rows for j in r_cols):
            if cell in seen:
                raise CheckError("disjoint-cover rectangles overlap at %r" % (cell,))
            seen.add(cell)
    for i, row in enumerate(rows):
        for j, ch in enumerate(row):
            if ch != UNDEF and (i, j) not in seen:
                raise CheckError("disjoint cover misses cell %r" % ((i, j),))
    return len(rects)


def check_tree(rows, text: str) -> tuple[int, int]:
    """A protocol tree: every split halves its rectangle on one side, every
    leaf is monochromatic in its stated color.  Returns (bits, leaves)."""
    fields = _fields(text)
    nodes = []
    for line in text.splitlines():
        body = line.lstrip(" ")
        if body.startswith(("split ", "leaf: ")):
            r_rows, r_cols, color = _rect(body)
            nodes.append(((len(line) - len(body)) // 2, body.split(":")[0],
                          r_rows, r_cols, color))
    pos = 0

    def walk(depth):
        # returns (height, leaves) of the subtree rooted at nodes[pos]
        nonlocal pos
        level, kind, r_rows, r_cols, color = nodes[pos]
        if level != depth:
            raise CheckError("protocol tree indentation is broken")
        pos += 1
        if kind == "leaf":
            if _colors(rows, r_rows, r_cols) - {str(color)}:
                raise CheckError("protocol leaf is not %s-monochromatic" % color)
            return 0, 1
        children = []
        for _ in range(2):
            children.append((nodes[pos][2], nodes[pos][3], walk(depth + 1)))
        (a_rows, a_cols, a), (b_rows, b_cols, b) = children
        if kind == "split rows":
            ok = a_cols == b_cols == r_cols and sorted(a_rows + b_rows) == r_rows \
                and a_rows and b_rows
        else:
            ok = a_rows == b_rows == r_rows and sorted(a_cols + b_cols) == r_cols \
                and a_cols and b_cols
        if not ok:
            raise CheckError("protocol split does not partition its rectangle")
        return 1 + max(a[0], b[0]), a[1] + b[1]

    if not nodes or nodes[0][2] != list(range(len(rows))) or \
            nodes[0][3] != list(range(len(rows[0]))):
        raise CheckError("protocol tree does not start at the whole matrix")
    height, leaves = walk(0)
    if pos != len(nodes):
        raise CheckError("protocol tree has stray nodes")
    bits = int(fields["bits"])
    if height != bits or leaves != int(fields["leaves"]):
        raise CheckError("protocol tree is %d deep with %d leaves, printed %s/%s"
                         % (height, leaves, bits, fields["leaves"]))
    return bits, leaves


def check_fooling(rows, text: str, z: int) -> int:
    """A fooling set for color z; returns its size."""
    cells = []
    for line in text.splitlines():
        if line.startswith("cell: "):
            x, y = line[len("cell: "):].split(",")
            cells.append((int(x, 2), int(y, 2)))
    if int(_fields(text)["size"]) != len(cells):
        raise CheckError("fooling-set size disagrees with its cells")
    other = str(1 - z)
    for k, (x1, y1) in enumerate(cells):
        if rows[x1][y1] != str(z):
            raise CheckError("fooling cell %r is not a %d-cell" % ((x1, y1), z))
        for x2, y2 in cells[k + 1:]:
            if rows[x1][y2] != other and rows[x2][y1] != other:
                raise CheckError("fooling cells %r and %r share a rectangle"
                                 % ((x1, y1), (x2, y2)))
    return len(cells)


def _log2ceil(k: int) -> int:
    return (k - 1).bit_length() if k > 1 else 0


def check_instance(name: str, n: int, answers: dict) -> None:
    """Cross-checks between one instance's answers and the pinned values.

    ``answers`` holds ``bits``, ``leaves``, ``disjoint`` and, per color z
    that occurs, ``("cover", z)`` and ``("fooling", z)``."""
    bits, leaves, cd = answers["bits"], answers["leaves"], answers["disjoint"]
    covers = {}
    for z in (0, 1):
        if ("cover", z) in answers:
            covers[z] = answers[("cover", z)]
            if not answers[("fooling", z)] <= covers[z] <= cd:
                raise CheckError("fooling <= C^%d <= C^D fails" % z)
    if bits < _log2ceil(cd) or leaves > 2 ** bits or cd > leaves:
        raise CheckError("D=%d, %d leaves and C^D=%d are inconsistent"
                         % (bits, leaves, cd))
    if len(covers) == 2 and \
            bits > (_log2ceil(covers[0]) + 2) * (_log2ceil(covers[1]) + 2):
        raise CheckError("D exceeds the cover-product bound")
    if name == "EQ" and (bits != n + 1 or covers[1] != 2 ** n
                         or answers[("fooling", 1)] != 2 ** n):
        raise CheckError("EQ_%d misses D = n+1, C^1 = fooling = 2^n" % n)
    if name == "LT" and answers[("fooling", 1)] != 2 ** n:
        raise CheckError("LT_%d misses fooling = 2^n" % n)


# ---------------------------------------------------------------------------
# classification documents

def certificates(text: str) -> list[tuple[str, dict[str, str]]]:
    """(kind, fields) of every certificate line; each must read replay=ok."""
    out = []
    for line in text.splitlines():
        if not line.startswith("certificate: "):
            continue
        if not line.endswith(" replay=ok"):
            raise CheckError("certificate did not replay: %s" % line)
        kind, _, rest = line[len("certificate: "):-len(" replay=ok")].partition(" ")
        # division certificates carry a tuple with spaces; their fields are
        # not read back
        fields = {} if kind.startswith("divides_") else \
            dict(tok.partition("=")[::2] for tok in rest.split())
        out.append((kind, fields))
    if not text.startswith("tier: ") or not out:
        raise CheckError("classification document without tier or certificates")
    return out
