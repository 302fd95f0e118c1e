"""Problem texts the benchmark feeds to fracbvp.

Every input is plain problem-file text derived from the two packaged
problems; the program under test sees only that text.

- `variant_text` scales the state-independent forcing term of a packaged
  problem by a factor c (and, for sublinear, the growth envelope a10/a20
  that bounds it, plus the declared closed forms that depend on it).
- `no_boundary_text` drops the [boundary] section, which the problem-file
  format documents as legal ("omit h_i for an uncoupled condition").

Scales come from a fixed grid of SCALE_LEVELS factors in [0.5, 2] so that
every variant a seed can draw has reference rows recorded in
reference.json.
"""

from __future__ import annotations

from pathlib import Path

PACKAGED = ("sublinear", "lipschitz")

SCALE_LEVELS = 5


def scale_of(level: int) -> float:
    """Factor 2^((level - 2)/2): 0.5, 0.707, 1, 1.414, 2 for levels 0..4."""
    if not 0 <= level < SCALE_LEVELS:
        raise ValueError(f"scale level {level} outside 0..{SCALE_LEVELS - 1}")
    return 2.0 ** ((level - 2) / 2.0)


# The state-independent forcing term of each equation, verbatim as it
# appears in both packaged problems, and the keys that carry it.
_TERMS = {"1": "2/(10+t)^2", "2": "1/(20+t)^3"}
_SCALED_KEYS = {("rhs", "f1"): "1", ("rhs", "f2"): "2",
                ("growth", "a10"): "1", ("growth", "a20"): "2"}
# Declared closed forms proportional to the forcing term.
_SCALED_EXPECTED = ("a10", "a20", "tau1")
# Declared constants that change once the boundary weights are gone.
_BOUNDARY_EXPECTED = ("lambda1", "lambda2", "L")


def packaged_text(root: Path, name: str) -> str:
    return (root / "src" / "fracbvp" / "problems" / f"{name}.prob").read_text()


def _entries(text: str):
    """Yield (section, key, line) for every line; key is None off keys."""
    section = None
    for line in text.splitlines():
        s = line.strip()
        key = None
        if s.startswith("["):
            section = s.strip("[]").strip()
        elif s and not s.startswith(("#", ";")) and "=" in s:
            key = s.split("=", 1)[0].strip()
        yield section, key, line


def variant_text(base: str, c: float) -> str:
    """`base` with its constant forcing term multiplied by c."""
    out = []
    replaced = set()
    for section, key, line in _entries(base):
        eq = _SCALED_KEYS.get((section, key))
        if eq is not None:
            term = _TERMS[eq]
            if term not in line:
                raise ValueError(f"[{section}] {key} lacks the term {term}")
            line = line.replace(term, f"{c!r}*{term}", 1)
            replaced.add(key)
        elif section == "expected" and key in _SCALED_EXPECTED:
            value = line.split("=", 1)[1].strip()
            line = f"{key} = {c!r}*({value})"
        out.append(line)
    if not {"f1", "f2"} <= replaced:
        raise ValueError("base problem has no scalable forcing terms")
    return "\n".join(out) + "\n"


def no_boundary_text(base: str) -> str:
    """`base` without its [boundary] section (h1 = h2 = absent)."""
    out = []
    for section, key, line in _entries(base):
        if section == "boundary":
            continue
        if section == "expected" and key in _BOUNDARY_EXPECTED:
            continue
        out.append(line)
    return "\n".join(out) + "\n"
