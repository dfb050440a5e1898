"""Malformed input gets an exit code and a message, never a traceback.

Seeded mutations of small DIMACS files, and bad values for one engine flag at
a time, go through `cli.main` in-process.  Every case keeps a tiny budget:
the budget flags are only ever given invalid values, never large valid ones.
"""

import random

import pytest

from colorica.cli import main
from colorica.graphs import mycielski_graph, write_dimacs

BUDGET = {"--decades": "2", "--generations": "2", "--population-size": "12"}

FILES = {
    "k4": "c complete\np edge 4 6\ne 1 2\ne 1 3\ne 1 4\ne 2 3\ne 2 4\ne 3 4\n",
    "c5": "p edge 5 5\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 5 1\n",
    "myciel3": write_dimacs(mycielski_graph(4)),
}

# a huge, a negative, a fractional, a non-numeric, an exponent, a nan and a
# non-ASCII digit (which int() reads as 3)
NUMBERS = [str(10**20), "-7", "1.5", "x", "1e3", "nan", "٣"]
LINES = ["e 1 1", "e 9 1", "p edge 100000 0"]

FLAG_VALUES = ["0", "-1", "nan", "inf", "-inf", "1e308", str(10**20), "x", "", "1e-320"]
FLAGS = [
    "--k-max", "--penalty", "--seed", "--population-size",
    "--imperialist-fraction", "--revolution-rate", "--uniting-threshold",
    "--damp-ratio", "--xi", "--mutation-rate", "--selection-probability",
    "--elitism", "--chromatic", "--decades", "--generations",
]


def _mutate(text: str, rnd: random.Random) -> bytes:
    """One random mutation of a DIMACS text."""
    lines = [line.split() for line in text.splitlines()]
    spots = [(i, j) for i, line in enumerate(lines) for j in range(len(line))]
    i, j = rnd.choice(spots)
    kind = rnd.randrange(6)
    if kind == 0:
        del lines[i][j]
    elif kind == 1:
        lines[i].insert(j, lines[i][j])
    elif kind == 2:
        numeric = [(a, b) for a, b in spots if lines[a][b].isdigit()]
        a, b = rnd.choice(numeric)
        lines[a][b] = rnd.choice(NUMBERS)
    elif kind == 3:
        lines.insert(rnd.randrange(len(lines) + 1), rnd.choice(LINES).split())
    out = "\n".join(" ".join(line) for line in lines) + "\n"
    if kind == 4:
        return out[: rnd.randrange(len(out))].encode()
    if kind == 5:
        return out.encode() + b"\xff\xfe\x80"
    return out.encode()


def _check(argv, capsys) -> str | None:
    """What is wrong with how the CLI ends on `argv`, or None."""
    try:
        code = main(argv)
    except Exception as exc:  # an escaping exception is the failure sought
        return f"{argv}: raised {exc!r}"
    out, err = capsys.readouterr()
    if code not in (0, 1, 2, 3):
        return f"{argv}: exit {code}"
    if code == 1 and not err.strip():
        return f"{argv}: exit 1 with an empty stderr"
    if "Traceback" in out + err:
        return f"{argv}: traceback printed"
    return None


def _budget(argv, flag=None, value=None):
    given = dict(BUDGET)
    if flag is not None:
        given.pop(flag, None)
        argv = argv + [f"{flag}={value}"]
    return argv + [f"{k}={v}" for k, v in given.items()]


def test_mutated_dimacs_files(tmp_path, capsys):
    rnd = random.Random(20261018)
    bad = []
    for case in range(120):
        name = rnd.choice(sorted(FILES))
        path = tmp_path / f"{name}-{case}.col"
        path.write_bytes(_mutate(FILES[name], rnd))
        for argv in (
            _budget(["solve", str(path)]),
            _budget(["bench", str(path), "--runs", "1", "--format", "json"]),
            ["oracle", str(path)],
        ):
            bad.append(_check(argv, capsys))
    assert [b for b in bad if b] == []


@pytest.mark.parametrize(
    "base",
    [["solve", "--algo", "dica"], ["solve", "--algo", "ga"], ["bench", "--runs", "1", "--format", "json"]],
    ids=["solve-dica", "solve-ga", "bench"],
)
def test_bad_engine_flag_values(base, tmp_path, capsys):
    path = tmp_path / "k4.col"
    path.write_text(FILES["k4"])
    bad = []
    for flag in FLAGS:
        for value in FLAG_VALUES:
            if flag in ("--decades", "--generations") and value == str(10**20):
                continue  # a valid budget, and a large one
            if flag == "--chromatic" and base[0] == "bench":
                value = f"k4={value}"
            bad.append(_check(_budget(base + [str(path)], flag, value), capsys))
    assert [b for b in bad if b] == []
