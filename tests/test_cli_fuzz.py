"""Hostile command lines interleaved with valid queries in one process.

The CLI builds its parser once per process, so this checks that a parse
leaves nothing behind: every call ends in exit 0, 1 or 3 with at most a
one-line message, and each valid query prints the document the same argv
prints in a fresh interpreter.  Every computing input stays below 10**6.
"""

import contextlib
import functools
import io
import os
import pathlib
import subprocess
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

import twoclass.cli as cli

SRC = pathlib.Path(cli.__file__).resolve().parent.parent
BIG_PRIME = str(2**64 + 13)  # beyond the deterministic primality range

VALID = [
    ["classify", "1365"],
    ["classify", "105", "--verify"],
    ["unit", "94"],
    ["unit", "13"],
    ["classgroup", "1365"],
    ["classgroup", "136", "--ordinary"],
    ["s1s2", "10920"],
    ["enumerate", "--min", "3", "--max", "60", "--csv"],
    ["verify", "--max", "120"],
    ["find-primes", "--mod8", "5,5,7,3", "--symbols", "2,1=-1;3,1=-1;4,3=-1"],
]

# negative, 0, 1, even, non-square-free, and a prime >= 2**64
NUMBERS = ["-5", "0", "1", "2", "4", "6", "9", "12", "18", BIG_PRIME]
JUNK = ["abc", "1.5", "", "0x10", "1e3", "--bogus"]
values = st.sampled_from(NUMBERS + JUNK)
# a sweep's --max >= 2**64 would tabulate a sieve of sqrt(--max) entries
small_values = st.sampled_from([v for v in NUMBERS + JUNK if v != BIG_PRIME])


def _sweep(command):
    # --max stays small: no sweep runs long
    extras = st.one_of(
        st.just([]),
        st.tuples(st.just("--min"), values).map(list),
        st.tuples(st.just("--oracle-limit"), values).map(list),
        st.tuples(st.just("--shape"), st.sampled_from(["p,p,q,q", "zz", ""])).map(list),
    )
    return st.builds(
        lambda top, extra: [command, "--max", top, *extra], small_values, extras
    )


hostile = st.one_of(
    # classgroup stops a D >= 2**64 at its oracle limit
    st.tuples(
        st.sampled_from(["classify", "unit", "s1s2", "classgroup"]), values
    ).map(list),
    st.builds(
        lambda v: ["classify", "105", "--verify", "--oracle-limit", v], values
    ),
    st.sampled_from(
        [
            ["frobnicate"],
            [],
            ["--bogus"],
            ["classify"],
            ["unit", "7", "9"],
            ["classify", "15", "--bogus"],
            ["classgroup", "12", "--ordinary", "--narrow"],
            ["enumerate"],
            ["find-primes"],
        ]
    ),
    _sweep("enumerate"),
    _sweep("verify"),
    st.builds(
        lambda mod8, bound: ["find-primes", "--mod8", mod8, "--bound", bound],
        st.sampled_from(["abc", "9", "", "1,2", "-1", "3,3"]),
        st.sampled_from(["-5", "0", "1", "100", "abc"]),
    ),
)


@functools.cache
def _fresh(argv: tuple) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "twoclass.cli", *argv],
        capture_output=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout.decode()  # bytes as written: CSV rows end in \r\n


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    st.lists(
        st.one_of(hostile, st.sampled_from(VALID).map(tuple)), min_size=1, max_size=10
    )
)
def test_reused_parser_keeps_no_state(calls):
    parser = cli._build_parser()
    for argv in calls:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.run(list(argv), out)
        message = err.getvalue()
        assert code in (0, 1, 3), (argv, code, message)
        if code:
            assert message.endswith("\n") and message.count("\n") == 1, (argv, message)
            assert message.strip(), argv
        else:
            assert message == "", (argv, message)
        if isinstance(argv, tuple):  # a valid query
            assert code == 0, (argv, message)
            assert out.getvalue() == _fresh(argv), argv
    assert cli._build_parser() is parser
