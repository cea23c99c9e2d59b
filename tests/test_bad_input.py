"""Bad input ends in an exit code, never in a traceback.

Valid ``.chi``, ``.pts``, order-type and expression inputs are mutated a few
bytes at a time and run through ``run_cli``. Every run must return 0, 1 or
2; an exception that escapes ``run_cli`` fails the test, and so does an
``error:`` line of 300 bytes or more. Only routes whose cost is bounded are
run: brute-force counts under the default oracle cap, the axiom scan,
``search --levels 4`` on 5-point records, and expressions built from small
literals.
"""

import contextlib
import io
import struct

from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from chirotri import convex, write_chi
from chirotri.cli import run_cli

_CHI = write_chi(convex(6).chi, root=convex(6).root).encode()
_PTS = b"0 0\n40 3\n23 30\n17 12\n-5 19/2\n7 -11\n"
_DB = b"".join(struct.pack("<10B", *rec) for rec in (
    (0, 0, 40, 3, 23, 30, 17, 12, 2, 25),
    (0, 0, 255, 0, 0, 255, 90, 90, 200, 30)))
_EXPRS = [b"join(triangle, chi1)", b"twist(koch(2))", b"convex(6) v triangle",
          b"meet(chik(2), flip(triangle))", b'load("x.chi", 0) ^ dc(3)']

# characters that the formats and the grammar give a meaning to, and a few
# that they do not: a superscript and an Arabic-Indic digit pass str.isdigit
_TEXT = list(b"0123456789+-/ \n#(),^\"v") + list("²١".encode())


def _mutated(seed: bytes, alphabet):
    """``seed`` after one to three deletions, insertions or replacements."""
    edit = st.tuples(st.sampled_from(["del", "ins", "rep"]),
                     st.floats(0, 1, exclude_max=True), st.sampled_from(alphabet))

    def apply(edits):
        data = bytearray(seed)
        for op, where, byte in edits:
            i = int(where * (len(data) + 1))
            if op == "ins":
                data.insert(i, byte)
            elif i < len(data):
                if op == "del":
                    del data[i]
                else:
                    data[i] = byte
        return bytes(data)

    return st.lists(edit, min_size=1, max_size=3).map(apply)


_BYTES = list(range(256))
_CASES = st.one_of(
    # most edits of a sign string keep the format and break the axioms
    st.tuples(st.just("chi"), _mutated(_CHI, list(b"+-" * 8) + _TEXT),
              st.sampled_from([["count"], ["count", "--drop-root"], ["axioms"]])),
    st.tuples(st.just("pts"), _mutated(_PTS, _TEXT),
              st.sampled_from([["count"], ["axioms"]])),
    st.tuples(st.just("bin"), _mutated(_DB, _BYTES),
              st.sampled_from([["--n", "5"], ["--n", "5", "--lenient"],
                               ["--n", "4"], ["--n", "2"]])),
    st.tuples(st.just("expr"), st.sampled_from(_EXPRS).flatmap(
        lambda e: _mutated(e, _TEXT)), st.just(["count"])))


@settings(max_examples=500, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_CASES)
def test_mutated_inputs_end_in_an_exit_code(tmp_path_factory, case):
    kind, data, argv = case
    if kind == "expr":
        argv = argv + [data.decode("utf-8", "replace")]
    else:
        path = tmp_path_factory.mktemp("bad") / f"input.{kind}"
        path.write_bytes(data)
        if kind == "bin":
            argv = ["search", "--db", str(path), "--width", "8",
                    "--levels", "4"] + argv
        else:
            argv = argv[:1] + [str(path)] + argv[1:]
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = run_cli(argv)
    event(f"{kind}: exit {code}")
    assert code in (0, 1, 2), (argv, code)
    if code == 2:
        assert err.getvalue().startswith("usage:"), argv
    for line in err.getvalue().splitlines():
        if line.startswith("error: "):
            assert len(line.encode()) < 300, (argv, line[:80])
