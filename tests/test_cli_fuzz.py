"""Fuzz the CLI in process: every input ends in a documented exit code.

Vector strings of `eval` and `fdlog` and each field of a desk-scale config
(q = 11, n = 3) are replaced by generated text or JSON.  Each case must
return one of the exit codes 0, 1, 2, 64 or 65 from `main`, print no
traceback and finish within CASE_SECONDS.
"""

import contextlib
import io
import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusionexp.cli import EXIT_FAIL, EXIT_FORMAT, EXIT_IO, EXIT_OK, EXIT_USAGE, main

EXIT_CODES = {EXIT_OK, EXIT_FAIL, EXIT_IO, EXIT_USAGE, EXIT_FORMAT}
# a desk-scale command takes milliseconds; a config load at the size caps
# takes about 2 s, and a fuzzed field cannot reach those sizes
CASE_SECONDS = 5.0

FUZZ = settings(max_examples=150, deadline=None, database=None)

# around the valid residues and coefficients mod 23 and 11, and their
# non-canonical spellings
decimal_texts = st.one_of(
    st.integers(-3, 30).map(str),
    st.from_regex(r"[ +\-0-9_x٣]{0,6}", fullmatch=True),
)
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=8),
              decimal_texts),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=8,
)
SUBGROUP = [1, 2, 3, 4, 6, 8, 9, 12, 13, 16, 18]  # the order-11 subgroup mod 23


def spell(entries, at, text):
    """entries as a JSON vector of decimal strings, entry at (if any) replaced by text."""
    entries = [str(e) for e in entries]
    if at < len(entries):
        entries[at] = text
    return json.dumps(entries)


def vector_texts(valid):
    """Half the time a vector of three entries from valid, one of which may be
    replaced; otherwise any text or JSON, so about a third of the texts are valid."""
    near = st.builds(spell, st.lists(st.sampled_from(valid), min_size=3, max_size=3),
                     st.integers(0, 7), decimal_texts)
    return near | st.text(max_size=24) | json_values.map(json.dumps)


# (section, key) of every config field, the two sections among them; an
# integer key stands for one coefficient of f
CONFIG_FIELDS = [(None, "version"), (None, "group"), (None, "field"),
                 ("group", "modulus"), ("group", "q"),
                 ("group", "generator"), ("field", "q"), ("field", "n"),
                 ("field", "f"), ("field", 0), ("field", 1), ("field", 2)]

BASE = '["2","4","8"]'


def run_case(argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    elapsed = time.perf_counter() - start
    assert code in EXIT_CODES, (argv, code)
    assert "Traceback" not in err.getvalue() + out.getvalue()
    assert elapsed < CASE_SECONDS, (argv, elapsed)


@pytest.fixture(scope="module")
def config_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def config(config_dir):
    path = config_dir / "sys.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["params", "--q-bits", "4", "--n", "3", "--seed", "7",
                     "--out", str(path)]) == EXIT_OK
    obj = json.loads(path.read_text())
    assert (obj["group"]["q"], obj["field"]["n"]) == ("11", 3)
    return str(path), obj


@FUZZ
@given(base=vector_texts(SUBGROUP), exp=vector_texts(range(11)))
def test_fuzz_eval_vectors(config, base, exp):
    run_case(["eval", "--config", config[0], "--base", base, "--exp", exp])


@FUZZ
@given(base=vector_texts(SUBGROUP), target=vector_texts(SUBGROUP),
       solver=st.sampled_from(["bruteforce", "bsgs", "rho"]), seed=st.integers(0, 50))
def test_fuzz_fdlog_vectors(config, base, target, solver, seed):
    run_case(["fdlog", "--config", config[0], "--base", base, "--target", target,
              "--solver", solver, "--seed", str(seed)])


@FUZZ
@given(field=st.sampled_from(CONFIG_FIELDS), value=decimal_texts | json_values,
       delete=st.booleans(),
       command=st.sampled_from(["eval", "fdlog"]))
def test_fuzz_config_fields(config_dir, config, field, value, delete, command):
    obj = json.loads(json.dumps(config[1]))
    section, key = field
    holder = obj if section is None else obj[section]
    if isinstance(key, int):
        holder = holder["f"]
    if delete and isinstance(holder, dict):
        del holder[key]
    else:
        holder[key] = value
    path = config_dir / "fuzzed.json"
    path.write_text(json.dumps(obj))
    last = ["--exp", '["3","5","7"]'] if command == "eval" else ["--target", '["16","1","2"]']
    run_case([command, "--config", str(path), "--base", BASE] + last)
