"""Fuzz the CLI in process: every input ends in a documented exit code.

Vector strings of `eval` and `fdlog`, each field of a desk-scale config
(q = 11, n = 3), the whole config file and every integer flag are replaced
by generated text or JSON, deeply nested JSON among it.  Each case must
return one of the exit codes 0, 1, 2, 64 or 65 from `main`, print no
traceback and finish within CASE_SECONDS.  Valid flag values stay at desk
scale (--q-bits <= 12, --n <= 4, --trials <= 3), so that a case that passes
every check still finishes in time.

The flag parser is fuzzed against its argparse oracle: argv drawn from each
command's flag vocabulary must give the same usage error, help or fields.
The draws leave out the argv that parse_args reads by design otherwise
than argparse does on some Python version, pinned in test_cli.py instead:
a bare flag followed by a token that starts with "-", which parse_args
takes as the value and argparse guesses about; help before an ambiguous
prefix, which parse_args reads as help, in argv's order, and argparse as
the ambiguity it checks first; a -h cluster such as -hx, which argparse
3.13 reads as help; and "--", which argparse reads as the end of flags.
"""

import contextlib
import io
import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusionexp import cli
from fusionexp.cli import (
    EXIT_FAIL,
    EXIT_FORMAT,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    MAX_CONFIG_BYTES,
    MAX_DEGREE,
    MAX_MODULUS_BITS,
    MAX_TRIALS,
    UsageError,
    main,
    parse_args,
)
from helpers import build_parser

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


def nest(depth, opener, closed):
    """depth nested JSON arrays or objects around a string, closed or cut off."""
    closer = {"[": "]", '{"k":': "}"}[opener]
    return opener * depth + ('"3"' + closer * depth if closed else "")


def nested_texts(deepest):
    """nest() at depths on both sides of the decoder's recursion limit (about
    1,000), and up to deepest."""
    return st.builds(nest, st.integers(0, 1_500) | st.integers(0, deepest),
                     st.sampled_from(["[", '{"k":']), st.booleans())


def flag_texts(valid, over):
    """Text of an integer flag: three times in four a value drawn from valid,
    else a value from `over` up (past a cap), more digits than int() converts,
    or a spelling that is not ASCII digits only."""
    invalid = st.one_of(
        st.integers(over, 1 << 80).map(str),
        st.integers(4_290, 4_400).map(lambda k: "9" * k),
        decimal_texts.filter(lambda t: not (t.isascii() and t.isdigit())),
    )
    return st.integers(0, 3).flatmap(lambda k: valid.map(str) if k else invalid)


seed_texts = flag_texts(st.integers(0, 1 << 64), 1 << 64)


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


@FUZZ
@given(q_bits=flag_texts(st.integers(0, 12), MAX_MODULUS_BITS),
       n=flag_texts(st.integers(0, 4), MAX_DEGREE + 1), seed=seed_texts)
def test_fuzz_params_flags(q_bits, n, seed):
    run_case(["params", "--q-bits", q_bits, "--n", n, "--seed", seed])


@FUZZ
@given(degrees=st.lists(flag_texts(st.integers(0, 7), 6), min_size=1, max_size=6))
def test_fuzz_vectors_degree_list(degrees):
    run_case(["vectors", "--n", ",".join(degrees)])


@FUZZ
@given(solver=st.sampled_from(["bruteforce", "bsgs", "rho"]), seed=seed_texts)
def test_fuzz_fdlog_seed(config, solver, seed):
    run_case(["fdlog", "--config", config[0], "--base", BASE, "--target", '["16","1","2"]',
              "--solver", solver, "--seed", seed])


@FUZZ
@given(which=st.sampled_from(["dh", "elgamal", "vss", "reductions"]), seed=seed_texts,
       trials=flag_texts(st.integers(0, 3), MAX_TRIALS + 1))
def test_fuzz_demo_flags(config, which, seed, trials):
    run_case(["demo", "--config", config[0], "--which", which, "--seed", seed,
              "--trials", trials])


@FUZZ
@given(nested=nested_texts(6_000), command=st.sampled_from(["eval", "fdlog"]), first=st.booleans())
def test_fuzz_nested_vectors(config, nested, command, first):
    vectors = [BASE, '["3","5","7"]']
    vectors[0 if first else 1] = nested
    last = "--exp" if command == "eval" else "--target"
    run_case([command, "--config", config[0], "--base", vectors[0], last, vectors[1]])


@FUZZ
@given(nested=nested_texts(MAX_CONFIG_BYTES), field=st.sampled_from([None] + CONFIG_FIELDS))
def test_fuzz_nested_configs(config_dir, config, nested, field):
    """The whole file, or one field of the config, is nested JSON text."""
    obj = json.loads(json.dumps(config[1]))
    if field is None:
        text = nested
    else:
        section, key = field
        holder = obj if section is None else obj[section]
        if isinstance(key, int):
            holder = holder["f"]
        holder[key] = "@nested@"
        text = json.dumps(obj).replace('"@nested@"', nested)
    path = config_dir / "nested.json"
    path.write_text(text)
    run_case(["eval", "--config", str(path), "--base", BASE, "--exp", '["3","5","7"]'])


FLAGS = {command: tuple(flags) for command, (_, _, flags) in cli._commands().items()}
CHOICES = sorted({c for _, _, flags in cli._commands().values()
                  for parse, _ in flags.values() if isinstance(parse, tuple) for c in parse})
# digits, non-digits, every choice, JSON arrays and texts that start with "-"
flag_values = st.sampled_from([
    "0", "7", "12", "abc", "1_0", " 3", "", "\u0663", *CHOICES, '["2","4"]', '["1", "2"]',
    "-", "-1", "-.5", "-x", "-1 2", "-h", "--q", "--zz z", "-x=1",
])
# no flag of any command, or (--=1) a prefix of them all
unknown_flags = st.sampled_from(["--zz", "--seedy", "-x", "--=1", "---n"])


@st.composite
def flag_words(draw, command):
    """--<name> for a flag of command or help, or a prefix of it; ambiguous
    prefixes such as fdlog's --s included."""
    word = "--" + draw(st.sampled_from(FLAGS[command] * 3 + ("help",)))
    return word[:draw(st.integers(3, len(word)))]


@st.composite
def cli_argvs(draw):
    """A command, its required flags, and up to four flags, values or unknown
    flags inserted among them, the missing values of a bare flag included."""
    command = draw(st.sampled_from(sorted(FLAGS)))
    items = [["--" + name, draw(st.sampled_from(choices) if isinstance(choices, tuple)
                                else st.sampled_from(["7", '["2","4"]']) | flag_values)]
             for name, (choices, default) in cli._commands()[command][2].items()
             if default is cli._REQUIRED]
    item = st.one_of(
        st.tuples(flag_words(command), flag_values).map(list),
        st.builds(lambda w, v: [f"{w}={v}"], flag_words(command), flag_values),
        flag_words(command).map(lambda w: [w]),
        flag_values.map(lambda v: [v]),
        unknown_flags.map(lambda w: [w]),
    )
    items = draw(st.permutations(items + draw(st.lists(item, max_size=4))))
    first = draw(st.sampled_from([command] * 14 + ["-h", "--help", "--he", "--help=x",
                                                  "nonsense", "-", ""]))
    return [first] + [token for tokens in items for token in tokens]


def names(command, token):
    """The flags of command, help included, that a token --<text>[=value] may
    stand for: the one named text, else those whose names start with it."""
    text = token.partition("=")[0][2:]
    found = [n for n in (*FLAGS[command], "help") if n.startswith(text)]
    return [] if token[:2] != "--" else [text] if text in found else found


def read_alike(argv):
    """Whether argv is none of the cases parse_args reads by design otherwise
    than argparse: a token that starts with "-" after a bare flag, or help
    before an ambiguous prefix (see the module docstring)."""
    if argv[0] not in FLAGS:
        return True
    helped = False
    for before, token in zip(argv, argv[1:]):
        if token[:1] == "-" and "=" not in before and names(argv[0], before) not in ([], ["help"]):
            return False
        helped = helped or token == "-h" or "=" not in token and names(argv[0], token) == ["help"]
        if helped and len(names(argv[0], token)) > 1:
            return False
    return True


def oracle_reading(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            return vars(build_parser().parse_args(argv))
        except UsageError:
            return "usage error"
        except SystemExit as exc:
            assert exc.code == 0
            return "help"


def reading(argv):
    try:
        args = parse_args(argv)
    except UsageError:
        return "usage error"
    return "help" if isinstance(args, str) else vars(args)


@settings(max_examples=600, deadline=None, database=None)
@given(argv=cli_argvs().filter(read_alike))
def test_parse_args_agrees_with_argparse(argv):
    assert reading(argv) == oracle_reading(argv)
