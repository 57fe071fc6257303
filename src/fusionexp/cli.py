"""Command-line front end, and the one owner of the JSON interchange format.

Subcommands: parameter generation, symbolic coefficient-matrix dumps,
tuple exponentiation, tuple discrete logs, and protocol demos.  Machine
output is JSON on stdout; diagnostics go to stderr.  Exit codes: 0 success,
1 computational failure, 2 I/O error, 64 usage error, 65 malformed input.

Flags are read from one table of commands (`_commands`) by `parse_args`:
`--flag value` or `--flag=value`, a unique prefix for a flag's name, -h or
--help for usage.  As with POSIX getopt, a bare flag's value is the next
token, whatever it holds.

In the interchange format every integer is a decimal string of ASCII
digits (`parse_decimal`): a config file holds the group and field
parameters, and a tuple base or a field exponent is a JSON array of n such
strings.  Everything read is untrusted: sizes are capped first, and values
are then built with the library's checked constructors.
"""

from __future__ import annotations

import json
import os
import random
import sys
from types import SimpleNamespace

from .dlp import (
    BRUTE_CAP,
    FdlogInstance,
    dlog_bsgs,
    dlog_pollard_rho,
    fdlog_bruteforce,
    fdlog_solve,
)
from .errors import CapExceeded, FusionExpError
from .field import (
    FieldElement,
    FieldParams,
    fe_add,
    fe_one,
    fe_random,
    find_irreducible,
    lambda_symbolic,
    make_field_params,
)
from .fusion import FusionBase, fusion_pow, scalar_embed, unit_embed
from .group import GroupParams, gen_group_params, generator_element, group_element
from .protocols import (
    VssShare,
    fdh_keygen,
    fdh_shared,
    felgamal_decrypt,
    felgamal_encrypt,
    felgamal_keygen,
    vss_check,
    vss_reconstruct,
    vss_split,
)
from .reductions import run_reduction_matrix

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_IO = 2
EXIT_USAGE = 64
EXIT_FORMAT = 65

SCHEMA_VERSION = "1"

# Size caps on parameters from outside (a config file or params flags),
# checked before any primality or irreducibility test, whose cost grows
# with them.
MAX_MODULUS_BITS = 2048  # P and q
MAX_DEGREE = 64  # n: the Frobenius steps take about n^3 operations mod q
MAX_FIELD_BITS = 8192  # n * bits(q): bounds the cost of the power X^q
# A config within the caps above takes under 6 kB in params' own format.
MAX_CONFIG_BYTES = 1 << 16
# params draws candidates at random until one fits, so its time is random
# and grows fast with the sizes: generation has tighter caps than a config
# that is read (the README gives the times measured within them).
MAX_PARAMS_Q_BITS = 512  # the safe-prime search
MAX_PARAMS_DEGREE = 32  # the irreducible search: one X^q power per draw
# A demo reductions trial runs every arrow once, and its exhaustive scans
# make its time grow with the field order q^n: about 9 ms at q = 11 and
# n = 4, about 0.3 s at a 20-bit q and n = 1.  So trials * q^n is capped at
# MAX_TRIALS * 11^4, the largest desk-scale run.
MAX_TRIALS = 1000

# The five reference moduli whose coefficient matrices the vectors command dumps.
VECTOR_MODULI = {
    1: (0,),             # X
    2: (1, 0),           # X^2 + 1
    3: (1, 1, 0),        # X^3 + X + 1
    4: (1, 1, 0, 0),     # X^4 + X + 1
    5: (1, 0, 1, 0, 0),  # X^5 + X^2 + 1
}


class UsageError(Exception):
    pass


class FormatError(Exception):
    pass


def parse_decimal(text: str) -> int:
    """Non-negative integer from a decimal string of ASCII digits only.

    The interchange format writes every integer as str(value), so a sign,
    whitespace, an underscore or a non-ASCII digit (all of which int()
    would take) is a ValueError here.
    """
    if not (isinstance(text, str) and text.isascii() and text.isdigit()):
        raise ValueError(f"expected a decimal string of ASCII digits, got {text!r}")
    return int(text)


def _emit(obj, out_path: str | None = None) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    print(text)


def _resolve_seed(seed: int | None) -> int:
    if seed is not None:
        return seed
    env = os.environ.get("FUSION_EXP_SEED")
    if env is not None:
        try:
            return parse_decimal(env)
        except ValueError as exc:
            raise FormatError(f"FUSION_EXP_SEED is not an integer: {env!r}") from exc
    return 0


def _decimals(value: FusionBase | FieldElement) -> list[str]:
    """A tuple base or a field element as a JSON array of decimal strings."""
    ints = value.coeffs if isinstance(value, FieldElement) else (
        c.residue for c in value.components)
    return [str(v) for v in ints]


def _size_error(modulus_bits: int, q_bits: int, n: int) -> str | None:
    """What breaks the size caps, or None when the sizes are within them."""
    if modulus_bits > MAX_MODULUS_BITS or q_bits > MAX_MODULUS_BITS:
        return f"P and q may have at most {MAX_MODULUS_BITS} bits"
    if n > MAX_DEGREE:
        return f"n may be at most {MAX_DEGREE}, got {n}"
    if n * q_bits > MAX_FIELD_BITS:
        return f"n * bits(q) may be at most {MAX_FIELD_BITS}, got {n * q_bits}"
    return None


def load_system_config(path: str) -> tuple[GroupParams, FieldParams]:
    try:
        # OSError passes through (exit 2); undecodable bytes are a ValueError
        with open(path, "rb") as fh:
            data = fh.read(MAX_CONFIG_BYTES + 1)
        if len(data) > MAX_CONFIG_BYTES:
            raise FormatError(f"config too large: more than {MAX_CONFIG_BYTES} bytes")
        obj = json.loads(data.decode("utf-8"))
        if "version" not in obj or obj["version"] != SCHEMA_VERSION:
            raise FormatError(f"config schema version must be {SCHEMA_VERSION!r}")
        group, field = obj["group"], obj["field"]
        modulus, q, generator = (parse_decimal(group[k]) for k in ("modulus", "q", "generator"))
        field_q, n, f = parse_decimal(field["q"]), field["n"], field["f"]
        if type(n) is not int:
            raise ValueError(f"field degree n must be a JSON integer, got {n!r}")
        if not isinstance(f, list):
            raise ValueError("field modulus f must be a JSON array")
        # both orders are capped before they are compared
        problem = _size_error(modulus.bit_length(), max(q, field_q).bit_length(), n)
        if problem:
            raise FormatError(f"config too large: {problem}")
        if q != field_q:
            raise FormatError("group order and field characteristic differ")
        f_low = tuple(parse_decimal(c) for c in f)
        return GroupParams(modulus, q, generator), FieldParams(q, n, f_low)
    except (RecursionError, KeyError, TypeError, ValueError, FusionExpError) as exc:
        # json.loads raises RecursionError on arrays or objects nested too deep
        raise FormatError(f"bad config {path}: {exc}") from exc


def _vector(text: str, n: int, what: str) -> list[int]:
    """The n integers of a JSON array of decimal strings, an argument named what."""
    try:
        data = json.loads(text)
        if not isinstance(data, list):
            raise ValueError("expected a JSON array of decimal strings")
        # outside input: its length is checked before any per-element work
        if len(data) != n:
            raise ValueError(f"need {n} entries, got {len(data)}")
        return [parse_decimal(x) for x in data]
    except (RecursionError, ValueError) as exc:
        raise FormatError(f"bad {what}: {exc}") from exc


def _base(group: GroupParams, fld: FieldParams, text: str, what: str) -> FusionBase:
    residues = _vector(text, fld.n, what)
    try:
        return FusionBase(group, fld, tuple(group_element(group, r) for r in residues))
    except ValueError as exc:  # a residue outside the order-q subgroup
        raise FormatError(f"bad {what}: {exc}") from exc


def cmd_params(args) -> int:
    if args.q_bits < 4:
        raise UsageError(f"--q-bits must be >= 4, got {args.q_bits}")
    if args.n < 1:
        raise UsageError(f"--n must be >= 1, got {args.n}")
    if args.q_bits > MAX_PARAMS_Q_BITS or args.n > MAX_PARAMS_DEGREE:
        raise UsageError(f"params takes --q-bits at most {MAX_PARAMS_Q_BITS} and --n at "
                         f"most {MAX_PARAMS_DEGREE}, got {args.q_bits} and {args.n}")
    # P = 2q + 1 has one bit more than q
    problem = _size_error(args.q_bits + 1, args.q_bits, args.n)
    if problem:
        raise UsageError(f"--q-bits {args.q_bits} --n {args.n}: {problem}")
    seed = _resolve_seed(args.seed)
    group = gen_group_params(args.q_bits, seed)
    if args.n == 2 and group.q % 4 == 3:
        fld = make_field_params(group.q, 2, [1, 0])
    else:
        fld = make_field_params(group.q, args.n, find_irreducible(group.q, args.n, seed))
    _emit({
        "version": SCHEMA_VERSION,
        "group": {"modulus": str(group.modulus), "q": str(group.q),
                  "generator": str(group.generator)},
        "field": {"q": str(fld.q), "n": fld.n, "f": [str(c) for c in fld.f_low]},
    }, args.out)
    return EXIT_OK


def lambda_entry_expr(coeffs: tuple[int, ...]) -> str:
    """Render one symbolic entry, e.g. (1, 0, -1) -> 'y0-y2'."""
    terms = []
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        sign = "-" if c < 0 else ("+" if terms else "")
        mag = abs(c)
        terms.append(f"{sign}{mag}*y{k}" if mag != 1 else f"{sign}y{k}")
    return "".join(terms) if terms else "0"


def cmd_vectors(args) -> int:
    try:
        degrees = sorted({parse_decimal(s) for s in args.n.split(",")})
    except ValueError as exc:
        raise UsageError(f"--n must be a comma-separated list of degrees: {exc}")
    for n in degrees:
        if n not in VECTOR_MODULI:
            raise UsageError(f"unsupported degree {n}; choose from 1..5")
    out = {}
    for n in degrees:
        sym = lambda_symbolic(n, VECTOR_MODULI[n])
        out[str(n)] = [[lambda_entry_expr(e) for e in row] for row in sym]
    _emit(out, args.out)
    return EXIT_OK


def cmd_eval(args) -> int:
    group, fld = load_system_config(args.config)
    base = _base(group, fld, args.base, "base")
    try:
        exp = FieldElement(fld, tuple(_vector(args.exp, fld.n, "exponent")))
    except FusionExpError as exc:  # a coefficient outside [0, q)
        raise FormatError(f"bad exponent: {exc}") from exc
    _emit(_decimals(fusion_pow(base, exp)))
    return EXIT_OK


def cmd_fdlog(args) -> int:
    group, fld = load_system_config(args.config)
    if group.q > BRUTE_CAP:
        raise CapExceeded(f"q={group.q} exceeds the desk-scale cap {BRUTE_CAP}")
    if args.solver == "rho" and group.q <= 3:
        raise UsageError(
            f"--solver rho needs q > 3, got q={group.q}; use bruteforce or bsgs"
        )
    base = _base(group, fld, args.base, "base")
    target = _base(group, fld, args.target, "target")
    try:
        inst = FdlogInstance(base, target)
    except FusionExpError as exc:  # an identity base
        raise FormatError(str(exc)) from exc
    seed = _resolve_seed(args.seed)
    if args.solver == "bruteforce":
        result = fdlog_bruteforce(inst)
    elif args.solver == "bsgs":
        result = fdlog_solve(inst, dlog_bsgs)
    else:
        result = fdlog_solve(inst, lambda i: dlog_pollard_rho(i, seed))
    _emit(_decimals(result))
    return EXIT_OK


def _demo_dh(group, fld, rng) -> tuple[dict, bool]:
    base = unit_embed(generator_element(group), fld)
    alice = fdh_keygen(base, rng)
    bob = fdh_keygen(base, rng)
    shared_a = fdh_shared(alice, bob.public)
    shared_b = fdh_shared(bob, alice.public)
    ok = shared_a == shared_b
    return {
        "demo": "dh",
        "alice_public": _decimals(alice.public),
        "bob_public": _decimals(bob.public),
        "shared": _decimals(shared_a),
        "shared_equal": ok,
    }, ok


def _demo_elgamal(group, fld, rng) -> tuple[dict, bool]:
    base = unit_embed(generator_element(group), fld)
    keys = felgamal_keygen(base, rng)
    msg = scalar_embed(generator_element(group), fe_random(fld, rng))
    ct = felgamal_encrypt(base, keys.public, msg, rng)
    back = felgamal_decrypt(keys.secret, ct)
    ok = back == msg
    return {
        "demo": "elgamal",
        "public_key": _decimals(keys.public),
        "message": _decimals(msg),
        "ciphertext": {"c1": _decimals(ct.c1), "c2": _decimals(ct.c2)},
        "decrypted": _decimals(back),
        "roundtrip_ok": ok,
    }, ok


def _demo_vss(group, fld, rng) -> tuple[dict, bool]:
    base = unit_embed(generator_element(group), fld)
    secret = fe_random(fld, rng, nonzero=True)
    t, m = 2, 3
    shares, commitments = vss_split(secret, t, m, base, rng)
    all_verified = all(vss_check(base, commitments, s) for s in shares)
    recovered = vss_reconstruct(shares[:t])
    # corrupt one share and confirm only it is flagged
    bad = shares[0]
    bumped = VssShare(bad.index, fe_add(bad.value, fe_one(fld)))
    flagged = [s.index for s in (bumped, *shares[1:]) if not vss_check(base, commitments, s)]
    ok = all_verified and recovered == secret and flagged == [bad.index]
    return {
        "demo": "vss",
        "dealing": {
            "threshold": t,
            "share_count": m,
            "base": _decimals(base),
            "shares": [{"index": s.index, "value": _decimals(s.value)} for s in shares],
            "commitments": [_decimals(c) for c in commitments],
        },
        "all_verified": all_verified,
        "reconstructed": _decimals(recovered),
        "reconstructed_equals_secret": recovered == secret,
        "corrupted_index": bad.index,
        "flagged_indices": flagged,
    }, ok


def _demo_reductions(group, fld, trials: int, seed: int) -> tuple[dict, bool]:
    report = run_reduction_matrix(group, fld, trials, seed)
    ok = report.all_successful()
    return {
        "demo": "reductions",
        "trials": trials,
        "arrows": {name: {"trials": s.trials, "successes": s.successes,
                          "mean_oracle_calls": s.mean_oracle_calls}
                   for name, s in report.arrows.items()},
        "all_success": ok,
    }, ok


def cmd_demo(args) -> int:
    if not 1 <= args.trials <= MAX_TRIALS:
        raise UsageError(f"--trials must lie in [1, {MAX_TRIALS}], got {args.trials}")
    group, fld = load_system_config(args.config)
    if args.which == "reductions" and args.trials * fld.field_order > MAX_TRIALS * 11**4:
        raise UsageError(f"--trials times the field order must not exceed {MAX_TRIALS} "
                         f"* 11^4, got {args.trials} * {fld.field_order}")
    seed = _resolve_seed(args.seed)
    rng = random.Random(seed)
    if args.which == "dh":
        transcript, ok = _demo_dh(group, fld, rng)
    elif args.which == "elgamal":
        transcript, ok = _demo_elgamal(group, fld, rng)
    elif args.which == "vss":
        transcript, ok = _demo_vss(group, fld, rng)
    else:
        transcript, ok = _demo_reductions(group, fld, args.trials, seed)
    transcript["seed"] = seed
    _emit(transcript)
    return EXIT_OK if ok else EXIT_FAIL


_REQUIRED = object()  # the default of a flag that must be given


def _commands() -> dict:
    """Each command's handler, help line and flags: name -> (parse, default).

    parse reads a flag's one value: parse_decimal, a tuple of the allowed
    choices, or str for plain text.  The table is built per call, so that a
    handler replaced on this module (as a tracer does) is the one that runs.
    """
    return {
        "params": (cmd_params, "generate group and field parameters", {
            "q-bits": (parse_decimal, _REQUIRED), "n": (parse_decimal, _REQUIRED),
            "seed": (parse_decimal, None), "out": (str, None)}),
        "vectors": (cmd_vectors, "dump symbolic coefficient matrices", {
            "n": (str, "1,2,3,4,5"), "out": (str, None)}),
        "eval": (cmd_eval, "raise a tuple base to a field exponent", {
            "config": (str, _REQUIRED), "base": (str, _REQUIRED), "exp": (str, _REQUIRED)}),
        "fdlog": (cmd_fdlog, "solve a tuple discrete log", {
            "config": (str, _REQUIRED), "base": (str, _REQUIRED), "target": (str, _REQUIRED),
            "solver": (("bruteforce", "bsgs", "rho"), "bsgs"), "seed": (parse_decimal, None)}),
        "demo": (cmd_demo, "run a protocol or reduction demo", {
            "config": (str, _REQUIRED), "which": (("dh", "elgamal", "vss", "reductions"), _REQUIRED),
            "seed": (parse_decimal, None), "trials": (parse_decimal, 20)}),
    }


def _usage(command: str, text: str, flags: dict) -> str:
    words = [f"fusionexp {command} [-h]"]
    for name, (parse, default) in flags.items():
        word = f"--{name} " + ("{%s}" % ",".join(parse) if isinstance(parse, tuple) else name.upper())
        words.append(word if default is _REQUIRED else f"[{word}]")
    return f"{' '.join(words)}\n    {text}"


def _flag(token: str, names) -> tuple[str | None, str | None]:
    """The flag among names that token stands for, and the text after "=".

    --<text>[=value] stands for the name that is text or, if only one is,
    starts with it, and -h for help.  The name is None for "--" and for any
    other token; the text is None without an "=".
    """
    if token == "-h":
        token = "--help"
    if token[:2] != "--" or token == "--":
        return None, None
    text, eq, value = token[2:].partition("=")
    matches = [n for n in names if n == text] or [n for n in names if n.startswith(text)]
    if len(matches) > 1:
        raise UsageError(f"ambiguous option: {token} could match "
                         + ", ".join(f"--{n}" for n in matches))
    return (matches[0] if matches else None), value if eq else None


def parse_args(argv: list[str]) -> SimpleNamespace | str:
    """The command argv names with its handler (func) and flags, or a help text.

    `--flag value` and `--flag=value` both set a flag, a unique prefix names
    it, and of repeated values the last wins.  A bare flag's value is the
    next token, whatever it holds (`--base -x` sets base to "-x").  -h or
    --help, first or after the command, returns the usage text.  Misuse
    raises UsageError: the first ambiguous prefix, misused help or bad
    value in argv's order, then a missing flag, then tokens left over.
    """
    table = _commands()
    if not argv:
        raise UsageError("the following arguments are required: command")
    if argv[0] not in table:
        if _flag(argv[0], ("help",)) == ("help", None):
            return "usage: fusionexp COMMAND [--flag value | --flag=value ...]\n" + "\n".join(
                _usage(command, text, flags) for command, (_, text, flags) in table.items())
        raise UsageError(f"argument command: invalid choice: {argv[0]!r} "
                         f"(choose from {', '.join(table)})")
    command, tokens = argv[0], iter(argv[1:])
    func, text, flags = table[command]
    values, unknown = {}, []
    for token in tokens:
        name, value = _flag(token, (*flags, "help"))
        if name is None:
            unknown.append(token)
            continue
        if name == "help":
            if value is not None:
                raise UsageError(f"argument -h/--help: ignored explicit argument {value!r}")
            return f"usage: {_usage(command, text, flags)}"
        if value is None:
            value = next(tokens, None)
            if value is None:
                raise UsageError(f"argument --{name}: expected one argument")
        parse = flags[name][0]
        try:
            if isinstance(parse, tuple) and value not in parse:
                raise ValueError(f"invalid choice: {value!r} (choose from {', '.join(parse)})")
            values[name] = value if isinstance(parse, tuple) else parse(value)
        except ValueError as exc:
            raise UsageError(f"argument --{name}: {exc}") from None
    missing = [f"--{n}" for n, (_, d) in flags.items() if d is _REQUIRED and n not in values]
    if missing:
        raise UsageError(f"the following arguments are required: {', '.join(missing)}")
    if unknown:
        raise UsageError(f"unrecognized arguments: {' '.join(unknown)}")
    return SimpleNamespace(command=command, func=func, **{
        n.replace("-", "_"): values.get(n, d) for n, (_, d) in flags.items()})


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        if isinstance(args, str):
            print(args)
            return EXIT_OK
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except FusionExpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


def entry() -> None:
    sys.exit(main())
