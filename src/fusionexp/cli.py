"""Command-line front end.

Subcommands: parameter generation, symbolic coefficient-matrix dumps,
tuple exponentiation, tuple discrete logs, and protocol demos.  Machine
output is JSON on stdout; diagnostics go to stderr.  Exit codes: 0 success,
1 computational failure, 2 I/O error, 64 usage error, 65 malformed input.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

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
    FieldParams,
    fe_add,
    fe_from_json,
    fe_one,
    fe_random,
    fe_to_json,
    field_params_from_json,
    field_params_to_json,
    find_irreducible,
    lambda_entry_expr,
    lambda_symbolic,
    make_field_params,
)
from .fusion import (
    fusion_base_from_json,
    fusion_base_to_json,
    fusion_pow,
    scalar_embed,
    unit_embed,
)
from .group import (
    GroupParams,
    gen_group_params,
    generator_element,
    group_params_from_json,
    group_params_to_json,
)
from .primes import parse_decimal
from .protocols import (
    VssDealing,
    VssShare,
    ciphertext_to_json,
    dealing_to_json,
    fdh_keygen,
    fdh_shared,
    felgamal_decrypt,
    felgamal_encrypt,
    felgamal_keygen,
    vss_deal,
    vss_reconstruct,
    vss_verify,
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
# A demo reductions trial runs every arrow once: about 70 ms at q = 11 and
# n = 4, and more on larger desk-scale fields.
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


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _flag_int(text: str) -> int:
    """An integer flag: ASCII digits only, like every interchange integer."""
    try:
        return parse_decimal(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def _emit(obj, out_path: str | None) -> None:
    text = _dump(obj)
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


def system_config_to_json(group: GroupParams, fld: FieldParams) -> dict:
    return {
        "version": SCHEMA_VERSION,
        "group": group_params_to_json(group),
        "field": field_params_to_json(fld),
    }


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
        group_obj, field_obj = obj["group"], obj["field"]
        q = max(parse_decimal(group_obj["q"]), parse_decimal(field_obj["q"]))
        n = field_obj["n"] if type(field_obj["n"]) is int else 1  # rejected below
        problem = _size_error(parse_decimal(group_obj["modulus"]).bit_length(),
                              q.bit_length(), n)
        if problem:
            raise FormatError(f"config too large: {problem}")
        group = group_params_from_json(group_obj)
        fld = field_params_from_json(field_obj)
    except (json.JSONDecodeError, RecursionError, KeyError, TypeError, ValueError,
            FusionExpError) as exc:
        # json.loads raises RecursionError on arrays or objects nested too deep
        raise FormatError(f"bad config {path}: {exc}") from exc
    if group.q != fld.q:
        raise FormatError("group order and field characteristic differ")
    return group, fld


def _parse_json_vector(text: str, what: str) -> list[str]:
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise FormatError(f"bad {what}: {exc}") from exc
    if not isinstance(data, list) or not all(isinstance(x, str) for x in data):
        raise FormatError(f"bad {what}: expected a JSON array of decimal strings")
    return data


def cmd_params(args) -> int:
    if args.q_bits < 4:
        raise UsageError(f"--q-bits must be >= 4, got {args.q_bits}")
    if args.n < 1:
        raise UsageError(f"--n must be >= 1, got {args.n}")
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
    _emit(system_config_to_json(group, fld), args.out)
    return EXIT_OK


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
    try:
        base = fusion_base_from_json(group, fld, _parse_json_vector(args.base, "base"))
        exp = fe_from_json(fld, _parse_json_vector(args.exp, "exponent"))
    except (FusionExpError, ValueError) as exc:
        raise FormatError(str(exc)) from exc
    print(_dump(fusion_base_to_json(fusion_pow(base, exp))))
    return EXIT_OK


def cmd_fdlog(args) -> int:
    group, fld = load_system_config(args.config)
    if group.q > BRUTE_CAP:
        raise CapExceeded(f"q={group.q} exceeds the desk-scale cap {BRUTE_CAP}")
    if args.solver == "rho" and group.q <= 3:
        raise UsageError(
            f"--solver rho needs q > 3, got q={group.q}; use bruteforce or bsgs"
        )
    try:
        base = fusion_base_from_json(group, fld, _parse_json_vector(args.base, "base"))
        target = fusion_base_from_json(
            group, fld, _parse_json_vector(args.target, "target")
        )
        inst = FdlogInstance(base, target)
    except (FusionExpError, ValueError) as exc:
        raise FormatError(str(exc)) from exc
    seed = _resolve_seed(args.seed)
    if args.solver == "bruteforce":
        result = fdlog_bruteforce(inst)
    elif args.solver == "bsgs":
        result = fdlog_solve(inst, dlog_bsgs)
    else:
        result = fdlog_solve(inst, lambda i: dlog_pollard_rho(i, seed))
    print(_dump(fe_to_json(result)))
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
        "alice_public": fusion_base_to_json(alice.public),
        "bob_public": fusion_base_to_json(bob.public),
        "shared": fusion_base_to_json(shared_a),
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
        "public_key": fusion_base_to_json(keys.public),
        "message": fusion_base_to_json(msg),
        "ciphertext": ciphertext_to_json(ct),
        "decrypted": fusion_base_to_json(back),
        "roundtrip_ok": ok,
    }, ok


def _demo_vss(group, fld, rng) -> tuple[dict, bool]:
    base = unit_embed(generator_element(group), fld)
    secret = fe_random(fld, rng, nonzero=True)
    t, m = 2, 3
    dealing = vss_deal(secret, t, m, base, rng)
    all_verified = all(vss_verify(dealing, s.index) for s in dealing.shares)
    recovered = vss_reconstruct(dealing.shares[:t])
    # corrupt one share and confirm only it is flagged
    bad = dealing.shares[0]
    bumped = VssShare(bad.index, fe_add(bad.value, fe_one(fld)))
    shares = tuple(bumped if s.index == bad.index else s for s in dealing.shares)
    corrupted = VssDealing(t, m, base, shares, dealing.commitments)
    flagged = [s.index for s in corrupted.shares if not vss_verify(corrupted, s.index)]
    ok = all_verified and recovered == secret and flagged == [bad.index]
    return {
        "demo": "vss",
        "dealing": dealing_to_json(dealing),
        "all_verified": all_verified,
        "reconstructed": fe_to_json(recovered),
        "reconstructed_equals_secret": recovered == secret,
        "corrupted_index": bad.index,
        "flagged_indices": flagged,
    }, ok


def _demo_reductions(group, fld, rng, trials: int, seed: int) -> tuple[dict, bool]:
    report = run_reduction_matrix(group, fld, trials, seed)
    ok = report.all_successful()
    return {
        "demo": "reductions",
        "trials": trials,
        "arrows": report.to_json_dict(),
        "all_success": ok,
    }, ok


def cmd_demo(args) -> int:
    if not 1 <= args.trials <= MAX_TRIALS:
        raise UsageError(f"--trials must lie in [1, {MAX_TRIALS}], got {args.trials}")
    group, fld = load_system_config(args.config)
    seed = _resolve_seed(args.seed)
    rng = random.Random(seed)
    if args.which == "dh":
        transcript, ok = _demo_dh(group, fld, rng)
    elif args.which == "elgamal":
        transcript, ok = _demo_elgamal(group, fld, rng)
    elif args.which == "vss":
        transcript, ok = _demo_vss(group, fld, rng)
    else:
        transcript, ok = _demo_reductions(group, fld, rng, args.trials, seed)
    transcript["seed"] = seed
    print(_dump(transcript))
    return EXIT_OK if ok else EXIT_FAIL


def build_parser() -> _Parser:
    parser = _Parser(prog="fusionexp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("params", help="generate group and field parameters")
    p.add_argument("--q-bits", type=_flag_int, required=True)
    p.add_argument("--n", type=_flag_int, required=True)
    p.add_argument("--seed", type=_flag_int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("vectors", help="dump symbolic coefficient matrices")
    p.add_argument("--n", default="1,2,3,4,5", help="comma-separated degrees from 1..5")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_vectors)

    p = sub.add_parser("eval", help="raise a tuple base to a field exponent")
    p.add_argument("--config", required=True)
    p.add_argument("--base", required=True, help="JSON array of decimal strings")
    p.add_argument("--exp", required=True, help="JSON array of decimal strings")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("fdlog", help="solve a tuple discrete log")
    p.add_argument("--config", required=True)
    p.add_argument("--base", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--solver", choices=("bruteforce", "bsgs", "rho"), default="bsgs")
    p.add_argument("--seed", type=_flag_int, default=None)
    p.set_defaults(func=cmd_fdlog)

    p = sub.add_parser("demo", help="run a protocol or reduction demo")
    p.add_argument("--config", required=True)
    p.add_argument("--which", choices=("dh", "elgamal", "vss", "reductions"), required=True)
    p.add_argument("--seed", type=_flag_int, default=None)
    p.add_argument("--trials", type=_flag_int, default=20)
    p.set_defaults(func=cmd_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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
