"""The benchmark's three workloads: protocols, dlog and cli.

Each workload is a closed loop with one client.  ``setup`` builds the
parameters (fixed per workload, like a deployment's system parameters);
``prepare`` draws one op's inputs from the run's seeded generator, outside
the op timer; ``execute`` runs the op and returns its output and, when the
op times itself, its (seconds, host-speed probe seconds), else None;
``check`` compares its output with a value the benchmark knows without the
timed code: a planted exponent, a round-trip identity, the expected
exponentiation computed by the independent reference below, a transcript
flag or an expected exit code.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

import fusionexp as fx
import fusionexp.cli as fx_cli

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"
CHILD = BENCH_DIR / "cli_child.py"
CHILD_TIMEOUT_S = 120


# ---------------------------------------------------------------------------
# Reference arithmetic, independent of the package: GF(q^n) by schoolbook
# multiply-then-reduce, and g**(w*x) for a base embedded as g**w.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Ref:
    P: int
    q: int
    g: int
    f_low: tuple[int, ...]

    def mul(self, a, b) -> tuple[int, ...]:
        n, q = len(self.f_low), self.q
        prod = [0] * (2 * n - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                prod[i + j] += ai * bj
        for m in range(2 * n - 2, n - 1, -1):  # X^m = -X^(m-n) * f_low
            c = prod[m] % q
            for i, fi in enumerate(self.f_low):
                prod[m - n + i] -= c * fi
        return tuple(c % q for c in prod[:n])

    def embed(self, exps) -> tuple[int, ...]:
        return tuple(pow(self.g, e, self.P) for e in exps)

    def draw(self, rng, full: bool = False) -> tuple[int, ...]:
        """Random exponent vector; with full, every coefficient is nonzero."""
        lo = 1 if full else 0
        return tuple(rng.randrange(lo, self.q) for _ in self.f_low)


def residues(fb) -> tuple[int, ...]:
    return tuple(c.residue for c in fb.components)


def tuple_base(group, fld, res) -> "fx.FusionBase":
    return fx.FusionBase(group, fld, tuple(fx.GroupElement(group, r) for r in res))


def build_params(q_bits: int, n: int, seed: int):
    group = fx.gen_group_params(q_bits, seed)
    fld = fx.make_field_params(group.q, n, fx.find_irreducible(group.q, n, seed))
    return group, fld


class Workload:
    """One client's op rotation; subclasses define the ops."""

    name = ""
    rotation: tuple[str, ...] = ()
    trace_rotations_per_s = 1.0  # rotations in the traced pass per --seconds

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# protocols: q of 256 bits, n = 8, full-tuple system base
# ---------------------------------------------------------------------------


@dataclass
class ProtocolState:
    group: object
    fld: object
    base: object
    ref: Ref
    w: tuple[int, ...]


class Protocols(Workload):
    name = "protocols"
    # DH and ElGamal cost about the same and VSS about twice as much; at 2:2:1
    # p90 falls on the middle of the VSS cluster and p50 inside the DH/ElGamal
    # one, not on the edge of either, where a few slowed ops would move them.
    rotation = ("dh", "elgamal", "dh", "elgamal", "vss")
    trace_rotations_per_s = 0.3
    Q_BITS, N, PARAM_SEED = 256, 8, 1
    T, M = 3, 5

    def setup(self, rng) -> ProtocolState:
        group, fld = build_params(self.Q_BITS, self.N, self.PARAM_SEED)
        ref = Ref(group.modulus, group.q, group.generator, fld.f_low)
        # Deliberately not unit_embed: its identity components would let
        # fusion_pow skip most of its n^2 powers.
        w = ref.draw(rng, full=True)
        base = fx.scalar_embed(fx.generator_element(group), fx.fe(fld, w))
        return ProtocolState(group, fld, base, ref, w)

    def prepare(self, st: ProtocolState, kind: str, rng):
        if kind == "dh":
            return rng
        if kind == "elgamal":
            return rng, tuple_base(st.group, st.fld, st.ref.embed(st.ref.draw(rng)))
        secret = fx.fe(st.fld, st.ref.draw(rng, full=True))
        return rng, secret, sorted(rng.sample(range(self.M), self.T))

    def execute(self, st: ProtocolState, kind: str, inputs, tracer):
        if kind == "dh":
            rng = inputs
            a = fx.fdh_keygen(st.base, rng)
            b = fx.fdh_keygen(st.base, rng)
            return (a, b, fx.fdh_shared(a, b.public), fx.fdh_shared(b, a.public)), None
        if kind == "elgamal":
            rng, msg = inputs
            keys = fx.fdh_keygen(st.base, rng)
            ct = fx.felgamal_encrypt(st.base, keys.public, msg, rng)
            return fx.felgamal_decrypt(keys.secret, ct), None
        rng, secret, picks = inputs
        dealing = fx.vss_deal(secret, self.T, self.M, st.base, rng)
        fx.vss_verify_all(dealing)
        return fx.vss_reconstruct([dealing.shares[i] for i in picks]), None

    def check(self, st: ProtocolState, kind: str, inputs, out) -> bool:
        ref = st.ref
        if kind == "dh":
            a, b, shared_a, shared_b = out
            wa = ref.mul(st.w, a.secret.coeffs)
            wb = ref.mul(st.w, b.secret.coeffs)
            return (
                residues(a.public) == ref.embed(wa)
                and residues(b.public) == ref.embed(wb)
                and shared_a == shared_b
                and residues(shared_a) == ref.embed(ref.mul(wa, b.secret.coeffs))
            )
        return out == inputs[1]  # elgamal: decrypted message; vss: secret


# ---------------------------------------------------------------------------
# dlog: q of 24 bits, n = 4, one planted tuple-dlog instance per op
# ---------------------------------------------------------------------------


@dataclass
class DlogState:
    group: object
    fld: object
    ref: Ref


class Dlog(Workload):
    name = "dlog"
    rotation = ("fdlog",)
    trace_rotations_per_s = 2.0
    Q_BITS, N, PARAM_SEED = 24, 4, 1

    def setup(self, rng) -> DlogState:
        group, fld = build_params(self.Q_BITS, self.N, self.PARAM_SEED)
        return DlogState(group, fld, Ref(group.modulus, group.q, group.generator, fld.f_low))

    def prepare(self, st: DlogState, kind: str, rng):
        # Planted with the reference arithmetic, so no fusion_pow runs here
        # or inside the timer.
        w, x = st.ref.draw(rng, full=True), st.ref.draw(rng)
        inst = fx.FdlogInstance(
            tuple_base(st.group, st.fld, st.ref.embed(w)),
            tuple_base(st.group, st.fld, st.ref.embed(st.ref.mul(w, x))),
        )
        return inst, x

    def execute(self, st: DlogState, kind: str, inputs, tracer):
        inst, _ = inputs
        return (fx.fdlog_solve(inst, fx.dlog_bsgs), fx.fdlog_solve(inst, fx.dlog_pollard_rho)), None

    def check(self, st: DlogState, kind: str, inputs, out) -> bool:
        return all(ans.coeffs == inputs[1] for ans in out)


# ---------------------------------------------------------------------------
# cli: one fusionexp command per op, each in a fresh interpreter
# ---------------------------------------------------------------------------


def load_ref(path: Path) -> Ref:
    obj = json.loads(path.read_text())
    return Ref(
        int(obj["group"]["modulus"]),
        int(obj["group"]["q"]),
        int(obj["group"]["generator"]),
        tuple(int(c) for c in obj["field"]["f"]),
    )


def strs(values) -> str:
    return json.dumps([str(v) for v in values])


@dataclass
class CliState:
    configs: dict[str, Path]
    refs: dict[str, Ref]


class Cli(Workload):
    name = "cli"
    # Of the nine commands, two are fast desk-scale ones, five are 256-bit
    # ones of similar cost and two are the slowest, reductions at n = 3.  The
    # median then falls in the middle of the 256-bit cluster and p90 in the
    # middle of the reductions_n3 pair, not on a cluster edge, where a few
    # ops decide the value.
    rotation = (
        "eval", "demo_dh", "reductions_n3", "fdlog_bruteforce", "demo_elgamal",
        "reductions_n2", "demo_vss", "eval_malformed", "reductions_n3",
    )
    trace_rotations_per_s = 0.1
    PARAM_SEED = 1
    # config name -> (q bits, n); q bits 4 always gives q = 11.
    CONFIGS = {"big": (256, 4), "q11n2": (4, 2), "q11n3": (4, 3)}
    TRIALS = {"reductions_n2": ("q11n2", 3), "reductions_n3": ("q11n3", 2)}
    EXIT_FORMAT = 65

    def __init__(self):
        WORK.mkdir(exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(dir=WORK))
        self.child_peak_kb = 0
        self.fault = None  # set only by the self-test, passed to the child

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def peak_rss_kb(self) -> int:
        return self.child_peak_kb

    def setup(self, rng) -> CliState:
        out = Path(tempfile.mkdtemp(dir=self.workdir))
        configs = {}
        for name, (q_bits, n) in self.CONFIGS.items():
            configs[name] = out / f"{name}.json"
            argv = ["params", "--q-bits", str(q_bits), "--n", str(n),
                    "--seed", str(self.PARAM_SEED), "--out", str(configs[name])]
            with contextlib.redirect_stdout(io.StringIO()):
                rc = fx_cli.main(argv)
            if rc != 0:
                raise RuntimeError(f"fusionexp {' '.join(argv)} exited {rc}")
        return CliState(configs, {k: load_ref(p) for k, p in configs.items()})

    def prepare(self, st: CliState, kind: str, rng):
        """(argv, expected exit code, expected output or None)."""
        if kind in ("eval", "eval_malformed"):
            ref = st.refs["big"]
            w, x = ref.draw(rng, full=True), ref.draw(rng)
            base = list(ref.embed(w))
            if kind == "eval":
                want_rc, want = 0, [str(r) for r in ref.embed(ref.mul(w, x))]
            else:
                # -1 is a non-residue mod a safe prime, so -g^k is outside the subgroup.
                base[rng.randrange(len(base))] = ref.P - pow(ref.g, rng.randrange(1, ref.q), ref.P)
                want_rc, want = self.EXIT_FORMAT, None
            argv = ["eval", "--config", str(st.configs["big"]), "--base", strs(base), "--exp", strs(x)]
            return argv, want_rc, want
        if kind == "fdlog_bruteforce":
            ref = st.refs["q11n3"]
            w, x = ref.draw(rng, full=True), ref.draw(rng)
            argv = ["fdlog", "--config", str(st.configs["q11n3"]),
                    "--base", strs(ref.embed(w)), "--target", strs(ref.embed(ref.mul(w, x))),
                    "--solver", "bruteforce"]
            return argv, 0, [str(c) for c in x]
        seed = str(rng.randrange(1 << 31))
        if kind.startswith("demo_"):
            which = kind[len("demo_"):]
            return ["demo", "--config", str(st.configs["big"]), "--which", which, "--seed", seed], 0, None
        config, trials = self.TRIALS[kind]
        argv = ["demo", "--config", str(st.configs[config]), "--which", "reductions",
                "--seed", seed, "--trials", str(trials)]
        return argv, 0, trials

    def execute(self, st: CliState, kind: str, inputs, tracer):
        argv = inputs[0]
        spec = {"argv": argv, "src": str(SRC), "bench": str(BENCH_DIR),
                "trace": tracer is not None, "fault": self.fault}
        # -I -S: the child's sys.path is set from the spec; start-up is not timed.
        proc = subprocess.run(
            [sys.executable, "-I", "-S", str(CHILD)],
            input=json.dumps(spec), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S, cwd=self.workdir,
        )
        if proc.returncode != 0:
            last = proc.stderr.strip().splitlines()[-1:] or [""]
            raise RuntimeError(f"child exited {proc.returncode}: {last[0]}")
        env = json.loads(proc.stdout)
        self.child_peak_kb = max(self.child_peak_kb, env["maxrss_kb"])
        if tracer is not None:
            tracer.merge(env["trace"])
            tracer.samples["cli.import_s"].append(env["import_s"])
            if kind.startswith("reductions") and env["rc"] == 0:
                arrows = json.loads(env["stdout"])["arrows"].values()
                tracer.extra["reductions.oracle_calls"] += round(
                    sum(a["mean_oracle_calls"] * a["trials"] for a in arrows)
                )
        return env, (env["op_s"], env["probe_s"])

    def check(self, st: CliState, kind: str, inputs, env) -> bool:
        _, want_rc, want = inputs
        if env["rc"] != want_rc:
            return False
        if want_rc != 0:
            return env["stdout"] == ""
        out = json.loads(env["stdout"])
        if kind in ("eval", "fdlog_bruteforce"):
            return out == want
        if kind == "demo_dh":
            return out["shared_equal"] is True
        if kind == "demo_elgamal":
            return out["roundtrip_ok"] is True
        if kind == "demo_vss":
            return (out["all_verified"] is True
                    and out["reconstructed_equals_secret"] is True
                    and out["flagged_indices"] == [out["corrupted_index"]])
        arrows = out["arrows"].values()
        return (out["all_success"] is True and len(arrows) == 8
                and all(a["trials"] == want == a["successes"] for a in arrows))


WORKLOADS = {"protocols": Protocols, "dlog": Dlog, "cli": Cli}
