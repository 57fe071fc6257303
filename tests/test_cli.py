import json
import subprocess
import sys
from pathlib import Path

import pytest

import fusionexp.cli
import fusionexp.field
import fusionexp.group
from fusionexp.cli import (
    EXIT_FAIL,
    EXIT_FORMAT,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    MAX_CONFIG_BYTES,
    MAX_TRIALS,
    FormatError,
    load_system_config,
    main,
    parse_decimal,
)

GOLDEN = Path(__file__).parent / "data" / "vectors_golden.json"
REDUCTIONS_GOLDEN = Path(__file__).parent / "data" / "demo_reductions_golden.json"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "sys.json"
    assert main(["params", "--q-bits", "4", "--n", "2", "--seed", "7",
                 "--out", str(path)]) == EXIT_OK
    return str(path)


def test_params_generates_expected_shape(capsys, tmp_path):
    out_file = tmp_path / "sys.json"
    code, out, _ = run(capsys, "params", "--q-bits", "4", "--n", "2",
                       "--seed", "7", "--out", str(out_file))
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj == json.loads(out_file.read_text())
    assert obj["version"] == "1"
    assert obj["group"]["q"] == "11" and obj["group"]["modulus"] == "23"
    # q = 11 = 3 mod 4, so degree 2 prefers the modulus X^2 + 1
    assert obj["field"]["f"] == ["1", "0"]
    group, fld = load_system_config(str(out_file))
    assert group.q == fld.q == 11


def test_params_degree_one(capsys):
    code, out, _ = run(capsys, "params", "--q-bits", "4", "--n", "1", "--seed", "1")
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["field"]["n"] == 1 and len(obj["field"]["f"]) == 1


def test_params_usage_errors(capsys):
    code, _, err = run(capsys, "params", "--q-bits", "3", "--n", "2")
    assert code == EXIT_USAGE and "q-bits" in err
    code, _, _ = run(capsys, "params", "--q-bits", "4", "--n", "0")
    assert code == EXIT_USAGE
    code, _, _ = run(capsys, "nonsense")
    assert code == EXIT_USAGE


def test_params_io_error(capsys):
    code, _, err = run(capsys, "params", "--q-bits", "4", "--n", "2",
                       "--seed", "1", "--out", "/nonexistent/dir/x.json")
    assert code == EXIT_IO


def test_vectors_matches_golden(capsys):
    code, out, _ = run(capsys, "vectors")
    assert code == EXIT_OK
    assert out == GOLDEN.read_text()


def test_demo_reductions_matches_golden(capsys, config_path):
    # the transcript's bytes, float formatting included (1.0, not 1)
    code, out, _ = run(capsys, "demo", "--config", config_path, "--which", "reductions",
                       "--seed", "4", "--trials", "3")
    assert code == EXIT_OK
    assert out == REDUCTIONS_GOLDEN.read_text()


def test_vectors_subset(capsys):
    code, out, _ = run(capsys, "vectors", "--n", "2")
    assert code == EXIT_OK
    obj = json.loads(out)
    assert list(obj) == ["2"]
    assert obj["2"] == [["y0", "-y1"], ["y1", "y0"]]


def test_vectors_unsupported_degree(capsys):
    code, _, err = run(capsys, "vectors", "--n", "6")
    assert code == EXIT_USAGE and "unsupported" in err


def test_eval_worked_example(capsys, config_path):
    code, out, _ = run(capsys, "eval", "--config", config_path,
                       "--base", '["2","4"]', "--exp", '["3","5"]')
    assert code == EXIT_OK
    assert json.loads(out) == ["16", "1"]


def test_eval_unit_exponent_echoes_base(capsys, config_path):
    code, out, _ = run(capsys, "eval", "--config", config_path,
                       "--base", '["2","4"]', "--exp", '["1","0"]')
    assert code == EXIT_OK
    assert json.loads(out) == ["2", "4"]


def test_eval_malformed_input(capsys, config_path):
    code, _, _ = run(capsys, "eval", "--config", config_path,
                     "--base", "not json", "--exp", '["1","0"]')
    assert code == EXIT_FORMAT
    code, _, _ = run(capsys, "eval", "--config", config_path,
                     "--base", '["2"]', "--exp", '["1","0"]')
    assert code == EXIT_FORMAT


def test_parse_decimal_takes_ascii_digits_only(capsys, tmp_path, config_path):
    assert [parse_decimal(s) for s in ("0", "13", "4" * 80)] == [0, 13, int("4" * 80)]
    for text in ("", "-3", "+3", "3_0", " 8", "8\n", "\u0668", "\u00b9", "0x1f", "1e3", 8, None):
        with pytest.raises(ValueError):
            parse_decimal(text)
    code, out, err = run(capsys, "eval", "--config", config_path,
                         "--base", '[" 2","4"]', "--exp", '["1","0"]')
    assert code == EXIT_FORMAT
    assert out == "" and "bad base" in err and "ASCII digits" in err
    obj = json.loads(Path(config_path).read_text())
    obj["group"]["generator"] = "+4"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    with pytest.raises(FormatError, match="ASCII digits"):
        load_system_config(str(bad))


def test_deserialization_rejects_non_member(capsys, config_path):
    # 5 is a quadratic non-residue mod 23, hence outside the order-11
    # subgroup, and 0 is not a residue in [1, 23) at all
    for vector in ('["2","5"]', '["0","4"]'):
        code, out, err = run(capsys, "eval", "--config", config_path,
                             "--base", vector, "--exp", '["1","0"]')
        assert code == EXIT_FORMAT
        assert out == "" and "bad base" in err
        code, out, err = run(capsys, "fdlog", "--config", config_path,
                             "--base", '["2","4"]', "--target", vector)
        assert code == EXIT_FORMAT
        assert out == "" and "bad target" in err


def test_base_json_roundtrip(capsys, config_path):
    # the unit exponent maps a base to itself, so eval prints the base it read
    code, out, _ = run(capsys, "eval", "--config", config_path,
                       "--base", '["2","4"]', "--exp", '["1","0"]')
    assert code == EXIT_OK and json.loads(out) == ["2", "4"]
    for short in ('["2"]', '["2","4","8"]'):
        code, out, err = run(capsys, "eval", "--config", config_path,
                             "--base", short, "--exp", '["1","0"]')
        assert code == EXIT_FORMAT
        assert out == "" and "bad base: need 2 entries" in err


def test_fe_json_roundtrip(capsys, config_path):
    # (2, 4)^(3 + 5X) = (16, 1) as in eval's worked example; fdlog prints the exponent
    code, out, _ = run(capsys, "fdlog", "--config", config_path,
                       "--base", '["2","4"]', "--target", '["16","1"]')
    assert code == EXIT_OK and json.loads(out) == ["3", "5"]
    for short in ('["1"]', '["1","0","0"]'):
        code, out, err = run(capsys, "eval", "--config", config_path,
                             "--base", '["2","4"]', "--exp", short)
        assert code == EXIT_FORMAT
        assert out == "" and "bad exponent: need 2 entries" in err


def test_eval_missing_config(capsys):
    code, _, _ = run(capsys, "eval", "--config", "/no/such/file.json",
                     "--base", '["2","4"]', "--exp", '["3","5"]')
    assert code == EXIT_IO


@pytest.mark.parametrize("solver", ["bruteforce", "bsgs", "rho"])
def test_fdlog_worked_example(capsys, config_path, solver):
    code, out, _ = run(capsys, "fdlog", "--config", config_path,
                       "--base", '["2","4"]', "--target", '["16","1"]',
                       "--solver", solver, "--seed", "3")
    assert code == EXIT_OK
    assert json.loads(out) == ["3", "5"]


@pytest.mark.parametrize("which", ["dh", "elgamal", "vss", "reductions"])
def test_demo_commands_pass(capsys, config_path, which):
    code, out, _ = run(capsys, "demo", "--config", config_path,
                       "--which", which, "--seed", "1")
    assert code == EXIT_OK
    transcript = json.loads(out)
    assert transcript["demo"] == which
    if which == "vss":
        assert transcript["reconstructed_equals_secret"] is True
        assert transcript["all_verified"] is True
    if which == "dh":
        assert transcript["shared_equal"] is True
    if which == "elgamal":
        assert transcript["roundtrip_ok"] is True
    if which == "reductions":
        assert transcript["all_success"] is True
        for stats in transcript["arrows"].values():
            assert stats["successes"] == stats["trials"]


def test_env_var_default_seed(capsys, monkeypatch):
    monkeypatch.setenv("FUSION_EXP_SEED", "7")
    code_a, out_a, _ = run(capsys, "params", "--q-bits", "4", "--n", "2")
    monkeypatch.delenv("FUSION_EXP_SEED")
    code_b, out_b, _ = run(capsys, "params", "--q-bits", "4", "--n", "2", "--seed", "7")
    assert code_a == code_b == EXIT_OK
    assert out_a == out_b


def test_commands_deterministic(capsys, config_path):
    commands = [
        ["params", "--q-bits", "4", "--n", "2", "--seed", "5"],
        ["vectors"],
        ["eval", "--config", config_path, "--base", '["2","4"]', "--exp", '["3","5"]'],
        ["fdlog", "--config", config_path, "--base", '["2","4"]',
         "--target", '["16","1"]'],
        ["demo", "--config", config_path, "--which", "vss", "--seed", "2"],
    ]
    for argv in commands:
        code_a, out_a, _ = run(capsys, *argv)
        code_b, out_b, _ = run(capsys, *argv)
        assert code_a == code_b == EXIT_OK
        assert out_a == out_b


def test_fdlog_desk_scale_cap(capsys, tmp_path):
    # a 24-bit q exceeds the scan cap; the command must fail computationally
    config = tmp_path / "big.json"
    assert main(["params", "--q-bits", "24", "--n", "2", "--seed", "2",
                 "--out", str(config)]) == EXIT_OK
    capsys.readouterr()
    code, _, err = run(capsys, "fdlog", "--config", str(config),
                       "--base", '["4","1"]', "--target", '["4","1"]')
    assert code == EXIT_FAIL and "cap" in err


def test_fdlog_rho_rejects_tiny_group(capsys, tmp_path):
    config = tmp_path / "tiny.json"
    config.write_text(json.dumps({
        "version": "1",
        "group": {"modulus": "7", "q": "3", "generator": "2"},
        "field": {"q": "3", "n": 1, "f": ["0"]},
    }))
    argv = ("fdlog", "--config", str(config), "--base", '["2"]', "--target", '["4"]')
    code, out, err = run(capsys, *argv, "--solver", "rho")
    assert code == EXIT_USAGE and out == ""
    assert "bruteforce" in err and "bsgs" in err and "Traceback" not in err
    for solver in ("bruteforce", "bsgs"):
        code, out, _ = run(capsys, *argv, "--solver", solver)
        assert code == EXIT_OK and json.loads(out) == ["2"]


def test_module_entry_point_matches_main(capsys, config_path):
    # -E -s as in -I, but the working directory stays on the path, so that
    # `-m fusionexp` finds the package in the source tree
    src = Path(fusionexp.cli.__file__).parents[1]

    def module_run(*argv):
        return subprocess.run([sys.executable, "-E", "-s", "-m", "fusionexp", *argv],
                              cwd=src, capture_output=True, text=True)

    vectors = module_run("vectors", "--n", "2")
    assert (vectors.returncode, vectors.stdout) == run(capsys, "vectors", "--n", "2")[:2]
    malformed = module_run("eval", "--config", config_path, "--base", '["2"', "--exp", '["1","0"]')
    assert malformed.returncode == EXIT_FORMAT
    assert malformed.stdout == "" and malformed.stderr.startswith("input error: bad base")


def test_vectors_out_file(capsys, tmp_path):
    out = tmp_path / "vec.json"
    code, stdout, _ = run(capsys, "vectors", "--n", "2,3", "--out", str(out))
    assert code == EXIT_OK
    assert out.read_text() == stdout
    assert json.loads(out.read_text()) == json.loads(stdout)


def test_config_with_mismatched_orders_rejected(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "version": "1",
        "group": {"modulus": "23", "q": "11", "generator": "2"},
        "field": {"q": "5", "n": 2, "f": ["2", "0"]},
    }))
    code, _, err = run(capsys, "eval", "--config", str(bad),
                       "--base", '["2","4"]', "--exp", '["1","0"]')
    assert code == EXIT_FORMAT and "differ" in err


def test_config_orders_compared_before_primality(capsys, tmp_path, monkeypatch):
    # within the size caps, a group order 11 and a field characteristic 13
    # disagree before either is tested for primality
    for module, name in ((fusionexp.group, "is_prime"), (fusionexp.field, "is_prime"),
                         (fusionexp.field, "is_irreducible")):
        monkeypatch.setattr(module, name, reached)
    bad = tmp_path / "bad.json"
    write_config(bad, 23, 11, 13, 2)
    code, out, err = run(capsys, "eval", "--config", str(bad),
                         "--base", '["2","4"]', "--exp", '["1","0"]')
    assert code == EXIT_FORMAT
    assert out == "" and "differ" in err


def test_config_without_version_rejected(capsys, tmp_path):
    bad = tmp_path / "noversion.json"
    bad.write_text(json.dumps({
        "group": {"modulus": "23", "q": "11", "generator": "2"},
        "field": {"q": "11", "n": 2, "f": ["1", "0"]},
    }))
    code, _, _ = run(capsys, "eval", "--config", str(bad),
                     "--base", '["2","4"]', "--exp", '["1","0"]')
    assert code == EXIT_FORMAT


@pytest.mark.parametrize("exp", ['["-3","5"]', '["3_0","5"]', '[" 8","5"]',
                                 '["\u0668","5"]'])
def test_eval_rejects_noncanonical_exponent(capsys, config_path, exp):
    # int() reads each of these as 8 mod 11; the interchange format does not
    code, out, err = run(capsys, "eval", "--config", config_path,
                         "--base", '["2","4"]', "--exp", exp)
    assert code == EXIT_FORMAT
    assert out == "" and "ASCII digits" in err


@pytest.mark.parametrize("exp", ['["11","0"]', '["12","0"]'])
def test_eval_rejects_exponent_coefficient_outside_range(capsys, config_path, exp):
    # q = 11: these are 0 and 1 mod q, but an exponent is not reduced silently
    code, out, err = run(capsys, "eval", "--config", config_path,
                         "--base", '["2","4"]', "--exp", exp)
    assert code == EXIT_FORMAT
    assert out == "" and "[0, q)" in err


@pytest.mark.parametrize("change", [
    {"version": "999"},
    {"field": {"n": 2.9}},
    {"field": {"n": True}},
    {"field": {"f": ["12", "0"]}},  # 12 lies outside [0, q) for q = 11
    {"field": {"f": "10"}},
    {"group": {"q": "+11"}},
], ids=["version", "n-float", "n-bool", "f-range", "f-string", "q-sign"])
def test_config_with_noncanonical_values_rejected(capsys, tmp_path, config_path, change):
    obj = json.loads(Path(config_path).read_text())
    for key, value in change.items():
        if isinstance(value, dict):
            obj[key].update(value)
        else:
            obj[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    code, out, err = run(capsys, "eval", "--config", str(bad),
                         "--base", '["2","4"]', "--exp", '["3","5"]')
    assert code == EXIT_FORMAT
    assert out == "" and "input error" in err


def test_config_load_checks_each_invariant_once(config_path, monkeypatch):
    # modulus and order in GroupParams, q once in FieldParams' irreducibility test
    calls = {"is_prime": 0, "is_irreducible": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, wrapper)

    counted(fusionexp.group, "is_prime")
    counted(fusionexp.field, "is_prime")
    counted(fusionexp.field, "is_irreducible")
    load_system_config(config_path)
    assert calls == {"is_prime": 3, "is_irreducible": 1}


def test_bad_env_seed_rejected(capsys, monkeypatch):
    # int() would read "3_0" as 30 and " 8" as 8; a seed is ASCII digits only
    for env in ("not-a-number", "3_0", " 8", "-1"):
        monkeypatch.setenv("FUSION_EXP_SEED", env)
        code, out, _ = run(capsys, "params", "--q-bits", "4", "--n", "2")
        assert code == EXIT_FORMAT, env
        assert out == ""


class Reached(Exception):
    """Raised by a stand-in to show that a command got past its size caps."""


def reached(*args):
    raise Reached


def write_config(path, modulus, q, field_q, n):
    path.write_text(json.dumps({
        "version": "1",
        "group": {"modulus": str(modulus), "q": str(q), "generator": "4"},
        "field": {"q": str(field_q), "n": n, "f": ["1"] * n},
    }))


Q256 = 2**256 - 189

OVER_SIZE_CAPS = {
    "modulus-2049-bits": (2**2048 + 1, 11, 11, 2),
    "group-q-2049-bits": (23, 2**2048 + 1, 11, 2),
    "field-q-2049-bits": (23, 11, 2**2048 + 1, 2),
    "n-65": (23, 11, 11, 65),
    "n33-times-256-bits": (2 * Q256 + 1, Q256, Q256, 33),
    "n32-times-257-bits": (2**257 + 1, 2**256 + 1, 2**256 + 1, 32),
}


@pytest.mark.parametrize("sizes", OVER_SIZE_CAPS.values(), ids=OVER_SIZE_CAPS)
def test_config_over_size_cap_rejected_before_checks(capsys, tmp_path, monkeypatch, sizes):
    for module, name in ((fusionexp.group, "is_prime"), (fusionexp.field, "is_prime"),
                         (fusionexp.field, "is_irreducible")):
        monkeypatch.setattr(module, name, reached)
    cfg = tmp_path / "big.json"
    write_config(cfg, *sizes)
    code, out, err = run(capsys, "eval", "--config", str(cfg),
                         "--base", '["2"]', "--exp", '["1"]')
    assert code == EXIT_FORMAT
    assert out == "" and "too large" in err


AT_SIZE_CAPS = {
    "modulus-and-q-2048-bits-n4": (2**2048 - 1, 2**2048 - 3, 2**2048 - 3, 4),
    "n-64": (23, 11, 11, 64),
    "n32-times-256-bits": (2 * Q256 + 1, Q256, Q256, 32),
}


@pytest.mark.parametrize("sizes", AT_SIZE_CAPS.values(), ids=AT_SIZE_CAPS)
def test_config_at_size_cap_reaches_checks(tmp_path, monkeypatch, sizes):
    monkeypatch.setattr(fusionexp.cli, "GroupParams", reached)
    cfg = tmp_path / "cap.json"
    write_config(cfg, *sizes)
    with pytest.raises(Reached):
        load_system_config(str(cfg))


@pytest.mark.parametrize("q_bits, n", ((2048, 1), (4, 65), (256, 33), (257, 32),
                                       (2047, 4), (128, 64), (4, 64), (513, 1), (4, 33)))
def test_params_over_size_cap_rejected(capsys, monkeypatch, q_bits, n):
    monkeypatch.setattr(fusionexp.cli, "gen_group_params", reached)
    code, out, err = run(capsys, "params", "--q-bits", str(q_bits), "--n", str(n),
                         "--seed", "1")
    assert code == EXIT_USAGE
    assert out == "" and "at most" in err


@pytest.mark.parametrize("q_bits, n", ((512, 16), (4, 32), (256, 32)))
def test_params_at_size_cap_accepted(monkeypatch, q_bits, n):
    monkeypatch.setattr(fusionexp.cli, "gen_group_params", reached)
    with pytest.raises(Reached):
        main(["params", "--q-bits", str(q_bits), "--n", str(n), "--seed", "1"])


def test_params_non_residue_characteristic_uses_search(capsys, tmp_path):
    # 6-bit safe-prime subgroup orders are 41 or 53, both 1 mod 4, so the
    # degree-2 modulus comes from the seeded search rather than X^2 + 1
    out = tmp_path / "cfg.json"
    code, stdout, _ = run(capsys, "params", "--q-bits", "6", "--n", "2",
                          "--seed", "1", "--out", str(out))
    assert code == EXIT_OK
    obj = json.loads(stdout)
    assert int(obj["group"]["q"]) % 4 == 1
    load_system_config(str(out))  # construction revalidates irreducibility


def test_non_utf8_config_is_malformed_input(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{bad")
    code, out, err = run(capsys, "demo", "--config", str(bad), "--which", "dh")
    assert code == EXIT_FORMAT
    assert out == "" and "input error" in err


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_demo_reductions_rejects_nonpositive_trials(capsys, config_path, trials):
    code, out, err = run(capsys, "demo", "--config", config_path,
                         "--which", "reductions", "--trials", trials)
    assert code == EXIT_USAGE
    assert out == "" and "--trials" in err


def integer_flag_commands(config_path, text):
    fdlog = ["fdlog", "--config", config_path, "--base", '["2","4"]', "--target", '["16","1"]']
    demo = ["demo", "--config", config_path, "--which", "reductions"]
    return {
        "params --seed": ["params", "--q-bits", "4", "--n", "2", "--seed", text],
        "params --q-bits": ["params", "--q-bits", text, "--n", "2"],
        "params --n": ["params", "--q-bits", "4", "--n", text],
        "fdlog --seed": fdlog + ["--solver", "rho", "--seed", text],
        "demo --seed": demo + ["--seed", text],
        "demo --trials": demo + ["--trials", text],
        "vectors --n": ["vectors", "--n", text],
        "vectors --n list": ["vectors", "--n", f"2,{text}"],
    }


@pytest.mark.parametrize("text", ["3_0", " 30", "-1", "+3", "٣", "0x3", ""])
def test_integer_flags_take_ascii_digits_only(capsys, config_path, text):
    # int() would read "3_0" as 30, " 30" as 30 and "٣" as 3
    for what, argv in integer_flag_commands(config_path, text).items():
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE, what
        assert out == "" and "ASCII digits" in err, what


def test_integer_flags_accept_digits(capsys, config_path):
    for what, argv in integer_flag_commands(config_path, "3").items():
        if what == "params --q-bits":
            continue  # 3 bits is under the 4-bit minimum
        code, _, _ = run(capsys, *argv)
        assert code == EXIT_OK, what


def test_demo_trials_over_cap_rejected(capsys, config_path, monkeypatch):
    monkeypatch.setattr(fusionexp.cli, "run_reduction_matrix", reached)
    code, out, err = run(capsys, "demo", "--config", config_path, "--which", "reductions",
                         "--trials", str(MAX_TRIALS + 1))
    assert code == EXIT_USAGE
    assert out == "" and "--trials" in err


def test_demo_trials_at_cap_runs(config_path, monkeypatch):
    monkeypatch.setattr(fusionexp.cli, "run_reduction_matrix", reached)
    with pytest.raises(Reached):
        main(["demo", "--config", config_path, "--which", "reductions",
              "--trials", str(MAX_TRIALS)])


@pytest.fixture(scope="module")
def scan_configs(tmp_path_factory):
    """Configs at q = 11, n = 4 and at the 20-bit q = 898,409, n = 1."""
    paths = []
    for q_bits, n in ((4, 4), (20, 1)):
        path = tmp_path_factory.mktemp("scan") / "sys.json"
        assert main(["params", "--q-bits", str(q_bits), "--n", str(n), "--seed", "1",
                     "--out", str(path)]) == EXIT_OK
        paths.append(str(path))
    assert [load_system_config(p)[1].field_order for p in paths] == [11**4, 898_409]
    return paths


def test_demo_reductions_at_scan_cap_runs(scan_configs, monkeypatch):
    # trials * q^n may reach MAX_TRIALS * 11^4, the largest desk-scale run:
    # 1,000 * 11^4 is the cap itself; 16 * 898,409 = 14,374,544 lies under it
    monkeypatch.setattr(fusionexp.cli, "run_reduction_matrix", reached)
    for config, trials in zip(scan_configs, (MAX_TRIALS, 16)):
        with pytest.raises(Reached):
            main(["demo", "--config", config, "--which", "reductions",
                  "--trials", str(trials)])


def test_demo_reductions_over_scan_cap_rejected(capsys, scan_configs, monkeypatch):
    monkeypatch.setattr(fusionexp.cli, "run_reduction_matrix", reached)
    q20 = scan_configs[1]
    # 17 * 898,409 = 15,272,953 > 1,000 * 11^4 = 14,641,000
    for trials in (17, MAX_TRIALS):
        code, out, err = run(capsys, "demo", "--config", q20, "--which", "reductions",
                             "--trials", str(trials))
        assert code == EXIT_USAGE, trials
        assert out == "" and "field order" in err, trials
    # the other demos run no scan, so the cap does not apply to them
    code, _, _ = run(capsys, "demo", "--config", q20, "--which", "dh",
                     "--trials", str(MAX_TRIALS))
    assert code == EXIT_OK


def padded_config(config_path, tmp_path, size):
    """The config at config_path, padded with trailing spaces to size bytes."""
    text = Path(config_path).read_bytes()
    padded = tmp_path / "padded.json"
    padded.write_bytes(text + b" " * (size - len(text)))
    return padded


def test_config_over_byte_cap_rejected_before_parsing(capsys, config_path, tmp_path, monkeypatch):
    cfg = padded_config(config_path, tmp_path, MAX_CONFIG_BYTES + 1)
    monkeypatch.setattr(fusionexp.cli.json, "loads", reached)
    code, out, err = run(capsys, "eval", "--config", str(cfg),
                         "--base", '["2","4"]', "--exp", '["3","5"]')
    assert code == EXIT_FORMAT
    assert out == "" and "too large" in err


def test_config_at_byte_cap_loads(capsys, config_path, tmp_path):
    cfg = padded_config(config_path, tmp_path, MAX_CONFIG_BYTES)
    code, out, _ = run(capsys, "eval", "--config", str(cfg),
                       "--base", '["2","4"]', "--exp", '["3","5"]')
    assert code == EXIT_OK
    assert json.loads(out) == ["16", "1"]


def assert_malformed(result):
    code, out, err = result
    assert code == EXIT_FORMAT
    assert out == "" and "Traceback" not in err
    assert "recursion depth" in err


def test_deeply_nested_config_is_malformed_input(capsys, tmp_path):
    cfg = tmp_path / "deep.json"
    cfg.write_text("[" * 60_000)  # within MAX_CONFIG_BYTES
    assert 60_000 <= MAX_CONFIG_BYTES
    assert_malformed(run(capsys, "eval", "--config", str(cfg),
                         "--base", '["2","4"]', "--exp", '["3","5"]'))


DEEP_VECTOR = "[" * 60_000  # past the decoder's recursion limit on 3.10-3.13


def test_deeply_nested_eval_base_is_malformed_input(capsys, config_path):
    assert_malformed(run(capsys, "eval", "--config", config_path,
                         "--base", DEEP_VECTOR, "--exp", '["3","5"]'))


def test_deeply_nested_eval_exponent_is_malformed_input(capsys, config_path):
    assert_malformed(run(capsys, "eval", "--config", config_path,
                         "--base", '["2","4"]', "--exp", DEEP_VECTOR))


def test_deeply_nested_fdlog_target_is_malformed_input(capsys, config_path):
    assert_malformed(run(capsys, "fdlog", "--config", config_path,
                         "--base", '["2","4"]', "--target", DEEP_VECTOR))
