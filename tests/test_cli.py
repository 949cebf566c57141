import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import random
import re
import string
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cypair import chow, cli, hodge, inputs, sncpair, symcalc
from cypair.cli import MAX_CP_R, MAX_DIAMOND_DIM, MAX_HRR_N, MAX_RANDOM, main

from help_texts import HELP_TEXTS
from tables import (
    EMPTY_DIVISOR_TABLE, NOT_CLOSED_AFTER_BLOWUP_TABLE, TRIANGLE_TABLE, centered_table,
    coordinate_table)


def run_cli(args, capsys):
    try:
        code = main(args)
    except SystemExit as exc:  # argparse rejects unknown/invalid flags with 2
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


# ---------------------------------------------------------------------------
# identities
# ---------------------------------------------------------------------------


def test_identities_small(capsys):
    code, out, _ = run_cli(["identities", "--max-m", "2"], capsys)
    assert code == 0
    assert "overall: pass" in out
    assert out.count("[PASS]") == 10  # five identities for each of m = 1, 2


def test_identities_invalid_bound(capsys):
    code, _, err = run_cli(["identities", "--max-m", "0"], capsys)
    assert code == 2
    assert "error" in err


def test_identities_rejects_oversize_bound(capsys):
    limit = symcalc.MAX_VERIFY_ROOTS
    code, _, err = run_cli(["identities", "--max-m", str(limit + 1)], capsys)
    assert code == 2
    assert f"--max-m must lie in 1..{limit}, got {limit + 1}" in err


# ---------------------------------------------------------------------------
# chi-d
# ---------------------------------------------------------------------------


def test_chi_d_cp(capsys):
    code, out, _ = run_cli(
        ["chi-d", "cp", "--r", "2", "--s", "2", "--d", "1", "--mults", "1,1"],
        capsys)
    assert code == 0
    assert "chi-d-vanishes" in out
    assert "overall: pass" in out


def test_chi_d_cp_rejects_nonpositive_multiplicity(capsys):
    code, _, err = run_cli(
        ["chi-d", "cp", "--r", "2", "--s", "2", "--d", "1", "--mults", "1,-1"],
        capsys)
    assert code == 2
    assert "positive" in err


def test_chi_d_table(capsys, empty_divisor_path):
    code, out, _ = run_cli(["chi-d", "table", "--file", empty_divisor_path], capsys)
    assert code == 0
    assert "actual 7" in out


def test_chi_d_table_missing_file(capsys, tmp_path):
    code, _, err = run_cli(
        ["chi-d", "table", "--file", str(tmp_path / "nope.json")], capsys)
    assert code == 2
    assert "nope.json" in err


def test_chi_d_table_syntax_error_is_line_anchored(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"d": 1,\n  "components": [}')
    code, _, err = run_cli(["chi-d", "table", "--file", str(path)], capsys)
    assert code == 2
    assert f"{path}:2:" in err


#: A command that reads a file, and a valid document for it.
FILE_INPUTS = [
    (["chi-d", "table", "--file"], json.dumps(TRIANGLE_TABLE)),
    (["hodge", "correction", "--diamond"], '{"n": 1, "h": [[1, 0], [0, 1]]}'),
]


@pytest.mark.parametrize("command, text", FILE_INPUTS)
def test_input_file_size_limit_is_inclusive(capsys, monkeypatch, tmp_path, command, text):
    path = tmp_path / "input.json"
    path.write_text(text, encoding="utf-8")
    size = len(text.encode())
    monkeypatch.setattr(cli, "MAX_INPUT_BYTES", size)
    code, _, _ = run_cli(command + [str(path)], capsys)
    assert code == 0
    monkeypatch.setattr(cli, "MAX_INPUT_BYTES", size - 1)
    code, out, err = run_cli(command + [str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: {path}: file is larger than the limit of {size - 1} bytes\n"


def test_reading_a_small_table_allocates_no_limit_sized_buffer(triangle_table_path):
    # read(MAX_INPUT_BYTES + 1) allocated a 16 MiB buffer for every file
    tracemalloc.start()
    try:
        pair = cli._parse_file(triangle_table_path, sncpair.pair_from_json)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pair == sncpair.pair_from_obj(TRIANGLE_TABLE)
    assert peak < 2 * 1024 * 1024


def test_a_file_of_several_chunks_is_read_whole_and_bounded(monkeypatch, tmp_path):
    # 2.5 MiB of spaces after the document: three chunks of 1 MiB
    path = tmp_path / "padded.json"
    text = json.dumps(TRIANGLE_TABLE) + " " * (5 << 19)
    path.write_text(text, encoding="utf-8")
    assert cli._parse_file(str(path), sncpair.pair_from_json) == sncpair.pair_from_obj(
        TRIANGLE_TABLE)
    for limit in (len(text), len(text) - 1, 1 << 20, (1 << 20) - 1):
        monkeypatch.setattr(cli, "MAX_INPUT_BYTES", limit)
        if limit >= len(text):
            assert cli._parse_file(str(path), len) == len(text)
            continue
        with pytest.raises(cli.CliInputError) as info:
            cli._parse_file(str(path), len)
        assert str(info.value) == f"{path}: file is larger than the limit of {limit} bytes"


@pytest.mark.parametrize("command, text", FILE_INPUTS)
def test_non_utf8_input_file_names_the_path(capsys, tmp_path, command, text):
    path = tmp_path / "input.json"
    path.write_bytes(text.encode()[:-1] + b"\xff")
    code, out, err = run_cli(command + [str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {path}: ")
    assert "can't decode byte 0xff" in err


@pytest.mark.parametrize("command, text", FILE_INPUTS)
def test_deeply_nested_input_file_names_the_path(capsys, tmp_path, command, text):
    # 200,000 open brackets: far below the size limit, far beyond the
    # decoder's stack
    path = tmp_path / "input.json"
    path.write_text("[" * 200_000)
    code, out, err = run_cli(command + [str(path)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}: maximum recursion depth exceeded")


# ---------------------------------------------------------------------------
# blowup-check
# ---------------------------------------------------------------------------


def test_blowup_check_worked_example(capsys, triangle_table_path):
    code, out, _ = run_cli(["blowup-check", "--file", triangle_table_path], capsys)
    assert code == 0
    assert "[PASS] exceptional-multiplicity: expected 3, actual 3" in out
    assert "[PASS] chi-d-before: expected 0, actual 0" in out
    assert "[PASS] chi-d-after: expected 0, actual 0" in out
    assert "[PASS] center-coefficient: expected 1, actual 1" in out
    assert "[PASS] exceptional-coefficient: expected 1, actual 1" in out


def test_blowup_check_random(capsys):
    code, out, _ = run_cli(
        ["blowup-check", "--random", "25", "--seed", "7"], capsys)
    assert code == 0
    assert out.count("[PASS]") == 25


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_random_blowup_check_agrees_with_the_full_check(capsys, seed):
    # `--random` reads chi_d of each instance and of its blow-up alone; the
    # full check, which `--file` reports, must give the same two values.
    code, out, _ = run_cli(
        ["blowup-check", "--random", "200", "--seed", str(seed), "--json"], capsys)
    assert code == 0
    checks = json.loads(out)["checks"]
    rng = random.Random(seed)
    for check in checks:
        result = sncpair.check_blowup_invariance(sncpair.random_blowup_instance(rng))
        assert (check["expected"], check["actual"]) == (
            str(result.before), str(result.after))
    assert len(checks) == 200


def test_random_blowup_check_validates_and_weighs_two_pairs_per_instance(
        capsys, monkeypatch):
    # Each instance and its blow-up are validated once, at construction, and
    # weighed once; the induced pairs on the center and on E are not built.
    calls = {"chi_d": 0, "validate": 0}

    def counting(name):
        original = getattr(sncpair, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(sncpair, name, counting(name))
    code, out, _ = run_cli(["blowup-check", "--random", "50"], capsys)
    assert code == 0
    assert out.count("[PASS]") == 50
    assert calls == {"chi_d": 100, "validate": 100}


# sha256 of the --json stdout of `--random 200 --seed S`.  The benchmark
# oracle redraws the blowup-check instances from the same seed, so the
# order in which they are drawn must not change.  Every ledger check reads
# True, so its report does not depend on the seed (the diamond draws are
# pinned in test_hodge.py).
RANDOM_REPORT_DIGESTS = {
    ("blowup-check", 1):
        "d5425505467ebc7a864d6110092042ab253da1a1c5eb669fe585418fe75b967c",
    ("blowup-check", 2):
        "e43e0aec66616105b1e98a45d9bf0ea8511b16618700e5d5465758d7f00833e5",
    ("blowup-check", 3):
        "96ea5d631da82b5a9d0b9299d1634150502dcae7d3d0beb7427929c7c0364eb2",
    ("hodge ledger", 1):
        "8200e143d24b26045d4dd09ef0dbcb7ccc77e65b2e63c51040b4a478b08ec088",
    ("hodge ledger", 2):
        "8200e143d24b26045d4dd09ef0dbcb7ccc77e65b2e63c51040b4a478b08ec088",
    ("hodge ledger", 3):
        "8200e143d24b26045d4dd09ef0dbcb7ccc77e65b2e63c51040b4a478b08ec088",
}


@pytest.mark.parametrize("command, seed", sorted(RANDOM_REPORT_DIGESTS))
def test_random_reports_match_recorded_digests(capsys, command, seed):
    code, out, _ = run_cli(
        command.split() + ["--random", "200", "--seed", str(seed), "--json"],
        capsys)
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == RANDOM_REPORT_DIGESTS[command, seed]


# sha256 of exact-arithmetic reports: `identities --max-m 8 --json`, and the
# concatenated `hrr cp --json` stdout for n = 0..10, every p and twists
# -1..2.  Rationals print as reduced "p/q", so the digests pin the values
# and their printed form whatever the series store internally.
IDENTITIES_M8_DIGEST = "f38ec16aeb06a9242d0199074e48ab58699b0292dd44eaa56f638894b0c0b0d3"
HRR_CP_N10_DIGEST = "1d38ecf4f2a5191f13745003e6d1d47dbb689e620e0b8abb518f3a16fda108be"


@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_identities_report_does_not_depend_on_the_order_of_root_counts(capsys, flags):
    # `identities` verifies m = max_m..1 so that smaller root counts restrict
    # the first build; `_emit` sorts the checks, so the report reads as if
    # each m were verified from scratch in increasing order.
    code, out, _ = run_cli(["identities", "--max-m", "5", *flags], capsys)
    assert code == 0
    for memo in (symcalc._universal, symcalc.todd, symcalc.todd_prime,
                 symcalc.ch_exterior, symcalc._alternating_sums):
        memo.cache_clear()
    symcalc._LARGEST.clear()
    ascending = []
    for m in range(1, 6):
        for i, residual in enumerate(symcalc.verify_total_class_identities(m), 1):
            ascending.append(cli._check(f"m{m}-todd-identity-{i}", repr(residual), "0"))
        for i, residual in enumerate(symcalc.verify_shifted_class_identities(m), 1):
            ascending.append(cli._check(f"m{m}-todd-prime-identity-{i}", repr(residual), "0"))
    shuffled = ascending[:]
    random.Random(5).shuffle(shuffled)
    args = argparse.Namespace(json=bool(flags), out=None)
    for checks in (ascending, ascending[::-1], shuffled):
        assert cli._emit(cli.Report("identities", checks, []), args) == 0
        assert capsys.readouterr().out == out


def test_identities_report_matches_recorded_digest(capsys):
    code, out, _ = run_cli(["identities", "--max-m", "8", "--json"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == IDENTITIES_M8_DIGEST


# sha256 of `identities --max-m K --json` for K = 1..15: each report is its
# checks for m = 1..K, so every root count the suite admits is pinned.
IDENTITIES_DIGESTS = {
    1: "9d03569c7ab8379dd528fe306b1f947ad37fc5be2dd8c092798da6d816257cba",
    2: "bc47d4f780475885cadd39c7f12f9007eb565ff0dac7e4cb4913453b20af01d5",
    3: "17b5a88ca22deaa1405b2ecc93cd402ca0e4a915d499b754da72082caa888d33",
    4: "f41df0fda2aa48c38c59db78e28030821da580013e0c1760f7fa633944645c45",
    5: "9d2f73e898c71d302f00cb58ce3a4b261b9dea4dc586ff94d27bfb9733d0c822",
    6: "e12f641afbfeb5d1f8ca13e21900491b854056aae2aa5b9917975c8e5be3b39a",
    7: "ed1a5238b77989310836a6d4fd5acb550d39c98912d85341c78c0c1932f92b01",
    8: "f38ec16aeb06a9242d0199074e48ab58699b0292dd44eaa56f638894b0c0b0d3",
    9: "6f3e5f7c3b8e849b749a5e3767fd2a474b05e72134fb0fff1b6d8098a96f5cbd",
    10: "76d5a821f64a020b9da901724db8651ba21971a0a27049aca7318f534dfcf234",
    11: "0b6104421b6fd2f453d6f2a9a5fb6ff4b940c9f630e9f2f3b992263fc3b8a324",
    12: "d1c1fbdf96e8e1753f6e2e0cc2122341d4c97c900b9ac5a646eee348c8e577de",
    13: "f07dc7ca1464594000eaf08e19bb16654ed9d7709d615e0684966849830fd677",
    14: "6ac3a7c15c3153c2664fb827ed06ce2d112edd0ce03941e3ffdd7c2f4ec415b4",
    15: "66c226f7db4a7b3e78680a0f08284c4771deae15b11b46e729ea63478bab1f03",
}


def test_identities_reports_of_every_root_count_match_recorded_digests(capsys):
    # The largest K first: its genera serve every smaller one by restriction.
    assert max(IDENTITIES_DIGESTS) == symcalc.MAX_VERIFY_ROOTS
    digests = {}
    for k in sorted(IDENTITIES_DIGESTS, reverse=True):
        code, out, _ = run_cli(["identities", "--max-m", str(k), "--json"], capsys)
        assert code == 0
        digests[k] = hashlib.sha256(out.encode()).hexdigest()
    assert digests == IDENTITIES_DIGESTS


def test_hrr_cp_reports_match_recorded_digest(capsys):
    outs = []
    for n in range(11):
        for p in range(n + 1):
            for twist in (-1, 0, 1, 2):
                code, out, _ = run_cli(
                    ["hrr", "cp", "--n", str(n), "--p", str(p), "--twist", str(twist),
                     "--json"], capsys)
                assert code == 0
                outs.append(out)
    assert hashlib.sha256("".join(outs).encode()).hexdigest() == HRR_CP_N10_DIGEST


# sha256 of the concatenated `hrr cp` stdout, as text and as --json, over
# n = 0..20, p in {0, 1, n // 2, n} and twists -3, 0, 1, 2, 7 and a 39-digit
# value: the Td pairing and ring reduction of P^n, pinned up to dimension 20.
HRR_GRID_TWISTS = (-3, 0, 1, 2, 7, 10 ** 38 + 123456789)
HRR_GRID_DIGESTS = {
    "text": "a01bc870a24e78818bcea80b5d009edb5c8975ef74bd53cfd932321dfd5479e1",
    "json": "1a6d9e4d0322d34a30e0708d44d4257e949eb2855b9f1a06504b5e88ea835b9f",
}


@pytest.mark.parametrize("form", sorted(HRR_GRID_DIGESTS))
def test_hrr_reports_match_recorded_digests(capsys, form):
    outs = []
    for n in range(21):
        for p in sorted({0, 1, n // 2, n} & set(range(n + 1))):
            for twist in HRR_GRID_TWISTS:
                args = ["hrr", "cp", "--n", str(n), "--p", str(p), "--twist", str(twist)]
                code, out, err = run_cli(args + ["--json"] * (form == "json"), capsys)
                assert (code, err) == (0, "")
                outs.append(out)
    assert hashlib.sha256("".join(outs).encode()).hexdigest() == HRR_GRID_DIGESTS[form]


# sha256 of the --json stdout of the benchmark's strata-wide commands, on
# inputs built here: `chi-d table --file` and `blowup-check --file` on the
# centered coordinate table of P^10 (2,047 strata), and `chi-d cp --r 12
# --s 12` (8,191 strata).  Dense tables have their closure decided on a
# presence cube, and these pin that their reports keep every byte.  The
# 40-digit case is `blowup-check --file` on that table with multiplicities
# of 39 and 40 digits: its tables of 9, 11 and 12 components take the mask
# sum's second level on numerators of hundreds of digits.
STRATA_MULTS = [1 + j % 5 for j in range(12)]
STRATA_BIG_MULTS = [(j + 1) * 10 ** 38 + 7 * j + 1 for j in range(10)]
STRATA_WIDE_DIGESTS = {
    "chi-d table": "60c89481ea930ddff65ec2419afc65acbc2020134275183a5b474d242ad01a4d",
    "blowup-check": "4dacb829262cb1b897f1549bff12a8ecb440f74d915d730a653399b9fc480c6c",
    "blowup-check 40-digit": "1780db2b011fc8c85c7a4dd06cb08984323daef0b2a348f13e2ad3da3b8b513d",
    "chi-d cp": "0171eddf7f185711addae635c5feeefc749c0db208cbf93c17e825f40ce00547",
}


@pytest.mark.parametrize("case", sorted(STRATA_WIDE_DIGESTS))
def test_strata_wide_reports_match_recorded_digests(capsys, tmp_path, case):
    command = case.removesuffix(" 40-digit")
    if command == "chi-d cp":
        args = ["--r", "12", "--s", "12", "--d", "1",
                "--mults", ",".join(map(str, STRATA_MULTS))]
    else:
        mults = STRATA_BIG_MULTS if case != command else STRATA_MULTS[:10]
        path = tmp_path / "coordinate.json"
        path.write_text(json.dumps(coordinate_table(10, mults)))
        args = ["--file", str(path)]
    code, out, err = run_cli(command.split() + args + ["--json"], capsys)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == STRATA_WIDE_DIGESTS[case]


def test_blowup_check_requires_one_mode(capsys, triangle_table_path):
    code, _, err = run_cli(["blowup-check"], capsys)
    assert code == 2
    code, _, err = run_cli(
        ["blowup-check", "--file", triangle_table_path, "--random", "3"], capsys)
    assert code == 2


def test_blowup_check_missing_center(capsys, empty_divisor_path):
    code, _, err = run_cli(["blowup-check", "--file", empty_divisor_path], capsys)
    assert code == 2
    assert "center" in err


def test_blowup_check_negative_containing_component(capsys, tmp_path):
    table = json.loads(json.dumps(TRIANGLE_TABLE))
    table["components"][0]["mult"] = -2  # H1 contains the center
    path = tmp_path / "bad_center.json"
    path.write_text(json.dumps(table))
    code, _, err = run_cli(["blowup-check", "--file", str(path)], capsys)
    assert code == 2
    assert "negative" in err


def test_blowup_check_requires_positive_degree(capsys, tmp_path):
    table = json.loads(json.dumps(TRIANGLE_TABLE))
    table["d"] = -1
    for component in table["components"][:2]:
        component["mult"] = 2  # 1 = -d is a forbidden multiplicity
    path = tmp_path / "negative_d.json"
    path.write_text(json.dumps(table))
    code, _, _ = run_cli(["chi-d", "table", "--file", str(path)], capsys)
    assert code == 0
    assert run_cli(["blowup-check", "--file", str(path)], capsys) == (
        2, "", "error: blow-up operations require d > 0, got d = -1\n")


def test_blowup_check_rejects_table_that_loses_downward_closure(capsys, tmp_path):
    path = tmp_path / "not_closed.json"
    path.write_text(json.dumps(NOT_CLOSED_AFTER_BLOWUP_TABLE))
    code, out, err = run_cli(["blowup-check", "--file", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err == (f"error: stratum {{A,B,C}} is marked nonempty but its "
                   f"subset {{B,C}} is empty\n")


def test_blowup_check_rejects_a_component_too_many(capsys, tmp_path):
    # A table may have MAX_COMPONENTS components, but its blow-up adds E.
    full = tmp_path / "full.json"
    full.write_text(json.dumps(centered_table(inputs.MAX_COMPONENTS)))
    code, _, _ = run_cli(["chi-d", "table", "--file", str(full)], capsys)
    assert code == 0
    code, out, err = run_cli(["blowup-check", "--file", str(full)], capsys)
    assert code == 2
    assert out == ""
    assert err == (
        f"error: the blow-up adds the exceptional component 'E' to the "
        f"{inputs.MAX_COMPONENTS} components of the input, which exceeds the "
        f"supported maximum of {inputs.MAX_COMPONENTS}\n")
    one_fewer = tmp_path / "one_fewer.json"
    one_fewer.write_text(json.dumps(centered_table(inputs.MAX_COMPONENTS - 1)))
    code, out, _ = run_cli(["blowup-check", "--file", str(one_fewer)], capsys)
    assert code == 0
    assert "[PASS] invariance" in out


def test_superset_of_empty_stratum_rejected(capsys, tmp_path):
    table = json.loads(json.dumps(TRIANGLE_TABLE))
    table["strata"] = [s for s in table["strata"] if s["subset"] != ["H1"]]
    path = tmp_path / "gap.json"
    path.write_text(json.dumps(table))
    code, _, err = run_cli(["blowup-check", "--file", str(path)], capsys)
    assert code == 2
    assert "empty" in err


def test_forbidden_multiplicity_rejected(capsys, tmp_path):
    table = json.loads(json.dumps(TRIANGLE_TABLE))
    table["components"][2]["mult"] = -1  # equals -d
    path = tmp_path / "forbidden.json"
    path.write_text(json.dumps(table))
    code, _, err = run_cli(["chi-d", "table", "--file", str(path)], capsys)
    assert code == 2
    assert "-d" in err


# A codimension-2 center inside A alone, meeting {B,C} but not {B}.
CENTER_MISSES_A_SUBSET = {
    "d": 1,
    "components": [{"id": "A", "mult": 1, "contains_center": True},
                   {"id": "B", "mult": 1}, {"id": "C", "mult": 1}],
    "center": {"codim": 2},
    "strata": [
        {"subset": subset, "chi": 1,
         "chi_meet_center": None if "B" in subset and "C" not in subset else 1}
        for subset in [[], ["A"], ["B"], ["C"], ["A", "B"], ["A", "C"],
                       ["B", "C"], ["A", "B", "C"]]
    ],
}

#: A change to the triangle table, and the message of the rule it breaks.
TABLE_FAULTS = {
    "zero-d": (lambda t: t.update(d=0), "d must be a non-zero integer"),
    "too-many-components": (
        lambda t: t.update(centered_table(inputs.MAX_COMPONENTS + 1)),
        f"{inputs.MAX_COMPONENTS + 1} components exceed the supported maximum "
        f"of {inputs.MAX_COMPONENTS}"),
    "zero-multiplicity": (lambda t: t["components"][0].update(mult=0),
                          "component 'H1' has multiplicity 0"),
    "empty-singleton": (
        lambda t: t.update(
            strata=[s for s in t["strata"] if "Hinf" not in s["subset"]]),
        "component 'Hinf' has an empty singleton stratum; divisor components "
        "must be nonempty"),
    "flags-without-center": (
        lambda t: t.update(center=None),
        "components are flagged contains_center but no center is declared"),
    # the flags are refused after the rules on the components and the table
    "flags-without-center-and-zero-multiplicity": (
        lambda t: (t.update(center=None), t["components"][2].update(mult=0)),
        "component 'Hinf' has multiplicity 0"),
    "meet-without-center": (
        lambda t: t.update(EMPTY_DIVISOR_TABLE, strata=[
            {"subset": [], "chi": 7, "chi_meet_center": 1}]),
        "stratum {} carries chi_meet_center but no center is declared"),
    "codim-zero": (lambda t: t["center"].update(codim=0),
                   "center codimension must be >= 1, got 0"),
    "no-meet-on-empty-set": (
        lambda t: t["strata"][0].update(chi_meet_center=None),
        "chi_meet_center of the empty subset (the Euler number of the center "
        "itself) is required when a center is declared"),
    "center-table-not-closed": (
        lambda t: t.update(CENTER_MISSES_A_SUBSET),
        "center meets stratum {B,C} but supposedly misses stratum {B}, which "
        "contains it"),
    "center-table-not-closed-under-C": (
        lambda t: t["strata"].pop(4),  # {H1,H2}, the center itself
        "center meets stratum {} and is contained in components {H1,H2}, so "
        "stratum {H1,H2} cannot be empty"),
    "duplicate-ids": (lambda t: t["components"][1].update(id="H1"),
                      "components: duplicate ids"),
    "stratum-not-an-object": (lambda t: t["strata"].__setitem__(1, 5),
                              "strata[1]: expected an object"),
    "repeated-id-in-subset": (
        lambda t: t["strata"][4].update(subset=["H1", "H1"]),
        "strata[4].subset: repeated component id 'H1'"),
    "duplicate-subset": (
        lambda t: t["strata"].append(dict(t["strata"][4], subset=["H2", "H1"])),
        "strata[7]: duplicate subset ['H1', 'H2']"),
}


@pytest.mark.parametrize("fault", TABLE_FAULTS)
def test_table_rule_message(capsys, tmp_path, fault):
    change, message = TABLE_FAULTS[fault]
    table = json.loads(json.dumps(TRIANGLE_TABLE))
    change(table)
    path = tmp_path / "fault.json"
    path.write_text(json.dumps(table))
    code, out, err = run_cli(["chi-d", "table", "--file", str(path)], capsys)
    assert (code, out, err) == (2, "", f"error: {path}: {message}\n")


def test_table_entry_marked_empty_counts_as_omitted(capsys, tmp_path, triangle_table_path):
    table = json.loads(json.dumps(TRIANGLE_TABLE))
    table["strata"].append({"subset": ["H1", "H2", "Hinf"], "chi": 0,
                            "nonempty": False})
    path = tmp_path / "marked_empty.json"
    path.write_text(json.dumps(table))
    for command in (["chi-d", "table"], ["blowup-check"]):
        marked = run_cli(command + ["--file", str(path), "--json"], capsys)
        omitted = run_cli(command + ["--file", triangle_table_path, "--json"], capsys)
        assert marked == omitted
        assert marked[0] == 0


# ---------------------------------------------------------------------------
# hrr and hodge
# ---------------------------------------------------------------------------


def test_hrr_cp_vanishing(capsys):
    code, out, _ = run_cli(
        ["hrr", "cp", "--n", "2", "--p", "1", "--twist", "1"], capsys)
    assert code == 0
    assert "twisted-forms-vanish" in out


def test_hrr_cp_untwisted(capsys):
    code, out, _ = run_cli(["hrr", "cp", "--n", "3", "--p", "2"], capsys)
    assert code == 0
    assert "expected 1, actual 1" in out


def test_hrr_cp_bad_flags(capsys):
    code, _, err = run_cli(["hrr", "cp", "--n", "2", "--p", "5"], capsys)
    assert code == 2
    assert "--p must lie in 0..2, got 5" in err


@pytest.mark.parametrize("n", [-1, MAX_HRR_N + 1])
def test_hrr_cp_rejects_dimension_out_of_range(capsys, n):
    code, _, err = run_cli(["hrr", "cp", "--n", str(n), "--p", "0"], capsys)
    assert code == 2
    assert f"--n must lie in 0..{MAX_HRR_N}, got {n}" in err


@pytest.mark.parametrize("command", [["blowup-check"], ["hodge", "ledger"]])
@pytest.mark.parametrize("count", [0, MAX_RANDOM + 1])
def test_random_count_out_of_range(capsys, command, count):
    code, out, err = run_cli(command + ["--random", str(count)], capsys)
    assert code == 2
    assert out == ""
    assert f"--random must lie in 1..{MAX_RANDOM}, got {count}" in err


def _refuse(*args, **kwargs):
    raise AssertionError("an oversize input reached the computation")


def test_chi_d_cp_rejects_oversize_r(capsys, monkeypatch):
    monkeypatch.setattr(sncpair, "cp_pair", _refuse)
    r = str(MAX_CP_R + 1)
    code, out, err = run_cli(["chi-d", "cp", "--r", r, "--s", r, "--d", "1"], capsys)
    assert code == 2
    assert out == ""
    assert f"--r must lie in 1..{MAX_CP_R}, got {MAX_CP_R + 1}" in err


@pytest.mark.parametrize("r", [0, -1])
def test_chi_d_cp_rejects_r_below_one(capsys, monkeypatch, r):
    # --r is the ambient dimension: the CLI names the flag and its range
    monkeypatch.setattr(sncpair, "cp_pair", _refuse)
    code, out, err = run_cli(["chi-d", "cp", "--r", str(r), "--s", "0", "--d", "1"], capsys)
    assert code == 2
    assert out == ""
    assert f"--r must lie in 1..{MAX_CP_R}, got {r}" in err


def test_chi_d_cp_accepts_largest_r(capsys):
    # s = 0 keeps the table small; the bound is on r alone.
    code, _, _ = run_cli(
        ["chi-d", "cp", "--r", str(MAX_CP_R), "--s", "0", "--d", "1"], capsys)
    assert code == 0


@pytest.mark.parametrize("flag, mults", [("--d", "1,1"), ("--mults", "1,{}")])
def test_chi_d_cp_rejects_oversize_digits(capsys, monkeypatch, flag, mults):
    monkeypatch.setattr(sncpair, "cp_pair", _refuse)
    limit = inputs.MAX_INT_DIGITS
    big = str(10 ** limit)
    d = big if flag == "--d" else "1"
    code, out, err = run_cli(
        ["chi-d", "cp", "--r", "2", "--s", "2", "--d", d,
         "--mults", mults.format(big)], capsys)
    assert code == 2
    assert out == ""
    assert f"{flag}: {limit + 1} digits exceed the limit of {limit}" in err


def test_chi_d_cp_accepts_largest_digits(capsys):
    largest = str(10 ** inputs.MAX_INT_DIGITS - 1)
    code, out, _ = run_cli(
        ["chi-d", "cp", "--r", "2", "--s", "2", "--d", largest,
         "--mults", f"{largest},{largest}"], capsys)
    assert code == 0
    assert "overall: pass" in out


@pytest.mark.parametrize("sign", ["", "-"])
def test_hrr_cp_rejects_oversize_twist(capsys, monkeypatch, sign):
    monkeypatch.setattr(chow, "chi_twisted_hodge", _refuse)
    limit = inputs.MAX_INT_DIGITS
    code, out, err = run_cli(
        ["hrr", "cp", "--n", "2", "--p", "1", "--twist", sign + str(10 ** limit)],
        capsys)
    assert code == 2
    assert out == ""
    assert f"--twist: {limit + 1} digits exceed the limit of {limit}" in err


def test_hrr_cp_accepts_largest_twist(capsys):
    largest = 10 ** inputs.MAX_INT_DIGITS - 1
    code, out, _ = run_cli(
        ["hrr", "cp", "--n", "2", "--p", "1", "--twist", str(largest), "--json"],
        capsys)
    assert code == 0
    assert json.loads(out)["overall"] == "pass"


#: CPython's default limit on the digits of an int converted to a string.
INT_STR_DIGITS = 4300


def chi_omega_integers(n: int, s: int) -> list[int]:
    """chi(Omega^p(s)) on P^n for p = 0..n, in integers, by the Euler sequence:
    chi(Omega^p(s)) = C(n+1, p) chi(O(s - p)) - chi(Omega^(p-1)(s)), with
    chi(O(k)) = (k + 1)(k + 2)...(k + n) / n!."""
    def chi_o(k: int) -> int:
        return math.prod(range(k + 1, k + n + 1)) // math.factorial(n)

    values = [chi_o(s)]
    for p in range(1, n + 1):
        values.append(math.comb(n + 1, p) * chi_o(s - p) - values[-1])
    return values


def test_hrr_cp_values_stay_below_the_int_string_limit():
    # The report prints each value; past INT_STR_DIGITS digits printing it
    # would raise.  The digits grow with n, so the largest --n and the
    # largest twists bound every value `hrr cp` can print.
    for n, p, s in [(2, 1, 1), (3, 2, -5), (4, 0, 7), (5, 3, -1)]:
        assert chi_omega_integers(n, s)[p] == chow.chi_twisted_hodge(n, p, s)
    largest = inputs.INT_LIMIT - 1
    for s in (largest, -largest):
        for p, value in enumerate(chi_omega_integers(MAX_HRR_N, s)):
            assert len(str(abs(value))) < INT_STR_DIGITS, (p, s)


def _set_meet(table, value):
    # H1 and H2 contain the center, so all four strata inside H1 + H2
    # share its Euler number; keep them consistent.
    for i in (0, 1, 2, 4):
        table["strata"][i]["chi_meet_center"] = value


#: Each bounded integer field of a table document, and how to set it.
TABLE_INT_FIELDS = {
    "d": lambda t, v: t.update(d=v),
    "components[0].mult": lambda t, v: t["components"][0].update(mult=v),
    "center.codim": lambda t, v: t["center"].update(codim=v),
    "strata[0].chi": lambda t, v: t["strata"][0].update(chi=v),
    "strata[0].chi_meet_center": _set_meet,
}


@pytest.mark.parametrize("field", TABLE_INT_FIELDS)
def test_table_int_digits_limit(capsys, tmp_path, field):
    limit = inputs.MAX_INT_DIGITS
    for value, code_expected in [(10 ** limit - 1, 0), (10 ** limit, 2)]:
        table = json.loads(json.dumps(TRIANGLE_TABLE))
        TABLE_INT_FIELDS[field](table, value)
        path = tmp_path / "digits.json"
        path.write_text(json.dumps(table))
        code, _, err = run_cli(["chi-d", "table", "--file", str(path)], capsys)
        assert code == code_expected, err
    assert f"{field}: {limit + 1} digits exceed the limit of {limit}" in err


@pytest.mark.parametrize("command, flag", [
    (["hodge", "ledger", "--diamond", "{}"], "--diamond"),
    (["hodge", "correction", "--diamond", "{}"], "--diamond"),
    (["hodge", "bundle", "--base", "{}", "--fiber-dim", "0"], "--base"),
    (["hodge", "blowup", "--x", "{}", "--y", "point", "--codim", "2"], "--x"),
    (["hodge", "blowup", "--x", "point", "--y", "{}", "--codim", "2"], "--y"),
])
def test_hodge_rejects_oversize_builtin_diamond(capsys, monkeypatch, command, flag):
    monkeypatch.setattr(hodge.HodgeDiamond, "projective_space", _refuse)
    name = f"cp{MAX_DIAMOND_DIM + 1}"
    code, out, err = run_cli([a.format(name) for a in command], capsys)
    assert code == 2
    assert out == ""
    assert (f"{flag}: diamond dimension {MAX_DIAMOND_DIM + 1} exceeds the "
            f"limit of {MAX_DIAMOND_DIM}") in err


def test_hodge_rejects_oversize_diamond_file(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(hodge, "lambda_exponent_check", _refuse)
    n = MAX_DIAMOND_DIM + 1
    path = tmp_path / "big.json"
    path.write_text(json.dumps(
        {"n": n, "h": [[int(p == q) for q in range(n + 1)] for p in range(n + 1)]}))
    code, _, err = run_cli(["hodge", "ledger", "--diamond", str(path)], capsys)
    assert code == 2
    assert f"{path}: n: diamond dimension {n} exceeds" in err


def test_diamond_file_dimension_is_bounded_before_the_table(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(hodge.HodgeDiamond, "__init__", _refuse)
    n = MAX_DIAMOND_DIM + 1
    path = tmp_path / "big.json"
    path.write_text(json.dumps(
        {"n": n, "h": [[int(p == q) for q in range(n + 1)] for p in range(n + 1)]}))
    code, out, err = run_cli(["hodge", "correction", "--diamond", str(path)], capsys)
    assert (code, out, err) == (2, "", (
        f"error: {path}: n: diamond dimension {n} exceeds the limit of "
        f"{MAX_DIAMOND_DIM}\n"))


LONG = "9" * 4000

#: Commands with a 4,000-digit integer input, and the flag or field their
#: message names.  "{file}" stands for a diamond file whose "n" is that long.
LONG_INTEGER_INPUTS = {
    "identities --max-m": ("--max-m", ["identities", "--max-m", LONG]),
    "hrr cp --n": ("--n", ["hrr", "cp", "--n", LONG, "--p", "0"]),
    "chi-d cp --r": ("--r", ["chi-d", "cp", "--r", LONG, "--s", "1", "--d", "1"]),
    "chi-d cp --r negative": (
        "--r", ["chi-d", "cp", "--r", "-" + LONG, "--s", "1", "--d", "1"]),
    "chi-d cp --s": ("--s", ["chi-d", "cp", "--r", "2", "--s", LONG, "--d", "1"]),
    "blowup-check --random": ("--random", ["blowup-check", "--random", LONG]),
    "hodge ledger --random": ("--random", ["hodge", "ledger", "--random", LONG]),
    "blowup-check --seed": (
        "--seed", ["blowup-check", "--random", "1", "--seed", LONG]),
    "hodge ledger --seed": (
        "--seed", ["hodge", "ledger", "--random", "1", "--seed", LONG]),
    "hodge bundle --fiber-dim": (
        "--fiber-dim", ["hodge", "bundle", "--base", "cp1", "--fiber-dim", LONG]),
    "diamond name": ("--diamond", ["hodge", "correction", "--diamond", "cp" + LONG]),
    "diamond file n": ("{file}: n", ["hodge", "correction", "--diamond", "{file}"]),
}


@pytest.mark.parametrize("name", LONG_INTEGER_INPUTS)
def test_messages_do_not_repeat_long_integers(capsys, tmp_path, name):
    flag, command = LONG_INTEGER_INPUTS[name]
    path = tmp_path / "diamond.json"
    path.write_text(f'{{"n": {LONG}, "h": []}}')
    code, out, err = run_cli([a.format(file=path) for a in command], capsys)
    limit = inputs.MAX_INT_DIGITS
    assert (code, out, err) == (
        2, "", f"error: {flag.format(file=path)}: {len(LONG)} digits exceed the "
               f"limit of {limit}\n")


LONGER = "9" * 5000

#: Flags given a value past Python's 4,300-digit conversion limit, with the
#: flag their message names and the digit count it reports.
LONGER_INTEGER_INPUTS = {
    "identities --max-m": ("--max-m", 5000, ["identities", "--max-m", LONGER]),
    "chi-d cp --r": ("--r", 5000, ["chi-d", "cp", "--r", LONGER, "--s", "1", "--d", "1"]),
    "chi-d cp --r negative": (
        "--r", 5000, ["chi-d", "cp", "--r", "-" + LONGER, "--s", "1", "--d", "1"]),
    "chi-d cp --s": ("--s", 5000, ["chi-d", "cp", "--r", "2", "--s", LONGER, "--d", "1"]),
    "chi-d cp --d": ("--d", 5000, ["chi-d", "cp", "--r", "2", "--s", "1", "--d", LONGER]),
    "chi-d cp --mults": (
        "--mults", 5000,
        ["chi-d", "cp", "--r", "2", "--s", "1", "--d", "1", "--mults", LONGER]),
    "chi-d cp --mults second": (
        "--mults", 5000,
        ["chi-d", "cp", "--r", "2", "--s", "2", "--d", "1", "--mults", "1," + LONGER]),
    "chi-d cp --mults underscores and zeros": (
        "--mults", 5000,
        ["chi-d", "cp", "--r", "2", "--s", "1", "--d", "1",
         "--mults", "000" + "_".join(LONGER)]),
    "hrr cp --n": ("--n", 5000, ["hrr", "cp", "--n", LONGER, "--p", "0"]),
    "hrr cp --p": ("--p", 5000, ["hrr", "cp", "--n", "1", "--p", LONGER]),
    "hrr cp --twist": ("--twist", 5000, ["hrr", "cp", "--n", "1", "--p", "0",
                                         "--twist", "+" + LONGER]),
    "blowup-check --random": ("--random", 5000, ["blowup-check", "--random", LONGER]),
    "blowup-check --seed": (
        "--seed", 5000, ["blowup-check", "--random", "1", "--seed", LONGER]),
    "hodge bundle --fiber-dim": (
        "--fiber-dim", 5000, ["hodge", "bundle", "--base", "cp1", "--fiber-dim", LONGER]),
    "hodge blowup --codim": (
        "--codim", 5000, ["hodge", "blowup", "--x", "cp2", "--y", "point",
                          "--codim", LONGER]),
    "hodge ledger --random": ("--random", 5000, ["hodge", "ledger", "--random", LONGER]),
    "hodge ledger --seed": (
        "--seed", 5000, ["hodge", "ledger", "--random", "1", "--seed", LONGER]),
    "diamond name": ("--diamond", 5000, ["hodge", "correction", "--diamond", "cp" + LONGER]),
    "diamond name with leading zeros": (
        "--x", 5000, ["hodge", "blowup", "--x", "cp000" + LONGER, "--y", "point",
                      "--codim", "2"]),
}


@pytest.mark.parametrize("name", LONGER_INTEGER_INPUTS)
def test_flags_past_the_conversion_limit_are_not_repeated(capsys, name):
    flag, digits, command = LONGER_INTEGER_INPUTS[name]
    code, out, err = run_cli(command, capsys)
    limit = inputs.MAX_INT_DIGITS
    assert (code, out, err) == (
        2, "", f"error: {flag}: {digits} digits exceed the limit of {limit}\n")
    assert len(err.encode()) < 300


ZEROS = "0" * 5000

#: Commands whose integers carry 5,000 leading zeros, each with the same
#: command written plainly.  int() alone refuses such text: it is past
#: Python's 4,300-digit conversion limit.
LEADING_ZERO_INPUTS = {
    "chi-d cp --d": (["chi-d", "cp", "--r", "2", "--s", "0", "--d", ZEROS + "1"],
                     ["chi-d", "cp", "--r", "2", "--s", "0", "--d", "1"]),
    "chi-d cp --mults": (
        ["chi-d", "cp", "--r", "2", "--s", "2", "--d", "1", "--mults", "1," + ZEROS + "2"],
        ["chi-d", "cp", "--r", "2", "--s", "2", "--d", "1", "--mults", "1,2"]),
    "hrr cp --twist negative": (
        ["hrr", "cp", "--n", "2", "--p", "1", "--twist", "-" + ZEROS + "3"],
        ["hrr", "cp", "--n", "2", "--p", "1", "--twist", "-3"]),
    "identities --max-m underscores": (
        ["identities", "--max-m", "_".join(ZEROS) + "_2"], ["identities", "--max-m", "2"]),
    "diamond name": (["hodge", "correction", "--diamond", "cp" + ZEROS + "2"],
                     ["hodge", "correction", "--diamond", "cp2"]),
}


@pytest.mark.parametrize("name", LEADING_ZERO_INPUTS)
def test_leading_zeros_read_as_the_value(capsys, name):
    padded, plain = LEADING_ZERO_INPUTS[name]
    expected = run_cli(plain, capsys)
    assert expected[0] == 0
    assert run_cli(padded, capsys) == expected


@pytest.mark.parametrize("value", ["abc", "1.5", "9" * 30 + "x"])
def test_malformed_integer_flag_keeps_argparse_message(capsys, value):
    code, out, err = run_cli(["identities", "--max-m", value], capsys)
    assert (code, out) == (2, "")
    assert err.endswith(
        f"cypair identities: error: argument --max-m: invalid int value: {value!r}\n")


X5000 = "x" * 5000
CUT = f"{'x' * inputs.MAX_SHOWN_CHARS!r}... (5000 characters)"
#: X5000 as a stratum label shows it, without quotes.
LABEL_CUT = f"{'x' * inputs.MAX_SHOWN_CHARS}... (5000 characters)"


def test_long_malformed_integer_flag_is_cut(capsys):
    _, _, short = run_cli(["identities", "--max-m", "abc"], capsys)
    code, out, err = run_cli(["identities", "--max-m", X5000], capsys)
    assert (code, out, err) == (2, "", short.replace("'abc'", CUT))
    assert err.endswith(
        f"cypair identities: error: argument --max-m: invalid int value: {CUT}\n")
    assert len(err.encode()) < 300


def test_malformed_integer_flag_at_the_cut_is_repeated(capsys):
    value = "x" * inputs.MAX_SHOWN_CHARS
    code, out, err = run_cli(["identities", "--max-m", value], capsys)
    assert (code, out) == (2, "")
    assert err.endswith(f"invalid int value: {value!r}\n")


@pytest.mark.parametrize("mults, shown", [
    ("1," + X5000, f"{'1,' + 'x' * 38!r}... (5002 characters)"),
    ("1,a", "'1,a'"),
], ids=["long", "short"])
def test_malformed_mults_are_cut_when_long(capsys, mults, shown):
    code, out, err = run_cli(
        ["chi-d", "cp", "--r", "2", "--s", "2", "--d", "1", "--mults", mults], capsys)
    assert (code, out, err) == (
        2, "", f"error: --mults must be a comma-separated integer list, got {shown}\n")
    assert len(err.encode()) < 300


def _long_id(table):
    table["components"][0]["id"] = X5000
    for stratum in table["strata"]:
        stratum["subset"] = [X5000 if c == "H1" else c for c in stratum["subset"]]


#: Table faults whose message names a 5,000-character value, with the
#: message, in which the value is cut.
LONG_VALUE_FAULTS = {
    "unknown id in a subset": (
        lambda t: t["strata"][4].update(subset=["H1", X5000]),
        f"strata[4].subset: unknown component id {CUT}"),
    "repeated long id": (
        lambda t: (_long_id(t), t["strata"][4].update(subset=[X5000, X5000])),
        f"strata[4].subset: repeated component id {CUT}"),
    "duplicate subset": (
        lambda t: (_long_id(t), t["strata"].append(dict(t["strata"][1]))),
        f"strata[7]: duplicate subset [{CUT}]"),
    "unknown field": (lambda t: t.update({X5000: 1}),
                      f"top level: unknown field(s) [{CUT}]"),
    "string for an integer": (lambda t: t["strata"][1].update(chi=X5000),
                              f"strata[1].chi: expected an integer, got {CUT}"),
    "list for an integer": (
        lambda t: t["strata"][1].update(chi=[1] * 2000),
        f"strata[1].chi: expected an integer, got {'[' + '1, ' * 13}... "
        "(6000 characters)"),
    "validate names the id": (
        lambda t: (_long_id(t), t["components"][0].update(mult=0)),
        f"component {CUT} has multiplicity 0"),
    "validate names a stratum": (
        lambda t: (_long_id(t), t["strata"].pop(1)),
        f"stratum {{{LABEL_CUT},H2}} is marked nonempty but its subset "
        f"{{{LABEL_CUT}}} is empty"),
    "blow-up names a stratum": (
        lambda t: (_long_id(t), t["strata"].pop(4)),
        f"center meets stratum {{}} and is contained in components "
        f"{{{LABEL_CUT},H2}}, so stratum {{{LABEL_CUT},H2}} cannot be empty"),
}


@pytest.mark.parametrize("fault", LONG_VALUE_FAULTS)
def test_table_messages_cut_long_values(capsys, tmp_path, fault):
    change, message = LONG_VALUE_FAULTS[fault]
    table = json.loads(json.dumps(TRIANGLE_TABLE))
    change(table)
    path = tmp_path / "fault.json"
    path.write_text(json.dumps(table))
    code, out, err = run_cli(["blowup-check", "--file", str(path)], capsys)
    assert (code, out, err) == (2, "", f"error: {path}: {message}\n")
    assert len(err.encode()) < 300 + len(str(path))


@pytest.mark.parametrize("symmetric", [True, False])
def test_diamond_file_hodge_numbers_are_bounded(capsys, tmp_path, symmetric):
    # a symmetric table would be summed into the Betti numbers, an
    # asymmetric one repeated in the conjugation-symmetry message
    big = int(LONG)
    path = tmp_path / "diamond.json"
    path.write_text(json.dumps({"n": 1, "h": [[1, big], [big if symmetric else 0, 1]]}))
    code, out, err = run_cli(["hodge", "correction", "--diamond", str(path)], capsys)
    limit = inputs.MAX_INT_DIGITS
    assert (code, out, err) == (
        2, "", f"error: {path}: h[0][1]: {len(LONG)} digits exceed the limit of "
               f"{limit}\n")
    assert len(err.encode()) < 300


def _past_the_conversion_limit(document, sign=""):
    """The JSON text of `document`, each "BIG" string a 5,000-digit number."""
    return json.dumps(document).replace('"BIG"', sign + LONGER)


@pytest.mark.parametrize("sign", ["", "-"])
@pytest.mark.parametrize("field", TABLE_INT_FIELDS)
def test_table_integers_past_the_conversion_limit(capsys, tmp_path, field, sign):
    table = json.loads(json.dumps(TRIANGLE_TABLE))
    TABLE_INT_FIELDS[field](table, "BIG")
    path = tmp_path / "digits.json"
    path.write_text(_past_the_conversion_limit(table, sign))
    code, out, err = run_cli(["chi-d", "table", "--file", str(path)], capsys)
    limit = inputs.MAX_INT_DIGITS
    assert (code, out, err) == (
        2, "", f"error: {path}: {field}: {len(LONGER)} digits exceed the limit of "
               f"{limit}\n")


#: Diamond files with a number past Python's 4,300-digit conversion limit,
#: each with the command that reads it and its message, path first ("{path}").
#: A file's `n` is named by path and field, as a table's `d` is.
DIAMOND_FILE_INTEGERS_PAST_THE_LIMIT = {
    "h[0][1]": ({"n": 1, "h": [[1, "BIG"], [0, 1]]},
                ["hodge", "correction", "--diamond", "{path}"],
                "{path}: h[0][1]: 5000 digits exceed the limit of 40"),
    "n": ({"n": "BIG", "h": [[1]]},
          ["hodge", "correction", "--diamond", "{path}"],
          "{path}: n: 5000 digits exceed the limit of 40"),
    "n of a bundle base": ({"n": "BIG", "h": [[1]]},
                           ["hodge", "bundle", "--base", "{path}", "--fiber-dim", "1"],
                           "{path}: n: 5000 digits exceed the limit of 40"),
}


@pytest.mark.parametrize("name", DIAMOND_FILE_INTEGERS_PAST_THE_LIMIT)
def test_diamond_file_integers_past_the_conversion_limit(capsys, tmp_path, name):
    document, command, message = DIAMOND_FILE_INTEGERS_PAST_THE_LIMIT[name]
    path = tmp_path / "diamond.json"
    path.write_text(_past_the_conversion_limit(document))
    code, out, err = run_cli([a.format(path=path) for a in command], capsys)
    assert (code, out, err) == (2, "", f"error: {message.format(path=path)}\n")


@pytest.mark.parametrize("command", [["chi-d", "table", "--file"],
                                     ["hodge", "correction", "--diamond"]])
def test_malformed_file_past_the_conversion_limit_is_line_anchored(
        capsys, tmp_path, command):
    # the long number is decoded twice; the syntax error after it still
    # reports its line and column
    text = '{"n": ' + LONGER + ',\n "h": [}'
    path = tmp_path / "malformed.json"
    path.write_text(text)
    assert run_cli(command + [str(path)], capsys) == (
        2, "", f"error: {path}:2:8: Expecting value\n")


def _unknown_keys(count):
    """`count` 50-character keys; their first 30 in sorted order are the
    same for every count of at least 30."""
    return {f"{i:05d}".ljust(50, "k"): 1 for i in range(count)}


@pytest.mark.parametrize("kind", ["table", "diamond"])
def test_long_unknown_field_lists_show_30_names(capsys, tmp_path, kind):
    path = tmp_path / "document.json"
    where = "top level: "
    if kind == "table":
        base = TRIANGLE_TABLE
        command = ["chi-d", "table", "--file", str(path)]
    else:
        base = {"n": 1, "h": [[1, 0], [0, 1]]}
        command = ["hodge", "correction", "--diamond", str(path)]
    errors = []
    for count in (2000, 20000):
        path.write_text(json.dumps(dict(base, **_unknown_keys(count))))
        code, out, err = run_cli(command, capsys)
        assert (code, out) == (2, "")
        errors.append(err)
    shown = ", ".join(map(inputs.shown, sorted(_unknown_keys(30))))
    assert errors[0] == (
        f"error: {path}: {where}unknown field(s) [{shown}]... (2000 names)\n")
    assert errors[1] == errors[0].replace("(2000 names)", "(20000 names)")


#: Diamond files that `diamond_from_obj` or `HodgeDiamond` refuses, with
#: the message.
DIAMOND_FILE_FAULTS = {
    "not an object": ([], "top level: expected an object"),
    "string n": ({"n": "3", "h": [[1]]}, "n: expected an integer, got '3'"),
    "bool n": ({"n": True, "h": [[1, 0], [0, 1]]}, "n: expected an integer, got True"),
    "missing h": ({"n": 1}, "top level: missing field(s) ['h']"),
    "string entry": ({"n": 0, "h": [["a"]]}, "h[0][0]: expected an integer, got 'a'"),
    "h not a list": ({"n": 1, "h": 5}, "h: expected a list of rows"),
    "negative entry": ({"n": 1, "h": [[1, -1], [-1, 1]]},
                       "h[0][1]: expected a non-negative integer, got -1"),
    "one row for n = 1": ({"n": 1, "h": [[1, 0]]}, "h: expected a 2 x 2 table"),
    "short row": ({"n": 1, "h": [[1, 0], [0]]}, "h: expected a 2 x 2 table"),
    "negative n": ({"n": -1, "h": []}, "n: expected a non-negative integer, got -1"),
}


@pytest.mark.parametrize("fault", DIAMOND_FILE_FAULTS)
def test_diamond_file_message(capsys, tmp_path, fault):
    document, message = DIAMOND_FILE_FAULTS[fault]
    path = tmp_path / "diamond.json"
    path.write_text(json.dumps(document))
    assert run_cli(["hodge", "correction", "--diamond", str(path)], capsys) == (
        2, "", f"error: {path}: {message}\n")


def test_hodge_bundle_rejects_negative_fiber_dim(capsys):
    assert run_cli(["hodge", "bundle", "--base", "cp1", "--fiber-dim", "-1"], capsys) == (
        2, "", "error: --fiber-dim must be non-negative, got -1\n")


def test_hodge_bundle_rejects_oversize_result(capsys, monkeypatch):
    monkeypatch.setattr(hodge, "projective_bundle_diamond", _refuse)
    code, _, err = run_cli(
        ["hodge", "bundle", "--base", "cp1", "--fiber-dim", str(MAX_DIAMOND_DIM)],
        capsys)
    assert code == 2
    assert f"--fiber-dim: diamond dimension {MAX_DIAMOND_DIM + 1} exceeds" in err


def test_hodge_bundle_refuses_a_40_digit_fiber_dim_by_range_not_digits(capsys):
    # the flag has 40 digits, within the limit; only the sum cp1 + it has 41
    fiber_dim = "9" * inputs.MAX_INT_DIGITS
    assert run_cli(["hodge", "bundle", "--base", "cp1", "--fiber-dim", fiber_dim],
                   capsys) == (
        2, "", f"error: --fiber-dim: diamond dimension {10 ** inputs.MAX_INT_DIGITS} "
               f"exceeds the limit of {MAX_DIAMOND_DIM}\n")


def test_diamond_limit_is_inclusive():
    assert inputs.bounded_dim(MAX_DIAMOND_DIM, "--diamond", cli.CliInputError) == (
        MAX_DIAMOND_DIM)
    # a range rule only: 51 digits get the dimension message, not the digit one
    for n in (MAX_DIAMOND_DIM + 1, 10 ** 50):
        with pytest.raises(cli.CliInputError) as info:
            inputs.bounded_dim(n, "--diamond", cli.CliInputError)
        assert type(info.value) is cli.CliInputError
        assert str(info.value) == (
            f"--diamond: diamond dimension {n} exceeds the limit of {MAX_DIAMOND_DIM}")


def test_readme_limits_table_matches_the_code():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = dict(re.findall(r"^\| (`[^|]+) \| (\d+) \|", readme, re.MULTILINE))
    assert {flags: int(limit) for flags, limit in rows.items()} == {
        "`identities --max-m`": symcalc.MAX_VERIFY_ROOTS,
        "`hrr cp --n`": MAX_HRR_N,
        "`blowup-check --random`, `hodge ledger --random`": MAX_RANDOM,
        "`chi-d cp --r`": MAX_CP_R,
        "`--max-m`, `--n`, `--p`, `--twist`, `--r`, `--s`, `--d`, `--random`, "
        "`--seed`, `--fiber-dim`, `--codim` (every integer flag); "
        "`chi-d cp --mults`; a `cp<N>` diamond name; a diamond file's `n`; "
        "table `d`, "
        "`components[i].mult`, `center.codim`, `strata[i].chi`, "
        "`strata[i].chi_meet_center`; diamond file `h[p][q]` (decimal "
        "digits)": inputs.MAX_INT_DIGITS,
        "`hodge` diamond dimension: `--base`, `--x`, `--y`, `--diamond`, "
        "`bundle` base plus `--fiber-dim`": MAX_DIAMOND_DIM,
        "`chi-d table --file`, `blowup-check --file` table components "
        "(count)": inputs.MAX_COMPONENTS,
        "`chi-d table --file`, `blowup-check --file`, `hodge` diamond files "
        "(bytes)": cli.MAX_INPUT_BYTES,
    }


def _readme_block(readme: str, after: str, language: str) -> str:
    """The first ```language block of README after the line `after`."""
    rest = readme[readme.index(after):]
    return re.search(rf"^```{language}\n(.*?)^```$", rest, re.M | re.S).group(1)


def test_readme_examples_run(capsys, tmp_path, monkeypatch):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    monkeypatch.chdir(tmp_path)
    (tmp_path / "pair.json").write_text(
        _readme_block(readme, "**Stratum table**", "json"))
    commands = [line.split()[1:] for line in
                _readme_block(readme, "## CLI", "sh").splitlines()
                if line.startswith("cypair ")]
    assert len(commands) == 10
    for command in commands:
        assert run_cli(command, capsys)[0] == 0, command
    exec(_readme_block(readme, "## Library example", "python"), {})


def test_hodge_bundle(capsys):
    code, out, _ = run_cli(
        ["hodge", "bundle", "--base", "cp1", "--fiber-dim", "1"], capsys)
    assert code == 0
    assert "1,0,2,0,1" in out


def test_hodge_blowup(capsys):
    code, out, _ = run_cli(
        ["hodge", "blowup", "--x", "cp3", "--y", "point", "--codim", "3"], capsys)
    assert code == 0
    assert "1,0,2,0,2,0,1" in out


@pytest.mark.parametrize("sign", ["", "-"])
def test_hodge_blowup_rejects_oversize_codim(capsys, monkeypatch, sign):
    monkeypatch.setattr(hodge, "blowup_diamond", _refuse)
    limit = inputs.MAX_INT_DIGITS
    code, out, err = run_cli(
        ["hodge", "blowup", "--x", "cp3", "--y", "point",
         "--codim", sign + str(10 ** limit)], capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: --codim: {limit + 1} digits exceed the limit of {limit}\n"


def test_hodge_blowup_passes_largest_codim_on(capsys, monkeypatch):
    largest = 10 ** inputs.MAX_INT_DIGITS - 1
    received = []
    original = hodge.blowup_diamond

    def recording(x, y, r):
        received.append(r)
        return original(x, y, r)

    monkeypatch.setattr(hodge, "blowup_diamond", recording)
    code, _, err = run_cli(
        ["hodge", "blowup", "--x", "cp3", "--y", "point",
         "--codim", str(largest)], capsys)
    assert received == [largest]
    assert code == 2
    assert "dimension mismatch" in err


def test_hodge_blowup_dimension_mismatch(capsys):
    code, _, err = run_cli(
        ["hodge", "blowup", "--x", "cp3", "--y", "point", "--codim", "2"], capsys)
    assert code == 2
    assert "dimension" in err


def test_hodge_correction_builtin_and_file(capsys, tmp_path):
    code, out, _ = run_cli(["hodge", "correction", "--diamond", "cp1"], capsys)
    assert code == 0
    assert "-2 * (log 2pi)/2" in out
    path = tmp_path / "cp1.json"
    path.write_text('{"n": 1, "h": [[1, 0], [0, 1]]}')
    code, out, _ = run_cli(["hodge", "correction", "--diamond", str(path)], capsys)
    assert code == 0
    assert "actual -2" in out


def test_hodge_ledger(capsys):
    code, out, _ = run_cli(["hodge", "ledger", "--diamond", "cp2"], capsys)
    assert code == 0
    code, out, _ = run_cli(
        ["hodge", "ledger", "--random", "10", "--seed", "3"], capsys)
    assert code == 0
    assert out.count("[PASS]") == 10
    # the per-dimension memo filled by --random answers a later --diamond
    code, out, _ = run_cli(["hodge", "ledger", "--diamond", "cp5"], capsys)
    assert code == 0
    assert "[PASS] ledger-identities: expected True, actual True" in out


def test_hodge_ledger_requires_one_mode(capsys):
    code, out, err = run_cli(["hodge", "ledger"], capsys)
    assert (code, out) == (2, "")
    assert "one of the arguments --diamond --random is required" in err
    code, out, err = run_cli(
        ["hodge", "ledger", "--diamond", "cp1", "--random", "3"], capsys)
    assert (code, out) == (2, "")
    assert "argument --random: not allowed with argument --diamond" in err


# ---------------------------------------------------------------------------
# report format
# ---------------------------------------------------------------------------


def _parsers(parser):
    """The parser and every subcommand parser below it."""
    yield parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _parsers(sub)


def test_every_parser_help_is_pinned(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    helps = {parser.prog: parser.format_help() for parser in _parsers(cli.build_parser())}
    assert len(helps) == 13
    assert helps == HELP_TEXTS


TOP_USAGE = "usage: cypair [-h] {identities,chi-d,blowup-check,hrr,hodge} ...\n"

#: `cypair <command> --bogus` for each subcommand: exit 2 and this stderr.
BOGUS_FLAG_ERRORS = {
    "identities": TOP_USAGE + "cypair: error: unrecognized arguments: --bogus\n",
    "chi-d": "usage: cypair chi-d [-h] {cp,table} ...\n"
             "cypair chi-d: error: the following arguments are required: mode\n",
    "blowup-check": "usage: cypair blowup-check [-h] (--file FILE | --random COUNT) "
                    "[--seed SEED]\n                           [--json] [--out PATH]\n"
                    "cypair blowup-check: error: one of the arguments --file --random "
                    "is required\n",
    "hrr": "usage: cypair hrr [-h] {cp} ...\n"
           "cypair hrr: error: the following arguments are required: mode\n",
    "hodge": "usage: cypair hodge [-h] {bundle,blowup,correction,ledger} ...\n"
             "cypair hodge: error: the following arguments are required: mode\n",
}

#: A complete command line of each subcommand; with `--bogus` added, the
#: top-level parser refuses it under the usage line that lists all five.
COMPLETE_COMMANDS = {
    "identities": ["identities"],
    "chi-d": ["chi-d", "cp", "--r", "1", "--s", "1", "--d", "1"],
    "blowup-check": ["blowup-check", "--random", "1"],
    "hrr": ["hrr", "cp", "--n", "1", "--p", "0"],
    "hodge": ["hodge", "correction", "--diamond", "cp1"],
}


@pytest.mark.parametrize("command", BOGUS_FLAG_ERRORS)
def test_unknown_flag_errors_are_pinned(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    assert run_cli([command, "--bogus"], capsys) == (2, "", BOGUS_FLAG_ERRORS[command])
    assert run_cli(COMPLETE_COMMANDS[command] + ["--bogus"], capsys) == (
        2, "", TOP_USAGE + "cypair: error: unrecognized arguments: --bogus\n")


@pytest.mark.parametrize("command", BOGUS_FLAG_ERRORS)
def test_parser_built_for_one_command_keeps_its_help(monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    helps = {parser.prog: parser.format_help()
             for parser in _parsers(cli.build_parser(command))}
    assert helps["cypair"] == HELP_TEXTS["cypair"]
    subtree = {prog: text for prog, text in HELP_TEXTS.items()
               if prog.split()[1:2] == [command]}
    assert {prog: helps[prog] for prog in subtree} == subtree
    # the other four are listed, but without their own subcommands
    assert set(helps) == set(subtree) | {"cypair"} | {
        f"cypair {name}" for name in BOGUS_FLAG_ERRORS}


def test_json_report_is_byte_stable(capsys, triangle_table_path):
    code, first, _ = run_cli(
        ["blowup-check", "--file", triangle_table_path, "--json"], capsys)
    assert code == 0
    code, second, _ = run_cli(
        ["blowup-check", "--file", triangle_table_path, "--json"], capsys)
    assert first == second
    payload = json.loads(first)
    assert payload["overall"] == "pass"
    names = [c["name"] for c in payload["checks"]]
    assert names == sorted(names)
    for check in payload["checks"]:
        assert set(check) == {"name", "status", "expected", "actual"}
        assert isinstance(check["actual"], str)


def _dumped(report: cli.Report) -> str:
    """The report as `json.dumps` writes the whole payload at once."""
    payload = {"command": report.command, "overall": report.overall,
               "checks": [c._asdict() for c in report.checks]}
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def _streamed(report: cli.Report, as_json: bool) -> tuple[int, str]:
    """`_emit`'s exit code and stdout text for the report."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli._emit(report, argparse.Namespace(json=as_json, out=None))
    return code, buffer.getvalue()


# every category, so quotes, backslashes, control characters, non-ASCII
# and lone surrogates all occur
ANY_TEXT = st.text(st.characters(blacklist_categories=()))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(ANY_TEXT, ANY_TEXT, ANY_TEXT, ANY_TEXT, ANY_TEXT)
def test_json_check_template_writes_the_bytes_of_json_dumps(
        command, name, status, expected, actual):
    report = cli.Report(command, [cli.Check(name, status, expected, actual)], [])
    code, out = _streamed(report, as_json=True)
    assert out == _dumped(report)
    assert code == (0 if status == "pass" else 1)


def test_json_report_without_checks_is_json_dumps():
    report = cli.Report("demo", [], ["a note"])
    code, out = _streamed(report, as_json=True)
    assert (code, out) == (0, _dumped(report))
    assert out == '{"checks":[],"command":"demo","overall":"pass"}\n'


@pytest.mark.parametrize("as_json", [True, False])
def test_checks_of_one_name_are_ordered_by_their_other_fields(as_json):
    checks = [cli.Check("b", "pass", "2", "2"), cli.Check("a", "pass", "1", "1"),
              cli.Check("a", "fail", "1", "0")]
    first = _streamed(cli.Report("demo", checks[:], []), as_json)
    assert _streamed(cli.Report("demo", checks[::-1], []), as_json) == first
    assert first[0] == 1


@pytest.mark.parametrize("flags", [["--json"], []])
def test_emit_holds_no_copy_of_the_report(monkeypatch, flags):
    # `_emit` writes one check at a time: its peak is a small fraction of the
    # report's text, where building the text whole took 4 (text) to 11
    # (--json) times that text.
    argv = ["blowup-check", "--random", "1400", *flags]
    args = cli.build_parser(argv[0]).parse_args(argv)
    report = args.func(args)
    lengths = []
    monkeypatch.setattr(sys, "stdout", SimpleNamespace(
        write=lambda text: lengths.append(len(text))))
    assert cli._emit(report, args) == 0
    monkeypatch.setattr(sys, "stdout", SimpleNamespace(write=len))  # discards
    tracemalloc.start()
    try:
        assert cli._emit(report, args) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < sum(lengths) / 10


@pytest.mark.parametrize("flags", [["--json"], []])
def test_out_flag_writes_the_bytes_of_stdout(capsys, tmp_path, flags):
    argv = ["blowup-check", "--random", "300", "--seed", "3", *flags]
    code, out, err = run_cli(argv, capsys)
    assert (code, err) == (0, "")
    target = tmp_path / "report"
    assert run_cli([*argv, "--out", str(target)], capsys) == (0, "", "")
    assert target.read_bytes() == out.encode()


@pytest.mark.parametrize("as_json", [True, False])
def test_failed_report_writes_the_same_bytes_to_out_and_stdout(capsys, tmp_path, as_json):
    target = tmp_path / "report"
    codes = []
    for out in (None, str(target)):
        report = cli.Report("demo", [cli.Check("fine", "pass", "1", "1"),
                                     cli.Check("broken", "fail", "0", "1")], ["a note"])
        codes.append(cli._emit(report, argparse.Namespace(json=as_json, out=out)))
    stdout = capsys.readouterr().out
    assert codes == [1, 1]
    assert target.read_bytes() == stdout.encode()
    assert stdout == (_dumped(report) if as_json else
                      "a note\n[FAIL] broken: expected 0, actual 1\n"
                      "[PASS] fine: expected 1, actual 1\noverall: fail\n")


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        ["identities", "--max-m", "1", "--json", "--out", str(target)], capsys)
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["overall"] == "pass"


@pytest.mark.parametrize("kind, reason", [
    ("missing directory", "No such file or directory"),
    ("directory", "Is a directory"),
])
def test_out_flag_unwritable_path_is_input_error(capsys, tmp_path, kind, reason):
    target = tmp_path / "missing" / "x.json" if kind == "missing directory" else tmp_path
    code, out, err = run_cli(
        ["blowup-check", "--random", "5", "--out", str(target)], capsys)
    assert (code, out, err) == (2, "", f"error: {target}: {reason}\n")


def test_failed_check_exits_one(capsys):
    # No honest input makes a mathematical check fail (that is the point),
    # so exercise the exit-code plumbing on a fabricated report.
    import argparse

    from cypair.cli import Check, Report, _emit

    report = Report("demo", [Check("broken", "fail", "0", "1")], [])
    args = argparse.Namespace(json=False, out=None)
    assert _emit(report, args) == 1
    out, _ = capsys.readouterr()
    assert "overall: fail" in out


# ---------------------------------------------------------------------------
# start-up
# ---------------------------------------------------------------------------

#: Modules a `cypair` command does not import: `dataclasses` and the modules
#: it pulls in cost about a tenth of each command's start.
NOT_IMPORTED = ("dataclasses", "inspect", "ast", "dis", "tokenize")


SRC = Path(__file__).resolve().parents[1] / "src"


def _import_in_child(module: str, names, then: str = "pass"):
    """Import `module` in a new interpreter, run the statement `then`, and
    print the sorted list of the modules in `names` that it then holds."""
    # -S: no site module, whose own imports vary with the installation
    code = (f"import {module}, sys; {then}; "
            "print(sorted(set(sys.argv[1:]) & set(sys.modules)))")
    return subprocess.run(
        [sys.executable, "-S", "-c", code, *names],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, check=True, timeout=60)


def test_cli_import_leaves_out_dataclasses():
    result = _import_in_child("cypair.cli", NOT_IMPORTED)
    assert result.stdout == "[]\n"


CYPAIR_MODULES = [f"cypair.{path.stem}" for path in (SRC / "cypair").glob("*.py")
                  if path.stem != "__init__"]

#: The standard modules only some layers need: the rationals of `symcalc`,
#: `chow` and `sncpair`, and the generator of `--random`.
LAYER_STDLIB = ["fractions", "random"]

#: The modules each of these imports: the input rules import no other
#: cypair module, `hodge` reads them without the pair module, and the CLI
#: imports a layer only in the command that runs it.  None needs `random`
#: until a command draws.
IMPORT_GRAPH = {
    "cypair.inputs": ["cypair.inputs"],
    "cypair.hodge": ["cypair.hodge", "cypair.inputs"],
    "cypair.cli": ["cypair.cli", "cypair.inputs"],
}


@pytest.mark.parametrize("module", IMPORT_GRAPH)
def test_import_graph(module):
    result = _import_in_child(module, CYPAIR_MODULES + LAYER_STDLIB)
    assert result.stdout == f"{IMPORT_GRAPH[module]}\n"


#: What each command holds once it has run: `cli` and `inputs`, the layers
#: it runs and their rationals, and `random` only where it draws.
COMMAND_MODULES = [
    (["identities", "--max-m", "1"], ["cypair.symcalc", "fractions"]),
    (["chi-d", "cp", "--r", "1", "--s", "1", "--d", "1", "--mults", "2"],
     ["cypair.sncpair", "fractions"]),
    (["chi-d", "table", "--file", "triangle.json"], ["cypair.sncpair", "fractions"]),
    (["blowup-check", "--file", "triangle.json"], ["cypair.sncpair", "fractions"]),
    (["blowup-check", "--random", "1"], ["cypair.sncpair", "fractions", "random"]),
    (["hrr", "cp", "--n", "2", "--p", "1"],
     ["cypair.chow", "cypair.symcalc", "fractions"]),
    (["hodge", "bundle", "--base", "cp1", "--fiber-dim", "1"], ["cypair.hodge"]),
    (["hodge", "blowup", "--x", "cp2", "--y", "point", "--codim", "2"],
     ["cypair.hodge"]),
    (["hodge", "correction", "--diamond", "cp2"], ["cypair.hodge"]),
    (["hodge", "ledger", "--diamond", "cp2"], ["cypair.hodge"]),
    (["hodge", "ledger", "--random", "2"], ["cypair.hodge", "random"]),
]


@pytest.mark.parametrize("argv, loaded", COMMAND_MODULES,
                         ids=[" ".join(argv[:3]) for argv, _ in COMMAND_MODULES])
def test_each_command_imports_only_its_layers(argv, loaded, tmp_path):
    (tmp_path / "triangle.json").write_text(json.dumps(TRIANGLE_TABLE))
    argv = [str(tmp_path / arg) if arg.endswith(".json") else arg for arg in argv]
    run = f"print(cypair.cli.main({argv + ['--out', os.devnull]!r}), end=' ')"
    result = _import_in_child("cypair.cli", CYPAIR_MODULES + LAYER_STDLIB, run)
    expected = sorted(["cypair.cli", "cypair.inputs", *loaded])
    assert result.stdout == f"0 {expected}\n"


# ---------------------------------------------------------------------------
# robustness
# ---------------------------------------------------------------------------


def fuzz_documents(count, seed):
    rng = random.Random(seed)
    alphabet = string.printable
    docs = []
    for _ in range(count):
        kind = rng.randrange(3)
        if kind == 0:  # random bytes
            docs.append("".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 80))))
        elif kind == 1:  # random JSON value
            docs.append(json.dumps(random_json(rng, depth=3)))
        else:  # structurally close to a stratum table
            table = json.loads(json.dumps(TRIANGLE_TABLE))
            mutate_table(rng, table)
            docs.append(json.dumps(table))
    return docs


def random_json(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice([
            None, True, False, rng.randint(-99, 99), rng.random(),
            "".join(rng.choice("abcXYZ") for _ in range(3)),
        ])
    if rng.random() < 0.5:
        return [random_json(rng, depth - 1) for _ in range(rng.randrange(0, 4))]
    return {
        "".join(rng.choice("dhinchesma")): random_json(rng, depth - 1)
        for _ in range(rng.randrange(0, 4))
    }


def mutate_table(rng, node):
    if isinstance(node, dict):
        if node and rng.random() < 0.3:
            key = rng.choice(sorted(node))
            if rng.random() < 0.5:
                del node[key]
            else:
                node[key] = random_json(rng, 1)
        for value in node.values():
            mutate_table(rng, value)
    elif isinstance(node, list):
        for value in node:
            mutate_table(rng, value)


def test_fuzzed_tables_never_crash(capsys, tmp_path):
    path = tmp_path / "fuzz.json"
    for doc in fuzz_documents(200, seed=2024):
        path.write_text(doc)
        for command in (["chi-d", "table", "--file", str(path)],
                        ["blowup-check", "--file", str(path)]):
            code, _, _ = run_cli(command, capsys)
            assert code in (0, 1, 2)
