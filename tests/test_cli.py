"""Command line interface: exit codes, stdout/stderr split, determinism
and parallel equivalence.  All invocations run in-process via main()."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from treedissim import (
    DissimTensor,
    DistanceMatrix,
    ValuationCertificate,
    distance_matrix,
    format_rational,
    parse_newick,
    random_tree,
    same_tree,
    serialize_newick,
    triple_dissimilarity,
    verify_certificate,
)
from treedissim.cli import main

F = Fraction

QUARTET = "((1:1,2:1):1,3:1,4:1);\n"


@pytest.fixture
def quartet_file(tmp_path):
    p = tmp_path / "quartet.nwk"
    p.write_text(QUARTET)
    return str(p)


@pytest.fixture
def tree6_file(tmp_path):
    p = tmp_path / "t6.nwk"
    p.write_text(serialize_newick(random_tree(6, seed=3)) + "\n")
    return str(p)


def write_json(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


@pytest.fixture
def metric6_file(tmp_path):
    d = distance_matrix(random_tree(6, seed=3))
    return write_json(tmp_path, "d6.json", d.to_json_obj())


@pytest.fixture
def tensor6_file(tmp_path):
    w = triple_dissimilarity(distance_matrix(random_tree(6, seed=3)))
    return write_json(tmp_path, "w6.json", w.to_json_obj())


@pytest.fixture
def bumped5_file(tmp_path, bumped5):
    return write_json(tmp_path, "bump5.json", bumped5.to_json_obj())


@pytest.fixture
def points3_file(tmp_path):
    return write_json(tmp_path, "d3.json", {"n": 3, "entries": {"1,2": "1", "1,3": "1", "2,3": "1"}})


class TestDissim:
    def test_quartet_tensor_on_stdout(self, quartet_file, capsys):
        assert main(["dissim", "--tree", quartet_file, "--m", "3"]) == 0
        out = capsys.readouterr().out
        obj = json.loads(out)
        assert obj["m"] == 3
        assert obj["entries"]["1,2,3"] == "4"

    def test_out_file(self, quartet_file, tmp_path, capsys):
        target = tmp_path / "w.json"
        assert main(["dissim", "--tree", quartet_file, "--m", "4", "--out", str(target)]) == 0
        assert capsys.readouterr().out == ""
        assert json.loads(target.read_text())["entries"]["1,2,3,4"] == "5"

    def test_oracle_agreement_reported(self, tree6_file, capsys):
        assert main(["dissim", "--tree", tree6_file, "--m", "3", "--oracle"]) == 0
        captured = capsys.readouterr()
        assert "oracle agreement" in captured.err
        json.loads(captured.out)

    def test_method_dp_matches_tours(self, tree6_file, capsys):
        assert main(["dissim", "--tree", tree6_file, "--m", "4", "--method", "dp"]) == 0
        dp_out = capsys.readouterr().out
        assert main(["dissim", "--tree", tree6_file, "--m", "4", "--method", "tours"]) == 0
        assert capsys.readouterr().out == dp_out

    def test_deterministic_output(self, tree6_file, capsys):
        main(["dissim", "--tree", tree6_file, "--m", "3"])
        first = capsys.readouterr().out
        main(["dissim", "--tree", tree6_file, "--m", "3"])
        assert capsys.readouterr().out == first

    def test_jobs_byte_identical(self, tree6_file, capsys):
        main(["dissim", "--tree", tree6_file, "--m", "3"])
        serial = capsys.readouterr().out
        assert main(["dissim", "--tree", tree6_file, "--m", "3", "--jobs", "3"]) == 0
        assert capsys.readouterr().out == serial

    def test_bad_m_is_usage_error(self, quartet_file, capsys):
        assert main(["dissim", "--tree", quartet_file, "--m", "9"]) == 2
        assert "error" in capsys.readouterr().err


class TestCheck:
    def test_metric_pass(self, metric6_file, capsys):
        assert main(["check", metric6_file, "--metric"]) == 0
        captured = capsys.readouterr()
        assert "PASS" in captured.err
        assert json.loads(captured.out)["pass"] is True

    def test_metric_fail_witness(self, bumped5_file, capsys):
        assert main(["check", bumped5_file, "--metric"]) == 1
        captured = capsys.readouterr()
        obj = json.loads(captured.out)
        assert obj["pass"] is False
        assert obj["witness"] == [1, 2, 4, 5]
        assert obj["values"] == ["3", "2", "2"]
        assert "FAIL" in captured.err

    def test_strict_flag_changes_verdict(self, tmp_path, ones5, capsys):
        shifted = DistanceMatrix(5, {p: v - 5 for p, v in ones5.entries.items()})
        path = write_json(tmp_path, "neg.json", shifted.to_json_obj())
        assert main(["check", path, "--metric"]) == 1
        capsys.readouterr()
        assert main(["check", path, "--metric", "--strict"]) == 0

    def test_ultra(self, tmp_path, ones5, capsys):
        path = write_json(tmp_path, "ones.json", ones5.to_json_obj())
        assert main(["check", path, "--ultra"]) == 0

    def test_tmn(self, tensor6_file, capsys):
        assert main(["check", tensor6_file, "--tmn", "3"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["pass"] is True

    def test_tmn_wrong_m_is_usage_error(self, tensor6_file, capsys):
        assert main(["check", tensor6_file, "--tmn", "4"]) == 2

    def test_m4(self, bumped5_file, points3_file, capsys):
        assert main(["check", bumped5_file, "--m4"]) == 1
        obj = json.loads(capsys.readouterr().out)
        assert obj["witness"] == [1, 2, 4, 5]
        assert obj["values"] == ["3", "2", "2"]
        assert obj["quadruples"] == 5
        assert main(["check", points3_file, "--m4"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["quadruples"] == 0
        assert obj["note"] == "no quadruple of distinct labels for n=3; vacuous"

    @pytest.mark.parametrize(
        "fixture,flags,code",
        [
            ("metric6_file", ["--metric"], 0),
            ("bumped5_file", ["--metric"], 1),
            ("points3_file", ["--metric", "--strict"], 0),
            ("tensor6_file", ["--tmn", "3"], 0),
        ],
        ids=["metric6", "bumped5", "points3-strict", "tensor6-tmn"],
    )
    def test_jobs_same_verdict(self, request, fixture, flags, code, capsys):
        path = request.getfixturevalue(fixture)
        assert main(["check", path, *flags]) == code
        serial = capsys.readouterr().out
        assert main(["check", path, *flags, "--jobs", "2"]) == code
        assert capsys.readouterr().out == serial

    @pytest.mark.parametrize(
        "obj,command",
        [
            ({"n": 4, "entries": []}, ["check", "--metric"]),
            ({"n": 3, "entries": {"1,2": "1", "1,3": "1", "2,3": "1", "1, 2": "7"}}, ["check", "--ultra"]),
            ('{"n": 3, "entries": {"1,2": "1", "1,3": "1", "2,3": "1", "1,2": "7"}}', ["check", "--ultra"]),
            ({"n": 3, "entries": {"1,2": "٣", "1,3": "1", "2,3": "1"}}, ["check", "--ultra"]),
            ({"n": 3, "entries": {"1,2": "1_000", "1,3": "1", "2,3": "1"}}, ["check", "--ultra"]),
            ("[" * 200000, ["check", "--metric"]),
            ('{"n": 3, "entries": ' + "[" * 200000, ["membership3"]),
            ("[" * 200000, ["reconstruct"]),
        ],
        ids=["entries-list", "noncanonical-key", "repeated-key", "nonascii-digit", "underscore",
             "deep-check", "deep-membership3", "deep-reconstruct"],
    )
    def test_malformed_entries_is_usage_error(self, tmp_path, obj, command, capsys):
        if isinstance(obj, str):  # JSON text that json.dumps cannot produce
            path = tmp_path / "bad.json"
            path.write_text(obj)
        else:
            path = write_json(tmp_path, "bad.json", obj)
        assert main([command[0], str(path), *command[1:]]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_missing_file_is_usage_error(self, capsys):
        assert main(["check", "no-such-file.json", "--metric"]) == 2

    def test_malformed_json_is_usage_error(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert main(["check", str(p), "--metric"]) == 2


class TestMembership3:
    def test_member_payload(self, tensor6_file, capsys):
        assert main(["membership3", tensor6_file]) == 0
        captured = capsys.readouterr()
        obj = json.loads(captured.out)
        assert obj["member"] is True
        assert obj["stage"] == "ok"
        tree = parse_newick(obj["newick"])
        assert same_tree(tree, random_tree(6, seed=3))
        assert "member: yes" in captured.err

    def test_four_point_failure(self, tmp_path, bumped5, capsys):
        w = triple_dissimilarity(bumped5)
        path = write_json(tmp_path, "w.json", w.to_json_obj())
        assert main(["membership3", path]) == 1
        obj = json.loads(capsys.readouterr().out)
        assert obj["member"] is False
        assert obj["stage"] == "four_point"
        assert obj["witness"] == [1, 2, 4, 5]

    def test_inverse_failure(self, tmp_path, capsys):
        w = triple_dissimilarity(distance_matrix(random_tree(6, seed=3)))
        entries = dict(w.entries)
        entries[(1, 2, 3)] += 1
        path = write_json(tmp_path, "w.json", DissimTensor(6, 3, entries).to_json_obj())
        assert main(["membership3", path]) == 1
        obj = json.loads(capsys.readouterr().out)
        assert obj["stage"] == "inverse"

    def test_small_n_usage_error(self, tmp_path, quartet_dm, capsys):
        w = triple_dissimilarity(quartet_dm)
        path = write_json(tmp_path, "w.json", w.to_json_obj())
        assert main(["membership3", path]) == 2


class TestCertify3:
    def test_certificate_verifies(self, quartet_file, tmp_path, capsys):
        target = tmp_path / "cert.json"
        assert main(["certify3", "--tree", quartet_file, "--out", str(target)]) == 0
        captured = capsys.readouterr()
        assert "PASS" in captured.err
        cert = ValuationCertificate.from_json(target.read_text())
        w = triple_dissimilarity(distance_matrix(parse_newick(QUARTET)))
        assert verify_certificate(cert, w)

    def test_jobs_byte_identical(self, tree6_file, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(["certify3", "--tree", tree6_file, "--out", str(a)]) == 0
        assert main(["certify3", "--tree", tree6_file, "--out", str(b), "--jobs", "3"]) == 0
        assert a.read_text() == b.read_text()

    def test_failure_verdict(self, tree6_file, monkeypatch, capsys):
        # Compare the certificate against a tensor with one entry bumped:
        # the failure names the first differing triple as (got, want).
        def bumped(D):
            w = triple_dissimilarity(D)
            entries = dict(w.entries)
            entries[(2, 4, 5)] += 1
            return DissimTensor(w.n, 3, entries)

        monkeypatch.setattr("treedissim.cli.triple_dissimilarity", bumped)
        assert main(["certify3", "--tree", tree6_file]) == 1
        captured = capsys.readouterr()
        true = triple_dissimilarity(distance_matrix(random_tree(6, seed=3))).entries[(2, 4, 5)]
        assert json.loads(captured.out) == {
            "check": "certificate",
            "pass": False,
            "witness": [2, 4, 5],
            "values": [format_rational(true), format_rational(true + 1)],
        }
        assert captured.err.startswith("certificate: FAIL at (2, 4, 5)")


class TestGenerators:
    def test_random_tree_deterministic(self, capsys):
        assert main(["random-tree", "--n", "6", "--seed", "11"]) == 0
        first = capsys.readouterr().out
        assert main(["random-tree", "--n", "6", "--seed", "11"]) == 0
        assert capsys.readouterr().out == first
        t = parse_newick(first.strip())
        assert t.n == 6

    def test_random_tree_caterpillar(self, capsys):
        assert main(["random-tree", "--n", "5", "--seed", "0", "--shape", "caterpillar"]) == 0
        parse_newick(capsys.readouterr().out.strip())
        assert main(["random-tree", "--n", "1200", "--seed", "0", "--shape", "caterpillar"]) == 0
        text = capsys.readouterr().out.strip()
        assert text.count("(") == 1198
        assert serialize_newick(parse_newick(text)) == text

    def test_count_topologies(self, capsys):
        assert main(["count-topologies", "--n", "5"]) == 0
        assert capsys.readouterr().out.strip() == "15"


class TestReconstruct:
    def test_roundtrip(self, metric6_file, capsys):
        assert main(["reconstruct", metric6_file]) == 0
        text = capsys.readouterr().out.strip()
        assert same_tree(parse_newick(text), random_tree(6, seed=3))

    def test_failure_verdict(self, bumped5_file, capsys):
        assert main(["reconstruct", bumped5_file]) == 1
        obj = json.loads(capsys.readouterr().out)
        assert obj["witness"] == [1, 2, 4, 5]


class TestUsage:
    def test_no_arguments(self, capsys):
        assert main([]) == 2

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_import_leaves_the_process_pool_out(self):
        # only fan-out needs concurrent.futures; every start-up imports cli
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        code = "import treedissim.cli, sys; assert 'concurrent.futures' not in sys.modules"
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr

    def test_import_leaves_openssl_out(self):
        # hashlib loads OpenSSL and only certificates use it; the stdlib
        # modules the library imports come first, so a build whose random
        # loads hashlib itself does not count against the library
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        code = (
            "import argparse, dataclasses, fractions, functools, itertools, json, math, os, random, re, sys, typing\n"
            "before = 'hashlib' in sys.modules\n"
            "import treedissim, treedissim.cli\n"
            "assert before or 'hashlib' not in sys.modules"
        )
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr

    def test_jobs_below_one_is_usage_error(self, metric6_file, capsys):
        assert main(["check", metric6_file, "--metric", "--jobs", "0"]) == 2
        assert "argument --jobs: must be an integer >= 1" in capsys.readouterr().err

    def test_malformed_newick(self, tmp_path, capsys):
        p = tmp_path / "bad.nwk"
        p.write_text("((1:1,2:1):1,3:1")
        assert main(["dissim", "--tree", str(p), "--m", "3"]) == 2
        assert "error" in capsys.readouterr().err
