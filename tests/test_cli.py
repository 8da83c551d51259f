import argparse
import json


from ruledmoduli.cli import build_parser, run

CONFIG_00 = '{"genus":0,"e":0,"points":0}'
CONFIG_G2 = '{"genus":2,"e":1,"points":0}'
FIBER = '{"a":0,"b":1,"exc":[]}'


def invoke(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def result_of(capsys, argv):
    code, out, _ = invoke(capsys, argv)
    assert code == 0, out
    doc = json.loads(out)
    assert doc["status"] == "ok"
    return doc


class TestHappyPaths:
    def test_family_dim_example(self, capsys):
        doc = result_of(capsys, ["family-dim", "example", "--n", "3"])
        assert doc["result"] == {"dim": 21, "ext1": 12, "h0VD": 3}

    def test_rr_of_trivial_class(self, capsys):
        doc = result_of(
            capsys, ["rr", "--config", CONFIG_G2, "--divisor", '{"a":0,"b":0,"exc":[]}']
        )
        assert doc["result"] == {"chi": -1}

    def test_walls_fixture(self, capsys):
        doc = result_of(
            capsys,
            ["walls", "--config", CONFIG_00, "--c1", FIBER, "--c2", "2",
             "--polarization", '{"a":3,"b":1,"exc":[]}'],
        )
        assert doc["result"]["walls"] == [
            {"zeta": {"a": 2, "b": -1, "exc": []}, "zeta_sq": -4, "ell": 1, "zF": 2, "zL": -1}
        ]
        assert doc["result"]["boundary"] == []

    def test_intersect(self, capsys):
        doc = result_of(
            capsys,
            ["intersect", "--config", '{"genus":0,"e":1,"points":2}',
             "--d1", '{"a":1,"b":-10,"exc":[-1,-1]}',
             "--d2", '{"a":1,"b":-10,"exc":[-1,-1]}'],
        )
        assert doc["result"] == {"value": -23}

    def test_canonical(self, capsys):
        doc = result_of(
            capsys, ["canonical", "--config", '{"genus":1,"e":1,"points":1}']
        )
        assert doc["result"] == {"divisor": {"a": -2, "b": -1, "exc": [1]}}

    def test_twist(self, capsys):
        doc = result_of(
            capsys,
            ["twist", "--config", '{"genus":0,"e":0,"points":1}',
             "--c1", '{"a":0,"b":1,"exc":[1]}', "--c2", "4",
             "--t", '{"a":0,"b":0,"exc":[1]}'],
        )
        assert doc["result"] == {
            "c1": {"a": 0, "b": 1, "exc": [3]}, "c2": 2, "discriminant": 17
        }

    def test_invariants(self, capsys):
        datum = json.dumps(
            {"d": 1, "r": -3, "q": [0], "c1": {"a": 1, "b": 0, "exc": [1]}, "c2": 3}
        )
        doc = result_of(
            capsys,
            ["invariants", "--config", '{"genus":0,"e":1,"points":1}', "--datum", datum],
        )
        assert doc["result"]["zeta"] == {"a": 1, "b": -6, "exc": [-1]}
        assert doc["result"]["length"] == 0
        assert doc["result"]["unique"] is True
        assert doc["result"]["r0"] is None

    def test_suitable(self, capsys):
        doc = result_of(
            capsys,
            ["suitable", "--config", CONFIG_00, "--c1", FIBER, "--c2", "2",
             "--polarization", '{"a":1,"b":3,"exc":[]}'],
        )
        assert doc["result"]["suitable"] is True

    def test_certify_dv0(self, capsys):
        doc = result_of(
            capsys,
            ["certify-dv0", "--config", CONFIG_00, "--c1", FIBER, "--c2", "2",
             "--polarization", '{"a":1,"b":3,"exc":[]}'],
        )
        assert doc["result"] == {"certified": True, "d": 0, "witness": None}

    def test_moduli_dim(self, capsys):
        doc = result_of(
            capsys,
            ["moduli-dim", "--config", CONFIG_00,
             "--c1", '{"a":0,"b":0,"exc":[]}', "--c2", "0"],
        )
        assert doc["result"] == {"dim": -3}

    def test_classify(self, capsys):
        doc = result_of(
            capsys,
            ["classify", "--config", '{"genus":0,"e":0,"points":1}',
             "--c1", '{"a":0,"b":1,"exc":[1]}', "--c2", "7"],
        )
        assert doc["result"]["kind"] == "even_fiber_genus_zero"
        assert doc["result"]["rationality"] == "stably_rational"
        assert doc["result"]["hilbert_exponent"] == 7

    def test_family_dim_maximize(self, capsys):
        doc = result_of(
            capsys,
            ["family-dim", "maximize", "--g", "0", "--eta", "1", "--m", "0",
             "--n", "3", "--eps", "0"],
        )
        assert doc["result"] == {"r1": -2, "ell": [], "h0": 1, "value": 20}

    def test_family_dim_c1f0_flags_excess(self, capsys):
        doc = result_of(
            capsys,
            ["family-dim", "c1f0", "--g", "0", "--eta", "0", "--m", "1",
             "--n", "3", "--eps", "0", "--r1", "-3", "--ell", "[0]", "--h0", "1"],
        )
        assert doc["result"]["family_dim"] == 23
        assert doc["result"]["moduli_dim"] == 22
        assert doc["result"]["dominance"] == "exceeds"
        assert doc["assumptions"] == doc["result"]["assumptions"]
        assert len(doc["assumptions"]) == 2
        assert all(set(a) == {"a", "b", "exc"} for a in doc["assumptions"])
        assert any("exceeds" in w for w in doc["warnings"])

    def test_family_dim_c1f1(self, capsys):
        doc = result_of(
            capsys,
            ["family-dim", "c1f1", "--g", "1", "--e", "2", "--beta", "1",
             "--rho", "3", "--c2", "5"],
        )
        assert doc["result"]["family_dim"] == doc["result"]["moduli_dim"] == 24
        assert doc["result"]["ext1"] == 23
        assert doc["result"]["dominance"] == "equal"

    def test_stability(self, capsys):
        doc = result_of(
            capsys,
            ["stability", "--config", '{"genus":0,"e":1,"points":0}',
             "--sub", '{"a":0,"b":-3,"exc":[]}', "--quot", '{"a":0,"b":4,"exc":[]}',
             "--ell", "6", "--polarization", '{"a":1,"b":100,"exc":[]}',
             "--box-a", "10", "--box-b", "10", "--box-exc", "10"],
        )
        assert doc["result"]["verdict"] == "stable_certified"
        assert doc["result"]["box"] == {"a": 10, "b": 10, "exc": 10}

    def test_schema(self, capsys):
        code, out, _ = invoke(capsys, ["--schema", "walls"])
        assert code == 0
        assert json.loads(out)["subcommand"] == "walls"

    def test_schema_agrees_with_the_parser(self, capsys):
        """Every subcommand and family-dim variant documents exactly the flags
        argparse accepts, each marked required as argparse has it."""

        def subparsers(parser):
            action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
            return action.choices

        commands = []
        for name, parser in subparsers(build_parser()).items():
            code, out, _ = invoke(capsys, ["--schema", name])
            assert code == 0
            schema = json.loads(out)["schema"]
            if "variants" in schema:
                variants = subparsers(parser)
                assert set(variants) == set(schema["variants"])
                commands += [(f"{name} {v}", variants[v], schema["variants"][v]) for v in variants]
            else:
                commands.append((name, parser, schema))
        assert len(commands) == 15
        for name, parser, schema in commands:
            documented = {flag: doc["required"] for flag, doc in schema["flags"].items()}
            required = {
                action.option_strings[0]: action.required
                for action in parser._actions
                if action.option_strings and action.dest != "help"
            }
            assert documented == required, name

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        code, out, _ = invoke(
            capsys, ["--output", str(path), "family-dim", "example", "--n", "1"]
        )
        assert code == 0 and out == ""
        assert json.loads(path.read_text())["result"] == {"dim": 5, "ext1": 4, "h0VD": 3}


class TestDeterminism:
    def test_byte_identical_reruns(self, capsys):
        argv = ["walls", "--config", CONFIG_00, "--c1", FIBER, "--c2", "2",
                "--polarization", '{"a":3,"b":1,"exc":[]}']
        _, first, _ = invoke(capsys, argv)
        _, second, _ = invoke(capsys, argv)
        assert first == second
        assert first.endswith("\n")

    def test_envelope_shape(self, capsys):
        doc = result_of(capsys, ["family-dim", "example", "--n", "2"])
        assert set(doc) == {"status", "result", "assumptions", "warnings"}


class TestErrorPaths:
    def test_domain_error_exits_one(self, capsys):
        code, out, _ = invoke(
            capsys,
            ["certify-dv0", "--config", CONFIG_00, "--c1", '{"a":1,"b":1,"exc":[]}',
             "--c2", "2", "--polarization", '{"a":1,"b":3,"exc":[]}'],
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["status"] == "error"
        assert doc["error"]["type"] == "NotApplicableError"

    def test_out_of_range_slope_margin_is_domain_error(self, capsys):
        code, out, _ = invoke(
            capsys,
            ["stability", "--config", CONFIG_00, "--sub", '{"a":2,"b":0,"exc":[]}',
             "--quot", '{"a":-5,"b":0,"exc":[]}', "--ell", "0",
             "--polarization", '{"a":1,"b":2305843009213693952,"exc":[]}',
             "--box-a", "1", "--box-b", "1", "--box-exc", "0"],
        )
        assert code == 1
        assert json.loads(out)["error"]["type"] == "IntegerOverflowError"

    def test_out_of_range_payload_integer_is_usage_error(self, capsys):
        code, out, err = invoke(
            capsys,
            ["rr", "--config", CONFIG_00, "--divisor", '{"a":0,"b":9223372036854775808,"exc":[]}'],
        )
        assert code == 2 and out == ""
        assert "--divisor" in err and "64-bit range" in err

    def test_out_of_range_int_flag_is_usage_error(self, capsys):
        code, out, err = invoke(capsys, ["family-dim", "example", "--n", "99999999999999999999"])
        assert code == 2 and out == ""
        assert "--n 99999999999999999999" in err and "64-bit range" in err

    def test_invalid_polarization_is_domain_error(self, capsys):
        code, out, _ = invoke(
            capsys,
            ["walls", "--config", CONFIG_00, "--c1", FIBER, "--c2", "2",
             "--polarization", '{"a":0,"b":1,"exc":[]}'],
        )
        assert code == 1
        assert json.loads(out)["error"]["type"] == "InvalidPolarizationError"

    def test_unknown_field_is_usage_error(self, capsys):
        code, out, err = invoke(
            capsys,
            ["rr", "--config", '{"genus":0,"e":0,"points":0,"bogus":1}',
             "--divisor", '{"a":0,"b":0,"exc":[]}'],
        )
        assert code == 2 and out == ""
        assert "unknown fields" in err
        assert "--schema" in err

    def test_malformed_json_is_usage_error(self, capsys):
        code, _, err = invoke(
            capsys, ["rr", "--config", "{not json", "--divisor", FIBER]
        )
        assert code == 2
        assert "not valid JSON" in err

    def test_missing_flag_is_usage_error(self, capsys):
        code, _, err = invoke(capsys, ["rr", "--config", CONFIG_00])
        assert code == 2

    def test_unknown_subcommand_is_usage_error(self, capsys):
        code, _, _ = invoke(capsys, ["frobnicate"])
        assert code == 2

    def test_no_subcommand_is_usage_error(self, capsys):
        code, _, err = invoke(capsys, [])
        assert code == 2
        assert "subcommand" in err

    def test_unknown_schema_name(self, capsys):
        code, _, err = invoke(capsys, ["--schema", "bogus"])
        assert code == 2
        assert "known subcommands" in err

    def test_range_violation_is_usage_error(self, capsys):
        code, _, err = invoke(
            capsys,
            ["rr", "--config", '{"genus":-1,"e":0,"points":0}', "--divisor", FIBER],
        )
        assert code == 2

    def test_wrong_exc_length_is_usage_error(self, capsys):
        code, _, err = invoke(
            capsys,
            ["rr", "--config", '{"genus":0,"e":0,"points":2}',
             "--divisor", '{"a":0,"b":0,"exc":[1]}'],
        )
        assert code == 2

    def test_negative_length_warning_is_surfaced(self, capsys):
        code, out, _ = invoke(
            capsys,
            ["invariants", "--config", '{"genus":0,"e":1,"points":1}', "--datum",
             json.dumps({"d": 0, "r": 0, "q": [3],
                         "c1": {"a": 0, "b": 0, "exc": [1]}, "c2": 2})],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["length"] == 2 + 3 * (1 - 3)
        assert any("negative" in w for w in doc["warnings"])
