import json

import pytest

from obtri.cli import EXIT_INVARIANT, EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, main


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestBound:
    def test_json_output(self, capsys):
        code, out, _ = run(["bound", "--dim", "2", "--n-max", "5000"], capsys)
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["manifest"]["subcommand"] == "bound"
        assert payload["result"]["lower_bound"] == pytest.approx(1 / 3, abs=1e-3)
        assert payload["result"]["monotone"] is True

    def test_csv_output(self, capsys):
        code, out, _ = run(["bound", "--dim", "3", "--n-max", "100",
                            "--format", "csv"], capsys)
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0].startswith("d,n,t_n,")
        assert lines[-1].startswith("# manifest:")

    def test_bad_dim_usage_error(self, capsys):
        code, _, err = run(["bound", "--dim", "1", "--n-max", "100"], capsys)
        assert code == EXIT_USAGE
        assert "error" in err

    def test_file_output(self, tmp_path, capsys):
        path = tmp_path / "bound.json"
        code, _, _ = run(["bound", "--dim", "2", "--n-max", "100",
                          "--output", str(path)], capsys)
        assert code == EXIT_OK
        assert json.loads(path.read_text())["result"]["base_n"] == 4


class TestTable:
    def test_csv_rows(self, capsys):
        code, out, _ = run(["table", "--dims", "4..6", "--n-max", "2000"], capsys)
        assert code == EXIT_OK
        lines = [ln for ln in out.strip().splitlines() if not ln.startswith("#")]
        assert lines[0] == "d,base_n,n_max,lower_bound,asymptotic,naive"
        assert len(lines) == 4
        assert lines[1].startswith("4,16,2000,")

    def test_bad_range(self, capsys):
        with pytest.raises(SystemExit) as err:
            run(["table", "--dims", "8..4"], capsys)
        assert err.value.code == EXIT_USAGE

    def test_naive_field_empty_below_four(self, capsys):
        code, out, _ = run(["table", "--dims", "2..4", "--n-max", "200"], capsys)
        assert code == EXIT_OK
        rows = [ln.split(",") for ln in out.strip().splitlines()[1:-1]]
        assert [row[-1] for row in rows[:2]] == ["", ""]
        assert float(rows[2][-1]) > 0.0


class TestSphere:
    def test_quadrature_only(self, capsys):
        code, out, _ = run(["sphere", "--dim", "3"], capsys)
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["result"]["quadrature"] == pytest.approx(0.5, abs=1e-8)
        assert payload["result"]["mc"] is None

    def test_with_mc(self, capsys):
        code, out, _ = run(["sphere", "--dim", "2", "--mc-samples", "20000",
                            "--seed", "5"], capsys)
        payload = json.loads(out)
        assert code == EXIT_OK
        assert payload["manifest"]["seed"] == 5
        mc = payload["result"]["mc"]
        assert abs(mc["p_hat"] - 0.75) < 0.02

    def test_entropy_seed_recorded(self, capsys):
        code, out, _ = run(["sphere", "--dim", "2", "--mc-samples", "1000"], capsys)
        payload = json.loads(out)
        assert payload["manifest"]["seed"] is not None


class TestMc:
    def write_spec(self, tmp_path, obj):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(obj))
        return str(path)

    def test_single_arc_probability_one(self, tmp_path, capsys):
        spec = self.write_spec(tmp_path, {"kind": "single_arc",
                                          "params": {"arc_angle": 0.4}})
        code, out, _ = run(["mc", "--spec", spec, "--samples", "5000",
                            "--seed", "9"], capsys)
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["result"]["p_hat"] == 1.0
        assert payload["result"]["spec"] == {"kind": "single_arc", "params": {"arc_angle": 0.4}}

    def test_worker_determinism(self, tmp_path, capsys):
        spec = self.write_spec(tmp_path, {"kind": "sphere", "params": {"d": 3}})
        counts = []
        for workers in ("1", "4", "16"):
            code, out, _ = run(["mc", "--spec", spec, "--samples", "100000",
                                "--seed", "77", "--workers", workers], capsys)
            assert code == EXIT_OK
            counts.append(json.dumps(json.loads(out)["result"]["counts"]))
        assert counts[0] == counts[1] == counts[2]

    def test_csv_append(self, tmp_path, capsys):
        spec = self.write_spec(tmp_path, {"kind": "sphere", "params": {"d": 2}})
        sweep = tmp_path / "sweep.csv"
        for seed in ("1", "2"):
            run(["mc", "--spec", spec, "--samples", "2000", "--seed", seed,
                 "--append-csv", str(sweep)], capsys)
        assert len(sweep.read_text().strip().splitlines()) == 2

    @pytest.mark.parametrize("spec", [
        {"kind": "sphere", "params": {}},
        {"kind": "sphere", "params": {"d": 3.7}},
        {"kind": "sphere", "params": [3]},
        {"kind": "single_arc", "params": {"arc_angle": 0.4, "colour": "red"}},
        {"kind": "arc_triple", "params": {"alpha": 0.01}},
        {"kind": "mixture", "params": {"components": [{"weight": 1.0}]}},
        {"kind": "self_similar", "params": {"p": 0.8, "arc": {"alpha": 0.0068}}},
        {"kind": "self_similar", "params": {"p": 0.8, "max_depth": 3.5}},
    ], ids=["sphere-without-d", "sphere-float-d", "params-not-object", "unknown-param",
            "arc-triple-partial", "mixture-without-spec", "self-similar-partial-arc",
            "self-similar-float-depth"])
    def test_malformed_spec_is_usage_error(self, tmp_path, capsys, spec):
        code, out, err = run(["mc", "--spec", self.write_spec(tmp_path, spec),
                              "--samples", "10", "--seed", "1"], capsys)
        assert code == EXIT_USAGE
        assert err.startswith("error:") and spec["kind"] in err
        assert out == ""

    @pytest.mark.parametrize("text", [
        '{"kind": "mixture", "params": {"components": ['
        '{"weight": NaN, "spec": {"kind": "sphere", "params": {"d": 2}}}]}}',
        '{"kind": "single_arc", "params": {"arc_angle": 0.4, "radius": NaN}}',
        '{"kind": "arc_triple", "params": {"alpha": 0.001, "delta": 0.0001, "eps": 0.1, '
        '"radius_scale": Infinity}}',
    ], ids=["mixture-nan-weight", "single-arc-nan-radius", "arc-triple-infinite-scale"])
    def test_nonfinite_spec_value_is_usage_error(self, tmp_path, capsys, text):
        # json reads NaN and Infinity, so the samplers have to refuse them.
        path = tmp_path / "spec.json"
        path.write_text(text)
        code, out, err = run(["mc", "--spec", str(path), "--samples", "10", "--seed", "1"],
                             capsys)
        assert code == EXIT_USAGE
        assert err.startswith("error:") and "finite" in err
        assert out == ""

    def test_missing_spec_file(self, capsys):
        code, _, err = run(["mc", "--spec", "/nonexistent.json",
                            "--samples", "10", "--seed", "1"], capsys)
        assert code == EXIT_USAGE


class TestFixedpoint:
    def test_optimize(self, capsys):
        code, out, _ = run(["fixedpoint"], capsys)
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["result"]["p"] == pytest.approx(0.8051875, abs=1e-6)
        assert payload["result"]["obtuse"] == pytest.approx(0.326097, abs=1e-6)

    def test_scan(self, capsys):
        code, out, _ = run(["fixedpoint", "--scan", "--scan-points", "9"], capsys)
        assert code == EXIT_OK
        lines = [ln for ln in out.strip().splitlines() if not ln.startswith("#")]
        assert lines[0] == "p,acute,obtuse"
        assert len(lines) == 10

    @pytest.mark.parametrize("points", ["0", "-3"])
    def test_scan_without_points_is_usage_error(self, points, capsys):
        code, out, err = run(["fixedpoint", "--scan", "--scan-points", points], capsys)
        assert code == EXIT_USAGE
        assert err.startswith("error:") and "at least 1 point" in err
        assert out == ""


class TestSearch:
    def test_search_json(self, capsys):
        code, out, _ = run(["search", "--n", "4", "--dim", "2", "--iterations",
                            "500", "--restarts", "1", "--seed", "3"], capsys)
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["result"]["bound"] == 1
        assert payload["result"]["best_count"] >= 1

    @pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
    def test_seed_outside_64_bits_is_usage_error(self, seed, capsys):
        code, out, err = run(["search", "--n", "4", "--dim", "2", "--iterations", "10",
                              "--restarts", "1", "--seed", seed], capsys)
        assert code == EXIT_USAGE
        assert err == "error: master seed must fit in 64 bits\n"
        assert out == ""

    def test_largest_64_bit_seed_runs(self, capsys):
        code, out, _ = run(["search", "--n", "4", "--dim", "2", "--iterations", "10",
                            "--restarts", "1", "--seed", str(2 ** 64 - 1)], capsys)
        assert code == EXIT_OK
        assert json.loads(out)["manifest"]["seed"] == 2 ** 64 - 1

    def test_invariant_violation_exit_code(self, capsys, monkeypatch):
        import obtri.cli as cli_mod
        from obtri.search import InvariantViolation

        def fake_search(params):
            raise InvariantViolation("count 0 below bound 1")

        monkeypatch.setattr(cli_mod, "search_min", fake_search)
        code, _, err = run(["search", "--n", "4", "--dim", "2", "--seed", "1"], capsys)
        assert code == EXIT_INVARIANT
        assert "invariant" in err

    def test_count_below_bound_exits_four(self, capsys, monkeypatch):
        # search_min's own trap: no configuration reaches a bound this high.
        import obtri.search as search_mod
        monkeypatch.setattr(search_mod, "closed_form_bound", lambda n, d: 10 ** 9)
        code, out, err = run(["search", "--n", "4", "--dim", "2", "--iterations", "20",
                              "--restarts", "1", "--seed", "1"], capsys)
        assert code == EXIT_INVARIANT
        assert "below the proven bound 1000000000" in err
        assert out == ""


class TestNonFiniteTolerance:
    @pytest.mark.parametrize("tol", ["nan", "inf"])
    @pytest.mark.parametrize("argv", [
        ["mc", "--spec", "SPEC", "--samples", "1000", "--seed", "1"],
        ["search", "--n", "4", "--dim", "2", "--iterations", "10", "--restarts", "1",
         "--seed", "1"],
        ["sphere", "--dim", "3"],
    ], ids=["mc", "search", "sphere"])
    def test_usage_error(self, argv, tol, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"kind": "sphere", "params": {"d": 3}}))
        argv = [str(spec) if arg == "SPEC" else arg for arg in argv]
        code, out, err = run(argv + ["--tol", tol], capsys)
        assert code == EXIT_USAGE
        assert "tol must be finite" in err
        assert out == ""


class TestSelfSimilar:
    def test_report_fields(self, capsys):
        code, out, _ = run(["selfsimilar", "--p", "0.8051875",
                            "--samples", "20000", "--seed", "4"], capsys)
        assert code == EXIT_OK
        payload = json.loads(out)
        assert abs(payload["result"]["obtuse_hat"] - 0.326) < 0.05
        assert payload["result"]["tail_mass"] < 1e-9

    def test_tiny_p_reports_the_truncated_tail(self, capsys):
        code, out, _ = run(["selfsimilar", "--p", "1e-300", "--samples", "2000", "--seed", "4"], capsys)
        assert code == EXIT_OK
        result = json.loads(out)["result"]
        assert result["tail_mass"] == 1.0
        assert sum(result["counts"].values()) == 2000


class TestNumericalFailureExit:
    def test_exit_three(self, capsys, monkeypatch):
        import obtri.cli as cli_mod
        from obtri.specfun import NumericalError

        def fake_quad(d, tol):
            raise NumericalError("no convergence", context={"d": d})

        monkeypatch.setattr(cli_mod, "obtuse_prob_sphere", fake_quad)
        code, _, err = run(["sphere", "--dim", "3"], capsys)
        assert code == EXIT_NUMERICAL
        assert "numerical failure" in err


class TestReplayCsv:
    def test_text_without_manifest_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "plain.csv"
        path.write_text("d,n\n2,4\n")
        code, _, err = run(["replay", "--manifest", str(path)], capsys)
        assert code == EXIT_USAGE
        assert "manifest" in err

    @pytest.mark.parametrize("text", ["[1, 2]\n", '{"manifest": 3}\n', "d,n\n# manifest: 7\n"])
    def test_manifest_that_is_not_an_object_is_usage_error(self, text, tmp_path, capsys):
        path = tmp_path / "saved.out"
        path.write_text(text)
        code, _, err = run(["replay", "--manifest", str(path)], capsys)
        assert code == EXIT_USAGE
        assert "no manifest object" in err


class TestReplaySearch:
    def test_replay_search_bit_identical(self, tmp_path, capsys):
        first = tmp_path / "first.json"
        code, _, _ = run(["search", "--n", "5", "--dim", "2", "--iterations",
                          "400", "--restarts", "2", "--seed", "31",
                          "--output", str(first)], capsys)
        assert code == EXIT_OK
        second = tmp_path / "second.json"
        code, _, _ = run(["replay", "--manifest", str(first),
                          "--output", str(second)], capsys)
        assert code == EXIT_OK
        a = json.loads(first.read_text())["result"]
        b = json.loads(second.read_text())["result"]
        assert a["points"] == b["points"]
        assert a["best_count"] == b["best_count"]


class TestReplayKeepsTol:
    """A non-default --tol survives the round trip through replay."""

    @pytest.mark.parametrize("argv, tol", [
        (["sphere", "--dim", "3", "--tol", "1e-06"], 1e-06),
        (["search", "--n", "6", "--dim", "2", "--iterations", "300", "--restarts", "2",
          "--seed", "17", "--tol", "0.05"], 0.05),
    ])
    def test_replayed_manifest_and_result(self, argv, tol, tmp_path, capsys):
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        assert run(argv + ["--output", str(first)], capsys)[0] == EXIT_OK
        code, _, _ = run(["replay", "--manifest", str(first), "--output", str(second)],
                         capsys)
        assert code == EXIT_OK
        a, b = json.loads(first.read_text()), json.loads(second.read_text())
        assert a["manifest"]["params"]["tol"] == b["manifest"]["params"]["tol"] == tol
        assert a["result"] == b["result"]


# One saved run per subcommand and mode; "SPEC" stands for a spec file path.
ROUND_TRIPS = {
    "bound-json": ["bound", "--dim", "3", "--n-max", "3000"],
    "bound-csv": ["bound", "--dim", "3", "--n-max", "3000", "--format", "csv"],
    "table": ["table", "--dims", "4..6", "--n-max", "3000"],
    "sphere": ["sphere", "--dim", "3", "--tol", "1e-06"],
    "sphere-mc": ["sphere", "--dim", "3", "--mc-samples", "3000", "--seed", "5"],
    "mc": ["mc", "--spec", "SPEC", "--samples", "3000", "--seed", "7"],
    "mc-nested": ["mc", "--spec", "NESTED_SPEC", "--samples", "3000", "--seed", "7"],
    "fixedpoint-optimize": ["fixedpoint"],
    "fixedpoint-scan": ["fixedpoint", "--scan", "--scan-points", "9"],
    "search": ["search", "--n", "6", "--dim", "2", "--iterations", "300", "--restarts", "2",
               "--seed", "17", "--tol", "0.05"],
    "selfsimilar": ["selfsimilar", "--p", "0.8051875", "--samples", "3000", "--seed", "4"],
    "selfsimilar-arc": ["selfsimilar", "--p", "0.8051875", "--samples", "3000", "--seed", "4",
                        "--arc-alpha", "0.0068", "--arc-delta", "0.0014", "--arc-eps", "0.3"],
}


# A mixture whose self-similar component spells out its in-cap arc: a spec
# nested three levels deep must survive manifest -> file -> replay.
NESTED_SPEC = {"kind": "mixture", "params": {"components": [
    {"weight": 0.4, "spec": {"kind": "self_similar", "params": {
        "p": 0.8, "arc": {"alpha": 0.0068, "delta": 0.0014, "eps": 0.26}}}},
    {"weight": 0.6, "spec": {"kind": "sphere", "params": {"d": 3}}},
]}}


def split_saved(text):
    """(result text, manifest) of a saved JSON or CSV output."""
    if text.startswith("{"):
        saved = json.loads(text)
        return json.dumps(saved["result"]), saved["manifest"]
    parts = text.split("# manifest: ")
    assert len(parts) == 2 and parts[1].endswith("\n") and "\n" not in parts[1][:-1]
    return parts[0], json.loads(parts[1])


class TestReplayRoundTrip:
    @pytest.mark.parametrize("case", sorted(ROUND_TRIPS))
    def test_replay_reproduces_result_and_manifest(self, case, tmp_path, monkeypatch, capsys):
        specs = {"SPEC": {"kind": "sphere", "params": {"d": 3}}, "NESTED_SPEC": NESTED_SPEC}
        for name, obj in specs.items():
            (tmp_path / name).write_text(json.dumps(obj))
        argv = [str(tmp_path / a) if a in specs else a for a in ROUND_TRIPS[case]]
        first, second = tmp_path / "first.out", tmp_path / "second.out"
        assert run(argv + ["--output", str(first)], capsys)[0] == EXIT_OK
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        code, _, _ = run(["replay", "--manifest", str(first), "--output", str(second)], capsys)
        assert code == EXIT_OK
        assert list(work.iterdir()) == []
        result_a, manifest_a = split_saved(first.read_text())
        result_b, manifest_b = split_saved(second.read_text())
        assert result_a == result_b
        assert manifest_a.pop("timestamp") and manifest_b.pop("timestamp")
        assert manifest_a == manifest_b
        assert manifest_a["subcommand"] == argv[0]
        if "--tol" in argv:
            assert manifest_a["params"]["tol"] == float(argv[argv.index("--tol") + 1])


class TestReplay:
    def test_replay_mc(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"kind": "sphere", "params": {"d": 2}}))
        first = tmp_path / "first.json"
        code, _, _ = run(["mc", "--spec", str(spec), "--samples", "5000",
                          "--seed", "42", "--output", str(first)], capsys)
        assert code == EXIT_OK
        replay_spec = tmp_path / "replayed_spec.json"
        second = tmp_path / "second.json"
        code, _, _ = run(["replay", "--manifest", str(first),
                          "--spec", str(replay_spec), "--output", str(second)], capsys)
        assert code == EXIT_OK
        assert json.loads(replay_spec.read_text()) == {"kind": "sphere", "params": {"d": 2}}
        a = json.loads(first.read_text())["result"]["counts"]
        b = json.loads(second.read_text())["result"]["counts"]
        assert a == b

    def save(self, tmp_path, manifest):
        path = tmp_path / "saved.json"
        path.write_text(json.dumps({"manifest": manifest, "result": {}}))
        return str(path)

    @pytest.mark.parametrize("sub", ["frobnicate", "replay"])
    def test_unknown_subcommand(self, sub, tmp_path, capsys):
        path = self.save(tmp_path, {"subcommand": sub, "params": {"manifest": "x.json"},
                                    "seed": None})
        code, out, err = run(["replay", "--manifest", path], capsys)
        assert code == EXIT_USAGE
        assert repr(sub) in err
        assert out == ""

    @pytest.mark.parametrize("key", ["d", "output", "seed"])
    def test_parameter_the_parser_lacks(self, key, tmp_path, capsys):
        params = {"n": 4, "dim": 2, "iterations": 50, "restarts": 1,
                  "mode": "non-acute", "tol": 1e-12, key: 2}
        path = self.save(tmp_path, {"subcommand": "search", "params": params, "seed": 3})
        code, out, err = run(["replay", "--manifest", path], capsys)
        assert code == EXIT_USAGE
        assert repr(key) in err
        assert out == ""

    def test_retired_fixedpoint_optimize_key(self, tmp_path, capsys):
        params = {"optimize": False, "scan": False, "scan_points": 999}
        path = self.save(tmp_path, {"subcommand": "fixedpoint", "params": params, "seed": None})
        code, out, err = run(["replay", "--manifest", path], capsys)
        assert code == EXIT_USAGE
        assert "'optimize'" in err
        assert out == ""

    def refused(self, manifest, tmp_path, capsys):
        """Replay ``manifest``; it must end in a usage error and no output."""
        code, out, err = run(["replay", "--manifest", self.save(tmp_path, manifest)], capsys)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: ")
        return err

    def test_params_that_are_not_an_object(self, tmp_path, capsys):
        err = self.refused({"subcommand": "bound", "params": None, "seed": None}, tmp_path, capsys)
        assert "params must be an object" in err

    def test_subcommand_that_is_not_a_string(self, tmp_path, capsys):
        err = self.refused({"subcommand": ["bound"], "params": {"dim": 2}, "seed": None}, tmp_path, capsys)
        assert "cannot replay subcommand ['bound']" in err

    @pytest.mark.parametrize("dims", [5, [4], [4, 5, 6], "4..5"])
    def test_dims_that_are_not_a_pair(self, dims, tmp_path, capsys):
        params = {"dims": dims, "n_max": 100}
        err = self.refused({"subcommand": "table", "params": params, "seed": None}, tmp_path, capsys)
        assert "'dims' must be a pair" in err

    @pytest.mark.parametrize("scan", ["no", 0, 1, "true"])
    def test_flag_that_is_not_a_bool(self, scan, tmp_path, capsys):
        params = {"scan": scan, "scan_points": 9}
        err = self.refused({"subcommand": "fixedpoint", "params": params, "seed": None}, tmp_path, capsys)
        assert "'scan' is a flag" in err
