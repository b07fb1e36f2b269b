import hashlib
import json

import pytest

from distdlog.cli import main
from distdlog.harness import ExperimentConfig, run_batch, wilson_interval


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolveCommand:
    def test_records_and_summary(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["solve", "--N", "11", "--a", "3", "--b", "9", "--epsilon", "0.25",
             "--mode", "statevector", "--trials", "20", "--seed", "7"],
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 21
        record = json.loads(lines[0])
        assert set(record) >= {"m_a", "m_b", "mhat_a", "mhat_b", "g_hat",
                               "retries", "success", "mode", "seed"}
        summary = json.loads(lines[-1])["summary"]
        assert summary["trials"] == 20
        assert 0.0 <= summary["wilson_low"] <= summary["success_rate"] <= summary["wilson_high"] <= 1.0

    def test_byte_identical_reruns(self, capsys):
        argv = ["solve", "--N", "11", "--a", "3", "--b", "9", "--epsilon", "0.25",
                "--trials", "30", "--seed", "123"]
        _, first, _ = run_cli(capsys, argv)
        _, second, _ = run_cli(capsys, argv)
        assert first == second

    def test_analytic_mode(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["solve", "--N", "11", "--a", "3", "--b", "9", "--mode", "analytic",
             "--trials", "10", "--seed", "1"],
        )
        assert code == 0
        assert json.loads(out.strip().splitlines()[0])["mode"] == "analytic"

    def test_invalid_instance_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys,
            ["solve", "--N", "11", "--a", "3", "--b", "7", "--trials", "1", "--seed", "0"],
        )
        assert code == 2
        assert "promise violated" in err

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "records.ndjson"
        code, out, _ = run_cli(
            capsys,
            ["solve", "--N", "11", "--a", "3", "--b", "9", "--trials", "5",
             "--seed", "2", "--output", str(target)],
        )
        assert code == 0 and out == ""
        lines = target.read_text().strip().splitlines()
        assert len(lines) == 6


class TestSolveDistCommand:
    def test_runs_with_plan_summary(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["solve-dist", "--N", "11", "--a", "3", "--b", "9", "--k", "2", "--h", "2",
             "--epsilon", "0.25", "--epsilon-prime", "0.2", "--trials", "10", "--seed", "7"],
        )
        assert code == 0
        lines = out.strip().splitlines()
        record = json.loads(lines[0])
        assert len(record["node_measurements"]) == 2
        summary = json.loads(lines[-1])["summary"]
        assert summary["plan"]["l"] == [1, 2, 5]

    def test_infeasible_plan_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys,
            ["solve-dist", "--N", "11", "--a", "3", "--b", "9", "--k", "3",
             "--trials", "1", "--seed", "0"],
        )
        assert code == 2
        assert "infeasible" in err


class TestGoldenOutput:
    """sha256 of seeded stdout: a refactor of either solver must keep every
    seeded record byte for byte. Records hold only integers, bit strings and
    bools, so the digests do not depend on the platform."""

    BASE = ["--N", "11", "--a", "3", "--b", "9", "--epsilon", "0.25", "--seed", "7"]
    DIST = ["--k", "2", "--h", "2", "--epsilon-prime", "0.2"]

    @pytest.mark.parametrize(
        "command, extra, digest",
        [
            ("solve", ["--trials", "100", "--max-retries", "1"],
             "e74cf8575164339d2db4cddc295eeb2b3b8a8ae8f230b101c05f6d4a846ffa60"),
            ("solve", ["--trials", "10", "--max-retries", "1", "--no-reuse"],
             "f20652012fec1b7147a7d3b8235805bc73f6d722e424114a805f6cf9f9336b8e"),
            ("solve-dist", DIST + ["--trials", "100"],
             "100d064757175526612814ad02c7d10664c32394fe0d2a99576b60d10220a13f"),
            ("solve-dist", DIST + ["--trials", "5", "--no-reuse"],
             "19a4e9cafc25d2976dda5c2f692dfc3606d17a9c95d3fa3b00d5a83dcf021c59"),
            ("solve", ["--mode", "analytic", "--trials", "100", "--max-retries", "1"],
             "9d350829c913473f4f47b8bc04b911a678252815a2c36e4cdb73dfb2f137ec94"),
            ("solve-dist", DIST + ["--mode", "analytic", "--trials", "100"],
             "06bf48120bc6e004b1eb71229f8f127b76cf7e369c294e3301c28e2751d7e424"),
        ],
        ids=["solve", "solve-no-reuse", "solve-dist", "solve-dist-no-reuse",
             "solve-analytic", "solve-dist-analytic"],
    )
    def test_stdout_digest(self, capsys, command, extra, digest):
        code, out, _ = run_cli(capsys, [command] + self.BASE + extra)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestResourcesCommand:
    def test_toy_and_symbolic_rows(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["resources", "--r", "5", "2**64", "--k", "2", "--L", "4",
             "--epsilon", "0.25", "--epsilon-prime", "0.2"],
        )
        assert code == 0
        lines = out.strip().splitlines()
        header = lines[0].split(",")
        row_small = dict(zip(header, lines[1].split(",")))
        assert row_small["qubits_single_node_alg2"] == "18"
        assert row_small["qubits_per_node_alg4"] == "20"
        assert row_small["comm_qubits"] == "4"
        assert row_small["alg4_less_than_alg2"] == "false"
        row_big = dict(zip(header, lines[2].split(",")))
        assert row_big["alg4_less_than_alg2"] == "true"
        assert lines[-1].startswith("# note:")

    @pytest.mark.parametrize(
        "power, value",
        [("2**1024", 2**1024), ("2**14283", 2**14283)],  # README example; widest allowed
    )
    def test_power_form_parses(self, capsys, power, value):
        code, out, _ = run_cli(capsys, ["resources", "--r", power, "--k", "2"])
        assert code == 0
        assert out.splitlines()[1].startswith(str(value) + ",")

    @pytest.mark.parametrize(
        "power, message",
        [
            ("2**14284", "more than 14284 bits"),  # one bit over the cap
            ("3**9013", "more than 14284 bits"),  # 14,286 bits from a small exponent
            ("2**1" + "0" * 400, "more than 14284 bits"),  # too large for a float
            ("2**-1", "negative exponent"),
        ],
    )
    def test_bad_power_refused(self, capsys, power, message):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, ["resources", "--r", power, "--k", "2"])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


class TestVerifyCommand:
    def test_metric_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "--suite", "metric"])
        assert code == 0
        assert "PASS" in out and "FAIL" not in out

    def test_correct_suite_small(self, capsys):
        code, out, _ = run_cli(
            capsys, ["verify", "--suite", "correct", "--cases", "50", "--seed", "1"]
        )
        assert code == 0
        assert "alignment oracle" in out

    def test_accuracy_suite_scoped(self, capsys):
        code, out, _ = run_cli(
            capsys, ["verify", "--suite", "accuracy", "--r", "5", "--epsilon", "0.25"]
        )
        assert code == 0
        assert "accuracy masses" in out

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--suite", "correct", "--cases", "-5"], "argument --cases: -5 is below the minimum 1"),
            (["--suite", "accuracy", "--r", "-3"], "argument --r: -3 is below the minimum 2"),
            (["--suite", "accuracy", "--r", "0"], "argument --r: 0 is below the minimum 2"),
        ],
        ids=["cases-negative", "r-negative", "r-zero"],
    )
    def test_vacuous_input_refused(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, ["verify"] + argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


class TestDistCompareCommand:
    def test_report(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["dist-compare", "--N", "11", "--a", "3", "--b", "9", "--k", "2",
             "--h", "2", "--epsilon", "0.25", "--epsilon-prime", "0.2"],
        )
        assert code == 0
        payload = json.loads(out.strip())
        assert payload["max_amplitude_deviation"] <= 1e-9
        assert payload["joint_total_variation"] <= 1e-9
        assert payload["comm_qubits"] == 4


class TestHarness:
    def test_wilson_interval_brackets(self):
        low, high = wilson_interval(60, 100)
        assert low < 0.6 < high
        assert wilson_interval(0, 0) == (0.0, 1.0)
        exact_low, exact_high = wilson_interval(100, 100)
        assert exact_high == 1.0 and exact_low > 0.95

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(N=11, a=3, b=9, algorithm="quantum")
        with pytest.raises(ValueError):
            ExperimentConfig(N=11, a=3, b=9, trials=0)

    def test_run_batch_assigns_trial_seeds(self):
        config = ExperimentConfig(N=11, a=3, b=9, trials=4, seed=9)
        result = run_batch(config)
        assert [r.seed for r in result.records] == [0, 1, 2, 3]
        assert result.summary["successes"] == sum(r.success for r in result.records)

    def test_resource_report_recomputes_identically(self):
        from distdlog import dist, resources

        plan = dist.plan_for_order(5, 2, 2, "0.25", "0.2")
        build = lambda: resources.ResourceReport(
            qubits_single_node_alg2=resources.single_node_qubits(5, 4, "0.25"),
            qubits_per_node_alg4=resources.per_node_qubits_from_widths(plan.t, 4),
            comm_qubits=resources.communication_qubits(2, 4),
        )
        first, second = build(), build()
        assert first == second
        assert first.to_json_dict() == second.to_json_dict()

    def test_verify_failure_exits_1(self, capsys, monkeypatch):
        from distdlog import verify

        monkeypatch.setattr(
            verify,
            "run_suite",
            lambda *a, **k: [verify.CheckResult("stub", False, "0", "1")],
        )
        code, out, _ = run_cli(capsys, ["verify", "--suite", "metric"])
        assert code == 1
        assert "FAIL stub" in out
