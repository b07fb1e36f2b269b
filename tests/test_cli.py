import hashlib
import json

import pytest

from distdlog.cli import main
from distdlog.dlp import ShorConfig, solve
from distdlog.harness import run_batch, wilson_interval
from distdlog.verify import SUITES


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def verify_mutant(names, good, bad) -> dict:
    """A copy of ``verify``'s namespace in which the named functions are
    redefined from their source with ``good`` (found exactly once among
    them) replaced by ``bad``."""
    import inspect
    import textwrap

    from distdlog import verify

    sources = [textwrap.dedent(inspect.getsource(getattr(verify, name))) for name in names]
    assert sum(source.count(good) for source in sources) == 1
    namespace = dict(vars(verify))
    for source in sources:
        exec(source.replace(good, bad), namespace)
    return namespace


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

    def test_oversize_statevector_run_refused_by_qubit_cap(self, capsys, tmp_path):
        """At r = 16001 the cached law is over its byte cap, so the solver
        falls back to fresh runs, and the node run's byte bound refuses them
        with a message naming analytic mode. The first trial is refused,
        so nothing is written: no stdout, and no --output file."""
        argv = ["solve", "--N", "32003", "--a", "4", "--b", "17236", "--epsilon", "0.25",
                "--trials", "5", "--seed", "7"]
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, "")
        assert "error: node run needs about 400025 MiB (cap 256 MiB); use analytic mode" in err
        path = tmp_path / "records.ndjson"
        assert run_cli(capsys, argv + ["--output", str(path)])[:2] == (2, "")
        assert not path.exists()

    def test_oversize_fresh_run_refused_before_it_allocates(self, capsys, tmp_path):
        """The r = 16001 fresh solve (t = 18, 51 qubits) is refused by the
        node run's byte bound before any table is built: the whole command
        peaks under 1 MiB by tracemalloc, where the run would need about
        400,025 MiB. It exits 2, writes nothing to stdout and creates no
        --output file."""
        import tracemalloc

        from distdlog import dlp

        path = tmp_path / "records.ndjson"
        argv = ["solve", "--N", "32003", "--a", "4", "--b", "17236", "--epsilon", "0.25",
                "--trials", "5", "--seed", "7", "--no-reuse"]
        dlp.node_tables.cache_clear()
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, argv + ["--output", str(path)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (code, out, err) == (
            2, "", "error: node run needs about 400025 MiB (cap 256 MiB); use analytic mode\n"
        )
        assert not path.exists()
        assert dlp.node_tables.cache_info().misses == 0
        assert peak < 1 << 20

    @pytest.mark.parametrize(
        "argv",
        [["solve", "--no-reuse"], ["solve"], ["solve-dist", "--no-reuse"], ["dist-compare"]],
        ids=["solve-fresh", "solve-cached", "solve-dist-fresh", "dist-compare"],
    )
    def test_statevector_commands_run_at_large_moduli(self, capsys, argv):
        """The kernel's tables come from indices on the orbit of a, with no
        residue product past its r powers, so no state-vector command
        refuses on the size of N. At N = 3,037,000,500 (a of order 5), one
        past it, where (N - 1)^2 passes 2^63 (order 3), at N =
        1,099,511,627,803 (order 7) and at N = 2^127 - 1 (order 7, live
        values past int64), every command runs with nothing on stderr: each
        trial recovers g, the step-7 deviation and the joint-law TV are
        within 1e-9, and analytic mode runs on the same instance."""
        from distdlog import dlp
        from distdlog.numtheory import validate_instance

        command, *path = argv
        trials = [] if command == "dist-compare" else ["--trials", "20", "--seed", "7"]
        m127 = (1 << 127) - 1
        a127 = pow(3, (m127 - 1) // 7, m127)
        for N, a, b in [
            (3037000500, 2429600401, 1822200301),
            (3037000501, 2361333562, 675666938),
            (1099511627803, 231197147670, 398764939913),
            (m127, a127, a127 * a127 % m127),
        ]:
            g = validate_instance(N, a, b).hidden_g
            instance = ["--N", str(N), "--a", str(a), "--b", str(b)]
            dlp.node_tables.cache_clear()
            got, out, err = run_cli(capsys, [command, *instance, *trials, *path])
            assert (got, err) == (0, "")
            lines = [json.loads(line) for line in out.splitlines()]
            if command == "dist-compare":
                assert lines[0]["max_amplitude_deviation"] <= 1e-9
                assert lines[0]["joint_total_variation"] <= 1e-9
                continue
            assert [line["g_hat"] for line in lines[:-1]] == [g] * 20
            analytic = [command, *instance, *trials, "--mode", "analytic"]
            assert run_cli(capsys, analytic)[0] == 0

    def test_refusal_figure_past_the_int_digit_limit(self, capsys):
        """At epsilon = 10^-5000 the node run's bound has a MiB figure of 4,998
        digits, past Python's default limit of 4,300 on an int's text: the
        solve still exits 2 with no stdout and one ``error:`` line of the
        one refusal shape."""
        import re

        from test_budget import SHAPE

        argv = ["solve", "--N", "11", "--a", "3", "--b", "9", "--epsilon", "1e-5000",
                "--trials", "1", "--seed", "1", "--no-reuse"]
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, "")
        assert re.fullmatch(f"error: node run {SHAPE}\n", err)
        assert len(err.split()[5]) == 4998

    @pytest.mark.parametrize("command", ["solve", "solve-dist"])
    def test_zero_trials_exit_2(self, capsys, command):
        code, out, err = run_cli(
            capsys, [command, "--N", "11", "--a", "3", "--b", "9", "--trials", "0", "--seed", "7"]
        )
        assert (code, out) == (2, "")
        assert "trials must be >= 1" in err

    @pytest.mark.parametrize(
        "command, count, message",
        [
            ("solve", "--trials", "error: trials must be >= 1, got 0\n"),
            ("solve-dist", "--trials", "error: trials must be >= 1, got 0\n"),
            ("solve-dist", "--max-retries", "error: max_retries must be >= 1, got 0\n"),
        ],
        ids=["solve-trials", "solve-dist-trials", "solve-dist-max-retries"],
    )
    def test_zero_count_refused_before_the_law(self, capsys, monkeypatch, command, count, message):
        """A zero trial or retry count is refused before the cached law of
        the chain is built: at N = 59 both laws fit the byte cap, and each
        takes tenths of a second and tens of MiB to build."""
        from distdlog import dlp

        def refuse(*args, **kwargs):
            raise AssertionError("joint law built for a refused run")

        dlp.joint_cdf.cache_clear()
        monkeypatch.setattr(dlp, "joint_law", refuse)
        argv = [command, "--N", "59", "--a", "3", "--b", "9", "--seed", "7", count, "0"]
        if command == "solve-dist":
            argv += ["--k", "2", "--h", "2", "--epsilon-prime", "0.2"]
        assert run_cli(capsys, argv) == (2, "", message)

    def test_output_file(self, capsys, tmp_path):
        """--output gets the bytes stdout gets."""
        argv = ["solve", "--N", "11", "--a", "3", "--b", "9", "--trials", "300", "--seed", "2"]
        code, stdout, _ = run_cli(capsys, argv)
        assert code == 0 and len(stdout.splitlines()) == 301
        target = tmp_path / "records.ndjson"
        code, out, _ = run_cli(capsys, argv + ["--output", str(target)])
        assert code == 0 and out == ""
        assert target.read_bytes() == stdout.encode()


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

    def test_law_over_cap_noted_on_stderr(self, capsys):
        """A cached law over its byte cap gets one note on stderr naming the
        cap, and the records are those of --no-reuse byte for byte; a law
        that fits gets no note."""
        argv = ["solve-dist", "--N", "23", "--a", "2", "--b", "3", "--k", "3", "--h", "2",
                "--epsilon", "0.5", "--epsilon-prime", "0.25", "--trials", "3", "--seed", "7"]
        code, out, err = run_cli(capsys, argv)
        fresh = run_cli(capsys, argv + ["--no-reuse"])
        assert fresh == (0, out, "")
        assert code == 0
        assert err.splitlines() == [
            "note: joint law needs about 401 MiB (cap 256 MiB),"
            " so it is not cached; every attempt reruns the circuit"
        ]
        code, _, err = run_cli(
            capsys, ["solve-dist", "--N", "11", "--a", "3", "--b", "9", "--trials", "3", "--seed", "7"]
        )
        assert (code, err) == (0, "")

    def test_over_cap_law_refused_once_per_chain(self, capsys, monkeypatch):
        """Over a 1,000-trial batch whose cached law is over its byte cap,
        the law's bytes are counted once: ``joint_cdf`` keeps the refusal,
        and each trial makes one lookup there, a hit."""
        from distdlog import dlp

        calls = []
        build_bytes = dlp._build_bytes
        monkeypatch.setattr(dlp, "_build_bytes", lambda *args: calls.append(args) or build_bytes(*args))
        dlp.joint_cdf.cache_clear()
        argv = ["solve-dist", "--N", "23", "--a", "2", "--b", "3", "--k", "3", "--h", "2",
                "--epsilon", "0.5", "--epsilon-prime", "0.25", "--trials", "1000", "--seed", "7"]
        code, out, err = run_cli(capsys, argv)
        info = dlp.joint_cdf.cache_info()
        dlp.joint_cdf.cache_clear()
        assert code == 0 and len(out.splitlines()) == 1001
        assert err.startswith("note: joint law needs about 401 MiB (cap 256 MiB)")
        assert len(calls) == 1
        assert (info.misses, info.hits) == (1, 1000)

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
             "b78e1f1ff00d611f2bca5810ea3aaf2c4998801e4ac40757bc07561a99403aa7"),
            ("solve-dist", DIST + ["--mode", "analytic", "--trials", "100"],
             "1c4c2a3426f1781f6de93ff63867ef1818104f830b085e01e71b86501dcedc15"),
        ],
        ids=["solve", "solve-no-reuse", "solve-dist", "solve-dist-no-reuse",
             "solve-analytic", "solve-dist-analytic"],
    )
    def test_stdout_digest(self, capsys, command, extra, digest):
        code, out, _ = run_cli(capsys, [command] + self.BASE + extra)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    STRICT = ["--N", "23", "--a", "2", "--b", "3", "--epsilon", "0.25", "--seed", "7"]

    @pytest.mark.parametrize(
        "command, extra, digest",
        [
            ("solve", ["--trials", "200", "--max-retries", "1", "--no-reuse"],
             "df4223b1471f2b0f19a6fb5ea03b7c7c4956a61f8a51134f9fa49a6b58c5877e"),
            ("solve-dist", DIST + ["--trials", "100", "--no-reuse"],
             "d5e422f768aecd192d01d62bd09c2150c85bf870be2b85cb3cae89eb948f0f64"),
        ],
        ids=["solve-no-reuse", "solve-dist-no-reuse"],
    )
    def test_strict_orbit_digest(self, capsys, command, extra, digest):
        """Fresh runs on N = 23, a = 2 (r = 11, L = 5), whose orbit is a
        strict subset of the units, so the live closure is not all of them."""
        code, out, _ = run_cli(capsys, [command] + self.STRICT + extra)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    LARGE = ["--N", "32003", "--a", "4", "--b", "17236", "--epsilon", "0.25", "--seed", "7",
             "--mode", "analytic"]

    @pytest.mark.parametrize(
        "command, extra, digest",
        [
            ("solve", ["--trials", "200", "--max-retries", "1"],
             "d03063df1fe6c8b056505d13295bfe237bb7520c592acef04ccb7f0bba268701"),
            ("solve-dist", ["--k", "2", "--epsilon-prime", "0.2", "--trials", "200"],
             "0cd5f410dbf6f785081c3c010e2404a776def473dfaa92d0ddf7a48201817319"),
        ],
        ids=["solve-analytic", "solve-dist-analytic"],
    )
    def test_large_order_analytic_digest(self, capsys, command, extra, digest):
        """Analytic runs at the benchmark's order r = 16001 (N = 32003),
        whose registers are 18 bits wide for Alg. 2 and 14 and 13 bits for
        the two Alg. 4 nodes: draws far from the N = 11 widths."""
        code, out, _ = run_cli(capsys, [command] + self.LARGE + extra)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    CACHED_59 = ["--N", "59", "--a", "3", "--b", "9", "--epsilon", "0.25", "--seed", "7"]

    @pytest.mark.parametrize(
        "command, extra, digest",
        [
            ("solve", ["--trials", "100", "--max-retries", "1"],
             "3045c4464c6f2ce4a7546aae2e1eefeab8d7c3cc9ee4551c0cd3ca0e8e901d0c"),
            ("solve-dist", DIST + ["--trials", "100"],
             "69ea8de888015682e5965c30aa66469f91b34ac2c295219d6245897f228c7653"),
        ],
        ids=["solve", "solve-dist"],
    )
    def test_cached_n59_digest(self, capsys, command, extra, digest):
        """N = 59, a = 3 (r = 29, L = 6): the Alg. 2 law (t = 9, 6 MiB) and
        the k = 2 law (24 MiB) are built one m_a cell at a time within the
        byte cap, so the runs draw from them and note nothing on stderr."""
        code, out, err = run_cli(capsys, [command] + self.CACHED_59 + extra)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    WIDE_SEED = str(2**64 + 5)  # three 32-bit words of entropy before the index

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (["solve-dist", "--N", "11", "--a", "3", "--b", "9", "--epsilon", "0.25", *DIST,
              "--trials", "50"],
             "087e7d292f477995f439f13c0790bd89ae454455b103d81b41474f7a36151f62"),
            (["solve", "--N", "32003", "--a", "4", "--b", "17236", "--epsilon", "0.25",
              "--mode", "analytic", "--trials", "200", "--max-retries", "1"],
             "87f5d6b27f7ff987fabe98d0133db6f7f17c3ecedf05a51c3fb1041f4654f434"),
        ],
        ids=["solve-dist", "solve-analytic-large"],
    )
    def test_wide_seed_digest(self, capsys, argv, digest):
        """A seed past 64 bits, whose trial generators hash more entropy
        words than the pool holds: the digests were taken with
        ``np.random.default_rng((seed, i))`` as every trial's generator."""
        code, out, _ = run_cli(capsys, argv + ["--seed", self.WIDE_SEED])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "argv, fallbacks, digest",
        [
            (["solve-dist", *LARGE, "--k", "3", "--epsilon-prime", "0.2", "--trials", "200"], 0,
             "8451653d35b2891ee6604946030121fcb9ed24eb1b7287486f446a7e1b6ff2b2"),
            (["solve-dist", "--N", "23", "--a", "2", "--b", "3", "--k", "3", "--h", "2",
              "--epsilon", "0.5", "--epsilon-prime", "0.25", "--trials", "20", "--seed", "7"], 2,
             "9319593309d85ca943c787f3f9c6ca8521741ea39fcaaf1f3b298e692b09f58a"),
            (["solve-dist", *STRICT, *DIST, "--trials", "120", "--max-retries", "1"], 1,
             "33251be923a67c29c3eae165e65831f8587a63dbb49e6a2c9dcdf2db9945a817"),
        ],
        ids=["k3-analytic-large", "k3-over-cap-fresh", "cached-fallback"],
    )
    def test_alignment_digest(self, capsys, argv, fallbacks, digest):
        """Runs that reach more of the alignment pass: three analytic nodes
        at r = 16001 (two alignment steps), a three-node plan whose law is
        over the byte cap and so runs fresh, and a cached run at N = 23 with
        one record whose windows did not align (``correct_fallback``)."""
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        assert out.count('"correct_fallback": true') == fallbacks
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestRecordStream:
    """Records go out as they are made: one line per trial through one shared
    encoder, with no list of records or lines kept."""

    @pytest.mark.parametrize("kind, reuse", [("statevector", True), ("statevector", False),
                                             ("analytic", True)], ids=["cached", "fresh", "analytic"])
    @pytest.mark.parametrize("command", ["solve", "solve-dist"])
    def test_json_line_equals_sorted_dumps(self, instance, acceptance_plan, command, kind, reuse):
        """Cached, fresh and analytic records of Alg. 2 and Alg. 4 (only the
        analytic ones carry ``latent_s``, only Alg. 4's ``node_measurements``)
        and the summary encode as ``json.dumps(payload, sort_keys=True)``."""
        from distdlog import dist, dlp
        from distdlog.cli import _json_line

        if command == "solve":
            config = ShorConfig.for_instance(instance, "0.25", max_retries=2, mode=kind)
            one = lambda rng: dlp.solve(instance, config, rng, reuse_state=reuse)
            fields = {"algorithm": "shor", "mode": kind}
        else:
            one = lambda rng: dist.solve_distributed(
                instance, acceptance_plan, rng, mode=kind, max_retries=2, reuse_state=reuse
            )
            fields = {"algorithm": "distributed", "mode": kind,
                      "plan": acceptance_plan.to_json_dict()}
        payloads = []
        summary = run_batch(one, trials=20, seed=11,
                            emit=lambda record: payloads.append(record.to_json_dict()),
                            **fields)
        payloads.append({"summary": summary})
        for payload in payloads[:-1]:
            assert ("latent_s" in payload) == (kind == "analytic")
            assert ("node_measurements" in payload) == (command == "solve-dist")
        for payload in payloads:
            assert _json_line(payload) == json.dumps(payload, sort_keys=True)

    def test_dist_compare_line_equals_sorted_dumps(self, capsys):
        """The ``dist-compare`` payload, with its float deviations, too."""
        from distdlog.cli import _json_line

        code, out, _ = run_cli(
            capsys, ["dist-compare", "--N", "11", "--a", "3", "--b", "9", "--k", "2",
                     "--h", "2", "--epsilon", "0.25", "--epsilon-prime", "0.2"]
        )
        assert code == 0
        payload = json.loads(out)
        assert out == _json_line(payload) + "\n" == json.dumps(payload, sort_keys=True) + "\n"

    def test_memory_flat_in_trials(self, tmp_path):
        """The traced peak of a 20,000-trial run is within 256 KiB of a
        2,000-trial run's; keeping each record and its line would add about
        2 KB a trial. A first untraced run fills the cached law's memo of
        outcomes, which is bounded but grows with the distinct indices drawn;
        the rest of the margin is the trial generators' cache of four 32 KiB
        blocks."""
        import tracemalloc

        argv = ["solve", "--N", "11", "--a", "3", "--b", "9", "--epsilon", "0.25", "--seed", "7",
                "--max-retries", "1", "--output", str(tmp_path / "records.ndjson")]
        assert main(argv + ["--trials", "20000"]) == 0
        peaks = []
        for trials in (2000, 20000):
            tracemalloc.start()
            try:
                assert main(argv + ["--trials", str(trials)]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 256 * 1024


class TestNoBitStrings:
    """The solvers carry every prefix as a plain int: no ``BitString`` is
    built from the draw to the ndjson line, on any path of either solver."""

    @pytest.mark.parametrize("path", [[], ["--no-reuse"], ["--mode", "analytic"]],
                             ids=["cached", "fresh", "analytic"])
    @pytest.mark.parametrize("command, extra", [
        ("solve", []), ("solve-dist", ["--k", "2", "--h", "2", "--epsilon-prime", "0.2"]),
    ], ids=["solve", "solve-dist"])
    def test_solvers_build_no_bit_string(self, capsys, monkeypatch, command, extra, path):
        from distdlog import bits, dlp

        built = []
        check = bits.BitString.__post_init__
        monkeypatch.setattr(bits.BitString, "__post_init__",
                            lambda self: built.append(self) or check(self))
        bits.BitString(3, 5)
        assert len(built) == 1  # the count sees every construction
        built.clear()
        dlp.joint_cdf.cache_clear()  # the cached path decodes and joins afresh
        code, out, _ = run_cli(capsys, [command, "--N", "11", "--a", "3", "--b", "9",
                                        "--epsilon", "0.25", "--trials", "50", "--seed", "7",
                                        *extra, *path])
        assert code == 0 and len(out.splitlines()) == 51
        assert built == []


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

    def test_output_file_matches_stdout(self, capsys, tmp_path):
        """--output writes the bytes stdout gets, CRLF rows included."""
        argv = ["resources", "--r", "5", "2**1024", "--k", "2", "16",
                "--epsilon", "0.25", "--epsilon-prime", "0.2"]  # the README command
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        path = tmp_path / "resources.csv"
        assert main(argv + ["--output", str(path)]) == 0
        assert capsys.readouterr().out == ""
        assert path.read_bytes() == out.encode()
        assert b"\r\n" in path.read_bytes()

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

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--L", "-3"], "argument --L: -3 is below the minimum 1"),
            (["--L", "0"], "argument --L: 0 is below the minimum 1"),
        ],
        ids=["L-negative", "L-zero"],
    )
    def test_vacuous_input_refused(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, ["resources", "--r", "5", "--k", "2"] + argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--k", "0", "1"], "need at least 2 nodes, got k = 0"),
            (["--k", "2", "1"], "need at least 2 nodes, got k = 1"),
            (["--k", "2", "--epsilon-prime", "0"],
             "need 0 < epsilon' < epsilon < 1, got 0 and 1/4"),
            (["--k", "2", "--epsilon-prime", "0.3"],
             "need 0 < epsilon' < epsilon < 1, got 3/10 and 1/4"),
            (["--k", "2", "--epsilon", "2"], "epsilon must be in (0,1), got 2"),
        ],
        ids=["k-zero", "k-one", "epsilon-prime-zero", "epsilon-prime-above", "epsilon-above"],
    )
    def test_configuration_error_refused_before_any_row(self, capsys, argv, message):
        """A node count below 2 or an epsilon' outside (0, epsilon) is
        refused with exit 2 and ``plan_for_order``'s message before any row
        is written, as ``solve-dist`` refuses it."""
        code, out, err = run_cli(capsys, ["resources", "--r", "5", "2**64"] + argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_k_above_half_width_is_a_row(self, capsys):
        """A plan that cannot split r's register depends on r, so it stays
        an ``infeasible`` row of a table that exits 0."""
        code, out, _ = run_cli(capsys, ["resources", "--r", "5", "2**64", "--k", "2", "99"])
        assert code == 0
        verdicts = [row.split(",", 11)[11] for row in out.splitlines()[1:-1]]
        assert verdicts == [
            "false", "infeasible: plan infeasible: k = 99 exceeds 2 for order 5",
            "true", f"infeasible: plan infeasible: k = 99 exceeds 33 for order {2**64}",
        ]


class TestVerifyCommand:
    def test_suite_list_digest(self):
        """The names and bounds of every check of ``verify --suite all``
        (sha256 of the ``name|bound`` lines, computed before the suites'
        sizes became module constants). The four Alg. 4 mass rows came
        later; the other 30 lines still hash as they did before them."""
        from distdlog import verify

        lines = [f"{c.name}|{c.bound}" for c in verify.run_suite("all", seed=1)]
        earlier = [line for line in lines if " k=2 h=2 eps'=" not in line]
        assert len(lines) == 34 and len(earlier) == 30
        assert hashlib.sha256("\n".join(earlier).encode()).hexdigest() == (
            "29b2fa2d4aa09a3d7e1194335434fcbcaeea93fef2df4c30d8ad37b0308fb707"
        )
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
            "de517ad748ac9c11b79bf7055cf58bea5fc0f1ddcf373d05f68f082676a76b39"
        )

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (["--suite", "all", "--seed", "1"],
             "8521e525a327812019e69abcf647f8e66d413d992bb26c7f840b3592830a5b49"),
            (["--suite", "all", "--seed", "7"],
             "8521e525a327812019e69abcf647f8e66d413d992bb26c7f840b3592830a5b49"),
            (["--suite", "accuracy", "--r", "5", "--epsilon", "0.25"],
             "b3960116cc02fc71253c0a4ee2ffc371652443638bfada2607e4cd78c75e4eb3"),
            (["--suite", "accuracy", "--r", "12", "--epsilon", "0.1"],
             "50720c1a91ad90c68cf95b97adcd192103ce998fca58778bb3ba482d49b29ff4"),
        ],
        ids=["all-seed-1", "all-seed-7", "accuracy-readme", "accuracy-composite"],
    )
    def test_stdout_digest(self, capsys, argv, digest):
        """sha256 of the whole stdout, every printed mass included
        (computed before the accuracy suite became a row sweep)."""
        code, out, _ = run_cli(capsys, ["verify"] + argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "rs, epsilons",
        [(None, None), ((12,), ("0.1",)), ((5,), ("0.25",))],
        ids=["default", "composite-r12", "readme-r5"],
    )
    def test_accuracy_suite_equals_loop_reference(self, rs, epsilons):
        from distdlog import verify
        from phaseloop import suite_accuracy_loop

        kwargs = {} if rs is None else {"rs": rs, "epsilons": epsilons}
        assert verify.suite_accuracy(**kwargs) == suite_accuracy_loop(**kwargs)

    def test_accuracy_suite_builds_no_one_phase_law(self, monkeypatch):
        """The sweep runs on the row kernels alone: it neither fills the
        one-row law cache nor checks one phase at a time."""
        from distdlog import phase, verify

        def refuse(*args, **kwargs):
            raise AssertionError("the accuracy sweep went one phase at a time")

        monkeypatch.setattr(phase, "phase_outcome_distribution", refuse)
        monkeypatch.setattr(phase, "check_accuracy_bound", refuse)
        monkeypatch.setattr(phase, "prefix_marginal", refuse)
        assert all(check.ok for check in verify.suite_accuracy())

    @pytest.mark.parametrize("suite", ["accuracy", "all"])
    def test_oversized_accuracy_sweep_refused_before_any_suite(self, capsys, monkeypatch, suite):
        """r = 2^40 would build about 2.2e15 law entries: exit 2 before any
        suite runs or any law is built."""
        from distdlog import phase, verify

        def refuse(*args, **kwargs):
            raise AssertionError("ran before the accuracy sweep's size was checked")

        monkeypatch.setattr(phase, "outcome_laws", refuse)
        monkeypatch.setattr(verify, "suite_metric", refuse)
        code, out, err = run_cli(capsys, ["verify", "--suite", suite, "--r", "1099511627776"])
        assert code == 2
        assert out == ""
        assert "accuracy sweep needs 2216615441596416 law entries (cap 33554432)" in err

    def test_default_accuracy_sweeps_far_below_cap(self):
        from distdlog import verify

        cap = verify._ACCURACY_ENTRIES_CAP
        assert verify.accuracy_entries(verify.PRIMES_TO_31, verify.ACCURACY_EPSILONS) * 100 <= cap
        assert verify.accuracy_entries((5,), ("0.25",)) * 10_000 <= cap
        assert verify.accuracy_entries((1009,), verify.ACCURACY_EPSILONS) * 10 <= cap

    def test_accuracy_suite_builds_each_width_once(self, monkeypatch):
        """The default sweep's 18 (eps, n) need 7 widths and 12 (t, n): each
        width's row blocks are built once and cover every phase once, and the
        masses are taken once per (t, n) and block."""
        from collections import Counter

        from distdlog import phase, verify

        built, massed = Counter(), Counter()
        outcome_laws, accuracy_masses = phase.outcome_laws, phase.accuracy_masses

        def count_laws(nums, dens, t):
            built[t, tuple(nums.tolist()), tuple(dens.tolist())] += 1
            return outcome_laws(nums, dens, t)

        def count_masses(laws, nums, dens, n):
            t = laws.shape[1].bit_length() - 1
            massed[t, n, tuple(nums.tolist()), tuple(dens.tolist())] += 1
            return accuracy_masses(laws, nums, dens, n)

        monkeypatch.setattr(phase, "outcome_laws", count_laws)
        monkeypatch.setattr(phase, "accuracy_masses", count_masses)
        assert all(check.ok for check in verify.suite_accuracy())

        pairs = {
            (phase.accuracy_width(n, eps), n)
            for eps in verify.ACCURACY_EPSILONS
            for n in range(1, verify.ACCURACY_MAX_N + 1)
        }
        assert len(pairs) == 12
        assert set(built.values()) == {1} and set(massed.values()) == {1}
        phases = [(s, r) for r in verify.PRIMES_TO_31 for s in range(r)]
        blocks = {t: [] for t, _ in pairs}
        for t, nums, dens in built:
            blocks[t].append((nums, dens))
        assert sorted(blocks) == list(range(3, 10))
        for t, keys in blocks.items():
            assert sorted(p for nums, dens in keys for p in zip(nums, dens)) == sorted(phases)
        assert Counter((t, n) for t, n, _, _ in massed) == {
            (t, n): len(blocks[t]) for t, n in pairs
        }
        assert {(t, nums, dens) for t, _, nums, dens in massed} == set(built)

    @pytest.mark.parametrize("suite", ["suite_prefix_bound", "suite_accuracy", "suite_correct"])
    def test_suite_working_set_under_one_mib(self, suite):
        """No temporary of the prefix, default accuracy or default alignment
        oracle sweep grows back to the size that glibc hands back to the
        kernel on every pass. The oracle's peak is about 394 KiB on int16
        cases, 750 KiB on int32 and 1,463 KiB on int64, so its 512 KiB bound
        fails any wider type."""
        import tracemalloc

        from distdlog import verify

        run = getattr(verify, suite)
        run()  # import-time and first-call allocations out of the way
        tracemalloc.start()
        try:
            run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < (1 << 19 if suite == "suite_correct" else 1 << 20), peak

    def test_int16_distance_tables_equal_int64_formula(self):
        """Every table the distance suites build is int16 and equals the
        int64 formula; a prefix table holds the pairs (x, x + d mod 2^t) at
        row x and column d. A table's intermediates reach 2^t, so raising
        either width constant past 14 fails here before any table is built."""
        import numpy as np

        from distdlog import verify

        top = max(verify.PREFIX_MAX_T, verify.METRIC_EXHAUSTIVE_T)
        assert 1 << top <= np.iinfo(np.int16).max, top

        def formula(words, width):
            diff = np.abs(words[:, None] - words[None, :])
            return np.minimum(diff, (1 << width) - diff)

        for t in range(1, top + 1):
            vals = np.arange(1 << t, dtype=np.int64)
            table = verify._circ_table(t)
            assert table.dtype == np.int16
            assert (table == formula(vals, t)).all(), t
            ends = (vals[:, None] + vals[None, :]) % (1 << t)
            for t1 in range(1, t + 1):
                table = verify._prefix_table(t, t1)
                assert table.dtype == np.int16
                want = formula(vals >> (t - t1), t1)[vals[:, None], ends]
                assert (table == want).all(), (t, t1)

    def test_oversized_cases_refused_before_drawing(self, capsys, monkeypatch):
        """10^8 cases would need about 13 GB of arrays: exit 2 before any draw."""
        from distdlog import verify

        class NoDrawRng:
            def integers(self, *args, **kwargs):
                raise AssertionError("drew cases before checking their size")

        monkeypatch.setattr(verify, "case_rng", lambda *a, **k: NoDrawRng())
        code, out, err = run_cli(
            capsys, ["verify", "--suite", "correct", "--cases", "100000000"]
        )
        assert code == 2
        assert out == ""
        assert "an alignment sweep of 100000000 cases needs about 12969 MiB (cap 256 MiB)" in err

    def test_oversized_cases_refused_before_any_suite(self, capsys, monkeypatch):
        """``--suite all`` refuses the count before the suites that ignore it."""
        from distdlog import verify

        def refuse(*args, **kwargs):
            raise AssertionError("suite_metric ran before the case count was checked")

        monkeypatch.setattr(verify, "suite_metric", refuse)
        code, out, err = run_cli(
            capsys, ["verify", "--suite", "all", "--cases", "100000000"]
        )
        assert code == 2
        assert out == ""
        assert "an alignment sweep of 100000000 cases needs about 12969 MiB (cap 256 MiB)" in err

    def test_oversized_mass_refused_before_any_table(self, capsys, monkeypatch):
        """At epsilon = 10^-6 the masses' counting registers reach t = 24:
        exit 2 before any table of them is built."""
        from distdlog import dlp

        def refuse(*args, **kwargs):
            raise AssertionError("built a table before checking its bytes")

        for name in ("register_laws", "branch_laws", "success_table"):
            monkeypatch.setattr(dlp, name, refuse)
        code, out, err = run_cli(capsys, ["verify", "--suite", "dlp-mass", "--epsilon", "0.000001"])
        assert code == 2
        assert out == ""
        assert err.startswith("error: exact success mass needs about ")
        assert err.endswith(" MiB (cap 256 MiB)\n")

    def test_alignment_facts_equal_loop_reference(self):
        from alignfacts import alignment_facts_loops
        from distdlog import verify

        assert verify.suite_alignment_facts() == alignment_facts_loops()

    @pytest.mark.parametrize(
        "good, bad",
        [("(q == b1 + b2)", "(q == b1 - b2)"), ("(x % (1 << h) + b)", "(x % (1 << (h - 1)) + b)")],
        ids=["decomposition", "trailing-bits"],
    )
    def test_alignment_facts_catch_a_false_fact(self, good, bad):
        namespace = verify_mutant(("suite_alignment_facts",), good, bad)
        checks = namespace["suite_alignment_facts"]()
        assert [check.ok for check in checks].count(False) == 1

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_metric_random_row_equals_case_loop(self, seed):
        """The array row against the per-case ``BitString`` loop it replaced
        (``tests/metricloop.py``), on the cases the suite draws: the same
        verdict per case and overall, ``bits.circ_dist`` equal to the array
        distance on every pair the row compares, and ``BitString.slice(1, t0)``
        equal to the word shifted right by t - t0."""
        from metricloop import metric_random_loop, random_case_ok
        from distdlog import verify
        from distdlog.bits import BitString, circ_dist

        t, x, y, z, t0 = verify._metric_cases(seed)
        shift = t - t0
        pairs = {(0, 1): verify._circ_dist(x, y, t), (1, 0): verify._circ_dist(y, x, t),
                 (0, 2): verify._circ_dist(x, z, t), (1, 2): verify._circ_dist(y, z, t)}
        prefix = verify._circ_dist(x >> shift, y >> shift, t0)
        cases = list(zip(*(column.tolist() for column in (t, x, y, z, t0))))
        assert len(cases) == verify.METRIC_RANDOM_CASES
        for i, (tv, xv, yv, zv, t0v) in enumerate(cases):
            assert random_case_ok(tv, xv, yv, zv, t0v)
            words = [BitString(tv, v) for v in (xv, yv, zv)]
            for (a, b), dist in pairs.items():
                assert circ_dist(words[a], words[b]) == dist[i], (i, a, b)
            heads = [word.slice(1, t0v) for word in words[:2]]
            assert [head.value for head in heads] == [xv >> (tv - t0v), yv >> (tv - t0v)]
            assert circ_dist(*heads) == prefix[i], i
        assert verify.suite_metric(seed)[-1] == metric_random_loop(cases)

    def test_prefix_bound_equals_triple_loop(self):
        from metricloop import prefix_bound_loops
        from distdlog import verify

        assert verify.suite_prefix_bound() == prefix_bound_loops()

    @pytest.mark.parametrize(
        "bad, oks",
        [("np.minimum(diff, (1 << width) - diff, out=diff) - (diff != 0)", [False, False, True, False]),
         ("np.minimum(diff, (1 << width) - diff, out=diff) + (diff != 0)", [True, False, False, False])],
        ids=["one-short", "one-long"],
    )
    def test_metric_rows_catch_a_false_distance(self, bad, oks):
        """A distance one off at every unequal pair fails the random row.
        One short makes neighbours distance 0 and fails the axioms; one long
        is still a metric, so the axiom row holds and the minimal-shift and
        one-bit prefix rows fail."""
        names = ("_circ_dist", "_circ_table", "_prefix_table", "suite_metric")
        namespace = verify_mutant(names, "np.minimum(diff, (1 << width) - diff, out=diff)", bad)
        for seed in (0, 1, 7):
            assert [check.ok for check in namespace["suite_metric"](seed)] == oks, seed

    def test_axiom_row_catches_a_broken_triangle(self):
        """The squared circular distance keeps the zero and symmetry axioms
        and breaks only the triangle inequality (d(0, 2) = 4 > 1 + 1), so
        the exhaustive axiom row fails on the triangle check alone."""
        import numpy as np

        from distdlog import verify

        names = ("_circ_dist", "_circ_table", "_prefix_table", "suite_metric")
        good = "np.minimum(diff, (1 << width) - diff, out=diff)"
        namespace = verify_mutant(names, good, f"{good} ** 2")
        for t in range(1, verify.METRIC_EXHAUSTIVE_T + 1):
            D = namespace["_circ_table"](t)
            assert ((D == 0) == np.eye(1 << t, dtype=bool)).all() and (D == D.T).all()
        for seed in (0, 1, 7):
            assert [check.ok for check in namespace["suite_metric"](seed)] == [False, False, True, False]

    def test_prefix_bound_catches_a_tightened_bound(self):
        namespace = verify_mutant(
            ("suite_prefix_bound",),
            "(peaks[close] <= (1 << (t1 - t0)))",
            "(peaks[close] <= (1 << (t1 - t0)) - 1)",
        )
        assert [check.ok for check in namespace["suite_prefix_bound"]()] == [False]

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

    @pytest.mark.parametrize("suite", SUITES)
    def test_negative_seed_refused_by_every_suite(self, capsys, suite):
        """A negative seed is refused before any suite runs, also by the
        suites that draw no random case."""
        assert run_cli(capsys, ["verify", "--suite", suite, "--seed", "-1"]) == (
            2, "", "error: expected non-negative integer\n"
        )


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

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--N", "32003", "--a", "4", "--b", "17236", "--k", "2",
              "--epsilon", "0.25", "--epsilon-prime", "0.2"], "joint law needs"),
            (["--N", "23", "--a", "2", "--b", "3", "--k", "3", "--h", "2",
              "--epsilon", "0.5", "--epsilon-prime", "0.25"], "joint law needs about 401 MiB"),
        ],
        ids=["r16001", "N23-k3"],
    )
    def test_oversize_run_refused_before_step7(self, capsys, monkeypatch, argv, message):
        """An oversize joint law is a configuration error, exit 2, found
        before the step-7 check builds any eigenvector."""
        from distdlog import dist

        def refuse(*args, **kwargs):
            raise AssertionError("the step-7 check ran before the laws were sized")

        monkeypatch.setattr(dist, "compare_step7_state", refuse)
        code, out, err = run_cli(capsys, ["dist-compare", *argv])
        assert code == 2
        assert out == ""
        assert message in err

    def test_failed_bound_exits_1(self, capsys, monkeypatch):
        """A certified deviation above 1e-9 is a failed verified property:
        exit 1, with the same JSON line on stdout."""
        from distdlog import dist

        report = dist.Step7Report(1e-6, (1e-6,) * 5, 0.0)
        monkeypatch.setattr(dist, "compare_step7_state", lambda *a: report)
        code, out, _ = run_cli(
            capsys,
            ["dist-compare", "--N", "11", "--a", "3", "--b", "9", "--k", "2",
             "--h", "2", "--epsilon", "0.25", "--epsilon-prime", "0.2"],
        )
        assert code == 1
        payload = json.loads(out.strip())
        assert payload["max_amplitude_deviation"] == 1e-6
        assert payload["joint_total_variation"] <= 1e-9


class TestHarness:
    def test_wilson_interval_brackets(self):
        low, high = wilson_interval(60, 100)
        assert low < 0.6 < high
        assert wilson_interval(0, 0) == (0.0, 1.0)
        exact_low, exact_high = wilson_interval(100, 100)
        assert exact_high == 1.0 and exact_low > 0.95

    def test_config_validation(self, instance):
        config = ShorConfig.for_instance(instance, "0.25")
        with pytest.raises(ValueError, match="trials must be >= 1"):
            run_batch(lambda rng: solve(instance, config, rng), trials=0, seed=9, emit=print)

    def test_run_batch_assigns_trial_seeds(self, instance):
        config = ShorConfig.for_instance(instance, "0.25")
        records = []
        summary = run_batch(
            lambda rng: solve(instance, config, rng), trials=4, seed=9, emit=records.append
        )
        assert [r.seed for r in records] == [0, 1, 2, 3]
        assert summary["successes"] == sum(r.success for r in records)

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
