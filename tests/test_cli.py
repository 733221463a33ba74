import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import isingforms
from isingforms import cli, virasoro
from isingforms.cli import main


def run_json(capsys, argv):
    code = main(argv + ["--format", "json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestExitCodes:
    def test_passing_code_check(self):
        assert main(["codes", "check", "--code", "even:4", "--out", "/dev/null"]) == 0

    def test_failing_code_check(self):
        assert main(["codes", "check", "--code", "trivial:4", "--out", "/dev/null"]) == 1

    def test_unknown_code_is_usage_error(self, capsys):
        assert main(["codes", "check", "--code", "nosuch:4"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_weight_vector(self, capsys):
        code = main(["form", "verify", "--code", "even:4", "--H", "1/3,0,0,0"])
        assert code == 2

    def test_disallowed_weight_names_the_allowed_ones(self, capsys):
        code = main(["form", "verify", "--code", "even:4", "--H", "1/4,0,0,0"])
        assert code == 2
        assert "factor weights must be 0, 1/2 or 1/16; got 1/4" in capsys.readouterr().err

    def test_power_weight_mismatch(self, capsys):
        code = main(["form", "verify", "--code", "even:4", "--H", "0,0,0,0",
                     "--power", "3"])
        assert code == 2

    def test_inadmissible_weights_fail_form_verify(self, capsys):
        """form verify reports a weight vector the code does not admit as a
        failed check, with its reason, not as a bad request."""
        code, data = run_json(capsys, ["form", "verify", "--code", "even:4",
                                       "--H", "1/16,0,0,0"])
        assert code == 1
        assert data["admissible"] is False
        assert data["reason"] == "mixed 1/16 entries are not supported"

    @pytest.mark.parametrize("argv", [
        ["dual", "--power", "4", "--code", "even:4", "--H", "1/16,0,0,0", "--level", "1"],
        ["corr", "--H1", "1/16,0,0,0", "--H2", "1/2,1/2,0,0", "--H3", "0,0,0,0",
         "--code", "even:4", "--c", "1", "--max-level", "1"],
    ])
    def test_inadmissible_weights_are_usage_errors(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "inadmissible weight vector" in captured.err

    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["codes"])
        assert exc.value.code == 2

    def test_bad_h_for_dims(self, capsys):
        assert main(["vir", "dims", "--h", "1/3"]) == 2

    @pytest.mark.parametrize("level", ["33", "99999999999"])
    def test_vir_dims_refuses_a_level_above_its_limit(self, capsys, monkeypatch, level):
        def no_scan(*args):
            raise AssertionError("graded_dimensions ran")

        monkeypatch.setattr(virasoro, "graded_dimensions", no_scan)
        assert main(["vir", "dims", "--h", "1/16", "--max-level", level]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --max-level {level} is above vir dims' limit of 32\n"

    def test_vir_dims_runs_at_its_limit(self, capsys, monkeypatch):
        calls = []

        def stub(params, max_level):
            calls.append(max_level)
            return [1] * (max_level + 1)

        monkeypatch.setattr(virasoro, "graded_dimensions", stub)
        assert cli.VIR_DIMS_MAX_LEVEL == 32
        code, data = run_json(capsys, ["vir", "dims", "--h", "1/16", "--max-level", "32"])
        assert code == 0
        assert calls == [32]
        assert data["dims"] == [1] * 33

    @pytest.mark.parametrize("argv", [
        ["vir", "dims", "--h", "0"],
        ["form", "verify", "--code", "even:4", "--H", "0,0,0,0"],
        ["corr", "--H1", "1/2,1/2,0,0", "--H2", "1/2,1/2,0,0",
         "--H3", "0,0,0,0", "--code", "even:4", "--c", "1"],
        ["form", "generated", "--gen", "2omega"],
    ])
    def test_negative_max_level_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--max-level", "-1"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv", [
        ["dual", "--power", "4", "--code", "even:4", "--H", "0,0,0,0", "--level", "-1"],
        ["form", "generated", "--gen", "2omega", "--power", "0"],
        ["dual", "--power", "4", "--code", "even:4", "--H", "0,0,0,0", "--level", "1"],
        ["dual", "--code", "even:4", "--H", "0,0,0", "--level", "2"],
        ["form", "generated", "--gen", "2omega", "--mode-budget", "0"],
        ["form", "generated", "--gen", "2omega", "--rounds", "0"],
        ["form", "verify", "--code", "even:4", "--H", "1/2,1/2,0", "--max-level", "2"],
        ["form", "generated", "--gen", "0omega"],
        ["codes", "check", "--code", "even:30"],
        ["dual", "--code", "trivial:4", "--H", "1/2,0,0,0", "--level", "1"],
        # the generator sits at level 2 and enters through mode -2 only
        ["form", "generated", "--gen", "2omega", "--power", "4", "--max-level", "3",
         "--mode-budget", "1"],
        ["form", "generated", "--gen", "2omega", "--power", "4", "--max-level", "1"],
    ])
    def test_out_of_range_request_is_usage_error(self, capsys, argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        assert capsys.readouterr().out == ""


    @pytest.mark.parametrize("argv", [
        ["codes", "check", "--code", "even:26"],
        ["form", "verify", "--code", "even:28", "--H", ",".join(["0"] * 28), "--max-level", "2"],
    ], ids=["codes-check-even26", "form-verify-even28"])
    def test_code_too_large_to_list_is_one_error_line(self, capsys, argv):
        # BinaryCode.words refuses a code of dimension above 24
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: refusing to materialize 2^")
        assert captured.err.count("\n") == 1

    def test_non_utf8_code_file_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "code.txt"
        path.write_bytes(b"n=4\n\xff\xfe\n")
        assert main(["codes", "check", "--code", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_unwritable_out_is_usage_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "r.txt"
        assert main(["codes", "check", "--code", "even:4", "--out", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err

class TestDeterminism:
    def test_json_twice_byte_identical(self, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for p in paths:
            code = main(["dual", "--power", "4", "--code", "even:4",
                         "--H", "1/2,1/2,0,0", "--level", "1",
                         "--format", "json", "--out", str(p)])
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_json_byte_identical_across_hash_seeds(self):
        # one process runs under one hash seed, so set and str-keyed dict order
        # can only differ between children
        src = str(Path(isingforms.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        argv = [sys.executable, "-m", "isingforms", "dual", "--power", "4", "--code", "even:4",
                "--H", "1/2,1/2,0,0", "--level", "1", "--compare", "--format", "json"]
        outputs = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
            proc = subprocess.run(argv, capture_output=True, env=env)
            assert proc.returncode == 0
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])["compare"]["index"] == 4

    def test_out_writes_silently(self, capsys, tmp_path):
        target = tmp_path / "report.txt"
        main(["e8", "weight1", "--out", str(target)])
        assert capsys.readouterr().out == ""
        assert "total" in target.read_text()


class TestGoldenReports:
    """Reports whose stdout sha256 was recorded once and must not move: the
    lattice build, its Hermite bases, the saturation, the graded dual and
    the correlation recursion feed them."""

    @pytest.mark.parametrize("argv, exit_code, digest", [
        (["form", "verify", "--code", "hamming8", "--H", "1/2,1/2,0,0,0,0,0,0",
          "--max-level", "5"], 0,
         "965db0ff8cea93bf03b748f5a85dfcf199b21cc5f132be8d622c95ec8105b74f"),
        (["form", "verify", "--code", "hamming8", "--H", "1/2,1/2,0,0,0,0,0,0",
          "--max-level", "6"], 0,
         "2948c1be60afc8f2e9a213fed24c44ba6d85e40de1950cdd2f8964115efa63d7"),
        # The deepest level build in the suite: 4248 generator rows on 782 keys.
        (["form", "verify", "--code", "hamming8", "--H", "1/2,1/2,0,0,0,0,0,0",
          "--max-level", "7"], 0,
         "8e779634b9d9378bd735cb4740d2f8ca477e54a0453c5656a5c223b2a815aac8"),
        # The codes whose sign lattice bases differ most from their sign vectors.
        (["form", "verify", "--code", "even:8", "--H", "0,0,0,0,0,0,0,0",
          "--max-level", "6"], 0,
         "36cc5d56bd64a09fa5d504197fb5be0c0337d123d4125cb94539d9f376365c5c"),
        (["form", "verify", "--code", "c16", "--H", ",".join(["1/16"] * 16),
          "--max-level", "2"], 0,
         "5a963b1a57feb6bc12aed5670a30042b1451dbf2580db54c9ca887719aa5bcf8"),
        (["form", "generated", "--gen", "2omega", "--power", "8", "--max-level", "4",
          "--mode-budget", "2", "--rounds", "3"], 1,
         "89e7f5994fbae0e8b695a1640df49143c4a8aa42b8ac36681efb82f581896796"),
        # One factor: each key uses one factor level, so each table's scale
        # clears the images of that level's states only.
        (["form", "generated", "--gen", "2omega", "--power", "1", "--max-level", "6"], 0,
         "72bac7159aa8df0ca1daf2c980f5028f4c9506f2026ed9bdf804e1c035be695b"),
        (["form", "generated", "--gen", "2omega", "--power", "4", "--max-level", "8"], 0,
         "fe386a55d8e76bc7aa7b378ca9ca54397e08b09dceae4b70d0f3b603d850cf68"),
        (["form", "generated", "--gen", "2omega", "--power", "8", "--max-level", "8"], 0,
         "d5efe3e86a30c9e412a256c96a6f223dbc82754f1ee52f339378ddb222426ae7"),
        (["dual", "--power", "8", "--code", "hamming8", "--H", "0,0,0,0,0,0,0,0",
          "--level", "4", "--compare"], 0,
         "31a4dbda7a80735316330e6b20ec827f1638f51cb0172ab7fb28aa6b86b0a4da"),
        (["dual", "--power", "8", "--code", "hamming8", "--H", "0,0,0,0,0,0,0,0",
          "--level", "5", "--compare", "--format", "json"], 0,
         "5f47d12d63cfb00809bfa49d70d63257bf79652f0e04a7b37eab926094b01b8a"),
        # The tsv renderer, and the deepest dual: 2,731,728 bytes.
        (["dual", "--power", "8", "--code", "hamming8", "--H", "0,0,0,0,0,0,0,0",
          "--level", "4", "--compare", "--format", "tsv"], 0,
         "58661016609638b7e71a340447696561b18cc5ec8dda8107b96ee78721af2e8e"),
        (["dual", "--power", "8", "--code", "hamming8", "--H", "0,0,0,0,0,0,0,0",
          "--level", "6", "--compare"], 0,
         "94d81a23e2fe79c9b66ce83c590b91c2a5bbe57773821e82363614f97b5dae14"),
        # The only digest that reads the h = 1/16 pivot Grams and their inverses.
        (["dual", "--power", "16", "--code", "c16", "--H", ",".join(["1/16"] * 16),
          "--level", "2", "--compare"], 0,
         "6abd1e74157fe9064b7dce01a0a84329a290f5501b093b3aa08ef825b3063602"),
        (["corr", "--H1", "1/2,1/2,0,0", "--H2", "1/2,1/2,0,0", "--H3", "0,0,0,0",
          "--code", "even:4", "--c", "1", "--max-level", "8"], 0,
         "68416fdef1f0ef1c3cf6a8d5fb9544e1d5fa81f369e6444bd50024749acfeacb"),
        (["corr", "--H1", "0,0,0,0,0,0,0,0", "--H2", "1/2,1/2,0,0,0,0,0,0",
          "--H3", "1/2,1/2,0,0,0,0,0,0", "--code", "hamming8", "--c", "1",
          "--max-level", "4"], 0,
         "8a8b59df0c4aeb02c7376b4648188f7d60649d778553afd5f016621c645ed394"),
        (["corr", "--H1", "0,0,0,0,0,0,0,0", "--H2", "1/2,1/2,0,0,0,0,0,0",
          "--H3", "1/2,1/2,0,0,0,0,0,0", "--code", "hamming8", "--c", "1",
          "--max-level", "5"], 0,
         "13b77bd032288c3007f6f9c844bb5d06f076c222ef20954238d672c088e3c164"),
        (["corr", "--H1", "0,0,0,0,0,0,0,0", "--H2", "1/2,1/2,0,0,0,0,0,0",
          "--H3", "1/2,1/2,0,0,0,0,0,0", "--code", "hamming8", "--c", "1",
          "--max-level", "6"], 0,
         "51b26e28519dc23489587707b86952c022e4284a376a19184ca295bf522a8564"),
        # Ill-defined: the failing levels run through the full elimination.
        (["corr", "--H1", "1/2,1/2,0,0", "--H2", "1/2,1/2,0,0", "--H3", "1/2,1/2,1/2,1/2",
          "--code", "even:4", "--c", "1", "--max-level", "5"], 1,
         "5e84d68c6d29b50d1f386df8ab5e873b1c258cbf11f7353572fa55b21eff8e09"),
        # The same triple at level 3, whose digest the CI console run pins too.
        (["corr", "--H1", "1/2,1/2,0,0", "--H2", "1/2,1/2,0,0", "--H3", "1/2,1/2,1/2,1/2",
          "--code", "even:4", "--c", "1", "--max-level", "3"], 1,
         "5c7201f4efa1e5e82fd52df607554fbcf4a3ae02b9953a8c5c9f49fb7322b708"),
        # Both routes in one report: levels 0-1 keep the product formula, and
        # levels 2-5 fail its check and run the full elimination.
        (["corr", "--H1", "1/2,1/2,0,0", "--H2", "1/2,1/2,0,0", "--H3", "0,0,1/2,1/2",
          "--code", "even:4", "--c", "1", "--max-level", "5"], 1,
         "e254ec834b8da2ff3c72003ab5dc40e6180e6803c8f44420ad8854f33fa4f858"),
        # The first corr digest on a 1/16 module: 136 order checks through
        # commutator_symbolic's central term.
        (["corr", "--H1", ",".join(["1/16"] * 16), "--H2", ",".join(["1/16"] * 16),
          "--H3", ",".join(["0"] * 16), "--code", "c16", "--c", "1", "--max-level", "4"], 0,
         "96a0259fad4c9b4bee70a55fff2b996ca61b27809a157a486be33968c90c8d94"),
        # The product formula over h = 1/16 pivot monomials.
        (["corr", "--H1", ",".join(["0"] * 16), "--H2", ",".join(["1/16"] * 16),
          "--H3", ",".join(["1/16"] * 16), "--code", "c16", "--c", "1", "--max-level", "2"], 0,
         "bf36b38fcf9eb79a2a916cd3fa30d7e8fd857a0b37eaa1a4136950f9a9399c24"),
        # The same triple at level 3: 1088 nearly dense rows on 832 keys.
        (["corr", "--H1", ",".join(["0"] * 16), "--H2", ",".join(["1/16"] * 16),
          "--H3", ",".join(["1/16"] * 16), "--code", "c16", "--c", "1", "--max-level", "3"], 0,
         "22ef90644df430564c187bafd50b99544eb0ce8467080f7a82471e87f0b9c009"),
        # A nontrivial triple: a 1/2 pair fused with another into a 1/2 quad.
        (["corr", "--H1", "0,0,0,0,1/2,1/2,0,0", "--H2", "0,0,0,0,0,0,1/2,1/2",
          "--H3", "0,0,0,0,1/2,1/2,1/2,1/2", "--code", "hamming8", "--c", "1",
          "--max-level", "5"], 0,
         "7911b41556c9faba5e2ace02652dfb46cdd9c02c43afc86213dadf5b192d659c"),
        (["corr", "--H1", ",".join(["1/16"] * 16), "--H2", ",".join(["1/16"] * 16),
          "--H3", ",".join(["0"] * 16), "--code", "c16", "--c", "1", "--max-level", "6"], 0,
         "7736b7160a505e5ed34c6db5f22371fbc3b6eb837db08cd0fdd8aa25e777206d"),
        # Vacuum targets that no operator reaches: the factor check fails them
        # and the order and relation checks see nothing, so each report is the
        # one that once passed with well_defined.passed false. The last makes
        # 0 order and 0 relation checks.
        (["corr", "--H1", "0,0,0,0", "--H2", "0,0,1/2,1/2", "--H3", "0,0,0,0",
          "--code", "even:4", "--c", "1", "--max-level", "4"], 1,
         "1b34c23bbbde1a4ef771b2bfa266d54610e7791bcee5f86b9d4081daa73ce260"),
        (["corr", "--H1", "0,0,0,0,0,0,0,0", "--H2", "1/2,1/2,0,0,0,0,0,0",
          "--H3", "0,0,0,0,0,0,0,0", "--code", "hamming8", "--c", "1", "--max-level", "4"], 1,
         "755d5547f89504b8c97f9617fb5541fa81e9fe253ead37529da0b9d968f47362"),
        (["corr", "--H1", "1/2,1/2,0,0", "--H2", "0,0,0,0", "--H3", "0,0,0,0",
          "--code", "even:4", "--c", "1", "--max-level", "3"], 1,
         "58c53e21370e3dd267cf8aa9c6743b6080f612b6edaf41407d4c075358f9ea69"),
        (["e8", "weight1"], 0,
         "87d96429f65d2b0a8eb57484000158340e5f835a350ec18dfa2d83542e80f373"),
    ], ids=["form-verify-hamming8-half-pair-5", "form-verify-hamming8-half-pair-6",
            "form-verify-hamming8-half-pair-7",
            "form-verify-even8-vacuum-6", "form-verify-c16-sixteenth-2",
            "form-generated-power-8", "form-generated-power-1-level-6",
            "form-generated-power-4-level-8",
            "form-generated-power-8-level-8",
            "dual-hamming8-vacuum-4", "dual-hamming8-vacuum-5-json",
            "dual-hamming8-vacuum-4-tsv", "dual-hamming8-vacuum-6",
            "dual-c16-sixteenth-2", "corr-even4-vacuum-8", "corr-hamming8-half-pair-4",
            "corr-hamming8-half-pair-5", "corr-hamming8-half-pair-6",
            "corr-even4-all-half-5", "corr-even4-all-half-3",
            "corr-even4-second-pair-5",
            "corr-c16-sixteenth-4", "corr-c16-vacuum-to-sixteenth-2",
            "corr-c16-vacuum-to-sixteenth-3", "corr-hamming8-pair-into-quad-5",
            "corr-c16-sixteenth-pair-to-vacuum-6", "corr-even4-vacuum-target-4",
            "corr-hamming8-vacuum-target-4", "corr-even4-vacuum-target-no-checks-3",
            "e8-weight1"])
    def test_stdout_digest(self, capsys, argv, exit_code, digest):
        assert main(argv) == exit_code
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == digest


class TestReports:
    def test_vir_dims_match_library(self, capsys):
        code, data = run_json(capsys, ["vir", "dims", "--h", "1/16",
                                       "--max-level", "8"])
        assert code == 0
        oracle = virasoro.graded_dimensions(virasoro.ising_params("1/16"), 8)
        assert data["dims"] == oracle
        assert data["central"] == {"n": 1, "d": 2}

    def test_codes_check_report(self, capsys):
        code, data = run_json(capsys, ["codes", "check", "--code", "hamming8"])
        assert code == 0
        assert data["type_ii"] is True
        assert data["self_dual"] is True
        assert data["code"]["words"] == 16
        dist = {row["weight"]: row["count"] for row in data["weight_distribution"]}
        assert dist == {0: 1, 4: 14, 8: 1}

    def test_codes_build_round_trip(self, capsys, tmp_path):
        assert main(["codes", "build", "--code", "even:4", "--full"]) == 0
        text = capsys.readouterr().out
        target = tmp_path / "even4.txt"
        target.write_text(text)
        from isingforms.codes import even_code, resolve_code
        rebuilt = resolve_code(str(target))
        assert set(rebuilt.words()) == set(even_code(4).words())

    def test_dual_worked_example(self, capsys):
        code, data = run_json(capsys, ["dual", "--power", "4", "--code", "even:4",
                                       "--H", "1/2,1/2,0,0", "--level", "1",
                                       "--compare"])
        assert code == 0
        assert data["index"] == {"n": 4, "d": 1}
        assert data["conformal_weight"] == {"n": 2, "d": 1}
        assert data["dual_contains_lattice"] is True
        assert data["self_dual"] is False
        assert data["compare"]["lattice_in_dual"] is True
        assert data["compare"]["dual_in_lattice"] is False
        # the index is a Fraction, the compare index a plain int
        assert type(data["compare"]["index"]) is int and data["compare"]["index"] == 4
        gram = data["gram"]
        assert gram[0][0] == {"n": 2, "d": 1}

    def test_form_verify_vacuum(self, capsys):
        code, data = run_json(capsys, ["form", "verify", "--power", "4",
                                       "--code", "even:4", "--H", "0,0,0,0",
                                       "--max-level", "4"])
        assert code == 0
        assert data["omega_contained"] is True
        assert all(row["contained"] for row in data["scaled_components"])
        assert all(row["full_rank"] for row in data["levels"])
        by_level = {row["level"]: row["ambient"] for row in data["levels"]}
        assert by_level == {0: 1, 1: 0, 2: 4, 3: 4, 4: 14}

    def test_form_verify_module_eigenvalues(self, capsys):
        code, data = run_json(capsys, ["form", "verify", "--code", "even:4",
                                       "--H", "1/2,1/2,0,0", "--max-level", "2"])
        assert code == 0
        assert all(row["integral"] for row in data["eigenvalues"])
        values = {row["word"]: row["value"] for row in data["eigenvalues"]}
        assert values["0000"] == {"n": 1, "d": 1}
        assert values["1100"] == {"n": -1, "d": 1}

    def test_form_verify_inadmissible(self, capsys):
        code, data = run_json(capsys, ["form", "verify", "--code", "trivial:8",
                                       "--H", "0,0,0,0,0,0,0,0"])
        assert code == 1
        assert data["goodform"] is False
        assert "reason" in data

    def test_generated_doubled_form_stabilizes(self, capsys):
        code, data = run_json(capsys, ["form", "generated", "--gen", "2omega",
                                       "--max-level", "6"])
        assert code == 0
        assert data["stabilized"] is True
        assert data["omega_at_level_2"] is False

    def test_generated_plain_form_diverges(self, capsys):
        code, data = run_json(capsys, ["form", "generated", "--gen", "omega",
                                       "--max-level", "4"])
        assert code == 1
        assert data["stabilized"] is False

    def test_generated_large_power_reports(self, capsys):
        code, data = run_json(capsys, ["form", "generated", "--gen", "2omega",
                                       "--power", "13", "--max-level", "2",
                                       "--mode-budget", "2", "--rounds", "1"])
        assert code == 1
        assert data["message"] == "round budget exhausted"
        by_level = {row["level"]: row["ambient"] for row in data["levels"]}
        assert by_level == {0: 1, 2: 13}

    def test_generated_bad_spec(self, capsys):
        assert main(["form", "generated", "--gen", "2sigma"]) == 2

    def test_generated_saturation_failure_is_check_failure(self, capsys, monkeypatch):
        def failing(*args, **kwargs):
            raise ValueError("saturation failed")

        monkeypatch.setattr(cli, "saturate_generated_form", failing)
        assert main(["form", "generated", "--gen", "2omega", "--max-level", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "check failed: saturation failed" in captured.err

    def test_corr_verdicts(self, capsys):
        code, data = run_json(capsys, ["corr", "--H1", "1/2,1/2,0,0",
                                       "--H2", "1/2,1/2,0,0", "--H3", "0,0,0,0",
                                       "--code", "even:4", "--c", "1",
                                       "--max-level", "4"])
        assert code == 0
        assert data["well_defined"]["passed"] is True
        assert data["verdict"]["integral"] is True
        assert data["base_exponent"] == {"n": -2, "d": 1}

        code, data = run_json(capsys, ["corr", "--H1", "1/2,1/2,0,0",
                                       "--H2", "1/2,1/2,0,0", "--H3", "0,0,0,0",
                                       "--code", "even:4", "--c", "1/2",
                                       "--max-level", "2"])
        assert code == 1
        assert data["verdict"]["integral"] is False
        assert data["verdict"]["witness"] == "v"
        assert data["verdict"]["witness_value"] == {"n": 1, "d": 2}

    def test_e8_breakdown(self, capsys):
        code, data = run_json(capsys, ["e8", "weight1"])
        assert code == 0
        assert data["total"] == 248
        assert data["two_half_dimension"] == 120
        assert data["sixteenth_copies"] == 128


class TestFormats:
    def test_tsv_has_tab_separated_rows(self, capsys):
        main(["e8", "weight1", "--format", "tsv"])
        out = capsys.readouterr().out
        rows = dict(line.split("\t") for line in out.strip().splitlines())
        assert rows["total"] == "248"

    def test_pretty_renders_fractions_plainly(self, capsys):
        main(["vir", "dims", "--h", "1/16", "--max-level", "2"])
        out = capsys.readouterr().out
        assert "1/16" in out
        assert "Fraction" not in out


# The children of TestProcessContract: each takes the package from the source
# tree these tests import and buffers stdout, as an installed command does.
SRC = str(Path(isingforms.__file__).resolve().parents[1])
CHILD_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
CHILD_ENV.update(PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])),
                 COLUMNS="80")


def child(argv, **kwargs):
    """One python -m isingforms child: (exit code, stdout bytes, stderr text)."""
    kwargs.setdefault("stdout", subprocess.PIPE)
    proc = subprocess.run([sys.executable, "-m", "isingforms", *argv],
                          stderr=subprocess.PIPE, env=CHILD_ENV, **kwargs)
    return proc.returncode, proc.stdout, proc.stderr.decode()


class TestProcessContract:
    """python -m isingforms ends through cli.run, without interpreter
    teardown: what a child prints and its exit code are main's."""

    @pytest.mark.parametrize("argv, exit_code", [
        (["vir", "dims", "--h", "1/16", "--max-level", "6"], 0),
        (["corr", "--H1", "1/2,1/2,0,0", "--H2", "1/2,1/2,0,0", "--H3", "1/2,1/2,1/2,1/2",
          "--code", "even:4", "--c", "1", "--max-level", "3"], 1),
        (["codes", "check", "--code", "nosuch:4"], 2),
        (["dual"], 2),
        (["--help"], 0),
        # 174,397 bytes: many times the child's stdout buffer
        (["dual", "--power", "8", "--code", "hamming8", "--H", "0,0,0,0,0,0,0,0",
          "--level", "5", "--compare", "--format", "tsv"], 0),
    ], ids=["vir-dims", "corr-ill-defined", "unknown-code", "dual-no-arguments", "help",
            "dual-tsv-174kb"])
    def test_child_matches_main(self, capsys, monkeypatch, argv, exit_code):
        monkeypatch.setenv("COLUMNS", "80")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: --help and usage errors
            code = exc.code
        out, err = capsys.readouterr()
        assert code == exit_code
        assert child(argv) == (exit_code, out.encode(), err)

    def test_out_writes_the_whole_report_and_prints_nothing(self, capsys, tmp_path):
        argv = ["corr", "--H1", "1/2,1/2,0,0", "--H2", "1/2,1/2,0,0", "--H3", "0,0,0,0",
                "--code", "even:4", "--c", "1", "--max-level", "4"]
        assert main(argv) == 0
        report = capsys.readouterr().out.encode()
        target = tmp_path / "report.txt"
        assert child(argv + ["--out", str(target)]) == (0, b"", "")
        assert target.read_bytes() == report

    @pytest.mark.parametrize("argv", [
        ["vir", "dims", "--h", "1/2", "--max-level", "4"],
        ["codes", "build", "--code", "c16", "--full"],
        ["--help"],
        # too large for the buffer: the write in main fails, not the flush
        ["dual", "--power", "8", "--code", "hamming8", "--H", "0,0,0,0,0,0,0,0",
         "--level", "5", "--compare", "--format", "tsv"],
    ], ids=["vir-dims", "codes-build", "help", "dual-tsv-174kb"])
    def test_closed_stdout_pipe_is_one_error_line(self, argv):
        reader, writer = os.pipe()
        os.close(reader)
        try:
            code, _, err = child(argv, stdout=writer)
        finally:
            os.close(writer)
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "Traceback" not in err

    def test_closed_stdout_descriptor_keeps_help_exit_code(self):
        # With descriptor 1 closed sys.stdout is None; argparse then writes
        # the help to stderr, and run has no stdout to flush.
        code, _, err = child(["--help"], stdout=None, preexec_fn=lambda: os.close(1))
        assert code == 0
        assert err.startswith("usage: isingforms")

    def test_console_script_exits_through_run(self):
        text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
        assert 'isingforms = "isingforms.cli:run"' in text


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "isingforms", "e8", "weight1"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "248" in proc.stdout
