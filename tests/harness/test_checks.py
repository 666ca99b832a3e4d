"""Tests for the results-validation module."""
import copy
import json

import pytest

from repro.harness.checks import (
    CheckReport,
    diff_results,
    main,
    validate_results,
)


@pytest.fixture()
def good_payload():
    return {
        "scale": 1.0,
        "seed": 0,
        "experiments": [
            {
                "experiment": "fig8b",
                "title": "",
                "headers": [],
                "rows": [
                    ["A", "memcpy", "1.50x", "1.60x", ""],
                    ["O", "mamr", "11.00x", "11.00x", "*"],
                    ["R", "seidel-2d", "1.05x", "1.05x", "*"],
                    ["", "geomean (vectorized vs SVE)", "1.55x", "6.0x", ""],
                ],
                "notes": [],
            },
            {
                "experiment": "fig9",
                "title": "",
                "headers": [],
                "rows": [
                    ["gemm", "uve", "1.00x", "1.00x", "1.01x"],
                    ["gemm", "sve", "1.00x", "1.14x", "1.33x"],
                ],
                "notes": [],
            },
        ],
    }


def write(tmp_path, payload):
    path = tmp_path / "r.json"
    path.write_text(json.dumps(payload))
    return str(path)


class TestValidateResults:
    def test_good_campaign_passes(self, tmp_path, good_payload):
        report = validate_results(write(tmp_path, good_payload))
        assert report.ok
        assert report.passed

    def test_uve_losing_fails(self, tmp_path, good_payload):
        good_payload["experiments"][0]["rows"][0][2] = "0.80x"
        report = validate_results(write(tmp_path, good_payload))
        assert not report.ok
        assert any("memcpy" in f for f in report.failed)

    def test_uve_pr_sensitivity_fails(self, tmp_path, good_payload):
        good_payload["experiments"][1]["rows"][0] = [
            "gemm", "uve", "1.00x", "1.20x", "1.40x",
        ]
        report = validate_results(write(tmp_path, good_payload))
        assert not report.ok

    @pytest.mark.parametrize("name,good,bad", [
        # the 512-bit column is what ext-vl normalises to
        ("ext-vl", ["saxpy", "uve", "0.28x", "0.55x", "1.00x", "1.20x"],
         ["saxpy", "sve", "0.30x", "0.56x", "0.98x", "1.10x"]),
        # pooled FIFOs must not starve a stream
        ("ext-shared-fifo", ["gemm", 12059, 11990, "1.006x"],
         ["mamr", 9000, 34000, "0.265x"]),
        # UVE keeps its advantage when SVE loses its prefetchers
        ("ablation-prefetch", ["memcpy", "1.52x", "2.46x"],
         ["saxpy", "1.55x", "1.04x"]),
        # MAC forwarding never slows a run
        ("ablation-mac-forwarding", ["gemm", "sve", 13998, 9882, "1.417x"],
         ["haccmk", "uve", 14795, 15000, "0.986x"]),
    ])
    def test_extension_and_ablation_claims(
        self, tmp_path, good_payload, name, good, bad
    ):
        good_payload["experiments"].append({
            "experiment": name, "title": "", "headers": [],
            "rows": [good], "notes": [],
        })
        assert validate_results(write(tmp_path, good_payload)).ok
        good_payload["experiments"][-1]["rows"].append(bad)
        report = validate_results(write(tmp_path, good_payload))
        assert len(report.failed) == 1
        assert report.failed[0].startswith(f"{name}: ")
        assert str(bad[0]) in report.failed[0]
        # A truncated row is a named failure, not a crash.
        good_payload["experiments"][-1]["rows"] = [bad[:2]]
        report = validate_results(write(tmp_path, good_payload))
        assert len(report.failed) == 1
        assert report.failed[0].startswith(f"{name} {bad[0]}")

    def test_missing_experiments_are_skipped(self, tmp_path):
        report = validate_results(
            write(tmp_path, {"scale": 1, "seed": 0, "experiments": []})
        )
        assert report.ok  # nothing to check, nothing failed

    def test_render(self):
        report = CheckReport()
        report.check(True, "fine")
        report.check(False, "broken")
        text = report.render()
        assert "1 checks passed, 1 failed" in text
        assert "FAIL: broken" in text


class TestCanonicalResults:
    def test_repository_results_json_validates(self):
        """The committed canonical campaign satisfies every shape check."""
        import pathlib
        path = pathlib.Path(__file__).resolve().parents[2] / "results.json"
        if not path.exists():
            pytest.skip("canonical results.json not present")
        report = validate_results(str(path))
        assert report.ok, report.render()
        assert len(report.passed) > 50


class TestDiffResults:
    def test_equal_campaigns_have_no_diff(self, good_payload):
        assert diff_results(good_payload, copy.deepcopy(good_payload)) == []

    def test_command_prints_each_difference_and_fails(
        self, good_payload, tmp_path, capsys
    ):
        expected, got = tmp_path / "expected.json", tmp_path / "got.json"
        expected.write_text(json.dumps(good_payload))
        got.write_text(json.dumps(good_payload))
        assert main([str(expected), str(got)]) == 0
        assert capsys.readouterr().out == f"{got} equals {expected}\n"
        changed = copy.deepcopy(good_payload)
        changed["seed"] = 1
        changed["experiments"][0]["rows"][0][2] = "1.51x"
        got.write_text(json.dumps(changed))
        assert main([str(expected), str(got)]) == 1
        assert capsys.readouterr().out.splitlines() == diff_results(
            good_payload, changed
        )

    def test_names_experiment_row_column_and_both_values(self):
        expected = {"scale": 1.0, "seed": 0, "experiments": [{
            "experiment": "fig8a", "title": "t",
            "headers": ["id", "benchmark", "uve", "sve"],
            "rows": [["A", "memcpy", 10, 20], ["B", "stream", 30, 38415]],
            "notes": ["n"],
        }]}
        got = copy.deepcopy(expected)
        got["experiments"][0]["rows"][1][3] = 38426
        got["experiments"][0]["notes"][0] = "m"
        assert diff_results(expected, got) == [
            "fig8a row 1 (B stream) column 'sve': expected 38415, "
            "got 38426",
            "fig8a note 0: expected 'n', got 'm'",
        ]

    def test_missing_rows_cells_and_experiments(self, good_payload):
        got = copy.deepcopy(good_payload)
        got["scale"] = 0.5
        del got["experiments"][0]["rows"][-1]
        got["experiments"][0]["rows"][0].pop()
        del got["experiments"][1]
        diffs = diff_results(good_payload, got)
        assert diffs[0] == "scale: expected 1.0, got 0.5"
        assert "fig8b row 0 (A memcpy) column 4: expected '', " \
            "got None" in diffs
        assert "fig8b row 3 ( geomean (vectorized vs SVE)) column 2: " \
            "expected '1.55x', got None" in diffs
        assert diffs[-1] == "fig9: only in expected"
