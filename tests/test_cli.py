"""The `repro` CLI: run / sweep / report / kinds round-trips."""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments import DnaAssaySpec

REPO = Path(__file__).resolve().parent.parent
DNA_SPEC_JSON = REPO / "examples" / "specs" / "dna_assay.json"
CAMPAIGN_JSON = REPO / "examples" / "specs" / "fig4_concentration_campaign.json"

SMALL_SPEC = DnaAssaySpec(probe_count=4, replicates=4, target_subset=(0, 1))


@pytest.fixture()
def small_spec_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(SMALL_SPEC.to_json())
    return path


def test_committed_example_specs_are_loadable():
    """The CI smoke assets must stay valid."""
    from repro.campaigns import CampaignSpec
    from repro.experiments import spec_from_dict
    from repro.inference import analysis_from_dict

    spec = spec_from_dict(json.loads(DNA_SPEC_JSON.read_text()))
    assert spec.kind == "dna_assay"
    campaign = CampaignSpec.from_dict(json.loads(CAMPAIGN_JSON.read_text()))
    assert campaign.n_points == 12
    analysis = analysis_from_dict(
        json.loads((REPO / "examples" / "specs" / "dose_response_analysis.json").read_text())
    )
    assert analysis.kind == "dose_response"


def test_kinds_lists_registry(capsys):
    assert main(["kinds"]) == 0
    out = capsys.readouterr().out.split()
    assert "dna_assay" in out and "screening" in out


def test_run_prints_metrics(small_spec_file, capsys):
    assert main(["run", "--spec", str(small_spec_file), "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "discrimination_ratio" in out and "128 sites" in out


def test_run_json_matches_library(small_spec_file, capsys):
    from repro.experiments import Runner

    assert main(["run", "--spec", str(small_spec_file), "--seed", "1", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    expected = json.loads(Runner(seed=1).run(SMALL_SPEC).to_json())
    assert payload == expected


def test_run_missing_file_exits_cleanly(tmp_path):
    with pytest.raises(SystemExit, match="no such file"):
        main(["run", "--spec", str(tmp_path / "ghost.json")])


def test_run_bad_spec_exits_cleanly(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "dna_assay", "bogus_field": 1}))
    with pytest.raises(SystemExit, match="unknown fields"):
        main(["run", "--spec", str(bad)])
    with pytest.raises(SystemExit, match="cannot read"):
        main(["run", "--spec", str(tmp_path)])  # a directory, not a file


def test_sweep_refuses_to_overwrite_finished_campaign_without_force(
    small_spec_file, tmp_path, capsys
):
    out = tmp_path / "precious"
    argv = ["sweep", "--spec", str(small_spec_file), "--grid", "concentration=1e-6",
            "--store", "jsonl", "--out", str(out)]
    assert main(argv) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit, match="--force"):
        main(argv)
    assert (out / "manifest.json").exists()  # untouched
    assert main(argv + ["--force"]) == 0


def test_force_with_invalid_setup_leaves_old_campaign_intact(
    small_spec_file, tmp_path, capsys
):
    out = tmp_path / "precious"
    good = ["sweep", "--spec", str(small_spec_file), "--grid", "concentration=1e-6",
            "--store", "jsonl", "--out", str(out)]
    assert main(good) == 0
    capsys.readouterr()
    before = (out / "results.jsonl").read_text()
    bad_axis = ["sweep", "--spec", str(small_spec_file), "--grid", "probe_count=0,4",
                "--store", "jsonl", "--out", str(out), "--force"]
    with pytest.raises(SystemExit, match="probe_count"):
        main(bad_axis)
    # A workload-unsupported backend is setup too (screening is object-only).
    screen = tmp_path / "screen.json"
    screen.write_text(json.dumps({"kind": "screening", "library_size": 500}))
    bad_backend = ["sweep", "--spec", str(screen), "--backend", "vectorized",
                   "--store", "jsonl", "--out", str(out), "--force"]
    with pytest.raises(SystemExit, match="does not support backend"):
        main(bad_backend)
    # Validation fired before --force could truncate anything.
    assert (out / "results.jsonl").read_text() == before
    assert (out / "manifest.json").exists()


def test_run_rejects_unsupported_backend_cleanly(tmp_path):
    screen = tmp_path / "screen.json"
    screen.write_text(json.dumps({"kind": "screening", "library_size": 500}))
    with pytest.raises(SystemExit, match="does not support backend"):
        main(["run", "--spec", str(screen), "--backend", "vectorized"])


def test_split_values_respects_quotes_and_brackets():
    from repro.cli import _split_values

    assert _split_values("[1,2],[1,2,3]") == ["[1,2]", "[1,2,3]"]
    assert _split_values('"a,b","c"') == ['"a,b"', '"c"']
    assert _split_values('["x,y",2],3') == ['["x,y",2]', "3"]
    assert _split_values('"esc\\",a",b') == ['"esc\\",a"', "b"]
    assert _split_values("1e-7,1e-6") == ["1e-7", "1e-6"]


def test_sweep_from_flags_with_jsonl_store_then_report(small_spec_file, tmp_path, capsys):
    out_dir = tmp_path / "results"
    code = main(
        [
            "sweep",
            "--spec", str(small_spec_file),
            "--grid", "concentration=1e-7,1e-6",
            "--replicates", "2",
            "--seed", "5",
            "--executor", "process",
            "--workers", "2",
            "--store", "jsonl",
            "--out", str(out_dir),
            "--metrics", "discrimination_ratio",
        ]
    )
    assert code == 0
    sweep_out = capsys.readouterr().out
    assert "4" in sweep_out and "discrimination_ratio" in sweep_out
    assert (out_dir / "manifest.json").exists()

    assert main(
        ["report", "--store", str(out_dir), "--metrics", "discrimination_ratio"]
    ) == 0
    report_out = capsys.readouterr().out
    assert "concentration" in report_out and "discrimination_ratio" in report_out
    # The sweep table reappears verbatim in the report output.
    table_lines = [l for l in sweep_out.splitlines() if l.startswith(("point", "-", "0", "1", "2", "3"))]
    assert all(line in report_out for line in table_lines)


def test_sweep_from_campaign_file_json_manifest(tmp_path, capsys):
    campaign = {
        "name": "cli-mini",
        "base": SMALL_SPEC.to_dict(),
        "grid": {"concentration": [1e-6]},
        "replicates": 2,
    }
    path = tmp_path / "campaign.json"
    path.write_text(json.dumps(campaign))
    assert main(["sweep", "--campaign", str(path), "--seed", "2", "--json"]) == 0
    manifest = json.loads(capsys.readouterr().out)
    assert manifest["name"] == "cli-mini"
    assert manifest["n_points"] == 2
    assert [p["wall_s"] > 0 for p in manifest["points"]] == [True, True]


def test_sweep_flag_errors(small_spec_file):
    with pytest.raises(SystemExit, match="--campaign or --spec"):
        main(["sweep"])
    with pytest.raises(SystemExit, match="field=v1,v2"):
        main(["sweep", "--spec", str(small_spec_file), "--grid", "concentration"])
    with pytest.raises(SystemExit, match="duplicate"):
        main(
            ["sweep", "--spec", str(small_spec_file),
             "--grid", "concentration=1e-7", "--grid", "concentration=1e-6"]
        )
    with pytest.raises(SystemExit, match="output directory"):
        main(["sweep", "--spec", str(small_spec_file), "--store", "jsonl"])
    # Validation errors surface as clean messages, not tracebacks.
    with pytest.raises(SystemExit, match="not on DnaAssaySpec"):
        main(["sweep", "--spec", str(small_spec_file), "--grid", "bogus=1,2"])
    # ... including per-point spec validation of axis values.
    with pytest.raises(SystemExit, match="non-negative"):
        main(["sweep", "--spec", str(small_spec_file), "--grid", "concentration=-1e-7"])
    with pytest.raises(SystemExit, match="writes nothing to disk"):
        main(
            ["sweep", "--spec", str(small_spec_file), "--store", "memory",
             "--out", "somewhere"]
        )
    with pytest.raises(SystemExit, match="already defines the sweep"):
        main(
            ["sweep", "--campaign", str(CAMPAIGN_JSON), "--replicates", "16",
             "--grid", "concentration=1e-6"]
        )


def test_grid_axis_accepts_json_list_values(tmp_path, capsys):
    """Tuple-valued spec fields sweep from the CLI: top-level commas
    split values, commas inside [] do not."""
    from repro.cli import _parse_axis

    axes = _parse_axis("--grid", ["mismatch_counts=[1,2],[1,2,3]"])
    assert axes == {"mismatch_counts": ([1, 2], [1, 2, 3])}

    spec_path = tmp_path / "mm.json"
    spec_path.write_text(
        json.dumps({"kind": "dna_assay", "panel": "mismatch", "replicates": 4})
    )
    out_dir = tmp_path / "mm-results"
    code = main(
        ["sweep", "--spec", str(spec_path), "--grid", "mismatch_counts=[1,2],[1,2,3]",
         "--seed", "1", "--metrics", "n_sites", "--store", "jsonl", "--out", str(out_dir)]
    )
    assert code == 0
    sweep_out = capsys.readouterr().out
    assert "mismatch_counts" in sweep_out and "[1, 2, 3]" in sweep_out
    # Live and reloaded reports agree even for tuple-valued axes.
    assert main(["report", "--store", str(out_dir), "--metrics", "n_sites"]) == 0
    report_out = capsys.readouterr().out
    assert "[1, 2, 3]" in report_out


def test_report_missing_store_exits_cleanly(tmp_path):
    with pytest.raises(SystemExit, match="results.jsonl"):
        main(["report", "--store", str(tmp_path / "nowhere")])


# ---------------------------------------------------------------------------
# repro analyze
# ---------------------------------------------------------------------------
@pytest.fixture()
def analyzed_campaign(small_spec_file, tmp_path):
    out = tmp_path / "campaign"
    argv = ["sweep", "--spec", str(small_spec_file),
            "--grid", "concentration=1e-7,1e-6,1e-5", "--replicates", "2",
            "--seed", "1", "--store", "jsonl", "--out", str(out)]
    assert main(argv) == 0
    return out


def test_analyze_lists_kinds(capsys):
    assert main(["analyze", "--list"]) == 0
    out = capsys.readouterr().out.split()
    assert out == ["detection", "dose_response", "fault_tolerance", "wafer_yield", "yield"]


def test_analyze_infers_dose_response(analyzed_campaign, capsys):
    capsys.readouterr()
    assert main(["analyze", str(analyzed_campaign)]) == 0
    out = capsys.readouterr().out
    assert "analysis: dose_response" in out
    assert "lod" in out and "dynamic_range_decades" in out


def test_analyze_json_is_bit_reproducible(analyzed_campaign, capsys):
    capsys.readouterr()
    assert main(["analyze", str(analyzed_campaign), "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["analyze", str(analyzed_campaign), "--json"]) == 0
    second = capsys.readouterr().out
    assert first == second  # byte-identical across invocations
    payload = json.loads(first)
    assert payload["scalars"]["lod"] > 0
    assert payload["scalars"]["lod_ci_low"] <= payload["scalars"]["lod_ci_high"]


def test_analyze_markdown_and_out_file(analyzed_campaign, tmp_path, capsys):
    capsys.readouterr()
    target = tmp_path / "report.md"
    assert main(["analyze", str(analyzed_campaign), "--markdown",
                 "--out", str(target)]) == 0
    assert "written to" in capsys.readouterr().out
    assert "## Analysis: dose_response" in target.read_text()


def test_analyze_set_overrides_fields(analyzed_campaign, capsys):
    capsys.readouterr()
    assert main(["analyze", str(analyzed_campaign), "--analysis", "yield",
                 "--set", "metric=n_sites", "--set", "threshold=100", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["scalars"]["criterion"] == "n_sites >= 100"
    assert payload["scalars"]["yield"] == 1.0


def test_analyze_spec_file(analyzed_campaign, tmp_path, capsys):
    capsys.readouterr()
    spec = tmp_path / "analysis.json"
    spec.write_text(json.dumps({"kind": "detection", "target_fpr": 0.05}))
    assert main(["analyze", str(analyzed_campaign), "--spec", str(spec), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "detection"
    assert payload["analysis"]["target_fpr"] == 0.05


def test_analyze_error_paths(analyzed_campaign, tmp_path):
    with pytest.raises(SystemExit, match="needs a campaign directory"):
        main(["analyze"])
    with pytest.raises(SystemExit, match="no results.jsonl"):
        main(["analyze", str(tmp_path / "ghost")])
    with pytest.raises(SystemExit, match="unknown analysis kind"):
        main(["analyze", str(analyzed_campaign), "--analysis", "anova"])
    with pytest.raises(SystemExit, match="--set expects"):
        main(["analyze", str(analyzed_campaign), "--set", "oops"])
    with pytest.raises(SystemExit, match="not both"):
        main(["analyze", str(analyzed_campaign), "--analysis", "yield",
              "--spec", str(analyzed_campaign / "manifest.json")])
    with pytest.raises(SystemExit, match="unknown fields"):
        main(["analyze", str(analyzed_campaign), "--set", "bogus=1"])


# ---------------------------------------------------------------------------
# repro trace
# ---------------------------------------------------------------------------
def test_trace_event_table(small_spec_file, capsys):
    assert main(["trace", "--spec", str(small_spec_file), "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "serial.din" in out and "WRITE_REG" in out and "seq.sample" in out


def test_trace_waveform(small_spec_file, capsys):
    assert main(["trace", "--spec", str(small_spec_file), "--seed", "3",
                 "--render", "waveform", "--width", "60"]) == 0
    out = capsys.readouterr().out
    assert "seq.state" in out and "|" in out


def test_trace_check_passes_clean(small_spec_file, capsys):
    assert main(["trace", "--spec", str(small_spec_file), "--seed", "3",
                 "--check"]) == 0
    assert "all invariants hold" in capsys.readouterr().out


def test_trace_corruption_fails_check_and_localizes(small_spec_file, capsys):
    code = main(["trace", "--spec", str(small_spec_file), "--seed", "3",
                 "--flip", "42,43", "--render", "bits", "--check"])
    assert code == 1
    out = capsys.readouterr().out
    assert "CORRUPT" in out and "^^" in out
    assert "readout FAILED" in out and "frames-intact" in out


def test_trace_out_jsonl_is_deterministic(small_spec_file, tmp_path, capsys):
    from repro.trace import TraceTable

    first = tmp_path / "a.jsonl"
    second = tmp_path / "b.jsonl"
    for path in (first, second):
        assert main(["trace", "--spec", str(small_spec_file), "--seed", "3",
                     "--out", str(path)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()
    assert len(TraceTable.from_jsonl(first.read_text())) > 0


def test_trace_filters_and_renders_jsonl(small_spec_file, capsys):
    assert main(["trace", "--spec", str(small_spec_file), "--seed", "3",
                 "--kinds", "serial.frame", "--channels", "serial.",
                 "--render", "jsonl"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert json.loads(lines[0])["schema"] == 1


def test_trace_error_paths(tmp_path):
    with pytest.raises(SystemExit, match="no such file"):
        main(["trace", "--spec", str(tmp_path / "ghost.json")])
    with pytest.raises(SystemExit, match="--flip expects"):
        main(["trace", "--flip", "abc"])
