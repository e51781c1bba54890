import json
import os
import re

import numpy as np
import pytest

from crpnn import cli
from crpnn.bench import BenchProtocol
from crpnn.cli import main, parse_cli
from crpnn.datagen import (
    CapacityError,
    DatasetFormatError,
    gen_random_polynomial,
    read_dataset_csv,
    sample_sine_trajectory,
)
from crpnn.linalg import ShapeError
from crpnn.network import (
    CrpnnModel,
    ModelFormatError,
    NetworkSpec,
    init_weights,
    load_model,
    save_model,
)
from crpnn.spectrum import (
    SpectrumFormatError,
    SpectrumSizeError,
    export_spectrum,
    import_spectrum,
)
from crpnn.topology import TopologyError
from crpnn.training import TrainConfig, TrainingDivergedError, TrainRecord, train


def test_parse_gen():
    args = parse_cli(
        ["gen", "--n", "5", "--degree", "14", "--items", "2772", "--seed", "1", "--out", "t.csv"]
    )
    assert args.command == "gen"
    assert (args.n, args.degree, args.items, args.seed) == (5, 14, 2772, 1)


def test_parse_train():
    args = parse_cli(
        [
            "train", "--variant", "crpnn2", "--order", "14", "--data", "d.csv",
            "--epochs", "1000", "--lr", "0.01", "--seed", "7",
            "--model-out", "m.json", "--metrics-out", "metrics.csv",
        ]
    )
    assert args.command == "train"
    assert args.variant == "crpnn2" and args.order == 14 and args.lr == 0.01


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        parse_cli(["gen", "--n", "2", "--degree", "3", "--items", "4", "--out", "t", "--bogus"])
    assert err.value.code == 2


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as err:
        parse_cli(["frobnicate"])
    assert err.value.code == 2


def test_gen_train_eval_pipeline(tmp_path, capsys):
    target = tmp_path / "target.csv"
    data = tmp_path / "data.csv"
    model = tmp_path / "model.json"
    metrics = tmp_path / "metrics.csv"
    preds = tmp_path / "preds.csv"

    rc = main(
        ["gen", "--n", "2", "--degree", "3", "--items", "6", "--seed", "3",
         "--out", str(target), "--data-out", str(data), "--samples", "80"]
    )
    assert rc == 0
    assert target.exists() and data.exists()

    rc = main(
        ["train", "--variant", "crpnn1", "--order", "3", "--data", str(data),
         "--epochs", "60", "--lr", "0.05", "--seed", "5",
         "--model-out", str(model), "--metrics-out", str(metrics)]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "final_mse=" in out
    assert len(metrics.read_text().strip().split("\n")) == 61

    rc = main(["eval", "--model", str(model), "--data", str(data), "--out", str(preds)])
    assert rc == 0
    out = capsys.readouterr().out
    mse = float(out.split("final_mse=")[1].strip())
    assert np.isfinite(mse)
    lines = preds.read_text().strip().split("\n")
    assert lines[0] == "t_index,actual,predicted"
    assert len(lines) == 81


def test_train_metrics_out_holds_the_records_mse_per_epoch(tmp_path):
    data, metrics = tmp_path / "d.csv", tmp_path / "metrics.csv"
    main(["gen", "--n", "2", "--degree", "3", "--items", "5", "--seed", "4",
          "--out", str(tmp_path / "t.csv"), "--data-out", str(data), "--samples", "50"])
    assert main(["train", "--variant", "crpnn1", "--order", "3", "--data", str(data),
                 "--epochs", "12", "--lr", "0.05", "--lr-decay", "0.9", "--batch-size", "16",
                 "--seed", "6", "--model-out", str(tmp_path / "m.json"),
                 "--metrics-out", str(metrics)]) == 0
    model = init_weights(NetworkSpec.crpnn1(2, 1, 3), seed=6)
    config = TrainConfig(learning_rate=0.05, epochs=12, batch_size=16, seed=6, lr_decay=0.9)
    _, record = train(model, read_dataset_csv(data.read_bytes()), config)
    rows = "".join(f"{e},{mse!r}\n" for e, mse in enumerate(record.mse_per_epoch))
    assert metrics.read_bytes() == ("epoch,mse\n" + rows).encode()


def test_diverging_train_exits_1_and_leaves_its_outputs_alone(tmp_path, capsys):
    data, model, metrics = tmp_path / "d.csv", tmp_path / "m.json", tmp_path / "metrics.csv"
    main(["gen", "--n", "2", "--degree", "3", "--items", "5", "--seed", "4",
          "--out", str(tmp_path / "t.csv"), "--data-out", str(data), "--samples", "50"])
    model.write_bytes(b"old model\n")
    metrics.write_bytes(b"old metrics\n")
    capsys.readouterr()
    assert main(["train", "--variant", "crpnn1", "--order", "3", "--data", str(data),
                 "--epochs", "500", "--lr", "50", "--model-out", str(model),
                 "--metrics-out", str(metrics)]) == 1
    assert "error: training diverged at epoch" in capsys.readouterr().err
    assert model.read_bytes() == b"old model\n"
    assert metrics.read_bytes() == b"old metrics\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv", "m.json", "metrics.csv", "t.csv"]


@pytest.mark.parametrize(
    "n, samples, message",
    [("2", "0", "need at least 1 sample, got 0"), ("2", "-2", "need at least 1 sample, got -2"),
     ("5", "1", "need at least 2 samples, got 1")],
)
def test_gen_writes_nothing_when_its_dataset_cannot_be_built(tmp_path, capsys, n, samples, message):
    rc = main(["gen", "--n", n, "--degree", "3", "--items", "4", "--seed", "1",
               "--out", str(tmp_path / "t.csv"), "--data-out", str(tmp_path / "d.csv"),
               "--samples", samples])
    assert rc == 1
    assert f"crpnn gen: error: {message}\n" == capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_train_topology_error_exits_1(tmp_path, capsys):
    data = tmp_path / "data.csv"
    main(["gen", "--n", "2", "--degree", "3", "--items", "4", "--seed", "1",
          "--out", str(tmp_path / "t.csv"), "--data-out", str(data), "--samples", "30"])
    rc = main(
        ["train", "--variant", "crpnn2", "--order", "3", "--data", str(data),
         "--model-out", str(tmp_path / "m.json")]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert "n+2" in err


def _argv_writing_out(tmp_path, command):
    """Generate d.csv and t.csv in tmp_path; return argv for a small `command`
    whose outputs would land beside them."""
    data = tmp_path / "d.csv"
    main(["gen", "--n", "2", "--degree", "3", "--items", "4", "--seed", "1",
          "--out", str(tmp_path / "t.csv"), "--data-out", str(data), "--samples", "20"])
    out = str(tmp_path / "out")
    return {
        "train": ["train", "--variant", "crpnn1", "--order", "3", "--data", str(data),
                  "--epochs", "3", "--model-out", out,
                  "--metrics-out", str(tmp_path / "metrics.csv")],
        "compare": ["compare", "--variant", "crpnn1", "--orders", "3", "--seeds", "1",
                    "--data", str(data), "--epochs", "3", "--out", out],
        "bench": ["bench", "--n", "2", "--order", "4", "--samples", "20", "--forward-reps", "1",
                  "--epochs", "1", "--runs", "1", "--out", out],
    }[command]


@pytest.mark.parametrize(
    "command, flag, name",
    [
        ("train", "--lr", "learning_rate"),
        ("train", "--lr-decay", "lr_decay"),
        ("compare", "--lr", "learning_rate"),
        ("bench", "--lr", "learning_rate"),
    ],
)
@pytest.mark.parametrize("rate", ["nan", "inf"])
def test_non_finite_rate_exits_1_before_any_output(tmp_path, capsys, command, flag, name, rate):
    argv = _argv_writing_out(tmp_path, command)
    capsys.readouterr()
    assert main(argv + [flag, rate]) == 1
    assert f"error: {name} must be a positive finite number, got {rate}" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv", "t.csv"]


@pytest.mark.parametrize("command", ["train", "compare"])
@pytest.mark.parametrize("scale", ["nan", "inf", "1e308"])
def test_an_init_scale_without_a_finite_width_exits_1_and_writes_nothing(tmp_path, capsys, command, scale):
    argv = _argv_writing_out(tmp_path, command)
    capsys.readouterr()
    assert main(argv + ["--init-scale", scale]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"crpnn {command}: error: scale must be positive with 2 * scale finite")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv", "t.csv"]


@pytest.mark.parametrize(
    "bounds",
    [["--coeff-low=nan"], ["--coeff-low=-inf"], ["--coeff-high=inf"], ["--coeff-high=nan"],
     ["--coeff-low=-1e308", "--coeff-high=1e308"]],
)
def test_gen_with_a_coefficient_range_without_a_finite_width_exits_1_and_writes_nothing(tmp_path, capsys, bounds):
    assert main(["gen", "--n", "2", "--degree", "2", "--items", "3", "--out", str(tmp_path / "t.csv"),
                 "--data-out", str(tmp_path / "d.csv"), *bounds]) == 1
    err = capsys.readouterr().err
    assert err.startswith("crpnn gen: error: coefficient bounds must be finite with a finite width")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("seeds", ["0", "-2"])
def test_compare_refuses_fewer_than_one_seed_before_reading_or_writing(tmp_path, monkeypatch, capsys, seeds):
    # the dataset does not exist, so only a check made before reading it can win
    monkeypatch.chdir(tmp_path)
    assert main(["compare", "--orders", "2", "--data", "d.csv", "--seeds", seeds, "--out", "c.csv"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"crpnn compare: error: --seeds must be at least 1, got {seeds}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("token", ["7-x", "9-7"])
def test_compare_refuses_a_bad_order_token_before_reading_or_writing(tmp_path, monkeypatch, capsys, token):
    monkeypatch.chdir(tmp_path)
    assert main(["compare", "--orders", token, "--data", "d.csv", "--out", "c.csv"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"crpnn compare: error: bad order token {token!r}\n"
    assert list(tmp_path.iterdir()) == []


_GEN = ["gen", "--n", "2", "--degree", "2", "--items", "3"]
_TRAIN = ["train", "--variant", "crpnn1", "--order", "2", "--data", "d.csv", "--epochs", "2"]


@pytest.mark.parametrize(
    "argv, later, earlier",
    [
        (_GEN + ["--out", "f.csv", "--data-out", "f.csv"], "--data-out", "--out"),
        (_GEN + ["--out", "./f.csv", "--data-out", "f.csv"], "--data-out", "--out"),
        (_TRAIN + ["--model-out", "n.json", "--metrics-out", "n.json"], "--metrics-out", "--model-out"),
        (_TRAIN + ["--model-out", "d.csv"], "--model-out", "--data"),
        (_TRAIN + ["--model-out", "link.csv"], "--model-out", "--data"),
        (["eval", "--model", "m.json", "--data", "d.csv", "--out", "m.json"], "--out", "--model"),
        (["spectrum", "--model", "m.json", "--out", "m.json"], "--out", "--model"),
        (["compare", "--orders", "2", "--data", "d.csv", "--out", "d.csv"], "--out", "--data"),
    ],
    ids=["gen-outputs", "gen-outputs-spelled-apart", "train-outputs", "train-output-data",
         "train-output-linked-data", "eval-output-model", "spectrum-output-model", "compare-output-data"],
)
def test_an_output_naming_another_path_of_its_command_exits_1_before_any_work(
        tmp_path, monkeypatch, capsys, argv, later, earlier):
    monkeypatch.chdir(tmp_path)
    main(_GEN + ["--out", "t.csv", "--data-out", "d.csv", "--samples", "20"])
    main(_TRAIN + ["--model-out", "m.json"])
    os.symlink("d.csv", "link.csv")
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    capsys.readouterr()
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"crpnn {argv[0]}: error: {later} and {earlier} name the same file")
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


@pytest.mark.parametrize(
    "argv",
    [
        ["train", "--variant", "crpnn1", "--order", "1000000000000", "--data", "d.csv",
         "--model-out", "m.json"],
        ["train", "--variant", "crpnn2", "--order", "99999999999999999999", "--data", "d.csv",
         "--model-out", "m.json"],
        ["bench", "--n", "2", "--order", "1000000000000", "--out", "b.json"],
        ["compare", "--orders", "99999999999999999999", "--data", "d.csv", "--out", "c.csv"],
        ["compare", "--variant", "crpnn1", "--orders", "3-1001", "--seeds", "1", "--epochs", "1",
         "--data", "d.csv", "--out", "c.csv"],
    ],
    ids=["train-crpnn1", "train-crpnn2", "bench", "compare-order", "compare-range"],
)
def test_an_order_above_max_order_exits_1_and_writes_nothing(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    main(_GEN + ["--out", "t.csv", "--data-out", "d.csv", "--samples", "20"])
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    capsys.readouterr()
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"crpnn {argv[0]}: error: ")
    assert captured.err.endswith("exceeds MAX_ORDER (1000)\n") and captured.err.count("\n") == 1
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


@pytest.mark.parametrize("window", [["--t-end", "inf"], ["--t-start=-1e308", "--t-end=1e308"]])
def test_gen_with_a_time_range_without_a_finite_trajectory_exits_1_with_only_its_error(
        tmp_path, capsys, window):
    assert main(["gen", "--n", "5", "--degree", "3", "--items", "5", "--out", str(tmp_path / "t.csv"),
                 "--data-out", str(tmp_path / "d.csv"), *window]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"crpnn gen: error: time range \[\S+, \S+\] gives a non-finite trajectory\n",
                        captured.err)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "module, callee, argv",
    [
        ("cli", "default_inputs", ["gen", "--n", "5", "--degree", "3", "--items", "5", "--out", "t.csv",
                                   "--data-out", "d.csv", "--samples", "1000000000000"]),
        ("bench", "init_weights", ["bench", "--n", "100000", "--order", "3", "--out", "b.json"]),
    ],
    ids=["gen", "bench"],
)
def test_a_size_too_large_to_allocate_exits_1_with_only_its_error(
        tmp_path, monkeypatch, capsys, module, callee, argv):
    # the callee raises as numpy does for such a size, without allocating
    def unable(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB for an array")

    monkeypatch.setattr(f"crpnn.{module}.{callee}", unable)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"crpnn {argv[0]}: error: Unable to allocate 7.28 TiB for an array\n"
    assert list(tmp_path.iterdir()) == []


def test_outputs_may_repeat_a_device_written_in_place(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(_GEN + ["--out", os.devnull, "--data-out", os.devnull]) == 0
    assert list(tmp_path.iterdir()) == []


def test_missing_file_exits_1(tmp_path, capsys):
    rc = main(["eval", "--model", str(tmp_path / "nope.json"), "--data", str(tmp_path / "d.csv")])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_spectrum_of_saved_toy_model(tmp_path):
    spec = NetworkSpec.crpnn2(1, 1, 5)
    toy = CrpnnModel(spec, [np.eye(2), np.eye(2), np.array([[1.0, 1.0]])])
    model_path = tmp_path / "toy.json"
    model_path.write_bytes(save_model(toy))
    out = tmp_path / "spectrum.csv"
    rc = main(["spectrum", "--model", str(model_path), "--out", str(out)])
    assert rc == 0
    parsed = import_spectrum(out.read_bytes())
    assert parsed.terms == ({(0,): 1.0, (5,): 1.0},)


def test_spectrum_of_an_overflowing_model_exits_1_and_writes_nothing(tmp_path, capsys):
    model = init_weights(NetworkSpec.crpnn1(2, 1, 10), seed=0)
    path = tmp_path / "big.json"
    path.write_bytes(save_model(CrpnnModel(model.spec, [w * 1e40 for w in model.weights])))
    assert main(["spectrum", "--model", str(path), "--out", str(tmp_path / "s.csv")]) == 1
    assert capsys.readouterr().err.startswith("crpnn spectrum: error: expansion overflowed")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["big.json"]


def test_pipeline_outputs_are_deterministic(tmp_path):
    blobs = []
    for tag in ("a", "b"):
        target = tmp_path / f"t_{tag}.csv"
        data = tmp_path / f"d_{tag}.csv"
        model = tmp_path / f"m_{tag}.json"
        spectrum = tmp_path / f"s_{tag}.csv"
        main(["gen", "--n", "2", "--degree", "4", "--items", "8", "--seed", "11",
              "--out", str(target), "--data-out", str(data), "--samples", "50"])
        main(["train", "--variant", "crpnn1", "--order", "4", "--data", str(data),
              "--epochs", "40", "--lr", "0.03", "--seed", "2", "--model-out", str(model)])
        main(["spectrum", "--model", str(model), "--out", str(spectrum)])
        blobs.append(
            (target.read_bytes(), data.read_bytes(), model.read_bytes(), spectrum.read_bytes())
        )
    assert blobs[0] == blobs[1]


def test_bench_cli_writes_report(tmp_path):
    out = tmp_path / "report.json"
    rc = main(
        ["bench", "--n", "2", "--m", "1", "--order", "4", "--samples", "30",
         "--forward-reps", "2", "--epochs", "1", "--runs", "1", "--out", str(out)]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["protocol"]["order"] == 4
    assert len(doc["results"]) == 2


def test_compare_emits_expected_row_count(tmp_path):
    data = tmp_path / "d.csv"
    main(["gen", "--n", "2", "--degree", "4", "--items", "6", "--seed", "2",
          "--out", str(tmp_path / "t.csv"), "--data-out", str(data), "--samples", "40"])
    out = tmp_path / "table.csv"
    rc = main(
        ["compare", "--variant", "crpnn1", "--orders", "2-4", "6",
         "--seeds", "2", "--data", str(data), "--epochs", "5", "--out", str(out)]
    )
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "variant,order,seed,final_mse,seconds"
    assert len(lines) == 1 + 4 * 2  # orders {2,3,4,6} x 2 seeds


def test_compare_rows_deterministic_apart_from_seconds(tmp_path):
    data = tmp_path / "d.csv"
    main(["gen", "--n", "2", "--degree", "3", "--items", "5", "--seed", "8",
          "--out", str(tmp_path / "t.csv"), "--data-out", str(data), "--samples", "30"])
    tables = []
    for tag in ("a", "b"):
        out = tmp_path / f"{tag}.csv"
        main(["compare", "--variant", "crpnn1", "--orders", "2", "3",
              "--seeds", "2", "--data", str(data), "--epochs", "4", "--out", str(out)])
        rows = [line.rsplit(",", 1)[0] for line in out.read_text().strip().split("\n")]
        tables.append(rows)
    assert tables[0] == tables[1]


def test_compare_records_a_diverged_seed_as_inf_and_carries_on(tmp_path):
    data = tmp_path / "d.csv"
    main(["gen", "--n", "1", "--degree", "3", "--items", "3", "--seed", "1",
          "--out", str(tmp_path / "t.csv"), "--data-out", str(data), "--samples", "30"])
    out = tmp_path / "table.csv"
    rc = main(["compare", "--orders", "3", "4", "--seeds", "2", "--lr", "5",
               "--data", str(data), "--epochs", "20", "--out", str(out)])
    assert rc == 0
    rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
    assert [row[:3] for row in rows] == [
        [v, str(order), str(seed)] for v in ("crpnn1", "crpnn2") for order in (3, 4) for seed in (0, 1)
    ]
    dataset = read_dataset_csv(data.read_bytes())
    for variant, order, seed, final_mse, _ in rows:
        model = init_weights(NetworkSpec.create(variant, 1, 1, int(order)), seed=int(seed))
        try:
            expected = train(model, dataset, TrainConfig(learning_rate=5, epochs=20, seed=int(seed)))[1].final_mse
        except TrainingDivergedError:
            expected = float("inf")
        assert final_mse == repr(expected)
    finals = [row[3] for row in rows]
    assert "inf" in finals and len(set(finals)) > 1  # some seeds diverge, some do not


def test_compare_records_a_seed_that_overflows_mid_epoch_as_inf(tmp_path):
    data = tmp_path / "d.csv"
    main(["gen", "--n", "2", "--degree", "3", "--items", "5", "--seed", "1",
          "--out", str(tmp_path / "t.csv"), "--data-out", str(data), "--samples", "30"])
    out = tmp_path / "table.csv"
    rc = main(["compare", "--variant", "crpnn1", "--orders", "2", "3", "--seeds", "2",
               "--lr", "50", "--epochs", "20", "--batch-size", "4",
               "--data", str(data), "--out", str(out)])
    assert rc == 0
    rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
    assert [row[:3] for row in rows] == [
        ["crpnn1", str(order), str(seed)] for order in (2, 3) for seed in (0, 1)
    ]
    dataset = read_dataset_csv(data.read_bytes())
    raised = set()
    for _, order, seed, final_mse, _ in rows:
        model = init_weights(NetworkSpec.crpnn1(2, 1, int(order)), seed=int(seed))
        config = TrainConfig(learning_rate=50, epochs=20, batch_size=4, seed=int(seed))
        try:
            expected = train(model, dataset, config)[1].final_mse
        except (TrainingDivergedError, FloatingPointError) as exc:
            raised.add(type(exc))
            expected = float("inf")
        assert final_mse == repr(expected)
    assert FloatingPointError in raised  # the step overflowed, not only the epoch's MSE


def test_compare_plans_every_cell_before_training_any(tmp_path, capsys, monkeypatch):
    data = tmp_path / "d.csv"
    main(["gen", "--n", "2", "--degree", "3", "--items", "5", "--seed", "1",
          "--out", str(tmp_path / "t.csv"), "--data-out", str(data), "--samples", "30"])

    def train_too_soon(*args):
        raise AssertionError("a cell trained before every cell was planned")

    monkeypatch.setattr(cli, "train", train_too_soon)
    out = tmp_path / "table.csv"
    rc = main(["compare", "--orders", "2", "3", "--seeds", "2", "--data", str(data),
               "--out", str(out)])
    assert rc == 1
    assert "CR-PNN II is inapplicable for order 2" in capsys.readouterr().err
    assert not out.exists()


def test_malformed_csv_line_exits_1_naming_the_line(tmp_path, capsys):
    data = tmp_path / "d.csv"
    data.write_bytes(b"x1,y1\n1,2\r3,4\n")  # a lone carriage return inside a row
    model = tmp_path / "m.json"
    model.write_bytes(save_model(init_weights(NetworkSpec.crpnn1(1, 1, 2), seed=0)))
    for argv in (["train", "--variant", "crpnn1", "--order", "2", "--data", str(data),
                  "--model-out", str(tmp_path / "o.json")],
                 ["eval", "--model", str(model), "--data", str(data)]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"crpnn {argv[0]}: error: line 2: malformed CSV")
    assert not (tmp_path / "o.json").exists()


def test_overflowing_model_reports_inf_without_a_warning(tmp_path, capsys):
    data = tmp_path / "d.csv"
    data.write_text("x1,y1\n1e12,1.0\n2e12,2.0\n")
    model = tmp_path / "m.json"
    model.write_bytes(save_model(init_weights(NetworkSpec.crpnn1(1, 1, 14), seed=0)))
    assert main(["eval", "--model", str(model), "--data", str(data)]) == 0
    assert capsys.readouterr().out == "final_mse=inf\n"
    assert main(["train", "--variant", "crpnn1", "--order", "14", "--data", str(data),
                 "--epochs", "0", "--model-out", str(tmp_path / "o.json")]) == 0
    assert capsys.readouterr().out == "final_mse=inf\n"


def test_eval_multi_output_schema(tmp_path, capsys):
    data = tmp_path / "d.csv"
    data.write_text(
        "x1,y1,y2\n" + "\n".join(f"{v},{2 * v},{v * v}" for v in (0.1, -0.4, 0.7, 0.9))
    )
    model = tmp_path / "m.json"
    assert main(["train", "--variant", "crpnn1", "--order", "2", "--data", str(data),
                 "--epochs", "3", "--model-out", str(model)]) == 0
    preds = tmp_path / "p.csv"
    assert main(["eval", "--model", str(model), "--data", str(data), "--out", str(preds)]) == 0
    lines = preds.read_text().strip().split("\n")
    assert lines[0] == "t_index,actual_1,actual_2,predicted_1,predicted_2"
    assert len(lines) == 5


def test_help_exits_zero(capsys):
    for command in ([], ["gen"], ["train"], ["eval"], ["spectrum"], ["bench"], ["compare"]):
        with pytest.raises(SystemExit) as err:
            parse_cli(command + ["--help"])
        assert err.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith(" ".join(["usage: crpnn", *command]))
        seeded = command in (["gen"], ["train"], ["bench"], ["compare"])
        assert ("--seed" in out) == seeded and ("default" in out) == seeded


def test_env_seed_default(tmp_path, monkeypatch):
    outputs = []
    for seed_env in ("21", "21", "22"):
        monkeypatch.setenv("CRPNN_SEED", seed_env)
        target = tmp_path / f"target_{len(outputs)}.csv"
        main(["gen", "--n", "2", "--degree", "3", "--items", "5", "--out", str(target)])
        outputs.append(target.read_bytes())
    assert outputs[0] == outputs[1]
    assert outputs[0] != outputs[2]


def test_explicit_seed_beats_env(tmp_path, monkeypatch):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    monkeypatch.setenv("CRPNN_SEED", "99")
    main(["gen", "--n", "2", "--degree", "3", "--items", "5", "--seed", "4", "--out", str(a)])
    monkeypatch.delenv("CRPNN_SEED")
    main(["gen", "--n", "2", "--degree", "3", "--items", "5", "--seed", "4", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("command", ["gen", "train", "bench", "compare"])
def test_a_non_integer_env_seed_exits_1_and_writes_nothing(tmp_path, monkeypatch, capsys, command):
    data = tmp_path / "d.csv"
    main(["gen", "--n", "2", "--degree", "3", "--items", "4", "--seed", "1",
          "--out", str(tmp_path / "t.csv"), "--data-out", str(data), "--samples", "20"])
    out = str(tmp_path / "out")
    argv = {
        "gen": ["gen", "--n", "2", "--degree", "3", "--items", "4", "--out", out],
        "train": ["train", "--variant", "crpnn1", "--order", "2", "--data", str(data),
                  "--epochs", "2", "--model-out", out],
        "bench": ["bench", "--n", "2", "--order", "4", "--samples", "20", "--forward-reps", "1",
                  "--epochs", "1", "--runs", "1", "--out", out],
        "compare": ["compare", "--variant", "crpnn1", "--orders", "2", "--seeds", "1",
                    "--data", str(data), "--epochs", "2", "--out", out],
    }[command]
    monkeypatch.setenv("CRPNN_SEED", "1.5")
    capsys.readouterr()
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"crpnn {command}: error: CRPNN_SEED must be an integer, got '1.5'\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv", "t.csv"]
    # an explicit seed never reads the variable
    assert main(argv + ["--seed", "3"]) == 0


def test_a_command_without_a_seed_ignores_the_env_seed(tmp_path, monkeypatch, capsys):
    data, model = tmp_path / "d.csv", tmp_path / "m.json"
    data.write_text("x1,y1\n0.5,1.0\n-0.5,0.0\n")
    model.write_bytes(save_model(init_weights(NetworkSpec.crpnn1(1, 1, 2), seed=0)))
    monkeypatch.setenv("CRPNN_SEED", "not a number")
    assert main(["eval", "--model", str(model), "--data", str(data)]) == 0
    assert main(["spectrum", "--model", str(model), "--out", str(tmp_path / "s.csv")]) == 0
    assert capsys.readouterr().err == ""


def test_gen_coefficient_range_and_trajectory_window_reach_the_outputs(tmp_path):
    target, data = tmp_path / "t.csv", tmp_path / "d.csv"
    assert main(["gen", "--n", "5", "--degree", "3", "--items", "40", "--seed", "2",
                 "--coeff-low", "0.25", "--coeff-high", "0.5", "--t-start", "-1.5",
                 "--t-end", "2", "--samples", "30", "--out", str(target),
                 "--data-out", str(data)]) == 0
    coefficients = list(import_spectrum(target.read_bytes()).terms[0].values())
    assert len(coefficients) == 40
    assert all(0.25 <= c <= 0.5 for c in coefficients)
    assert target.read_bytes() == export_spectrum(gen_random_polynomial(5, 3, 40, 0.25, 0.5, 2))
    np.testing.assert_array_equal(
        read_dataset_csv(data.read_bytes()).inputs, sample_sine_trajectory(30, -1.5, 2.0)
    )


def test_init_scale_reaches_train_and_compare(tmp_path, capsys):
    data, model = tmp_path / "d.csv", tmp_path / "m.json"
    main(["gen", "--n", "2", "--degree", "3", "--items", "5", "--seed", "4",
          "--out", str(tmp_path / "t.csv"), "--data-out", str(data), "--samples", "30"])
    assert main(["train", "--variant", "crpnn2", "--order", "5", "--data", str(data),
                 "--epochs", "0", "--init-scale", "0.3", "--seed", "6",
                 "--model-out", str(model)]) == 0
    expected = init_weights(NetworkSpec.crpnn2(2, 1, 5), seed=6, scale=0.3)
    trained = load_model(model.read_bytes())
    for got, want in zip(trained.weights, expected.weights, strict=True):
        np.testing.assert_array_equal(got, want)
    table = tmp_path / "table.csv"
    assert main(["compare", "--variant", "crpnn2", "--orders", "5", "--seeds", "1",
                 "--seed", "6", "--epochs", "3", "--init-scale", "0.3",
                 "--data", str(data), "--out", str(table)]) == 0
    dataset = read_dataset_csv(data.read_bytes())
    _, record = train(expected, dataset, TrainConfig(epochs=3, seed=6))
    assert table.read_text().split("\n")[1].split(",")[3] == repr(record.final_mse)


def test_compare_rows_match_the_final_mse_train_prints(tmp_path, capsys):
    data = tmp_path / "d.csv"
    main(["gen", "--n", "2", "--degree", "3", "--items", "5", "--seed", "8",
          "--out", str(tmp_path / "t.csv"), "--data-out", str(data), "--samples", "40"])
    options = ["--data", str(data), "--epochs", "6", "--lr", "0.05", "--batch-size", "16",
               "--init-scale", "0.4"]
    table = tmp_path / "table.csv"
    assert main(["compare", "--variant", "crpnn1", "--orders", "3", "--seeds", "2",
                 "--seed", "5", "--out", str(table)] + options) == 0
    rows = [line.split(",") for line in table.read_text().strip().split("\n")[1:]]
    assert [row[:3] for row in rows] == [["crpnn1", "3", "5"], ["crpnn1", "3", "6"]]
    capsys.readouterr()
    for _, _, seed, final_mse, _ in rows:
        assert main(["train", "--variant", "crpnn1", "--order", "3", "--seed", seed,
                     "--model-out", str(tmp_path / "m.json")] + options) == 0
        assert capsys.readouterr().out == f"final_mse={final_mse}\n"


def test_bench_defaults_are_the_protocols(monkeypatch, capsys):
    monkeypatch.delenv("CRPNN_SEED", raising=False)
    built = []

    def run_bench(protocol):
        built.append(protocol)
        raise ValueError("stop before timing")

    monkeypatch.setattr(cli.bench_mod, "run_bench", run_bench)
    assert main(["bench"]) == 1
    assert built == [BenchProtocol()]


def test_train_and_compare_defaults_are_the_train_configs(tmp_path, monkeypatch):
    monkeypatch.delenv("CRPNN_SEED", raising=False)
    data = tmp_path / "d.csv"
    data.write_text("x1,y1\n0.5,1.0\n-0.5,0.0\n")
    configs = []

    def record_config(model, dataset, config):
        configs.append(config)
        return model, TrainRecord(final_mse=0.0)

    monkeypatch.setattr(cli, "train", record_config)
    assert main(["train", "--variant", "crpnn1", "--order", "2", "--data", str(data),
                 "--model-out", str(tmp_path / "m.json")]) == 0
    assert main(["compare", "--variant", "crpnn1", "--orders", "2", "--seeds", "1",
                 "--data", str(data), "--out", str(tmp_path / "table.csv")]) == 0
    assert configs == [TrainConfig(), TrainConfig()]


@pytest.mark.parametrize(
    "error",
    [CapacityError, DatasetFormatError, ModelFormatError, ShapeError,
     SpectrumFormatError, SpectrumSizeError, TopologyError],
)
def test_typed_errors_are_value_errors(error):
    # the CLI maps ValueError to exit code 1
    assert issubclass(error, ValueError)


def test_train_on_malformed_dataset_exits_1_with_line(tmp_path, capsys):
    data = tmp_path / "data.csv"
    data.write_bytes(b"x1,y1\n0.5,1.0\n0.5\n")
    rc = main(["train", "--variant", "crpnn1", "--order", "2", "--data", str(data),
               "--model-out", str(tmp_path / "m.json")])
    assert rc == 1
    assert "line 3: expected 2 cells, got 1" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["gen", "--n", "2", "--degree", "3", "--items", "4", "--out", ""], "--out"),
        (["gen", "--n", "2", "--degree", "3", "--items", "4", "--out", "t.csv",
          "--data-out", ""], "--data-out"),
        (["train", "--variant", "crpnn1", "--order", "2", "--data", "missing.csv",
          "--model-out", ""], "--model-out"),
        (["train", "--variant", "crpnn1", "--order", "2", "--data", "missing.csv",
          "--model-out", "m.json", "--metrics-out", ""], "--metrics-out"),
        (["eval", "--model", "missing.json", "--data", "missing.csv", "--out", ""], "--out"),
        (["spectrum", "--model", "missing.json", "--out", ""], "--out"),
        (["bench", "--n", "2", "--order", "4", "--samples", "20", "--forward-reps", "1",
          "--epochs", "1", "--runs", "1", "--out", ""], "--out"),
        (["compare", "--orders", "2", "--data", "missing.csv", "--out", ""], "--out"),
    ],
    ids=["gen-out", "gen-data-out", "train-model-out", "train-metrics-out", "eval-out",
         "spectrum-out", "bench-out", "compare-out"],
)
def test_empty_output_path_exits_1_before_any_work(tmp_path, monkeypatch, capsys, argv, flag):
    # the inputs do not exist, so only a check made before any work can win
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"crpnn {argv[0]}: error: {flag} must name a file, got an empty path\n"
    assert list(tmp_path.iterdir()) == [work]
    assert list(work.iterdir()) == []


def _fail_replace(src, dst):
    raise OSError("disk full")


@pytest.mark.parametrize("failure", ["write", "replace"])
def test_failed_write_keeps_the_old_file_and_no_temp_file(tmp_path, monkeypatch, failure):
    target = tmp_path / "out.csv"
    target.write_bytes(b"old\n")
    if failure == "replace":
        monkeypatch.setattr(cli.os, "replace", _fail_replace)
        with pytest.raises(OSError, match="disk full"):
            cli._write_or_print(b"new\n", str(target))
    else:
        with pytest.raises(TypeError):
            cli._write_or_print("not bytes", str(target))
    assert target.read_bytes() == b"old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]


def test_cli_exits_1_when_an_output_cannot_be_replaced(tmp_path, monkeypatch):
    model = init_weights(NetworkSpec.crpnn1(2, 1, 2), seed=0)
    (tmp_path / "m.json").write_bytes(save_model(model))
    out = tmp_path / "s.csv"
    out.write_bytes(b"old\n")
    (tmp_path / "d.csv").write_bytes(b"x1,x2,y1\n0.1,0.2,0.3\n-0.4,0.5,0.6\n")
    monkeypatch.setattr(cli.os, "replace", _fail_replace)
    assert main(["spectrum", "--model", str(tmp_path / "m.json"), "--out", str(out)]) == 1
    assert out.read_bytes() == b"old\n"
    # the model goes to a device, written in place, so the metrics write is the one that fails
    assert main(["train", "--variant", "crpnn1", "--order", "2", "--data", str(tmp_path / "d.csv"),
                 "--epochs", "3", "--model-out", os.devnull, "--metrics-out", str(out)]) == 1
    assert out.read_bytes() == b"old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv", "m.json", "s.csv"]


def test_write_replaces_whole_files_through_links_and_streams_devices(tmp_path):
    real = tmp_path / "real.csv"
    real.write_bytes(b"a much longer old content\n")
    link = tmp_path / "link.csv"
    link.symlink_to(real)
    cli._write_or_print(b"new\n", str(link))
    assert link.is_symlink() and real.read_bytes() == b"new\n"
    cli._write_or_print(b"fresh\n", str(tmp_path / "fresh.csv"))
    assert (tmp_path / "fresh.csv").read_bytes() == b"fresh\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fresh.csv", "link.csv", "real.csv"]
    cli._write_or_print(b"discarded\n", os.devnull)


def test_write_streams_a_pipe_named_by_its_dev_fd_path():
    r, w = os.pipe()
    try:
        cli._write_or_print(b"through the pipe\n", f"/dev/fd/{w}")
        os.close(w)
        w = None
        with os.fdopen(r, "rb") as fh:
            r = None
            assert fh.read() == b"through the pipe\n"
    finally:
        for fd in (r, w):
            if fd is not None:
                os.close(fd)


def test_replaced_file_keeps_its_permission_bits(tmp_path):
    target = tmp_path / "model.json"
    target.write_bytes(b"old\n")
    target.chmod(0o600)
    cli._write_or_print(b"new\n", str(target))
    assert target.read_bytes() == b"new\n"
    assert target.stat().st_mode & 0o777 == 0o600


def test_a_temp_file_this_call_did_not_make_is_left_alone(tmp_path):
    target = tmp_path / "out.csv"
    target.write_bytes(b"old\n")
    stale = tmp_path / f"out.csv.{os.getpid()}.tmp"
    stale.write_bytes(b"someone else's\n")
    with pytest.raises(FileExistsError):
        cli._write_or_print(b"new\n", str(target))
    assert target.read_bytes() == b"old\n"
    assert stale.read_bytes() == b"someone else's\n"
