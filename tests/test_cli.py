import json
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import skm
from skm.cli import main
from skm.dataio import load_csv, load_model, save_csv
from skm.kernels import gram_at_dist
from skm.synth import make_dataset


def synth_csv(tmp_path, name="x.csv", dataset="banana", n=120, seed=0):
    path = tmp_path / name
    assert main(["synth", "--dataset", dataset, "--n", str(n),
                 "--seed", str(seed), "--out", str(path)]) == 0
    return path


def stats_doc(capsys):
    """The stats document of the last command: the last line of stderr."""
    doc = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert isinstance(doc, dict)
    return doc


# ------------------------------------------------------------------- plumbing

def test_synth_writes_loadable_csv(tmp_path):
    path = synth_csv(tmp_path)
    data = load_csv(path)
    assert (data.n, data.d) == (120, 2)


@pytest.mark.parametrize("n", ["-5", "0"])
def test_synth_refuses_fewer_than_one_point(tmp_path, capsys, n):
    # -5 failed in numpy ("negative dimensions"), 0 on the DataSet's shape.
    out = tmp_path / "x.csv"
    assert main(["synth", "--dataset", "ring", "--n", n, "--out", str(out)]) == 2
    assert f"n must be an integer with n >= 1 (n={n})" in capsys.readouterr().err
    assert not out.exists()


def test_fit_eval_round_trip(tmp_path, capsys):
    x = synth_csv(tmp_path)
    model = tmp_path / "m.json"
    rc = main(["fit", "--input", str(x),
               "--kernel", "gaussian:sigma=1.0:density:rkhs",
               "--kmax", "30", "--eps", "1e-8", "--density",
               "--out", str(model)])
    assert rc == 0
    mean = load_model(model)
    assert mean.diagnostics.density_projected and mean.k0 <= 30
    values = tmp_path / "v.csv"
    rc = main(["eval", "--model", str(model), "--queries", str(x),
               "--out", str(values)])
    assert rc == 0
    lines = values.read_text().splitlines()
    assert lines[0] == "value"
    assert len(lines) == 121
    parsed = [float(v) for v in lines[1:]]
    assert all(v >= 0.0 for v in parsed)


def test_eval_rejects_a_model_whose_k0_is_not_its_weight_count(tmp_path, capsys):
    x = synth_csv(tmp_path)
    model = tmp_path / "m.json"
    assert main(["fit", "--input", str(x), "--kernel", "gaussian:sigma=1.0",
                 "--kmax", "30", "--out", str(model)]) == 0
    doc = json.loads(model.read_text())
    doc["k0"] = 3
    model.write_text(json.dumps(doc))
    values = tmp_path / "v.csv"
    rc = main(["eval", "--model", str(model), "--queries", str(x), "--out", str(values)])
    assert rc == 2
    assert "k0" in capsys.readouterr().err
    assert not values.exists()


def test_fit_trace_export(tmp_path):
    x = synth_csv(tmp_path)
    model = tmp_path / "m.json"
    trace = tmp_path / "trace.csv"
    rc = main(["fit", "--input", str(x), "--kernel", "gaussian:sigma=1.0",
               "--kmax", "12", "--eps", "0", "--out", str(model),
               "--trace", str(trace)])
    assert rc == 0
    lines = trace.read_text().splitlines()
    assert lines[0] == "m,e,ratio,radius,pivot"
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    assert len(rows) == 12
    e = [r[1] for r in rows]
    assert all(b <= a for a, b in zip(e, e[1:]))  # nonincreasing
    # ratio column reproduces the stopping-rule quantity
    for m in range(1, len(e)):
        den = abs(e[0] - e[m])
        expected = 0.0 if den == 0.0 else abs(e[m - 1] - e[m]) / den
        assert abs(rows[m][2] - expected) < 1e-15
    # Every deterministic column of the record, bit for bit; no timing.
    data = load_csv(x)
    diag = skm.fit(data, skm.parse_kernel_spec("gaussian:sigma=1.0", data.d), k_max=12,
                   epsilon=0.0).diagnostics
    columns = np.array(rows).T
    assert_array_equal(columns[0], np.arange(1, 13))
    for column, expected in zip(columns[1:], (diag.e_trace, diag.ratio_trace,
                                              diag.radius_trace, diag.pivots)):
        assert_array_equal(column, expected)


def test_fit_summary_goes_to_stderr(tmp_path, capsys):
    x = synth_csv(tmp_path)
    model = tmp_path / "m.json"
    capsys.readouterr()
    main(["fit", "--input", str(x), "--kernel", "gaussian:sigma=1.0",
          "--kmax", "10", "--out", str(model)])
    doc = stats_doc(capsys)
    assert doc["n"] == 120 and doc["d"] == 2 and doc["k0"] == load_model(model).k0
    assert doc["seconds"] >= doc["fit_s"] > 0


def _refuse_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def test_fit_stats_name_the_stop(tmp_path, capsys):
    # The stats document says why the fit stopped, in strict JSON.
    x = synth_csv(tmp_path)
    for flags, stop in ((["--kmax", "10"], "budget"), (["--eps", "0.5"], "ratio")):
        capsys.readouterr()
        assert main(["fit", "--input", str(x), "--kernel", "gaussian:sigma=1.0", *flags,
                     "--out", str(tmp_path / "m.json")]) == 0
        line = capsys.readouterr().err.splitlines()[-1]
        assert json.loads(line, parse_constant=_refuse_constant)["stop"] == stop


def test_select_emits_order_and_radius(tmp_path):
    x = tmp_path / "x.csv"
    x.write_text("0\n1\n10\n")
    out = tmp_path / "sel.csv"
    rc = main(["select", "--input", str(x), "--k", "2", "--first", "0",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "m,index,radius"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[1] for r in rows] == ["0", "2"]
    assert float(rows[-1][2]) == 1.0


def test_select_accepts_seed_syntax(tmp_path):
    # Without --first, --seed draws the first center.
    x = synth_csv(tmp_path)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["select", "--input", str(x), "--k", "5", "--seed", "3", "--out", str(out1)])
    main(["select", "--input", str(x), "--k", "5", "--seed", "3", "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("command", ["fit", "select", "audit"])
def test_first_takes_an_index_only(tmp_path, capsys, command):
    x = synth_csv(tmp_path)
    extra = {"fit": ["--kernel", "gaussian:sigma=1", "--out", str(tmp_path / "m.json")],
             "select": ["--k", "5"], "audit": ["--kernel", "gaussian:sigma=1"]}[command]
    rc = main([command, "--input", str(x), "--first", "seed:3"] + extra)
    assert rc == 1
    assert "--first" in capsys.readouterr().err


def test_audit_bound_dominates_residual(tmp_path):
    x = synth_csv(tmp_path, n=60)
    out = tmp_path / "audit.csv"
    rc = main(["audit", "--input", str(x), "--kernel", "gaussian:sigma=1.0",
               "--kmax", "20", "--first", "0", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "m,e,ratio,radius,pivot,residual,nu,bound"
    for line in lines[1:]:
        m, e, ratio, radius, pivot, residual, nu, bound = (float(v) for v in line.split(","))
        assert residual <= bound + 1e-9


@pytest.mark.parametrize("kernel", ["gaussian:sigma=0.7", "laplacian:gamma=1.3:density",
                                    "student:alpha=1.5:beta=2:density:l2"])
def test_audit_nu_and_bound_are_bound_value_at_every_prefix(tmp_path, kernel):
    # The columns are formed over whole arrays; each row is the scalar
    # bound of its prefix, bit for bit.
    x = synth_csv(tmp_path, n=80, seed=5)
    out = tmp_path / "audit.csv"
    assert main(["audit", "--input", str(x), "--kernel", kernel, "--kmax", "30",
                 "--out", str(out)]) == 0
    spec = skm.parse_kernel_spec(kernel, 2)
    c = skm.g_zero(spec)
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) > 10
    for row in rows:
        m, radius, nu, bound = int(row[0]), float(row[3]), float(row[6]), float(row[7])
        assert nu == float(gram_at_dist(spec, radius))
        assert bound == skm.bound_value(80, m, c, nu)


def test_embed_matrix_and_sidecar(tmp_path, capsys):
    paths = [str(synth_csv(tmp_path, f"s{i}.csv", "blobs2", 80, seed=i))
             for i in range(3)]
    out = tmp_path / "d.csv"
    capsys.readouterr()
    rc = main(["embed", *paths, "--kernel", "gaussian:sigma=1.0",
               "--mode", "rkhs", "--sparse", "--eps", "1e-8", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 4 and lines[0].startswith("label,")
    doc = stats_doc(capsys)
    assert len(doc["support_sizes"]) == 3 and doc["mode"] == "rkhs"
    assert doc["labels"] == ["s0", "s1", "s2"] and doc["sparse"] is True
    assert doc["epsilon"] == 1e-8 and doc["embed_s"] > 0


@pytest.mark.parametrize("sparse", [[], ["--sparse"]], ids=["full", "sparse"])
def test_embed_in_l2_space_names_the_space_not_a_function(tmp_path, capsys, sparse):
    # embed forms inner products of kernel means; it never calls rkhs_distance.
    paths = [str(synth_csv(tmp_path, f"s{i}.csv", "blobs2", 40, seed=i)) for i in range(2)]
    capsys.readouterr()
    rc = main(["embed", *paths, "--kernel", "gaussian:sigma=1:l2", *sparse, "--out", "-"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "need a kernel in rkhs space mode, got space 'l2'" in err
    assert "rkhs_distance" not in err


def test_embed_symkl_mode(tmp_path):
    paths = [str(synth_csv(tmp_path, f"s{i}.csv", "blobs2", 80, seed=i))
             for i in range(2)]
    out = tmp_path / "d.csv"
    rc = main(["embed", *paths, "--kernel", "gaussian:sigma=1.0:density",
               "--mode", "symkl", "--out", str(out)])
    assert rc == 0
    value = float(out.read_text().splitlines()[1].split(",")[2])
    assert np.isfinite(value)


def test_cpe_json_output(tmp_path, capsys):
    rng = np.random.default_rng(0)
    trains = []
    for i, center in enumerate((-4.0, 4.0)):
        path = tmp_path / f"t{i}.csv"
        from skm.dataio import DataSet

        save_csv(DataSet(center + 0.5 * rng.standard_normal((60, 1))), path)
        trains.append(str(path))
    test_path = tmp_path / "test.csv"
    from skm.dataio import DataSet

    save_csv(DataSet(np.vstack([load_csv(trains[0]).points,
                                load_csv(trains[1]).points])), test_path)
    out = tmp_path / "pi.json"
    rc = main(["cpe", "--train", *trains, "--test", str(test_path),
               "--sigma", "1.0", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert_allclose(doc["pi_hat"], [0.5, 0.5], atol=1e-6)
    assert doc["sigma"] == 1.0


def test_cpe_sigma_search(tmp_path, capsys):
    rng = np.random.default_rng(1)
    trains = []
    from skm.dataio import DataSet

    for i, center in enumerate((-4.0, 4.0)):
        path = tmp_path / f"t{i}.csv"
        save_csv(DataSet(center + 0.5 * rng.standard_normal((80, 1))), path)
        trains.append(str(path))
    test_path = tmp_path / "test.csv"
    save_csv(DataSet(rng.standard_normal((40, 1))), test_path)
    out = tmp_path / "pi.json"
    rc = main(["cpe", "--train", *trains, "--test", str(test_path),
               "--sigma-search", "0.2,5.0", "--search-iters", "10",
               "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert 0.2 <= doc["sigma"] <= 5.0
    assert "timings" not in doc
    stats = stats_doc(capsys)
    assert stats["sigma_search_s"] > 0 and stats["estimate_s"] > 0


def test_cpe_sparse_sigma_search_on_three_blobs(tmp_path):
    from skm.dataio import DataSet

    rng = np.random.default_rng(2)
    centers = ((0.0, 0.0), (3.0, 0.0), (0.0, 3.0))
    trains = []
    for i, center in enumerate(centers):
        path = tmp_path / f"c{i}.csv"
        save_csv(DataSet(np.asarray(center) + rng.standard_normal((2000, 2))), path)
        trains.append(str(path))
    test_path = tmp_path / "t.csv"
    save_csv(DataSet(np.vstack([c + rng.standard_normal((300, 2)) for c in centers])),
             test_path)
    out = tmp_path / "pi.json"
    rc = main(["cpe", "--train", *trains, "--test", str(test_path),
               "--sparse", "--sigma-search", "0.2,5.0", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert 0.2 <= doc["sigma"] <= 5.0
    assert_allclose(doc["pi_hat"], [1 / 3, 1 / 3, 1 / 3], atol=0.1)


@pytest.mark.parametrize("bounds", ["0.1,inf", "nan,1", "0,1", "2,1", "-1,1", "0.1,nan"])
def test_cpe_sigma_search_checks_its_bounds_first(tmp_path, capsys, bounds):
    # Exit 2 with a message naming --sigma-search, before the template
    # kernel spec, whose error would name neither the flag nor the bound.
    x = synth_csv(tmp_path, dataset="blobs2", n=40)
    capsys.readouterr()
    assert main(["cpe", "--train", str(x), str(x), "--test", str(x),
                 f"--sigma-search={bounds}", "--out", str(tmp_path / "pi.json")]) == 2
    err = capsys.readouterr().err
    assert "--sigma-search needs 0 < LO < HI < inf" in err and "kernel requires" not in err
    assert not (tmp_path / "pi.json").exists()


@pytest.mark.parametrize("delta", ["nan", "-1"])
def test_meanshift_compare_refuses_a_bad_delta(tmp_path, capsys, delta):
    # --delta nan once wrote "delta": NaN, which is not JSON, and -1 reported
    # two identical runs as wholly discrepant.
    x = synth_csv(tmp_path, dataset="blobs2", n=60, seed=2)
    shifted, metrics = tmp_path / "shifted.csv", tmp_path / "metrics.json"
    assert main(["meanshift", "--input", str(x), "--sigma", "0.8",
                 "--out-shifted", str(shifted)]) == 0
    capsys.readouterr()
    assert main(["meanshift", "--input", str(x), "--sigma", "0.8", "--compare", str(shifted),
                 "--delta", delta, "--metrics-out", str(metrics)]) == 2
    assert "delta must be nonnegative" in capsys.readouterr().err
    assert not metrics.exists()


def test_meanshift_refuses_an_infinite_delta_before_shifting(tmp_path, capsys):
    # --delta inf once ran the mean shift, wrote the labels and failed at the
    # metrics JSON with a message that named neither --delta nor the file.
    x = synth_csv(tmp_path, dataset="blobs2", n=60, seed=2)
    shifted, labels = tmp_path / "shifted.csv", tmp_path / "labels.csv"
    assert main(["meanshift", "--input", str(x), "--sigma", "0.8",
                 "--out-shifted", str(shifted)]) == 0
    capsys.readouterr()
    assert main(["meanshift", "--input", str(x), "--sigma", "0.8", "--compare", str(shifted),
                 "--delta", "inf", "--out-labels", str(labels),
                 "--metrics-out", str(tmp_path / "metrics.json")]) == 2
    assert "--delta must be nonnegative and finite, got inf" in capsys.readouterr().err
    assert not labels.exists() and not (tmp_path / "metrics.json").exists()


def test_json_outputs_refuse_nan_and_infinity(tmp_path):
    from skm.cli import _write_json

    for value in (np.nan, np.inf):
        with pytest.raises(ValueError, match="JSON"):
            _write_json(str(tmp_path / "doc.json"), {"x": value})
    assert not (tmp_path / "doc.json").exists()


def test_csv_outputs_quote_a_label_with_a_comma(tmp_path):
    # A sample named x,y once made the header and its row one field longer
    # than the others. Numeric files are unchanged: plain fields, no quotes.
    import csv

    plain = synth_csv(tmp_path, "plain.csv", "blobs2", 50, seed=0)
    comma = synth_csv(tmp_path, "x,y.csv", "blobs2", 50, seed=1)
    out = tmp_path / "d.csv"
    assert main(["embed", str(plain), str(comma), "--kernel", "gaussian:sigma=1.0",
                 "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert [len(row) for row in rows] == [3, 3, 3]
    assert rows[0] == ["label", "plain", "x,y"] and [r[0] for r in rows[1:]] == ["plain", "x,y"]
    lines = out.read_text().splitlines()
    assert lines == ['label,plain,"x,y"', ",".join(rows[1]), '"x,y",' + ",".join(rows[2][1:])]
    assert [float(v) for v in rows[1][1:]] == [0.0, float(rows[2][1])]


def test_meanshift_labels_and_compare(tmp_path):
    x = synth_csv(tmp_path, dataset="blobs2", n=100, seed=2)
    labels = tmp_path / "labels.csv"
    shifted = tmp_path / "shifted.csv"
    rc = main(["meanshift", "--input", str(x), "--sigma", "0.8",
               "--out-labels", str(labels), "--out-shifted", str(shifted)])
    assert rc == 0
    label_values = {line for line in labels.read_text().splitlines()[1:]}
    assert label_values == {"0", "1"}
    metrics = tmp_path / "metrics.json"
    rc = main(["meanshift", "--input", str(x), "--sigma", "0.8", "--sparse",
               "--compare", str(shifted), "--metrics-out", str(metrics)])
    assert rc == 0
    doc = json.loads(metrics.read_text())
    assert doc["discrepancy_index"] == 0.0
    assert doc["hausdorff"] == 0.0


@pytest.mark.parametrize("merge", ["0", "-1", "nan"])
def test_meanshift_rejects_bad_merge_before_shifting(tmp_path, capsys, monkeypatch, merge):
    import skm.cli

    def no_shift(*args, **kwargs):
        raise AssertionError("mean_shift_all ran before --merge was checked")

    monkeypatch.setattr(skm.cli, "mean_shift_all", no_shift)
    x = synth_csv(tmp_path, dataset="blobs2", n=40)
    labels = tmp_path / "labels.csv"
    rc = main(["meanshift", "--input", str(x), "--sigma", "0.8", "--merge", merge,
               "--out-labels", str(labels)])
    assert rc == 2
    assert "--merge must be positive" in capsys.readouterr().err
    assert not labels.exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--gamma", "0", "--gamma must be positive"),
    ("--gamma", "nan", "--gamma must be positive"),
    ("--gamma", "inf", "--gamma must be positive and finite, got inf"),
    ("--max-iter", "0", "--max-iter must be at least 1"),
    ("--max-iter", "-2", "--max-iter must be at least 1"),
])
def test_meanshift_rejects_bad_stop_flags_before_fitting(tmp_path, capsys, monkeypatch,
                                                         flag, value, message):
    import skm.cli

    def no_fit(*args, **kwargs):
        raise AssertionError(f"meanshift fitted before {flag} was checked")

    for name in ("fit", "full_mean", "mean_shift_all"):
        monkeypatch.setattr(skm.cli, name, no_fit)
    x = synth_csv(tmp_path, dataset="blobs2", n=40)
    labels = tmp_path / "labels.csv"
    rc = main(["meanshift", "--input", str(x), "--sigma", "0.8", "--sparse", flag, value,
               "--out-labels", str(labels)])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not labels.exists()


def test_meanshift_refuses_an_infinite_merge_before_shifting(tmp_path, capsys, monkeypatch):
    # With --compare, an infinite --merge ran to the end, wrote the labels,
    # and then failed writing the metrics: "Out of range float values are
    # not JSON compliant", which does not name the flag.
    import skm.cli

    def no_shift(*args, **kwargs):
        raise AssertionError("mean_shift_all ran before --merge was checked")

    monkeypatch.setattr(skm.cli, "mean_shift_all", no_shift)
    x = synth_csv(tmp_path, dataset="blobs2", n=40)
    labels, metrics = tmp_path / "labels.csv", tmp_path / "metrics.json"
    rc = main(["meanshift", "--input", str(x), "--sigma", "0.8", "--merge", "inf",
               "--out-labels", str(labels), "--compare", str(x), "--metrics-out", str(metrics)])
    assert rc == 2
    assert "--merge must be positive and finite, got inf" in capsys.readouterr().err
    assert not labels.exists() and not metrics.exists()


@pytest.mark.parametrize("command, flag", [("meanshift", "--max-iter"),
                                           ("audit", "--random-seeds")])
def test_count_flags_above_int64_are_refused_before_fitting(tmp_path, capsys, monkeypatch,
                                                            command, flag):
    # A 20-digit count ended in an uncaught OverflowError, exit 1.
    import skm.cli

    def no_fit(*args, **kwargs):
        raise AssertionError(f"{command} fitted before {flag} was checked")

    for name in ("fit", "full_mean", "mean_shift_all"):
        monkeypatch.setattr(skm.cli, name, no_fit)
    x = synth_csv(tmp_path, dataset="blobs2", n=40)
    out = tmp_path / "out.csv"
    argv = {"meanshift": ["meanshift", "--input", str(x), "--sigma", "0.8",
                          "--out-labels", str(out)],
            "audit": ["audit", "--input", str(x), "--kernel", "gaussian:sigma=1.0:density",
                      "--kmax", "10", "--out", str(out)]}[command]
    assert main(argv + [flag, "99999999999999999999"]) == 2
    assert (f"{flag} must be at most 9223372036854775807, got 99999999999999999999"
            in capsys.readouterr().err)
    assert not out.exists()


def _sparse_command(tmp_path, command):
    x = synth_csv(tmp_path, dataset="blobs2", n=40)
    y = synth_csv(tmp_path, "y.csv", n=40)
    out = tmp_path / "out"
    return out, {
        "embed": ["embed", str(x), str(x), "--kernel", "gaussian:sigma=1.0", "--out", str(out)],
        "cpe": ["cpe", "--train", str(x), str(y), "--test", str(x), "--sigma", "1.0",
                "--out", str(out)],
        "meanshift": ["meanshift", "--input", str(x), "--sigma", "0.8",
                      "--out-labels", str(out)],
    }[command]


@pytest.mark.parametrize("command", ["embed", "cpe", "meanshift"])
@pytest.mark.parametrize("flag, value", [("--eps", "1e-6"), ("--kmax", "7")])
def test_sparse_fit_flags_without_sparse_are_usage_errors(tmp_path, capsys, command,
                                                          flag, value):
    out, argv = _sparse_command(tmp_path, command)
    assert main(argv + [flag, value]) == 1
    assert f"{flag} applies only with --sparse" in capsys.readouterr().err
    assert not out.exists()
    assert main(argv + [flag, value, "--sparse"]) == 0
    assert out.exists()


@pytest.mark.parametrize("command", ["embed", "cpe", "meanshift"])
@pytest.mark.parametrize("kmax", ["0", "-3"])
def test_sparse_kmax_below_one_returns_two(tmp_path, capsys, command, kmax):
    out, argv = _sparse_command(tmp_path, command)
    assert main(argv + ["--sparse", "--kmax", kmax]) == 2
    assert f"--kmax {kmax} must satisfy 1 <= kmax" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["fit", "embed", "cpe", "cpe-search", "meanshift"])
def test_kmax_refusals_name_the_flag(tmp_path, capsys, command):
    # A --kmax out of a command's range is refused by the flag's name, as audit does.
    if command == "fit":
        x = tmp_path / "four.csv"
        x.write_text("0,0\n1,1\n2,0\n0,2\n")
        out = tmp_path / "m.json"
        argv = ["fit", "--input", str(x), "--kernel", "gaussian:sigma=1.0", "--out", str(out)]
        refusal = "--kmax 0 must satisfy 1 <= kmax <= n=4"
    else:
        out, argv = _sparse_command(tmp_path, command.removesuffix("-search"))
        argv += ["--sparse"]
        if command == "cpe-search":
            argv[argv.index("--sigma"):argv.index("--sigma") + 2] = ["--sigma-search", "0.5,2"]
        refusal = "--kmax 0 must satisfy 1 <= kmax"
    capsys.readouterr()
    assert main(argv + ["--kmax", "0"]) == 2
    err = capsys.readouterr().err
    assert refusal in err and "k_max" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["embed", "cpe", "meanshift"])
def test_sparse_kmax_above_n_is_clipped_to_n(tmp_path, capsys, command):
    # One --kmax for the three commands: a budget above a sample's size
    # fits every point it needs, where `fit --kmax` above n is refused.
    out, argv = _sparse_command(tmp_path, command)
    capsys.readouterr()
    assert main(argv + ["--sparse", "--kmax", "500"]) == 0
    assert out.exists()
    if command == "meanshift":
        stats = stats_doc(capsys)
        assert 1 <= stats["k0"] <= stats["n"] == 40


@pytest.mark.parametrize("omega, message", [
    ("inf", "omega must be positive and finite, got inf"),
    ("1e308", "omega 1e+308 gives a Dirichlet draw off the simplex"),
])
def test_cpe_sigma_search_refuses_an_omega_off_the_simplex(tmp_path, capsys, omega, message):
    out, argv = _sparse_command(tmp_path, "cpe")
    argv[argv.index("--sigma"):argv.index("--sigma") + 2] = ["--sigma-search", "0.1,3"]
    capsys.readouterr()
    assert main(argv + ["--omega", omega]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("omega", ["nan", "-1", "0", "inf"])
def test_cpe_refuses_an_omega_off_zero_to_inf_at_a_fixed_sigma(tmp_path, capsys, omega):
    # Only the bandwidth search reads --omega, so at a fixed --sigma every
    # value exited 0.
    out, argv = _sparse_command(tmp_path, "cpe")
    capsys.readouterr()
    assert main(argv + ["--omega", omega]) == 2
    assert f"--omega must be positive and finite, got {float(omega)}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["embed", "cpe", "meanshift"])
def test_sparse_infinite_eps_returns_two(tmp_path, capsys, command):
    # Every ratio is <= inf, so each fit stopped at 2 points and the
    # command exited 0 (embed with "epsilon": Infinity in its stats).
    out, argv = _sparse_command(tmp_path, command)
    capsys.readouterr()
    assert main(argv + ["--sparse", "--eps", "inf"]) == 2
    assert "epsilon must be nonnegative and finite, got inf" in capsys.readouterr().err
    assert not out.exists()


def test_embed_sidecar_records_the_epsilon_of_its_fits(tmp_path, capsys):
    out, argv = _sparse_command(tmp_path, "embed")
    for extra, epsilon in (([], None), (["--sparse"], 1e-10), (["--sparse", "--eps", "0"], 0.0)):
        capsys.readouterr()
        assert main(argv + extra) == 0
        assert stats_doc(capsys)["epsilon"] == epsilon


# The error-vs-sparsity benchmark curve is the record of `fit --eps 0 --trace`
# and of `audit`, and `audit --random-seeds` adds the random baseline.

def test_audit_curve_matches_fit_diagnostics(tmp_path):
    x = synth_csv(tmp_path, n=80, seed=3)
    out = tmp_path / "curve.csv"
    rc = main(["audit", "--input", str(x), "--kernel", "gaussian:sigma=1.0",
               "--kmax", "15", "--first", "0", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "m,e,ratio,radius,pivot,residual,nu,bound"
    e_curve = np.array([float(line.split(",")[1]) for line in lines[1:]])

    import skm

    data = load_csv(x)
    spec = skm.parse_kernel_spec("gaussian:sigma=1.0", data.d)
    mean = skm.fit(data, spec, k_max=15, epsilon=0.0, first=0)
    assert_allclose(e_curve, mean.diagnostics.e_trace, rtol=0, atol=0)


def test_audit_curve_is_the_eps_zero_fit_trace(tmp_path):
    # At sigma = 10 the fit stops at an exactly flat step after 19 points;
    # the audit's record stops there too.
    x = tmp_path / "x.csv"
    save_csv(skm.DataSet(np.random.default_rng(23).normal(size=(4000, 2))), x)
    common = ["--input", str(x), "--kernel", "gaussian:sigma=10", "--kmax", "200",
              "--seed", "1"]
    curve, trace = tmp_path / "curve.csv", tmp_path / "trace.csv"
    assert main(["audit", *common, "--out", str(curve)]) == 0
    assert main(["fit", *common, "--eps", "0", "--out", str(tmp_path / "m.json"),
                 "--trace", str(trace)]) == 0
    rows = trace.read_text().splitlines()
    audit_rows = [",".join(line.split(",")[:5]) for line in curve.read_text().splitlines()]
    assert audit_rows == rows and len(rows) == 1 + 19


def test_audit_random_baseline_report(tmp_path, capsys):
    x = synth_csv(tmp_path, dataset="blobs2", n=100, seed=4)
    out = tmp_path / "curve.csv"
    capsys.readouterr()
    rc = main(["audit", "--input", str(x),
               "--kernel", "gaussian:sigma=1.0:density",
               "--kmax", "20", "--random-seeds", "3", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "m,e,ratio,radius,pivot,residual,nu,bound,e_random_mean"
    doc = stats_doc(capsys)
    assert doc["k"] == 20 and doc["seeds"] == [0, 1, 2]
    wall_ms = doc["wall_ms"]
    assert len(wall_ms) == len(lines) - 1 and wall_ms == sorted(wall_ms)
    for key in ("kl_full_sparse_greedy", "kl_sparse_full_greedy",
                "kl_full_sparse_random", "kl_sparse_full_random"):
        assert np.isfinite(doc[key])


def test_audit_with_first_fits_the_greedy_mean_once_for_every_seed(tmp_path, capsys,
                                                                   monkeypatch):
    # One greedy fit for the curve and one, with the density projection,
    # for the KL figures of all three seeds: the seed does not change a
    # fit from a given first point.
    import skm.cli
    fits = []
    fit = skm.cli.fit

    def counted(*args, **kwargs):
        fits.append(kwargs.get("first"))
        return fit(*args, **kwargs)

    monkeypatch.setattr(skm.cli, "fit", counted)
    x = synth_csv(tmp_path, dataset="blobs2", n=100, seed=4)
    out = tmp_path / "curve.csv"
    capsys.readouterr()
    assert main(["audit", "--input", str(x), "--kernel", "gaussian:sigma=1.0:density",
                 "--kmax", "20", "--random-seeds", "3", "--first", "0",
                 "--out", str(out)]) == 0
    assert fits == [0, 0]
    doc = stats_doc(capsys)
    assert doc["seeds"] == [0, 1, 2] and np.isfinite(doc["kl_full_sparse_greedy"])


# ------------------------------------------------------------ stats document

def _command_argv(command, x, y, model, out):
    """An ordinary run of `command`, its data files under `out`, some on stdout."""
    return {
        "synth": ["synth", "--dataset", "banana", "--n", "30", "--out", str(out / "s.csv")],
        "fit": ["fit", "--input", x, "--kernel", "gaussian:sigma=1.0", "--kmax", "10",
                "--out", str(out / "m.json"), "--trace", str(out / "trace.csv")],
        "eval": ["eval", "--model", model, "--queries", x],
        "select": ["select", "--input", x, "--k", "5"],
        "audit": ["audit", "--input", x, "--kernel", "gaussian:sigma=1.0:density",
                  "--kmax", "8", "--random-seeds", "2", "--out", str(out / "audit.csv")],
        "embed": ["embed", x, y, "--kernel", "gaussian:sigma=1.0", "--sparse",
                  "--out", str(out / "d.csv")],
        "cpe": ["cpe", "--train", x, y, "--test", x, "--sigma", "1.0"],
        "meanshift": ["meanshift", "--input", x, "--sigma", "0.8", "--sparse",
                      "--out-labels", str(out / "labels.csv"),
                      "--out-shifted", str(out / "shifted.csv")],
    }[command]


@pytest.mark.parametrize("command", ["synth", "fit", "eval", "select", "audit", "embed",
                                     "cpe", "meanshift"])
def test_every_command_ends_stderr_with_its_stats_document(tmp_path, capsys, command):
    x = str(synth_csv(tmp_path, "x.csv", "blobs2", 40))
    y = str(synth_csv(tmp_path, "y.csv", "blobs2", 40, seed=1))
    model = tmp_path / "model.json"
    assert main(["fit", "--input", x, "--kernel", "gaussian:sigma=1.0",
                 "--out", str(model)]) == 0
    capsys.readouterr()
    outputs = []
    for run in ("a", "b"):
        out = tmp_path / run
        out.mkdir()
        assert main(_command_argv(command, x, y, str(model), out)) == 0
        captured = capsys.readouterr()
        doc = json.loads(captured.err.splitlines()[-1])
        assert isinstance(doc, dict) and doc["command"] == command
        assert doc["backend"] == skm.BACKEND and doc["seconds"] > 0
        files = [path.read_text() for path in sorted(out.iterdir())]
        timings = [key for key in doc if key in ("seconds", "wall_ms") or key.endswith("_s")]
        for text in [captured.out, *files]:
            assert not any(key in text for key in timings + ["timings"]), text
        outputs.append((captured.out, files))
    # A timing would differ between two runs; the data written do not.
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("command", ["synth", "fit", "eval", "select", "audit", "embed",
                                     "cpe", "meanshift"])
def test_a_negative_seed_is_refused_by_name(tmp_path, capsys, command):
    # numpy's own refusal, "expected non-negative integer", named no flag.
    x = str(synth_csv(tmp_path, "x.csv", "blobs2", 40))
    y = str(synth_csv(tmp_path, "y.csv", "blobs2", 40, seed=1))
    model = tmp_path / "model.json"
    assert main(["fit", "--input", x, "--kernel", "gaussian:sigma=1.0",
                 "--out", str(model)]) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    out.mkdir()
    assert main(_command_argv(command, x, y, str(model), out) + ["--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert "--seed must be at least 0, got -1" in captured.err
    assert captured.out == "" and not any(out.iterdir())


def test_module_fit_writes_only_the_stats_document_to_stderr(tmp_path):
    x = synth_csv(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "skm.cli", "fit", "--input", str(x),
         "--kernel", "gaussian:sigma=1.0", "--kmax", "10", "--out", str(tmp_path / "m.json")],
        capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")
    doc = json.loads(proc.stderr)
    assert set(doc) == {"command", "backend", "seconds", "n", "d", "k0", "stop", "fit_s"}
    assert (doc["command"], doc["n"], doc["d"], doc["k0"]) == ("fit", 120, 2, 10)


# ------------------------------------------------------------------ exit codes

def test_usage_error_returns_one(capsys):
    assert main(["fit", "--input", "x.csv"]) == 1  # missing required flags
    assert main(["nonsense"]) == 1
    assert "error" in capsys.readouterr().err


def test_conflicting_sigma_flags_return_one(tmp_path, capsys):
    rc = main(["cpe", "--train", "a.csv", "b.csv", "--test", "t.csv",
               "--sigma", "1.0", "--sigma-search", "0.1,1.0"])
    assert rc == 1


@pytest.mark.parametrize("iters", ["1", "0", "-5"])
def test_cpe_search_iters_below_two_returns_two(tmp_path, capsys, iters):
    from skm.dataio import DataSet

    rng = np.random.default_rng(3)
    trains = []
    for i, center in enumerate((-4.0, 4.0)):
        path = tmp_path / f"t{i}.csv"
        save_csv(DataSet(center + 0.5 * rng.standard_normal((40, 1))), path)
        trains.append(str(path))
    test_path = tmp_path / "test.csv"
    save_csv(DataSet(rng.standard_normal((20, 1))), test_path)
    out = tmp_path / "pi.json"
    rc = main(["cpe", "--train", *trains, "--test", str(test_path),
               "--sigma-search", "0.2,5.0", "--search-iters", iters, "--out", str(out)])
    assert rc == 2
    assert "max_iter must be an integer with max_iter >= 2" in capsys.readouterr().err
    assert not out.exists()


def test_missing_file_returns_two(tmp_path, capsys):
    rc = main(["fit", "--input", str(tmp_path / "nope.csv"),
               "--kernel", "gaussian:sigma=1.0", "--out", str(tmp_path / "m.json")])
    assert rc == 2


def test_bad_kernel_returns_two(tmp_path, capsys):
    x = synth_csv(tmp_path)
    rc = main(["fit", "--input", str(x), "--kernel", "gaussian:sigma=-1",
               "--out", str(tmp_path / "m.json")])
    assert rc == 2


@pytest.mark.parametrize("kernel", [
    "gaussian:sigma=1e-300", "gaussian:sigma=1e200:l2:density",
    "student:alpha=2:beta=1e-320:density", "laplacian:gamma=1e-310",
    "gaussian:sigma=1e-160", "gaussian:sigma=inf",
])
def test_kernel_parameters_that_overflow_return_two(tmp_path, capsys, kernel):
    x = synth_csv(tmp_path)
    model = tmp_path / "m.json"
    capsys.readouterr()
    rc = main(["fit", "--input", str(x), "--kernel", kernel, "--out", str(model)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not model.exists()


def test_fit_nan_eps_returns_two(tmp_path, capsys):
    x = synth_csv(tmp_path)
    model = tmp_path / "m.json"
    rc = main(["fit", "--input", str(x), "--kernel", "gaussian:sigma=1.0", "--eps", "nan",
               "--out", str(model)])
    assert rc == 2
    assert "epsilon must be nonnegative" in capsys.readouterr().err
    assert not model.exists()


def test_fit_infinite_eps_returns_two(tmp_path, capsys):
    # The fit stopped at 2 points and save_model failed on the inf.
    x = synth_csv(tmp_path)
    model = tmp_path / "m.json"
    rc = main(["fit", "--input", str(x), "--kernel", "gaussian:sigma=1.0", "--eps", "inf",
               "--out", str(model)])
    assert rc == 2
    assert "epsilon must be nonnegative and finite, got inf" in capsys.readouterr().err
    assert not model.exists()


def test_kmax_too_large_returns_two(tmp_path, capsys):
    x = synth_csv(tmp_path, n=30)
    rc = main(["audit", "--input", str(x), "--kernel", "gaussian:sigma=1.0",
               "--kmax", "400"])
    assert rc == 2


@pytest.mark.parametrize("kmax", ["0", "-3"])
def test_audit_kmax_below_one_returns_two(tmp_path, capsys, kmax):
    x = synth_csv(tmp_path, n=30)
    out = tmp_path / "curve.csv"
    rc = main(["audit", "--input", str(x), "--kernel", "gaussian:sigma=1.0",
               "--kmax", kmax, "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    assert "kmax" in capsys.readouterr().err


def test_audit_one_point_file_defaults_to_one_support_point(tmp_path):
    x = tmp_path / "one.csv"
    x.write_text("0.5,1.5\n")
    out = tmp_path / "audit.csv"
    rc = main(["audit", "--input", str(x), "--kernel", "gaussian:sigma=1.0",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    assert lines[1].split(",")[0] == "1"
    # The support is every point: nu = C and the bound is 0.
    assert lines[1].split(",")[-2:] == ["1.0", "0.0"]


def test_audit_random_seeds_needs_kmax(tmp_path, capsys):
    x = synth_csv(tmp_path, dataset="blobs2", n=40)
    out = tmp_path / "audit.csv"
    rc = main(["audit", "--input", str(x), "--kernel", "gaussian:sigma=1.0:density",
               "--random-seeds", "2", "--out", str(out)])
    assert rc == 1
    assert "--random-seeds needs --kmax" in capsys.readouterr().err
    assert not out.exists()


def test_audit_refuses_negative_random_seeds(tmp_path, capsys):
    # -3 ran the audit without the baseline it asked for and exited 0.
    x = synth_csv(tmp_path, dataset="blobs2", n=40)
    out = tmp_path / "audit.csv"
    rc = main(["audit", "--input", str(x), "--kernel", "gaussian:sigma=1.0:density",
               "--kmax", "10", "--random-seeds", "-3", "--out", str(out)])
    assert rc == 2
    assert "--random-seeds must be at least 0, got -3" in capsys.readouterr().err
    assert not out.exists()


def test_audit_point_guard_covers_the_random_baseline(tmp_path, capsys):
    x = synth_csv(tmp_path, dataset="blobs2", n=40)
    out = tmp_path / "audit.csv"
    rc = main(["audit", "--input", str(x), "--kernel", "gaussian:sigma=1.0:density",
               "--kmax", "10", "--random-seeds", "2", "--max-points", "39",
               "--out", str(out)])
    assert rc == 2
    assert "--max-points=39" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------- determinism

def test_same_seed_gives_byte_identical_outputs(tmp_path):
    x = synth_csv(tmp_path, n=90, seed=7)
    outs = []
    for tag in ("a", "b"):
        model = tmp_path / f"m_{tag}.json"
        values = tmp_path / f"v_{tag}.csv"
        main(["fit", "--input", str(x), "--kernel", "gaussian:sigma=0.9:density",
              "--kmax", "25", "--density", "--seed", "5", "--out", str(model)])
        main(["eval", "--model", str(model), "--queries", str(x),
              "--out", str(values)])
        outs.append((model.read_bytes(), values.read_bytes()))
    assert outs[0] == outs[1]


def test_console_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "skm.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "usage" in proc.stdout.lower()
