import csv
import errno
import hashlib
import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from profile_shift import (
    ParseError,
    ThetaStepper,
    TimeGrid,
    Trajectory,
    UnknownCase,
    ValidationError,
    _forked,
    box2d,
    build_grid,
    dense_propagator,
    drift,
    heat,
    interval,
    normalize,
    solve_profile_shift,
)
from profile_shift.cli import (
    _write_trajectory_csv,
    config_from_dict,
    main,
    parse_config,
    run,
)
from profile_shift.fredholm import DENSE_CAP, _dense_spectrum
from profile_shift.validation import check_fixed_shift, check_random_shifts
import profile_shift
import profile_shift.cli as cli
import profile_shift.fredholm as fredholm
import profile_shift.operators as operators
import profile_shift.propagator as propagator

PI = math.pi


def base_config(**overrides):
    data = {
        "domain": {"dimension": 1, "box": [[0.0, PI]]},
        "resolution": 63,
        "T": 1.0,
        "N_t": 64,
        "theta": 1.0,
        "gamma": {"eigenfunction": 1},
    }
    data.update(overrides)
    return data


def write_config(tmp_path, name="config.json", **overrides):
    data = base_config(**overrides)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def sequential_csvs(cfg, directory):
    """The solve's CSVs as _write_trajectory_csv writes them here, one after the other."""
    result = solve_profile_shift(
        cfg.shift, cfg.coeffs, cfg.grid, cfg.timegrid, cfg.advection_mode,
        tol=cfg.tol, max_iter=cfg.max_iter, restart=cfg.restart,
    )
    directory.mkdir()
    _write_trajectory_csv(directory / "trajectory.csv", result.trajectory, cfg.slice_stride)
    if result.normalized is not None:
        _write_trajectory_csv(
            directory / "normalized_trajectory.csv", result.normalized, cfg.slice_stride
        )
    return directory


def assert_manifest_on_disk(bundle):
    """metadata.json lists the bundle's files in order, each with the SHA-256 of its bytes."""
    out = Path(bundle.out_dir)
    meta = json.loads((out / "metadata.json").read_text())
    assert list(meta["files"].items()) == list(bundle.files.items())
    for name, digest in bundle.files.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


@pytest.fixture
def forks(monkeypatch, forkable):
    """Record the file name of every CSV a forked writer is started for, on two cores.

    A child's work is ``functools.partial(_csv_entry, path, ...)``.
    """
    started = []
    start = multiprocessing.context.ForkProcess.start

    def recorded(process):
        work, _ = process._args
        started.append(work.args[0].name)
        start(process)

    monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", recorded)
    return started


class TestParseConfig:
    def test_defaults(self, tmp_path):
        path = tmp_path / "minimal.json"
        path.write_text(json.dumps({
            "domain": {"dimension": 1, "box": [[0.0, PI]]},
            "resolution": 31,
        }))
        cfg = parse_config(path)
        assert cfg.timegrid == TimeGrid(T=1.0, steps=256, theta=1.0)
        assert cfg.advection_mode == "upwind"
        assert cfg.coefficients == {"preset": "heat"}
        assert cfg.gamma == {"eigenfunction": 1}
        assert cfg.shift.nonneg is True
        assert cfg.tol == 1e-10
        assert cfg.max_iter == 200
        assert cfg.restart == 50
        assert cfg.out_dir == "out"
        assert cfg.slice_stride == 1

    def test_scalar_resolution_broadcasts(self):
        cfg = config_from_dict({
            "domain": {"dimension": 2, "box": [[0.0, PI], [0.0, PI]]},
            "resolution": 15,
        })
        assert cfg.grid.shape == (15, 15)

    def test_round_trip_through_to_dict(self):
        mask = [[1, 1, 1], [1, 0, 1], [1, 1, 1]]
        cfg = config_from_dict({
            "domain": {"dimension": 2, "box": [[0.0, PI], [0.0, 2.0]], "mask": mask},
            "resolution": [3, 3],
            "T": 0.5,
            "N_t": 32,
            "theta": 0.5,
            "advection_mode": "centered",
            "coefficients": {"preset": "drift", "velocity": [1.0, -2.0], "absorption": 0.5},
            "gamma": {"indicator": {"box": [[0.5, 1.0], [0.5, 1.0]], "value": 2.0},
                      "nonneg": True},
            "solver": {"tol": 1e-8, "max_iter": 50, "restart": 10},
            "outputs": {"directory": "results", "slice_stride": 4},
        })
        echoed = cfg.to_dict()
        assert config_from_dict(echoed).to_dict() == echoed

    @pytest.mark.parametrize("kind", ["tabulated", "masked", "preset"])
    def test_echo_is_json_native(self, kind):
        # metadata.json dumps a JSON-native echo as it is, without walking
        # its tables through _jsonable, which would leave it unchanged.
        data = base_config(resolution=5, gamma={"table": [0.5, 1.0, 2.0, 1.0, 0.5]})
        if kind == "tabulated":
            data["coefficients"] = {"tabulated": {
                "a": [[[1.0 + 0.1 * i]] for i in range(5)], "f": [[0.5]] * 5,
                "q": [0.0, 0.1, 0.2, 0.3, 0.4], "delta": 1.0,
            }}
        elif kind == "masked":
            mask = [[1, 1, 1], [1, 0, 1], [1, 1, 1]]
            data = base_config(
                domain={"dimension": 2, "box": [[0.0, PI], [0.0, 2.0]], "mask": mask},
                resolution=[3, 3], coefficients={"preset": "absorb", "rate": 2},
                gamma={"indicator": {"box": [[0.5, 2.0], [0.0, 1.0]]}},
            )
        echoed = config_from_dict(data).to_dict()
        assert cli._jsonable(echoed) == echoed

    @staticmethod
    def json_objects():
        """A JSON-native echo, one with numpy tables, a numpy dict and a dataclass."""
        echo = config_from_dict(base_config()).to_dict()
        with_tables = {**echo, "gamma": {
            "table": np.linspace(0.0, 1.0, 63), "nonneg": np.bool_(True),
        }}
        return [
            echo, with_tables,
            {"z": np.arange(3.0), "n": np.int64(2), "t": (1, 2.5)}, TimeGrid(T=1.0, steps=4),
        ]

    def test_jsonable_gives_json_native_values(self):
        # _jsonable maps numpy values, dataclasses and non-finite floats to
        # JSON-native ones; run hands _write_json the report through it.
        with_tables = self.json_objects()[1]
        assert cli._jsonable(with_tables)["gamma"] == {
            "table": np.linspace(0.0, 1.0, 63).tolist(), "nonneg": True,
        }
        native = cli._jsonable({"z": np.arange(3.0), "n": np.int64(2), "t": (1, 2.5)})
        assert native == {"z": [0.0, 1.0, 2.0], "n": 2, "t": [1, 2.5]}
        assert type(native["n"]) is int
        assert cli._jsonable(TimeGrid(T=1.0, steps=4)) == {"T": 1.0, "steps": 4, "theta": 1.0}
        assert cli._jsonable({"rho": math.inf, "nan": math.nan}) == {"rho": "inf", "nan": "nan"}

    def test_report_json_bytes_are_the_indented_dump(self, tmp_path):
        # report.json is read by people: indented by two spaces, and hashed
        # from the bytes written
        path = tmp_path / "report.json"
        for obj in self.json_objects():
            digest = cli._write_json(path, obj, indent=2)
            data = (json.dumps(cli._jsonable(obj), indent=2) + "\n").encode()
            assert path.read_bytes() == data
            assert digest == hashlib.sha256(data).hexdigest()
        bundle = run(config_from_dict(base_config(
            outputs={"directory": str(tmp_path / "out")}
        )), "solve", quiet=True)
        data = (tmp_path / "out" / "report.json").read_bytes()
        assert data == (json.dumps(bundle.report, indent=2) + "\n").encode()

    def test_metadata_json_bytes_are_the_unindented_dump(self, tmp_path):
        # _write_json without indent dumps one line through json's C
        # encoder; it calls _jsonable only on what json cannot encode, and
        # refuses non-finite floats
        path = tmp_path / "metadata.json"
        for obj in self.json_objects():
            digest = cli._write_json(path, obj)
            data = (json.dumps(cli._jsonable(obj)) + "\n").encode()
            assert path.read_bytes() == data
            assert digest == hashlib.sha256(data).hexdigest()
        for indent in (None, 2):
            with pytest.raises(ValueError):
                cli._write_json(path, {"rho": math.inf}, indent=indent)
        run(config_from_dict(base_config(
            outputs={"directory": str(tmp_path / "out")}
        )), "solve", quiet=True)
        text = (tmp_path / "out" / "metadata.json").read_text()
        assert text.count("\n") == 1 and text == json.dumps(json.loads(text)) + "\n"

    def test_config_dict_with_numpy_tables_runs(self, tmp_path):
        # config_from_dict takes numpy tables where JSON has lists; the
        # metadata echo holds them and is written as lists.
        out = tmp_path / "out"
        data = base_config(
            resolution=5, N_t=8, gamma={"table": [0.5, 1.0, 2.0, 1.0, 0.5]},
            coefficients={"tabulated": {"a": np.ones((5, 1, 1)), "q": np.zeros(5)}},
            outputs={"directory": str(out)},
        )
        assert run(config_from_dict(data), "solve", quiet=True).passed
        echo = json.loads((out / "metadata.json").read_text())["config"]["coefficients"]
        assert echo == {"tabulated": {"a": [[[1.0]]] * 5, "q": [0.0] * 5}}

    def test_theta_out_of_range(self, tmp_path):
        path = write_config(tmp_path, theta=0.3)
        with pytest.raises(ValidationError):
            parse_config(path)

    def test_gamma_must_pick_one_form(self):
        with pytest.raises(ValidationError):
            config_from_dict(base_config(
                gamma={"eigenfunction": 1, "table": [1.0] * 63}
            ))

    def test_unknown_top_level_field(self):
        with pytest.raises(ValidationError):
            config_from_dict(base_config(horizon=2.0))

    def test_unknown_domain_field(self):
        with pytest.raises(ValidationError):
            config_from_dict(base_config(
                domain={"dimension": 1, "box": [[0.0, PI]], "holes": []}
            ))

    def test_degenerate_box(self):
        with pytest.raises(ValidationError):
            config_from_dict(base_config(domain={"dimension": 1, "box": [[1.0, 1.0]]}))

    def test_mask_requires_matching_shape(self):
        data = base_config(
            domain={"dimension": 2, "box": [[0.0, PI], [0.0, PI]],
                    "mask": [[1, 1], [1, 1]]},
            resolution=[3, 3],
        )
        with pytest.raises(ValidationError, match="mask shape"):
            config_from_dict(data)

    def test_invalid_json_reports_location(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"domain": }')
        with pytest.raises(ParseError, match="line 1"):
            parse_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            parse_config(tmp_path / "nope.json")

    def test_tabulated_and_preset_conflict(self):
        with pytest.raises(ValidationError):
            config_from_dict(base_config(
                coefficients={"preset": "heat", "tabulated": {"a": [[1.0]]}}
            ))


class TestGammaVector:
    def grid(self, m=63):
        return build_grid(interval(0.0, PI), [m])

    def test_first_eigenfunction(self):
        grid = self.grid()
        cfg = config_from_dict(base_config())
        assert cfg.shift.gamma == pytest.approx(
            np.sin(grid.coordinates()[:, 0])
        )

    def test_eigenfunction_respects_box_offset(self):
        grid = build_grid(interval(2.0, 5.0), [31])
        cfg = config_from_dict(base_config(
            domain={"dimension": 1, "box": [[2.0, 5.0]]},
            resolution=31,
            gamma={"eigenfunction": 2},
        ))
        x = grid.coordinates()[:, 0]
        assert cfg.shift.gamma == pytest.approx(
            np.sin(2.0 * PI * (x - 2.0) / 3.0)
        )

    def test_product_eigenfunction_2d(self):
        from profile_shift import box2d

        grid = build_grid(box2d(), [7, 7])
        cfg = config_from_dict({
            "domain": {"dimension": 2, "box": [[0.0, PI], [0.0, PI]]},
            "resolution": [7, 7],
            "gamma": {"eigenfunction": [1, 2]},
        })
        coords = grid.coordinates()
        assert cfg.shift.gamma == pytest.approx(
            np.sin(coords[:, 0]) * np.sin(2.0 * coords[:, 1])
        )

    def test_indicator(self):
        grid = self.grid()
        cfg = config_from_dict(base_config(
            gamma={"indicator": {"box": [[1.0, 2.0]], "value": 3.0}}
        ))
        x = grid.coordinates()[:, 0]
        expected = np.where((x >= 1.0) & (x <= 2.0), 3.0, 0.0)
        assert cfg.shift.gamma == pytest.approx(expected)

    def test_table_passthrough_and_length_check(self):
        values = [0.1, 0.2, 0.3, 0.4, 0.5]
        cfg = config_from_dict(base_config(resolution=5, gamma={"table": values}))
        assert cfg.shift.gamma == pytest.approx(values)
        with pytest.raises(ValidationError, match="interior nodes"):
            config_from_dict(base_config(resolution=5, gamma={"table": [1.0, 2.0]}))


class TestBuildShift:
    def test_autodetect_nonneg(self):
        cfg = config_from_dict(base_config())
        assert cfg.shift.nonneg is True

    def test_autodetect_mixed_sign(self):
        cfg = config_from_dict(base_config(gamma={"eigenfunction": 2}))
        assert cfg.shift.nonneg is False

    def test_explicit_nonneg_conflicts_with_negative_gamma(self):
        with pytest.raises(ValidationError):
            config_from_dict(base_config(
                gamma={"eigenfunction": 2, "nonneg": True}
            ))


class TestSolveCommand:
    def test_exit_zero_and_artifacts(self, tmp_path, capsys):
        path = write_config(tmp_path, outputs={"directory": str(tmp_path / "out")})
        assert main(["solve", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "solve:" in out and "-> ok" in out
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["command"] == "solve"
        assert report["passed"] is True
        assert report["relative_residual"] <= 1e-10
        history = report["residual_history"]
        assert len(history) == report["iterations"] >= 1 and history[-1] <= 1e-10
        # sin x is an eigenvector of A_h, so plain GMRES takes one iteration
        # and no projector is built.
        assert report["deflated_modes"] == 0 and report["iterations"] == 1
        assert report["checks"]["fixed_shift"]["passed"] is True
        assert report["checks"]["mass"]["defect"] <= 1e-12
        assert (tmp_path / "out" / "trajectory.csv").exists()
        assert (tmp_path / "out" / "normalized_trajectory.csv").exists()

    def test_csv_columns_reproduce_the_shift(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, outputs={"directory": str(out)})
        assert main(["solve", "--config", str(path), "--quiet"]) == 0
        with open(out / "trajectory.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        header, body = rows[0], rows[1:]
        assert header[0] == "x"
        assert float(header[1]) == 0.0
        assert float(header[-1]) == 1.0
        assert len(body) == 63
        x = np.array([float(r[0]) for r in body])
        initial = np.array([float(r[1]) for r in body])
        terminal = np.array([float(r[-1]) for r in body])
        # the fixed-shift identity survives the round trip through text
        assert initial - terminal == pytest.approx(np.sin(x), abs=1e-9)

    def test_slice_stride_thins_columns_but_keeps_endpoints(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(
            tmp_path, outputs={"directory": str(out), "slice_stride": 10}
        )
        assert main(["solve", "--config", str(path), "--quiet"]) == 0
        with open(out / "trajectory.csv", newline="") as fh:
            header = next(csv.reader(fh))
        # N_t=64: slices 0,10,...,60 plus the forced final slice
        assert len(header) == 1 + 8
        assert float(header[1]) == 0.0
        assert float(header[-1]) == 1.0

    def test_trajectory_csv_matches_csv_writer_rendering(self, tmp_path, rng):
        # 49 rows span a partial block; 8 slices at stride 3 keep 0, 3, 6
        # and the forced final slice 7
        grid = build_grid(box2d(), [7, 7])
        timegrid = TimeGrid(T=1.0, steps=7)
        marched = ThetaStepper(heat(2), grid, timegrid).run(
            rng.standard_normal(grid.size), keep=True
        )
        traj = Trajectory(marched, grid, timegrid)
        path = tmp_path / "trajectory.csv"
        _write_trajectory_csv(path, traj, 3)

        expected = tmp_path / "expected.csv"
        keep = [0, 3, 6, 7]
        coords = grid.coordinates()
        with open(expected, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x", "y"] + [f"{traj.times[k]:.17g}" for k in keep])
            for i in range(grid.size):
                writer.writerow(
                    [f"{c:.17g}" for c in coords[i]]
                    + [f"{traj.values[k, i]:.17g}" for k in keep]
                )
        assert path.read_bytes() == expected.read_bytes()

    def test_concurrent_csvs_equal_sequential_writes(self, tmp_path, forks):
        # 63 rows leave a partial last block; stride 5 over 64 steps keeps
        # 0, 5, ..., 60 and the forced final slice
        out = tmp_path / "out"
        cfg = config_from_dict(base_config(outputs={"directory": str(out), "slice_stride": 5}))
        bundle = run(cfg, "solve", quiet=True)
        assert forks == ["normalized_trajectory.csv"]
        assert list(bundle.files) == [
            "report.json", "trajectory.csv", "normalized_trajectory.csv"
        ]
        assert_manifest_on_disk(bundle)
        expected = sequential_csvs(cfg, tmp_path / "expected")
        for name in ("trajectory.csv", "normalized_trajectory.csv"):
            assert (out / name).read_bytes() == (expected / name).read_bytes(), name

    @pytest.mark.parametrize("blocked", ["trajectory.csv", "normalized_trajectory.csv"],
                             ids=["in-process", "in-child"])
    def test_unwritable_csv_raises_and_the_other_is_complete(
        self, tmp_path, capfd, forks, blocked
    ):
        # a directory in a CSV's place fails its writer, in this process or
        # in the forked child; either way the error names the file and its
        # cause, and the other file is still written in full
        out = tmp_path / "out"
        (out / blocked).mkdir(parents=True)
        cfg = config_from_dict(base_config(outputs={"directory": str(out)}))
        message = f"[Errno {errno.EISDIR}] Is a directory: '{out / blocked}'"
        with pytest.raises(OSError, match=re.escape(message)) as info:
            run(cfg, "solve", quiet=True)
        assert info.value.errno == errno.EISDIR
        assert forks == ["normalized_trajectory.csv"]
        assert multiprocessing.active_children() == []
        # the child exits without a traceback of its own
        assert capfd.readouterr().err == ""
        expected = sequential_csvs(cfg, tmp_path / "expected")
        (other,) = {"trajectory.csv", "normalized_trajectory.csv"} - {blocked}
        assert (out / other).read_bytes() == (expected / other).read_bytes()

    def test_childs_error_is_raised_by_this_process(self, tmp_path, capfd, forks, monkeypatch):
        # a child that fails writes nothing back: this process writes its
        # file again and raises the error of a write one after the other
        write = cli._write_trajectory_csv

        def failing(path, trajectory, stride):
            if path.name == "normalized_trajectory.csv":
                raise OSError(f"no errno, pid {os.getpid()}")
            return write(path, trajectory, stride)

        monkeypatch.setattr(cli, "_write_trajectory_csv", failing)
        cfg = config_from_dict(base_config(outputs={"directory": str(tmp_path / "out")}))
        with pytest.raises(OSError, match=rf"^no errno, pid {os.getpid()}$"):
            run(cfg, "solve", quiet=True)
        assert forks == ["normalized_trajectory.csv"]
        assert capfd.readouterr().err == ""

    def test_csv_of_a_failed_child_is_written_and_hashed_here(
        self, tmp_path, capfd, forks, monkeypatch
    ):
        # the child leaves a partial file and fails; this process writes the
        # file again, and the manifest holds the digest of what it wrote
        write = cli._write_trajectory_csv
        parent = os.getpid()

        def failing(path, trajectory, stride):
            if os.getpid() != parent:
                path.write_bytes(b"x,y\r\n")
                raise OSError("the child's write fails")
            return write(path, trajectory, stride)

        monkeypatch.setattr(cli, "_write_trajectory_csv", failing)
        out = tmp_path / "out"
        cfg = config_from_dict(base_config(outputs={"directory": str(out)}))
        bundle = run(cfg, "solve", quiet=True)
        assert forks == ["normalized_trajectory.csv"]
        assert capfd.readouterr().err == ""
        assert_manifest_on_disk(bundle)
        expected = sequential_csvs(cfg, tmp_path / "expected")
        for name in ("trajectory.csv", "normalized_trajectory.csv"):
            assert (out / name).read_bytes() == (expected / name).read_bytes(), name

    def test_daemonic_worker_writes_both_csvs(self, tmp_path):
        # a multiprocessing.Pool worker may not have children: it writes the
        # CSVs one after the other
        out = tmp_path / "out"
        path = write_config(tmp_path, outputs={"directory": str(out)})
        with multiprocessing.get_context("fork").Pool(1) as pool:
            code = pool.apply(main, (["solve", "--config", str(path), "--quiet"],))
            pool.close()
            pool.join()
        assert code == 0
        expected = sequential_csvs(parse_config(path), tmp_path / "expected")
        for name in ("trajectory.csv", "normalized_trajectory.csv"):
            assert (out / name).read_bytes() == (expected / name).read_bytes(), name

    def test_csv_child_that_blocks_forever_is_killed_and_its_file_written_here(
        self, tmp_path, forks, monkeypatch
    ):
        write = cli._write_trajectory_csv
        parent = os.getpid()

        def blocking(path, trajectory, stride):
            if os.getpid() != parent:
                threading.Event().wait()
            return write(path, trajectory, stride)

        monkeypatch.setattr(cli, "_write_trajectory_csv", blocking)
        monkeypatch.setattr(_forked, "CHILD_MIN_WAIT_S", 0.2)
        out = tmp_path / "out"
        cfg = config_from_dict(base_config(outputs={"directory": str(out)}))
        began = time.monotonic()
        bundle = run(cfg, "solve", quiet=True)
        assert time.monotonic() - began < 5.0
        assert forks == ["normalized_trajectory.csv"]
        assert_manifest_on_disk(bundle)
        expected = sequential_csvs(cfg, tmp_path / "expected")
        for name in ("trajectory.csv", "normalized_trajectory.csv"):
            assert (out / name).read_bytes() == (expected / name).read_bytes(), name

    @pytest.mark.parametrize("where", ["start-raises", "not-linux", "one-process"])
    def test_csvs_are_written_here_where_no_child_starts(
        self, tmp_path, monkeypatch, forkable, where
    ):
        started = []

        def start(process):
            started.append(process)
            raise OSError(errno.EAGAIN, "no process to spare")

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", start)
        if where == "not-linux":
            monkeypatch.setattr(sys, "platform", "darwin")
        elif where == "one-process":
            monkeypatch.setattr(_forked, "processes", lambda: 1)
        out = tmp_path / "out"
        cfg = config_from_dict(base_config(outputs={"directory": str(out)}))
        bundle = run(cfg, "solve", quiet=True)
        assert len(started) == (1 if where == "start-raises" else 0)
        assert list(bundle.files) == [
            "report.json", "trajectory.csv", "normalized_trajectory.csv"
        ]
        assert_manifest_on_disk(bundle)
        expected = sequential_csvs(cfg, tmp_path / "expected")
        for name in ("trajectory.csv", "normalized_trajectory.csv"):
            assert (out / name).read_bytes() == (expected / name).read_bytes(), name

    def test_signed_gamma_starts_no_process(self, tmp_path, forks):
        out = tmp_path / "out"
        cfg = config_from_dict(base_config(
            gamma={"eigenfunction": 2}, outputs={"directory": str(out)}
        ))
        bundle = run(cfg, "solve", quiet=True)
        assert forks == []
        assert list(bundle.files) == ["report.json", "trajectory.csv"]
        assert_manifest_on_disk(bundle)
        expected = sequential_csvs(cfg, tmp_path / "expected")
        assert (out / "trajectory.csv").read_bytes() == (expected / "trajectory.csv").read_bytes()

    def test_metadata_manifest_hashes_match(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, outputs={"directory": str(out)})
        assert main(["solve", "--config", str(path), "--quiet"]) == 0
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["package"] == "profile-shift"
        assert meta["version"] == profile_shift.__version__
        assert meta["command"] == "solve"
        assert set(meta["files"]) == {
            "report.json", "trajectory.csv", "normalized_trajectory.csv"
        }
        for name, digest in meta["files"].items():
            actual = hashlib.sha256((out / name).read_bytes()).hexdigest()
            assert actual == digest, name
        cfg = parse_config(path)
        assert meta["config"] == cfg.to_dict()

    @pytest.mark.parametrize("rows", [1, 5])
    def test_csvs_are_hashed_block_by_block(self, tmp_path, monkeypatch, rows):
        # Each block of rows updates the digest as it is written.  One row a
        # block, or five (the 63 rows leave a partial last block), gives the
        # bytes of the default block size, and each digest is the file's.
        cfg = config_from_dict(base_config(outputs={"directory": str(tmp_path / "out")}))
        expected = sequential_csvs(cfg, tmp_path / "expected")
        monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", rows)
        bundle = run(cfg, "solve", quiet=True)
        assert_manifest_on_disk(bundle)
        for name in ("trajectory.csv", "normalized_trajectory.csv"):
            assert (tmp_path / "out" / name).read_bytes() == (expected / name).read_bytes()

    def test_runs_are_deterministic(self, tmp_path):
        path = write_config(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["solve", "--config", str(path), "--out", str(a), "--quiet"]) == 0
        assert main(["solve", "--config", str(path), "--out", str(b), "--quiet"]) == 0
        assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
        assert (a / "trajectory.csv").read_bytes() == (b / "trajectory.csv").read_bytes()

    def test_out_flag_overrides_config(self, tmp_path):
        path = write_config(tmp_path, outputs={"directory": str(tmp_path / "ignored")})
        target = tmp_path / "elsewhere"
        assert main(["solve", "--config", str(path), "--out", str(target), "--quiet"]) == 0
        assert (target / "report.json").exists()
        assert not (tmp_path / "ignored").exists()

    def test_quiet_suppresses_summary(self, tmp_path, capsys):
        path = write_config(tmp_path, outputs={"directory": str(tmp_path / "out")})
        assert main(["solve", "--config", str(path), "--quiet"]) == 0
        assert capsys.readouterr().out == ""

    def test_python_m_profile_shift_runs_cleanly(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, outputs={"directory": str(out)})
        source = os.path.dirname(os.path.dirname(profile_shift.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [source, os.environ.get("PYTHONPATH")])
        )}
        done = subprocess.run(
            [sys.executable, "-m", "profile_shift", "solve", "--config", str(path)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout.startswith("solve: M=63 ")
        assert (out / "normalized_trajectory.csv").exists()


class TestSummaryLine:
    @pytest.mark.parametrize("command", cli.COMMANDS)
    def test_every_command_prints_its_verdict(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        path = write_config(tmp_path, resolution=15, N_t=16, outputs={"directory": str(out)})
        sweep = {"posedness": "7,15", "convergence": "15,31"}
        flags = ["--resolutions", sweep[command]] if command in sweep else []
        assert main([command, "--config", str(path), *flags]) == 0
        summary, wrote = capsys.readouterr().out.splitlines()
        assert summary.startswith(command) and summary.endswith("-> ok")
        assert wrote == f"wrote {out}/report.json, {out}/metadata.json"


class TestEnvironment:
    def test_thread_variables_are_left_alone(self, tmp_path, monkeypatch):
        # BLAS reads its thread count when numpy is first imported; the CLI
        # rewrites no thread variable after that.
        monkeypatch.setenv("PROFILE_SHIFT_THREADS", "3")
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        path = write_config(tmp_path, outputs={"directory": str(tmp_path / "out")})
        assert main(["solve", "--config", str(path), "--quiet"]) == 0
        assert os.environ["OPENBLAS_NUM_THREADS"] == "1"


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path, capsys):
        path = write_config(tmp_path, theta=0.3)
        assert main(["solve", "--config", str(path)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("command, overrides, field, cause", [
        ("solve", {"T": math.inf}, "T", "finite and positive"),
        ("posedness", {"T": math.inf}, "T", "finite and positive"),
        ("solve", {"domain": {"dimension": 1, "box": [[0.0, math.inf]]}},
         "domain", "finite endpoints"),
        ("solve", {"domain": {"dimension": 2, "box": [[0.0, PI], [0.0, PI]]}, "resolution": 7,
                   "coefficients": {"preset": "anisotropic", "axx": math.nan, "axy": 0.0,
                                    "ayy": 1.0}},
         "coefficients", "coefficient a is not finite"),
        ("solve", {"coefficients": {"preset": "absorb", "rate": math.nan}},
         "coefficients", "absorption rate must be >= 0"),
        ("solve", {"coefficients": {"preset": ["heat"]}}, "unknown coefficient preset", "heat"),
        ("solve", {"coefficients": {"tabulated": {"a": [1.0] * 63}, "rate": 1.0}},
         "unknown coefficients fields", "rate"),
        ("spectrum", {"gamma": {"table": [1.0, 2.0]}}, "gamma.table", "interior nodes"),
        ("solve", {"gamma": {"eigenfunction": 2, "nonneg": True}}, "gamma", "negative entries"),
        ("solve", {"coefficients": {"tabulated": {"a": [1.0] * 63, "delta": math.inf}}},
         "coefficients.tabulated", "finite and positive"),
        ("posedness", {"domain": {"dimension": 2, "box": [[0.0, PI], [0.0, PI]],
                                  "mask": [[1, 1, 1], [1, 0, 1], [1, 1, 1]]},
                       "resolution": 3},
         "domain.mask", "bound to the config's resolution"),
        # from tol >= 1 GMRES would return zeta = 0 after no iteration
        # the echo in metadata.json would hold the bound as "inf", which
        # does not parse again
        ("solve", {"gamma": {"indicator": {"box": [[1.0, math.inf]]}}},
         "gamma.indicator.box", "must have finite endpoints"),
        # inf * 0 outside the box would warn and then blame gamma
        ("solve", {"gamma": {"indicator": {"box": [[1.0, 2.0]], "value": math.inf}}},
         "gamma.indicator.value", "must be finite"),
        ("solve", {"gamma": {"eigenfunction": 2}, "solver": {"tol": 2.0}},
         "solver.tol", "must lie in (0, 1)"),
        ("solve", {"solver": {"tol": 1.0}}, "solver.tol", "must lie in (0, 1)"),
        ("validate", {"gamma": {"eigenfunction": 2}, "solver": {"tol": math.inf}},
         "solver.tol", "must lie in (0, 1)"),
    ], ids=["T-inf-solve", "T-inf-posedness", "box-inf", "axx-nan", "rate-nan", "preset-list",
            "tabulated-extra-field", "table-length-spectrum", "nonneg-conflict", "delta-inf",
            "mask-posedness", "indicator-inf", "indicator-value-inf", "tol-2-solve",
            "tol-1-nonneg-solve", "tol-inf-validate"])
    def test_config_value_error_names_field(self, tmp_path, capsys, command, overrides,
                                            field, cause):
        path = write_config(tmp_path, outputs={"directory": str(tmp_path / "out")}, **overrides)
        assert main([command, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {field}") and cause in err

    @pytest.mark.parametrize("overrides, field", [
        ({"T": 10**400}, "T"),
        ({"resolution": 5, "gamma": {"table": [1.0, 10**400, 1.0, 1.0, 1.0]}},
         "gamma.table entry"),
        ({"resolution": 5, "coefficients": {"tabulated": {"a": [[[1.0]]] * 4 + [[[10**400]]]}}},
         "coefficients.tabulated"),
        ({"domain": {"dimension": 1, "box": [[0.0, 10**400]]}}, "domain.box hi"),
        ({"gamma": {"eigenfunction": 10**400}}, "gamma.eigenfunction"),
    ], ids=["T", "gamma-table", "tabulated", "box", "eigenfunction"])
    def test_integer_beyond_a_double_names_field(self, tmp_path, capsys, overrides, field):
        # json reads a 401-digit literal as an int, which float() cannot take
        path = write_config(tmp_path, outputs={"directory": str(tmp_path / "out")}, **overrides)
        assert main(["solve", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {field}")
        assert err.endswith("int too large to convert to float\n")

    @pytest.mark.parametrize("overrides", [{"N_t": 10**400}, {"T": 1e-320}],
                             ids=["N_t-past-a-double", "T-subnormal"])
    def test_step_below_a_normal_double_names_T_and_N_t(self, tmp_path, capsys, overrides):
        # T / N_t would overflow converting N_t, or march a subnormal step
        # into non-finite values
        path = write_config(tmp_path, outputs={"directory": str(tmp_path / "out")}, **overrides)
        began = time.perf_counter()
        assert main(["solve", "--config", str(path)]) == 2
        assert time.perf_counter() - began < 1.0
        err = capsys.readouterr().err
        assert err.startswith(
            "config error: T, N_t, theta: the step T / N_t is below the least normal double"
        )
        assert err.count("\n") == 1

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("resolution", [7, 63], ids=["norm-bound", "matrix-entries"])
    def test_step_matrix_that_overflows_names_T_and_N_t(self, tmp_path, capsys, resolution):
        # dt ||A_h|| is near 1e308: at 7 nodes the step's norm bound
        # sqrt(||B||_1 ||B||_inf) overflows a double, at 63 its entries do
        path = write_config(
            tmp_path, resolution=resolution, N_t=8, theta=0.5, T=1e308,
            outputs={"directory": str(tmp_path / "out")},
        )
        began = time.perf_counter()
        assert main(["solve", "--config", str(path)]) == 2
        assert time.perf_counter() - began < 1.0
        err = capsys.readouterr().err
        assert err.startswith("config error: T, N_t: a matrix of step 0")
        assert "(T = 1e+308, N_t = 8, dt = 1.25e+307)" in err
        assert err.count("\n") == 1

    def test_integer_beyond_the_digit_limit_is_2(self, tmp_path, capsys):
        # json.loads refuses an integer literal past sys.get_int_max_str_digits()
        path = tmp_path / "config.json"
        path.write_text(json.dumps(base_config()).replace('"T": 1.0', '"T": 1' + "0" * 5000))
        assert main(["solve", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: config {path} cannot be read as JSON")
        assert err.count("\n") == 1

    def test_missing_config_is_2(self, tmp_path):
        assert main(["solve", "--config", str(tmp_path / "absent.json")]) == 2

    def test_bad_resolutions_flag_is_2(self, tmp_path):
        path = write_config(tmp_path)
        code = main(["posedness", "--config", str(path), "--resolutions", "7,x"])
        assert code == 2

    @pytest.mark.parametrize("command", ["posedness", "convergence"])
    def test_empty_resolutions_flag_is_2(self, tmp_path, capsys, command):
        path = write_config(tmp_path, outputs={"directory": str(tmp_path / "out")})
        assert main([command, "--config", str(path), "--resolutions", ","]) == 2
        assert capsys.readouterr().err == (
            "config error: --resolutions names no resolution: ','\n"
        )

    def test_no_convergence_is_3(self, tmp_path, capsys):
        # an eigenfunction shift would converge in one Krylov iteration even
        # here, so use an indicator to make the single restarted step fail
        path = write_config(
            tmp_path,
            T=0.01, N_t=4,
            gamma={"indicator": {"box": [[1.0, 2.0]]}},
            solver={"max_iter": 1, "restart": 1},
            outputs={"directory": str(tmp_path / "out")},
        )
        assert main(["solve", "--config", str(path)]) == 3
        assert "solver error" in capsys.readouterr().err

    def test_failed_check_is_4(self, tmp_path):
        # one Crank-Nicolson step against a sharp indicator overshoots below
        # zero, so the positivity check on the normalized profile fails
        path = write_config(
            tmp_path,
            N_t=1, theta=0.5,
            gamma={"indicator": {"box": [[1.5, 1.65]]}, "nonneg": True},
            outputs={"directory": str(tmp_path / "out")},
        )
        assert main(["solve", "--config", str(path), "--quiet"]) == 4
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["passed"] is False
        assert report["checks"]["positivity"]["violation_count"] >= 1

    def test_non_finite_tabulated_coefficient_is_2(self, tmp_path, capsys):
        q = [0.0] * 9
        q[4] = math.nan  # json writes and reads the NaN literal
        path = write_config(
            tmp_path,
            resolution=9,
            coefficients={"tabulated": {"a": [[[1.0]]] * 9, "q": q}},
            outputs={"directory": str(tmp_path / "out")},
        )
        assert main(["solve", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "q is not finite" in err

    @pytest.mark.parametrize("blocked", [
        "trajectory.csv", "normalized_trajectory.csv", "report.json",
    ])
    def test_unwritable_output_is_6(self, tmp_path, capfd, blocked):
        # one line that names the file, and no traceback from this process
        # or from the forked CSV writer
        out = tmp_path / "out"
        (out / blocked).mkdir(parents=True)
        path = write_config(tmp_path, outputs={"directory": str(out)})
        assert main(["solve", "--config", str(path), "--quiet"]) == 6
        captured = capfd.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"output error: [Errno {errno.EISDIR}] Is a directory: '{out / blocked}'\n"
        )

    def test_oracle_cap_is_5(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            domain={"dimension": 2, "box": [[0.0, PI], [0.0, PI]]},
            resolution=70,
        )
        assert main(["oracle", "--config", str(path)]) == 5
        assert "size cap" in capsys.readouterr().err


class TestOracleCommand:
    def test_agreement_and_qmatrix(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(
            tmp_path, resolution=31,
            coefficients={"preset": "drift", "velocity": [1.5], "absorption": 0.25},
            gamma={"eigenfunction": 2},
            outputs={"directory": str(out)},
        )
        assert main(["oracle", "--config", str(path), "--quiet"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["agreement"] <= 1e-8
        q = np.load(out / "qmatrix.npy")
        assert q.shape == (31, 31)
        assert report["spectral_radius"] < 1.0

    def test_qmatrix_is_hashed_as_np_save_writes_it(self, tmp_path):
        # np.save writes through the hashing writer: the bytes are those of
        # np.save to a path, and the manifest holds their digest
        out = tmp_path / "out"
        cfg = config_from_dict(base_config(
            resolution=15, N_t=16, outputs={"directory": str(out)}
        ))
        bundle = run(cfg, "oracle", quiet=True)
        assert list(bundle.files) == ["report.json", "qmatrix.npy"]
        assert_manifest_on_disk(bundle)
        direct = tmp_path / "direct.npy"
        np.save(direct, np.load(out / "qmatrix.npy"))
        assert (out / "qmatrix.npy").read_bytes() == direct.read_bytes()

    def test_one_stepper_serves_oracle_and_solve(self, tmp_path, monkeypatch):
        assemblies, factorizations = [], []

        def counting(calls, fn):
            def wrapper(*args, **kwargs):
                calls.append(args)
                return fn(*args, **kwargs)
            return wrapper

        original = operators.assemble
        assemble = counting(assemblies, original)
        monkeypatch.setattr(operators, "assemble", assemble)
        monkeypatch.setattr(propagator, "assemble", assemble)
        monkeypatch.setattr(
            propagator.spla, "splu", counting(factorizations, propagator.spla.splu)
        )
        path = write_config(
            tmp_path, resolution=15, N_t=32, gamma={"indicator": {"box": [[0.5, 1.5]]}},
            outputs={"directory": str(tmp_path / "out")},
        )
        assert main(["oracle", "--config", str(path), "--quiet"]) == 0
        assert len(assemblies) == 1
        # one factorization of the step matrix I - dt A_h, and one of A_h
        # itself, for the slow modes that GMRES deflates
        (generator,) = [original(*args).matrix for args in assemblies]
        of_generator = [(m != generator).nnz == 0 for (m,) in factorizations]
        assert sorted(of_generator) == [False, True]


class TestSpectrumCommand:
    def test_structured_beats_saturated_svd(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(
            tmp_path, resolution=31, N_t=512,
            outputs={"directory": str(out)},
        )
        assert main(["spectrum", "--config", str(path), "--quiet"]) == 0
        report = json.loads((out / "report.json").read_text())
        # double-precision SVD saturates near 1e16..1e19 while the generator
        # route resolves the true decades of decay
        config = parse_config(path)
        q = dense_propagator(ThetaStepper(config.coeffs, config.grid, config.timegrid))
        assert _dense_spectrum(q, config.grid.size).log10_cond_Q <= 20.0
        assert report["route"] == "generator"
        assert report["log10_cond_Q"] > 100.0
        assert len(report["eigenvalues"]["real"]) == 31

    def test_drift_falls_back_to_svd(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(
            tmp_path, resolution=15, N_t=32,
            coefficients={"preset": "drift", "velocity": [1.0]},
            outputs={"directory": str(out)},
        )
        assert main(["spectrum", "--config", str(path), "--quiet"]) == 0
        report = json.loads((out / "report.json").read_text())
        config = parse_config(path)
        q = dense_propagator(ThetaStepper(config.coeffs, config.grid, config.timegrid))
        assert report["route"] == "dense"
        assert report["log10_cond_Q"] == _dense_spectrum(q, config.grid.size).log10_cond_Q

    def test_symmetric_generator_builds_no_dense_q(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise RuntimeError("dense propagator built")

        monkeypatch.setattr(fredholm, "dense_propagator", refuse)
        path = write_config(tmp_path, resolution=15, outputs={"directory": str(tmp_path)})
        assert main(["spectrum", "--config", str(path), "--quiet"]) == 0
        assert main(["posedness", "--config", str(path), "--resolutions", "7,15", "--quiet"]) == 0
        path = write_config(
            tmp_path, resolution=15, coefficients={"preset": "drift", "velocity": [1.0]},
            outputs={"directory": str(tmp_path)},
        )
        with pytest.raises(RuntimeError, match="dense propagator built"):
            main(["spectrum", "--config", str(path), "--quiet"])

    def test_symmetric_grid_above_cap_exits_5(self, tmp_path):
        path = write_config(
            tmp_path, resolution=DENSE_CAP + 1, N_t=1, outputs={"directory": str(tmp_path)},
        )
        assert main(["spectrum", "--config", str(path), "--quiet"]) == 5


class TestPosednessCommand:
    def test_resolutions_flag(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, outputs={"directory": str(out)})
        code = main([
            "posedness", "--config", str(path), "--resolutions", "7,15", "--quiet"
        ])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert [r["M"] for r in report["records"]] == [7, 15]
        assert [r["route"] for r in report["records"]] == ["generator", "generator"]
        assert all(r["cond_identity_minus_Q"] <= 2.0 for r in report["records"])

    def test_tabulated_rejected(self, tmp_path):
        grid = build_grid(interval(0.0, PI), [5])
        a = np.ones((5, 1, 1)).tolist()
        path = write_config(
            tmp_path, resolution=5, coefficients={"tabulated": {"a": a}},
            gamma={"table": [0.0, 1.0, 1.0, 1.0, 0.0]},
        )
        assert grid.size == 5
        assert main(["posedness", "--config", str(path)]) == 2


class TestConvergenceCommand:
    def test_heat1d(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, outputs={"directory": str(out)})
        code = main([
            "convergence", "--config", str(path), "--resolutions", "15,31", "--quiet"
        ])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["case"] == "heat1d"
        assert report["spatial_order"] >= 1.9
        assert report["temporal_order"] >= 0.9
        assert report["temporal_order_threshold"] == 0.9

    @pytest.mark.parametrize("resolutions", ["3", "15,15"], ids=["one", "duplicate"])
    def test_ladder_of_fewer_than_two_distinct_resolutions_is_2(
        self, tmp_path, capsys, resolutions
    ):
        # one grid fits no order: the sweep is refused before it solves
        out = tmp_path / "out"
        path = write_config(tmp_path, outputs={"directory": str(out)})
        assert main(["convergence", "--config", str(path), "--resolutions", resolutions]) == 2
        expected = [int(r) for r in resolutions.split(",")]
        assert capsys.readouterr().err == (
            f"config error: resolution ladder {expected} has 1 distinct node count(s); "
            "this sweep needs at least 2\n"
        )
        assert not (out / "report.json").exists()

    def test_unregistered_case_is_2(self, tmp_path):
        path = write_config(
            tmp_path, domain={"dimension": 1, "box": [[0.0, 1.0]]}
        )
        assert main(["convergence", "--config", str(path)]) == 2

    BOX_2D = {"dimension": 2, "box": [[0.0, PI], [0.0, PI]]}

    @pytest.mark.parametrize("overrides, case", [
        ({}, "heat1d"),
        ({"domain": BOX_2D, "resolution": [7, 7]}, "heat2d"),
        ({"coefficients": {"preset": "absorb", "rate": 1.0}}, "heat1d-absorb"),
        ({"domain": BOX_2D, "resolution": [7, 7],
          "coefficients": {"preset": "absorb", "rate": 1.0}}, None),
        # absorb at rate 0 is the heat field, so it has heat's closed form
        ({"coefficients": {"preset": "absorb", "rate": 0.0}}, "heat1d"),
        ({"domain": BOX_2D, "resolution": [7, 7],
          "coefficients": {"preset": "absorb", "rate": 0.0}}, "heat2d"),
        ({"coefficients": {"preset": "absorb", "rate": 0.5}}, None),
        ({"coefficients": {"preset": "drift", "velocity": [1.0]}}, None),
        ({"domain": {**BOX_2D, "mask": [[1, 1, 1], [1, 0, 1], [1, 1, 1]]},
          "resolution": [3, 3]}, None),
        ({"domain": {"dimension": 1, "box": [[0.0, 1.0]]}}, None),
    ], ids=["heat-1d", "heat-2d", "absorb-1d", "absorb-2d", "absorb-rate-0",
            "absorb-rate-0-2d", "absorb-rate-half", "drift", "masked", "off-box"])
    def test_derive_case(self, overrides, case):
        # The registry lookup alone, on parsed configs: nothing is solved.
        config = config_from_dict(base_config(**overrides))
        if case is None:
            with pytest.raises(UnknownCase):
                cli._derive_case(config)
        else:
            assert cli._derive_case(config) == case


def march_shapes(monkeypatch):
    """Record the shape of every array ThetaStepper.run marches."""
    shapes = []
    run = ThetaStepper.run

    def counted(stepper, values, keep=False):
        shapes.append(values.shape)
        return run(stepper, values, keep=keep)

    monkeypatch.setattr(ThetaStepper, "run", counted)
    return shapes


class TestValidateCommand:
    def test_certified_upwind_includes_contraction_probe(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(
            tmp_path,
            coefficients={"preset": "drift", "velocity": [1.5], "absorption": 0.25},
            outputs={"directory": str(out)},
        )
        assert main(["validate", "--config", str(path), "--quiet"]) == 0
        report = json.loads((out / "report.json").read_text())
        names = [c["name"] for c in report["checks"]]
        assert "coefficients" in names
        assert "random_shifts" in names
        assert "max_norm_contraction" in names
        assert report["m_matrix_certified"] is True
        assert all(c["passed"] for c in report["checks"])

    def test_manifest_holds_the_report(self, tmp_path):
        cfg = config_from_dict(base_config(outputs={"directory": str(tmp_path / "out")}))
        bundle = run(cfg, "validate", quiet=True)
        assert list(bundle.files) == ["report.json"]
        assert_manifest_on_disk(bundle)

    def test_random_stream_is_pinned(self, tmp_path, monkeypatch):
        # default_rng(0) gives the five random shifts as one (5, M) draw; they
        # follow the configured gamma in one block, and the contraction probe
        # reads that block's Z and QZ instead of drawing columns of its own.
        blocks = []

        def spy(stepper, gammas, *args):
            blocks.append((stepper, gammas, check_random_shifts(stepper, gammas, *args)))
            return blocks[-1][2]

        monkeypatch.setattr(cli, "check_random_shifts", spy)
        out = tmp_path / "out"
        path = write_config(
            tmp_path,
            domain={"dimension": 2, "box": [[0.0, PI], [0.0, PI]]},
            resolution=7,
            N_t=8,
            coefficients={"preset": "drift", "velocity": [1.0, -0.6], "absorption": 0.4},
            outputs={"directory": str(out)},
        )
        assert main(["validate", "--config", str(path), "--quiet"]) == 0
        checks = {c["name"]: c for c in json.loads((out / "report.json").read_text())["checks"]}
        [(used, gammas, block)] = blocks
        gamma = parse_config(path).shift.gamma
        draw = np.random.default_rng(0).standard_normal((5, 49)).T
        assert np.array_equal(gammas, np.column_stack([gamma, draw]))
        stepper = ThetaStepper(
            drift((1.0, -0.6), 0.4), build_grid(box2d(), [7, 7]), TimeGrid(T=1.0, steps=8)
        )
        assert stepper is not used
        z = block.zeta
        growth = np.abs(stepper.run(z)[:, 1:]).max(axis=0) / np.abs(z[:, 1:]).max(axis=0)
        contraction = checks["max_norm_contraction"]["detail"]
        assert contraction == {"trials": 5, "worst_growth": growth.max()}
        shifts = checks["random_shifts"]["detail"]
        assert shifts["trials"] == 5 and shifts["worst_residual"] <= shifts["tol"] == 1e-10
        assert shifts["worst_residual"] == block.residuals[1:].max()
        assert checks["fixed_shift"]["detail"]["residual"] == block.residuals[0]

    def test_nonneg_gamma_reports_positivity_and_mass(
        self, tmp_path, monkeypatch, marches, gmres_spy
    ):
        trajectories = []

        def spy(trajectory):
            trajectories.append(trajectory)
            return normalize(trajectory)

        monkeypatch.setattr(cli, "normalize", spy)
        out = tmp_path / "out"
        path = write_config(tmp_path, outputs={"directory": str(out)})
        assert main(["validate", "--config", str(path), "--quiet"]) == 0
        checks = {c["name"]: c for c in json.loads((out / "report.json").read_text())["checks"]}
        # fixed_shift is the residual of the very trajectory checked below
        [trajectory] = trajectories
        gamma = parse_config(path).shift.gamma
        fixed = checks["fixed_shift"]
        assert fixed["passed"] and fixed["detail"] == {
            "residual": check_fixed_shift(trajectory, gamma).residual, "tol": 1e-10,
            "passed": True,
        }
        positivity = checks["positivity"]
        assert positivity["passed"] and positivity["detail"]["violation_count"] == 0
        assert set(positivity["detail"]) == {
            "min_value_global", "min_interior_positive_time", "violation_count",
            "positivity_tol", "passed",
        }
        mass = checks["mass"]
        assert mass["passed"] and mass["detail"]["defect"] <= mass["detail"]["tol"] == 1e-12
        assert set(mass["detail"]) == {"defect", "tol", "passed"}
        # the block's marches, then one march of zeta for the trajectory
        assert len(marches) == gmres_spy["iterations"] + 2
        # each detail is the record that solve reports for the same check
        solve_out = tmp_path / "solve"
        assert main(["solve", "--config", str(path), "--out", str(solve_out), "--quiet"]) == 0
        solved = json.loads((solve_out / "report.json").read_text())["checks"]
        for name in ("fixed_shift", "positivity", "mass"):
            assert set(checks[name]["detail"]) == set(solved[name])
            assert checks[name]["passed"] is checks[name]["detail"]["passed"]

    def test_positivity_violation_fails_with_exit_4(self, tmp_path):
        # one Crank-Nicolson step against a sharp indicator overshoots below zero
        out = tmp_path / "out"
        path = write_config(
            tmp_path,
            N_t=1, theta=0.5,
            gamma={"indicator": {"box": [[1.5, 1.65]]}, "nonneg": True},
            outputs={"directory": str(out)},
        )
        assert main(["validate", "--config", str(path), "--quiet"]) == 4
        report = json.loads((out / "report.json").read_text())
        checks = {c["name"]: c for c in report["checks"]}
        assert report["passed"] is False
        assert checks["positivity"]["passed"] is False
        assert checks["positivity"]["detail"]["violation_count"] >= 1
        assert checks["fixed_shift"]["passed"] and checks["random_shifts"]["passed"]

    def test_zero_gamma_stays_out_of_the_block(self, tmp_path, monkeypatch):
        shapes = march_shapes(monkeypatch)
        out = tmp_path / "out"
        path = write_config(
            tmp_path,
            coefficients={"preset": "drift", "velocity": [1.5], "absorption": 0.25},
            gamma={"table": [0.0] * 63},
            outputs={"directory": str(out)},
        )
        assert main(["validate", "--config", str(path), "--quiet"]) == 0
        checks = {c["name"]: c for c in json.loads((out / "report.json").read_text())["checks"]}
        assert checks["fixed_shift"] == {
            "name": "fixed_shift", "passed": True,
            "detail": {"residual": 0.0, "tol": 1e-10, "passed": True},
        }
        assert "positivity" not in checks and "mass" not in checks
        assert checks["max_norm_contraction"]["detail"]["trials"] == 5
        assert set(shapes) == {(63, 5)}

    def test_signed_gamma_marches_one_block(self, tmp_path, monkeypatch, gmres_spy):
        shapes = march_shapes(monkeypatch)
        out = tmp_path / "out"
        path = write_config(
            tmp_path,
            coefficients={"preset": "drift", "velocity": [1.5], "absorption": 0.25},
            gamma={"eigenfunction": 2},
            outputs={"directory": str(out)},
        )
        assert main(["validate", "--config", str(path), "--quiet"]) == 0
        names = [c["name"] for c in json.loads((out / "report.json").read_text())["checks"]]
        assert names == [
            "coefficients", "fixed_shift", "random_shifts", "max_norm_contraction",
        ]
        # a march per GMRES iteration and one for the true residual, each of
        # the whole block; the probe and the trajectory march nothing more
        assert len(shapes) == gmres_spy["iterations"] + 1
        assert set(shapes) == {(63, 6)}

    def test_unconverged_block_is_3(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            T=0.01, N_t=4,
            gamma={"indicator": {"box": [[1.0, 2.0]]}},
            solver={"max_iter": 1, "restart": 1},
            outputs={"directory": str(tmp_path / "out")},
        )
        assert main(["validate", "--config", str(path)]) == 3
        assert "solver error" in capsys.readouterr().err

    def test_crank_nicolson_skips_contraction_probe(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(
            tmp_path, theta=0.5, advection_mode="centered",
            outputs={"directory": str(out)},
        )
        assert main(["validate", "--config", str(path), "--quiet"]) == 0
        report = json.loads((out / "report.json").read_text())
        names = [c["name"] for c in report["checks"]]
        assert "max_norm_contraction" not in names


class TestRunApi:
    def test_bundle_fields(self, tmp_path):
        cfg = config_from_dict(base_config(
            outputs={"directory": str(tmp_path / "out")}
        ))
        bundle = run(cfg, "solve", quiet=True)
        assert bundle.command == "solve"
        assert bundle.passed is True
        assert bundle.report["iterations"] >= 1
        assert set(bundle.files) == {
            "report.json", "trajectory.csv", "normalized_trajectory.csv"
        }

    def test_unknown_command_rejected(self, tmp_path):
        cfg = config_from_dict(base_config(
            outputs={"directory": str(tmp_path / "out")}
        ))
        with pytest.raises(ValidationError):
            run(cfg, "frobnicate")
