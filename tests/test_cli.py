"""End-to-end CLI tests: subcommands, exit codes, file round trips."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

import rangefit.integral
from rangefit.cli import main
from rangefit.fitting import CSV_HEADER, fit_rect, fit_result_csv_row
from rangefit.imageio import read_pgm8, read_ppm
from rangefit import (
    Rect, SegConfig, build_channels, compute_tan_maps, load_intrinsics,
    read_depth, segment,
)


@pytest.fixture
def camera_file(tmp_path):
    path = tmp_path / "cam.txt"
    path.write_text("fx=60\nfy=60\ncx=31.5\ncy=23.5\nwidth=64\nheight=48\n")
    return path


@pytest.fixture
def scene_file(tmp_path):
    path = tmp_path / "scene.txt"
    path.write_text("0 0 1 -2\n")
    return path


@pytest.fixture
def corner_scene_file(tmp_path):
    path = tmp_path / "corner.txt"
    path.write_text(
        "0.2543 0.0509 -0.9658 1.5453 0 0 32 25\n"
        "-0.2035 0.1017 -0.9738 2.3372 32 0 64 25\n"
        "0.0 -0.3041 -0.9526 1.9052 0 25 64 48\n"
    )
    return path


class TestSynth:
    def test_noiseless_pgm_depth(self, tmp_path, camera_file, scene_file, capsys):
        out = tmp_path / "depth.pgm"
        labels = tmp_path / "labels.pgm"
        code = main([
            "synth", "--intrinsics", str(camera_file), "--scene", str(scene_file),
            "--noise", "off", "--out", str(out), "--labels", str(labels),
        ])
        assert code == 0
        depth = read_depth(out)
        assert depth.valid.all()
        np.testing.assert_array_equal(depth.values, 2.0)  # 2000 mm exactly
        assert (read_pgm8(labels) == 0).all()

    def test_deterministic_output_bytes(self, tmp_path, camera_file, scene_file):
        a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
        for out in (a, b):
            code = main([
                "synth", "--intrinsics", str(camera_file), "--scene", str(scene_file),
                "--seed", "5", "--out", str(out),
            ])
            assert code == 0
        assert a.read_bytes() == b.read_bytes()


class TestFit:
    def test_fit_raw_pipeline_exact(self, tmp_path, camera_file, scene_file, capsys):
        depth_path = tmp_path / "depth.rf64"
        main([
            "synth", "--intrinsics", str(camera_file), "--scene", str(scene_file),
            "--noise", "off", "--out", str(depth_path),
        ])
        capsys.readouterr()
        code = main([
            "fit", "--intrinsics", str(camera_file), "--input", str(depth_path),
            "--formulation", "implicit-rgbd", "--backend", "integral",
            "--rect", "0,0,50,48",
        ])
        assert code == 0
        out = capsys.readouterr().out
        header, row = out.strip().split("\n")
        fields = row.split(",")
        expected = np.array([0.0, 0.0, 1.0, -2.0]) / np.sqrt(5)
        got = np.array([float(fields[i]) for i in (6, 7, 8, 9)])
        np.testing.assert_allclose(got, expected, atol=1e-9)

    def test_fit_pgm_pipeline_quantized(self, tmp_path, camera_file, scene_file, capsys):
        depth_path = tmp_path / "depth.pgm"
        main([
            "synth", "--intrinsics", str(camera_file), "--scene", str(scene_file),
            "--noise", "off", "--out", str(depth_path),
        ])
        capsys.readouterr()
        code = main([
            "fit", "--intrinsics", str(camera_file), "--input", str(depth_path),
            "--formulation", "explicit-standard", "--backend", "naive",
            "--rect", "8,8,40,40",
        ])
        assert code == 0
        fields = capsys.readouterr().out.strip().split("\n")[1].split(",")
        got = np.array([float(fields[i]) for i in (6, 7, 8, 9)])
        expected = np.array([0.0, 0.0, 1.0, -2.0]) / np.sqrt(5)
        np.testing.assert_allclose(got, expected, atol=1e-3)  # millimeter quantization

    def test_fit_to_file(self, tmp_path, camera_file, scene_file):
        depth_path = tmp_path / "depth.rf64"
        main([
            "synth", "--intrinsics", str(camera_file), "--scene", str(scene_file),
            "--noise", "off", "--out", str(depth_path),
        ])
        out_csv = tmp_path / "fit.csv"
        code = main([
            "fit", "--intrinsics", str(camera_file), "--input", str(depth_path),
            "--formulation", "explicit-rgbd", "--rect", "0,0,64,48",
            "--out", str(out_csv),
        ])
        assert code == 0
        assert out_csv.read_text().startswith("formulation,backend,")


    def test_fit_reports_degenerate(self, tmp_path, camera_file, capsys):
        # a 1-px column fits its viewing plane through the camera centre, which
        # used to print as a plane with nothing to say it is no surface
        scene, depth_path = tmp_path / "two.txt", tmp_path / "depth.pgm"
        scene.write_text(
            "0.2543 0.0509 -0.9658 1.5453 0 0 40 48\n"
            "-0.2035 0.1017 -0.9738 2.3372 40 0 64 48\n"
        )
        assert main([
            "synth", "--intrinsics", str(camera_file), "--scene", str(scene),
            "--seed", "1", "--dropout", "0.05", "--out", str(depth_path),
        ]) == 0
        flags = {}
        for rect in ("0,0,1,48", "0,0,32,48"):
            capsys.readouterr()
            assert main([
                "fit", "--intrinsics", str(camera_file), "--input", str(depth_path),
                "--formulation", "explicit-rgbd", "--rect", rect,
            ]) == 0
            header, row = capsys.readouterr().out.strip().split("\n")
            flags[rect] = dict(zip(header.split(","), row.split(",")))["degenerate"]
        assert flags == {"0,0,1,48": "True", "0,0,32,48": "False"}

    @pytest.mark.parametrize("formulation, dropout, builds", [
        ("implicit-standard", "0", 0),
        ("explicit-standard", "0", 0),
        ("implicit-rgbd", "0.05", 1),
        ("explicit-rgbd", "0.05", 1),
        ("implicit-rgbd", "0", 1),
        ("explicit-rgbd", "0", 1),
    ])
    def test_fit_builds_constant_stack_only_when_read(
        self, tmp_path, camera_file, corner_scene_file, capsys, monkeypatch,
        formulation, dropout, builds,
    ):
        depth_path = tmp_path / "depth.rf64"
        assert main([
            "synth", "--intrinsics", str(camera_file), "--scene", str(corner_scene_file),
            "--dropout", dropout, "--out", str(depth_path),
        ]) == 0
        maps = compute_tan_maps(load_intrinsics(camera_file))
        depth, rect = read_depth(depth_path), Rect(4, 2, 40, 30)
        result = fit_rect(
            depth, maps, rect, formulation, "integral",
            stack=build_channels(depth, maps, formulation),
        )
        expected = CSV_HEADER + "\n" + fit_result_csv_row(result, formulation, "integral", rect) + "\n"
        calls = []
        original = rangefit.integral._camera_constant

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        # the camera builds its constant on the first rgbd window read
        monkeypatch.setattr(rangefit.integral, "_camera_constant", counting)
        capsys.readouterr()
        assert main([
            "fit", "--intrinsics", str(camera_file), "--input", str(depth_path),
            "--formulation", formulation, "--rect", "4,2,40,30",
        ]) == 0
        assert len(calls) == builds
        assert capsys.readouterr().out == expected


class TestSegment:
    def test_segment_corner_scene(self, tmp_path, camera_file, corner_scene_file):
        depth_path = tmp_path / "depth.rf64"
        main([
            "synth", "--intrinsics", str(camera_file), "--scene", str(corner_scene_file),
            "--out", str(depth_path), "--seed", "3",
        ])
        ppm = tmp_path / "seg.ppm"
        csv = tmp_path / "tiles.csv"
        code = main([
            "segment", "--intrinsics", str(camera_file), "--input", str(depth_path),
            "--formulation", "implicit-rgbd", "--tile", "16",
            "--out", str(ppm), "--csv", str(csv),
        ])
        assert code == 0
        rgb = read_ppm(ppm)
        assert rgb.shape == (48, 64, 3)
        colors = {tuple(c) for c in rgb.reshape(-1, 3)}
        assert len(colors) >= 3
        lines = csv.read_text().strip().split("\n")
        assert lines[0].startswith("x0,y0,x1,y1,status")
        assert len(lines) > 4

    @pytest.mark.parametrize("max_depth", ["18", "0"])
    def test_huge_tile_fits_the_image_as_one_root(self, tmp_path, corner_scene_file, max_depth):
        # The node pyramid is sized to the image, not to whole 2**20-px root
        # tiles; both commands died with a MemoryError traceback before.
        camera = tmp_path / "cam.txt"
        camera.write_text("fx=60\nfy=60\ncx=48\ncy=26\nwidth=97\nheight=53\n")
        depth_path = tmp_path / "depth.rf64"
        assert main([
            "synth", "--intrinsics", str(camera), "--scene", str(corner_scene_file),
            "--out", str(depth_path), "--seed", "3", "--dropout", "0.05",
        ]) == 0
        runs = {}
        for name, tile, depth in (("huge", "1048576", max_depth), ("one", "128", "0")):
            ppm, csv = tmp_path / f"{name}.ppm", tmp_path / f"{name}.csv"
            assert main([
                "segment", "--intrinsics", str(camera), "--input", str(depth_path),
                "--tile", tile, "--max-depth", depth,
                "--out", str(ppm), "--csv", str(csv),
            ]) == 0
            header, *rows = csv.read_text().strip().split("\n")
            runs[name] = read_ppm(ppm), [row.split(",") for row in rows]
        (huge_rgb, huge_rows), (one_rgb, one_rows) = runs["huge"], runs["one"]
        assert len(huge_rows) == len(one_rows) == 1
        huge, one = huge_rows[0], one_rows[0]
        assert huge[:5] == one[:5] == ["0", "0", "97", "53", one[4]]
        assert huge[-1] == one[-1]  # cluster, so the labels too
        np.testing.assert_allclose(
            [float(v) for v in huge[5:9]], [float(v) for v in one[5:9]], rtol=0, atol=1e-9
        )
        assert huge_rgb.tobytes() == one_rgb.tobytes()

    def test_metric_and_min_valid_fraction_reach_the_config(
        self, tmp_path, camera_file, corner_scene_file
    ):
        depth_path = tmp_path / "depth.rf64"
        main([
            "synth", "--intrinsics", str(camera_file), "--scene", str(corner_scene_file),
            "--out", str(depth_path), "--seed", "3", "--dropout", "0.05",
        ])
        csv = tmp_path / "tiles.csv"
        code = main([
            "segment", "--intrinsics", str(camera_file), "--input", str(depth_path),
            "--tile", "16", "--metric", "max", "--min-valid-fraction", "0.9",
            "--out", str(tmp_path / "seg.ppm"), "--csv", str(csv),
        ])
        assert code == 0
        depth, maps = read_depth(depth_path), compute_tan_maps(load_intrinsics(camera_file))
        config = SegConfig(initial_tile=16, error_metric="max", min_valid_fraction=0.9)
        written = csv.read_text()
        assert written == segment(depth, maps, config).to_csv()
        # on this frame both flags change the tiles, so neither was dropped
        for default in ({"error_metric": "rms"}, {"min_valid_fraction": 0.5}):
            other = dataclasses.replace(config, **default)
            assert segment(depth, maps, other).to_csv() != written, default

    def test_stats_json(self, tmp_path, camera_file, corner_scene_file):
        depth_path = tmp_path / "depth.rf64"
        main([
            "synth", "--intrinsics", str(camera_file), "--scene", str(corner_scene_file),
            "--out", str(depth_path), "--seed", "3", "--dropout", "0.05",
        ])
        csv, stats = tmp_path / "tiles.csv", tmp_path / "stats.json"
        code = main([
            "segment", "--intrinsics", str(camera_file), "--input", str(depth_path),
            "--tile", "16", "--max-depth", "2", "--threshold", "1e-4",
            "--out", str(tmp_path / "seg.ppm"), "--csv", str(csv), "--stats", str(stats),
        ])
        assert code == 0
        data = json.loads(stats.read_text())
        tiles = len(csv.read_text().strip().split("\n")) - 1
        assert data["leaves"] == tiles
        assert [level["level"] for level in data["levels"]] == list(range(len(data["levels"])))
        leaves = 0
        for level in data["levels"]:
            assert set(level) == {
                "level", "tile", "fitted", "split", "too_invalid", "high_error", "degenerate"
            }
            assert all(isinstance(v, int) for v in level.values())
            leaves += level["fitted"] + level["too_invalid"] + level["high_error"]
        assert leaves == tiles
        assert data["levels"][0]["split"] > 0


class TestBench:
    def test_bench_csv(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code = main([
            "bench", "--width", "96", "--height", "72", "--tile", "20",
            "--reps", "3", "--warmup", "1", "--plane-counts", "0,2",
            "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "method,backend,phase,plane_count,rep,seconds"
        assert len(lines) > 10
        assert "build ratio" in capsys.readouterr().err


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["fit", "--wat"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_segment_has_no_seed_flag(self, tmp_path, camera_file, capsys):
        code = main([
            "segment", "--intrinsics", str(camera_file), "--input", str(tmp_path / "d.rf64"),
            "--out", str(tmp_path / "s.ppm"), "--seed", "1",
        ])
        assert code == 1
        assert "usage error" in capsys.readouterr().err

    def test_segment_has_no_k_flag(self, tmp_path, camera_file, capsys):
        code = main([
            "segment", "--intrinsics", str(camera_file), "--input", str(tmp_path / "d.rf64"),
            "--out", str(tmp_path / "s.ppm"), "--k", "3",
        ])
        assert code == 1
        assert "usage error" in capsys.readouterr().err

    def test_segment_has_no_backend_flag(self, tmp_path, camera_file, capsys):
        code = main([
            "segment", "--intrinsics", str(camera_file), "--input", str(tmp_path / "d.rf64"),
            "--out", str(tmp_path / "s.ppm"), "--backend", "naive",
        ])
        assert code == 1
        assert "usage error" in capsys.readouterr().err

    def test_malformed_rect_is_usage_error(self, tmp_path, camera_file, capsys):
        code = main([
            "fit", "--intrinsics", str(camera_file), "--input", "x",
            "--formulation", "implicit-rgbd", "--rect", "oops",
        ])
        assert code == 1
        assert "x0,y0,x1,y1" in capsys.readouterr().err

    def test_missing_file_is_data_error(self, tmp_path, camera_file, capsys):
        code = main([
            "fit", "--intrinsics", str(camera_file), "--input", str(tmp_path / "nope.pgm"),
            "--formulation", "implicit-rgbd", "--rect", "0,0,8,8",
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_raw_header_is_data_error(self, tmp_path, camera_file, capsys):
        depth = tmp_path / "x.raw"
        depth.write_bytes(b"RF64 64 48")  # no newline after the header
        out = tmp_path / "fit.csv"
        code = main([
            "fit", "--intrinsics", str(camera_file), "--input", str(depth),
            "--formulation", "implicit-rgbd", "--rect", "0,0,8,8", "--out", str(out),
        ])
        assert code == 2
        assert f"{depth}: malformed RF64 header" in capsys.readouterr().err
        assert not out.exists()

    def test_malformed_pgm_header_is_data_error(self, tmp_path, camera_file, capsys):
        depth = tmp_path / "bad.pgm"
        depth.write_bytes(b"P5\n64")  # the header stops after the width
        out = tmp_path / "fit.csv"
        code = main([
            "fit", "--intrinsics", str(camera_file), "--input", str(depth),
            "--formulation", "implicit-rgbd", "--rect", "0,0,8,8", "--out", str(out),
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert f"{depth}: malformed netpbm header" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_malformed_scene_is_data_error(self, tmp_path, camera_file, capsys):
        scene = tmp_path / "bad.txt"
        scene.write_text("0 0 1\n")
        code = main([
            "synth", "--intrinsics", str(camera_file), "--scene", str(scene),
            "--out", str(tmp_path / "d.pgm"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "line 1" in err

    def test_size_mismatch_is_data_error(self, tmp_path, camera_file, scene_file, capsys):
        other_cam = tmp_path / "cam2.txt"
        other_cam.write_text("fx=60\nfy=60\ncx=15.5\ncy=11.5\nwidth=32\nheight=24\n")
        depth_path = tmp_path / "depth.rf64"
        main([
            "synth", "--intrinsics", str(camera_file), "--scene", str(scene_file),
            "--out", str(depth_path),
        ])
        code = main([
            "fit", "--intrinsics", str(other_cam), "--input", str(depth_path),
            "--formulation", "implicit-rgbd", "--rect", "0,0,8,8",
        ])
        assert code == 2
        assert "intrinsics" in capsys.readouterr().err

    def test_nan_threshold_is_data_error(self, tmp_path, camera_file, scene_file, capsys):
        # NaN passed a `<= 0` check, split every tile and exited 0 with nothing fitted
        depth_path = tmp_path / "depth.rf64"
        main([
            "synth", "--intrinsics", str(camera_file), "--scene", str(scene_file),
            "--out", str(depth_path),
        ])
        ppm = tmp_path / "seg.ppm"
        code = main([
            "segment", "--intrinsics", str(camera_file), "--input", str(depth_path),
            "--tile", "16", "--threshold", "nan", "--out", str(ppm),
        ])
        assert code == 2
        assert "threshold must be positive" in capsys.readouterr().err
        assert not ppm.exists()

    def test_tile_off_the_lattice_is_data_error(self, tmp_path, camera_file, scene_file, capsys):
        # 50 px at depth 2 would split into 12- and 13-px tiles
        depth_path = tmp_path / "depth.rf64"
        main([
            "synth", "--intrinsics", str(camera_file), "--scene", str(scene_file),
            "--out", str(depth_path),
        ])
        ppm = tmp_path / "seg.ppm"
        code = main([
            "segment", "--intrinsics", str(camera_file), "--input", str(depth_path),
            "--tile", "50", "--max-depth", "2", "--out", str(ppm),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "initial_tile 50" in err and "max_depth 2" in err
        assert not ppm.exists()

    @pytest.mark.parametrize(
        "fx,plane,noise,named",
        [
            ("nan", "0 0 1 -2", "1.425e-3", "fx"),
            ("inf", "0 0 1 -2", "1.425e-3", "fx"),
            ("60", "0 0 1 -2", "nan", "slope_coefficient"),
            ("60", "0 0 1 -2", "inf", "slope_coefficient"),
            ("60", "nan 0 1 -2", "1.425e-3", "coefficients"),
            ("60", "0 0 1 inf", "1.425e-3", "coefficients"),
        ],
        ids=["nan-fx", "inf-fx", "nan-noise", "inf-noise", "nan-plane", "inf-plane"],
    )
    def test_non_finite_synth_parameters_are_data_errors(
        self, tmp_path, fx, plane, noise, named, capsys
    ):
        # each of these exited 0 with an all-invalid depth image
        cam = tmp_path / "cam.txt"
        cam.write_text(f"fx={fx}\nfy=60\ncx=31.5\ncy=23.5\nwidth=64\nheight=48\n")
        scene = tmp_path / "scene.txt"
        scene.write_text(plane + "\n")
        out = tmp_path / "d.pgm"
        code = main([
            "synth", "--intrinsics", str(cam), "--scene", str(scene),
            "--noise-coefficient", noise, "--out", str(out),
        ])
        assert code == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("rect", ["-5 0 10 48", "5 0 2 48"], ids=["negative", "inverted"])
    def test_scene_rect_out_of_order_is_data_error(self, tmp_path, camera_file, rect, capsys):
        # each of these exited 0 with a depth image holding no valid pixel
        scene = tmp_path / "scene.txt"
        scene.write_text(f"0 0 1 -2 {rect}\n")
        out = tmp_path / "d.pgm"
        code = main([
            "synth", "--intrinsics", str(camera_file), "--scene", str(scene), "--out", str(out),
        ])
        assert code == 2
        assert "scene line 1: mask_rect" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fit", "segment"])
    def test_non_finite_focal_length_is_named(
        self, tmp_path, camera_file, scene_file, command, capsys
    ):
        # used to fail later, blaming a matrix of non-finite entries
        depth_path = tmp_path / "depth.rf64"
        main([
            "synth", "--intrinsics", str(camera_file), "--scene", str(scene_file),
            "--out", str(depth_path),
        ])
        cam = tmp_path / "nan-cam.txt"
        cam.write_text("fx=nan\nfy=60\ncx=31.5\ncy=23.5\nwidth=64\nheight=48\n")
        args = [command, "--intrinsics", str(cam), "--input", str(depth_path)]
        if command == "fit":
            args += ["--formulation", "implicit-rgbd", "--rect", "0,0,8,8"]
        else:
            args += ["--tile", "16", "--out", str(tmp_path / "seg.ppm")]
        assert main(args) == 2
        assert "focal length fx" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--formulations", "--backends"])
    def test_empty_bench_selection_is_data_error(self, tmp_path, flag, capsys):
        # an empty selection used to exit 0 with a header-only CSV
        out = tmp_path / "bench.csv"
        code = main([
            "bench", "--width", "32", "--height", "24", "--tile", "8", "--reps", "3",
            "--warmup", "1", "--plane-counts", "0", flag, "", "--out", str(out),
        ])
        assert code == 2
        assert "at least one" in capsys.readouterr().err
        assert not out.exists()
