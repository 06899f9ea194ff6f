"""End-to-end CLI tests: subcommands, exit codes, file round trips."""

from __future__ import annotations

import numpy as np
import pytest

from rangefit.cli import main
from rangefit.imageio import read_pgm8, read_ppm
from rangefit import read_depth


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
            "--formulation", "implicit-rgbd", "--tile", "16", "--k", "3",
            "--seed", "1", "--out", str(ppm), "--csv", str(csv),
        ])
        assert code == 0
        rgb = read_ppm(ppm)
        assert rgb.shape == (48, 64, 3)
        colors = {tuple(c) for c in rgb.reshape(-1, 3)}
        assert len(colors) >= 3
        lines = csv.read_text().strip().split("\n")
        assert lines[0].startswith("x0,y0,x1,y1,status")
        assert len(lines) > 4


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
