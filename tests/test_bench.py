"""Benchmark harness tests: cost audit, report schema, workload determinism."""

from __future__ import annotations

import pytest

from rangefit import (
    EXPLICIT_RGBD,
    EXPLICIT_STANDARD,
    IMPLICIT_RGBD,
    IMPLICIT_STANDARD,
    BenchConfig,
    op_count_audit,
    run_bench,
)
from rangefit.bench import BenchReport, BenchRow


TINY = BenchConfig(
    width=96,
    height=72,
    tile=20,
    plane_counts=(0, 1, 5),
    repetitions=3,
    warmup=1,
    seed=0,
)


class TestOpCountAudit:
    @pytest.mark.parametrize(
        "formulation,channels,ops",
        [
            (IMPLICIT_STANDARD, 9, 44),
            (IMPLICIT_RGBD, 4, 20),
            (EXPLICIT_STANDARD, 8, 39),
            (EXPLICIT_RGBD, 3, 15),
        ],
    )
    def test_predicted_costs(self, formulation, channels, ops):
        audit = op_count_audit(formulation)
        assert audit.per_frame_channels == channels
        assert audit.ops_per_pixel == ops

    def test_unknown_formulation(self):
        with pytest.raises(ValueError):
            op_count_audit("implicit-nope")

    def test_predicted_build_ratios(self):
        implicit = op_count_audit(IMPLICIT_RGBD).ops_per_pixel / op_count_audit(
            IMPLICIT_STANDARD
        ).ops_per_pixel
        explicit = op_count_audit(EXPLICIT_RGBD).ops_per_pixel / op_count_audit(
            EXPLICIT_STANDARD
        ).ops_per_pixel
        assert implicit == pytest.approx(1 / 2.2)
        assert explicit == pytest.approx(15 / 39)


@pytest.fixture(scope="module")
def report():
    return run_bench(TINY)


class TestRunBench:
    def test_row_schema(self, report):
        assert report.rows
        for row in report.rows:
            assert row.phase in ("build", "fit", "total")
            assert row.seconds >= 0.0
            assert 0 <= row.rep < TINY.repetitions

    def test_naive_build_time_is_zero(self, report):
        for formulation in TINY.formulations:
            assert report.median_seconds(formulation, "naive", "build") == 0.0

    def test_total_at_zero_planes_equals_build(self, report):
        for formulation in TINY.formulations:
            for backend in TINY.backends:
                build = report.median_seconds(formulation, backend, "build", 0)
                total = report.median_seconds(formulation, backend, "total", 0)
                assert total == build

    def test_csv_shape(self, report):
        lines = report.to_csv().strip().split("\n")
        assert lines[0] == "method,backend,phase,plane_count,rep,seconds"
        assert len(lines) == len(report.rows) + 1
        assert all(len(line.split(",")) == 6 for line in lines[1:])

    def test_workload_deterministic(self, report):
        again = run_bench(TINY)
        assert report.workload_digest == again.workload_digest
        shifted = run_bench(
            BenchConfig(
                width=96, height=72, tile=20, plane_counts=(0, 1, 5),
                repetitions=3, warmup=1, seed=123,
            )
        )
        assert shifted.workload_digest != report.workload_digest

    def test_ratio_helpers(self, report):
        for kind in ("implicit", "explicit"):
            assert report.build_ratio(kind) > 0
            assert report.per_fit_ratio(kind) > 0
        lo, mid, hi = report.spread_seconds(IMPLICIT_RGBD, "integral", "build")
        assert lo <= mid <= hi

    def test_ratios_pair_repetitions(self):
        # the host slows the rgbd fit of rep 2 and both fits of rep 0: each
        # rep's own ratio reads 0.5 twice, the two medians 2.0 / 2.0
        report = BenchReport(config=BenchConfig(plane_counts=(0, 5)))
        pairs = [(4.0, 2.0), (1.0, 0.5), (2.0, 2.0)]
        for rep, times in enumerate(pairs):
            for method, seconds in zip((EXPLICIT_STANDARD, EXPLICIT_RGBD), times):
                for phase, count in (("build", 0), ("fit", 5)):
                    report.rows.append(BenchRow(method, "integral", phase, count, rep, seconds))
        assert report.build_ratio("explicit") == 0.5
        assert report.per_fit_ratio("explicit") == 0.5
        report.rows.pop()  # rep 2 has no rgbd fit left to pair
        with pytest.raises(ValueError, match="paired"):
            report.per_fit_ratio("explicit")
        with pytest.raises(ValueError, match="paired"):
            report.build_ratio("implicit")

    def test_warm_up_pays_for_the_camera_constant_and_factor(self, monkeypatch):
        # A2 times frame builds and A3 fits through a cached factor: the
        # camera's constant and explicit-rgbd record come from a warm-up fit
        import rangefit.bench
        import rangefit.fitting
        import rangefit.integral

        config = BenchConfig(
            width=96, height=72, tile=20, plane_counts=(0, 1, 3), repetitions=3, warmup=1,
            backends=("integral",),
        )
        log = []  # every spied call, in call order

        def spy(module, name, entry):
            original = getattr(module, name)

            def wrapped(*args, **kwargs):
                log.append(entry(args))
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapped)

        spy(rangefit.fitting, "fit_rect", lambda args: ("fit", args[3]))
        spy(rangefit.bench, "build_channels", lambda args: ("build", args[2]))
        spy(rangefit.integral, "_camera_constant", lambda args: ("constant", None))
        spy(rangefit.fitting, "cholesky3", lambda args: ("factor", None))
        run_bench(config)
        # builds and fits do not nest, so a constant build or a factorization
        # belongs to the last build or fit begun before it
        fits, owner, owned = 0, None, {"constant": [], "factor": []}
        for kind, formulation in log:
            fits += kind == "fit"
            if kind in ("fit", "build"):
                owner = (kind, formulation, fits)
            else:
                owned[kind].append(owner)
        warm_up_fits = config.warmup * len(config.formulations) * sum(config.plane_counts)
        assert fits == (config.warmup + config.repetitions) * warm_up_fits
        [(kind, _, at)] = owned["constant"]
        assert kind == "fit" and at <= warm_up_fits
        [at] = [at for kind, f, at in owned["factor"] if (kind, f) == ("fit", EXPLICIT_RGBD)]
        assert at <= warm_up_fits

    def test_summary_text(self, report):
        text = report.summary()
        assert "build ratio" in text


class TestBenchConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            BenchConfig(repetitions=2)
        with pytest.raises(ValueError):
            BenchConfig(warmup=0)
        with pytest.raises(ValueError):
            BenchConfig(tile=1000, width=640, height=480)
        with pytest.raises(ValueError):
            BenchConfig(formulations=("implicit-nope",))
        with pytest.raises(ValueError, match="at least one"):
            BenchConfig(formulations=())
        with pytest.raises(ValueError, match="at least one"):
            BenchConfig(backends=())
