import json

import numpy as np
import pytest

from ncjulia import get_fixture, realization_to_json
from ncjulia.cli import main, render_json


_SCALAR = {"rows": 1, "cols": 1, "data": [[0.5, 0]]}


def _poly(coeff, word):
    return {"d": 2, "terms": [{"coeff": c, "word": word} for c in coeff]}


_H1_REALIZATION = realization_to_json(get_fixture("example-h1").realization)


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def files(tmp_path):
    return {
        "interior": write_json(tmp_path / "pt.json", {"scalars": [[0.5, 0], [0.3, 0]]}),
        "boundary": write_json(tmp_path / "T.json", {"scalars": [[1, 0], [1, 0]]}),
        "mixed": write_json(tmp_path / "Tmix.json", {"scalars": [[1, 0], [-1, 0]]}),
        "edge": write_json(tmp_path / "edge.json", {"scalars": [[1, 0], [0, 0]]}),
        "inward": write_json(tmp_path / "H.json", {"scalars": [[-1, 0], [-1, 0]]}),
        "tangent": write_json(tmp_path / "Ht.json", {"scalars": [[0, 1], [0, 1]]}),
        "malformed": str((tmp_path / "broken.json").write_text("{oops") or tmp_path / "broken.json"),
        "tmp": tmp_path,
    }


class TestEval:
    def test_fixture_point(self, files, capsys):
        assert main(["eval", "--fixture", "example-h1", "--point", files["interior"]]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["phi"]["data"][0][0] == pytest.approx(5.0 / 12.0, abs=1e-12)
        assert out["model_residual"] <= 1e-12
        assert out["delta_norm"] == pytest.approx(0.5)

    def test_boundary_point_is_precondition_error(self, files):
        assert main(["eval", "--fixture", "example-h1", "--point", files["edge"]]) == 3

    def test_malformed_json(self, files):
        assert main(["eval", "--fixture", "example-h1", "--point", files["malformed"]]) == 2

    def test_unknown_fixture(self, files):
        assert main(["eval", "--fixture", "nope", "--point", files["interior"]]) == 2

    def test_named_delta_and_realization(self, files, capsys):
        code = main([
            "eval", "--delta", "polydisk:2", "--realization", "example-h1",
            "--point", files["interior"],
        ])
        assert code == 0

    def test_delta_file_with_parse_errors(self, files):
        # the last two exceed the parser's degree and term caps
        for bad_entry in ("x5", "x0 + * x1", "x0^-1", "x0^2000", "(x0+x1)^16"):
            path = write_json(
                files["tmp"] / "delta.json",
                {"d": 2, "entries": [[bad_entry, "0"], ["0", "x1"]]},
            )
            code = main([
                "eval", "--delta", path, "--realization", "example-h1",
                "--point", files["interior"],
            ])
            assert code == 2

    def test_deeply_nested_delta_entry(self, files):
        path = write_json(
            files["tmp"] / "deep.json", {"d": 1, "entries": [["(" * 5000 + "x0" + ")" * 5000]]}
        )
        code = main([
            "eval", "--delta", path, "--realization", "trivial-disk",
            "--point", write_json(files["tmp"] / "x.json", {"scalars": [[0.5, 0]]}),
        ])
        assert code == 2

    def test_text_output(self, files, capsys):
        assert main([
            "eval", "--fixture", "example-h1", "--point", files["interior"],
            "--output", "text",
        ]) == 0
        out = capsys.readouterr().out
        assert "delta_norm = 0.5" in out

    def test_realization_file_round_trip(self, files, capsys):
        from ncjulia import example_h1_realization, realization_to_json

        path = write_json(
            files["tmp"] / "real.json", realization_to_json(example_h1_realization())
        )
        code = main([
            "eval", "--delta", "polydisk:2", "--realization", path,
            "--point", files["interior"],
        ])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["phi"]["data"][0][0] == pytest.approx(5.0 / 12.0, abs=1e-12)

    def test_non_isometric_realization_file_rejected(self, files):
        from ncjulia import example_h1_realization, perturb_realization, realization_to_json

        broken = perturb_realization(example_h1_realization(), eps=0.1, seed=0)
        path = write_json(files["tmp"] / "broken_real.json", realization_to_json(broken))
        args = [
            "eval", "--delta", "polydisk:2", "--realization", path,
            "--point", files["interior"],
        ]
        assert main(args) == 3
        # a loose tolerance lets the same file through
        assert main(args + ["--isometry-tol", "1.0"]) == 0


class TestBpoint:
    def test_diagonal_boundary_point(self, files, capsys):
        code = main([
            "bpoint", "--fixture", "example-h1", "--point", files["boundary"],
            "--samples", "20",
        ])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["is_bpoint"] is True
        assert out["alpha"]["alpha"] == pytest.approx(1.0, abs=1e-8)
        assert out["W"]["data"][0][0] == pytest.approx(1.0, abs=1e-8)
        assert out["u_T_norm_sq"] == pytest.approx(1.0, abs=1e-10)
        assert out["julia"]["violations"] == 0
        assert list(out) == [
            "T", "delta_norm_at_T", "on_distinguished_boundary", "sequence", "alpha",
            "is_bpoint", "conditional", "julia", "W", "W_unitary_distance", "W_error",
            "u_T", "u_T_norm_sq", "range_residual", "kernel_orthogonality", "kernel_defect",
            "boundary_identity_max_residual", "inward_witness", "tfae",
        ]

    def test_mixed_boundary_point(self, files, capsys):
        code = main([
            "bpoint", "--fixture", "example-h1", "--point", files["mixed"],
            "--samples", "5",
        ])
        assert code == 0
        capsys.readouterr()
        # (1, 0) is on the boundary but off the distinguished boundary: no
        # model vector, range test or boundedness report
        code = main([
            "bpoint", "--fixture", "example-h1", "--point", files["edge"],
            "--samples", "5",
        ])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["on_distinguished_boundary"] is False
        assert out["conditional"] is False
        for key in (
            "u_T", "range_residual", "kernel_orthogonality", "kernel_defect",
            "boundary_identity_max_residual",
        ):
            assert out[key] is None
        for key in ("u_T_norm_sq", "inward_witness", "tfae"):
            assert key not in out

    def test_interior_point_rejected(self, files):
        assert main([
            "bpoint", "--fixture", "example-h1", "--point", files["interior"],
        ]) == 3

    def test_ray_rule(self, files):
        code = main([
            "bpoint", "--fixture", "example-h1", "--point", files["boundary"],
            "--ray", files["inward"], "--samples", "5",
        ])
        assert code == 0

    def test_false_verdict_exits_one(self, files, capsys):
        # colligation with the right-hand side outside the boundary range:
        # loaded with a loose isometry tolerance, verdict must be false
        blocks = {
            "dim_E": 1, "J": 1,
            "A": {"rows": 1, "cols": 1, "data": [[0.0, 0.0]]},
            "B": {"rows": 1, "cols": 1, "data": [[0.0, 0.0]]},
            "C": {"rows": 1, "cols": 1, "data": [[1.0, 0.0]]},
            "D": {"rows": 1, "cols": 1, "data": [[1.0, 0.0]]},
        }
        real = write_json(files["tmp"] / "inconsistent.json", blocks)
        t1 = write_json(files["tmp"] / "t1.json", {"scalars": [[1.0, 0.0]]})
        code = main([
            "bpoint", "--delta", "polydisk:1", "--realization", real,
            "--point", t1, "--samples", "5", "--isometry-tol", "10",
        ])
        assert code == 1
        out = json.loads(capsys.readouterr().out)
        assert out["is_bpoint"] is False
        assert out["alpha"]["diverging"] is True
        assert out["W"] is None and out["W_unitary_distance"] is None
        assert isinstance(out["W_error"], str)

    def test_defaults_are_the_library_defaults(self, files, capsys, monkeypatch):
        from ncjulia import analyze_bpoint, get_fixture, tuple_from_json
        from ncjulia.cli import _jsonable_report

        monkeypatch.delenv("NCJULIA_SEED", raising=False)
        assert main(["bpoint", "--fixture", "example-h1", "--point", files["boundary"]]) == 0
        with open(files["boundary"]) as fh:
            t = tuple_from_json(json.load(fh))
        # the CLI's default seed is 2024, the library's 0; every other value is shared
        report = analyze_bpoint(get_fixture("example-h1").handle, t, seed=2024)
        assert capsys.readouterr().out == render_json(_jsonable_report(report)) + "\n"


class TestFuzz:
    def test_clean_run(self, capsys):
        assert main(["fuzz", "--samples", "30", "--seed", "7"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["model_identity"]["violations"] == 0
        assert out["julia_inequality"]["violations"] == 0

    def test_negative_control(self, capsys):
        assert main(["fuzz", "--samples", "10", "--seed", "7", "--no-isometry"]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["model_identity"]["violations"] > 0

    def test_seed_determinism(self, capsys):
        main(["fuzz", "--samples", "15", "--seed", "123"])
        first = capsys.readouterr().out
        main(["fuzz", "--samples", "15", "--seed", "123"])
        second = capsys.readouterr().out
        assert first == second

    def test_env_seed_override(self, capsys, monkeypatch):
        main(["fuzz", "--samples", "15", "--seed", "1"])
        baseline = capsys.readouterr().out
        monkeypatch.setenv("NCJULIA_SEED", "1")
        main(["fuzz", "--samples", "15", "--seed", "999"])
        overridden = capsys.readouterr().out
        assert overridden == baseline

    def test_bad_env_seed(self, monkeypatch):
        monkeypatch.setenv("NCJULIA_SEED", "pi")
        assert main(["fuzz", "--samples", "5"]) == 2

    def test_J_comes_from_delta(self, capsys):
        assert main(["fuzz", "--samples", "2", "--delta", "polydisk:3"]) == 0
        assert json.loads(capsys.readouterr().out)["J"] == 3
        # there is no --J option to contradict the delta
        assert main(["fuzz", "--J", "3", "--delta", "polydisk:3"]) == 2

    def test_one_sequence_per_julia_sub_sweep(self, monkeypatch, capsys):
        from ncjulia import boundary

        calls = []
        original = boundary._sequence_in_domain  # the helper generate_sequence wraps
        monkeypatch.setattr(
            boundary, "_sequence_in_domain", lambda *a, **kw: calls.append(a) or original(*a, **kw)
        )
        # one sample: the Julia sub-sweep runs at sample 0 only
        assert main(["fuzz", "--samples", "1", "--seed", "7"]) == 0
        assert len(calls) == 1

    def test_delta_file_runs_like_its_name(self, files, capsys):
        from ncjulia import delta_to_json, polydisk_delta

        path = write_json(files["tmp"] / "polydisk.json", delta_to_json(polydisk_delta(2)))
        main(["fuzz", "--samples", "30", "--seed", "3", "--delta", "polydisk:2"])
        by_name = capsys.readouterr().out
        main(["fuzz", "--samples", "30", "--seed", "3", "--delta", path])
        by_file = capsys.readouterr().out
        assert json.loads(by_name)["julia_inequality"]["checked"] > 0
        assert by_file == by_name

    @pytest.mark.parametrize(
        "argv, dim_e, checked, max_residual",
        [
            # three Julia sub-sweeps of five samples each
            (["--delta", "polydisk:2"], 1, 15, 1.2263889032422858e-15),
            (["--delta", "cartan:2", "--dim-E", "2"], 2, 0, 9.9574492268740612e-16),
        ],
    )
    def test_golden_output(self, argv, dim_e, checked, max_residual, capsys):
        assert main(["fuzz", "--samples", "25", "--seed", "11", *argv]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "samples": 25,
            "seed": 11,
            "dim_E": dim_e,
            "J": 2,
            "model_identity": {
                "checked": 25,
                "violations": 0,
                "max_residual": max_residual,
                "tolerance": 1e-9,
            },
            "julia_inequality": {"checked": checked, "violations": 0, "skipped": 0},
        }

    def test_delta_without_variables_is_a_parse_error(self, files, capsys):
        for d in (-1, 0):
            path = write_json(files["tmp"] / "delta.json", {"d": d, "entries": [["0.5"]]})
            assert main(["fuzz", "--samples", "3", "--delta", path]) == 2, d
            assert "d must be at least 1" in capsys.readouterr().err

    def test_non_finite_coefficient_is_a_parse_error(self, files):
        bad = {"d": 2, "terms": [{"coeff": [float("inf"), 0.0], "word": [0]}]}  # JSON Infinity
        for entry in ("1e300*x0*1e300", "x0 + 1e400", bad):
            path = write_json(files["tmp"] / "delta.json", {"d": 2, "entries": [[entry, "x1"]]})
            assert main(["fuzz", "--samples", "3", "--delta", path]) == 2


class TestDerivative:
    def test_diagonal_direction(self, files, capsys):
        code = main([
            "derivative", "--fixture", "example-h1", "--point", files["boundary"],
            "--direction", files["inward"],
        ])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["eta"]["data"][0][0] == pytest.approx(-1.0, abs=1e-7)
        assert out["beta"] == pytest.approx(1.0)

    def test_closed_form_comparison(self, files, capsys):
        code = main([
            "derivative", "--fixture", "example-h1", "--point", files["boundary"],
            "--direction", files["inward"], "--closed-form", "example-h3-eta",
        ])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["closed_form_relative_error"] <= 1e-6

    def test_tangent_direction_rejected(self, files):
        assert main([
            "derivative", "--fixture", "example-h1", "--point", files["boundary"],
            "--direction", files["tangent"],
        ]) == 3

    def test_non_homogeneous_delta_uses_ray_extraction(self, files, capsys):
        # mixed-degree grid: the boundary value must be extracted along the
        # ray because radial sequences are undefined for it
        delta = write_json(
            files["tmp"] / "mixed.json",
            {"d": 2, "entries": [["x0", "0"], ["0", "3*x1 - 2*x1^2"]]},
        )
        direction = write_json(
            files["tmp"] / "Kmixed.json", {"scalars": [[-1.0, 0.0], [1.0, 0.0]]}
        )
        code = main([
            "derivative", "--delta", delta, "--realization", "example-h1",
            "--point", files["boundary"], "--direction", direction,
        ])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["converged"] is True
        assert out["beta"] == pytest.approx(1.0, abs=1e-12)
        assert out["W"]["data"][0][0] == pytest.approx(1.0, abs=1e-6)


class TestMeta:
    def test_fixtures_listing(self, capsys):
        assert main(["fixtures"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert "example-h1" in out["fixtures"]

    def test_schema(self, capsys):
        assert main(["schema"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert set(out) >= {"matrix", "polynomial", "delta", "point", "realization"}

    def test_usage_error_exit_code(self):
        assert main(["no-such-command"]) == 2

    def test_config_validation(self, files, monkeypatch):
        # each invalid value is refused before any work is done
        fuzz = ["fuzz", "--samples", "2"]
        bpoint = ["bpoint", "--fixture", "example-h1", "--point", files["boundary"]]
        evaluate = ["eval", "--fixture", "example-h1", "--point", files["interior"]]
        for argv in (
            fuzz + ["--margin", "-1"],
            fuzz + ["--margin", "nan"],
            fuzz + ["--margin", "2"],
            fuzz + ["--margin", "1"],
            fuzz + ["--rel-tol", "inf"],
            fuzz + ["--model-residual-tol", "nan"],
            fuzz + ["--samples", "0"],
            fuzz + ["--seed", "-1"],
            fuzz + ["--dim-E", "0"],
            bpoint + ["--steps", "1"],
            bpoint + ["--residual-tol", "nan"],
            bpoint + ["--seed", "-1"],
            bpoint + ["--margin", "1"],
            evaluate + ["--isometry-tol", "nan"],
        ):
            assert main(argv) == 2, argv
        monkeypatch.setenv("NCJULIA_SEED", "-1")
        assert main(fuzz) == 2
        assert main(bpoint) == 2

    def test_zero_size_point_is_a_parse_error(self, files, capsys):
        empty = {"rows": 0, "cols": 0, "data": []}
        point = write_json(files["tmp"] / "empty.json", {"components": [empty, empty]})
        handle = ["--fixture", "example-h1", "--point", point]
        for argv in (
            ["eval", *handle],
            ["derivative", *handle, "--direction", files["inward"]],
            ["bpoint", *handle],
        ):
            assert main(argv) == 2, argv
            assert "at least 1 x 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kind, obj",
        [
            ("delta", {"d": 2, "J": "x", "entries": [["x0", "0"], ["0", "x1"]]}),
            ("delta", {"d": 2.7, "entries": [["x0", "0"], ["0", "x1"]]}),
            ("delta", {"d": True, "entries": [["x0"]]}),
            ("delta", {"d": 2, "entries": [[_poly([["a", 0]], [0]), "x1"]]}),
            ("delta", {"d": 2, "entries": [[_poly([[1, 0]], [0.9]), "x1"]]}),
            ("delta", {"d": 2, "entries": [[_poly([[10**400, 0]], [0]), "x1"]]}),
            ("point", {"d": 2, "n": "two", "components": [_SCALAR, _SCALAR]}),
            ("point", {"components": [{"rows": 1, "cols": 1, "data": [["a", 0]]}, _SCALAR]}),
            ("point", {"components": [{"rows": 1, "cols": 1, "data": [[None, 0]]}, _SCALAR]}),
            ("point", {"components": [{"rows": 1.9, "cols": 1, "data": [[0.5, 0]]}, _SCALAR]}),
            ("point", {"scalars": [[0.5, 0], [True, 0]]}),
            ("realization", {**_H1_REALIZATION, "dim_E": 1.0}),
            ("realization", {**_H1_REALIZATION, "J": "2"}),
        ],
    )
    def test_malformed_json_numbers_are_parse_errors(self, files, kind, obj):
        path = write_json(files["tmp"] / f"{kind}.json", obj)
        argv = {
            "delta": ["fuzz", "--samples", "3", "--delta", path],
            "point": ["eval", "--fixture", "example-h1", "--point", path],
            "realization": [
                "eval", "--delta", "polydisk:2", "--realization", path,
                "--point", files["interior"],
            ],
        }[kind]
        assert main(argv) == 2

    def test_integer_beyond_the_digit_limit_is_a_parse_error(self, files):
        path = files["tmp"] / "delta.json"
        path.write_text('{"d": 1' + "0" * 5000 + ', "entries": [["x0"]]}')
        assert main(["fuzz", "--samples", "3", "--delta", str(path)]) == 2

    def test_many_variables_in_a_small_grid_build_no_polydisk(self, files, monkeypatch):
        from ncjulia import fixtures

        def refuse(d):
            raise AssertionError(f"built the {d}-polydisk")

        monkeypatch.setattr(fixtures, "polydisk_delta", refuse)
        path = write_json(files["tmp"] / "delta.json", {"d": 100, "entries": [["0.5*x0"]]})
        assert main(["fuzz", "--samples", "2", "--delta", path]) == 0

    def test_oversized_families_and_dim_e_build_nothing(self, monkeypatch):
        from ncjulia import fixtures, realization

        def refuse(*args):
            raise AssertionError("an oversized grid or colligation was built")

        for family in ("polydisk", "ball", "cartan"):
            monkeypatch.setitem(fixtures._DELTA_FAMILIES, family, refuse)
        monkeypatch.setattr(realization, "random_realization", refuse)
        cap = fixtures.MAX_FAMILY_SIZE
        for argv in (
            ["--delta", "polydisk:100000"],
            ["--delta", "ball:20000"],
            ["--delta", f"cartan:{cap + 1}"],
            ["--dim-E", "100000"],
            ["--dim-E", str(cap + 1)],
        ):
            assert main(["fuzz", "--samples", "1", *argv]) == 2, argv

    def test_options_a_command_ignores_are_rejected(self, files):
        assert main([
            "eval", "--fixture", "example-h1", "--point", files["interior"], "--seed", "3",
        ]) == 2
        assert main(["fixtures", "--samples", "5"]) == 2
        assert main([
            "bpoint", "--fixture", "example-h1", "--point", files["boundary"], "--radial",
        ]) == 2


class TestRendering:
    def test_seventeen_significant_digits(self):
        text = render_json({"x": 1.0 / 3.0})
        assert "0.33333333333333331" in text

    def test_round_trip_is_lossless(self):
        values = [1/3, 0.1, 1e-17, 123456.789, np.pi]
        text = render_json({"v": values})
        back = json.loads(text)["v"]
        assert back == values

    def test_infinity_encoded_as_string(self):
        assert json.loads(render_json({"a": float("inf")}))["a"] == "inf"
