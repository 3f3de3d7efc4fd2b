import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ncjulia import get_fixture, random_realization, realization_to_json
from ncjulia.cli import main, render_json


_SCALAR = {"rows": 1, "cols": 1, "data": [[0.5, 0]]}


def _poly(coeff, word):
    return {"d": 2, "terms": [{"coeff": c, "word": word} for c in coeff]}


_H1_REALIZATION = realization_to_json(get_fixture("example-h1").realization)


def looped_fuzz(delta_name, dim_e, seed, samples, no_isometry):
    """The per-sample model residuals and the JSON of ``ncjulia fuzz`` at default tolerances.

    The oracle of the stacked fuzz: a loop that builds each sample's
    colligation with ``random_realization`` (and ``perturb_realization``),
    scales its point with the sequential sampler and takes
    ``model_residual(h, x, x)``, drawing from the generator in the order
    ``fuzz`` draws, Julia sub-sweeps included.
    """
    from ncjulia import (
        MatrixTuple, NcFunctionHandle, boundary_point, estimate_alpha, evaluate_sequence,
        extract_W, get_delta, haar_unitary, julia_sweep, model_residual, perturb_realization,
        random_interior_points, ray_sequence,
    )
    from conftest import sequential_interior_sample

    delta = get_delta(delta_name)
    rng = np.random.default_rng(seed)
    residuals, julia = [], {"checked": 0, "violations": 0, "skipped": 0}
    for k in range(samples):
        r = random_realization(dim_e, delta.J, seed + k)
        if no_isometry:
            r = perturb_realization(r, 0.05, seed + k)
        h = NcFunctionHandle(r, delta)
        n = int(rng.integers(1, 3))
        x = sequential_interior_sample(delta, n, rng)[0]
        residuals.append(model_residual(h, x, x))
        if not (delta_name.startswith("polydisk") and k % 10 == 0):
            continue
        t = MatrixTuple(tuple(haar_unitary(n, rng) for _ in range(delta.d)))
        try:
            path = evaluate_sequence(h, ray_sequence(t, None, 18))
            alpha, w = estimate_alpha(path), extract_W(path).W
        except ValueError:
            continue
        if alpha.converged:
            points = random_interior_points(delta, n, rng, 5, 0.05)
            sweep = julia_sweep(h, points, boundary_point(delta, t), w, alpha.alpha, 1e-8)
            julia = {key: value + getattr(sweep, key) for key, value in julia.items()}
    violations = sum(res > 1e-9 for res in residuals)
    out = {
        "samples": samples,
        "seed": seed,
        "dim_E": dim_e,
        "J": delta.J,
        "model_identity": {
            "checked": samples,
            "violations": violations,
            "max_residual": max([0.0, *residuals]),
            "tolerance": 1e-9,
        },
        "julia_inequality": julia,
    }
    return residuals, out


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
        "ball": write_json(tmp_path / "Tball.json", {"scalars": [[0.6, 0], [0.8, 0]]}),
        "malformed": str((tmp_path / "broken.json").write_text("{oops") or tmp_path / "broken.json"),
        "tmp": tmp_path,
    }


GOLDEN = Path(__file__).resolve().parent / "golden"
# golden file: (exit code, argv); "{name}" stands for the file of that name in ``files``
GOLDEN_RUNS = {
    "bpoint-h1-radial.json": (0, ["bpoint", "--fixture", "example-h1", "--point", "{boundary}"]),
    "bpoint-h1-radial.txt": (
        0, ["bpoint", "--fixture", "example-h1", "--point", "{boundary}", "--output", "text"]
    ),
    "bpoint-h1-ray.json": (
        0, ["bpoint", "--fixture", "example-h1", "--point", "{boundary}", "--ray", "{inward}"]
    ),
    "bpoint-h1-ray.txt": (
        0,
        [
            "bpoint", "--fixture", "example-h1", "--point", "{boundary}", "--ray", "{inward}",
            "--output", "text",
        ],
    ),
    # the quotient diverges at a boundary point of the ball: not a B-point
    "bpoint-ball2.json": (
        1, ["bpoint", "--delta", "ball:2", "--fixture", "example-h1", "--point", "{ball}"]
    ),
    "derivative-h3-eta.json": (
        0,
        [
            "derivative", "--fixture", "example-h1", "--point", "{boundary}",
            "--direction", "{inward}", "--closed-form", "example-h3-eta",
        ],
    ),
    "eval-h1.json": (0, ["eval", "--fixture", "example-h1", "--point", "{interior}"]),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_golden_stdout(name, files, capsys):
    code, argv = GOLDEN_RUNS[name]
    assert main([arg.format(**files) for arg in argv]) == code
    assert capsys.readouterr().out == (GOLDEN / name).read_text()


@pytest.mark.parametrize(
    "argv, code",
    [
        (["eval", "--fixture", "example-h1", "--point", "{big}"], 0),
        (["bpoint", "--delta", "ball:2", "--fixture", "example-h1", "--point", "{ball}"], 1),
    ],
)
def test_reader_closing_stdout_early_changes_no_exit_code(files, argv, code):
    import ncjulia

    # n = 16: the eval output is larger than the stdout buffer
    big = {"components": [{"rows": 16, "cols": 16, "data": [[0.0, 0.0]] * 256}] * 2}
    files = {**files, "big": write_json(files["tmp"] / "P.json", big)}
    argv = [arg.format(**files) for arg in argv]
    src = str(Path(ncjulia.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the command writes
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ncjulia.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr.decode()) == (code, "")


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

    def test_unknown_fixture(self, files, capsys):
        assert main(["eval", "--fixture", "nope", "--point", files["interior"]]) == 2
        assert "unknown fixture 'nope'" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, pair", [
        (["--fixture", "F"], ["--delta", "F", "--realization", "F"]),
        (["--fixture", "F", "--delta", "D"], ["--delta", "D", "--realization", "F"]),
        (["--fixture", "F", "--realization", "R"], ["--delta", "F", "--realization", "R"]),
        (
            ["--fixture", "F", "--delta", "D", "--realization", "R"],
            ["--delta", "D", "--realization", "R"],
        ),
    ])
    def test_fixture_fills_the_absent_handle_flag(self, files, capsys, flags, pair):
        colligation = realization_to_json(random_realization(1, 2, 5))
        names = {
            "F": "example-h1",
            "D": "ball:2",
            "R": write_json(files["tmp"] / "colligation.json", colligation),
        }
        runs = []
        for argv in (flags, pair):
            code = main(["eval", *(names.get(a, a) for a in argv), "--point", files["interior"]])
            runs.append((code, capsys.readouterr()))
        assert runs[0] == runs[1]
        assert runs[0][0] == 0

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

    def test_defaults_are_the_library_defaults(self, files, capsys):
        import inspect

        from ncjulia import analyze_bpoint, boundary, get_fixture, tuple_from_json
        from ncjulia.cli import _OPTIONS, _jsonable_report

        assert main(["bpoint", "--fixture", "example-h1", "--point", files["boundary"]]) == 0
        with open(files["boundary"]) as fh:
            t = tuple_from_json(json.load(fh))
        # one default seed, boundary.SEED, serves the CLI and the library
        assert _OPTIONS["--seed"]["default"] == boundary.SEED
        assert inspect.signature(analyze_bpoint).parameters["seed"].default == boundary.SEED
        report = analyze_bpoint(get_fixture("example-h1").handle, t)
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

    def test_environment_does_not_set_the_seed(self, capsys, monkeypatch):
        monkeypatch.delenv("NCJULIA_SEED", raising=False)
        main(["fuzz", "--samples", "15", "--seed", "999"])
        unset = capsys.readouterr().out
        monkeypatch.setenv("NCJULIA_SEED", "1")
        main(["fuzz", "--samples", "15", "--seed", "999"])
        assert capsys.readouterr().out == unset
        assert json.loads(unset)["seed"] == 999

    def test_J_comes_from_delta(self, capsys):
        assert main(["fuzz", "--samples", "2", "--delta", "polydisk:3"]) == 0
        assert json.loads(capsys.readouterr().out)["J"] == 3
        # there is no --J option to contradict the delta
        assert main(["fuzz", "--J", "3", "--delta", "polydisk:3"]) == 2

    def test_pending_samples_flush_by_bytes(self, monkeypatch, capsys):
        from ncjulia import cli, domain

        argv = ["fuzz", "--samples", "25", "--seed", "5", "--dim-E", "2"]
        code = main(argv)
        unpatched = capsys.readouterr().out
        flushes = []
        original = cli._model_identity_defects

        def recorded(args, delta, block):
            flushes.append([draft.shape[-1] for _, draft in block])
            return original(args, delta, block)

        monkeypatch.setattr(cli, "_model_identity_defects", recorded)
        # dim_E 2 on polydisk:2: the model system of a sample of size n is 4n x 4n complex,
        # 256 n^2 bytes; a block is checked before a sample of size 2 could take it over budget
        for budget in (3 * 1024, 100):
            flushes.clear()
            monkeypatch.setattr(domain, "BLOCK_BYTES", budget)
            assert main(argv) == code
            assert capsys.readouterr().out == unpatched
            assert sum(map(len, flushes)) == 25
            for k, block in enumerate(flushes):
                system_bytes = [256 * n**2 for n in block]
                # at least one sample; more only while they fit
                assert len(block) == 1 or sum(system_bytes) <= budget
                if k + 1 < len(flushes):
                    assert sum(system_bytes) + 256 * 2**2 > budget
        assert flushes == [[n] for block in flushes for n in block]

    @pytest.mark.parametrize("no_isometry", [False, True])
    @pytest.mark.parametrize("delta", ["polydisk:2", "ball:3", "cartan:2"])
    def test_stacked_model_identity_equals_looped_oracle(
        self, delta, no_isometry, monkeypatch, capsys
    ):
        from ncjulia import domain, realization

        stacked = []
        defects = realization.model_identity_defects

        def recorded(colligations, big_delta):
            stacked.append(defects(colligations, big_delta))
            return stacked[-1]

        monkeypatch.setattr(realization, "model_identity_defects", recorded)
        default = domain.BLOCK_BYTES
        for dim_e in (1, 2, 3):
            residuals, expected = looped_fuzz(delta, dim_e, 40 + dim_e, 25, no_isometry)
            argv = ["fuzz", "--samples", "25", "--seed", str(40 + dim_e), "--delta", delta]
            argv += ["--dim-E", str(dim_e)] + ["--no-isometry"] * no_isometry
            # one block at the default budget, then blocks of a few samples
            for budget in (default, 5 * 16 * (dim_e * 3 * 2) ** 2):
                stacked.clear()
                monkeypatch.setattr(domain, "BLOCK_BYTES", budget)
                code = main(argv)
                assert json.loads(capsys.readouterr().out) == expected
                assert code == (1 if no_isometry else 0)
                assert sorted(np.concatenate(stacked).tolist()) == sorted(residuals)
                assert len(stacked) > (2 if budget < default and dim_e > 1 else 0)

    def test_realizations_only_for_julia_samples(self, monkeypatch, capsys):
        from ncjulia import cli, domain, realization

        built, solves, blocks = [], [], []
        post_init = realization.Realization.__post_init__
        solution = realization._model_solution
        defects = cli._model_identity_defects

        def counted_post_init(self, isometry_tol):
            built.append(self)
            post_init(self, isometry_tol)

        def counted_solution(r, big_delta, n):
            if isinstance(r, realization.Colligations):
                solves.append((n, len(r.D)))
            return solution(r, big_delta, n)

        def recorded(args, delta, block):
            blocks.append([draft.shape[-1] for _, draft in block])
            return defects(args, delta, block)

        monkeypatch.setattr(realization.Realization, "__post_init__", counted_post_init)
        monkeypatch.setattr(realization, "_model_solution", counted_solution)
        monkeypatch.setattr(cli, "_model_identity_defects", recorded)
        for argv, budget, realizations in (
            ([], domain.BLOCK_BYTES, 2),  # the Julia sub-sweeps of samples 0 and 10
            (["--no-isometry"], domain.BLOCK_BYTES, 4),  # and their perturbed colligations
            ([], 3 * 16 * 4**2, 2),  # blocks of at most three samples of size 2
        ):
            built.clear(), solves.clear(), blocks.clear()
            monkeypatch.setattr(domain, "BLOCK_BYTES", budget)
            main(["fuzz", "--samples", "20", "--seed", "7", *argv])
            capsys.readouterr()
            assert len(built) == realizations
            # one stacked solve for the samples of each matrix size in each block
            assert solves == [
                (n, block.count(n)) for block in blocks for n in dict.fromkeys(block)
            ]
            assert sum(map(len, blocks)) == 20 and (len(blocks) == 1) == (budget > 4096)

    def test_one_sequence_per_julia_sub_sweep(self, monkeypatch, capsys):
        from ncjulia import boundary

        calls = []
        original = boundary.generate_sequence
        monkeypatch.setattr(
            boundary, "generate_sequence", lambda *a, **kw: calls.append(a) or original(*a, **kw)
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

    def test_json_polynomial_above_the_caps_is_a_parse_error(self, files, capsys):
        from ncjulia.freepoly import MAX_DEGREE, MAX_TERMS

        deep = {"d": 2, "terms": [{"coeff": [0.5, 0.0], "word": [0] * 200_000}]}
        wide = {"d": 2, "terms": [{"coeff": [0.5, 0.0], "word": [0]}] * (MAX_TERMS + 1)}
        for entry, message in ((deep, f"maximum {MAX_DEGREE}"), (wide, f"more than {MAX_TERMS}")):
            path = write_json(files["tmp"] / "delta.json", {"d": 2, "entries": [[entry, "x1"]]})
            assert main(["fuzz", "--samples", "5", "--delta", path]) == 2
            assert message in capsys.readouterr().err


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

    def test_huge_ladder_first_step_is_halved_into_the_domain(self, files, capsys):
        code = main([
            "derivative", "--fixture", "example-h1", "--point", files["boundary"],
            "--direction", files["inward"], "--ladder-first-step", "1e30",
        ])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["converged"] is True and 1.0 <= out["first_step"] < 2.0
        assert out["eta"]["data"][0][0] == pytest.approx(-1.0, abs=1e-12)

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

    def test_one_parser_serves_failing_and_valid_calls(self, capsys):
        from ncjulia import cli

        assert main(["fuzz", "--samples", "0"]) == 2
        assert main(["fixtures"]) == 0
        assert "example-h1" in json.loads(capsys.readouterr().out)["fixtures"]
        assert cli.build_parser() is cli.build_parser()

    def test_package_reads_no_environment(self):
        # a run is set by its arguments alone: no module of the package reads an environment knob
        import ast
        from pathlib import Path

        import ncjulia

        knobs = {"environ", "environb", "getenv", "getenvb"}
        found = []
        for path in sorted(Path(ncjulia.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if (
                    isinstance(node, ast.Attribute) and node.attr in knobs
                    and isinstance(node.value, ast.Name) and node.value.id == "os"
                ) or (
                    isinstance(node, ast.ImportFrom) and node.module == "os"
                    and any(alias.name in knobs for alias in node.names)
                ):
                    found.append(f"{path.name}:{node.lineno}")
        assert found == []

    def test_config_validation(self, files):
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

    def test_underflowing_step_count_exits_three_at_once(self, files, monkeypatch):
        from ncjulia import domain

        def refuse(**kwargs):
            raise AssertionError(f"built a sequence of {len(kwargs['steps'])} steps")

        monkeypatch.setattr(domain, "ApproachSequence", refuse)
        point = ["--fixture", "example-h1", "--point", files["boundary"]]
        for argv in (["bpoint", *point], ["derivative", *point, "--direction", files["inward"]]):
            assert main(argv + ["--steps", "2000"]) == 3, argv

    def test_bare_list_point_is_a_parse_error(self, files, capsys):
        point = write_json(files["tmp"] / "bare.json", [_SCALAR, _SCALAR])
        assert main(["eval", "--fixture", "example-h1", "--point", point]) == 2
        assert "'components' or 'scalars'" in capsys.readouterr().err

    def test_listed_sizes_must_match_the_point(self, files, capsys):
        listings = (({"d": 3, "n": 4}, "point lists d=3"), ({"n": 4}, "point lists n=4"))
        for listed, message in listings:
            for form in ({"scalars": [[0.5, 0], [0.3, 0]]}, {"components": [_SCALAR, _SCALAR]}):
                point = write_json(files["tmp"] / "sized.json", {**form, **listed})
                assert main(["eval", "--fixture", "example-h1", "--point", point]) == 2
                assert message in capsys.readouterr().err

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

    def test_delta_file_above_the_variable_cap_draws_nothing(self, files, monkeypatch):
        from ncjulia import cartan_delta, delta_from_json, delta_to_json, domain

        def refuse(*args):
            raise AssertionError("drew a sample for an oversized delta file")

        monkeypatch.setattr(domain, "gaussian_draft", refuse)
        cap = domain.MAX_DELTA_VARIABLES
        # too many variables, and a 1 x 65 grid of zeros: above the grid cap
        wide = [["0"] * (domain.MAX_FAMILY_SIZE + 1)]
        for obj in ({"d": cap + 1, "entries": [["0.5*x0"]]}, {"d": 1, "entries": wide}):
            path = write_json(files["tmp"] / "delta.json", obj)
            assert main(["fuzz", "--samples", "3", "--delta", path]) == 2
            assert main([
                "eval", "--fixture", "example-h1", "--delta", path, "--point", files["interior"],
            ]) == 2
        # the largest named family is a valid delta file
        largest = cartan_delta(domain.MAX_FAMILY_SIZE)
        assert largest.d == cap
        assert delta_from_json(delta_to_json(largest)) == largest

    def test_overflowing_sequence_point_exits_three(self, files, capsys):
        # T + 1e308 H overflows at the first step: refused before Delta, with no numpy warning
        ray = write_json(files["tmp"] / "H4.json", {"scalars": [[-4, 0], [-4, 0]]})
        argv = [
            "bpoint", "--fixture", "example-h1", "--point", files["boundary"], "--ray", ray,
            "--first-step", "1e308",
        ]
        assert main(argv) == 3
        assert "non-finite" in capsys.readouterr().err

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
